"""Time integration of the invasion system.

One step advances the three fields by an implicit-explicit (IMEX)
splitting, always in the same order:

1. protease: implicit diffusion and linear decay, explicit production
   from the step-start cell and matrix densities;
2. matrix: exact pointwise exponential decay with the protease frozen
   at its step-start value;
3. cells: implicit diffusion with the drift and growth terms explicit,
   evaluated at step-start fields.

The same splitting runs in two algebraically equivalent formulations.
The primitive one integrates the cell density ``u`` directly, with the
donor-cell drift flux, its one discretization.  The weighted one
integrates ``w = u * exp(-int_0^v chi)``, whose equation trades the
drift divergence for a first-order transport term plus reaction terms;
it exists to cross-check the primitive discretization.  Only this
module and the run loop, which stores every record primitive, see it.

Neither form keeps ``u`` nonnegative on every input the validators
accept.  The drift guard of :func:`stable_dt` is per axis, so a
primitive cell can drain through several faces in one step (ROADMAP
item 2), and the weighted step's centred transport term has no sign
structure (item 3).

Each step also accumulates ``int_0^t m`` per cell by the trapezoid
rule, which feeds the exact-decay identity checks on the matrix.  The
time integral of ``grad m`` is not stored: both the trapezoid update
and the cell-centred gradient are linear, so it equals the gradient of
``int_0^t m`` and is derived from it on demand.

Each per-step quantity is computed once, and this module alone keeps
it: one slot holds the face drift velocities of a primitive state or the
taxis weight of a weighted one, keyed on the identity of the matrix
field and of ``chi`` and on the formulation.  :func:`stable_dt` fills
it, :func:`imex_step` on the same state reads it and empties it before
its solves, and :func:`from_weighted_form` fills it with the weight for
the record's sampler and the next step.  The operators hold no state,
and nothing is stored on a field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import (
    PRIMITIVE,
    WEIGHTED,
    ModelParams,
    ScalarField,
    SimState,
    ValidationError,
    taxis_weight,
)
from .operators import (
    _face_diffs,
    _neighbour_mean,
    drift_velocities,
    gradient_faces,
    haptotaxis_divergence,
    helmholtz_solve,
)

__all__ = [
    "StepperConfig",
    "BlowupError",
    "step_v_exact",
    "stable_dt",
    "imex_step",
    "to_weighted_form",
    "from_weighted_form",
]

DENOM_FLOOR = 1e-14


class BlowupError(RuntimeError):
    """A step produced non-finite values; carries the last good time."""

    def __init__(self, t: float, fields: list[str]):
        super().__init__(f"non-finite values in {', '.join(fields)} while "
                         f"stepping from t={t:.6g}")
        self.t = t
        self.fields = fields


@dataclass(frozen=True)
class StepperConfig:
    """Step-size policy and sampling cadence for a run."""

    t_end: float
    dt_max: float
    record_every: float
    cfl: float = 0.5

    def __post_init__(self):
        for name in ("t_end", "dt_max", "record_every"):
            x = getattr(self, name)
            if not (math.isfinite(x) and x > 0):
                raise ValidationError(f"{name} must be positive and finite, got {x!r}",
                                      name)
        if not 0 < self.cfl <= 1:
            raise ValidationError(f"cfl must be in (0, 1], got {self.cfl!r}", "cfl")


def step_v_exact(v: ScalarField, m: ScalarField, dt: float) -> ScalarField:
    """Advance the matrix by its exact decay ``v * exp(-m*dt)``.

    Pointwise per cell; exact whenever the protease is constant over
    the step, and monotone nonincreasing for any ``m >= 0``.
    """
    if dt < 0:
        raise ValidationError(f"dt must be >= 0, got {dt}")
    return v.with_values(v.values * np.exp(-m.values * dt))


def stable_dt(state: SimState, params: ModelParams, cfg: StepperConfig) -> float:
    """Largest safe explicit step, capped by ``cfg.dt_max``.

    Three physics guards, each scaled by the CFL safety factor: the
    drift velocity ``chi(v)*grad v`` against the cell size, the
    logistic rate ``mu*(1+u+v)``, and the protease relaxation rate
    (decay plus current level plus the production sensitivity
    ``L_g * max u``).  Denominators are floored at 1e-14 so quiescent
    states fall back to ``dt_max``.

    The guards read the state's raw arrays; a weighted state is divided
    by its taxis weight once, without building a primitive state.
    """
    ecm = state.ecm
    u = _primitive_cells(state, params)
    v, m = ecm.values, state.protease.values

    candidates = []
    # every axis has at least two cells, so every velocity array is nonempty;
    # a weighted step has no drift divergence to reuse them in, and its slot
    # holds the weight, so it keeps none of them
    for h, vel in zip(ecm.grid.spacing,
                      _per_step(state, params) if state.formulation == PRIMITIVE
                      else drift_velocities(ecm, params.taxis)):
        speed = float(np.abs(vel).max())
        candidates.append(cfg.cfl * h / max(speed, DENOM_FLOOR))

    if params.growth_rate > 0:
        rate = params.growth_rate * float((1.0 + u + v).max())
        candidates.append(cfg.cfl / max(rate, DENOM_FLOOR))

    production_stiffness = params.production.lipschitz_value * float(u.max())
    rate = params.protease_decay + float(m.max()) + production_stiffness
    candidates.append(cfg.cfl / max(rate, DENOM_FLOOR))

    return min(cfg.dt_max, min(candidates))


def _cell_gradient(f: ScalarField) -> list[np.ndarray]:
    """Face gradients averaged back to centers, one array per axis."""
    return [_neighbour_mean(comp, d)
            for d, comp in enumerate(gradient_faces(f))]


# The one per-step cache, ``[v, chi, formulation, value]``.  It holds ``v``
# and ``chi`` themselves, so neither identity can be reused while cached;
# the formulation is in the key because ``to_weighted_form`` shares ``ecm``
# with its input.  ``imex_step`` empties it before its solves.
_slot: list = [None, None, None, None]


def _per_step(state: SimState, params: ModelParams):
    """The drift velocities of a primitive state, or the taxis weight of a weighted one."""
    v, chi, form, slot = state.ecm, params.taxis, state.formulation, _slot
    if slot[0] is not v or slot[1] is not chi or slot[2] != form:
        value = (drift_velocities(v, chi) if form == PRIMITIVE
                 else taxis_weight(v, chi).values)
        slot[:] = v, chi, form, value
    return slot[3]


def _primitive_cells(state: SimState, params: ModelParams) -> np.ndarray:
    """The primitive cell density ``u`` as a raw array, whichever form the state holds."""
    cells = state.cells.values
    if state.formulation == PRIMITIVE:
        return cells
    return cells / _per_step(state, params)


def _ensure_finite(t: float, cells: np.ndarray, ecm: np.ndarray,
                   protease: np.ndarray) -> None:
    # a finite sum proves every entry finite; a sum of finite entries may
    # still overflow, so a non-finite sum gets the exact check per field
    if math.isfinite(cells.sum() + ecm.sum() + protease.sum()):
        return
    fields = {"cells": cells, "ecm": ecm, "protease": protease}
    bad = [name for name, arr in fields.items() if not np.isfinite(arr).all()]
    if bad:
        raise BlowupError(t, bad)


def imex_step(state: SimState, params: ModelParams, dt: float) -> SimState:
    """One IMEX step of size ``dt``; returns the state at ``t + dt``.

    The splitting of the module docstring is written out on raw arrays.
    The matrix update is :func:`step_v_exact`, the two solves go through
    :func:`~haptosim.operators.helmholtz_solve` and the primitive drift
    through :func:`~haptosim.operators.haptotaxis_divergence`; a field is
    wrapped only where one of those takes it, and the fields they return
    go into the new state as they are.  Raises :class:`BlowupError`,
    naming every field at fault, when the state entering or leaving the
    step holds a non-finite value.
    """
    if not (dt > 0 and math.isfinite(dt)):
        raise ValidationError(f"dt must be positive and finite, got {dt!r}")
    grid = state.grid
    w, v, m = state.cells.values, state.ecm.values, state.protease.values
    _ensure_finite(state.t, w, v, m)
    chi, g = params.taxis, params.production
    mu = params.growth_rate
    u = _primitive_cells(state, params)

    # the cells' explicit terms come first: they are the step's last use of
    # the slot, so it empties before the solves
    if state.formulation == PRIMITIVE:
        drift = haptotaxis_divergence(state.cells, _per_step(state, params)).values
        explicit = -drift + mu * u * (1.0 - u - v)
    else:
        dot = np.zeros(grid.shape)
        for d in range(grid.dims):
            dot += _neighbour_mean(_face_diffs(v, grid, d) * _face_diffs(w, grid, d), d)
        chi_v = chi(v)
        explicit = chi_v * dot + mu * w * (1.0 - u - v) + chi_v * w * v * m
    _slot[:] = None, None, None, None

    protease_new = helmholtz_solve(
        params.protease_diffusion, 1.0 / dt + params.protease_decay,
        ScalarField(grid, m / dt + u * g(v)))
    ecm_new = step_v_exact(state.ecm, state.protease, dt)
    cells_new = helmholtz_solve(1.0, 1.0 / dt, ScalarField(grid, w / dt + explicit))

    m_new = protease_new.values
    _ensure_finite(state.t, cells_new.values, ecm_new.values, m_new)

    int_m = state.int_protease.values + 0.5 * dt * (m + m_new)
    return SimState(state.t + dt, cells_new, ecm_new, protease_new, state.formulation,
                    ScalarField(grid, int_m))


def to_weighted_form(state: SimState, params: ModelParams) -> SimState:
    """Switch to the weighted density ``w = u * exp(-int_0^v chi)``."""
    if state.formulation != PRIMITIVE:
        raise ValidationError("state is already in weighted form")
    z = taxis_weight(state.ecm, params.taxis)
    return replace(state, cells=state.cells.with_values(state.cells.values * z.values),
                   formulation=WEIGHTED)


def from_weighted_form(state: SimState, params: ModelParams) -> SimState:
    """Recover the primitive cell density; the weight stays in the per-step slot."""
    if state.formulation != WEIGHTED:
        raise ValidationError("state is not in weighted form")
    return replace(state, cells=state.cells.with_values(_primitive_cells(state, params)),
                   formulation=PRIMITIVE)
