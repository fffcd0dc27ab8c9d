"""Time integration of the invasion system.

One step advances the three fields by an implicit-explicit (IMEX)
splitting, always in the same order:

1. protease: implicit diffusion and linear decay, explicit production
   from the step-start cell and matrix densities;
2. matrix: exact pointwise exponential decay with the protease frozen
   at its step-start value;
3. cells: implicit diffusion with the drift and growth terms explicit,
   evaluated at step-start fields.

Every state holds the cell density ``u``; its ``formulation`` names
the scheme that steps it.  The primitive scheme integrates ``u``
directly, with the donor-cell drift flux, its one discretization.  The
weighted one forms ``w = u * exp(-int_0^v chi)`` inside
:func:`imex_step`, integrates the equation of ``w``, which trades the
drift divergence for a first-order transport term plus reaction terms,
and returns ``u = w / z`` with the weight ``z`` of the new matrix; it
exists to cross-check the primitive discretization.  Only
:func:`imex_step` forms ``w``.

Neither scheme keeps ``u`` nonnegative on every input the validators
accept.  The drift guard of :func:`stable_dt` is per axis, so a
primitive cell can drain through several faces in one step (ROADMAP
item 2), and the weighted step's centred transport term has no sign
structure (item 3).

Each step also accumulates ``int_0^t m`` per cell by the trapezoid
rule, which feeds the exact-decay identity checks on the matrix.  The
time integral of ``grad m`` is not stored: both the trapezoid update
and the cell-centred gradient are linear, so it equals the gradient of
``int_0^t m`` and is derived from it on demand.

Each per-state quantity is computed once, and this module alone keeps
it: one slot, keyed on the identity of the state and of ``chi``, holds
that state's face drift velocities and its taxis weight ``z``.
Whichever of :func:`stable_dt`, :func:`_taxis_weight` and
:func:`imex_step` first needs one fills it, whatever the scheme.
:func:`imex_step` empties the slot before its solves and keys it to
the state it returns, with that state's weight if a weighted step
divided by it, so the record's sampler and the next step read the
``z`` that step divided by.  The slot is a pure cache: a miss
recomputes the same bits.  It also marks a state :func:`imex_step`
returned, whose cell, matrix and protease arrays it made read-only
after checking them finite: that state's next step skips the entry
check, which any other state gets.  Apart from the two retags, only
:func:`imex_step` reads a state's ``formulation``.  The operators hold
no state, and nothing is stored on a field.

A step is written to cost its arithmetic and little more, with one step
path for every dimension.  It works on raw arrays, calls each public
operator once per use, and wraps an array in a field only where an
operator or the new state takes one.  The guards, and the monitors of
each record, take their whole-array reductions as ufunc reductions,
and the finiteness checks take one BLAS dot product per field.  Every
rewrite of an expression keeps its bits: ``x - drift`` for ``-drift +
x`` and ``m * -dt`` for ``-m * dt`` are the same IEEE operations with
one NumPy call fewer.
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

# whole-array reductions, called as ufunc reductions with axis None:
# ``np.max``, ``np.min`` and ``np.sum`` reach the same reductions, with the
# same pairwise summation and so the same bits, through Python wrappers
_max, _min, _sum = np.maximum.reduce, np.minimum.reduce, np.add.reduce


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
    return ScalarField(v.grid, v.values * np.exp(m.values * -dt))


# The one per-state cache, ``[state, chi, velocities, z, checked]``: the
# drift velocities and the taxis weight of ``state``'s matrix under ``chi``,
# each None until first needed, and whether ``imex_step`` returned ``state``
# checked finite and read-only.  It holds the state and ``chi`` themselves,
# so neither identity can be reused while cached.  The lookups are written
# out at each use: a helper call per lookup costs the 1D step a few percent.
_slot: list = [None, None, None, None, False]


def stable_dt(state: SimState, params: ModelParams, cfg: StepperConfig) -> float:
    """Largest safe explicit step, capped by ``cfg.dt_max``.

    Three physics guards, each scaled by the CFL safety factor: the
    drift velocity ``chi(v)*grad v`` against the cell size, the
    logistic rate ``mu*(1+u+v)``, and the protease relaxation rate
    (decay plus current level plus the production sensitivity
    ``L_g * max u``).  Denominators are floored at 1e-14 so quiescent
    states fall back to ``dt_max``.

    The guards read the state's raw arrays and the drift velocities in
    the slot, in either scheme; a primitive step transports them.
    """
    ecm, chi, slot = state.ecm, params.taxis, _slot
    u, v, m = state.cells.values, ecm.values, state.protease.values
    if slot[0] is not state or slot[1] is not chi:
        slot[:] = state, chi, None, None, False
    velocities = slot[2]
    if velocities is None:
        velocities = slot[2] = drift_velocities(ecm, chi)

    # every axis has at least two cells, so every velocity array is nonempty
    candidates = []
    for h, vel in zip(ecm.grid.spacing, velocities):
        speed = float(_max(np.abs(vel), None))
        candidates.append(cfg.cfl * h / max(speed, DENOM_FLOOR))

    if params.growth_rate > 0:
        rate = params.growth_rate * float(_max(1.0 + u + v, None))
        candidates.append(cfg.cfl / max(rate, DENOM_FLOOR))

    production_stiffness = params.production.lipschitz_value * float(_max(u, None))
    rate = params.protease_decay + float(_max(m, None)) + production_stiffness
    candidates.append(cfg.cfl / max(rate, DENOM_FLOOR))

    return min(cfg.dt_max, min(candidates))


def _cell_gradient(f: ScalarField) -> list[np.ndarray]:
    """Face gradients averaged back to centers, one array per axis."""
    return [_neighbour_mean(comp, d)
            for d, comp in enumerate(gradient_faces(f))]


def _taxis_weight(state: SimState, params: ModelParams) -> np.ndarray:
    """The taxis weight ``z`` of the state's matrix as a raw array.

    It is the slot's, in either scheme: after a weighted step, the ``z``
    that step divided by; otherwise evaluated once and kept there.
    """
    chi, slot = params.taxis, _slot
    if slot[0] is not state or slot[1] is not chi:
        slot[:] = state, chi, None, None, False
    if slot[3] is None:
        slot[3] = taxis_weight(state.ecm, chi).values
    return slot[3]


def _ensure_finite(t: float, cells: np.ndarray, ecm: np.ndarray,
                   protease: np.ndarray) -> None:
    # a finite sum of squares proves every entry finite; the squares of
    # finite entries may still overflow, so a non-finite sum gets the exact
    # check per field.  ``vdot`` takes each sum in one BLAS call
    if math.isfinite(np.vdot(cells, cells) + np.vdot(ecm, ecm)
                     + np.vdot(protease, protease)):
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
    step holds a non-finite value.  The new state's cells, matrix and
    protease arrays are read-only, and the slot marks the new state
    checked, so it enters its next step without a second check.

    Apart from the two retags, this is the one reader of the state's
    ``formulation``, and its branches are the scheme's arithmetic alone.  A primitive step
    transports the slot's drift velocities.  A weighted step drops them,
    forms ``w = u * z`` with the slot's weight ``z``, solves for ``w_new``
    and returns ``u = w_new / z_new``.  Either keys the slot to the state
    it returns, with the weight ``z_new`` of a weighted one.
    """
    if not 0.0 < dt < math.inf:
        raise ValidationError(f"dt must be positive and finite, got {dt!r}")
    cells, ecm, protease, form = state.cells, state.ecm, state.protease, state.formulation
    grid = cells.grid
    u, v, m = cells.values, ecm.values, protease.values
    chi, g, slot = params.taxis, params.production, _slot
    if slot[0] is not state or slot[1] is not chi:
        slot[:] = state, chi, None, None, False
    if not slot[4]:
        _ensure_finite(state.t, u, v, m)
    mu = params.growth_rate

    # the cells' explicit terms come first: they are the step's last use of
    # the slot, so it empties before the solves
    if form == PRIMITIVE:
        w = u
        drift = haptotaxis_divergence(
            cells, drift_velocities(ecm, chi) if slot[2] is None else slot[2]).values
        explicit = mu * u * (1.0 - u - v) - drift
    else:
        # the guard's velocities go first: kept alive through the terms
        # below, they made a 3D weighted run about 30 % slower, for a cause
        # not established
        slot[2] = None
        w = u * (taxis_weight(ecm, chi).values if slot[3] is None else slot[3])
        dot = np.zeros(grid.shape)
        for d in range(grid.dims):
            dot += _neighbour_mean(_face_diffs(v, grid, d) * _face_diffs(w, grid, d), d)
        chi_v = chi(v)
        explicit = chi_v * dot + mu * w * (1.0 - u - v) + chi_v * w * v * m
    slot[:] = None, None, None, None, False

    protease_new = helmholtz_solve(
        params.protease_diffusion, 1.0 / dt + params.protease_decay,
        ScalarField(grid, m / dt + u * g(v)))
    ecm_new = step_v_exact(ecm, protease, dt)
    cells_new = helmholtz_solve(1.0, 1.0 / dt, ScalarField(grid, w / dt + explicit))
    if form == WEIGHTED:
        z_new = taxis_weight(ecm_new, chi).values
        cells_new = ScalarField(grid, cells_new.values / z_new)

    u_new, v_new, m_new = cells_new.values, ecm_new.values, protease_new.values
    _ensure_finite(state.t, u_new, v_new, m_new)
    # ``setflags`` costs half of a ``flags.writeable`` assignment
    for values in (u_new, v_new, m_new):
        values.setflags(write=False)

    int_m = state.int_protease.values + 0.5 * dt * (m + m_new)
    out = SimState(state.t + dt, cells_new, ecm_new, protease_new, form,
                   ScalarField(grid, int_m))
    slot[:] = out, chi, None, z_new if form == WEIGHTED else None, True
    return out


def to_weighted_form(state: SimState, params: ModelParams) -> SimState:
    """The same state, its cells ``u``, tagged for the weighted scheme."""
    if state.formulation != PRIMITIVE:
        raise ValidationError("state is already in weighted form")
    return replace(state, formulation=WEIGHTED)


def from_weighted_form(state: SimState, params: ModelParams) -> SimState:
    """The same state, its cells ``u``, tagged for the primitive scheme."""
    if state.formulation != WEIGHTED:
        raise ValidationError("state is not in weighted form")
    return replace(state, formulation=PRIMITIVE)
