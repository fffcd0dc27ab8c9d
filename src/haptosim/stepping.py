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
donor-cell drift flux.  The weighted one integrates
``w = u * exp(-int_0^v chi)``, whose equation trades the drift
divergence for a first-order transport term plus reaction terms; it
exists to cross-check the primitive discretization.

Each step also accumulates ``int_0^t m`` per cell by the trapezoid
rule, which feeds the exact-decay identity checks on the matrix.  The
time integral of ``grad m`` is not stored: both the trapezoid update
and the cell-centred gradient are linear, so it equals the gradient of
``int_0^t m`` and is derived from it on demand.
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
    _neighbour_mean,
    drift_velocity,
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
    "as_primitive",
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
                raise ValidationError(f"{name} must be positive and finite, got {x!r}")
        if not 0 < self.cfl <= 1:
            raise ValidationError(f"cfl must be in (0, 1], got {self.cfl!r}")


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
    """
    grid = state.grid
    u = as_primitive(state, params).cells.values
    v = state.ecm.values
    m = state.protease.values

    candidates = []
    for d in range(grid.dims):
        vel = drift_velocity(state.ecm, params.taxis, d)
        speed = float(np.max(np.abs(vel))) if vel.size else 0.0
        candidates.append(cfg.cfl * grid.spacing[d] / max(speed, DENOM_FLOOR))

    if params.growth_rate > 0:
        rate = params.growth_rate * float(np.max(1.0 + u + v))
        candidates.append(cfg.cfl / max(rate, DENOM_FLOOR))

    production_stiffness = params.production.lipschitz_value * float(np.max(u))
    rate = params.protease_decay + float(np.max(m)) + production_stiffness
    candidates.append(cfg.cfl / max(rate, DENOM_FLOOR))

    return min(cfg.dt_max, min(candidates))


def _cell_gradient(f: ScalarField) -> list[np.ndarray]:
    """Face gradients averaged back to centers, one array per axis."""
    return [_neighbour_mean(comp, d)
            for d, comp in enumerate(gradient_faces(f).components)]


def _ensure_finite(t: float, **fields: np.ndarray) -> None:
    bad = [name for name, arr in fields.items() if not np.all(np.isfinite(arr))]
    if bad:
        raise BlowupError(t, bad)


def imex_step(state: SimState, params: ModelParams, dt: float,
              flux_scheme: str = "upwind") -> SimState:
    """One IMEX step of size ``dt``; returns the state at ``t + dt``.

    ``flux_scheme`` selects the drift discretization for primitive-form
    runs ("upwind" or "centered"); weighted-form runs ignore it.
    """
    if not (dt > 0 and math.isfinite(dt)):
        raise ValidationError(f"dt must be positive and finite, got {dt!r}")
    if flux_scheme not in ("upwind", "centered"):
        raise ValidationError(
            f"flux_scheme must be 'upwind' or 'centered', got {flux_scheme!r}")
    _ensure_finite(state.t, cells=state.cells.values, ecm=state.ecm.values,
                   protease=state.protease.values)
    cells, v, m = state.cells, state.ecm, state.protease
    chi, g = params.taxis, params.production
    mu = params.growth_rate
    primitive = state.formulation == PRIMITIVE
    # the primitive cell density, whichever form ``cells`` holds
    u = cells.values if primitive else cells.values / taxis_weight(v, chi).values

    m_new = helmholtz_solve(
        params.protease_diffusion, 1.0 / dt + params.protease_decay,
        m.with_values(m.values / dt + u * g(v.values)))
    v_new = step_v_exact(v, m, dt)

    if primitive:
        drift = haptotaxis_divergence(cells, v, chi, scheme=flux_scheme)
        explicit = -drift.values + mu * u * (1.0 - u - v.values)
    else:
        w = cells.values
        grad_v = gradient_faces(v)
        grad_w = gradient_faces(cells)
        dot = np.zeros(state.grid.shape)
        for d in range(state.grid.dims):
            dot += _neighbour_mean(grad_v.components[d] * grad_w.components[d], d)
        chi_v = chi(v.values)
        explicit = (chi_v * dot
                    + mu * w * (1.0 - u - v.values)
                    + chi_v * w * v.values * m.values)
    cells_new = helmholtz_solve(1.0, 1.0 / dt,
                                cells.with_values(cells.values / dt + explicit))

    _ensure_finite(state.t, cells=cells_new.values, ecm=v_new.values,
                   protease=m_new.values)

    int_m = state.int_protease.values + 0.5 * dt * (m.values + m_new.values)
    return SimState(state.t + dt, cells_new, v_new, m_new, state.formulation,
                    state.int_protease.with_values(int_m))


def to_weighted_form(state: SimState, params: ModelParams) -> SimState:
    """Switch to the weighted density ``w = u * exp(-int_0^v chi)``."""
    if state.formulation != PRIMITIVE:
        raise ValidationError("state is already in weighted form")
    z = taxis_weight(state.ecm, params.taxis)
    return replace(state, cells=state.cells.with_values(state.cells.values * z.values),
                   formulation=WEIGHTED)


def from_weighted_form(state: SimState, params: ModelParams) -> SimState:
    """Recover the primitive cell density from a weighted-form state."""
    if state.formulation != WEIGHTED:
        raise ValidationError("state is not in weighted form")
    z = taxis_weight(state.ecm, params.taxis)
    return replace(state, cells=state.cells.with_values(state.cells.values / z.values),
                   formulation=PRIMITIVE)


def as_primitive(state: SimState, params: ModelParams) -> SimState:
    """The state in primitive form: unchanged if it already is, else converted."""
    if state.formulation == PRIMITIVE:
        return state
    return from_weighted_form(state, params)
