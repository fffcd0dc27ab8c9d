"""Norms, a-priori bound monitors, decay fits, and consistency gaps.

Everything here observes a finished (or in-progress) simulation and
reports; nothing mutates or aborts a run.  The bound monitors encode
the quantities the invasion system is known to control: total cell
mass, the sup of the matrix density, protease mass against an
exponentially relaxing envelope, the weighted cell mass, cellwise
nonnegativity, and the lower barriers on cells and protease.  Each
monitor compares one observed scalar against one theoretical bound so
reports stay mechanically checkable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    _MID,
    _neighbour_mean,
    gradient_faces,
    haptotaxis_divergence,
    laplacian_neumann,
)
from .stepping import _cell_gradient, as_primitive, from_weighted_form

__all__ = [
    "TimeSeries",
    "DecayFit",
    "BoundRecord",
    "BoundsReport",
    "SteadyClass",
    "InsufficientDataError",
    "NotSteadyError",
    "AmbiguousSteadyStateError",
    "ScheduleMismatchError",
    "norm",
    "decay_fit",
    "sigma_estimate",
    "bounds_report",
    "steady_residual",
    "steady_classify",
    "gradv_identity_gap",
    "equivalence_gap",
]

VALUE_FLOOR = 1e-14
BOUND_SLACK = 1e-8


class InsufficientDataError(ValueError):
    """Too few usable samples for the requested fit or estimate."""


class NotSteadyError(ValueError):
    """State residual is too large to classify as a steady state."""


class AmbiguousSteadyStateError(ValueError):
    """Residual is small but the state matches no known steady family."""


class ScheduleMismatchError(ValueError):
    """Two runs to be compared were not sampled at the same times."""


@dataclass(frozen=True)
class TimeSeries:
    """A named scalar sampled along a run; times strictly increase."""

    label: str
    t: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        if t.ndim != 1 or t.shape != vals.shape:
            raise ValidationError("time and value arrays must be 1D and equal length")
        if t.size and np.any(np.diff(t) <= 0):
            raise ValidationError(f"times of series {self.label!r} must increase")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(vals))):
            raise ValidationError(f"series {self.label!r} contains non-finite samples")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return int(self.t.size)


@dataclass(frozen=True)
class DecayFit:
    """Least-squares exponential fit ``value ~ amplitude * exp(-rate*t)``."""

    rate: float
    amplitude: float
    r_squared: float
    window: tuple[float, float]
    n_samples: int


def norm(f: ScalarField, p: float) -> float:
    """Volume-weighted L^p norm of a field; ``p = inf`` for the sup norm."""
    if p == math.inf:
        return float(np.max(np.abs(f.values)))
    if not p >= 1:
        raise ValidationError(f"norm order must be >= 1 or inf, got {p!r}")
    vol = f.grid.cell_volume
    if p == 1:
        return float(np.sum(np.abs(f.values)) * vol)
    if p == 2:
        return float(math.sqrt(np.sum(f.values * f.values) * vol))
    return float((np.sum(np.abs(f.values) ** p) * vol) ** (1.0 / p))


def decay_fit(series: TimeSeries, tail_fraction: float = 0.5) -> DecayFit:
    """Fit ``log(value)`` against ``t`` on the tail of a series.

    Samples at or below 1e-14 are dropped first (they carry only
    roundoff); the fit window is the final ``tail_fraction`` of what
    remains and must hold at least 8 points.  A window with zero
    variance in log space fits perfectly by convention (r_squared 1).
    """
    if not 0 < tail_fraction < 1:
        raise ValidationError(f"tail_fraction must be in (0, 1), got {tail_fraction!r}")
    keep = series.values > VALUE_FLOOR
    t_all = series.t[keep]
    vals = series.values[keep]
    count = math.ceil(tail_fraction * t_all.size)
    if count < 8:
        raise InsufficientDataError(
            f"tail window of series {series.label!r} holds {count} usable samples;"
            " need at least 8")
    t = t_all[-count:]
    logs = np.log(vals[-count:])

    tc = t - t.mean()
    slope = float(np.dot(tc, logs) / np.dot(tc, tc))
    intercept = float(logs.mean() - slope * t.mean())
    resid = logs - (intercept + slope * t)
    centered = logs - logs.mean()
    ss_tot = float(np.dot(centered, centered))
    # roundoff scale: a constant series must fit perfectly by convention
    if ss_tot <= 1e-20 * max(1.0, float(np.max(np.abs(logs))) ** 2 * t.size):
        r2 = 1.0
    else:
        r2 = min(1.0, max(0.0, 1.0 - float(np.dot(resid, resid)) / ss_tot))
    return DecayFit(rate=-slope, amplitude=math.exp(intercept), r_squared=r2,
                    window=(float(t[0]), float(t[-1])), n_samples=int(t.size))


def sigma_estimate(history: list[SimState], t0: float) -> float:
    """Smallest cellwise protease minimum over states sampled from t0 on."""
    lows = [float(np.min(s.protease.values)) for s in history if s.t >= t0]
    if not lows:
        raise InsufficientDataError(f"no recorded states at or after t0={t0:g}")
    return min(lows)


# ---------------------------------------------------------------------------
# a-priori bound monitors


@dataclass(frozen=True)
class BoundRecord:
    """One monitored inequality: ``observed_max <= theoretical_bound``."""

    name: str
    theoretical_bound: float
    observed_max: float

    @property
    def satisfied(self) -> bool:
        return self.observed_max <= self.theoretical_bound * (1 + BOUND_SLACK)

    @property
    def margin(self) -> float:
        return self.theoretical_bound - self.observed_max


@dataclass(frozen=True)
class BoundsReport:
    records: tuple[BoundRecord, ...]

    @property
    def all_satisfied(self) -> bool:
        return all(r.satisfied for r in self.records)

    def record(self, name: str) -> BoundRecord:
        for r in self.records:
            if r.name == name:
                return r
        raise KeyError(name)


def bounds_report(history: list[SimState], params: ModelParams,
                  initial: SimState) -> BoundsReport:
    """Check every known a-priori bound along a sampled trajectory.

    ``initial`` supplies the data the bounds are phrased in terms of
    (initial masses, the sup of the starting matrix density).  The
    protease lower barrier is only monitored when the production
    function has a positive floor, and then over the final three
    quarters of the sampled window (the barrier is eventual, so the
    transient is excluded).
    """
    if not history:
        raise ValidationError("history must contain at least one state")
    times = [s.t for s in history]
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ValidationError("history times must strictly increase")

    grid = initial.grid
    u0 = as_primitive(initial, params).cells
    mass_u0 = norm(u0, 1)
    sup_v0 = norm(initial.ecm, math.inf)
    mass_m0 = norm(initial.protease, 1)
    gamma = params.protease_decay
    g = params.production
    mass_cap = max(grid.domain_volume, mass_u0)

    max_mass_u = -math.inf
    max_sup_v = -math.inf
    max_m_excess = -math.inf
    max_mass_w = -math.inf
    worst_negative = -math.inf
    min_u = math.inf
    t_last = times[-1]
    late_min_m = math.inf
    for s in history:
        z = taxis_weight(s.ecm, params.taxis).values
        if s.formulation == PRIMITIVE:
            u = s.cells
            w = u.with_values(u.values * z)
        else:
            w = s.cells
            u = w.with_values(w.values / z)
        max_mass_u = max(max_mass_u, norm(u, 1))
        max_sup_v = max(max_sup_v, norm(s.ecm, math.inf))
        max_m_excess = max(
            max_m_excess, norm(s.protease, 1) - mass_m0 * math.exp(-gamma * s.t))
        max_mass_w = max(max_mass_w, norm(w, 1))
        low = min(float(np.min(u.values)), float(np.min(s.ecm.values)),
                  float(np.min(s.protease.values)))
        worst_negative = max(worst_negative, -low)
        min_u = min(min_u, float(np.min(u.values)))
        if s.t >= 0.25 * t_last:
            late_min_m = min(late_min_m, float(np.min(s.protease.values)))

    # lower barrier on cells: conservative exponential depression of the
    # initial minimum by the total taxis weight across the matrix range
    barrier = (min(1.0, float(np.min(u0.values)))
               * math.exp(-params.taxis.antiderivative(sup_v0)))

    records = [
        BoundRecord("cell_mass_l1", mass_cap, max_mass_u),
        BoundRecord("matrix_sup", sup_v0, max_sup_v),
        BoundRecord("protease_mass_l1",
                    (g.lipschitz_value * sup_v0 + float(g(0.0))) * mass_cap / gamma,
                    max_m_excess),
        BoundRecord("weighted_mass_l1", mass_cap, max_mass_w),
        BoundRecord("positivity", 1e-12, worst_negative),
        BoundRecord("cell_lower_bound", -barrier, -min_u),
    ]
    if g.positive_floor is not None:
        records.append(BoundRecord("protease_lower_bound", 0.0, -late_min_m))
    return BoundsReport(tuple(records))


# ---------------------------------------------------------------------------
# steady states


@dataclass(frozen=True)
class SteadyClass:
    """Classification of a steady state.

    ``kind`` is ``"extinct_cells"`` (no cells, any leftover matrix
    profile) or ``"homogeneous"`` (flat cells at level ``k``, exhausted
    matrix, protease balancing production).
    """

    kind: str
    k: float | None = None
    v_profile: ScalarField | None = None
    residual: float = 0.0


def steady_residual(state: SimState, params: ModelParams) -> float:
    """Max-norm residual of the three stationary equations."""
    if state.formulation != PRIMITIVE:
        raise ValidationError("steady_residual expects a primitive-form state")
    u, v, m = state.cells, state.ecm, state.protease
    r_u = (laplacian_neumann(u).values
           - haptotaxis_divergence(u, v, params.taxis).values
           + params.growth_rate * u.values * (1.0 - u.values - v.values))
    r_v = m.values * v.values
    r_m = (params.protease_diffusion * laplacian_neumann(m).values
           - params.protease_decay * m.values
           + u.values * params.production(v.values))
    return max(float(np.max(np.abs(r_u))), float(np.max(np.abs(r_v))),
               float(np.max(np.abs(r_m))))


def steady_classify(state: SimState, params: ModelParams,
                    tol: float = 1e-6) -> SteadyClass:
    """Match a near-steady state to one of the two known families.

    With growth switched on, a flat cell level is snapped to 0 or 1;
    any other level is rejected as ambiguous.  Without growth any flat
    nonnegative level is admissible.
    """
    residual = steady_residual(state, params)
    if residual > tol:
        raise NotSteadyError(f"residual {residual:.3e} exceeds tolerance {tol:.1e}")
    u, v, m = state.cells.values, state.ecm.values, state.protease.values

    if np.max(np.abs(u)) <= tol:
        return SteadyClass("extinct_cells", v_profile=state.ecm, residual=residual)

    k = float(np.mean(u))
    if np.max(np.abs(v)) <= tol and np.max(np.abs(u - k)) <= tol:
        m_star = k * float(params.production(0.0)) / params.protease_decay
        if np.max(np.abs(m - m_star)) > tol:
            raise AmbiguousSteadyStateError(
                f"protease level does not balance production (expected {m_star:.6g})")
        if params.growth_rate > 0:
            target = 0.0 if abs(k) <= abs(k - 1.0) else 1.0
            if abs(k - target) > tol:
                raise AmbiguousSteadyStateError(
                    f"flat cell level {k:.6g} is neither 0 nor 1 with growth on")
            k = target
        return SteadyClass("homogeneous", k=k, residual=residual)
    raise AmbiguousSteadyStateError("state is steady but matches no known family")


# ---------------------------------------------------------------------------
# exact-decay identity and formulation equivalence


def gradv_identity_gap(state: SimState, initial: SimState) -> float:
    """Max gap between ``grad v`` and its exact-decay reconstruction.

    The matrix gradient admits the closed form
    ``exp(-int m) * (grad v0 - v0 * int grad m)``; this rebuilds it
    from the state's accumulated ``int m`` and compares against the
    face gradient of the current matrix field.  ``int grad m`` is taken
    as the cell-centered gradient of ``int m``: both that gradient and
    the trapezoid accumulation are linear, so the two orders of
    applying them agree up to roundoff.  Cell quantities move to faces
    by arithmetic averaging.  Wall faces are excluded: the face
    gradient vanishes there by the no-flux closure and a two-sided
    average does not exist.
    """
    if state.grid != initial.grid:
        raise ValidationError("state and initial data must share a grid")
    dims = state.grid.dims
    damp = np.exp(-state.int_protease.values)
    int_grad = _cell_gradient(state.int_protease)
    grad_v = gradient_faces(state.ecm)
    grad_v0 = gradient_faces(initial.ecm)
    v0 = initial.ecm.values
    gap = 0.0
    for d in range(dims):
        interior = _MID[dims, d]
        recon = (_neighbour_mean(damp, d)
                 * (grad_v0[d][interior]
                    - _neighbour_mean(v0 * int_grad[d], d)))
        diff = grad_v[d][interior] - recon
        if diff.size:
            gap = max(gap, float(np.max(np.abs(diff))))
    return gap


def equivalence_gap(primitive_states: list[SimState],
                    weighted_states: list[SimState],
                    params: ModelParams) -> TimeSeries:
    """Sup-norm gap in cell density between matched runs of both forms."""
    if len(primitive_states) != len(weighted_states) or not primitive_states:
        raise ScheduleMismatchError("runs must record the same nonzero sample count")
    t = []
    gaps = []
    for sp, sw in zip(primitive_states, weighted_states):
        if abs(sp.t - sw.t) > 1e-9:
            raise ScheduleMismatchError(f"sample times diverge: {sp.t!r} vs {sw.t!r}")
        if sp.grid != sw.grid:
            raise ValidationError("compared runs must share a grid")
        if sp.formulation != PRIMITIVE or sw.formulation != WEIGHTED:
            raise ValidationError("expected one primitive and one weighted run")
        u_w = from_weighted_form(sw, params).cells
        t.append(sp.t)
        gaps.append(float(np.max(np.abs(sp.cells.values - u_w.values))))
    return TimeSeries("equivalence_gap", np.asarray(t), np.asarray(gaps))
