"""Norms, claims, a-priori bound monitors, decay fits, and consistency gaps.

Everything here observes a finished simulation and reports; nothing
mutates or aborts a run, and every record it reads is primitive.  The
bound monitors encode the quantities the invasion system is known to
control: total cell mass, the sup of the matrix density, protease mass
against an exponentially relaxing envelope, the weighted cell mass,
cellwise nonnegativity, the lower barrier on cells, and the protease
floor.  They read no state: each folds the monitor series that
:func:`~.harness.run` samples once per record into one observed
extreme, and compares it against one theoretical bound as a
:class:`Claim`, so reports stay mechanically checkable.

A :class:`Claim` holds what its ``report.txt`` line prints.  Every
claim, in :func:`bounds_report` and in :func:`~.harness.verify`, is
made by :func:`judge`, which turns a pass/fail test into a verdict, or
by :func:`fit_claims`, whose claims on a series whose tail cannot be fit
are ``not_applicable``.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .model import (
    PRIMITIVE,
    Grid,
    ModelParams,
    ScalarField,
    SimState,
    ValidationError,
)
from .operators import (
    _MID,
    _neighbour_mean,
    drift_velocities,
    gradient_faces,
    haptotaxis_divergence,
    laplacian_neumann,
)
from .stepping import _cell_gradient

__all__ = [
    "TimeSeries",
    "DecayFit",
    "Claim",
    "judge",
    "fit_claims",
    "TheoremReport",
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


class _SteadyStateError(ValueError):
    """A state :func:`steady_classify` could not classify; carries the
    stationary ``residual`` it computed, so no caller computes it again."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class NotSteadyError(_SteadyStateError):
    """State residual is too large to classify as a steady state."""


class AmbiguousSteadyStateError(_SteadyStateError):
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


def sigma_estimate(series: dict[str, TimeSeries], t0: float) -> float:
    """Smallest cellwise protease minimum over the samples from t0 on."""
    protease_min = series["protease_min"]
    lows = protease_min.values[protease_min.t >= t0].tolist()
    if not lows:
        raise InsufficientDataError(f"no samples at or after t0={t0:g}")
    return min(lows)


# ---------------------------------------------------------------------------
# claims and the a-priori bound monitors


@dataclass(frozen=True)
class Claim:
    """One verifiable statement, as a ``report.txt`` line prints it."""

    claim_id: str
    verdict: str  # "pass" | "fail" | "not_applicable"
    threshold: float
    measured: float
    fitted: DecayFit | None = None


Test = Callable[[float, float], bool]  # (measured, threshold) -> passes


def judge(claim_id: str, threshold: float, measured: float,
          test: Test = operator.le, fitted: DecayFit | None = None) -> Claim:
    """The claim that passes when ``test(measured, threshold)`` holds.

    The default test reads "measured is at most the threshold".
    """
    verdict = "pass" if test(measured, threshold) else "fail"
    return Claim(claim_id, verdict, threshold, measured, fitted)


def fit_claims(name: str, series: TimeSeries, min_r_squared: float | None,
               rate: float = 0.0, rate_test: Test = operator.gt) -> list[Claim]:
    """``<name>_fit_quality`` and ``<name>_decay_rate`` of a fitted series.

    The tail of ``series`` is fit by :func:`decay_fit`.  The quality
    claim passes when ``r_squared >= min_r_squared``; None leaves it
    out.  The rate claim passes when ``rate_test(fit.rate, rate)``
    holds, by default when the fitted rate is positive.  Each is
    ``not_applicable``, with measured NaN, when the tail cannot be fit.
    """
    try:
        fit = decay_fit(series)
    except InsufficientDataError:
        fit = None
    # each claim's id suffix, threshold, test, and the fitted value it reads
    checks = [("fit_quality", min_r_squared, operator.ge, "r_squared"),
              ("decay_rate", rate, rate_test, "rate")]
    return [Claim(f"{name}_{kind}", "not_applicable", threshold, math.nan)
            if fit is None else
            judge(f"{name}_{kind}", threshold, getattr(fit, value), test, fit)
            for kind, threshold, test, value in checks if threshold is not None]


@dataclass(frozen=True)
class TheoremReport:
    regime: str
    claims: tuple[Claim, ...]

    @property
    def all_pass(self) -> bool:
        return all(c.verdict != "fail" for c in self.claims)

    def claim(self, claim_id: str) -> Claim:
        for c in self.claims:
            if c.claim_id == claim_id:
                return c
        raise KeyError(claim_id)


def bounds_report(series: dict[str, TimeSeries], params: ModelParams,
                  grid: Grid) -> list[Claim]:
    """Check every known a-priori bound along a run's monitor series.

    ``series`` holds the samples :func:`~.harness.run` records, and its
    first sample is the data the bounds are phrased in terms of
    (initial masses, the sup of the starting matrix density).  Each
    bound becomes one ``bound_<name>`` claim that passes when the worst
    observed value is at most the bound plus ``BOUND_SLACK`` times its
    magnitude.  When the production function has a positive floor, one
    more claim, ``protease_floor_positive``, asks the protease minimum
    over the final three quarters of the sampled window (the barrier is
    eventual) to be strictly positive: ``sigma == 0`` fails.
    """
    t = series["cell_mass"].t.tolist()
    if not t:
        raise ValidationError("series must hold at least one sample")
    mass_u, sup_v, mass_m, mass_w, min_u, min_v, min_m = (
        series[name].values.tolist() for name in (
            "cell_mass", "matrix_sup", "protease_mass", "weighted_mass",
            "cell_min", "matrix_min", "protease_min"))
    gamma = params.protease_decay
    g = params.production
    mass_cap = max(grid.domain_volume, mass_u[0])
    m_excess = [mass - mass_m[0] * math.exp(-gamma * tk)
                for tk, mass in zip(t, mass_m)]

    # lower barrier on cells: conservative exponential depression of the
    # initial minimum by the total taxis weight across the matrix range
    barrier = min(1.0, min_u[0]) * math.exp(-params.taxis.antiderivative(sup_v[0]))

    bounds = [
        ("cell_mass_l1", mass_cap, max(mass_u)),
        ("matrix_sup", sup_v[0], max(sup_v)),
        ("protease_mass_l1",
         (g.lipschitz_value * sup_v[0] + float(g(0.0))) * mass_cap / gamma,
         max(m_excess)),
        ("weighted_mass_l1", mass_cap, max(mass_w)),
        ("positivity", 1e-12, max(-min(lows) for lows in zip(min_u, min_v, min_m))),
        ("cell_lower_bound", -barrier, -min(min_u)),
    ]
    claims = [judge("bound_" + name, bound, observed,
                    lambda obs, b: obs <= b + BOUND_SLACK * abs(b))
              for name, bound, observed in bounds]
    if g.positive_floor is not None:
        claims.append(judge("protease_floor_positive", 0.0,
                            sigma_estimate(series, 0.25 * t[-1]), operator.gt))
    return claims


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
           - haptotaxis_divergence(u, drift_velocities(v, params.taxis)).values
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
        raise NotSteadyError(f"residual {residual:.3e} exceeds tolerance {tol:.1e}",
                             residual)
    u, v, m = state.cells.values, state.ecm.values, state.protease.values

    if np.max(np.abs(u)) <= tol:
        return SteadyClass("extinct_cells", v_profile=state.ecm, residual=residual)

    k = float(np.mean(u))
    if np.max(np.abs(v)) <= tol and np.max(np.abs(u - k)) <= tol:
        m_star = params.steady_protease(k)
        if np.max(np.abs(m - m_star)) > tol:
            raise AmbiguousSteadyStateError(
                f"protease level does not balance production (expected {m_star:.6g})",
                residual)
        if params.growth_rate > 0:
            target = 0.0 if abs(k) <= abs(k - 1.0) else 1.0
            if abs(k - target) > tol:
                raise AmbiguousSteadyStateError(
                    f"flat cell level {k:.6g} is neither 0 nor 1 with growth on",
                    residual)
            k = target
        return SteadyClass("homogeneous", k=k, residual=residual)
    raise AmbiguousSteadyStateError("state is steady but matches no known family",
                                    residual)


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
                    weighted_states: list[SimState]) -> TimeSeries:
    """Sup-norm gap in cell density between the (primitive) records of matched runs."""
    if len(primitive_states) != len(weighted_states) or not primitive_states:
        raise ScheduleMismatchError("runs must record the same nonzero sample count")
    t = []
    gaps = []
    for sp, sw in zip(primitive_states, weighted_states):
        if abs(sp.t - sw.t) > 1e-9:
            raise ScheduleMismatchError(f"sample times diverge: {sp.t!r} vs {sw.t!r}")
        if sp.grid != sw.grid:
            raise ValidationError("compared runs must share a grid")
        if sp.formulation != PRIMITIVE or sw.formulation != PRIMITIVE:
            raise ValidationError("expected the primitive records of both runs")
        t.append(sp.t)
        gaps.append(float(np.max(np.abs(sp.cells.values - sw.cells.values))))
    return TimeSeries("equivalence_gap", np.asarray(t), np.asarray(gaps))
