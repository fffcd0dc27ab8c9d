"""Scenario presets, the run loop, theorem verification, and convergence studies.

A :class:`Scenario` bundles everything needed to reproduce a run: model
coefficients, grid, step-size policy, initial-condition recipes, and a
``regime`` tag naming which theorem's hypotheses the setup is meant to
satisfy; building one evaluates its initial fields and checks those
hypotheses, once.  :func:`run` drives the IMEX stepper, keeps the
stepped states as its records, and samples named time series;
:func:`verify` turns the recorded monitors and decay fits into a
:class:`TheoremReport` of pass/fail claims: the bound claims of
:func:`~.analysis.bounds_report`, then the regime's own, which are built
here by :func:`~.analysis.judge` and :func:`~.analysis.fit_claims`;
:func:`convergence_study` measures the observed order of accuracy
against a fine-grid reference.
"""

from __future__ import annotations

import functools
import math
import operator
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .analysis import (
    AmbiguousSteadyStateError,
    Claim,
    NotSteadyError,
    TheoremReport,
    TimeSeries,
    bounds_report,
    fit_claims,
    judge,
    norm,
    steady_classify,
)
from .model import (
    FamilySpec,
    FunctionSpec,
    Grid,
    ModelParams,
    PRIMITIVE,
    ScalarField,
    SimState,
    ValidationError,
    WEIGHTED,
    build_grid,
    initial_state,
)
from .stepping import (
    StepperConfig,
    _cell_gradient,
    _min,
    _sum,
    _taxis_weight,
    imex_step,
    stable_dt,
    to_weighted_form,
)

# every series recorded by run(), in csv column order
SERIES_NAMES = ("cell_dev_l2", "cell_dev_sup", "matrix_sup",
                "grad_sqrt_matrix_l2", "protease_dev_l2", "protease_l2",
                "cell_min", "protease_min", "cell_mass", "protease_mass",
                "weighted_mass", "matrix_min")

MAX_STEPS = 10_000_000


# ---------------------------------------------------------------------------
# initial-condition recipes


class InitialSpec(FamilySpec):
    """Recipe for one initial field: constant, gaussian bump, or table.

    ``constant`` holds ``(value,)``.  ``bump`` holds ``(center, width,
    amplitude, offset)`` and evaluates ``offset + amplitude *
    exp(-r^2 / (2 width^2))`` with ``r`` the distance to ``center`` (the
    same center coordinate on every axis); its width must be positive.
    ``tabulated`` interpolates piecewise-linearly along the first axis
    and is constant across the others.
    """

    ARITY = {"constant": 1, "bump": 4, "tabulated": None}
    KIND = "initial kind"

    def __post_init__(self):
        super().__post_init__()
        if self.family == "bump":
            width = self.coeffs[1]
            if not (math.isfinite(width) and width > 0):
                raise ValidationError(f"bump width must be positive, got {width!r}")

    @classmethod
    def constant(cls, value: float) -> "InitialSpec":
        return cls("constant", (value,))

    @classmethod
    def bump(cls, center: float, width: float, amplitude: float,
             offset: float = 0.0) -> "InitialSpec":
        return cls("bump", (center, width, amplitude, offset))

    def evaluate(self, grid: Grid) -> np.ndarray:
        if self.family == "constant":
            return np.full(grid.shape, self.coeffs[0])
        if self.family == "bump":
            center, width, amplitude, offset = self.coeffs
            r2 = np.zeros(grid.shape)
            for x in grid.centers():
                r2 = r2 + (x - center) ** 2
            return offset + amplitude * np.exp(-r2 / (2 * width ** 2))
        profile = np.interp(grid.axis_centers(0), self.nodes, self.table)
        return np.broadcast_to(profile.reshape((-1,) + (1,) * (grid.dims - 1)),
                               grid.shape).copy()


# ---------------------------------------------------------------------------
# scenarios


def _check_initial(arrays: list[np.ndarray], located: bool) -> None:
    """Initial ``u``, ``v`` and ``m`` must be finite and nonnegative everywhere."""
    for label, values in zip(("u0", "v0", "m0"), arrays):
        blame = label if located else None
        # finite first: a NaN passes ``min < 0``
        if not np.isfinite(values).all():
            raise ValidationError(f"{label} must be finite everywhere", blame)
        if float(np.min(values)) < 0:
            raise ValidationError(f"{label} must be nonnegative everywhere", blame)


@dataclass(frozen=True)
class Scenario:
    """A fully specified, reproducible run, validated when it is built.

    ``regime`` names the hypothesis set the initial data and
    coefficients are required to satisfy.  ``jitter`` adds seeded
    multiplicative noise ``1 + jitter*N(0,1)`` per cell to each initial
    field, for robustness probes; presets use 0.  ``seed`` must be an
    integer ``>= 0``, as numpy's generator needs, whether or not there
    is jitter to seed.  Construction evaluates and checks the initial
    fields, then checks the step budget and the regime's hypotheses, in
    that order; a check of one field's own value names it in the error.
    ``source_text``, the parsed document if any, is outside equality and
    the hash, so documents that differ only in layout give equal scenarios.
    """

    name: str
    regime: str
    params: ModelParams
    grid: Grid
    stepper: StepperConfig
    initial_cells: InitialSpec
    initial_matrix: InitialSpec
    initial_protease: InitialSpec
    seed: int = 0
    jitter: float = 0.0
    formulation: str = PRIMITIVE
    source_text: str | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise ValidationError(
                f"unknown regime {self.regime!r}; expected one of {', '.join(REGIMES)}",
                "regime")
        if self.formulation not in (PRIMITIVE, WEIGHTED):
            raise ValidationError(
                f"formulation must be {PRIMITIVE!r} or {WEIGHTED!r}, "
                f"got {self.formulation!r}", "formulation")
        if not (math.isfinite(self.jitter) and self.jitter >= 0):
            raise ValidationError(f"jitter must be finite and >= 0, got {self.jitter!r}",
                                  "jitter")
        if not (isinstance(self.seed, (int, np.integer)) and self.seed >= 0):
            raise ValidationError(f"seed must be an integer >= 0, got {self.seed!r}",
                                  "seed")
        for fname in ("initial_cells", "initial_matrix", "initial_protease"):
            if not isinstance(getattr(self, fname), InitialSpec):
                raise ValidationError(f"{fname} must be an InitialSpec")

        # evaluating the initial fields checks them
        u0, v0, m0 = (f.values for f in self.initial_fields)

        # no run within MAX_STEPS can reach t_end past either bound: every
        # step is at most dt_max long, and every record time needs a step of
        # its own (or, when record_every is below run()'s eps, a loop pass)
        cfg = self.stepper
        for name in ("dt_max", "record_every"):
            needed = cfg.t_end / getattr(cfg, name)
            if needed > MAX_STEPS:
                raise ValidationError(
                    f"t_end / {name} needs {needed:.4g} steps, more than the "
                    f"budget of {MAX_STEPS} steps")

        # each regime's hypotheses, one (holds, requirement) row each, in the
        # order they are checked; custom claims none
        mu, chi, g = self.params.growth_rate, self.params.taxis, self.params.production
        hypotheses = {
            "theorem_bound3": [
                (mu > 0, "mu must be positive"),
                (g.positive_floor is not None, "g must have a positive floor"),
                (float(np.min(v0)) > 0 and float(np.max(v0)) < 1,
                 "v0 must satisfy 0<v0<1"),
                (float(np.min(u0)) > 0, "u0 must be strictly positive"),
            ],
            "theorem_bound5": [
                (mu > 0, "mu must be positive"),
                (g.vanishes_at_zero, "g must vanish at zero"),
                (g.family == "affine" and g.coeffs[0] == 0 and g.coeffs[1] > 0,
                 "g must be affine(0, c) with c>0"),
            ],
            "mu_zero_conservation": [
                (mu == 0, "mu must be zero"),
            ],
            "byrne_baseline": [
                (chi.family == "constant", "chi must be constant"),
                (g.family == "affine" and g.coeffs == (0.0, 1.0),
                 "g must be affine(0,1)"),
            ],
            "custom": [],
        }
        for holds, requirement in hypotheses[self.regime]:
            if not holds:
                raise ValidationError(f"{requirement} for regime {self.regime}")

    # evaluated by __post_init__, which validates it; like Grid's cached
    # values it lands in the instance dict and stays out of eq and hash
    @functools.cached_property
    def initial_fields(self) -> tuple[ScalarField, ScalarField, ScalarField]:
        """The initial ``u``, ``v``, ``m``, jittered if asked, as read-only arrays.

        Each recipe is evaluated once and checked before the jitter, so a
        fault of its own names its field.  A fault that only the jitter
        brings is shared with ``seed`` and ``jitter``, and names none.
        """
        arrays = [self.initial_cells.evaluate(self.grid),
                  self.initial_matrix.evaluate(self.grid),
                  self.initial_protease.evaluate(self.grid)]
        _check_initial(arrays, located=True)
        if self.jitter > 0:
            rng = np.random.default_rng(self.seed)
            # one draw per field, in u, v, m order, so runs are reproducible
            arrays = [a * (1.0 + self.jitter * rng.standard_normal(a.shape))
                      for a in arrays]
            _check_initial(arrays, located=False)
        for a in arrays:
            a.flags.writeable = False
        return tuple(ScalarField(self.grid, a) for a in arrays)


# ---------------------------------------------------------------------------
# presets


# the initial u, v and m that the theorem presets and mu_zero_conservation share
_SHARED_INITIAL = (InitialSpec.bump(0.5, 0.15, 0.2, 1.0),
                   InitialSpec.bump(0.5, 0.15, 0.3, 0.5), InitialSpec.constant(0.1))

# what sets each stock scenario apart, one row per preset: mu, the constant
# chi, g(0) of the production g(v) = g(0) + v, t_end, dt_max, record_every,
# and the initial u, v and m
_PRESET_ROWS = {
    "theorem_bound3": (1.0, 0.5, 1.0, 32.0, 0.01, 0.1, _SHARED_INITIAL),
    "theorem_bound5": (1.0, 0.5, 0.0, 20000.0, 0.25, 50.0, _SHARED_INITIAL),
    "mu_zero_conservation": (0.0, 1.0, 0.0, 5.0, 0.01, 0.0125, _SHARED_INITIAL),
    "byrne_baseline": (1.0, 0.5, 0.0, 10.0, 0.01, 0.025,
                       (InitialSpec.bump(0.5, 0.1, 0.9, 0.1), InitialSpec.constant(0.8),
                        InitialSpec.constant(0.0))),
}

# each stock scenario is named after the regime it satisfies
PRESETS = tuple(_PRESET_ROWS)
REGIMES = PRESETS + ("custom",)


def preset_scenario(name: str) -> Scenario:
    """One of the stock scenarios, keyed by its regime name.

    All presets are 1D with 128 cells on the unit interval and sample
    a few hundred records over the horizon.  The two theorem presets
    share their initial data; horizons differ because the g(0)>0
    regime decays exponentially while the g(0)=0 regime only decays
    algebraically, so its thresholds need a far longer run.  The
    exponential preset stops at T=32, where the deviation norms reach
    the solver's roundoff plateau; running longer only feeds flat
    samples into the decay fits.
    """
    if name not in _PRESET_ROWS:
        raise ValidationError(f"unknown preset {name!r}; expected one of "
                              f"{', '.join(PRESETS)}")
    mu, chi, g0, t_end, dt_max, record_every, (u0, v0, m0) = _PRESET_ROWS[name]
    return Scenario(
        name=name, regime=name,
        params=ModelParams(1.0, 1.0, mu, FunctionSpec.constant(chi),
                           FunctionSpec.affine(g0, 1.0)),
        grid=build_grid(128, 1.0), stepper=StepperConfig(t_end, dt_max, record_every),
        initial_cells=u0, initial_matrix=v0, initial_protease=m0)


# ---------------------------------------------------------------------------
# the run loop


@dataclass(frozen=True)
class RunResult:
    """A completed run: its records, each holding ``u``, and the named monitor series."""

    scenario: Scenario
    recorded_states: list[SimState]
    series: dict[str, TimeSeries]
    wall_time: float
    u_bar: float

    @property
    def initial_state(self) -> SimState:
        return self.recorded_states[0]

    @property
    def final_state(self) -> SimState:
        return self.recorded_states[-1]


def _grad_l2(f: ScalarField) -> float:
    """Volume-weighted L2 norm of the cell-centered gradient magnitude."""
    first, *rest = _cell_gradient(f)
    mag2 = first ** 2
    for comp in rest:
        mag2 += comp ** 2
    return math.sqrt(float(_sum(mag2, None)) * f.grid.cell_volume)


def _series_samples(state: SimState, params: ModelParams, u_bar: float,
                    m_star: float) -> dict[str, float]:
    """Every monitor of one record; the only place a record is measured.

    ``state`` is the stepped state, whichever scheme stepped it.  Its
    taxis weight ``z``, for ``w = u * z``, comes from the stepper, which
    hands a weighted state the ``z`` its step left in the per-step slot.
    """
    u, v, m = state.cells, state.ecm, state.protease
    w = u.with_values(u.values * _taxis_weight(state, params))
    dev = u.with_values(u.values - u_bar)
    sqrt_v = v.with_values(np.sqrt(np.maximum(v.values, 0.0)))
    return {
        "cell_dev_l2": norm(dev, 2),
        "cell_dev_sup": norm(dev, math.inf),
        "matrix_sup": norm(v, math.inf),
        "grad_sqrt_matrix_l2": _grad_l2(sqrt_v),
        "protease_dev_l2": norm(m.with_values(m.values - m_star), 2),
        "protease_l2": norm(m, 2),
        "cell_min": float(_min(u.values, None)),
        "protease_min": float(_min(m.values, None)),
        "cell_mass": norm(u, 1),
        "protease_mass": norm(m, 1),
        "weighted_mass": norm(w, 1),
        "matrix_min": float(_min(v.values, None)),
    }


def run(scenario: Scenario) -> RunResult:
    """Integrate the scenario to ``t_end``, sampling at ``record_every``.

    The deviation series use the expected long-time cell level: 1 when
    growth is on, the (conserved) discrete mean of u0 when it is off.
    Records land exactly on the sampling schedule because the step is
    shortened to hit each record time; the final time is always
    recorded.  The records are the stepped states themselves, so every
    record holds ``u`` and the first is the scenario's initial data.
    """
    u0, v0, m0 = scenario.initial_fields
    params, cfg = scenario.params, scenario.stepper
    u_bar = 1.0 if params.growth_rate > 0 else float(np.mean(u0.values))
    m_star = params.steady_protease(u_bar)

    state = initial_state(u0, v0, m0)
    if scenario.formulation == WEIGHTED:
        state = to_weighted_form(state, params)

    records, samples = [], []

    def record(state: SimState) -> None:
        records.append(state)
        samples.append(_series_samples(state, params, u_bar, m_star))

    t_end = cfg.t_end
    eps = 1e-9 * max(1.0, t_end)
    record(state)
    start = time.perf_counter()

    k, steps = 1, 0
    while t_end - state.t > eps:
        target = min(k * cfg.record_every, t_end)
        if target - state.t <= eps:
            k += 1
            continue
        dt = min(stable_dt(state, params, cfg), target - state.t)
        state = imex_step(state, params, dt)
        steps += 1
        if steps > MAX_STEPS:
            raise RuntimeError(f"step budget exhausted at t={state.t:g}")
        if target - state.t <= eps:
            record(state)
            k += 1
    wall = time.perf_counter() - start

    t = np.array([s.t for s in records])
    series = {name: TimeSeries(name, t, np.array([row[name] for row in samples]))
              for name in SERIES_NAMES}
    return RunResult(scenario, records, series, wall, u_bar)


# ---------------------------------------------------------------------------
# theorem verification


def verify(result: RunResult) -> TheoremReport:
    """Score the run against its regime's claims.

    Every regime carries the a-priori bound monitors as claims; the
    theorem regimes add decay fits and endpoint checks.  Everything is
    read off the monitor series, apart from the endpoint checks on the
    first and last recorded states.  Failures are encoded in the
    verdicts, never raised.
    """
    scenario = result.scenario
    claims = bounds_report(result.series, scenario.params, scenario.grid)
    regime = scenario.regime
    if regime == "theorem_bound3":
        claims += _bound3_claims(result)
    elif regime == "theorem_bound5":
        claims += _bound5_claims(result)
    elif regime == "mu_zero_conservation":
        claims += _mu_zero_claims(result)
    return TheoremReport(regime, tuple(claims))


# the final state of a theorem_bound3 run is steady when its residual is
# at most this; the classification and the claim share it
_STEADY_TOL = 1e-5


def _bound3_claims(result: RunResult) -> list[Claim]:
    params, series, final = result.scenario.params, result.series, result.final_state
    predicted = params.steady_protease(result.u_bar)
    # the classification's residual, or its error's, is the claimed one
    try:
        steady = steady_classify(final, params, tol=_STEADY_TOL)
        k, residual = steady.k, steady.residual
    except (NotSteadyError, AmbiguousSteadyStateError) as exc:
        k, residual = None, exc.residual
    return [
        *fit_claims("matrix_sup", series["matrix_sup"], 0.98, predicted,
                    lambda rate, p: abs(rate - p) <= 0.15 * p),
        *fit_claims("cell_dev", series["cell_dev_l2"], 0.95),
        *fit_claims("protease_dev", series["protease_dev_l2"], 0.95),
        # the gradient series is claimed to decay, not to decay log-linearly
        *fit_claims("grad_sqrt_matrix", series["grad_sqrt_matrix_l2"], None),
        judge("final_steady_residual", _STEADY_TOL, residual),
        # extinct cells carry no level; k is 1.0 only in the invaded state
        judge("final_state_homogeneous", 1.0, math.nan if k is None else k,
              operator.eq),
    ]


def _bound5_claims(result: RunResult) -> list[Claim]:
    m_l2 = result.series["protease_l2"].values
    peak = float(np.max(m_l2))
    scale = peak if peak > 0 else 1.0
    dev = result.series["cell_dev_l2"].values
    # envelope check: after its peak the protease L2 never ticks back up
    # beyond roundoff slack
    upticks = np.diff(m_l2[int(np.argmax(m_l2)):])
    return [
        judge("protease_l2_final_over_peak", 1e-3, float(m_l2[-1]) / scale),
        judge("cell_dev_final_over_initial", 1e-2,
              float(dev[-1]) / (float(dev[0]) if dev[0] > 0 else 1.0)),
        judge("protease_l2_envelope", 1e-9 * scale,
              float(np.max(upticks)) if upticks.size else 0.0),
    ]


def _mu_zero_claims(result: RunResult) -> list[Claim]:
    mass = result.series["cell_mass"].values
    base = float(mass[0]) if mass[0] > 0 else 1.0
    drift = (float(np.max(mass)) - float(np.min(mass))) / base
    gap = abs(result.u_bar - float(np.mean(result.initial_state.cells.values)))
    return [judge("cell_mass_drift", 1e-9, drift),
            judge("cell_mean_matches_initial", 1e-14, gap)]


# ---------------------------------------------------------------------------
# convergence studies


@dataclass(frozen=True)
class ConvergenceLevel:
    """One row of a convergence table."""

    cells: tuple[int, ...]
    h: float
    dt_max: float
    error: float
    observed_order: float


@dataclass(frozen=True)
class ConvergenceStudy:
    scenario_name: str
    rows: tuple[ConvergenceLevel, ...]
    reference_cells: tuple[int, ...]

    @property
    def orders(self) -> list[float]:
        return [r.observed_order for r in self.rows[1:]]


def _restrict(values: np.ndarray, factor: int) -> np.ndarray:
    """Average 2^k-cell blocks down to the coarse grid, axis by axis."""
    out = values
    for _ in range(int(round(math.log2(factor)))):
        for axis in range(out.ndim):
            shape = (out.shape[:axis] + (out.shape[axis] // 2, 2)
                     + out.shape[axis + 1:])
            out = out.reshape(shape).mean(axis=axis + 1)
    return out


def convergence_study(scenario: Scenario, levels: int = 3) -> ConvergenceStudy:
    """Richardson-style order measurement against the finest level.

    Each refinement halves the cell size and quarters ``dt_max``, so
    the first-order-in-time splitting error shrinks at the same
    second-order clip as the spatial terms and the measured order
    reflects the spatial discretization.  Errors are volume-weighted
    L2 differences of the final cell density against the cell-averaged
    restriction of the finest run.  Every level is built, and so
    validated, before any is run.
    """
    if levels < 3:
        raise ValidationError(f"levels must be >= 3, got {levels}")
    if scenario.jitter != 0:
        raise ValidationError("convergence studies need smooth initial data; "
                              "set jitter to 0")

    base_grid, base_cfg = scenario.grid, scenario.stepper
    scenarios = [
        replace(scenario,
                grid=Grid(tuple(n * 2 ** lev for n in base_grid.cells),
                          base_grid.extents, base_grid.origin),
                stepper=StepperConfig(base_cfg.t_end, base_cfg.dt_max / 4 ** lev,
                                      base_cfg.t_end, base_cfg.cfl))
        for lev in range(levels)]
    finals = [run(level).final_state.cells.values for level in scenarios]
    grids = [level.grid for level in scenarios]

    rows = []
    prev_error = None
    for lev in range(levels - 1):
        reference = _restrict(finals[-1], 2 ** (levels - 1 - lev))
        diff = ScalarField(grids[lev], finals[lev] - reference)
        error = norm(diff, 2)
        if prev_error is None or error == 0:
            order = math.nan
        else:
            order = math.log2(prev_error / error)
        rows.append(ConvergenceLevel(grids[lev].cells, max(grids[lev].spacing),
                                     base_cfg.dt_max / 4 ** lev, error, order))
        prev_error = error
    return ConvergenceStudy(scenario.name, tuple(rows), grids[-1].cells)
