"""Scenario presets, the run loop, theorem verification, and convergence studies.

A :class:`Scenario` bundles everything needed to reproduce a run: model
coefficients, grid, step-size policy, initial-condition recipes, and a
``regime`` tag naming which theorem's hypotheses the setup is meant to
satisfy.  :func:`run` drives the IMEX stepper and records named time
series; :func:`verify` turns the recorded monitors and decay fits into
a :class:`TheoremReport` of pass/fail claims; :func:`convergence_study`
measures the observed order of accuracy against a fine-grid reference.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .analysis import (
    DecayFit,
    InsufficientDataError,
    TimeSeries,
    bounds_report,
    decay_fit,
    norm,
    sigma_estimate,
    steady_classify,
    steady_residual,
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
    as_primitive,
    imex_step,
    stable_dt,
    to_weighted_form,
)

# each stock scenario is named after the regime it satisfies
PRESETS = ("theorem_bound3", "theorem_bound5", "mu_zero_conservation",
           "byrne_baseline")
REGIMES = PRESETS + ("custom",)

# every series recorded by run(), in csv column order
SERIES_NAMES = ("cell_dev_l2", "cell_dev_sup", "matrix_sup",
                "grad_sqrt_matrix_l2", "protease_dev_l2", "protease_l2",
                "cell_min", "protease_min", "cell_mass")

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


@dataclass(frozen=True)
class Scenario:
    """A fully specified, reproducible run.

    ``regime`` names the hypothesis set the initial data and
    coefficients are required to satisfy (checked by
    :func:`validate_scenario` before any stepping).  ``jitter`` adds
    seeded multiplicative noise ``1 + jitter*N(0,1)`` per cell to each
    initial field, for robustness probes; presets use 0.  ``seed`` must
    be an integer ``>= 0``, as numpy's generator needs, whether or not
    there is jitter to seed.
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
    flux_scheme: str = "upwind"
    formulation: str = PRIMITIVE
    source_text: str | None = None

    def __post_init__(self):
        if self.regime not in REGIMES:
            raise ValidationError(
                f"unknown regime {self.regime!r}; expected one of {', '.join(REGIMES)}")
        if self.flux_scheme not in ("upwind", "centered"):
            raise ValidationError(
                f"flux_scheme must be 'upwind' or 'centered', got {self.flux_scheme!r}")
        if self.formulation not in (PRIMITIVE, WEIGHTED):
            raise ValidationError(
                f"formulation must be {PRIMITIVE!r} or {WEIGHTED!r}, "
                f"got {self.formulation!r}")
        if not (math.isfinite(self.jitter) and self.jitter >= 0):
            raise ValidationError(f"jitter must be finite and >= 0, got {self.jitter!r}")
        if not (isinstance(self.seed, (int, np.integer)) and self.seed >= 0):
            raise ValidationError(f"seed must be an integer >= 0, got {self.seed!r}")
        for fname in ("initial_cells", "initial_matrix", "initial_protease"):
            if not isinstance(getattr(self, fname), InitialSpec):
                raise ValidationError(f"{fname} must be an InitialSpec")


def build_initial_fields(scenario: Scenario) -> tuple[ScalarField, ScalarField, ScalarField]:
    """Evaluate the three initial fields, applying seeded jitter if any."""
    grid = scenario.grid
    arrays = [scenario.initial_cells.evaluate(grid),
              scenario.initial_matrix.evaluate(grid),
              scenario.initial_protease.evaluate(grid)]
    if scenario.jitter > 0:
        rng = np.random.default_rng(scenario.seed)
        # one draw per field, in u, v, m order, so runs are reproducible
        arrays = [a * (1.0 + scenario.jitter * rng.standard_normal(a.shape))
                  for a in arrays]
    return tuple(ScalarField(grid, a) for a in arrays)


def validate_scenario(scenario: Scenario) -> tuple[ScalarField, ScalarField, ScalarField]:
    """Check the regime's hypotheses; returns the evaluated initial fields."""
    u0, v0, m0 = build_initial_fields(scenario)
    for label, f in (("u0", u0), ("v0", v0), ("m0", m0)):
        # checked after the jitter, and first: a NaN passes ``min < 0``
        if not np.isfinite(f.values).all():
            raise ValidationError(f"{label} must be finite everywhere")
        if float(np.min(f.values)) < 0:
            raise ValidationError(f"{label} must be nonnegative everywhere")

    # no run within MAX_STEPS can reach t_end past either bound: every
    # step is at most dt_max long, and every record time needs a step of
    # its own (or, when record_every is below run()'s eps, a loop pass)
    cfg = scenario.stepper
    for name in ("dt_max", "record_every"):
        needed = cfg.t_end / getattr(cfg, name)
        if needed > MAX_STEPS:
            raise ValidationError(
                f"t_end / {name} needs {needed:.4g} steps, more than the "
                f"budget of {MAX_STEPS} steps")

    params, regime = scenario.params, scenario.regime
    g = params.production
    if regime == "theorem_bound3":
        if not params.growth_rate > 0:
            raise ValidationError("mu must be positive for regime theorem_bound3")
        if g.positive_floor is None:
            raise ValidationError(
                "g must have a positive floor for regime theorem_bound3")
        if not (float(np.min(v0.values)) > 0 and float(np.max(v0.values)) < 1):
            raise ValidationError(
                "v0 must satisfy 0<v0<1 for regime theorem_bound3")
        if not float(np.min(u0.values)) > 0:
            raise ValidationError(
                "u0 must be strictly positive for regime theorem_bound3")
    elif regime == "theorem_bound5":
        if not params.growth_rate > 0:
            raise ValidationError("mu must be positive for regime theorem_bound5")
        if not g.vanishes_at_zero:
            raise ValidationError("g must vanish at zero for regime theorem_bound5")
        if not (g.family == "affine" and g.coeffs[0] == 0 and g.coeffs[1] > 0):
            raise ValidationError(
                "g must be affine(0, c) with c>0 for regime theorem_bound5")
    elif regime == "mu_zero_conservation":
        if params.growth_rate != 0:
            raise ValidationError("mu must be zero for regime mu_zero_conservation")
    elif regime == "byrne_baseline":
        if params.taxis.family != "constant":
            raise ValidationError("chi must be constant for regime byrne_baseline")
        if not (g.family == "affine" and g.coeffs == (0.0, 1.0)):
            raise ValidationError("g must be affine(0,1) for regime byrne_baseline")
    return u0, v0, m0


# ---------------------------------------------------------------------------
# presets


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
    grid = build_grid(128, 1.0)
    u0 = InitialSpec.bump(0.5, 0.15, 0.2, 1.0)
    v0 = InitialSpec.bump(0.5, 0.15, 0.3, 0.5)
    if name == "theorem_bound3":
        return Scenario(
            name=name, regime=name,
            params=ModelParams(1.0, 1.0, 1.0, FunctionSpec.constant(0.5),
                               FunctionSpec.affine(1.0, 1.0)),
            grid=grid, stepper=StepperConfig(32.0, 0.01, 0.1),
            initial_cells=u0, initial_matrix=v0,
            initial_protease=InitialSpec.constant(0.1))
    if name == "theorem_bound5":
        return Scenario(
            name=name, regime=name,
            params=ModelParams(1.0, 1.0, 1.0, FunctionSpec.constant(0.5),
                               FunctionSpec.affine(0.0, 1.0)),
            grid=grid, stepper=StepperConfig(20000.0, 0.25, 50.0),
            initial_cells=u0, initial_matrix=v0,
            initial_protease=InitialSpec.constant(0.1))
    if name == "mu_zero_conservation":
        return Scenario(
            name=name, regime=name,
            params=ModelParams(1.0, 1.0, 0.0, FunctionSpec.constant(1.0),
                               FunctionSpec.affine(0.0, 1.0)),
            grid=grid, stepper=StepperConfig(5.0, 0.01, 0.0125),
            initial_cells=u0, initial_matrix=v0,
            initial_protease=InitialSpec.constant(0.1))
    if name == "byrne_baseline":
        return Scenario(
            name=name, regime=name,
            params=ModelParams(1.0, 1.0, 1.0, FunctionSpec.constant(0.5),
                               FunctionSpec.affine(0.0, 1.0)),
            grid=grid, stepper=StepperConfig(10.0, 0.01, 0.025),
            initial_cells=InitialSpec.bump(0.5, 0.1, 0.9, 0.1),
            initial_matrix=InitialSpec.constant(0.8),
            initial_protease=InitialSpec.constant(0.0))
    raise ValidationError(f"unknown preset {name!r}; expected one of "
                          f"{', '.join(preset_names())}")


def preset_names() -> tuple[str, ...]:
    return PRESETS


# ---------------------------------------------------------------------------
# the run loop


@dataclass(frozen=True)
class RunResult:
    """A completed run: sampled states plus the named monitor series."""

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
    mag2 = np.zeros(f.grid.shape)
    for comp in _cell_gradient(f):
        mag2 += comp ** 2
    return math.sqrt(float(np.sum(mag2)) * f.grid.cell_volume)


def _series_samples(state: SimState, params: ModelParams, u_bar: float,
                    m_star: float) -> dict[str, float]:
    prim = as_primitive(state, params)
    u, v, m = prim.cells, prim.ecm, prim.protease
    dev = u.with_values(u.values - u_bar)
    sqrt_v = v.with_values(np.sqrt(np.maximum(v.values, 0.0)))
    return {
        "cell_dev_l2": norm(dev, 2),
        "cell_dev_sup": norm(dev, math.inf),
        "matrix_sup": norm(v, math.inf),
        "grad_sqrt_matrix_l2": _grad_l2(sqrt_v),
        "protease_dev_l2": norm(m.with_values(m.values - m_star), 2),
        "protease_l2": norm(m, 2),
        "cell_min": float(np.min(u.values)),
        "protease_min": float(np.min(m.values)),
        "cell_mass": norm(u, 1),
    }


def run(scenario: Scenario) -> RunResult:
    """Integrate the scenario to ``t_end``, sampling at ``record_every``.

    The deviation series use the expected long-time cell level: 1 when
    growth is on, the (conserved) discrete mean of u0 when it is off.
    Records land exactly on the sampling schedule because the step is
    shortened to hit each record time; the final time is always
    recorded.
    """
    u0, v0, m0 = validate_scenario(scenario)
    params, cfg = scenario.params, scenario.stepper
    u_bar = 1.0 if params.growth_rate > 0 else float(np.mean(u0.values))
    m_star = u_bar * float(params.production(0.0)) / params.protease_decay

    state = initial_state(u0, v0, m0)
    if scenario.formulation == WEIGHTED:
        state = to_weighted_form(state, params)

    t_end = cfg.t_end
    eps = 1e-9 * max(1.0, t_end)
    records = [state]
    samples = [_series_samples(state, params, u_bar, m_star)]
    start = time.perf_counter()

    k, steps = 1, 0
    while t_end - state.t > eps:
        target = min(k * cfg.record_every, t_end)
        if target - state.t <= eps:
            k += 1
            continue
        dt = min(stable_dt(state, params, cfg), target - state.t)
        state = imex_step(state, params, dt, flux_scheme=scenario.flux_scheme)
        steps += 1
        if steps > MAX_STEPS:
            raise RuntimeError(f"step budget exhausted at t={state.t:g}")
        if target - state.t <= eps:
            records.append(state)
            samples.append(_series_samples(state, params, u_bar, m_star))
            k += 1
    wall = time.perf_counter() - start

    t = np.array([s.t for s in records])
    series = {name: TimeSeries(name, t, np.array([row[name] for row in samples]))
              for name in SERIES_NAMES}
    return RunResult(scenario, records, series, wall, u_bar)


# ---------------------------------------------------------------------------
# theorem verification


@dataclass(frozen=True)
class Claim:
    """One verifiable statement with its measured value and threshold."""

    claim_id: str
    description: str
    verdict: str  # "pass" | "fail" | "not_applicable"
    threshold: float
    measured: float
    fitted: DecayFit | None = None


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


def _fit_or_none(series: TimeSeries) -> DecayFit | None:
    try:
        return decay_fit(series)
    except InsufficientDataError:
        return None


def _fit_quality_claim(claim_id: str, desc: str, fit: DecayFit | None,
                       threshold: float) -> Claim:
    if fit is None:
        return Claim(claim_id, desc, "not_applicable", threshold, math.nan)
    verdict = "pass" if fit.r_squared >= threshold else "fail"
    return Claim(claim_id, desc, verdict, threshold, fit.r_squared, fit)


def _positive_rate_claim(claim_id: str, desc: str, fit: DecayFit | None) -> Claim:
    if fit is None:
        return Claim(claim_id, desc, "not_applicable", 0.0, math.nan)
    verdict = "pass" if fit.rate > 0 else "fail"
    return Claim(claim_id, desc, verdict, 0.0, fit.rate, fit)


def verify(result: RunResult) -> TheoremReport:
    """Score the run against its regime's claims.

    Every regime carries the a-priori bound monitors as claims; the
    theorem regimes add decay fits and endpoint checks.  Failures are
    encoded in the verdicts, never raised.
    """
    scenario = result.scenario
    params = scenario.params
    states = result.recorded_states
    claims: list[Claim] = []

    report = bounds_report(states, params, states[0])
    for rec in report.records:
        claims.append(Claim(
            "bound_" + rec.name,
            f"a-priori bound: {rec.name} stays within its envelope",
            "pass" if rec.satisfied else "fail",
            rec.theoretical_bound, rec.observed_max))

    regime = scenario.regime
    if regime == "theorem_bound3":
        claims += _bound3_claims(result)
    elif regime == "theorem_bound5":
        claims += _bound5_claims(result)
    elif regime == "mu_zero_conservation":
        claims += _mu_zero_claims(result)
    return TheoremReport(regime, tuple(claims))


def _bound3_claims(result: RunResult) -> list[Claim]:
    params = result.scenario.params
    t_end = result.scenario.stepper.t_end
    claims = []

    fit_v = _fit_or_none(result.series["matrix_sup"])
    claims.append(_fit_quality_claim(
        "matrix_sup_fit_quality", "sup of matrix decays log-linearly",
        fit_v, 0.98))
    predicted = result.u_bar * float(params.production(0.0)) / params.protease_decay
    if fit_v is None:
        claims.append(Claim("matrix_sup_decay_rate",
                            "matrix decay rate matches the predicted asymptote",
                            "not_applicable", predicted, math.nan))
    else:
        ok = abs(fit_v.rate - predicted) <= 0.15 * predicted
        claims.append(Claim("matrix_sup_decay_rate",
                            "matrix decay rate matches the predicted asymptote",
                            "pass" if ok else "fail", predicted, fit_v.rate, fit_v))

    fit_u = _fit_or_none(result.series["cell_dev_l2"])
    claims.append(_fit_quality_claim(
        "cell_dev_fit_quality", "L2 deviation of cells decays log-linearly",
        fit_u, 0.95))
    claims.append(_positive_rate_claim(
        "cell_dev_decay_rate", "cell deviation decays at a positive rate", fit_u))

    fit_m = _fit_or_none(result.series["protease_dev_l2"])
    claims.append(_fit_quality_claim(
        "protease_dev_fit_quality",
        "L2 deviation of protease decays log-linearly", fit_m, 0.95))
    claims.append(_positive_rate_claim(
        "protease_dev_decay_rate", "protease deviation decays at a positive rate",
        fit_m))

    claims.append(_positive_rate_claim(
        "grad_sqrt_matrix_decay_rate",
        "gradient of the matrix square root decays at a positive rate",
        _fit_or_none(result.series["grad_sqrt_matrix_l2"])))

    sigma = sigma_estimate(result.recorded_states, 0.25 * t_end)
    claims.append(Claim("protease_floor_positive",
                        "protease stays bounded away from zero late in the run",
                        "pass" if sigma > 0 else "fail", 0.0, sigma))

    final = as_primitive(result.final_state, params)
    residual = steady_residual(final, params)
    claims.append(Claim("final_steady_residual",
                        "final state satisfies the stationary equations",
                        "pass" if residual <= 1e-5 else "fail", 1e-5, residual))
    try:
        cls = steady_classify(final, params, tol=1e-5)
        k = cls.k if cls.k is not None else math.nan
        ok = cls.kind == "homogeneous" and cls.k == 1.0
    except ValueError:
        k, ok = math.nan, False
    claims.append(Claim("final_state_homogeneous",
                        "final state is the homogeneous invaded state",
                        "pass" if ok else "fail", 1.0, k))
    return claims


def _bound5_claims(result: RunResult) -> list[Claim]:
    claims = []
    m_l2 = result.series["protease_l2"].values
    peak = float(np.max(m_l2))
    peak_idx = int(np.argmax(m_l2))
    denom = peak if peak > 0 else 1.0
    ratio = float(m_l2[-1]) / denom
    claims.append(Claim("protease_l2_final_over_peak",
                        "L2 protease at the end is negligible next to its peak",
                        "pass" if ratio <= 1e-3 else "fail", 1e-3, ratio))

    dev = result.series["cell_dev_l2"].values
    denom = float(dev[0]) if dev[0] > 0 else 1.0
    ratio = float(dev[-1]) / denom
    claims.append(Claim("cell_dev_final_over_initial",
                        "L2 cell deviation shrinks by two orders of magnitude",
                        "pass" if ratio <= 1e-2 else "fail", 1e-2, ratio))

    # envelope check: after its peak the protease L2 never ticks back up
    # beyond roundoff slack
    upticks = np.diff(m_l2[peak_idx:])
    measured = float(np.max(upticks)) if upticks.size else 0.0
    slack = 1e-9 * (peak if peak > 0 else 1.0)
    claims.append(Claim("protease_l2_envelope",
                        "L2 protease decreases monotonically after its peak",
                        "pass" if measured <= slack else "fail", slack, measured))
    return claims


def _mu_zero_claims(result: RunResult) -> list[Claim]:
    claims = []
    mass = result.series["cell_mass"].values
    base = float(mass[0]) if mass[0] > 0 else 1.0
    drift = (float(np.max(mass)) - float(np.min(mass))) / base
    claims.append(Claim("cell_mass_drift",
                        "total cell mass is conserved to relative 1e-9",
                        "pass" if drift <= 1e-9 else "fail", 1e-9, drift))

    params = result.scenario.params
    first = as_primitive(result.initial_state, params)
    gap = abs(result.u_bar - float(np.mean(first.cells.values)))
    claims.append(Claim("cell_mean_matches_initial",
                        "deviation target equals the initial mean exactly",
                        "pass" if gap <= 1e-14 else "fail", 1e-14, gap))
    return claims


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
    restriction of the finest run.
    """
    if levels < 3:
        raise ValidationError(f"levels must be >= 3, got {levels}")
    if scenario.jitter != 0:
        raise ValidationError("convergence studies need smooth initial data; "
                              "set jitter to 0")

    base_grid, base_cfg = scenario.grid, scenario.stepper
    finals = []
    grids = []
    for lev in range(levels):
        f = 2 ** lev
        grid = Grid(tuple(n * f for n in base_grid.cells),
                    base_grid.extents, base_grid.origin)
        cfg = StepperConfig(base_cfg.t_end, base_cfg.dt_max / 4 ** lev,
                            base_cfg.t_end, base_cfg.cfl)
        result = run(replace(scenario, grid=grid, stepper=cfg, source_text=None))
        finals.append(as_primitive(result.final_state, scenario.params).cells.values)
        grids.append(grid)

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
