import math
import re
from dataclasses import replace

import numpy as np
import pytest

from haptosim import (
    FunctionSpec,
    ModelParams,
    ScalarField,
    SimState,
    ValidationError,
    build_grid,
    initial_state,
    taxis_weight,
)
from haptosim import analysis, harness, operators, stepping
from haptosim.analysis import TimeSeries, norm
from haptosim.harness import (
    MAX_STEPS,
    PRESETS,
    SERIES_NAMES,
    InitialSpec,
    RunResult,
    Scenario,
    convergence_study,
    preset_scenario,
    run,
    verify,
)
from haptosim.model import PRIMITIVE, WEIGHTED
from haptosim.stepping import StepperConfig


def quick_params(mu=1.0, chi=None, g=None, gamma=1.0):
    return ModelParams(1.0, gamma, mu,
                       chi if chi is not None else FunctionSpec.constant(0.5),
                       g if g is not None else FunctionSpec.affine(1.0, 1.0))


def quick_scenario(regime="custom", mu=1.0, chi=None, g=None, cells=16,
                   t_end=0.5, dt_max=0.05, record_every=0.1,
                   u0=None, v0=None, m0=None, **kw):
    return Scenario(
        name="test", regime=regime,
        params=quick_params(mu=mu, chi=chi, g=g),
        grid=build_grid(cells, 1.0),
        stepper=StepperConfig(t_end, dt_max, record_every),
        initial_cells=u0 if u0 is not None else InitialSpec.constant(1.0),
        initial_matrix=v0 if v0 is not None else InitialSpec.bump(0.5, 0.15, 0.3, 0.4),
        initial_protease=m0 if m0 is not None else InitialSpec.constant(0.1),
        **kw)


# ---------------------------------------------------------------------------
# initial-condition recipes


def test_initial_constant():
    grid = build_grid(8, 1.0)
    vals = InitialSpec.constant(0.7).evaluate(grid)
    assert vals.shape == (8,)
    assert np.all(vals == 0.7)


def test_initial_bump_peak_and_offset():
    grid = build_grid(64, 1.0)
    spec = InitialSpec.bump(0.5, 0.1, 2.0, 0.3)
    vals = spec.evaluate(grid)
    x = grid.axis_centers(0)
    expected = 0.3 + 2.0 * np.exp(-((x - 0.5) ** 2) / (2 * 0.1 ** 2))
    assert np.allclose(vals, expected, rtol=0, atol=1e-15)


def test_initial_bump_2d_is_radial():
    grid = build_grid((16, 16), 1.0)
    vals = InitialSpec.bump(0.5, 0.2, 1.0).evaluate(grid)
    assert vals.shape == (16, 16)
    # symmetric under axis swap because both axes share the center
    assert np.allclose(vals, vals.T, atol=1e-15)
    assert vals.max() == vals[8, 8] or vals.max() == vals[7, 7]


def test_initial_tabulated_interpolates_first_axis():
    grid = build_grid((4, 3), 1.0)
    spec = InitialSpec.tabulated([0.0, 1.0], [0.0, 1.0])
    vals = spec.evaluate(grid)
    x = grid.axis_centers(0)
    for j in range(3):
        assert np.allclose(vals[:, j], x, atol=1e-15)


def test_initial_validation():
    with pytest.raises(ValidationError):
        InitialSpec("wedge")
    with pytest.raises(ValidationError):
        InitialSpec.bump(0.5, 0.0, 1.0)
    with pytest.raises(ValidationError):
        InitialSpec.tabulated([0.0], [1.0])
    with pytest.raises(ValidationError):
        InitialSpec.tabulated([0.0, 0.0], [1.0, 2.0])


@pytest.mark.parametrize("nodes, table", [
    ([math.nan, 1.0], [0.0, 1.0]),
    ([0.0, 1.0], [math.inf, 1.0]),
], ids=["nan-node", "inf-value"])
def test_initial_rejects_non_finite_table(nodes, table):
    with pytest.raises(ValidationError, match="tabulated nodes and table must be finite"):
        InitialSpec.tabulated(nodes, table)


@pytest.mark.parametrize("args, message", [
    (("constant", (0.0,), (0.0, 1.0), (1.0, 1.0)), "takes 1 coefficients and no table"),
    (("constant", (0.0, -3.0)), "takes 1 coefficients"),
    (("bump", (0.5, 0.1, 1.0)), "takes 4 coefficients"),
    (("bump", (0.5, -3.0, 1.0, 0.0)), "bump width must be positive, got -3.0"),
    (("wedge", ()), "unknown initial kind 'wedge'"),
], ids=["stray-table", "extra-coeff", "short-bump", "width", "kind"])
def test_initial_fields_hold_exactly_the_kind_numbers(args, message):
    with pytest.raises(ValidationError, match=message):
        InitialSpec(*args)


# ---------------------------------------------------------------------------
# scenario validation


def test_scenario_rejects_unknown_regime():
    with pytest.raises(ValidationError, match="unknown regime"):
        quick_scenario(regime="theorem_bound7")


def test_scenario_rejects_bad_formulation():
    with pytest.raises(ValidationError, match="formulation"):
        quick_scenario(formulation="mixed")


def test_scenario_rejects_negative_jitter():
    with pytest.raises(ValidationError, match="jitter"):
        quick_scenario(jitter=-0.1)


@pytest.mark.parametrize("jitter", [0.0, 0.1])
@pytest.mark.parametrize("seed", [-1, 1.5, "3"])
def test_scenario_rejects_seed_that_is_not_a_natural_number(seed, jitter):
    # numpy's generator raises on a negative seed; without jitter it was
    # silently accepted
    with pytest.raises(ValidationError, match="seed must be an integer >= 0"):
        quick_scenario(seed=seed, jitter=jitter)


def test_scenario_accepts_numpy_integer_seed():
    assert quick_scenario(seed=np.int64(5), jitter=0.1).seed == 5


def test_validate_rejects_negative_initial_field():
    with pytest.raises(ValidationError, match="m0 must be nonnegative"):
        quick_scenario(m0=InitialSpec.constant(-0.2))


@pytest.mark.parametrize("label, spec", [
    ("u0", InitialSpec.constant(math.nan)),
    ("v0", InitialSpec.constant(math.nan)),
    ("v0", InitialSpec.bump(0.5, 0.1, math.inf)),
    ("m0", InitialSpec.constant(-math.inf)),
], ids=["u0-nan", "v0-nan", "v0-inf-bump", "m0-minus-inf"])
def test_validate_rejects_non_finite_initial_field(label, spec):
    # a NaN slips past the nonnegativity check, and -inf must be reported
    # as non-finite rather than negative
    with pytest.raises(ValidationError, match=f"{label} must be finite everywhere"):
        quick_scenario(**{label: spec})


def test_validate_rejects_field_made_non_finite_by_jitter():
    # 1e308 * (1 + N(0,1)) overflows to inf wherever the draw exceeds about 0.8
    spec = InitialSpec.constant(1e308)
    assert np.isfinite(spec.evaluate(build_grid(16, 1.0))).all()
    with np.errstate(over="ignore"):
        with pytest.raises(ValidationError, match="u0 must be finite everywhere"):
            quick_scenario(u0=spec, jitter=1.0, seed=0)


def test_bound3_regime_needs_positive_mu():
    with pytest.raises(ValidationError,
                       match="mu must be positive for regime theorem_bound3"):
        quick_scenario(regime="theorem_bound3", mu=0.0)


def test_bound3_regime_needs_matrix_strictly_inside_unit_interval():
    with pytest.raises(ValidationError,
                       match="v0 must satisfy 0<v0<1 for regime theorem_bound3"):
        quick_scenario(regime="theorem_bound3",
                       v0=InitialSpec.bump(0.5, 0.15, 0.5, 0.6))


def test_bound3_regime_needs_cells_bounded_away_from_zero():
    with pytest.raises(ValidationError,
                       match="u0 must be strictly positive"):
        quick_scenario(regime="theorem_bound3", u0=InitialSpec.constant(0.0))


def test_bound3_regime_needs_production_floor():
    with pytest.raises(ValidationError, match="positive floor"):
        quick_scenario(regime="theorem_bound3", g=FunctionSpec.affine(0.0, 1.0))


def test_bound5_regime_needs_vanishing_production():
    with pytest.raises(ValidationError,
                       match="g must vanish at zero for regime theorem_bound5"):
        quick_scenario(regime="theorem_bound5", g=FunctionSpec.affine(1.0, 1.0))


def test_mu_zero_regime_rejects_growth():
    with pytest.raises(ValidationError,
                       match="mu must be zero for regime mu_zero_conservation"):
        quick_scenario(regime="mu_zero_conservation", mu=1.0,
                       g=FunctionSpec.affine(0.0, 1.0))


def test_byrne_regime_needs_constant_taxis():
    with pytest.raises(ValidationError, match="chi must be constant"):
        quick_scenario(regime="byrne_baseline",
                       chi=FunctionSpec.affine(0.1, 0.2),
                       g=FunctionSpec.affine(0.0, 1.0))


def test_byrne_regime_needs_unit_affine_production():
    with pytest.raises(ValidationError, match=r"affine\(0,1\)"):
        quick_scenario(regime="byrne_baseline", g=FunctionSpec.affine(0.0, 2.0))


@pytest.mark.parametrize("regime, changes, message", [
    ("theorem_bound3", {"mu": 0.0}, "mu must be positive for regime theorem_bound3"),
    ("theorem_bound3", {"g": FunctionSpec.affine(0.0, 1.0)},
     "g must have a positive floor for regime theorem_bound3"),
    ("theorem_bound3", {"v0": InitialSpec.bump(0.5, 0.15, 0.5, 0.6)},
     "v0 must satisfy 0<v0<1 for regime theorem_bound3"),
    ("theorem_bound3", {"u0": InitialSpec.constant(0.0)},
     "u0 must be strictly positive for regime theorem_bound3"),
    ("theorem_bound5", {"mu": 0.0, "g": FunctionSpec.affine(0.0, 1.0)},
     "mu must be positive for regime theorem_bound5"),
    ("theorem_bound5", {"g": FunctionSpec.affine(1.0, 1.0)},
     "g must vanish at zero for regime theorem_bound5"),
    ("theorem_bound5", {"g": FunctionSpec.saturating(0.0, 1.0)},
     "g must be affine(0, c) with c>0 for regime theorem_bound5"),
    ("mu_zero_conservation", {"g": FunctionSpec.affine(0.0, 1.0)},
     "mu must be zero for regime mu_zero_conservation"),
    ("byrne_baseline", {"chi": FunctionSpec.affine(0.1, 0.2),
                        "g": FunctionSpec.affine(0.0, 1.0)},
     "chi must be constant for regime byrne_baseline"),
    ("byrne_baseline", {"g": FunctionSpec.affine(0.0, 2.0)},
     "g must be affine(0,1) for regime byrne_baseline"),
], ids=["bound3-mu", "bound3-floor", "bound3-v0", "bound3-u0", "bound5-mu",
        "bound5-vanishes", "bound5-affine", "mu_zero-mu", "byrne-chi", "byrne-g"])
def test_every_regime_hypothesis_names_its_requirement(regime, changes, message):
    # one case per hypothesis, each the first its scenario violates
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        quick_scenario(regime=regime, **changes)


def test_jitter_is_seeded_and_reproducible():
    a = quick_scenario(jitter=0.01, seed=7).initial_fields
    b = quick_scenario(jitter=0.01, seed=7).initial_fields
    c = quick_scenario(jitter=0.01, seed=8).initial_fields
    for fa, fb in zip(a, b):
        assert np.array_equal(fa.values, fb.values)
    assert not np.array_equal(a[0].values, c[0].values)


def test_zero_jitter_reproduces_recipe_exactly():
    sc = quick_scenario(jitter=0.0, seed=3)
    u0, _, _ = sc.initial_fields
    assert np.array_equal(u0.values, sc.initial_cells.evaluate(sc.grid))


def test_initial_fields_are_read_only_and_outside_equality():
    a = quick_scenario(jitter=0.01, seed=7)
    b = quick_scenario(jitter=0.01, seed=7)
    assert a == b and hash(a) == hash(b)
    assert a.initial_fields[0] is not b.initial_fields[0]
    for field in a.initial_fields:
        assert not field.values.flags.writeable
        with pytest.raises(ValueError):
            field.values[0] = 0.0
    # replace builds a new scenario, with fields of its own
    c = replace(a, seed=8)
    assert not np.array_equal(c.initial_fields[0].values, a.initial_fields[0].values)


def test_replace_validates_the_new_scenario():
    sc = quick_scenario(regime="theorem_bound3")
    with pytest.raises(ValidationError, match="mu must be positive"):
        replace(sc, params=quick_params(mu=0.0))


# ---------------------------------------------------------------------------
# presets


@pytest.mark.parametrize("stepper, message", [
    ({"t_end": 0.02, "dt_max": 1e-9}, "t_end / dt_max needs 2e+07 steps"),
    ({"t_end": 0.02, "record_every": 1e-12},
     "t_end / record_every needs 2e+10 steps"),
], ids=["dt_max", "record_every"])
def test_validate_rejects_schedule_beyond_step_budget(stepper, message):
    # a tiny dt_max would run 2e7 steps before the budget guard fires; a
    # record_every below eps spins the record loop without taking a step
    with pytest.raises(ValidationError, match=re.escape(message)) as info:
        quick_scenario(**stepper)
    assert f"budget of {MAX_STEPS} steps" in str(info.value)


def test_validate_accepts_schedule_at_step_budget():
    assert 1.0 / 1e-7 == MAX_STEPS
    quick_scenario(t_end=1.0, dt_max=1e-7, record_every=1e-7)


def test_run_rejects_schedule_beyond_step_budget_before_stepping(monkeypatch):
    def no_step(*args, **kwargs):
        raise AssertionError("stepped before validation")
    monkeypatch.setattr(harness, "imex_step", no_step)
    with pytest.raises(ValidationError, match="needs 2e\\+07 steps"):
        run(quick_scenario(t_end=0.02, dt_max=1e-9))


def test_presets_all_validate():
    for name in PRESETS:
        # building a preset validates it
        assert preset_scenario(name).regime == name


def test_preset_parameters_match_their_regimes():
    b3 = preset_scenario("theorem_bound3")
    assert b3.params.production(0.0) == 1.0
    assert b3.params.production.positive_floor == 1.0
    b5 = preset_scenario("theorem_bound5")
    assert b5.params.production.vanishes_at_zero
    assert preset_scenario("mu_zero_conservation").params.growth_rate == 0.0
    assert preset_scenario("byrne_baseline").params.taxis.family == "constant"


def test_unknown_preset_rejected():
    with pytest.raises(ValidationError, match="unknown preset"):
        preset_scenario("kitchen_sink")


def test_unknown_preset_error_names_every_preset():
    with pytest.raises(ValidationError) as info:
        preset_scenario("kitchen_sink")
    assert str(info.value) == (
        "unknown preset 'kitchen_sink'; expected one of theorem_bound3, "
        "theorem_bound5, mu_zero_conservation, byrne_baseline")
    assert PRESETS == ("theorem_bound3", "theorem_bound5", "mu_zero_conservation",
                       "byrne_baseline")


# ---------------------------------------------------------------------------
# the run loop


def test_run_zero_initial_data_gives_zero_series():
    sc = quick_scenario(mu=0.0, g=FunctionSpec.affine(0.0, 1.0),
                        u0=InitialSpec.constant(0.0),
                        v0=InitialSpec.constant(0.0),
                        m0=InitialSpec.constant(0.0))
    res = run(sc)
    for name, series in res.series.items():
        assert np.all(series.values == 0.0), name


def test_run_homogeneous_steady_start_stays_put():
    # start exactly on the invaded steady state (1, 0, g(0)/gamma)
    sc = quick_scenario(mu=1.0, t_end=2.0, dt_max=0.05,
                        u0=InitialSpec.constant(1.0),
                        v0=InitialSpec.constant(0.0),
                        m0=InitialSpec.constant(1.0))
    res = run(sc)
    for name in ("cell_dev_l2", "cell_dev_sup", "matrix_sup",
                 "grad_sqrt_matrix_l2", "protease_dev_l2"):
        assert np.max(res.series[name].values) <= 1e-10, name


@pytest.mark.parametrize("formulation", [PRIMITIVE, WEIGHTED])
def test_run_stores_nothing_on_recorded_fields(formulation):
    # per-step reuse lives in one-slot caches, never on a field
    result = run(quick_scenario(cells=(8, 6), formulation=formulation))
    for state in result.recorded_states:
        for name in ("cells", "ecm", "protease", "int_protease"):
            assert set(vars(getattr(state, name))) == {"grid", "values"}, name


def test_run_records_land_on_schedule():
    sc = quick_scenario(t_end=1.0, dt_max=0.2, record_every=0.25)
    res = run(sc)
    times = [s.t for s in res.recorded_states]
    assert len(times) == 5
    assert times == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0], abs=1e-9)
    assert res.final_state.t == pytest.approx(1.0, abs=1e-12)


def test_run_series_share_the_record_times():
    res = run(quick_scenario())
    times = np.array([s.t for s in res.recorded_states])
    for series in res.series.values():
        assert np.array_equal(series.t, times)


def test_run_deviation_target_with_growth_is_one():
    res = run(quick_scenario(mu=1.0, u0=InitialSpec.constant(0.4)))
    assert res.u_bar == 1.0


def test_run_deviation_target_without_growth_is_initial_mean():
    sc = quick_scenario(mu=0.0, g=FunctionSpec.affine(0.0, 1.0),
                        u0=InitialSpec.bump(0.5, 0.2, 0.5, 0.2))
    res = run(sc)
    u0 = sc.initial_cells.evaluate(sc.grid)
    assert res.u_bar == float(np.mean(u0))


def test_run_is_deterministic():
    a = run(quick_scenario(jitter=0.02, seed=11))
    b = run(quick_scenario(jitter=0.02, seed=11))
    for name in a.series:
        assert np.array_equal(a.series[name].values, b.series[name].values)


def test_run_weighted_formulation_tracks_primitive():
    prim = run(quick_scenario(t_end=0.5))
    wgt = run(quick_scenario(t_end=0.5, formulation=WEIGHTED))
    # a weighted run's records are its stepped states, which hold u like a
    # primitive run's
    assert all(s.formulation == WEIGHTED for s in wgt.recorded_states)
    assert all(s.formulation == PRIMITIVE for s in prim.recorded_states)
    # series are computed on the cell density either way; the two
    # discretizations only agree to first order in h and dt, and this
    # smoke test runs very coarse
    gap = np.abs(prim.series["cell_mass"].values - wgt.series["cell_mass"].values)
    assert np.max(gap) <= 1e-2


def stepped_states(monkeypatch):
    """Every state a run steps through, keyed by time."""
    states = {}

    def keep(fn):
        def wrapper(*args, **kwargs):
            state = fn(*args, **kwargs)
            states[state.t] = state
            return state
        return wrapper
    monkeypatch.setattr(harness, "to_weighted_form", keep(harness.to_weighted_form))
    monkeypatch.setattr(harness, "imex_step", keep(harness.imex_step))
    return states


@pytest.mark.parametrize("cells", [16, (8, 6)], ids=["1d", "2d"])
def test_weighted_run_records_its_stepped_states_bit_for_bit(cells, monkeypatch):
    sc = quick_scenario(cells=cells, formulation=WEIGHTED,
                        chi=FunctionSpec.affine(0.3, 0.7))
    stepped = stepped_states(monkeypatch)
    # every array a record's monitors measure
    measured = []

    def measure(f, p):
        measured.append(f.values)
        return norm(f, p)
    monkeypatch.setattr(harness, "norm", measure)
    res = run(sc)
    assert len(res.recorded_states) == 6
    for record in res.recorded_states:
        assert record is stepped[record.t]
        assert record.formulation == WEIGHTED
        # the sampler measures the record's own cells, and w = u * z with the
        # weight of the record's matrix
        assert any(values is record.cells.values for values in measured)
        z = taxis_weight(record.ecm, sc.params.taxis).values
        w = (record.cells.values * z).tobytes()
        assert any(values.tobytes() == w for values in measured)


def test_weighted_run_starts_from_its_initial_cells_bit_for_bit():
    sc = quick_scenario(formulation=WEIGHTED, chi=FunctionSpec.affine(0.3, 0.7),
                        jitter=0.05, seed=3)
    u0 = sc.initial_fields[0].values
    first = run(sc).initial_state
    assert first.t == 0.0
    assert first.cells.values.tobytes() == u0.tobytes()


@pytest.mark.parametrize("formulation", [PRIMITIVE, WEIGHTED])
def test_run_evaluates_the_taxis_weight_once_per_record(formulation, monkeypatch):
    # every step lands on a record, whose sampler reads the weight of its
    # matrix from the stepper's slot.  A weighted step evaluates the weight
    # of its new matrix once, which its record's sampler and the next step
    # reuse, and the first step reuses the first record's z(v0).  A
    # primitive step evaluates none, so each record's sampler does
    calls, stepping_now = [], [False]

    def counted(v, chi):
        calls.append(stepping_now[0])
        return taxis_weight(v, chi)

    def step(*args):
        stepping_now[0] = True
        try:
            return stepping.imex_step(*args)
        finally:
            stepping_now[0] = False
    monkeypatch.setattr(stepping, "taxis_weight", counted)
    monkeypatch.setattr(harness, "imex_step", step)
    res = run(quick_scenario(formulation=formulation, t_end=0.5, dt_max=0.05,
                             record_every=0.05, u0=InitialSpec.constant(0.5)))
    steps = len(res.recorded_states) - 1
    assert steps == 10
    assert len(calls) == steps + 1
    assert sum(calls) == (steps if formulation == WEIGHTED else 0)


def test_primitive_run_evaluates_the_drift_velocities_once_per_step(monkeypatch):
    # each step's dt guard evaluates them, and its drift divergence
    # transports that same evaluation, found in the stepper's slot
    computed, transported, steps = [], [], []
    drift = operators.drift_velocities
    transport = operators.haptotaxis_divergence

    def counted(v, chi):
        computed.append(drift(v, chi))
        return computed[-1]

    def divergence(u, velocities):
        transported.append(velocities)
        return transport(u, velocities)

    def step(state, *args, **kwargs):
        steps.append(state.t)
        return stepping.imex_step(state, *args, **kwargs)
    for module in (stepping, operators):
        monkeypatch.setattr(module, "drift_velocities", counted)
    monkeypatch.setattr(stepping, "haptotaxis_divergence", divergence)
    monkeypatch.setattr(harness, "imex_step", step)
    res = run(quick_scenario(cells=(8, 6), t_end=0.5, dt_max=0.05, record_every=0.1))
    assert len(res.recorded_states) == 6
    assert len(steps) >= 10
    assert len(computed) == len(transported) == len(steps)
    assert all(sent is made for sent, made in zip(transported, computed))


def test_weighted_run_evaluates_the_drift_velocities_once_per_step(monkeypatch):
    # each step's dt guard evaluates them into the stepper's slot; a
    # weighted step transports none of them and drops them from the slot
    computed, transported, steps, guarding = [], [], [], [False]
    drift = operators.drift_velocities

    def counted(v, chi):
        computed.append(guarding[0])
        return drift(v, chi)

    def guard(*args):
        guarding[0] = True
        try:
            return stepping.stable_dt(*args)
        finally:
            guarding[0] = False

    def step(state, *args):
        steps.append(state.t)
        return stepping.imex_step(state, *args)
    for module in (stepping, operators):
        monkeypatch.setattr(module, "drift_velocities", counted)
    monkeypatch.setattr(stepping, "haptotaxis_divergence",
                        lambda u, velocities: transported.append(velocities))
    monkeypatch.setattr(harness, "stable_dt", guard)
    monkeypatch.setattr(harness, "imex_step", step)
    res = run(quick_scenario(cells=(8, 6), formulation=WEIGHTED, t_end=0.5,
                             dt_max=0.05, record_every=0.1))
    assert len(res.recorded_states) == 6
    assert len(steps) >= 10
    assert len(computed) == len(steps) and all(computed)
    assert not transported


def test_run_validates_regime_hypotheses_up_front():
    # the scenario checks them as it is built, so no run starts without them
    with pytest.raises(ValidationError, match="mu must be positive"):
        run(quick_scenario(regime="theorem_bound3", mu=0.0))


# ---------------------------------------------------------------------------
# verification


def flat_state(grid, t, u, v, m):
    return SimState(t, ScalarField.full(grid, u), ScalarField.full(grid, v),
                    ScalarField.full(grid, m), PRIMITIVE)


def synthetic_result(sc, states, series):
    """A fabricated run: ``series`` plus every series it leaves out, sampled
    from ``states`` by the run's own sampler so that the two agree."""
    t = np.array([s.t for s in states])
    rows = [harness._series_samples(s, sc.params, 1.0, 0.0) for s in states]
    full = {name: series[name] if name in series
            else TimeSeries(name, t, [row[name] for row in rows])
            for name in SERIES_NAMES}
    return RunResult(sc, states, full, 0.0, 1.0)


def synthetic_bound3_result(t_end=32.0, n=321):
    """Fabricated run whose series are exact exponentials."""
    sc = preset_scenario("theorem_bound3")
    sc = replace(sc, grid=build_grid(8, 1.0))
    grid = sc.grid
    t = np.linspace(0.0, t_end, n)
    states = [flat_state(grid, tk, 1.0, 0.8 * math.exp(-tk),
                         1.0 - 0.9 * math.exp(-tk)) for tk in t]
    mk = lambda name, vals: TimeSeries(name, t, vals)
    series = {
        "cell_dev_l2": mk("cell_dev_l2", 0.1 * np.exp(-0.9 * t)),
        "cell_dev_sup": mk("cell_dev_sup", 0.1 * np.exp(-0.9 * t)),
        "matrix_sup": mk("matrix_sup", 0.8 * np.exp(-t)),
        "grad_sqrt_matrix_l2": mk("grad_sqrt_matrix_l2", 0.5 * np.exp(-0.5 * t)),
        "protease_dev_l2": mk("protease_dev_l2", 0.9 * np.exp(-t)),
        "protease_l2": mk("protease_l2", 1.0 - 0.9 * np.exp(-t) + 1e-6),
        "cell_min": mk("cell_min", np.ones_like(t)),
        "protease_min": mk("protease_min", 1.0 - 0.9 * np.exp(-t)),
        "cell_mass": mk("cell_mass", np.ones_like(t)),
    }
    return synthetic_result(sc, states, series)


def test_verify_synthetic_exponentials_pass_all_rate_claims():
    report = verify(synthetic_bound3_result())
    assert report.regime == "theorem_bound3"
    for cid in ("matrix_sup_fit_quality", "cell_dev_fit_quality",
                "protease_dev_fit_quality"):
        claim = report.claim(cid)
        assert claim.verdict == "pass"
        assert claim.measured == pytest.approx(1.0, abs=1e-10)
    assert report.claim("matrix_sup_decay_rate").verdict == "pass"
    assert report.claim("matrix_sup_decay_rate").measured == pytest.approx(1.0, rel=1e-8)
    for cid in ("cell_dev_decay_rate", "protease_dev_decay_rate",
                "grad_sqrt_matrix_decay_rate"):
        assert report.claim(cid).verdict == "pass"
    assert report.all_pass


def test_verify_bound3_flags_wrong_matrix_rate():
    res = synthetic_bound3_result()
    # rebuild the sup series decaying at half the predicted rate
    t = res.series["matrix_sup"].t
    series = dict(res.series)
    series["matrix_sup"] = TimeSeries("matrix_sup", t, 0.8 * np.exp(-0.5 * t))
    report = verify(replace(res, series=series))
    claim = report.claim("matrix_sup_decay_rate")
    assert claim.verdict == "fail"
    assert claim.measured == pytest.approx(0.5, rel=1e-6)
    assert not report.all_pass


def test_verify_includes_bound_claims_for_every_regime():
    res = run(quick_scenario(regime="byrne_baseline",
                             chi=FunctionSpec.constant(0.5),
                             g=FunctionSpec.affine(0.0, 1.0)))
    report = verify(res)
    ids = {c.claim_id for c in report.claims}
    assert {"bound_cell_mass_l1", "bound_matrix_sup", "bound_positivity",
            "bound_cell_lower_bound"} <= ids
    # no fit claims outside the theorem regimes
    assert not any("fit" in c for c in ids)


@pytest.mark.parametrize("regime, mu, g", [
    ("custom", 1.0, FunctionSpec.affine(1.0, 1.0)),
    ("theorem_bound3", 1.0, FunctionSpec.affine(1.0, 1.0)),
    ("mu_zero_conservation", 0.0, FunctionSpec.affine(0.0, 1.0)),
])
def test_verify_reads_only_the_first_and_last_records(regime, mu, g):
    res = run(quick_scenario(regime=regime, mu=mu, g=g, t_end=1.0,
                             formulation=WEIGHTED))
    assert len(res.recorded_states) == 11
    ends = replace(res, recorded_states=[res.initial_state, res.final_state])
    assert verify(ends) == verify(res)


def test_verify_mu_zero_claims():
    sc = quick_scenario(regime="mu_zero_conservation", mu=0.0,
                        g=FunctionSpec.affine(0.0, 1.0), t_end=1.0)
    report = verify(run(sc))
    assert report.claim("cell_mass_drift").verdict == "pass"
    assert report.claim("cell_mean_matches_initial").verdict == "pass"
    assert report.all_pass


def test_verify_bound5_envelope_catches_regrowth():
    sc = preset_scenario("theorem_bound5")
    sc = replace(sc, grid=build_grid(8, 1.0))
    grid = sc.grid
    t = np.linspace(0.0, 100.0, 101)
    vals = np.exp(-t)
    vals[60:] = 2e-4  # floor above the decayed trend: an uptick at index 60
    vals[0] = 0.1
    states = [flat_state(grid, tk, 1.0, math.exp(-tk), v) for tk, v in zip(t, vals)]
    series = {name: TimeSeries(name, t, vals) for name in (
        "cell_dev_l2", "cell_dev_sup", "matrix_sup", "grad_sqrt_matrix_l2",
        "protease_dev_l2", "protease_l2", "cell_min", "protease_min")}
    series["cell_mass"] = TimeSeries("cell_mass", t, np.ones_like(t))
    report = verify(synthetic_result(sc, states, series))
    assert report.claim("protease_l2_envelope").verdict == "fail"


def test_verify_bound5_threshold_claims_on_clean_decay():
    sc = preset_scenario("theorem_bound5")
    sc = replace(sc, grid=build_grid(8, 1.0))
    grid = sc.grid
    t = np.linspace(0.0, 100.0, 101)
    m = 0.5 * np.exp(-0.2 * t)
    dev = 0.1 * np.exp(-0.2 * t)
    states = [flat_state(grid, tk, 1.0, 0.5 * math.exp(-tk), mv)
              for tk, mv in zip(t, m)]
    series = {}
    for name in ("cell_dev_l2", "cell_dev_sup"):
        series[name] = TimeSeries(name, t, dev)
    for name in ("matrix_sup", "grad_sqrt_matrix_l2"):
        series[name] = TimeSeries(name, t, 0.5 * np.exp(-t) + 1e-12)
    for name in ("protease_dev_l2", "protease_l2", "protease_min"):
        series[name] = TimeSeries(name, t, m)
    series["cell_min"] = TimeSeries("cell_min", t, np.ones_like(t))
    series["cell_mass"] = TimeSeries("cell_mass", t, np.ones_like(t))
    report = verify(synthetic_result(sc, states, series))
    # final/peak = e^{-20} for m, far under 1e-3; dev ratio likewise under 1e-2
    assert report.claim("protease_l2_final_over_peak").verdict == "pass"
    assert report.claim("cell_dev_final_over_initial").verdict == "pass"
    assert report.claim("protease_l2_envelope").verdict == "pass"


def test_verify_fit_claims_not_applicable_with_sparse_sampling():
    res = synthetic_bound3_result(t_end=32.0, n=6)
    report = verify(res)
    assert report.claim("matrix_sup_fit_quality").verdict == "not_applicable"
    assert math.isnan(report.claim("matrix_sup_fit_quality").measured)
    # not_applicable does not count as failure
    assert report.all_pass


def test_report_claim_lookup_raises_on_unknown_id():
    report = verify(synthetic_bound3_result())
    with pytest.raises(KeyError):
        report.claim("bound_perpetual_motion")


def test_bound3_report_holds_the_protease_floor_once():
    ids = [c.claim_id for c in verify(synthetic_bound3_result()).claims]
    assert ids.count("protease_floor_positive") == 1
    assert "bound_protease_lower_bound" not in ids


BOUND_IDS = ("bound_cell_mass_l1", "bound_matrix_sup", "bound_protease_mass_l1",
             "bound_weighted_mass_l1", "bound_positivity", "bound_cell_lower_bound")


@pytest.mark.parametrize("regime, mu, g, regime_ids", [
    ("theorem_bound3", 1.0, FunctionSpec.affine(1.0, 1.0), (
        "protease_floor_positive",
        "matrix_sup_fit_quality", "matrix_sup_decay_rate",
        "cell_dev_fit_quality", "cell_dev_decay_rate",
        "protease_dev_fit_quality", "protease_dev_decay_rate",
        "grad_sqrt_matrix_decay_rate",
        "final_steady_residual", "final_state_homogeneous")),
    ("theorem_bound5", 1.0, FunctionSpec.affine(0.0, 1.0), (
        "protease_l2_final_over_peak", "cell_dev_final_over_initial",
        "protease_l2_envelope")),
    ("mu_zero_conservation", 0.0, FunctionSpec.affine(0.0, 1.0), (
        "cell_mass_drift", "cell_mean_matches_initial")),
    ("byrne_baseline", 1.0, FunctionSpec.affine(0.0, 1.0), ()),
    ("custom", 1.0, FunctionSpec.affine(1.0, 1.0), ("protease_floor_positive",)),
])
def test_report_claim_ids_in_order(regime, mu, g, regime_ids):
    # the claim order is the line order of report.txt
    report = verify(run(quick_scenario(regime=regime, mu=mu, g=g)))
    assert tuple(c.claim_id for c in report.claims) == BOUND_IDS + regime_ids


@pytest.mark.parametrize("make", [
    synthetic_bound3_result,
    lambda: run(quick_scenario(regime="theorem_bound3"))],
    ids=["homogeneous", "not-steady"])
def test_bound3_verify_evaluates_the_steady_residual_once(make, monkeypatch):
    result = make()
    expected = analysis.steady_residual(result.final_state, result.scenario.params)
    calls = []

    def spy(*args):
        calls.append(args)
        return expected

    # caught whichever module makes the call
    real = analysis.steady_residual
    for module in (analysis, harness):
        if module.__dict__.get("steady_residual") is real:
            monkeypatch.setattr(module, "steady_residual", spy)
    report = verify(result)
    assert len(calls) == 1
    assert report.claim("final_steady_residual").measured == expected


def test_claims_appear_exactly_once():
    report = verify(synthetic_bound3_result())
    ids = [c.claim_id for c in report.claims]
    assert len(ids) == len(set(ids))


# ---------------------------------------------------------------------------
# convergence studies


def diffusion_scenario():
    return Scenario(
        name="diffusion", regime="custom",
        params=ModelParams(1.0, 1.0, 0.0, FunctionSpec.constant(0.0),
                           FunctionSpec.constant(0.0)),
        grid=build_grid(16, 1.0),
        stepper=StepperConfig(0.02, 4e-4, 0.02),
        initial_cells=InitialSpec.bump(0.5, 0.12, 1.0, 0.5),
        initial_matrix=InitialSpec.constant(0.0),
        initial_protease=InitialSpec.constant(0.0))


def test_convergence_needs_three_levels():
    with pytest.raises(ValidationError, match="levels"):
        convergence_study(diffusion_scenario(), levels=2)


def test_convergence_rejects_jittered_data():
    sc = replace(diffusion_scenario(), jitter=0.01)
    with pytest.raises(ValidationError, match="smooth"):
        convergence_study(sc, levels=3)


def test_convergence_pure_diffusion_is_second_order():
    study = convergence_study(diffusion_scenario(), levels=3)
    assert len(study.rows) == 2
    assert math.isnan(study.rows[0].observed_order)
    assert study.rows[1].observed_order >= 1.9
    assert study.rows[1].error < study.rows[0].error
    assert study.reference_cells == (64,)


def test_convergence_halves_h_and_quarters_dt():
    study = convergence_study(diffusion_scenario(), levels=3)
    assert study.rows[0].h == pytest.approx(2 * study.rows[1].h)
    assert study.rows[0].dt_max == pytest.approx(4 * study.rows[1].dt_max)


def test_convergence_validates_every_level_before_running_any(monkeypatch):
    # level 2 quarters dt_max twice: 10 / (1.5e-5 / 16) is 1.067e7 steps,
    # over the budget, while levels 0 and 1 would have run 6.7e5 and 2.7e6
    def no_run(scenario):
        raise AssertionError(f"ran {scenario.grid.cells} before validating all levels")
    monkeypatch.setattr(harness, "run", no_run)
    sc = replace(preset_scenario("byrne_baseline"),
                 stepper=StepperConfig(10.0, 1.5e-5, 10.0))
    with pytest.raises(ValidationError,
                       match=re.escape("t_end / dt_max needs 1.067e+07 steps")):
        convergence_study(sc, levels=3)


def test_convergence_is_deterministic():
    a = convergence_study(diffusion_scenario(), levels=3)
    b = convergence_study(diffusion_scenario(), levels=3)
    assert [r.error for r in a.rows] == [r.error for r in b.rows]
