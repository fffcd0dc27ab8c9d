import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haptosim import (
    FunctionSpec,
    ModelParams,
    ScalarField,
    SimState,
    ValidationError,
    build_grid,
    initial_state,
)
from haptosim.analysis import (
    AmbiguousSteadyStateError,
    Claim,
    InsufficientDataError,
    NotSteadyError,
    ScheduleMismatchError,
    TheoremReport,
    TimeSeries,
    bounds_report,
    decay_fit,
    equivalence_gap,
    fit_claims,
    gradv_identity_gap,
    judge,
    norm,
    sigma_estimate,
    steady_classify,
    steady_residual,
)
from haptosim.harness import SERIES_NAMES, _series_samples
from haptosim.stepping import from_weighted_form, to_weighted_form


def unit_grid(n=16):
    return build_grid(n, 1.0)


def params_with(mu=1.0, gamma=1.0, d=1.0, chi=None, g=None):
    return ModelParams(
        protease_diffusion=d,
        protease_decay=gamma,
        growth_rate=mu,
        taxis=chi if chi is not None else FunctionSpec.constant(0.5),
        production=g if g is not None else FunctionSpec.affine(1.0, 1.0),
    )


def state_of(grid, u, v, m, t=0.0, **kw):
    return SimState(t, ScalarField.full(grid, u) if np.isscalar(u) else ScalarField(grid, u),
                    ScalarField.full(grid, v) if np.isscalar(v) else ScalarField(grid, v),
                    ScalarField.full(grid, m) if np.isscalar(m) else ScalarField(grid, m),
                    **kw)


# ---------------------------------------------------------------------------
# norms


def test_norm_constant_l1():
    f = ScalarField.full(unit_grid(), -3.0)
    assert norm(f, 1) == pytest.approx(3.0, abs=1e-15)


def test_norm_constant_sup():
    f = ScalarField.full(unit_grid(), -3.0)
    assert norm(f, math.inf) == 3.0


def test_norm_volume_weighting():
    grid = build_grid(10, 2.0)
    assert norm(ScalarField.full(grid, 1.0), 1) == pytest.approx(2.0, abs=1e-15)


def test_norm_l2_matches_extended_precision_oracle():
    rng = np.random.default_rng(7)
    grid = build_grid(257, 1.0)
    vals = rng.standard_normal(257)
    oracle = math.sqrt(math.fsum(float(x) * float(x) for x in vals) * grid.cell_volume)
    assert norm(ScalarField(grid, vals), 2) == pytest.approx(oracle, rel=1e-13)


def test_norm_general_p():
    grid = build_grid(4, 1.0)
    f = ScalarField(grid, np.array([1.0, -2.0, 3.0, 0.5]))
    expect = (np.sum(np.abs(f.values) ** 3) * 0.25) ** (1 / 3)
    assert norm(f, 3) == pytest.approx(expect, rel=1e-14)


def test_norm_rejects_p_below_one():
    f = ScalarField.full(unit_grid(), 1.0)
    with pytest.raises(ValidationError):
        norm(f, 0.5)


@given(st.floats(-50, 50), st.sampled_from([1.0, 2.0, 3.5, math.inf]))
@settings(max_examples=40, deadline=None)
def test_norm_absolute_homogeneity(alpha, p):
    rng = np.random.default_rng(3)
    grid = build_grid(32, 1.0)
    vals = rng.standard_normal(32)
    f = ScalarField(grid, vals)
    scaled = ScalarField(grid, alpha * vals)
    assert norm(scaled, p) == pytest.approx(abs(alpha) * norm(f, p), rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# time series and decay fits


def test_timeseries_rejects_unordered_times():
    with pytest.raises(ValidationError):
        TimeSeries("x", np.array([0.0, 1.0, 1.0]), np.zeros(3))


def test_timeseries_rejects_nonfinite_values():
    with pytest.raises(ValidationError):
        TimeSeries("x", np.array([0.0, 1.0]), np.array([1.0, math.nan]))


def test_decay_fit_exact_exponential():
    t = np.linspace(0.0, 3.1, 32)
    fit = decay_fit(TimeSeries("v", t, 5.0 * np.exp(-2.0 * t)))
    assert fit.rate == pytest.approx(2.0, abs=1e-10)
    assert fit.amplitude == pytest.approx(5.0, rel=1e-9)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_decay_fit_constant_series_convention():
    t = np.linspace(0.0, 5.0, 20)
    fit = decay_fit(TimeSeries("c", t, np.full(20, 3.0)))
    assert fit.rate == pytest.approx(0.0, abs=1e-14)
    assert fit.r_squared == 1.0


def test_decay_fit_uses_tail_only():
    # constant plateau then clean decay; the half-series window must
    # land entirely inside the decaying part
    t_flat = np.linspace(0.0, 9.5, 20)
    t_dec = np.linspace(10.0, 29.0, 20)
    vals = np.concatenate([np.full(20, 10.0), 10.0 * np.exp(-(t_dec - 10.0))])
    fit = decay_fit(TimeSeries("piecewise", np.concatenate([t_flat, t_dec]), vals))
    assert fit.n_samples == 20
    assert fit.window[0] == pytest.approx(10.0)
    assert fit.rate == pytest.approx(1.0, abs=1e-10)


def test_decay_fit_ignores_samples_below_floor():
    t = np.linspace(0.0, 40.0, 81)
    vals = np.exp(-t)  # drops below 1e-14 past t ~ 32.2
    fit = decay_fit(TimeSeries("v", t, vals))
    assert fit.window[1] <= 32.5
    assert fit.rate == pytest.approx(1.0, abs=1e-9)


def test_decay_fit_matches_normal_equations_oracle():
    rng = np.random.default_rng(11)
    t = np.linspace(0.0, 2.0, 16)
    vals = np.exp(-t) * (1.0 + 0.01 * rng.standard_normal(16))
    fit = decay_fit(TimeSeries("noisy", t, vals), tail_fraction=0.999)
    # closed-form simple-regression slope on all 16 points
    y = np.log(vals)
    sxx = np.sum((t - t.mean()) ** 2)
    sxy = np.sum((t - t.mean()) * (y - y.mean()))
    assert fit.n_samples == 16
    assert fit.rate == pytest.approx(-sxy / sxx, abs=1e-12)
    assert fit.rate == pytest.approx(1.0, abs=0.05)
    assert fit.r_squared < 1.0


def test_decay_fit_insufficient_data():
    t = np.linspace(0.0, 1.0, 14)  # half-window of 7 < 8
    with pytest.raises(InsufficientDataError):
        decay_fit(TimeSeries("short", t, np.exp(-t)))


def test_decay_fit_tail_fraction_domain():
    t = np.linspace(0.0, 1.0, 20)
    series = TimeSeries("v", t, np.exp(-t))
    for bad in (0.0, 1.0, 1.5, -0.2):
        with pytest.raises(ValidationError):
            decay_fit(series, tail_fraction=bad)


@given(st.floats(0.1, 5.0), st.floats(0.1, 10.0))
@settings(max_examples=30, deadline=None)
def test_decay_fit_recovers_synthetic_rates(rate, amplitude):
    t = np.linspace(0.0, 4.0, 24)
    fit = decay_fit(TimeSeries("syn", t, amplitude * np.exp(-rate * t)))
    assert fit.rate == pytest.approx(rate, rel=1e-8)
    assert fit.amplitude == pytest.approx(amplitude, rel=1e-7)


# ---------------------------------------------------------------------------
# sigma estimate


def sampled(states, params):
    """The monitor series of ``states``, each measured by the run's own sampler."""
    rows = [_series_samples(s, params, 1.0, 0.0) for s in states]
    t = [s.t for s in states]
    return {name: TimeSeries(name, t, [row[name] for row in rows])
            for name in SERIES_NAMES}


def test_sigma_estimate_minimum_after_t0():
    grid = unit_grid(8)
    hist = [state_of(grid, 1.0, 0.5, m, t=t)
            for t, m in [(0.0, 0.5), (1.0, 0.3), (2.0, 0.4)]]
    series = sampled(hist, params_with())
    assert sigma_estimate(series, 0.5) == pytest.approx(0.3)
    assert sigma_estimate(series, 1.5) == pytest.approx(0.4)
    assert sigma_estimate(series, 0.0) == pytest.approx(0.3)


def test_sigma_estimate_no_samples():
    grid = unit_grid(8)
    hist = [state_of(grid, 1.0, 0.5, 0.5, t=0.0)]
    with pytest.raises(InsufficientDataError):
        sigma_estimate(sampled(hist, params_with()), 3.0)


# ---------------------------------------------------------------------------
# claims


@pytest.mark.parametrize("measured, verdict", [(0.5, "pass"), (1.0, "pass"),
                                               (1.5, "fail"), (math.nan, "fail")])
def test_judge_defaults_to_at_most(measured, verdict):
    claim = judge("cap", 1.0, measured)
    assert (claim.claim_id, claim.verdict, claim.threshold, claim.fitted) == (
        "cap", verdict, 1.0, None)


def test_claim_holds_only_what_a_report_line_prints():
    assert [f.name for f in dataclasses.fields(Claim)] == [
        "claim_id", "verdict", "threshold", "measured", "fitted"]


def test_fit_claims_on_an_exact_exponential():
    t = np.linspace(0.0, 10.0, 41)
    series = TimeSeries("x_l2", t, 2.0 * np.exp(-0.5 * t))
    quality, rate = fit_claims("x", series, 0.95)
    assert (quality.claim_id, quality.verdict, quality.threshold) == (
        "x_fit_quality", "pass", 0.95)
    assert quality.measured == pytest.approx(1.0)
    assert (rate.claim_id, rate.verdict, rate.threshold) == ("x_decay_rate", "pass", 0.0)
    assert rate.measured == pytest.approx(0.5)
    assert quality.fitted is rate.fitted is not None
    # a rate test against a predicted rate, and no quality claim
    (off,) = fit_claims("x", series, None, 1.0, lambda r, p: abs(r - p) <= 0.15 * p)
    assert (off.claim_id, off.verdict, off.threshold) == ("x_decay_rate", "fail", 1.0)


def test_fit_claims_not_applicable_without_a_fit():
    t = np.linspace(0.0, 1.0, 10)
    series = TimeSeries("x_l2", t, np.exp(-t))  # a tail of 5 samples: too few
    claims = fit_claims("x", series, 0.98, 2.0)
    assert [(c.claim_id, c.verdict, c.threshold, c.fitted) for c in claims] == [
        ("x_fit_quality", "not_applicable", 0.98, None),
        ("x_decay_rate", "not_applicable", 2.0, None)]
    assert all(math.isnan(c.measured) for c in claims)


# ---------------------------------------------------------------------------
# bounds report


def bounds(states, params):
    """The bound claims on ``states``, as a report to look them up in."""
    claims = bounds_report(sampled(states, params), params, states[0].grid)
    # every bound is a bound_<name> claim, and the protease floor one more
    assert all(c.claim_id.startswith("bound_") for c in claims
               if c.claim_id != "protease_floor_positive")
    return TheoremReport("custom", tuple(claims))


def test_bounds_all_zero_data_trivially_satisfied():
    grid = unit_grid()
    hist = [state_of(grid, 0.0, 0.0, 0.0, t=float(t)) for t in range(3)]
    report = bounds(hist, params_with(g=FunctionSpec.affine(0.0, 1.0)))
    assert report.all_pass
    # under a production floor, zero protease is no floor: that claim alone fails
    report = bounds(hist, params_with())
    assert [c.claim_id for c in report.claims if c.verdict == "fail"] == [
        "protease_floor_positive"]


def test_bounds_mass_threshold_uses_domain_volume():
    grid = unit_grid()
    hist = [state_of(grid, 0.5, 0.5, 0.1)]
    report = bounds(hist, params_with())
    assert report.claim("bound_cell_mass_l1").threshold == pytest.approx(1.0)
    assert report.claim("bound_cell_mass_l1").measured == pytest.approx(0.5)


def test_bounds_mass_threshold_uses_initial_mass_when_larger():
    grid = unit_grid()
    hist = [state_of(grid, 2.5, 0.5, 0.1)]
    report = bounds(hist, params_with())
    assert report.claim("bound_cell_mass_l1").threshold == pytest.approx(2.5)


def test_bounds_injected_negative_cell_fails_positivity():
    grid = unit_grid(8)
    u = np.full(8, 1.0)
    u[3] = -1e-6
    hist = [state_of(grid, 1.0, 0.5, 0.1, t=0.0),
            state_of(grid, u, 0.5, 0.1, t=1.0)]
    report = bounds(hist, params_with())
    assert report.claim("bound_positivity").verdict == "fail"
    assert not report.all_pass


def test_bounds_injected_negative_matrix_fails_positivity():
    grid = unit_grid(8)
    v = np.full(8, 0.5)
    v[2] = -1e-6
    hist = [state_of(grid, 1.0, 0.5, 0.1, t=0.0),
            state_of(grid, 1.0, v, 0.1, t=1.0)]
    claim = bounds(hist, params_with()).claim("bound_positivity")
    assert claim.measured == pytest.approx(1e-6)
    assert claim.verdict == "fail"


def test_bounds_matrix_sup_growth_detected():
    grid = unit_grid(8)
    hist = [state_of(grid, 1.0, 0.5, 0.1, t=0.0),
            state_of(grid, 1.0, 0.6, 0.1, t=1.0)]
    claim = bounds(hist, params_with()).claim("bound_matrix_sup")
    assert claim.threshold == pytest.approx(0.5)
    assert claim.measured == pytest.approx(0.6)
    assert claim.verdict == "fail"
    assert claim.threshold - claim.measured == pytest.approx(-0.1)


def test_bounds_protease_envelope():
    # gamma=2, g(v)=v: excess over the decaying initial mass must stay
    # below (L_g*sup_v0)*max(|domain|, mass_u0)/gamma = 0.5*1/2 = 0.25
    grid = unit_grid(8)
    p = params_with(gamma=2.0, g=FunctionSpec.affine(0.0, 1.0))
    initial = state_of(grid, 1.0, 0.5, 1.0, t=0.0)
    ok = [initial, state_of(grid, 1.0, 0.5, math.exp(-2.0) + 0.2, t=1.0)]
    bad = [initial, state_of(grid, 1.0, 0.5, math.exp(-2.0) + 0.3, t=1.0)]
    claim_ok = bounds(ok, p).claim("bound_protease_mass_l1")
    claim_bad = bounds(bad, p).claim("bound_protease_mass_l1")
    assert claim_ok.threshold == pytest.approx(0.25)
    assert claim_ok.measured == pytest.approx(0.2, abs=1e-12)
    assert claim_ok.verdict == "pass"
    assert claim_bad.verdict == "fail"


def test_bounds_cell_lower_barrier():
    grid = unit_grid(8)
    v0 = np.full(8, 0.5)
    v0[4] = 0.8
    initial = state_of(grid, 1.0, v0, 0.1, t=0.0)
    barrier = math.exp(-0.5 * 0.8)  # constant taxis 0.5 integrated to sup v0
    ok = [initial, state_of(grid, 0.9, v0, 0.1, t=1.0)]
    bad = [initial, state_of(grid, 0.5, v0, 0.1, t=1.0)]
    claim_ok = bounds(ok, params_with()).claim("bound_cell_lower_bound")
    claim_bad = bounds(bad, params_with()).claim("bound_cell_lower_bound")
    assert claim_ok.threshold == pytest.approx(-barrier)
    assert claim_ok.verdict == "pass"
    assert claim_bad.verdict == "fail"


@pytest.mark.parametrize("gap, verdict", [(1e-15, "pass"), (1e-7, "fail")])
def test_bounds_slack_loosens_a_negative_bound(gap, verdict):
    # flat v0 = 0 puts the barrier at min(1, u0) = 0.5 and the bound at
    # -0.5; a record 1e-15 under the barrier is roundoff and must pass,
    # while one 1e-7 under it is past the slack of 1e-8 * 0.5
    grid = unit_grid(8)
    hist = [state_of(grid, 0.5, 0.0, 0.0, t=0.0),
            state_of(grid, 0.5 - gap, 0.0, 0.0, t=1.0)]
    claim = bounds(hist, params_with()).claim("bound_cell_lower_bound")
    assert claim.threshold == -0.5
    assert claim.measured == -(0.5 - gap)
    assert claim.verdict == verdict


def test_bounds_protease_floor_record_only_with_positive_floor():
    grid = unit_grid(8)
    hist = [state_of(grid, 1.0, 0.5, 0.1)]
    no_floor = bounds(hist, params_with(g=FunctionSpec.affine(0.0, 1.0)))
    with pytest.raises(KeyError):
        no_floor.claim("protease_floor_positive")
    with_floor = bounds(hist, params_with(g=FunctionSpec.affine(1.0, 1.0)))
    ids = [c.claim_id for c in with_floor.claims]
    assert ids.count("protease_floor_positive") == 1
    assert "bound_protease_lower_bound" not in ids
    claim = with_floor.claim("protease_floor_positive")
    assert (claim.verdict, claim.threshold, claim.measured) == ("pass", 0.0, 0.1)


def test_bounds_protease_floor_ignores_transient():
    # a zero protease cell in the first quarter of the window is fine;
    # the barrier is checked from t >= 0.25*t_end only
    grid = unit_grid(8)
    m0 = np.full(8, 0.1)
    m0[0] = 0.0
    hist = [state_of(grid, 1.0, 0.5, m0, t=0.0),
            state_of(grid, 1.0, 0.4, 0.2, t=10.0)]
    claim = bounds(hist, params_with()).claim("protease_floor_positive")
    assert claim.measured == pytest.approx(0.2)
    assert claim.verdict == "pass"


@pytest.mark.parametrize("late_min, verdict", [(0.0, "fail"), (-0.0, "fail"),
                                               (5e-324, "pass")])
def test_protease_floor_claim_is_strict(late_min, verdict):
    # the floor must be bounded away from zero, so a late minimum of exactly
    # zero fails, and the smallest positive double passes
    grid = unit_grid(8)
    m1 = np.full(8, 0.2)
    m1[3] = late_min
    hist = [state_of(grid, 1.0, 0.5, 0.1, t=0.0),
            state_of(grid, 1.0, 0.4, m1, t=10.0)]
    claim = bounds(hist, params_with()).claim("protease_floor_positive")
    assert claim.measured == late_min
    assert claim.verdict == verdict


def test_bounds_accept_weighted_history():
    grid = unit_grid(8)
    p = params_with(chi=FunctionSpec.constant(1.0))
    prim = state_of(grid, 2.0, 1.0, 0.1)
    wgt = to_weighted_form(prim, p)
    report = bounds([wgt], p)
    assert report.claim("bound_cell_mass_l1").measured == pytest.approx(2.0, rel=1e-12)
    assert report.claim("bound_weighted_mass_l1").measured == pytest.approx(
        2.0 * math.exp(-1.0), rel=1e-12)


def test_bounds_require_ordered_history():
    grid = unit_grid(8)
    hist = [state_of(grid, 1.0, 0.5, 0.1, t=1.0),
            state_of(grid, 1.0, 0.5, 0.1, t=0.5)]
    with pytest.raises(ValidationError):
        bounds(hist, params_with())


def test_bounds_require_a_sample():
    empty = {name: TimeSeries(name, [], []) for name in SERIES_NAMES}
    with pytest.raises(ValidationError, match="at least one sample"):
        bounds_report(empty, params_with(), unit_grid(8))


# ---------------------------------------------------------------------------
# steady states


def test_steady_residual_homogeneous_family():
    grid = unit_grid(32)
    p = params_with()  # mu=1, gamma=1, g=affine(1,1) so g(0)=1
    st8 = state_of(grid, 1.0, 0.0, 1.0)
    assert steady_residual(st8, p) <= 1e-12


def test_steady_residual_extinct_family():
    grid = unit_grid(32)
    x = grid.axis_centers(0)
    v = 0.3 + 0.2 * np.exp(-((x - 0.5) ** 2) / 0.02)
    st8 = state_of(grid, 0.0, v, 0.0)
    assert steady_residual(st8, params_with()) <= 1e-12


def test_steady_residual_perturbation_detected():
    grid = unit_grid(32)
    u = np.full(32, 1.0)
    u[16] = 1.1
    st8 = state_of(grid, u, 0.0, 1.0)
    assert steady_residual(st8, params_with()) > 1e-2


def test_steady_residual_requires_primitive_form():
    grid = unit_grid(8)
    p = params_with()
    wgt = to_weighted_form(state_of(grid, 1.0, 0.0, 1.0), p)
    with pytest.raises(ValidationError):
        steady_residual(wgt, p)


def test_classify_extinct():
    grid = unit_grid(32)
    x = grid.axis_centers(0)
    v = 0.3 + 0.2 * np.exp(-((x - 0.5) ** 2) / 0.02)
    result = steady_classify(state_of(grid, 0.0, v, 0.0), params_with())
    assert result.kind == "extinct_cells"
    assert np.array_equal(result.v_profile.values, v)


def test_classify_homogeneous_with_growth():
    result = steady_classify(state_of(unit_grid(), 1.0, 0.0, 1.0), params_with())
    assert result.kind == "homogeneous"
    assert result.k == 1.0


def test_classify_homogeneous_snaps_k():
    k = 1.0 + 1e-8
    result = steady_classify(state_of(unit_grid(), k, 0.0, k), params_with())
    assert result.k == 1.0


def test_classify_homogeneous_without_growth_keeps_level():
    result = steady_classify(state_of(unit_grid(), 0.7, 0.0, 0.7), params_with(mu=0.0))
    assert result.kind == "homogeneous"
    assert result.k == pytest.approx(0.7)


def test_classify_rejects_transient_state():
    with pytest.raises(NotSteadyError):
        steady_classify(state_of(unit_grid(), 0.5, 0.5, 0.5), params_with())


def test_classify_ambiguous_frozen_state():
    # all dynamics switched off: steady, but neither extinct nor flat-matrix
    p = params_with(mu=0.0, chi=FunctionSpec.constant(0.0),
                    g=FunctionSpec.affine(0.0, 0.0))
    with pytest.raises(AmbiguousSteadyStateError):
        steady_classify(state_of(unit_grid(), 0.7, 0.3, 0.0), p, tol=1e-6)


def test_classify_ambiguous_intermediate_level_with_growth():
    # residual fits under a loose tolerance but k=0.5 snaps to neither 0 nor 1
    with pytest.raises(AmbiguousSteadyStateError):
        steady_classify(state_of(unit_grid(), 0.5, 0.0, 0.5), params_with(), tol=0.3)


@pytest.mark.parametrize("u, v, m, tol, error", [
    (0.5, 0.5, 0.5, 1e-6, NotSteadyError),
    (0.5, 0.0, 0.5, 0.3, AmbiguousSteadyStateError)],
    ids=["not-steady", "ambiguous"])
def test_classify_errors_carry_the_residual(u, v, m, tol, error):
    state, params = state_of(unit_grid(), u, v, m), params_with()
    with pytest.raises(error) as info:
        steady_classify(state, params, tol=tol)
    assert info.value.residual == steady_residual(state, params)


# ---------------------------------------------------------------------------
# matrix-gradient reconstruction identity


def test_gradv_identity_zero_at_start():
    grid = unit_grid(32)
    x = grid.axis_centers(0)
    v0 = 0.5 + 0.3 * np.exp(-((x - 0.5) ** 2) / 0.02)
    st8 = initial_state(ScalarField.full(grid, 1.0), ScalarField(grid, v0),
                        ScalarField.full(grid, 0.1))
    assert gradv_identity_gap(st8, st8) == 0.0


def test_gradv_identity_constant_damping_is_exact():
    # spatially constant accumulated protease factors out of both sides
    grid = unit_grid(64)
    x = grid.axis_centers(0)
    v0 = 0.5 + 0.3 * np.exp(-((x - 0.5) ** 2) / 0.02)
    start = initial_state(ScalarField.full(grid, 1.0), ScalarField(grid, v0),
                          ScalarField.full(grid, 0.7))
    sigma_t = 1.4
    later = SimState(
        2.0, start.cells, ScalarField(grid, v0 * math.exp(-sigma_t)),
        start.protease,
        int_protease=ScalarField.full(grid, sigma_t))
    assert gradv_identity_gap(later, start) <= 1e-14


def _consistent_state(n):
    # fabricate a state whose matrix field is exactly v0*exp(-I) with a
    # smooth accumulated integral I; only face interpolation error remains
    grid = build_grid(n, 1.0)
    x = grid.axis_centers(0)
    v0 = 1.0 + 0.5 * np.cos(2 * math.pi * x)
    integral = 0.8 * np.cos(math.pi * x) + 1.0
    i_field = ScalarField(grid, integral)
    start = initial_state(ScalarField.full(grid, 1.0), ScalarField(grid, v0),
                          ScalarField.full(grid, 0.1))
    later = SimState(
        1.0, start.cells, ScalarField(grid, v0 * np.exp(-integral)), start.protease,
        int_protease=i_field)
    return gradv_identity_gap(later, start)


def test_gradv_identity_interpolation_error_second_order():
    gap_coarse = _consistent_state(64)
    gap_fine = _consistent_state(128)
    assert gap_coarse < 2e-3
    assert gap_coarse / gap_fine > 3.5


def test_gradv_identity_requires_matching_grid():
    a = initial_state(ScalarField.full(unit_grid(8), 1.0),
                      ScalarField.full(unit_grid(8), 0.5),
                      ScalarField.full(unit_grid(8), 0.1))
    b = initial_state(ScalarField.full(unit_grid(16), 1.0),
                      ScalarField.full(unit_grid(16), 0.5),
                      ScalarField.full(unit_grid(16), 0.1))
    with pytest.raises(ValidationError):
        gradv_identity_gap(a, b)


# ---------------------------------------------------------------------------
# cross-formulation gap


def test_equivalence_gap_zero_for_matched_start():
    # a round trip through the weighted form recovers u to roundoff
    grid = unit_grid(32)
    p = params_with()
    x = grid.axis_centers(0)
    u0 = 1.0 + 0.2 * np.exp(-((x - 0.5) ** 2) / 0.02)
    prim = state_of(grid, u0, 0.5, 0.1)
    back = from_weighted_form(to_weighted_form(prim, p), p)
    series = equivalence_gap([prim], [back])
    assert series.values[0] <= 1e-14


def test_equivalence_gap_measures_density_difference():
    grid = unit_grid(8)
    series = equivalence_gap([state_of(grid, 1.0, 1.0, 0.1)],
                             [state_of(grid, 2.0, 1.0, 0.1)])
    assert series.values[0] == 1.0


def test_equivalence_gap_schedule_mismatch():
    grid = unit_grid(8)
    prim = state_of(grid, 1.0, 0.5, 0.1, t=0.0)
    other = state_of(grid, 1.0, 0.5, 0.1, t=0.0)
    late = state_of(grid, 1.0, 0.5, 0.1, t=1.0)
    with pytest.raises(ScheduleMismatchError):
        equivalence_gap([prim], [late])
    with pytest.raises(ScheduleMismatchError):
        equivalence_gap([prim], [other, late])


def test_equivalence_gap_checks_formulations():
    # both runs hand over their primitive records; a weighted state on
    # either side is rejected, not converted
    grid = unit_grid(8)
    p = params_with()
    prim = state_of(grid, 1.0, 0.5, 0.1)
    wgt = to_weighted_form(prim, p)
    for pair in ([prim], [wgt]), ([wgt], [prim]), ([wgt], [wgt]):
        with pytest.raises(ValidationError, match="primitive records of both runs"):
            equivalence_gap(*pair)
    assert equivalence_gap([prim], [prim]).values[0] == 0.0
