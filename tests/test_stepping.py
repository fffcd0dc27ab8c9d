import math

import numpy as np
import pytest

from haptosim import stepping
from haptosim.model import (
    WEIGHTED,
    FunctionSpec,
    ModelParams,
    ScalarField,
    SimState,
    ValidationError,
    build_grid,
    initial_state,
    taxis_weight,
)
from haptosim.operators import (
    drift_velocities,
    gradient_faces,
    haptotaxis_divergence,
    helmholtz_solve,
    laplacian_neumann,
)
from haptosim.stepping import (
    BlowupError,
    StepperConfig,
    _cell_gradient,
    from_weighted_form,
    imex_step,
    stable_dt,
    step_v_exact,
    to_weighted_form,
)


def _params(mu=1.0, d=1.0, gamma=1.0, chi=None, g=None):
    return ModelParams(d, gamma, mu,
                       chi if chi is not None else FunctionSpec.constant(0.5),
                       g if g is not None else FunctionSpec.affine(1.0, 1.0))


def _smooth_state(grid, seed=0):
    rng = np.random.default_rng(seed)
    base = [rng.uniform(0.4, 1.2), rng.uniform(0.2, 0.7), rng.uniform(0.0, 0.3)]
    fields = []
    for amp in base:
        vals = np.full(grid.shape, amp)
        for dax in range(grid.dims):
            x = grid.axis_centers(dax).reshape(
                [-1 if i == dax else 1 for i in range(grid.dims)])
            vals = vals * (1.0 + 0.3 * np.cos(np.pi * x / grid.extents[dax]) ** 2)
        fields.append(ScalarField(grid, vals))
    return initial_state(*fields)


class TestStepVExact:
    def test_zero_protease_is_identity(self):
        g = build_grid(8, 1.0)
        v = ScalarField(g, np.linspace(0.1, 0.9, 8))
        out = step_v_exact(v, ScalarField.zeros(g), 0.5)
        assert np.array_equal(out.values, v.values)

    def test_constant_protease_matches_closed_form(self):
        g = build_grid(16, 1.0)
        v0 = ScalarField(g, np.linspace(0.2, 0.8, 16))
        m = ScalarField.full(g, 0.7)
        v = v0
        for _ in range(300):
            v = step_v_exact(v, m, 0.01)
        assert np.max(np.abs(v.values - v0.values * math.exp(-0.7 * 3.0))) < 1e-13

    def test_pointwise(self):
        g = build_grid(4, 1.0)
        v = ScalarField.full(g, 1.0)
        m = ScalarField(g, np.array([0.0, 1.0, 0.0, 0.0]))
        out = step_v_exact(v, m, 1.0)
        assert out.values[1] == pytest.approx(math.exp(-1.0))
        assert out.values[0] == 1.0 and out.values[2] == 1.0

    def test_monotone_for_nonnegative_m(self):
        g = build_grid(8, 1.0)
        rng = np.random.default_rng(3)
        v = ScalarField(g, rng.uniform(0, 1, 8))
        m = ScalarField(g, rng.uniform(0, 2, 8))
        assert np.all(step_v_exact(v, m, 0.3).values <= v.values)


class TestStableDt:
    def test_quiescent_state_uses_reaction_guard(self):
        g = build_grid(32, 1.0)
        s = initial_state(ScalarField.full(g, 1.0), ScalarField.full(g, 0.5),
                          ScalarField.full(g, 0.3))
        p = _params(mu=0.0, gamma=1.0, g=FunctionSpec.constant(0.5))
        cfg = StepperConfig(t_end=1.0, dt_max=10.0, record_every=0.1, cfl=0.5)
        # constant v: no drift; mu=0: no logistic; guard = gamma + max m
        assert stable_dt(s, p, cfg) == pytest.approx(0.5 / 1.3, rel=1e-12)
        cfg_small = StepperConfig(t_end=1.0, dt_max=0.1, record_every=0.1, cfl=0.5)
        assert stable_dt(s, p, cfg_small) == 0.1

    def test_advective_guard_value(self):
        # |chi * dv| = 2 at every interior face, h = 0.1, cfl = 0.5 -> 0.025
        g = build_grid(10, 1.0)
        x = g.axis_centers(0)
        s = initial_state(ScalarField.zeros(g), ScalarField(g, 2.0 * x),
                          ScalarField.zeros(g))
        p = ModelParams(1.0, 1e-3, 0.0, FunctionSpec.constant(1.0),
                        FunctionSpec.constant(0.0))
        cfg = StepperConfig(t_end=1.0, dt_max=10.0, record_every=0.1, cfl=0.5)
        dt = stable_dt(s, p, cfg)
        assert dt == pytest.approx(0.025, rel=1e-12)

    def test_advective_guard_scales_with_h(self):
        p = ModelParams(1.0, 1e-3, 0.0, FunctionSpec.constant(1.0),
                        FunctionSpec.constant(0.0))
        cfg = StepperConfig(t_end=1.0, dt_max=10.0, record_every=0.1, cfl=0.5)
        dts = []
        for n in (10, 20):
            g = build_grid(n, 1.0)
            s = initial_state(ScalarField.zeros(g),
                              ScalarField(g, 2.0 * g.axis_centers(0)),
                              ScalarField.zeros(g))
            dts.append(stable_dt(s, p, cfg))
        assert dts[0] == pytest.approx(2 * dts[1], rel=1e-12)


class TestImexStep:
    def test_zero_state_stays_zero(self):
        g = build_grid(8, 1.0)
        s = initial_state(*[ScalarField.zeros(g)] * 3)
        out = imex_step(s, _params(), 0.1)
        assert out.t == pytest.approx(0.1)
        for f in (out.cells, out.ecm, out.protease):
            assert np.array_equal(f.values, np.zeros(8))

    @pytest.mark.parametrize("weighted", [False, True])
    def test_homogeneous_steady_state_is_fixed(self, weighted):
        g = build_grid(16, 1.0)
        p = ModelParams(1.0, 1.3, 1.0, FunctionSpec.constant(0.5),
                        FunctionSpec.affine(0.7, 0.5))
        m_star = 0.7 / 1.3
        s = initial_state(ScalarField.full(g, 1.0), ScalarField.zeros(g),
                          ScalarField.full(g, m_star))
        if weighted:
            s = to_weighted_form(s, p)
        out = imex_step(s, p, 0.05)
        assert np.max(np.abs(out.cells.values - 1.0)) < 1e-12
        assert np.max(np.abs(out.ecm.values)) < 1e-12
        assert np.max(np.abs(out.protease.values - m_star)) < 1e-12

    def test_tiny_step_matches_rk4_oracle(self):
        # oracle: classical RK4 on the same spatial semi-discretization,
        # 100 substeps of 1e-8 against one IMEX step of 1e-6
        g = build_grid(8, 1.0)
        p = ModelParams(0.5, 0.9, 0.8, FunctionSpec.saturating(0.2, 1.0),
                        FunctionSpec.affine(0.3, 0.6))
        s = _smooth_state(g, seed=5)

        def rhs(u, v, m):
            uf, vf, mf = (ScalarField(g, a) for a in (u, v, m))
            du = (laplacian_neumann(uf).values
                  - haptotaxis_divergence(uf, drift_velocities(vf, p.taxis)).values
                  + p.growth_rate * u * (1 - u - v))
            dv = -m * v
            dm = (p.protease_diffusion * laplacian_neumann(mf).values
                  - p.protease_decay * m + u * p.production(v))
            return du, dv, dm

        u, v, m = s.cells.values, s.ecm.values, s.protease.values
        h = 1e-8
        for _ in range(100):
            k1 = rhs(u, v, m)
            k2 = rhs(u + 0.5 * h * k1[0], v + 0.5 * h * k1[1], m + 0.5 * h * k1[2])
            k3 = rhs(u + 0.5 * h * k2[0], v + 0.5 * h * k2[1], m + 0.5 * h * k2[2])
            k4 = rhs(u + h * k3[0], v + h * k3[1], m + h * k3[2])
            u = u + h / 6 * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
            v = v + h / 6 * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
            m = m + h / 6 * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])

        out = imex_step(s, p, 1e-6)
        assert np.max(np.abs(out.cells.values - u)) < 1e-7
        assert np.max(np.abs(out.ecm.values - v)) < 1e-7
        assert np.max(np.abs(out.protease.values - m)) < 1e-7

    @pytest.mark.parametrize("shape", [(32,), (12, 10)])
    def test_preserves_nonnegativity(self, shape):
        g = build_grid(shape, 1.0)
        rng = np.random.default_rng(11)
        u0 = ScalarField(g, np.abs(rng.standard_normal(g.shape)))
        v0 = ScalarField(g, rng.uniform(0.0, 0.9, g.shape))
        m0 = ScalarField(g, rng.uniform(0.0, 0.5, g.shape))
        s = initial_state(u0, v0, m0)
        p = _params()
        cfg = StepperConfig(t_end=1.0, dt_max=0.05, record_every=1.0)
        for _ in range(40):
            s = imex_step(s, p, stable_dt(s, p, cfg))
        for f in (s.cells, s.ecm, s.protease):
            assert np.min(f.values) >= -1e-12

    def test_mass_conserved_per_step_without_growth(self):
        g = build_grid(64, 1.0)
        s = _smooth_state(g, seed=9)
        p = _params(mu=0.0, chi=FunctionSpec.constant(1.0),
                    g=FunctionSpec.affine(0.0, 1.0))
        before = np.sum(s.cells.values)
        out = imex_step(s, p, 0.002)
        assert np.sum(out.cells.values) == pytest.approx(before, rel=1e-12)

    @pytest.mark.parametrize("cells", [(8,), (8, 6), (6, 5, 4)],
                             ids=["1d", "2d", "3d"])
    def test_accumulators_trapezoid(self, cells):
        g = build_grid(cells, 1.0)
        s = _smooth_state(g, seed=2)
        p = _params()
        dt = 0.01
        out = imex_step(s, p, dt)
        expected = 0.5 * dt * (s.protease.values + out.protease.values)
        assert np.allclose(out.int_protease.values, expected, rtol=1e-14)

    def test_gradient_of_accumulator_is_accumulated_gradient(self):
        # the time integral of grad m is derived as the gradient of int m;
        # both maps are linear, so the two agree to roundoff over a long run
        g = build_grid((16, 12), (1.0, 0.75))
        s = _smooth_state(g, seed=4)
        p = _params()
        dt = 0.005
        acc = [np.zeros(g.shape) for _ in range(g.dims)]
        for _ in range(200):
            out = imex_step(s, p, dt)
            for a, go, gn in zip(acc, _cell_gradient(s.protease),
                                 _cell_gradient(out.protease)):
                a += 0.5 * dt * (go + gn)
            s = out
        derived = _cell_gradient(s.int_protease)
        scale = max(float(np.max(np.abs(a))) for a in acc)
        assert scale > 1e-3
        for a, b in zip(acc, derived):
            assert np.max(np.abs(a - b)) <= 1e-13

    def test_nan_aborts_with_diagnostic(self):
        g = build_grid(8, 1.0)
        bad = ScalarField(g, np.full(8, np.nan))
        s = initial_state(bad, ScalarField.zeros(g), ScalarField.zeros(g))
        with pytest.raises(BlowupError) as err:
            imex_step(s, _params(), 0.1)
        assert "cells" in str(err.value)

    def test_blowup_names_every_non_finite_entry_field(self):
        g = build_grid(8, 1.0)
        nan = ScalarField(g, np.full(8, np.nan))
        s = initial_state(nan, ScalarField.zeros(g), nan)
        with pytest.raises(BlowupError) as err:
            imex_step(s, _params(), 0.1)
        assert err.value.fields == ["cells", "protease"]
        assert err.value.t == 0.0

    def test_blowup_names_only_the_overflowing_output_field(self):
        # v * exp(-m dt) overflows at m = -1e3, dt = 1; the protease and
        # cell solves stay finite
        g = build_grid(8, 1.0)
        s = initial_state(ScalarField.full(g, 1.0), ScalarField.full(g, 1.0),
                          ScalarField.full(g, -1e3))
        with np.errstate(over="ignore"), pytest.raises(BlowupError) as err:
            imex_step(s, _params(), 1.0)
        assert err.value.fields == ["ecm"]

    def test_huge_finite_cells_are_not_a_blowup(self):
        # the entries sum past the largest double, but each is finite, and
        # so is the step: uniform matrix, no growth, no production
        g = build_grid(2, 1.0)
        s = initial_state(ScalarField.full(g, 1e308), ScalarField.full(g, 0.5),
                          ScalarField.zeros(g))
        p = _params(mu=0.0, g=FunctionSpec.constant(0.0))
        with np.errstate(over="ignore"):
            out = imex_step(s, p, 1.0)
        assert np.allclose(out.cells.values, 1e308, rtol=1e-14, atol=0)

    def test_rejects_nonpositive_dt(self):
        g = build_grid(8, 1.0)
        s = initial_state(*[ScalarField.zeros(g)] * 3)
        with pytest.raises(ValidationError):
            imex_step(s, _params(), 0.0)


def _cells_from_faces(face, axis):
    """Average a face array back to the cells on either side of each face."""
    n = face.shape[axis]
    lo = np.take(face, np.arange(n - 1), axis=axis)
    hi = np.take(face, np.arange(1, n), axis=axis)
    return 0.5 * (lo + hi)


def _split_step(state, params, dt):
    """One step of the module docstring's splitting, built from the public operators."""
    chi, g, mu = params.taxis, params.production, params.growth_rate
    cells, v, m = state.cells, state.ecm, state.protease
    weighted = state.formulation == WEIGHTED
    u = cells.values / taxis_weight(v, chi).values if weighted else cells.values
    m_new = helmholtz_solve(params.protease_diffusion, 1.0 / dt + params.protease_decay,
                            m.with_values(m.values / dt + u * g(v.values)))
    v_new = step_v_exact(v, m, dt)
    if weighted:
        w = cells.values
        grad_v, grad_w = gradient_faces(v), gradient_faces(cells)
        dot = np.zeros(state.grid.shape)
        for d in range(state.grid.dims):
            dot += _cells_from_faces(grad_v[d] * grad_w[d], d)
        chi_v = chi(v.values)
        explicit = (chi_v * dot + mu * w * (1.0 - u - v.values)
                    + chi_v * w * v.values * m.values)
    else:
        drift = haptotaxis_divergence(cells, drift_velocities(v, chi))
        explicit = -drift.values + mu * u * (1.0 - u - v.values)
    cells_new = helmholtz_solve(1.0, 1.0 / dt,
                                cells.with_values(cells.values / dt + explicit))
    int_m = state.int_protease.with_values(
        state.int_protease.values + 0.5 * dt * (m.values + m_new.values))
    return SimState(state.t + dt, cells_new, v_new, m_new, state.formulation, int_m)


@pytest.mark.parametrize("cells", [(16,), (8, 6), (6, 5, 4)], ids=["1d", "2d", "3d"])
# the primitive form's drift is the upwind flux
@pytest.mark.parametrize("form", ["primitive", "weighted"], ids=["upwind", "weighted"])
def test_step_is_the_documented_splitting_bit_for_bit(cells, form):
    g = build_grid(cells, tuple(1.0 + 0.25 * d for d in range(len(cells))))
    p = _params(mu=0.8, chi=FunctionSpec.saturating(0.3, 1.2),
                g=FunctionSpec.affine(0.2, 0.9))
    s = _smooth_state(g, seed=len(cells))
    if form == "weighted":
        s = to_weighted_form(s, p)
    cfg = StepperConfig(t_end=1.0, dt_max=0.05, record_every=1.0)
    for _ in range(3):
        dt = stable_dt(s, p, cfg)
        out = imex_step(s, p, dt)
        ref = _split_step(s, p, dt)
        assert out.t == ref.t and out.formulation == ref.formulation
        for name in ("cells", "ecm", "protease", "int_protease"):
            assert np.array_equal(getattr(out, name).values,
                                  getattr(ref, name).values), name
        s = out


@pytest.mark.parametrize("form", ["primitive", "weighted"])
@pytest.mark.parametrize("other", ["state", "chi", "formulation"])
def test_step_after_another_dt_guard_is_a_fresh_step(form, other):
    # stable_dt on one state, on one taxis, or on the other form of the same
    # state (which shares its matrix field), and then imex_step on another
    # must not hand the step the first one's drift velocities or taxis weight
    g = build_grid((8, 6), (1.0, 1.25))
    p = _params(mu=0.8, chi=FunctionSpec.saturating(0.3, 1.2))
    p_other = _params(mu=0.8, chi=FunctionSpec.saturating(0.6, 0.7))
    s = _smooth_state(g, seed=1)
    s_other = _smooth_state(g, seed=2)
    s_switched = to_weighted_form(s, p)
    if form == "weighted":
        s, s_other, s_switched = s_switched, to_weighted_form(s_other, p), s
    assert s_switched.ecm is s.ecm
    cfg = StepperConfig(t_end=1.0, dt_max=0.05, record_every=1.0)
    guarded = {"state": (s_other, p), "chi": (s, p_other), "formulation": (s_switched, p)}
    stable_dt(*guarded[other], cfg)
    out = imex_step(s, p, 0.01)
    # empty the per-step slot, so the reference step computes all afresh
    stepping._slot[:] = None, None, None, None
    fresh = imex_step(s, p, 0.01)
    for name in ("cells", "ecm", "protease", "int_protease"):
        assert np.array_equal(getattr(out, name).values,
                              getattr(fresh, name).values), name


@pytest.mark.parametrize("form", ["primitive", "weighted"])
def test_step_keeps_nothing_past_itself(form):
    g = build_grid((8, 6), 1.0)
    p = _params(chi=FunctionSpec.saturating(0.3, 1.2))
    s = _smooth_state(g)
    if form == "weighted":
        s = to_weighted_form(s, p)
    imex_step(s, p, stable_dt(s, p, StepperConfig(1.0, 0.05, 1.0)))
    assert stepping._slot == [None, None, None, None]


# One step at stable_dt on a matrix pit: v = 0.9 but 0 at the centre cell,
# which holds all the cells.  Known failures are strict xfails naming the
# ROADMAP item that mends them.
_ITEM_2 = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 2: the per-axis drift guard lets a cell drain through "
           "several faces")
_ITEM_3 = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="ROADMAP item 3: the weighted step's transport term has no sign structure")


@pytest.mark.parametrize("form, dims, cfl", [
    pytest.param("primitive", 1, 1.0, marks=_ITEM_2, id="primitive-1d-cfl1"),
    pytest.param("primitive", 1, 0.5, id="primitive-1d"),
    pytest.param("primitive", 2, 0.5, marks=_ITEM_2, id="primitive-2d"),
    pytest.param("primitive", 3, 0.5, marks=_ITEM_2, id="primitive-3d"),
    pytest.param("weighted", 1, 1.0, marks=_ITEM_3, id="weighted-1d-cfl1"),
    pytest.param("weighted", 1, 0.5, marks=_ITEM_3, id="weighted-1d"),
    pytest.param("weighted", 2, 0.5, marks=_ITEM_3, id="weighted-2d"),
    pytest.param("weighted", 3, 0.5, marks=_ITEM_3, id="weighted-3d"),
])
def test_step_on_a_matrix_pit_keeps_cells_nonnegative(form, dims, cfl):
    g = build_grid((9,) * dims, 1.0)
    centre = (4,) * dims
    u, v = np.zeros(g.shape), np.full(g.shape, 0.9)
    u[centre], v[centre] = 1.0, 0.0
    p = _params(chi=FunctionSpec.constant(5.0), g=FunctionSpec.affine(0.0, 1.0))
    s = initial_state(ScalarField(g, u), ScalarField(g, v), ScalarField.zeros(g))
    if form == "weighted":
        s = to_weighted_form(s, p)
    out = imex_step(s, p, stable_dt(s, p, StepperConfig(1.0, 1.0, 1.0, cfl=cfl)))
    if form == "weighted":
        out = from_weighted_form(out, p)
    assert out.cells.values.min() >= 0


class TestFormulationTransforms:
    def test_zero_taxis_identity(self):
        g = build_grid(8, 1.0)
        s = _smooth_state(g, seed=1)
        p = _params(chi=FunctionSpec.constant(0.0))
        w = to_weighted_form(s, p)
        assert np.array_equal(w.cells.values, s.cells.values)
        assert w.formulation == "weighted"

    def test_constant_taxis_value(self):
        g = build_grid(4, 1.0)
        p = _params(chi=FunctionSpec.constant(0.5))
        s = initial_state(ScalarField.full(g, 2.0), ScalarField.full(g, 1.0),
                          ScalarField.zeros(g))
        w = to_weighted_form(s, p)
        assert np.allclose(w.cells.values, 2.0 * math.exp(-0.5), rtol=1e-15)

    def test_round_trip(self):
        g = build_grid(16, 1.0)
        s = _smooth_state(g, seed=8)
        p = _params(chi=FunctionSpec.saturating(0.1, 0.7))
        back = from_weighted_form(to_weighted_form(s, p), p)
        assert np.max(np.abs(back.cells.values - s.cells.values)) < 1e-14
        assert back.formulation == "primitive"

    def test_tag_mismatch_raises(self):
        g = build_grid(8, 1.0)
        s = _smooth_state(g, seed=1)
        p = _params()
        with pytest.raises(ValidationError):
            from_weighted_form(s, p)
        with pytest.raises(ValidationError):
            to_weighted_form(to_weighted_form(s, p), p)
