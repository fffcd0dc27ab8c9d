import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haptosim.model import (
    FunctionSpec,
    ModelParams,
    ScalarField,
    SimState,
    ValidationError,
    build_grid,
    initial_state,
    taxis_weight,
)


class TestGrid:
    def test_2d_spacing_and_volume(self):
        g = build_grid((16, 32), (1.0, 2.0))
        assert g.spacing == (1.0 / 16, 2.0 / 16 / 2)
        assert g.spacing == (0.0625, 0.0625)
        assert g.domain_volume == pytest.approx(2.0, rel=1e-15)

    def test_cell_volumes_sum_to_domain(self):
        g = build_grid((7, 5, 3), (1.0, 0.5, 2.0))
        total = g.cell_volume * np.prod(g.shape)
        assert total == pytest.approx(g.domain_volume, rel=1e-12)

    def test_centers(self):
        g = build_grid(4, 2.0, origin=1.0)
        assert np.allclose(g.axis_centers(0), [1.25, 1.75, 2.25, 2.75])

    def test_rejects_bad_dims(self):
        with pytest.raises(ValidationError):
            build_grid((2, 2, 2, 2), 1.0)
        with pytest.raises(ValidationError):
            build_grid(1, 1.0)
        with pytest.raises(ValidationError):
            build_grid(8, -1.0)

    def test_field_shape_checked(self):
        g = build_grid((4, 4), 1.0)
        with pytest.raises(ValidationError):
            ScalarField(g, np.zeros(4))


class TestFunctionSpec:
    def test_affine_eval(self):
        g = FunctionSpec.affine(1.0, 2.0)
        assert g(0.5) == 2.0

    def test_negative_input_clamps(self):
        chi = FunctionSpec.saturating(1.0, 0.5)
        assert chi(-0.01) == chi(0.0)
        arr = chi(np.array([-1.0, 0.0, 1.0]))
        assert arr[0] == arr[1]

    def test_tabulated_interpolates_and_extrapolates(self):
        f = FunctionSpec.tabulated([0.0, 1.0, 2.0], [1.0, 3.0, 3.0])
        assert f(0.5) == 2.0
        assert f(10.0) == 3.0  # constant beyond last node

    def test_constant_antiderivative_exact(self):
        chi = FunctionSpec.constant(0.7)
        v = np.array([0.0, 0.3, 2.0])
        assert np.array_equal(chi.antiderivative(v), 0.7 * v)

    def test_affine_antiderivative(self):
        chi = FunctionSpec.affine(0.0, 1.0)
        assert chi.antiderivative(2.0) == pytest.approx(2.0, rel=1e-15)

    def test_saturating_antiderivative_matches_quadrature(self):
        f = FunctionSpec.saturating(0.4, 1.3)
        # oracle: dense trapezoid on [0, v]
        for v in (0.25, 1.0, 4.0):
            s = np.linspace(0.0, v, 200001)
            oracle = np.trapezoid(f(s), s)
            assert f.antiderivative(v) == pytest.approx(oracle, abs=1e-9)

    def test_tabulated_antiderivative_matches_dense_trapezoid(self):
        f = FunctionSpec.tabulated([0.0, 0.4, 1.1, 2.0], [0.5, 2.0, 0.1, 1.0])
        for v in (0.2, 0.4, 0.9, 1.7, 3.5):
            s = np.linspace(0.0, v, 1_000_001)
            oracle = np.trapezoid(f(s), s)
            assert f.antiderivative(v) == pytest.approx(oracle, abs=1e-8)

    def test_tabulated_antiderivative_with_offset_first_node(self):
        # constant extrapolation below the first node counts toward the integral
        f = FunctionSpec.tabulated([1.0, 2.0], [2.0, 4.0])
        assert f.antiderivative(0.5) == pytest.approx(1.0, rel=1e-14)
        assert f.antiderivative(1.5) == pytest.approx(2.0 + 2.0 * 0.5 + 0.5 * 0.25 * 2,
                                                      rel=1e-13)

    def test_rejects_negative_function(self):
        with pytest.raises(ValidationError):
            FunctionSpec.affine(1.0, -2.0)
        with pytest.raises(ValidationError):
            FunctionSpec.constant(-0.1)

    def test_rejects_unsorted_nodes(self):
        with pytest.raises(ValidationError):
            FunctionSpec.tabulated([0.0, 1.0, 0.5], [1.0, 1.0, 1.0])

    @pytest.mark.parametrize("spec, infimum", [
        (("affine", 1.0, -0.05), "-inf"),      # g(30) = -0.5
        (("saturating", 1.0, -1.05), "-0.05"),  # 0.045 at v = 10
        (("tabulated", [0.0, 1.0], [1.0, -0.5]), "-0.5"),
    ], ids=["affine", "saturating", "tabulated"])
    def test_rejects_function_negative_anywhere_on_half_line(self, spec, infimum):
        # each is nonnegative on [0, 10] but not on all of v >= 0
        family, *args = spec
        with pytest.raises(ValidationError,
                           match=f"{family} function has infimum {infimum} over v >= 0"):
            getattr(FunctionSpec, family)(*args)

    def test_accepts_function_whose_infimum_is_zero(self):
        f = FunctionSpec.saturating(1.0, -1.0)
        assert f(1e12) > 0 and f.positive_floor is None

    @pytest.mark.parametrize("nodes, table", [
        ([math.nan, 1.0], [1.0, 2.0]),
        ([0.0, math.inf], [1.0, 2.0]),
        ([0.0, 1.0], [1.0, math.nan]),
    ], ids=["nan-node", "inf-node", "nan-value"])
    def test_rejects_non_finite_table(self, nodes, table):
        with pytest.raises(ValidationError,
                           match="tabulated nodes and table must be finite"):
            FunctionSpec.tabulated(nodes, table)

    def test_rejects_negative_nodes(self):
        with pytest.raises(ValidationError, match="nodes must be >= 0"):
            FunctionSpec.tabulated([-1.0, 1.0], [1.0, 1.0])

    @pytest.mark.parametrize("args, message", [
        (("affine", (1.0,)), "takes 2 coefficients and no table"),
        (("constant", (1.0,), (0.0, 1.0), (1.0, 1.0)), "takes 1 coefficients"),
        (("tabulated", (1.0,), (0.0, 1.0), (1.0, 1.0)), "no coefficients"),
        (("tabulated", (), (0.0, 1.0)), "needs nodes and table"),
        (("cubic", (1.0,)), "unknown function family 'cubic'"),
    ], ids=["arity", "stray-table", "stray-coeffs", "no-table", "family"])
    def test_fields_hold_exactly_the_family_numbers(self, args, message):
        with pytest.raises(ValidationError, match=message):
            FunctionSpec(*args)

    @pytest.mark.parametrize("keyword", ["positive_floor", "vanishes_at_zero",
                                         "lipschitz_value"])
    def test_derived_values_are_not_init_arguments(self, keyword):
        with pytest.raises(TypeError, match=keyword):
            FunctionSpec("affine", (1.0, -0.05), **{keyword: 0.4})

    def test_equality_reads_only_the_defining_numbers(self):
        f = FunctionSpec.affine(1.0, 2.0)
        g = FunctionSpec("affine", (1, 2))
        assert f.lipschitz_value == 2.0  # cache one derived value on f only
        assert f == g and hash(f) == hash(g) and g.coeffs == (1.0, 2.0)

    @given(st.sampled_from(["constant", "affine", "saturating", "tabulated"]),
           st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3),
           st.floats(0.0, 1e9))
    @settings(max_examples=200, deadline=None)
    def test_accepted_functions_are_nonnegative_everywhere(self, family, nums, v):
        try:
            if family == "tabulated":
                f = FunctionSpec.tabulated([0.0, 1.0, 2.0], nums)
            else:
                f = FunctionSpec(family, nums[:FunctionSpec.ARITY[family]])
        except ValidationError:
            return
        assert f(v) >= 0.0 and f(0.0) >= 0.0
        if f.positive_floor is not None:
            assert f(v) >= f.positive_floor * (1 - 1e-15)

    def test_derived_flags(self):
        g = FunctionSpec.affine(1.0, 1.0)
        assert g.positive_floor == 1.0
        assert not g.vanishes_at_zero
        gv = FunctionSpec.affine(0.0, 1.0)
        assert gv.vanishes_at_zero
        assert gv.positive_floor is None

    def test_lipschitz_closed_forms(self):
        assert FunctionSpec.constant(3.0).lipschitz_value == 0.0
        assert FunctionSpec.affine(1.0, 2.0).lipschitz_value == 2.0
        assert FunctionSpec.saturating(0.0, 1.5).lipschitz_value == 1.5
        tab = FunctionSpec.tabulated([0.0, 0.5, 1.0], [0.0, 2.0, 2.5])
        assert tab.lipschitz_value == 4.0

    @given(st.floats(0.0, 10.0), st.floats(0.0, 10.0))
    @settings(max_examples=50, deadline=None)
    def test_lipschitz_bound_holds_on_samples(self, v1, v2):
        for f in (FunctionSpec.affine(0.5, 1.2),
                  FunctionSpec.saturating(0.2, 0.9),
                  FunctionSpec.tabulated([0.0, 1.0, 3.0], [1.0, 0.2, 0.7])):
            gap = abs(f(v1) - f(v2))
            assert gap <= f.lipschitz_value * abs(v1 - v2) * (1 + 1e-12) + 1e-15

    @given(st.floats(0.0, 9.0), st.floats(0.0, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_antiderivative_nondecreasing(self, v, dv):
        for f in (FunctionSpec.constant(0.3),
                  FunctionSpec.saturating(0.1, 2.0),
                  FunctionSpec.tabulated([0.0, 2.0], [0.5, 0.0])):
            assert f.antiderivative(v + dv) >= f.antiderivative(v) - 1e-15


class TestTaxisWeight:
    def test_constant_case(self):
        g = build_grid(8, 1.0)
        v = ScalarField.full(g, 0.5)
        w = taxis_weight(v, FunctionSpec.constant(0.4))
        assert np.allclose(w.values, math.exp(-0.2), rtol=1e-15)

    def test_zero_taxis_gives_unit_weight(self):
        g = build_grid(8, 1.0)
        v = ScalarField(g, np.linspace(0, 3, 8))
        w = taxis_weight(v, FunctionSpec.constant(0.0))
        assert np.array_equal(w.values, np.ones(8))

    def test_bounds(self):
        rng = np.random.default_rng(7)
        g = build_grid((6, 5), 1.0)
        v = ScalarField(g, rng.uniform(0, 4, g.shape))
        w = taxis_weight(v, FunctionSpec.saturating(0.3, 1.0))
        assert np.all(w.values > 0)
        assert np.all(w.values <= 1.0)


class TestParamsAndState:
    def test_params_validate(self):
        chi = FunctionSpec.constant(0.5)
        g = FunctionSpec.affine(1.0, 1.0)
        with pytest.raises(ValidationError):
            ModelParams(0.0, 1.0, 1.0, chi, g)
        with pytest.raises(ValidationError):
            ModelParams(1.0, -1.0, 1.0, chi, g)
        with pytest.raises(ValidationError):
            ModelParams(1.0, 1.0, -0.5, chi, g)
        p = ModelParams(1.0, 1.0, 0.0, chi, g)
        assert p.growth_rate == 0.0

    def test_state_requires_matching_grids(self):
        g1 = build_grid(8, 1.0)
        g2 = build_grid(9, 1.0)
        with pytest.raises(ValidationError):
            SimState(0.0, ScalarField.zeros(g1), ScalarField.zeros(g2),
                     ScalarField.zeros(g1))

    def test_initial_state_zeroes_accumulators(self):
        g = build_grid((4, 4), 1.0)
        s = initial_state(ScalarField.full(g, 1.0), ScalarField.full(g, 0.5),
                          ScalarField.zeros(g))
        assert s.t == 0.0
        assert s.formulation == "primitive"
        assert np.array_equal(s.int_protease.values, np.zeros(g.shape))
