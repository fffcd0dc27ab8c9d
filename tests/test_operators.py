import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haptosim.model import FunctionSpec, ScalarField, ValidationError, build_grid
from haptosim.operators import (
    _along_axis,
    _dct_modes,
    drift_velocities,
    gradient_faces,
    haptotaxis_divergence,
    helmholtz_solve,
    laplacian_neumann,
)


def _random_field(grid, seed):
    rng = np.random.default_rng(seed)
    return ScalarField(grid, rng.standard_normal(grid.shape))


def _axis_stencil(n, extent):
    """Dense 1D Laplacian of ``n`` cells, assembled from ``laplacian_neumann``."""
    line = build_grid(n, extent)
    return np.column_stack([laplacian_neumann(ScalarField(line, e)).values
                            for e in np.eye(n)])


def _kronecker_oracle(grid, a, b, rhs):
    """Solve ``(b*I - a*Lap) x = rhs`` from the dense stencil of each axis.

    The grid Laplacian is the Kronecker sum of its axis stencils, so the
    eigenvectors LAPACK finds for each dense stencil diagonalize it; this
    is the dense oracle without an ``N x N`` matrix.
    """
    eigs = [np.linalg.eigh(_axis_stencil(n, e)) for n, e in zip(grid.cells, grid.extents)]
    x = rhs
    for d, (_, vecs) in enumerate(eigs):
        x = np.moveaxis(np.tensordot(vecs.T, x, axes=([1], [d])), 0, d)
    mu = sum(w.reshape([-1 if e == d else 1 for e in range(grid.dims)])
             for d, (w, _) in enumerate(eigs))
    x = x / (b - a * mu)
    for d, (_, vecs) in enumerate(eigs):
        x = np.moveaxis(np.tensordot(vecs, x, axes=([1], [d])), 0, d)
    return x


def _dense_matrix(grid, a, b):
    # oracle: assemble (b*I - a*Lap) column by column from the stencil action
    n = int(np.prod(grid.shape))
    cols = []
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        f = ScalarField(grid, e.reshape(grid.shape))
        cols.append((b * f.values - a * laplacian_neumann(f).values).ravel())
    return np.column_stack(cols)


class TestLaplacian:
    def test_constant_is_flat(self):
        g = build_grid((5, 4), 1.0)
        lap = laplacian_neumann(ScalarField.full(g, 3.7))
        assert np.array_equal(lap.values, np.zeros(g.shape))

    def test_hand_stencil_1d(self):
        g = build_grid(3, 3.0)  # h = 1
        lap = laplacian_neumann(ScalarField(g, np.array([0.0, 1.0, 0.0])))
        assert np.array_equal(lap.values, np.array([1.0, -2.0, 1.0]))

    @pytest.mark.parametrize("shape", [(16,), (8, 7), (5, 4, 6)])
    def test_conserves_integral(self, shape):
        g = build_grid(shape, 1.0)
        f = _random_field(g, 42)
        total = np.sum(laplacian_neumann(f).values) * g.cell_volume
        assert abs(total) < 1e-12 * np.abs(f.values).max()

    @pytest.mark.parametrize("shape", [(12,), (6, 5)])
    def test_symmetric(self, shape):
        g = build_grid(shape, 1.0)
        f, w = _random_field(g, 1), _random_field(g, 2)
        lf = np.sum(laplacian_neumann(f).values * w.values)
        fw = np.sum(f.values * laplacian_neumann(w).values)
        assert lf == pytest.approx(fw, rel=1e-12, abs=1e-12)

    def test_second_order_on_smooth_data(self):
        # analytic oracle: (cos(pi x))'' = -pi^2 cos(pi x), zero-slope walls
        errs = []
        for n in (32, 64, 128):
            g = build_grid(n, 1.0)
            x = g.axis_centers(0)
            lap = laplacian_neumann(ScalarField(g, np.cos(np.pi * x)))
            errs.append(np.max(np.abs(lap.values + np.pi**2 * np.cos(np.pi * x))))
        orders = np.log2(np.array(errs[:-1]) / errs[1:])
        assert np.min(orders) >= 1.9


class TestGradient:
    def test_constant_gradient_zero(self):
        g = build_grid((4, 4), 1.0)
        grad = gradient_faces(ScalarField.full(g, 2.0))
        for comp in grad:
            assert np.array_equal(comp, np.zeros_like(comp))

    def test_hand_values_1d(self):
        g = build_grid(3, 1.5)  # h = 0.5
        grad = gradient_faces(ScalarField(g, np.array([1.0, 2.0, 4.0])))
        assert np.array_equal(grad[0], np.array([0.0, 2.0, 4.0, 0.0]))

    def test_exact_on_linear_interior(self):
        g = build_grid(16, 2.0)
        x = g.axis_centers(0)
        grad = gradient_faces(ScalarField(g, 3.0 * x + 1.0))
        assert np.allclose(grad[0][1:-1], 3.0, rtol=1e-14)

    def test_face_shapes(self):
        g = build_grid((3, 5), 1.0)
        grad = gradient_faces(ScalarField.zeros(g))
        assert grad[0].shape == (4, 5)
        assert grad[1].shape == (3, 6)


class TestDriftVelocities:
    def test_matches_face_formula(self):
        g = build_grid((6, 5), (1.0, 0.8))
        v, chi = _random_field(g, 21), FunctionSpec.saturating(0.3, 1.2)
        for d, vel in enumerate(drift_velocities(v, chi)):
            n = g.cells[d]
            lo = np.take(v.values, range(n - 1), axis=d)
            hi = np.take(v.values, range(1, n), axis=d)
            assert np.array_equal(vel, chi(0.5 * (lo + hi)) * ((hi - lo) / g.spacing[d]))
            assert not vel.flags.writeable

    def test_new_chi_on_the_same_field_gives_new_velocities(self):
        g = build_grid((6, 5), 1.0)
        v = _random_field(g, 22)
        slow, fast = FunctionSpec.constant(0.5), FunctionSpec.constant(2.0)
        first = drift_velocities(v, slow)
        second = drift_velocities(v, fast)
        for a, b in zip(first, second):
            assert np.array_equal(4.0 * a, b)

    def test_new_field_on_the_same_grid_gives_new_velocities(self):
        g = build_grid(8, 1.0)
        chi = FunctionSpec.constant(1.0)
        v, w = _random_field(g, 23), _random_field(g, 24)
        drift_velocities(v, chi)
        got = drift_velocities(w, chi)[0]
        assert np.array_equal(got, (w.values[1:] - w.values[:-1]) / g.spacing[0])


class TestHaptotaxisDivergence:
    def test_zero_when_v_constant(self):
        g = build_grid(12, 1.0)
        u = _random_field(g, 3)
        v = ScalarField.full(g, 0.8)
        out = haptotaxis_divergence(u, drift_velocities(v, FunctionSpec.constant(1.0)))
        assert np.array_equal(out.values, np.zeros(g.shape))

    def test_zero_when_chi_vanishes(self):
        g = build_grid(12, 1.0)
        out = haptotaxis_divergence(_random_field(g, 4),
                                    drift_velocities(_random_field(g, 5),
                                                     FunctionSpec.constant(0.0)))
        assert np.array_equal(out.values, np.zeros(g.shape))

    def test_hand_upwind_case(self):
        # peak of v in the middle: fluxes point toward the peak from both sides
        g = build_grid(3, 3.0)  # h = 1
        u = ScalarField(g, np.ones(3))
        v = ScalarField(g, np.array([0.0, 1.0, 0.0]))
        out = haptotaxis_divergence(u, drift_velocities(v, FunctionSpec.constant(1.0)))
        assert np.array_equal(out.values, np.array([1.0, -2.0, 1.0]))

    def test_donor_cell_selection(self):
        g = build_grid(2, 2.0)  # h = 1, one interior face
        v = ScalarField(g, np.array([0.0, 1.0]))  # velocity +1 at the face
        u = ScalarField(g, np.array([2.0, 5.0]))
        out = haptotaxis_divergence(u, drift_velocities(v, FunctionSpec.constant(1.0)))
        # donor is the left cell: flux = 2.0
        assert np.array_equal(out.values, np.array([2.0, -2.0]))
        v_dec = ScalarField(g, np.array([1.0, 0.0]))  # velocity -1: donor right
        out = haptotaxis_divergence(u, drift_velocities(v_dec, FunctionSpec.constant(1.0)))
        assert np.array_equal(out.values, np.array([-5.0, 5.0]))

    @pytest.mark.parametrize("shape", [(20,), (7, 6)])
    def test_conserves_integral(self, shape):
        g = build_grid(shape, 1.0)
        u = ScalarField(g, np.abs(_random_field(g, 6).values) + 0.1)
        v = ScalarField(g, np.abs(_random_field(g, 7).values))
        out = haptotaxis_divergence(
            u, drift_velocities(v, FunctionSpec.saturating(0.2, 1.0)))
        assert abs(np.sum(out.values)) < 1e-11 * np.abs(out.values).max()

    def test_convergence_order(self):
        # smooth oracle: d/dx(u * c * v') = c*(u' v' + u v'') for constant chi
        c = 0.5
        errs = []
        for n in (64, 128, 256):
            g = build_grid(n, 1.0)
            x = g.axis_centers(0)
            u = ScalarField(g, 1.0 + 0.3 * np.cos(np.pi * x))
            v = ScalarField(g, 0.5 + 0.2 * np.cos(np.pi * x))
            exact = c * ((-0.3 * np.pi * np.sin(np.pi * x)) *
                         (-0.2 * np.pi * np.sin(np.pi * x)) +
                         (1.0 + 0.3 * np.cos(np.pi * x)) *
                         (-0.2 * np.pi**2 * np.cos(np.pi * x)))
            got = haptotaxis_divergence(u, drift_velocities(v, FunctionSpec.constant(c)))
            # skip the wall cells: the zero-flux closure is exact for the
            # continuum problem but first-order for an arbitrary smooth field
            errs.append(np.max(np.abs(got.values - exact)[2:-2]))
        orders = np.log2(np.array(errs[:-1]) / errs[1:])
        assert np.min(orders) >= 0.9

    def test_rejects_velocities_off_the_interior_faces(self):
        chi = FunctionSpec.constant(1.0)
        u = _random_field(build_grid((3, 5), 1.0), 25)
        faces = drift_velocities(_random_field(u.grid, 26), chi)
        # one array too few, and one too many
        for wrong in (faces[:1], faces + faces[:1]):
            with pytest.raises(ValidationError, match="one velocity array per axis"):
                haptotaxis_divergence(u, wrong)
        # another grid's faces: transposed, and one row short, whose (1, 5)
        # axis-0 velocities would broadcast against u's (2, 5) faces unchecked
        for cells in ((5, 3), (2, 5)):
            other = drift_velocities(_random_field(build_grid(cells, 1.0), 27), chi)
            with pytest.raises(ValidationError, match="interior faces"):
                haptotaxis_divergence(u, other)


ANISO_CELLS = (4, 3, 5)
ANISO_EXTENTS = (1.0, 0.7, 1.3)


class TestHelmholtz:
    def test_constant_rhs(self):
        g = build_grid(16, 1.0)
        b, c = 4.0, 2.5
        x = helmholtz_solve(1.0, b, ScalarField.full(g, b * c))
        assert np.allclose(x.values, c, rtol=1e-13)

    def test_matches_dense_oracle_1d(self):
        g = build_grid(8, 1.0)
        a, b = 0.7, 3.0
        rhs = _random_field(g, 11)
        expected = np.linalg.solve(_dense_matrix(g, a, b), rhs.values.ravel())
        got = helmholtz_solve(a, b, rhs)
        assert np.max(np.abs(got.values.ravel() - expected)) < 1e-9

    def test_matches_dense_oracle_2d(self):
        g = build_grid((4, 2), 1.0)
        a, b = 0.3, 2.0
        rhs = _random_field(g, 12)
        expected = np.linalg.solve(_dense_matrix(g, a, b), rhs.values.ravel())
        got = helmholtz_solve(a, b, rhs)
        assert np.max(np.abs(got.values.ravel() - expected)) < 1e-9

    def test_matches_dense_oracle_3d(self):
        g = build_grid(ANISO_CELLS, ANISO_EXTENTS)
        a, b = 0.4, 1.5
        rhs = _random_field(g, 16)
        expected = np.linalg.solve(_dense_matrix(g, a, b), rhs.values.ravel())
        got = helmholtz_solve(a, b, rhs)
        assert np.max(np.abs(got.values.ravel() - expected)) < 1e-12

    @pytest.mark.parametrize("shape", [(64, 64), (24, 20, 16), (5, 7, 3)])
    def test_matches_kronecker_oracle(self, shape):
        # unit-order spacing keeps the oracle's own eigen-solve accurate to 1e-15
        g = build_grid(shape, tuple(n * s for n, s in zip(shape, (1.0, 0.75, 1.25))))
        rhs = _random_field(g, 17)
        got = helmholtz_solve(0.7, 3.0, rhs).values
        assert np.max(np.abs(got - _kronecker_oracle(g, 0.7, 3.0, rhs.values))) < 1e-13

    def test_kronecker_oracle_is_the_dense_oracle(self):
        g = build_grid((5, 7, 3), (5.0, 5.25, 3.75))
        rhs = _random_field(g, 18)
        dense = np.linalg.solve(_dense_matrix(g, 0.7, 3.0), rhs.values.ravel())
        oracle = _kronecker_oracle(g, 0.7, 3.0, rhs.values)
        assert np.max(np.abs(oracle.ravel() - dense)) < 1e-13

    @pytest.mark.parametrize("n", [128, 64, 33, 8, 2])
    def test_1d_row_product_is_the_stacked_product_bit_for_bit(self, n):
        # a 1D grid's only axis is its contiguous one; the row product must
        # give the bits of the stacked matmul every other axis uses
        q = _dct_modes(build_grid(n, 1.0))[0][0]
        rng = np.random.default_rng(n)
        for _ in range(50):
            x = rng.standard_normal(n)
            for m in (q, q.T):
                stacked = np.matmul(m, x.reshape(1, n, 1)).reshape(n)
                assert np.array_equal(_along_axis(m, x, 0), stacked)

    @pytest.mark.parametrize("axis", range(3))
    def test_basis_diagonalizes_axis_stencil(self, axis):
        # each cached axis basis must diagonalize that axis's 1D stencil,
        # assembled here from laplacian_neumann, to the cached eigenvalues
        g = build_grid(ANISO_CELLS, ANISO_EXTENTS)
        bases, lam = _dct_modes(g)
        assert not lam.flags.writeable
        assert not any(q.flags.writeable for q in bases)
        q = bases[axis]
        n = ANISO_CELLS[axis]
        stencil = _axis_stencil(n, ANISO_EXTENTS[axis])
        # the other axes' zero modes have eigenvalue 0, so this line is lambda_axis
        lam_axis = lam[tuple(slice(None) if d == axis else 0 for d in range(3))]
        assert np.max(np.abs(q.T @ q - np.eye(n))) < 1e-12
        assert np.max(np.abs(q.T @ stencil @ q + np.diag(lam_axis))) < 1e-12

    @pytest.mark.parametrize("shape", [(64,), (16, 12), (6, 5, 7)])
    def test_inverse_consistency(self, shape):
        g = build_grid(shape, 1.0)
        a, b = 0.05, 10.0
        x = _random_field(g, 13)
        rhs = ScalarField(g, b * x.values - a * laplacian_neumann(x).values)
        back = helmholtz_solve(a, b, rhs)
        assert np.max(np.abs(back.values - x.values)) < 1e-8

    def test_residual_contract(self):
        g = build_grid((24, 24), 1.0)
        rhs = _random_field(g, 14)
        x = helmholtz_solve(2.0, 1.0, rhs)
        resid = 1.0 * x.values - 2.0 * laplacian_neumann(x).values - rhs.values
        rel = np.linalg.norm(resid.ravel()) / np.linalg.norm(rhs.values.ravel())
        assert rel <= 1e-10 * (1 + 1e-9)

    def test_zero_rhs_short_circuits(self):
        g = build_grid((9, 9), 1.0)
        x = helmholtz_solve(1.0, 1.0, ScalarField.zeros(g))
        assert np.array_equal(x.values, np.zeros(g.shape))

    def test_rejects_nonpositive_coefficients(self):
        g = build_grid(8, 1.0)
        with pytest.raises(ValidationError):
            helmholtz_solve(0.0, 1.0, ScalarField.full(g, 1.0))
        with pytest.raises(ValidationError):
            helmholtz_solve(1.0, -2.0, ScalarField.full(g, 1.0))

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_solves_random_1d_systems(self, seed):
        g = build_grid(12, 1.0)
        rhs = _random_field(g, seed)
        x = helmholtz_solve(1.0, 2.0, rhs)
        resid = 2.0 * x.values - laplacian_neumann(x).values - rhs.values
        scale = max(np.linalg.norm(rhs.values), 1e-30)
        assert np.linalg.norm(resid) <= 1e-10 * scale

    @given(st.lists(st.integers(2, 9), min_size=1, max_size=3),
           st.lists(st.floats(0.1, 10.0), min_size=3, max_size=3),
           st.floats(1e-3, 1e3), st.floats(1e-3, 1e3), st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_solves_random_systems_any_dimension(self, cells, extents, a, b, seed):
        g = build_grid(tuple(cells), tuple(extents[:len(cells)]))
        rhs = _random_field(g, seed)
        x = helmholtz_solve(a, b, rhs)
        resid = b * x.values - a * laplacian_neumann(x).values - rhs.values
        # residual relative to the size of the system: evaluating it in floating
        # point alone costs roundoff times ||A|| ||x||, with the Gershgorin
        # bound b + a * sum_d 4/h_d**2 standing in for ||A||
        op_norm = b + a * sum(4.0 / h**2 for h in g.spacing)
        scale = np.linalg.norm(rhs.values) + op_norm * np.linalg.norm(x.values)
        assert np.linalg.norm(resid) <= 1e-12 * scale
        # the Laplacian sums to zero, so the zero mode carries the mean
        assert b * np.sum(x.values) == pytest.approx(
            np.sum(rhs.values), rel=0, abs=1e-12 * np.sum(np.abs(rhs.values)))
