"""Discrete spatial operators on cell-centered grids with reflecting walls.

All operators realize homogeneous Neumann walls by mirror ghost cells,
which is the same thing as zeroing every boundary-face flux.  Gradients
and fluxes live on cell faces: the component along axis ``d`` has one
more entry than cells along ``d``, and its first and last slices (the
wall faces) are identically zero.  Built this way, the divergence of any
face flux telescopes, so the Laplacian and the haptotaxis divergence
conserve their field's volume integral to roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solveh_banded
from scipy.sparse.linalg import LinearOperator, cg

from .model import Grid, ScalarField, FunctionSpec, ValidationError

__all__ = [
    "VectorField",
    "gradient_faces",
    "laplacian_neumann",
    "drift_velocity",
    "haptotaxis_divergence",
    "helmholtz_solve",
    "IterationLimitError",
]


class IterationLimitError(RuntimeError):
    """The iterative Helmholtz solve did not reach tolerance."""


def _axis_slice(dims: int, axis: int, sl: slice | int) -> tuple:
    out = [slice(None)] * dims
    out[axis] = sl
    return tuple(out)


def _neighbour_mean(values: np.ndarray, axis: int) -> np.ndarray:
    """``(lo + hi) / 2`` of each adjacent pair along ``axis``; one entry shorter there."""
    dims = values.ndim
    lo = values[_axis_slice(dims, axis, slice(None, -1))]
    hi = values[_axis_slice(dims, axis, slice(1, None))]
    return 0.5 * (lo + hi)


def drift_velocity(v: ScalarField, chi: FunctionSpec, axis: int) -> np.ndarray:
    """Drift ``chi(v) * dv/dx`` on the interior faces normal to ``axis``.

    ``chi`` takes the arithmetic face average of ``v``; wall faces,
    where the velocity vanishes, are left out.
    """
    dv = np.diff(v.values, axis=axis) / v.grid.spacing[axis]
    return chi(_neighbour_mean(v.values, axis)) * dv


@dataclass(frozen=True)
class VectorField:
    """Face-staggered vector data: component ``d`` sits on faces normal to axis ``d``."""

    grid: Grid
    components: tuple[np.ndarray, ...]

    def __post_init__(self):
        if len(self.components) != self.grid.dims:
            raise ValidationError("need one component per axis")
        for d, comp in enumerate(self.components):
            want = list(self.grid.shape)
            want[d] += 1
            if comp.shape != tuple(want):
                raise ValidationError(
                    f"component {d} has shape {comp.shape}, expected {tuple(want)}")

    def max_abs(self) -> float:
        return max(float(np.max(np.abs(c))) for c in self.components)


def _face_diffs(values: np.ndarray, grid: Grid, axis: int) -> np.ndarray:
    """(f_right - f_left)/h on interior faces; wall faces zero."""
    shape = list(grid.shape)
    shape[axis] += 1
    out = np.zeros(shape)
    interior = _axis_slice(grid.dims, axis, slice(1, -1))
    out[interior] = np.diff(values, axis=axis) / grid.spacing[axis]
    return out


def gradient_faces(f: ScalarField) -> VectorField:
    """Two-point face gradient of a cell field; exact for linear profiles."""
    return VectorField(f.grid, tuple(_face_diffs(f.values, f.grid, d)
                                     for d in range(f.grid.dims)))


def _face_divergence(grid: Grid, fluxes: list[np.ndarray]) -> np.ndarray:
    out = np.zeros(grid.shape)
    for d, flux in enumerate(fluxes):
        out += np.diff(flux, axis=d) / grid.spacing[d]
    return out


def _lap_values(values: np.ndarray, grid: Grid) -> np.ndarray:
    return _face_divergence(
        grid, [_face_diffs(values, grid, d) for d in range(grid.dims)])


def laplacian_neumann(f: ScalarField) -> ScalarField:
    """Second-order Laplacian with zero-flux walls (mirror ghost cells)."""
    return f.with_values(_lap_values(f.values, f.grid))


def haptotaxis_divergence(u: ScalarField, v: ScalarField, chi: FunctionSpec,
                          scheme: str = "upwind") -> ScalarField:
    """Divergence of the drift flux ``u * chi(v) * grad v``.

    The face flux uses the arithmetic face average of ``v`` inside
    ``chi`` and, by default, the donor-cell value of ``u`` (the cell
    the flux points away from), which keeps the explicit update
    positivity-preserving under the usual CFL bound.  ``scheme`` may be
    ``"centered"`` to average ``u`` onto faces instead; that variant is
    second-order on smooth data and exists for convergence studies
    only.  Wall fluxes vanish, so the result sums to zero over the
    grid.
    """
    if scheme not in ("upwind", "centered"):
        raise ValidationError(f"unknown scheme {scheme!r}")
    if u.grid != v.grid:
        raise ValidationError("u and v must share a grid")
    grid = u.grid
    dims = grid.dims
    fluxes = []
    for d in range(dims):
        vel = drift_velocity(v, chi, d)
        if scheme == "upwind":
            lo = _axis_slice(dims, d, slice(None, -1))
            hi = _axis_slice(dims, d, slice(1, None))
            uface = np.where(vel > 0, u.values[lo], u.values[hi])
        else:
            uface = _neighbour_mean(u.values, d)
        shape = list(grid.shape)
        shape[d] += 1
        flux = np.zeros(shape)
        flux[_axis_slice(dims, d, slice(1, -1))] = uface * vel
        fluxes.append(flux)
    return u.with_values(_face_divergence(grid, fluxes))


# ---------------------------------------------------------------------------
# Helmholtz-type solves (b*I - a*Laplacian) x = rhs


def _operator_diagonal(grid: Grid, a: float, b: float) -> np.ndarray:
    diag = np.full(grid.shape, b)
    for d in range(grid.dims):
        h2 = grid.spacing[d] ** 2
        diag += 2.0 * a / h2
        diag[_axis_slice(grid.dims, d, 0)] -= a / h2
        diag[_axis_slice(grid.dims, d, -1)] -= a / h2
    return diag


def _solve_tridiagonal(grid: Grid, a: float, b: float, rhs: np.ndarray) -> np.ndarray:
    n = grid.shape[0]
    h2 = grid.spacing[0] ** 2
    band = np.zeros((2, n))
    band[1] = _operator_diagonal(grid, a, b)
    band[0, 1:] = -a / h2
    return solveh_banded(band, rhs)


def helmholtz_solve(a: float, b: float, rhs: ScalarField, *,
                    tol: float = 1e-10, max_iter: int | None = None) -> ScalarField:
    """Solve ``(b*I - a*Laplacian) x = rhs`` with zero-flux walls.

    1D grids go through a direct symmetric tridiagonal factorization.
    Higher dimensions use matrix-free conjugate gradients with a Jacobi
    preconditioner, iterating until the residual drops below ``tol``
    relative to ``rhs`` (default cap: 10 iterations per cell).  Raises
    IterationLimitError when the cap is hit first.
    """
    if not (a > 0 and b > 0 and math.isfinite(a) and math.isfinite(b)):
        raise ValidationError(f"need positive finite coefficients, got a={a}, b={b}")
    grid = rhs.grid
    rhs_norm = float(np.linalg.norm(rhs.values.ravel()))
    if rhs_norm == 0.0:
        return ScalarField.zeros(grid)
    if grid.dims == 1:
        return rhs.with_values(_solve_tridiagonal(grid, a, b, rhs.values))

    n = rhs.values.size
    shape = grid.shape
    if max_iter is None:
        max_iter = 10 * n

    def apply(x: np.ndarray) -> np.ndarray:
        f = x.reshape(shape)
        return (b * f - a * _lap_values(f, grid)).ravel()

    inv_diag = 1.0 / _operator_diagonal(grid, a, b).ravel()
    op = LinearOperator((n, n), matvec=apply)
    precond = LinearOperator((n, n), matvec=lambda r: inv_diag * r)
    x0 = rhs.values.ravel() / b
    x, info = cg(op, rhs.values.ravel(), x0=x0, rtol=tol, atol=0.0,
                 maxiter=max_iter, M=precond)
    residual = float(np.linalg.norm(apply(x) - rhs.values.ravel()))
    if info != 0 or residual > tol * rhs_norm * (1 + 1e-12):
        raise IterationLimitError(
            f"CG stopped after {max_iter} iterations with relative residual "
            f"{residual / rhs_norm:.3e} (tol {tol:.1e})")
    return rhs.with_values(x.reshape(shape))
