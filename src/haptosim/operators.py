"""Discrete spatial operators on cell-centered grids with reflecting walls.

All operators realize homogeneous Neumann walls by mirror ghost cells,
which is the same thing as zeroing every boundary-face flux.  Gradients
and fluxes live on cell faces: the component along axis ``d`` has one
more entry than cells along ``d``, and its first and last slices (the
wall faces) are identically zero.  Built this way, the divergence of any
face flux telescopes, so the Laplacian and the haptotaxis divergence
conserve their field's volume integral to roundoff.  The drift flux has
one discretization, the donor-cell (upwind) value of the transported
field.

The operators hold no state: apart from the Helmholtz solve's per-grid
DCT basis, each call computes its result from its arguments alone.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .model import Grid, ScalarField, FunctionSpec, ValidationError

__all__ = [
    "gradient_faces",
    "laplacian_neumann",
    "drift_velocities",
    "haptotaxis_divergence",
    "helmholtz_solve",
]

# scipy's ``cg`` and ``solveh_banded`` are still trace targets of the
# benchmark's tracer, which no step calls since the Helmholtz solve went
# direct.  They resolve on access (PEP 562), so importing the package
# never loads scipy.  The result is not cached in the module globals: the
# tracer compares module namespaces before and after a trace.  This goes
# away when the benchmark retires the two targets (ROADMAP item 1).
_RETIRED_TRACE_TARGETS = {"cg": "scipy.sparse.linalg",
                          "solveh_banded": "scipy.linalg"}


def __getattr__(name: str):
    if name not in _RETIRED_TRACE_TARGETS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib
    return getattr(importlib.import_module(_RETIRED_TRACE_TARGETS[name]), name)


def _axis_slice(dims: int, axis: int, sl: slice | int) -> tuple:
    out = [slice(None)] * dims
    out[axis] = sl
    return tuple(out)


# all but the last, all but the first, and all but both ends along one axis,
# keyed by (dims, axis) and built once
_LO, _HI, _MID = (
    {(dims, axis): _axis_slice(dims, axis, sl)
     for dims in (1, 2, 3) for axis in range(dims)}
    for sl in (slice(None, -1), slice(1, None), slice(1, -1)))


def _diff(values: np.ndarray, axis: int) -> np.ndarray:
    """``hi - lo`` of each adjacent pair along ``axis``; the bits of ``np.diff``."""
    key = values.ndim, axis
    return values[_HI[key]] - values[_LO[key]]


def _neighbour_mean(values: np.ndarray, axis: int) -> np.ndarray:
    """``(lo + hi) / 2`` of each adjacent pair along ``axis``; one entry shorter there."""
    key = values.ndim, axis
    return 0.5 * (values[_LO[key]] + values[_HI[key]])


def drift_velocities(v: ScalarField, chi: FunctionSpec) -> tuple[np.ndarray, ...]:
    """Drift ``chi(v) * dv/dx`` on the interior faces normal to each axis.

    ``chi`` takes the arithmetic face average of ``v``; wall faces,
    where the velocity vanishes, are left out.  The arrays are read-only.
    """
    values, vel = v.values, []
    for d, h in enumerate(v.grid.spacing):
        vel_d = chi(_neighbour_mean(values, d)) * (_diff(values, d) / h)
        vel_d.flags.writeable = False
        vel.append(vel_d)
    return tuple(vel)


def _face_diffs(values: np.ndarray, grid: Grid, axis: int) -> np.ndarray:
    """(f_right - f_left)/h on interior faces; wall faces zero."""
    out = np.zeros(grid.face_shapes[axis])
    out[_MID[grid.dims, axis]] = _diff(values, axis) / grid.spacing[axis]
    return out


def gradient_faces(f: ScalarField) -> tuple[np.ndarray, ...]:
    """Two-point face gradient of a cell field; exact for linear profiles.

    Component ``d`` sits on the faces normal to axis ``d``.
    """
    return tuple(_face_diffs(f.values, f.grid, d) for d in range(f.grid.dims))


def _face_divergence(grid: Grid, fluxes: list[np.ndarray]) -> np.ndarray:
    out = np.zeros(grid.shape)
    for d, flux in enumerate(fluxes):
        out += _diff(flux, d) / grid.spacing[d]
    return out


def _lap_values(values: np.ndarray, grid: Grid) -> np.ndarray:
    return _face_divergence(
        grid, [_face_diffs(values, grid, d) for d in range(grid.dims)])


def laplacian_neumann(f: ScalarField) -> ScalarField:
    """Second-order Laplacian with zero-flux walls (mirror ghost cells)."""
    return f.with_values(_lap_values(f.values, f.grid))


def haptotaxis_divergence(u: ScalarField,
                          velocities: tuple[np.ndarray, ...]) -> ScalarField:
    """Divergence of the donor-cell drift flux ``u * velocity``.

    ``velocities`` holds one array per axis on the interior faces normal
    to it, as :func:`drift_velocities` gives them for ``chi(v) * grad v``.
    Each face flux takes the value of ``u`` in the donor cell, the cell
    the velocity points away from.  Wall fluxes vanish and the face
    differences telescope, so the result sums to zero over the grid.
    Nothing here bounds the sign of an explicit update with it: the
    stepper's per-axis drift guard lets a cell drain through several
    faces in one step (ROADMAP item 2).
    """
    grid = u.grid
    dims, cells = grid.dims, u.values
    if len(velocities) != dims:
        raise ValidationError(f"need one velocity array per axis, got "
                              f"{len(velocities)} for {dims} axes")
    fluxes = []
    for d, (shape, vel) in enumerate(zip(grid.face_shapes, velocities)):
        key = dims, d
        lo, hi = cells[_LO[key]], cells[_HI[key]]
        if vel.shape != lo.shape:
            raise ValidationError(f"velocities along axis {d} have shape {vel.shape}, "
                                  f"not the interior faces' {lo.shape}")
        flux = np.zeros(shape)
        flux[_MID[dims, d]] = np.where(vel > 0, lo, hi) * vel
        fluxes.append(flux)
    return ScalarField(grid, _face_divergence(grid, fluxes))


# ---------------------------------------------------------------------------
# Helmholtz-type solves (b*I - a*Laplacian) x = rhs


@functools.lru_cache(maxsize=8)
def _dct_modes(grid: Grid) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Eigenbasis of the Neumann Laplacian on ``grid``.

    Returns the orthonormal DCT-II matrix ``Q`` of each axis (column
    ``k`` is the mode ``cos(pi k (j + 1/2) / n)``) and the eigenvalues of
    ``-Laplacian`` on the whole grid, ``sum_d (4/h_d**2) sin**2(pi k_d / 2n_d)``.
    The arrays are read-only and cached per grid.
    """
    bases = []
    lam = np.zeros(grid.shape)
    for d, (n, h) in enumerate(zip(grid.cells, grid.spacing)):
        k = np.arange(n)
        q = math.sqrt(2.0 / n) * np.cos(np.pi * np.outer(k + 0.5, k) / n)
        q[:, 0] = math.sqrt(1.0 / n)
        q.flags.writeable = False
        bases.append(q)
        lam_d = (4.0 / h**2) * np.sin(0.5 * np.pi * k / n) ** 2
        lam = lam + lam_d.reshape([n if e == d else 1 for e in range(grid.dims)])
    lam.flags.writeable = False
    return tuple(bases), lam


def _along_axis(matrix: np.ndarray, values: np.ndarray, axis: int) -> np.ndarray:
    """Apply ``matrix`` to every line of the C-ordered ``values`` along ``axis``.

    Both products work on views, with no transposed copy.  Along the last,
    contiguous axis the lines are the rows of a ``(lines, n)`` view, and
    one matrix product ``rows @ matrix.T`` takes them all.  Along any other
    axis the reshape is to (lines before, ``n``, lines after), and one
    stacked ``matmul`` takes them.
    """
    shape = values.shape
    n = shape[axis]
    if axis == len(shape) - 1:
        return (values.reshape(-1, n) @ matrix.T).reshape(shape)
    stacked = values.reshape(math.prod(shape[:axis]), n, -1)
    return np.matmul(matrix, stacked).reshape(shape)


def helmholtz_solve(a: float, b: float, rhs: ScalarField) -> ScalarField:
    """Solve ``(b*I - a*Laplacian) x = rhs`` with zero-flux walls.

    The solve is direct and the same in every dimension.  The
    orthonormal DCT-II basis of each axis diagonalizes the mirror-ghost
    Laplacian exactly (G. Strang, "The Discrete Cosine Transform", SIAM
    Review 41, 1999), so ``rhs`` is taken into that basis, divided by
    ``b + a*lambda`` and taken back.  The result is exact to roundoff;
    there is no tolerance and no iteration.  The bases and eigenvalues
    are cached per grid.
    """
    if not (a > 0 and b > 0 and math.isfinite(a) and math.isfinite(b)):
        raise ValidationError(f"need positive finite coefficients, got a={a}, b={b}")
    bases, lam = _dct_modes(rhs.grid)
    x = rhs.values
    for d, q in enumerate(bases):
        x = _along_axis(q.T, x, d)
    x = x / (b + a * lam)
    for d, q in enumerate(bases):
        x = _along_axis(q, x, d)
    return rhs.with_values(x)
