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

The operators hold no state: apart from the Helmholtz solve's two DCT
passes and its scaled eigenvalues, each call computes its result from
its arguments alone.  A call checks its arguments once and then runs
NumPy on raw arrays.  The solve's one cache is keyed by the grid's cell
counts and spacing and by the coefficient ``a``, and every dimension
reads it the same way.  A divergence sums its axes' terms without first
allocating zeros.
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

    ``chi`` takes the arithmetic face average of ``v``; a constant
    ``chi`` ignores it, so its coefficient multiplies the slope directly,
    which gives the same bits.  Wall faces, where the velocity vanishes,
    are left out.  The arrays are read-only.
    """
    values, vel = v.values, []
    constant = chi.family == "constant"
    for d, h in enumerate(v.grid.spacing):
        key = values.ndim, d
        lo, hi = values[_LO[key]], values[_HI[key]]
        slope = (hi - lo) / h
        vel_d = (chi.coeffs[0] * slope if constant
                 else chi(0.5 * (lo + hi)) * slope)
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
    """Sum over the axes of each flux's face difference over the cell width.

    The sum starts from the first axis's term, not from zeros: adding it to
    zeros would only cost a pass, and change nothing but a zero's sign.
    """
    out = None
    for d, (flux, h) in enumerate(zip(fluxes, grid.spacing)):
        term = _diff(flux, d) / h
        if out is None:
            out = term
        else:
            out += term
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
        np.multiply(np.where(vel > 0.0, lo, hi), vel, out=flux[_MID[key]])
        fluxes.append(flux)
    return ScalarField(grid, _face_divergence(grid, fluxes))


# ---------------------------------------------------------------------------
# Helmholtz-type solves (b*I - a*Laplacian) x = rhs


def _dct_modes(cells: tuple[int, ...],
               spacing: tuple[float, ...]) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Eigenbasis of the Neumann Laplacian on a grid of ``cells`` and ``spacing``.

    Returns the orthonormal DCT-II matrix ``Q`` of each axis (column
    ``k`` is the mode ``cos(pi k (j + 1/2) / n)``) and the eigenvalues of
    ``-Laplacian`` on the whole grid, ``sum_d (4/h_d**2) sin**2(pi k_d / 2n_d)``.
    The arrays are read-only, and each basis starts on a 64-byte
    boundary, whatever the allocator returns.  Nothing is cached here: a solve reads them
    through :func:`_dct_passes`, which builds them once per grid and ``a``.
    """
    bases = []
    lam = np.zeros(cells)
    for d, (n, h) in enumerate(zip(cells, spacing)):
        k = np.arange(n)
        q = math.sqrt(2.0 / n) * np.cos(np.pi * np.outer(k + 0.5, k) / n)
        q[:, 0] = math.sqrt(1.0 / n)
        # copied to a 64-byte boundary: at 128 cells the two products of a
        # solve cost up to 40 % more at other offsets, and which offset the
        # allocator gives differs between processes
        buffer = np.empty(n * n + 8)
        start = -buffer.ctypes.data % 64 // 8
        aligned = buffer[start:start + n * n].reshape(n, n)
        aligned[...] = q
        aligned.flags.writeable = False
        bases.append(aligned)
        lam_d = (4.0 / h**2) * np.sin(0.5 * np.pi * k / n) ** 2
        lam = lam + lam_d.reshape([n if e == d else 1 for e in range(len(cells))])
    lam.flags.writeable = False
    return tuple(bases), lam


# keyed by the grid's cell counts and spacing, two tuples the cache hashes
# in C, where a Grid key would run the dataclass's Python-level hash, and by
# the solve's coefficient ``a``, which is fixed at each call site
@functools.lru_cache(maxsize=16)
def _dct_passes(cells: tuple[int, ...], spacing: tuple[float, ...],
                a: float) -> tuple:
    """The two passes of a solve on a grid, with ``a`` times its eigenvalues between.

    Returns ``(forward, a_lam, backward)``.  Each pass is a callable that
    takes a C-ordered array of the grid's shape to a new one: the forward
    pass applies ``Q^T`` to every line along every axis, the backward pass
    ``Q``.  ``a_lam`` is read-only.  This is the one cache of the solve's
    tables, keyed by grid and ``a``.

    On a 1D grid a pass is the matrix's own bound product, ``Q.T.dot``
    forward and ``Q.dot`` backward: one BLAS call without the ufunc layer
    of ``matmul``, with the bits of the row products ``values.dot(Q)`` and
    ``values.dot(Q.T)``, and so of the ``(1, n)`` product.  On a 2D or 3D
    grid a pass is :func:`_transform` bound to one product per axis.
    """
    bases, lam = _dct_modes(cells, spacing)
    a_lam = a * lam
    a_lam.flags.writeable = False
    if len(cells) == 1:
        return bases[0].T.dot, a_lam, bases[0].dot
    forward, backward = [], []
    for d, (n, q) in enumerate(zip(cells, bases)):
        if d == len(cells) - 1:
            rows = None if len(cells) == 2 else (-1, n)
            forward.append((q, rows, True))
            backward.append((q.T, rows, True))
        else:
            lines = (math.prod(cells[:d]), n, -1)
            forward.append((q.T, lines, False))
            backward.append((q, lines, False))
    return (functools.partial(_transform, tuple(forward)), a_lam,
            functools.partial(_transform, tuple(backward)))


def _transform(products: tuple, values: np.ndarray) -> np.ndarray:
    """Apply one product per axis, ``(matrix, lines, last)``, to C-ordered ``values``.

    Along the last, contiguous axis the lines are the rows of a
    ``(lines, n)`` view, and one row product ``rows.dot(matrix)`` takes
    them all; a 2D array already is its rows, so ``lines`` is None and no
    reshape is made.  Along any other axis ``values`` is reshaped to
    (lines before, ``n``, lines after), a view, and one stacked
    ``matmul(matrix, lines)`` takes them.  Neither makes a transposed
    copy.  A 1D grid's pass does not come here: its one product is cheaper
    called directly.
    """
    shape = values.shape
    for matrix, lines, last in products:
        if lines is None:
            values = values.dot(matrix)
        elif last:
            values = values.reshape(lines).dot(matrix).reshape(shape)
        else:
            values = np.matmul(matrix, values.reshape(lines)).reshape(shape)
    return values


def helmholtz_solve(a: float, b: float, rhs: ScalarField) -> ScalarField:
    """Solve ``(b*I - a*Laplacian) x = rhs`` with zero-flux walls.

    The solve is direct and the same in every dimension.  The
    orthonormal DCT-II basis of each axis diagonalizes the mirror-ghost
    Laplacian exactly (G. Strang, "The Discrete Cosine Transform", SIAM
    Review 41, 1999), so ``rhs`` is taken into that basis by the forward
    pass of :func:`_dct_passes`, divided by ``b + a*lambda`` and taken
    back by the backward pass.  The result is exact to roundoff; there is
    no tolerance and no iteration.  The passes, and ``a`` times the
    eigenvalues, are cached per grid and ``a``.
    """
    if not (0.0 < a < math.inf and 0.0 < b < math.inf):
        raise ValidationError(f"need positive finite coefficients, got a={a}, b={b}")
    grid = rhs.grid
    forward, a_lam, backward = _dct_passes(grid.cells, grid.spacing, a)
    return ScalarField(grid, backward(forward(rhs.values) / (b + a_lam)))
