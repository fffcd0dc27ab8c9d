"""Grids, fields, and model data for a haptotaxis invasion system.

Three variables live on a box with reflecting (no-flux) walls: a motile
cell density ``u``, an immobile extracellular-matrix density ``v`` that
the cells degrade, and a diffusible protease ``m`` that does the
degrading.  This module holds the value types shared by the rest of the
package: the uniform cell-centered grid, scalar fields on it, validated
one-dimensional coefficient functions (taxis sensitivity ``chi(v)`` and
protease production ``g(v)``), the model parameters, and the simulation
state with its running time integral of the protease.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "ValidationError",
    "Grid",
    "build_grid",
    "ScalarField",
    "FunctionSpec",
    "ModelParams",
    "SimState",
    "initial_state",
    "taxis_weight",
]

# probe lattice for coefficient validation: [0, PROBE_VMAX] sampled densely
PROBE_VMAX = 10.0
PROBE_POINTS = 257


class ValidationError(ValueError):
    """Raised when grid, field, coefficient, or parameter data is invalid."""


def _as_tuple(value, dims: int, kind: type) -> tuple:
    if isinstance(value, (int, float)):
        return tuple(kind(value) for _ in range(dims))
    out = tuple(kind(x) for x in value)
    if len(out) != dims:
        raise ValidationError(f"expected {dims} entries, got {len(out)}")
    return out


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered grid on an axis-aligned box (1 to 3 dims).

    Cell ``(i, j, ...)`` has its center at ``origin + (i + 1/2) * spacing``
    per axis.  Values attached to the grid use row-major cell ordering,
    i.e. a C-ordered array of shape ``cells``.
    """

    cells: tuple[int, ...]
    extents: tuple[float, ...]
    origin: tuple[float, ...]

    def __post_init__(self):
        dims = len(self.cells)
        if not 1 <= dims <= 3:
            raise ValidationError(f"grid dims must be 1..3, got {dims}")
        if len(self.extents) != dims or len(self.origin) != dims:
            raise ValidationError("cells, extents, origin must agree in length")
        if any(n < 2 for n in self.cells):
            raise ValidationError(f"need at least 2 cells per dim, got {self.cells}")
        if any(not (e > 0 and math.isfinite(e)) for e in self.extents):
            raise ValidationError(f"extents must be positive finite, got {self.extents}")
        if any(not math.isfinite(o) for o in self.origin):
            raise ValidationError("origin must be finite")

    @property
    def dims(self) -> int:
        return len(self.cells)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.cells

    # computed once per grid: the frozen dataclass is not slotted, so the
    # cached value lands in the instance dict and stays out of eq and hash
    @functools.cached_property
    def spacing(self) -> tuple[float, ...]:
        return tuple(e / n for e, n in zip(self.extents, self.cells))

    @functools.cached_property
    def cell_volume(self) -> float:
        return math.prod(self.spacing)

    @functools.cached_property
    def face_shapes(self) -> tuple[tuple[int, ...], ...]:
        """Shape of the face array normal to each axis: one more entry along it."""
        return tuple(self.cells[:d] + (n + 1,) + self.cells[d + 1:]
                     for d, n in enumerate(self.cells))

    @property
    def domain_volume(self) -> float:
        return math.prod(self.extents)

    def axis_centers(self, axis: int) -> np.ndarray:
        """Cell-center coordinates along one axis."""
        h = self.spacing[axis]
        return self.origin[axis] + h * (np.arange(self.cells[axis]) + 0.5)

    def centers(self) -> list[np.ndarray]:
        """Cell-center coordinate arrays, broadcastable to ``shape``."""
        return list(np.meshgrid(*(self.axis_centers(d) for d in range(self.dims)),
                                indexing="ij"))


def build_grid(cells: int | Sequence[int],
               extents: float | Sequence[float],
               origin: float | Sequence[float] = 0.0) -> Grid:
    """Construct a uniform grid; scalars are broadcast to every axis.

    ``build_grid(128, 1.0)`` is a unit interval with 128 cells;
    ``build_grid((32, 48), (1.0, 1.5))`` a 2D box.
    """
    if isinstance(cells, (int, np.integer)):
        cells = (int(cells),)
    cells_t = tuple(int(n) for n in cells)
    dims = len(cells_t)
    extents_t = _as_tuple(extents, dims, float)
    origin_t = _as_tuple(origin, dims, float)
    return Grid(cells_t, extents_t, origin_t)


_FLOAT64 = np.dtype(float)


@dataclass(frozen=True)
class ScalarField:
    """One real value per grid cell.

    ``values`` is a float64 array of shape ``grid.shape``.  Fields are
    treated as immutable: operations build new fields rather than
    mutating in place.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        arr = self.values
        # a float64 ndarray is kept as is, which is what asarray would do
        if type(arr) is not np.ndarray or arr.dtype is not _FLOAT64:
            arr = np.asarray(arr, dtype=float)
            object.__setattr__(self, "values", arr)
        if arr.shape != self.grid.shape:
            raise ValidationError(
                f"field shape {arr.shape} does not match grid {self.grid.shape}")

    @classmethod
    def full(cls, grid: Grid, value: float) -> "ScalarField":
        return cls(grid, np.full(grid.shape, float(value)))

    @classmethod
    def zeros(cls, grid: Grid) -> "ScalarField":
        return cls(grid, np.zeros(grid.shape))

    def with_values(self, values: np.ndarray) -> "ScalarField":
        return ScalarField(self.grid, values)


# ---------------------------------------------------------------------------
# coefficient functions of the matrix density


@dataclass(frozen=True)
class FunctionSpec:
    """A validated scalar function of the matrix density ``v >= 0``.

    Four families are supported; arguments below ``v`` are fixed
    coefficients:

    ==============  =========================================
    ``constant``    ``c``
    ``affine``      ``a + b*v``
    ``saturating``  ``cap + slope * v / (1 + v)``
    ``tabulated``   piecewise-linear through ``(nodes, table)``
                    with constant extrapolation outside
    ==============  =========================================

    Evaluation clamps negative inputs to zero, so fields that dip to
    tiny negative values by roundoff stay in the validated domain.
    Construction checks nonnegativity on a probe lattice over
    ``[0, 10]``, computes Lipschitz constants in closed form, and
    derives ``positive_floor`` (a global lower bound, when one exists
    for the family) and ``vanishes_at_zero``.
    """

    family: str
    coeffs: tuple[float, ...] = ()
    nodes: tuple[float, ...] | None = None
    table: tuple[float, ...] | None = None
    positive_floor: float | None = None
    vanishes_at_zero: bool = False
    lipschitz_value: float = field(init=False, default=0.0)
    lipschitz_derivative: float = field(init=False, default=0.0)

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, c: float) -> "FunctionSpec":
        return cls("constant", (float(c),))

    @classmethod
    def affine(cls, a: float, b: float) -> "FunctionSpec":
        return cls("affine", (float(a), float(b)))

    @classmethod
    def saturating(cls, cap: float, slope: float) -> "FunctionSpec":
        return cls("saturating", (float(cap), float(slope)))

    @classmethod
    def tabulated(cls, nodes: Sequence[float], table: Sequence[float]) -> "FunctionSpec":
        return cls("tabulated", (), tuple(float(x) for x in nodes),
                   tuple(float(y) for y in table))

    # -- validation ----------------------------------------------------

    def __post_init__(self):
        if self.family not in ("constant", "affine", "saturating", "tabulated"):
            raise ValidationError(f"unknown function family {self.family!r}")
        if self.family == "tabulated":
            if not self.nodes or self.table is None:
                raise ValidationError("tabulated family needs nodes and table")
            if len(self.nodes) != len(self.table) or len(self.nodes) < 2:
                raise ValidationError("tabulated nodes and table must match, length >= 2")
            dx = np.diff(self.nodes)
            if np.any(dx <= 0):
                raise ValidationError("tabulated nodes must be strictly increasing")
            if self.nodes[0] < 0:
                raise ValidationError("tabulated nodes must be >= 0")
            if any(not math.isfinite(y) or y < 0 for y in self.table):
                raise ValidationError("tabulated table values must be finite and >= 0")
        else:
            expected = {"constant": 1, "affine": 2, "saturating": 2}[self.family]
            if len(self.coeffs) != expected:
                raise ValidationError(
                    f"family {self.family!r} takes {expected} coefficients")
            if any(not math.isfinite(c) for c in self.coeffs):
                raise ValidationError("coefficients must be finite")

        lip_val, lip_der = self._lipschitz()
        object.__setattr__(self, "lipschitz_value", lip_val)
        object.__setattr__(self, "lipschitz_derivative", lip_der)

        probe = np.linspace(0.0, PROBE_VMAX, PROBE_POINTS)
        sampled = self(probe)
        if np.any(sampled < 0):
            bad = float(probe[np.argmin(sampled)])
            raise ValidationError(
                f"{self.family} function is negative near v={bad:g}")

        if self.positive_floor is None:
            object.__setattr__(self, "positive_floor", self._derived_floor())
        else:
            floor = float(self.positive_floor)
            if not (floor > 0 and math.isfinite(floor)):
                raise ValidationError("positive_floor must be positive and finite")
            if np.min(sampled) < floor:
                raise ValidationError(
                    f"positive_floor={floor:g} exceeds sampled minimum "
                    f"{np.min(sampled):g}")
            object.__setattr__(self, "positive_floor", floor)

        if self.vanishes_at_zero and self(0.0) != 0.0:
            raise ValidationError("vanishes_at_zero set but f(0) != 0")
        if not self.vanishes_at_zero and self(0.0) == 0.0:
            object.__setattr__(self, "vanishes_at_zero", True)

    def _lipschitz(self) -> tuple[float, float]:
        if self.family == "constant":
            return 0.0, 0.0
        if self.family == "affine":
            return abs(self.coeffs[1]), 0.0
        if self.family == "saturating":
            s = abs(self.coeffs[1])
            # derivative s/(1+v)^2 peaks at v=0; second derivative peaks there too
            return s, 2.0 * s
        slopes = np.diff(self.table) / np.diff(self.nodes)
        lip_der = 0.0 if slopes.size <= 1 or np.ptp(slopes) == 0 else math.inf
        return float(np.max(np.abs(slopes))) if slopes.size else 0.0, lip_der

    def _derived_floor(self) -> float | None:
        # only report a floor that holds for every v >= 0, not just the probe
        if self.family == "constant":
            low = self.coeffs[0]
        elif self.family == "affine":
            a, b = self.coeffs
            low = a if b >= 0 else -math.inf
        elif self.family == "saturating":
            cap, s = self.coeffs
            low = cap if s >= 0 else cap + s
        else:
            low = min(self.table)
        return low if low > 0 else None

    # -- evaluation ----------------------------------------------------

    def __call__(self, v):
        """Evaluate at ``v`` (scalar or array); negative inputs clamp to 0."""
        arr = np.asarray(v, dtype=float)
        if self.family == "constant":  # no clamp needed: the value ignores v
            out = np.full_like(arr, self.coeffs[0])
        else:
            w = np.maximum(arr, 0.0)
            if self.family == "affine":
                a, b = self.coeffs
                out = a + b * w
            elif self.family == "saturating":
                cap, s = self.coeffs
                out = cap + s * w / (1.0 + w)
            else:
                out = np.interp(w, self.nodes, self.table)
        return float(out) if arr.ndim == 0 else out

    def antiderivative(self, v):
        """Integral from 0 to ``v`` of the function, elementwise.

        Closed form for the analytic families.  For tables the
        quadrature is composite Simpson on panels aligned with the
        nodes, which integrates each linear piece exactly (absolute
        error well under 1e-10); it reduces to the cumulative
        trapezoid below.
        """
        arr = np.asarray(v, dtype=float)
        w = np.maximum(arr, 0.0)
        if self.family == "constant":
            out = self.coeffs[0] * w
        elif self.family == "affine":
            a, b = self.coeffs
            out = a * w + 0.5 * b * w * w
        elif self.family == "saturating":
            cap, s = self.coeffs
            out = cap * w + s * (w - np.log1p(w))
        else:
            out = self._table_antiderivative(w)
        return float(out) if arr.ndim == 0 else out

    def _table_antiderivative(self, w: np.ndarray) -> np.ndarray:
        x = np.asarray(self.nodes)
        y = np.asarray(self.table)
        if x[0] > 0.0:  # constant extrapolation down to 0
            x = np.concatenate(([0.0], x))
            y = np.concatenate(([y[0]], y))
        slopes = np.append(np.diff(y) / np.diff(x), 0.0)  # constant beyond last node
        cum = np.concatenate(([0.0], np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(x))))
        idx = np.clip(np.searchsorted(x, w, side="right") - 1, 0, len(x) - 1)
        dx = w - x[idx]
        return cum[idx] + y[idx] * dx + 0.5 * slopes[idx] * dx * dx


def taxis_weight(v: ScalarField, chi: FunctionSpec) -> ScalarField:
    """Integrating-factor weight ``exp(-int_0^v chi)`` per cell.

    Values lie in ``(0, 1]`` for nonnegative ``chi`` and ``v``; the
    weighted cell density is ``u`` times this field.
    """
    return v.with_values(np.exp(-chi.antiderivative(v.values)))


# ---------------------------------------------------------------------------
# parameters and state


@dataclass(frozen=True)
class ModelParams:
    """Coefficients of the invasion system.

    ``protease_diffusion`` and ``protease_decay`` must be positive;
    ``growth_rate`` (the logistic coefficient of the cell equation) may
    be zero, which switches off proliferation and makes total cell mass
    exactly conserved.  ``taxis`` is the sensitivity ``chi(v)`` of cell
    drift up matrix gradients; ``production`` is the rate ``g(v)`` at
    which a unit cell density secretes protease.
    """

    protease_diffusion: float
    protease_decay: float
    growth_rate: float
    taxis: FunctionSpec
    production: FunctionSpec

    def __post_init__(self):
        for name in ("protease_diffusion", "protease_decay"):
            x = getattr(self, name)
            if not (math.isfinite(x) and x > 0):
                raise ValidationError(f"{name} must be positive and finite, got {x!r}")
        if not (math.isfinite(self.growth_rate) and self.growth_rate >= 0):
            raise ValidationError(
                f"growth_rate must be finite and >= 0, got {self.growth_rate!r}")
        for name in ("taxis", "production"):
            if not isinstance(getattr(self, name), FunctionSpec):
                raise ValidationError(f"{name} must be a FunctionSpec")


PRIMITIVE = "primitive"
WEIGHTED = "weighted"


@dataclass(frozen=True)
class SimState:
    """Simulation state at one instant.

    ``cells`` holds the cell density ``u`` in the primitive formulation,
    or the weighted density ``u * exp(-int_0^v chi)`` in the weighted
    one.  ``int_protease`` accumulates ``int_0^t m`` per cell; it exists
    to check the exact matrix-decay identities during analysis, and the
    time integral of the protease gradient is derived from it there.
    Nothing else that can be computed from these fields is stored.
    """

    t: float
    cells: ScalarField
    ecm: ScalarField
    protease: ScalarField
    formulation: str = PRIMITIVE
    int_protease: ScalarField | None = None

    def __post_init__(self):
        if self.formulation not in (PRIMITIVE, WEIGHTED):
            raise ValidationError(f"unknown formulation {self.formulation!r}")
        grid = self.cells.grid
        if self.int_protease is None:
            object.__setattr__(self, "int_protease", ScalarField.zeros(grid))
        for f in (self.ecm, self.protease, self.int_protease):
            if f.grid is not grid and f.grid != grid:
                raise ValidationError("all state fields must share one grid")

    @property
    def grid(self) -> Grid:
        return self.cells.grid


def initial_state(u0: ScalarField, v0: ScalarField, m0: ScalarField) -> SimState:
    """Primitive-form state at t=0 with a zeroed time integral."""
    return SimState(0.0, u0, v0, m0, PRIMITIVE)
