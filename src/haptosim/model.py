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
from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np

__all__ = [
    "ValidationError",
    "Grid",
    "build_grid",
    "ScalarField",
    "FamilySpec",
    "FunctionSpec",
    "ModelParams",
    "SimState",
    "initial_state",
    "taxis_weight",
]

class ValidationError(ValueError):
    """Raised when grid, field, coefficient, or parameter data is invalid.

    ``field`` names the field or argument whose own value a check
    rejected, when the check looks at that one value; else it is None.
    """

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


def _as_tuple(value, dims: int, kind: type, name: str) -> tuple:
    """``value`` once per axis: a scalar is broadcast, a sequence must match."""
    if isinstance(value, (int, float)):
        return tuple(kind(value) for _ in range(dims))
    out = tuple(kind(x) for x in value)
    if len(out) != dims:
        raise ValidationError(
            f"{name} has {len(out)} entries, but cells has {dims}", name)
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
            raise ValidationError(f"grid dims must be 1..3, got {dims}", "cells")
        if len(self.extents) != dims or len(self.origin) != dims:
            raise ValidationError("cells, extents, origin must agree in length")
        if any(n < 2 for n in self.cells):
            raise ValidationError(f"need at least 2 cells per dim, got {self.cells}",
                                  "cells")
        if any(not (e > 0 and math.isfinite(e)) for e in self.extents):
            raise ValidationError(f"extents must be positive finite, got {self.extents}",
                                  "extents")
        if any(not math.isfinite(o) for o in self.origin):
            raise ValidationError("origin must be finite", "origin")

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
    extents_t = _as_tuple(extents, dims, float, "extents")
    origin_t = _as_tuple(origin, dims, float, "origin")
    return Grid(cells_t, extents_t, origin_t)


_FLOAT64 = np.dtype(float)
# sets a field of a frozen dataclass, as its generated __init__ does
_set = object.__setattr__


@dataclass(frozen=True, init=False)
class ScalarField:
    """One real value per grid cell.

    ``values`` is a float64 array of shape ``grid.shape``.  Fields are
    treated as immutable: operations build new fields rather than
    mutating in place.
    """

    grid: Grid
    values: np.ndarray

    # written out, not generated: a stepper builds several fields a step,
    # and the generated __init__ calls __post_init__ on top.  The fields are
    # set through object.__setattr__, as the generated one does; writing
    # them into ``__dict__`` would give every field a dict of its own, 64
    # bytes more on each field a run keeps
    def __init__(self, grid: Grid, values: np.ndarray):
        # a float64 ndarray is kept as is, which is what asarray would do
        if type(values) is not np.ndarray or values.dtype is not _FLOAT64:
            values = np.asarray(values, dtype=float)
        if values.shape != grid.cells:
            raise ValidationError(
                f"field shape {values.shape} does not match grid {grid.shape}")
        _set(self, "grid", grid)
        _set(self, "values", values)

    @classmethod
    def full(cls, grid: Grid, value: float) -> "ScalarField":
        return cls(grid, np.full(grid.shape, float(value)))

    @classmethod
    def zeros(cls, grid: Grid) -> "ScalarField":
        return cls(grid, np.zeros(grid.shape))

    def with_values(self, values: np.ndarray) -> "ScalarField":
        return ScalarField(self.grid, values)


# ---------------------------------------------------------------------------
# families of functions, defined by their numbers


def _check_table(nodes: tuple[float, ...], table: tuple[float, ...]) -> None:
    """A table must be finite, matched, at least 2 long, and strictly increasing in x."""
    if len(nodes) != len(table) or len(nodes) < 2:
        raise ValidationError("tabulated nodes and table must match, length >= 2")
    if not all(map(math.isfinite, nodes + table)):
        raise ValidationError(
            f"tabulated nodes and table must be finite, got nodes {nodes} "
            f"and table {table}")
    if any(b <= a for a, b in zip(nodes, nodes[1:])):
        raise ValidationError("tabulated nodes must be strictly increasing")


@dataclass(frozen=True)
class FamilySpec:
    """A member of a named family, held as the numbers that define it.

    Subclasses map each family to its number of coefficients in
    ``ARITY``, or to None for ``tabulated``, which holds ``nodes`` and
    ``table`` instead.  Each family has a classmethod of its name that
    takes those numbers.  Every other property is derived from the four
    fields, which are all that equality compares.
    """

    family: str
    coeffs: tuple[float, ...] = ()
    nodes: tuple[float, ...] | None = None
    table: tuple[float, ...] | None = None

    ARITY: ClassVar[dict[str, int | None]] = {}
    KIND: ClassVar[str] = "family"  # names the spec type in errors

    def __post_init__(self):
        if self.family not in self.ARITY:
            raise ValidationError(f"unknown {self.KIND} {self.family!r}")
        for name in ("coeffs", "nodes", "table"):
            value = getattr(self, name)
            if value is not None:
                object.__setattr__(self, name, tuple(float(x) for x in value))
        arity = self.ARITY[self.family]
        if arity is None:
            if self.coeffs or self.nodes is None or self.table is None:
                raise ValidationError(
                    "tabulated needs nodes and table, and no coefficients")
            _check_table(self.nodes, self.table)
        elif len(self.coeffs) != arity or (self.nodes, self.table) != (None, None):
            raise ValidationError(
                f"{self.KIND} {self.family!r} takes {arity} coefficients and no table")

    @classmethod
    def tabulated(cls, nodes: Sequence[float], table: Sequence[float]) -> FamilySpec:
        return cls("tabulated", (), nodes, table)


class FunctionSpec(FamilySpec):
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
    Construction requires finite coefficients, nodes ``>= 0``, and a
    function that is nonnegative for every ``v >= 0``: its infimum
    there has a closed form per family, so the check is exact.
    ``positive_floor``, ``vanishes_at_zero`` and ``lipschitz_value``
    are derived from the coefficients.
    """

    ARITY = {"constant": 1, "affine": 2, "saturating": 2, "tabulated": None}
    KIND = "function family"

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, c: float) -> "FunctionSpec":
        return cls("constant", (c,))

    @classmethod
    def affine(cls, a: float, b: float) -> "FunctionSpec":
        return cls("affine", (a, b))

    @classmethod
    def saturating(cls, cap: float, slope: float) -> "FunctionSpec":
        return cls("saturating", (cap, slope))

    # -- validation and derived values --------------------------------

    def __post_init__(self):
        super().__post_init__()
        if not all(map(math.isfinite, self.coeffs)):
            raise ValidationError("coefficients must be finite")
        if self.nodes is not None and self.nodes[0] < 0:
            raise ValidationError("tabulated nodes must be >= 0")
        low = self._infimum()
        if low < 0:
            raise ValidationError(
                f"{self.family} function has infimum {low:g} over v >= 0; "
                f"it must be >= 0")

    def _infimum(self) -> float:
        """Exact infimum over ``v >= 0``."""
        if self.family == "constant":
            return self.coeffs[0]
        if self.family == "affine":
            a, b = self.coeffs
            return a if b >= 0 else -math.inf
        if self.family == "saturating":
            cap, s = self.coeffs  # v / (1 + v) sweeps [0, 1)
            return cap if s >= 0 else cap + s
        return min(self.table)  # constant extrapolation past both ends

    # computed once per spec: the values land in the instance dict and stay
    # out of eq and hash

    @functools.cached_property
    def positive_floor(self) -> float | None:
        """The infimum over ``v >= 0`` when it is above 0, else None."""
        low = self._infimum()
        return low if low > 0 else None

    @functools.cached_property
    def vanishes_at_zero(self) -> bool:
        return self(0.0) == 0.0

    @functools.cached_property
    def lipschitz_value(self) -> float:
        """Lipschitz constant over ``v >= 0``, in closed form."""
        if self.family == "constant":
            return 0.0
        if self.family in ("affine", "saturating"):
            # the saturating derivative s/(1+v)^2 peaks at v=0
            return abs(self.coeffs[1])
        slopes = np.diff(self.table) / np.diff(self.nodes)
        return float(np.max(np.abs(slopes)))

    # -- evaluation ----------------------------------------------------

    def __call__(self, v):
        """Evaluate at ``v`` (scalar or array); negative inputs clamp to 0."""
        # a float64 ndarray is used as is, which is what asarray would do
        arr = (v if type(v) is np.ndarray and v.dtype is _FLOAT64
               else np.asarray(v, dtype=float))
        if self.family == "constant":  # no clamp needed: the value ignores v
            out = np.empty_like(arr)
            out.fill(self.coeffs[0])
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

        Closed form for the analytic families, and for tables too: the
        integral of a piecewise-linear function is piecewise quadratic,
        summed node to node, so it is exact to roundoff.
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
                raise ValidationError(f"{name} must be positive and finite, got {x!r}",
                                      name)
        if not (math.isfinite(self.growth_rate) and self.growth_rate >= 0):
            raise ValidationError(
                f"growth_rate must be finite and >= 0, got {self.growth_rate!r}",
                "growth_rate")
        for name in ("taxis", "production"):
            if not isinstance(getattr(self, name), FunctionSpec):
                raise ValidationError(f"{name} must be a FunctionSpec")

    def steady_protease(self, cell_level: float) -> float:
        """The flat protease level ``k * g(0) / gamma`` that balances a flat
        cell level ``k`` on bare matrix; with ``k = u_bar`` it is the limit
        ``m*`` of regime theorem_bound3, and the matrix's decay rate there."""
        return cell_level * float(self.production(0.0)) / self.protease_decay


PRIMITIVE = "primitive"
WEIGHTED = "weighted"


@dataclass(frozen=True, init=False)
class SimState:
    """Simulation state at one instant.

    ``cells`` holds the cell density ``u`` in either ``formulation``,
    which only names the scheme that steps the state.  ``int_protease``
    accumulates ``int_0^t m`` per cell; it exists to check the exact
    matrix-decay identities during analysis, and the time integral of
    the protease gradient is derived from it there.  Nothing else that
    can be computed from these fields is stored.
    """

    t: float
    cells: ScalarField
    ecm: ScalarField
    protease: ScalarField
    formulation: str = PRIMITIVE
    int_protease: ScalarField | None = None

    # written out, not generated, for the reason ScalarField's is
    def __init__(self, t: float, cells: ScalarField, ecm: ScalarField,
                 protease: ScalarField, formulation: str = PRIMITIVE,
                 int_protease: ScalarField | None = None):
        if formulation not in (PRIMITIVE, WEIGHTED):
            raise ValidationError(f"unknown formulation {formulation!r}")
        grid = cells.grid
        if int_protease is None:
            int_protease = ScalarField.zeros(grid)
        # fields stepped from one another share the grid object itself
        if not (ecm.grid is protease.grid is int_protease.grid is grid):
            if any(f.grid != grid for f in (ecm, protease, int_protease)):
                raise ValidationError("all state fields must share one grid")
        _set(self, "t", t)
        _set(self, "cells", cells)
        _set(self, "ecm", ecm)
        _set(self, "protease", protease)
        _set(self, "formulation", formulation)
        _set(self, "int_protease", int_protease)

    @property
    def grid(self) -> Grid:
        return self.cells.grid


def initial_state(u0: ScalarField, v0: ScalarField, m0: ScalarField) -> SimState:
    """State at t=0, tagged for the primitive scheme, with a zeroed time integral."""
    return SimState(0.0, u0, v0, m0, PRIMITIVE)
