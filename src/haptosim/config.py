"""Strict key=value configuration documents and run artifacts.

The format is deliberately flat: five known sections, known keys only,
``#`` comments, one ``key = value`` per line.  Unknown sections or
keys, duplicates, and malformed values are parse errors that cite the
offending line, so a typo can never silently change which hypotheses a
run claims to satisfy.  Semantic problems (negative coefficients,
violated regime hypotheses) surface as validation errors from the
model layer instead, with the violated requirement named.

A parsed :class:`~.harness.Scenario` keeps the exact document text, so
the ``config_echo`` artifact written next to run outputs reproduces
the input byte for byte and re-parses to an identical scenario.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .harness import (
    Claim,
    InitialSpec,
    RunResult,
    Scenario,
    TheoremReport,
    validate_scenario,
)
from .model import (
    FamilySpec,
    FunctionSpec,
    ModelParams,
    PRIMITIVE,
    SimState,
    ValidationError,
    build_grid,
)
from .stepping import StepperConfig, as_primitive

SECTIONS = {
    "model": {"name", "regime", "mu", "gamma", "diffusion", "taxis",
              "production", "formulation"},
    "grid": {"cells", "extent", "origin"},
    "stepper": {"t_end", "dt_max", "record_every", "cfl", "flux"},
    "initial": {"u0", "v0", "m0", "seed", "jitter"},
    "output": {"dir"},
}

REQUIRED = {
    "model": ("regime", "mu", "gamma", "diffusion", "taxis", "production"),
    "grid": ("cells", "extent"),
    "stepper": ("t_end", "dt_max", "record_every"),
    "initial": ("u0", "v0", "m0"),
    "output": (),
}


class ConfigError(ValueError):
    """Malformed configuration text; carries the offending line number."""

    def __init__(self, message: str, lineno: int | None = None):
        self.lineno = lineno
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)


# ---------------------------------------------------------------------------
# parsing


def _scan(text: str) -> dict[str, dict[str, tuple[str, int]]]:
    """Split the document into sections of (value, lineno) entries."""
    out: dict[str, dict[str, tuple[str, int]]] = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"malformed section header {raw.strip()!r}", lineno)
            name = line[1:-1].strip()
            if name not in SECTIONS:
                raise ConfigError(f"unknown section [{name}]", lineno)
            if name in out:
                raise ConfigError(f"duplicate section [{name}]", lineno)
            out[name] = {}
            section = name
            continue
        if "=" not in line:
            raise ConfigError(f"expected key = value, got {raw.strip()!r}", lineno)
        if section is None:
            raise ConfigError("key before any section header", lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in SECTIONS[section]:
            raise ConfigError(f"unknown key {key!r} in [{section}]", lineno)
        if key in out[section]:
            raise ConfigError(f"duplicate key {key!r} in [{section}]", lineno)
        out[section][key] = (value, lineno)
    for name in ("model", "grid", "stepper", "initial"):
        if name not in out:
            raise ConfigError(f"missing section [{name}]")
        for key in REQUIRED[name]:
            if key not in out[name]:
                raise ConfigError(f"missing required key {key!r} in [{name}]")
    return out


def _float(value: str, lineno: int) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"expected a number, got {value!r}", lineno) from None


def _int(value: str, lineno: int) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"expected an integer, got {value!r}", lineno) from None


def _floats(value: str, lineno: int) -> tuple[float, ...]:
    return tuple(_float(part.strip(), lineno) for part in value.split(","))


def _call_form(value: str, lineno: int) -> tuple[str, list[str]]:
    head, sep, rest = value.partition("(")
    if not sep or not rest.rstrip().endswith(")"):
        raise ConfigError(f"expected name(args), got {value!r}", lineno)
    args = rest.rstrip()[:-1].strip()
    return head.strip(), [a.strip() for a in args.split(",")] if args else []


def _pairs(args: list[str], lineno: int) -> tuple[list[float], list[float]]:
    xs, ys = [], []
    for item in args:
        x, sep, y = item.partition(":")
        if not sep:
            raise ConfigError(f"expected x:y pair, got {item!r}", lineno)
        xs.append(_float(x.strip(), lineno))
        ys.append(_float(y.strip(), lineno))
    return xs, ys


# the value grammar of each spec type, as cited in its parse errors
_FORMS = {
    FunctionSpec: "constant(c), affine(a, b), saturating(cap, slope) or "
                  "tabulated(x:y, ...)",
    InitialSpec: "constant(c), bump(center, width, amplitude[, offset]) or "
                 "tabulated(x:y, ...)",
}


def _spec(cls: type[FamilySpec], value: str, lineno: int) -> FamilySpec:
    """Parse ``family(args)`` through the classmethod of that family.

    ``cls.ARITY`` gives the family's coefficient count, or None for a
    table of ``x:y`` pairs; trailing arguments that the classmethod
    gives defaults may be left out.
    """
    family, args = _call_form(value, lineno)
    arity = cls.ARITY.get(family, 0)
    if arity is None and args:
        return cls.tabulated(*_pairs(args, lineno))
    if arity:
        build = getattr(cls, family)
        if arity - len(build.__defaults__ or ()) <= len(args) <= arity:
            return build(*(_float(a, lineno) for a in args))
    raise ConfigError(f"expected {_FORMS[cls]}, got {value!r}", lineno)


def parse_config(text: str) -> Scenario:
    """Parse and fully validate a configuration document.

    Raises :class:`ConfigError` for structural problems (with the line
    number) and the model layer's validation errors for semantic ones,
    including the regime-hypothesis checks.
    """
    data = _scan(text)

    def take(section: str, key: str, default=None):
        entry = data.get(section, {}).get(key)
        return entry if entry is not None else (default, None)

    model = data["model"]
    regime, _ = take("model", "regime")
    name, _ = take("model", "name", regime)
    mu_text, mu_line = model["mu"]
    params = ModelParams(
        growth_rate=_float(mu_text, mu_line),
        protease_decay=_float(*model["gamma"]),
        protease_diffusion=_float(*model["diffusion"]),
        taxis=_spec(FunctionSpec, *model["taxis"]),
        production=_spec(FunctionSpec, *model["production"]))
    formulation, _ = take("model", "formulation", PRIMITIVE)

    grid_sec = data["grid"]
    cells_text, cells_line = grid_sec["cells"]
    cells = tuple(_int(part.strip(), cells_line) for part in cells_text.split(","))
    extent = _floats(*grid_sec["extent"])
    origin_text, origin_line = take("grid", "origin")
    origin = _floats(origin_text, origin_line) if origin_text is not None else (0.0,)
    grid = build_grid(cells, extent if len(extent) > 1 else extent[0],
                      origin if len(origin) > 1 else origin[0])

    st = data["stepper"]
    cfl_text, cfl_line = take("stepper", "cfl")
    flux, _ = take("stepper", "flux", "upwind")
    stepper = StepperConfig(
        _float(*st["t_end"]), _float(*st["dt_max"]), _float(*st["record_every"]),
        _float(cfl_text, cfl_line) if cfl_text is not None else 0.5)

    init = data["initial"]
    seed_text, seed_line = take("initial", "seed")
    jitter_text, jitter_line = take("initial", "jitter")
    scenario = Scenario(
        name=name, regime=regime, params=params, grid=grid, stepper=stepper,
        initial_cells=_spec(InitialSpec, *init["u0"]),
        initial_matrix=_spec(InitialSpec, *init["v0"]),
        initial_protease=_spec(InitialSpec, *init["m0"]),
        seed=_int(seed_text, seed_line) if seed_text is not None else 0,
        jitter=_float(jitter_text, jitter_line) if jitter_text is not None else 0.0,
        flux_scheme=flux, formulation=formulation, source_text=text)
    validate_scenario(scenario)
    return scenario


def output_dir(text: str) -> str | None:
    """The [output] dir entry of a document, if present."""
    entry = _scan(text).get("output", {}).get("dir")
    return entry[0] if entry else None


# ---------------------------------------------------------------------------
# rendering


def _render_spec(spec: FamilySpec) -> str:
    if spec.table is not None:
        args = (f"{x!r}:{y!r}" for x, y in zip(spec.nodes, spec.table))
    else:
        args = (repr(c) for c in spec.coeffs)
    return f"{spec.family}({', '.join(args)})"


def scenario_to_config(scenario: Scenario) -> str:
    """Canonical document for a scenario; re-parsing it round-trips."""
    p, g, st = scenario.params, scenario.grid, scenario.stepper
    lines = [
        "[model]",
        f"name = {scenario.name}",
        f"regime = {scenario.regime}",
        f"mu = {p.growth_rate!r}",
        f"gamma = {p.protease_decay!r}",
        f"diffusion = {p.protease_diffusion!r}",
        f"taxis = {_render_spec(p.taxis)}",
        f"production = {_render_spec(p.production)}",
        f"formulation = {scenario.formulation}",
        "",
        "[grid]",
        f"cells = {', '.join(str(n) for n in g.cells)}",
        f"extent = {', '.join(repr(e) for e in g.extents)}",
        f"origin = {', '.join(repr(o) for o in g.origin)}",
        "",
        "[stepper]",
        f"t_end = {st.t_end!r}",
        f"dt_max = {st.dt_max!r}",
        f"record_every = {st.record_every!r}",
        f"cfl = {st.cfl!r}",
        f"flux = {scenario.flux_scheme}",
        "",
        "[initial]",
        f"u0 = {_render_spec(scenario.initial_cells)}",
        f"v0 = {_render_spec(scenario.initial_matrix)}",
        f"m0 = {_render_spec(scenario.initial_protease)}",
        f"seed = {scenario.seed}",
        f"jitter = {scenario.jitter!r}",
    ]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# run artifacts


def claim_line(c: Claim, spec: str = ".17g") -> str:
    """One claim as a report line, numbers formatted with ``spec``."""
    line = (f"{c.claim_id:32s} {c.verdict:14s} "
            f"measured={c.measured:{spec}} threshold={c.threshold:{spec}}")
    if c.fitted is not None:
        line += f" rate={c.fitted.rate:{spec}} r_squared={c.fitted.r_squared:{spec}}"
    return line


def emit_outputs(result: RunResult, report: TheoremReport | None,
                 out_dir: str | Path) -> list[Path]:
    """Write series.csv, per-record snapshots, report.txt, config_echo.

    series.csv and the snapshots share one table writer, whose numbers
    carry 17 significant digits, enough to reproduce the exact doubles
    on read-back.  Snapshots always contain the primitive cell density,
    whichever formulation the run used.  Two records whose times agree
    to the 6 decimals of the snapshot name raise ValidationError before
    anything is touched.  Files an earlier run left that this one does
    not rewrite are deleted: other ``snapshots/state_*.csv`` files and,
    when ``report`` is None, ``report.txt``.  Nothing else is touched.
    Returns the paths written.
    """
    out = Path(out_dir)
    snapshots: dict[Path, SimState] = {}
    for state in result.recorded_states:
        path = out / "snapshots" / f"state_{state.t:.6f}.csv"
        if path in snapshots:
            raise ValidationError(
                f"records at t={snapshots[path].t!r} and t={state.t!r} would "
                f"both be written to snapshots/{path.name}")
        snapshots[path] = state

    (out / "snapshots").mkdir(parents=True, exist_ok=True)
    for path in (out / "snapshots").glob("state_*.csv"):
        if path not in snapshots:
            path.unlink()
    if report is None:
        (out / "report.txt").unlink(missing_ok=True)

    series = list(result.series.values())
    t = series[0].t if series else np.empty(0)
    written = [_write_table(out / "series.csv", ["t", *result.series],
                            _templates(np.empty((len(t), 0)), 1 + len(series)),
                            np.column_stack([t] + [s.values for s in series]))]

    # every record shares the scenario's grid, so its index and coordinate
    # columns are rendered once, into the templates
    grid, params = result.scenario.grid, result.scenario.params
    header = ["i", "j", "k"][:grid.dims] + ["x", "y", "z"][:grid.dims] + ["u", "v", "m"]
    indices = np.meshgrid(*(np.arange(n) for n in grid.shape), indexing="ij")
    templates = _templates(
        np.column_stack([f.ravel() for f in (*indices, *grid.centers())]), 3)
    for path, state in snapshots.items():
        prim = as_primitive(state, params)
        fields = (prim.cells.values, prim.ecm.values, prim.protease.values)
        written.append(_write_table(path, header, templates,
                                    np.column_stack([f.ravel() for f in fields])))

    if report is not None:
        report_path = out / "report.txt"
        with open(report_path, "w", encoding="utf-8", newline="\n") as fh:
            for c in report.claims:
                fh.write(claim_line(c) + "\n")
        written.append(report_path)

    echo_path = out / "config_echo.ini"
    text = result.scenario.source_text
    if text is None:
        text = scenario_to_config(result.scenario)
    echo_path.write_text(text, encoding="utf-8")
    written.append(echo_path)
    return written


# Rows are written in blocks of this many, each filled by one "%" call.
# Blocks of 1024 rows or whole records are no faster, and on a 24x20x16
# grid they raised the peak RSS by 4-5 MB of freed heap that glibc kept.
_BLOCK_ROWS = 128


def _templates(fixed: np.ndarray, free: int) -> list[str]:
    """Row templates of a table, one string per block of rows.

    Each row holds its ``fixed`` columns, already rendered at ``%.17g``,
    then ``free`` ``%.17g`` slots for :func:`_write_table` to fill.
    """
    head = "%.17g," * fixed.shape[1]
    slots = ",".join(["%.17g"] * free) + "\n"
    return ["".join([head % tuple(row) + slots
                     for row in fixed[start:start + _BLOCK_ROWS].tolist()])
            for start in range(0, len(fixed), _BLOCK_ROWS)]


def _write_table(path: Path, header: list[str], templates: list[str],
                 free: np.ndarray) -> Path:
    """A header line, then the rows of ``free`` filled into ``templates``.

    The bytes are those of ``np.savetxt(fmt="%.17g", delimiter=",")`` on
    the fixed and free columns side by side, under the same header.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start, template in zip(range(0, len(free), _BLOCK_ROWS), templates):
            block = free[start:start + _BLOCK_ROWS]
            fh.write(template % tuple(block.ravel().tolist()))
    return path
