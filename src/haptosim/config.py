"""Strict key=value configuration documents and run artifacts.

The format is deliberately flat: five known sections, known keys only,
``#`` comments, one ``key = value`` per line, and an optional leading
byte order mark.  Unknown sections or keys, duplicates, empty values
and malformed values are parse errors that cite the offending line, so
a typo can never silently change which hypotheses a run claims to
satisfy, nor an empty ``dir`` send a run's artifacts into the working
directory.  Semantic problems (negative coefficients, violated regime
hypotheses) surface as validation errors from the model layer instead,
with the violated requirement named; those in the value of one entry
also cite its line and key.

A parsed :class:`~.harness.Scenario` keeps the document text outside
its equality, and the ``config_echo`` artifact reproduces it byte for
byte while it still parses back to the scenario that ran.
"""

from __future__ import annotations

import contextlib
import math
import os
from collections.abc import Callable
from pathlib import Path

import numpy as np

from .analysis import Claim, TheoremReport
from .harness import InitialSpec, RunResult, Scenario
from .model import (
    FamilySpec,
    FunctionSpec,
    ModelParams,
    SimState,
    ValidationError,
    build_grid,
)
from .stepping import StepperConfig

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
    # a leading byte order mark is not part of the first line
    for lineno, raw in enumerate(text.removeprefix("\ufeff").splitlines(), start=1):
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
        if not value:
            raise ConfigError(f"key {key!r} in [{section}] has no value", lineno)
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


def _floats(value: str, lineno: int) -> float | tuple[float, ...]:
    numbers = tuple(_float(part.strip(), lineno) for part in value.split(","))
    # a single entry stays a scalar, which build_grid broadcasts to every axis
    return numbers if len(numbers) > 1 else numbers[0]


def _text(value: str, lineno: int) -> str:
    return value


def _optional(entries: dict, key: str, parse: Callable[[str, int], object]) -> dict:
    """``{key: parse(value, lineno)}`` if the section holds ``key``, else ``{}``,
    so that a key the document leaves out takes its dataclass's default."""
    return {key: parse(*entries[key])} if key in entries else {}


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


# the document key of each model-layer field whose name differs from it
_KEYS = {"growth_rate": "mu", "protease_decay": "gamma",
         "protease_diffusion": "diffusion", "extents": "extent"}


@contextlib.contextmanager
def _located(lines: dict[str, int], key: str | None = None):
    """Raise a model-layer ValidationError again, as the same type, with
    the line and key of the entry at fault in front.

    That entry is ``key`` if given, else the one that holds the field the
    error names.  An error that names no entry of ``lines`` is raised
    unchanged: a regime hypothesis or the step budget involves several.
    """
    try:
        yield
    except ValidationError as exc:
        key = key or _KEYS.get(exc.field, exc.field)
        if key not in lines:
            raise
        raise ValidationError(f"line {lines[key]}: {key}: {exc}") from None


def _spec(cls: type[FamilySpec], key: str, value: str, lineno: int) -> FamilySpec:
    """Parse the ``family(args)`` entry ``key`` through that family's classmethod.

    ``cls.ARITY`` gives the family's coefficient count, or None for a
    table of ``x:y`` pairs; trailing arguments that the classmethod
    gives defaults may be left out.  A ValidationError from the model
    layer is raised again, as the same type, with the entry's line and
    key in front.
    """
    family, args = _call_form(value, lineno)
    arity = cls.ARITY.get(family, 0)
    with _located({key: lineno}, key):
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
    including the regime hypotheses the built Scenario checks.  An error
    in the value of one entry cites its line and key.
    """
    data = _scan(text)
    model, grid_sec, st, init = (data[name] for name in
                                 ("model", "grid", "stepper", "initial"))
    # every key's line, by key alone: no key belongs to two sections
    lines = {key: lineno for entries in data.values()
             for key, (_, lineno) in entries.items()}
    regime, _ = model["regime"]
    name, _ = model.get("name", model["regime"])
    with _located(lines):
        params = ModelParams(
            growth_rate=_float(*model["mu"]),
            protease_decay=_float(*model["gamma"]),
            protease_diffusion=_float(*model["diffusion"]),
            taxis=_spec(FunctionSpec, "taxis", *model["taxis"]),
            production=_spec(FunctionSpec, "production", *model["production"]))

        cells_text, cells_line = grid_sec["cells"]
        cells = tuple(_int(part.strip(), cells_line) for part in cells_text.split(","))
        # the cells alone first, so that a bad cells entry is blamed before
        # an extent or origin list is compared with it
        build_grid(cells, 1.0)
        grid = build_grid(cells, _floats(*grid_sec["extent"]),
                          **_optional(grid_sec, "origin", _floats))

        # upwind is the only drift flux; the key stays so that documents that
        # name it, the benchmark's workloads among them, still parse (ROADMAP
        # item 1 drops it)
        flux, flux_line = st.get("flux", ("upwind", None))
        if flux != "upwind":
            raise ConfigError(f"flux: upwind is the only drift flux, got {flux!r}",
                              flux_line)
        stepper = StepperConfig(
            _float(*st["t_end"]), _float(*st["dt_max"]), _float(*st["record_every"]),
            **_optional(st, "cfl", _float))

        return Scenario(
            name=name, regime=regime, params=params, grid=grid, stepper=stepper,
            initial_cells=_spec(InitialSpec, "u0", *init["u0"]),
            initial_matrix=_spec(InitialSpec, "v0", *init["v0"]),
            initial_protease=_spec(InitialSpec, "m0", *init["m0"]),
            **_optional(model, "formulation", _text),
            **_optional(init, "seed", _int), **_optional(init, "jitter", _float),
            source_text=text)


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
        "flux = upwind",
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
    on read-back.  Snapshots hold the run's records, whose cells are
    ``u`` whichever formulation the run used.  Two records whose times agree
    to the 6 decimals of the snapshot name raise ValidationError before
    anything is touched, as does a ``source_text`` that does not parse.
    Files an earlier run left that this one does not rewrite are
    deleted: other ``snapshots/state_*.csv`` files and, when ``report``
    is None, ``report.txt``.  Nothing else is touched.  config_echo is
    ``source_text`` while that parses back to the scenario, else
    :func:`scenario_to_config`'s rendering.

    The snapshots are written by one process per usable CPU, this one and
    forked children (see :func:`_write_snapshots`); the bytes are the
    same on any number of CPUs.  Everything else is written here: the
    collision check, the deletions, series.csv and the snapshot row
    templates come before the fork, report.txt and config_echo after
    the last child is reaped.  Snapshot files that could not be written
    are named in one OSError.  Returns the paths written, in the order
    above with the snapshots in record order.
    """
    out = Path(out_dir)
    echo = result.scenario.source_text
    if echo is None or parse_config(echo) != result.scenario:
        echo = scenario_to_config(result.scenario)
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
    free = [t, *(s.values for s in series)]
    written = [_write_table(out / "series.csv", ["t", *result.series],
                            _templates(len(t), lambda rows: np.empty((len(rows), 0)),
                                       len(free)), free)]

    # every record shares the scenario's grid, so its index and coordinate
    # columns are rendered once, into the templates
    grid = result.scenario.grid
    header = ["i", "j", "k"][:grid.dims] + ["x", "y", "z"][:grid.dims] + ["u", "v", "m"]

    def grid_columns(rows: np.ndarray) -> np.ndarray:
        index = np.unravel_index(rows, grid.shape)
        return np.column_stack(
            [*index, *(grid.axis_centers(d)[i] for d, i in enumerate(index))])

    templates = _templates(math.prod(grid.shape), grid_columns, 3)
    _write_snapshots(
        [(path, [f.values.ravel() for f in (state.cells, state.ecm, state.protease)])
         for path, state in snapshots.items()], header, templates)
    written.extend(snapshots)

    if report is not None:
        report_path = out / "report.txt"
        with open(report_path, "w", encoding="utf-8", newline="\n") as fh:
            for c in report.claims:
                fh.write(claim_line(c) + "\n")
        written.append(report_path)

    echo_path = out / "config_echo.ini"
    echo_path.write_text(echo, encoding="utf-8", newline="")
    written.append(echo_path)
    return written


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _write_snapshots(tables: list[tuple[Path, list[np.ndarray]]],
                     header: list[str], templates: list[str]) -> None:
    """Write each ``(path, free columns)`` table, one interleaved share per CPU.

    The tables are split into ``k`` shares, ``tables[j::k]``, where ``k``
    is the number of usable CPUs but at most the number of tables, and 1
    where ``os.fork`` is missing.  This process writes share 0, and each
    other share is written by a forked child; a share whose fork raised is
    written here too.  Every file is written by :func:`_write_table` in
    one process, so the bytes do not depend on ``k``.

    Forking is safe here although numpy's BLAS thread pool makes the
    process multi-threaded, which Python 3.12 and later warn about with a
    DeprecationWarning: a lock another thread held at the fork is one the
    child never takes.  The child imports nothing, logs nothing, calls no
    BLAS and touches only the files it creates.  It runs
    :func:`_write_table` over the arrays it inherited and leaves through
    ``os._exit``, which runs no exit handler and flushes no inherited
    buffer.  Its exit status is its one report: 0 when every file of its
    share was written, 1 otherwise.

    Every child is reaped before this returns or raises, also when this
    process's own share raised or was interrupted.  After that, and only
    if nothing raised, this process writes again each share whose child
    left with 1, and so learns the error of each file that cannot be
    written.  A child that left with any other status is named with its
    files.  Files that could not be written, in any share, are named in
    one OSError.
    """
    k = max(1, min(_usable_cpus(), len(tables))) if hasattr(os, "fork") else 1
    mine, children, again, failures = [tables[0::k]], {}, [], []
    try:
        for share in (tables[j::k] for j in range(1, k)):
            try:
                pid = os.fork()
            except OSError:
                mine.append(share)
                continue
            if pid == 0:
                status = 1
                try:
                    status = 1 if _write_share(share, header, templates) else 0
                finally:
                    os._exit(status)
            children[pid] = share
        for share in mine:
            failures += _write_share(share, header, templates)
    finally:
        for pid, share in children.items():
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if code == 1:
                again.append(share)
            elif code:
                failures.append(f"{', '.join(str(path) for path, _ in share)}: "
                                f"writer process exited with code {code}")
    for share in again:
        failures += _write_share(share, header, templates)
    if failures:
        raise OSError("could not write " + "; ".join(failures))


def _write_share(share: list[tuple[Path, list[np.ndarray]]], header: list[str],
                 templates: list[str]) -> list[str]:
    """Write every table of ``share``; returns one message per file that failed."""
    failures = []
    for path, free in share:
        try:
            _write_table(path, header, templates, free)
        except OSError as exc:
            failures.append(f"{path}: {exc.strerror or exc}")
    return failures


# Rows are written in blocks of this many, each filled by one "%" call.
# Blocks of 1024 rows or whole records are no faster, and on a 24x20x16
# grid they raised the peak RSS by 4-5 MB of freed heap that glibc kept.
# No whole-table array is built either: on that grid the six fixed
# columns of a snapshot, stacked whole next to the templates, raised the
# peak of writing its snapshots from about 0.5 MB to about 1.4 MB.
_BLOCK_ROWS = 128


def _templates(n_rows: int, fixed: Callable[[np.ndarray], np.ndarray],
               free: int) -> list[str]:
    """Row templates of an ``n_rows``-row table, one string per block of rows.

    Each row holds its fixed columns, which ``fixed`` returns for the row
    numbers of one block as a 2D array and which are rendered here at
    ``%.17g``, then ``free`` ``%.17g`` slots for :func:`_write_table` to fill.
    """
    slots = ",".join(["%.17g"] * free) + "\n"
    templates = []
    for start in range(0, n_rows, _BLOCK_ROWS):
        block = fixed(np.arange(start, min(start + _BLOCK_ROWS, n_rows)))
        head = "%.17g," * block.shape[1]
        templates.append("".join([head % tuple(row) + slots for row in block.tolist()]))
    return templates


def _write_table(path: Path, header: list[str], templates: list[str],
                 free: list[np.ndarray]) -> Path:
    """A header line, then the rows of the ``free`` columns filled into ``templates``.

    The bytes are those of ``np.savetxt(fmt="%.17g", delimiter=",")`` on
    the fixed and free columns side by side, under the same header.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start, template in zip(range(0, len(free[0]), _BLOCK_ROWS), templates):
            block = np.column_stack([c[start:start + _BLOCK_ROWS] for c in free])
            fh.write(template % tuple(block.ravel().tolist()))
    return path
