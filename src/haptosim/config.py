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
    on read-back: the bytes of ``"%.17g" % x``, rendered a block of rows
    at a time by one numpy kernel (see :func:`_render`).  Snapshots hold
    the run's records, whose cells are ``u`` whichever formulation the
    run used.  Two records whose times agree
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
    prefixes come before the fork, report.txt and config_echo after
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
                            _prefixes(len(t), lambda rows: np.empty((len(rows), 0)),
                                      len(free)), free)]

    # every record shares the scenario's grid, so its index and coordinate
    # columns are rendered once, into the row prefixes
    grid = result.scenario.grid
    header = ["i", "j", "k"][:grid.dims] + ["x", "y", "z"][:grid.dims] + ["u", "v", "m"]

    def grid_columns(rows: np.ndarray) -> np.ndarray:
        index = np.unravel_index(rows, grid.shape)
        return np.column_stack(
            [*index, *(grid.axis_centers(d)[i] for d, i in enumerate(index))])

    prefixes = _prefixes(math.prod(grid.shape), grid_columns, 3)
    _write_snapshots(
        [(path, [f.values.ravel() for f in (state.cells, state.ecm, state.protease)])
         for path, state in snapshots.items()], header, prefixes)
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
                     header: list[str], prefixes: list[np.ndarray]) -> None:
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
                    status = 1 if _write_share(share, header, prefixes) else 0
                finally:
                    os._exit(status)
            children[pid] = share
        for share in mine:
            failures += _write_share(share, header, prefixes)
    finally:
        for pid, share in children.items():
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if code == 1:
                again.append(share)
            elif code:
                failures.append(f"{', '.join(str(path) for path, _ in share)}: "
                                f"writer process exited with code {code}")
    for share in again:
        failures += _write_share(share, header, prefixes)
    if failures:
        raise OSError("could not write " + "; ".join(failures))


def _write_share(share: list[tuple[Path, list[np.ndarray]]], header: list[str],
                 prefixes: list[np.ndarray]) -> list[str]:
    """Write every table of ``share``; returns one message per file that failed."""
    failures = []
    for path, free in share:
        try:
            _write_table(path, header, prefixes, free)
        except OSError as exc:
            failures.append(f"{path}: {exc.strerror or exc}")
    return failures


# ---------------------------------------------------------------------------
# the table writer and its %.17g kernel
#
# _render writes the bytes of "%.17g" % v for a whole array of doubles, each
# into a slot of four little-endian 64-bit words; PAD (zero) bytes fill the
# slot around the text and are dropped when the rows are written.
#
#   word 0      sign and a "0.", "0.0", "0.00" or "0.000" prefix, ending at
#               byte 5 (byte 6 for the prefixes), or "inf", "-inf", "nan"
#   bytes 6-23  the significant digits, 7 + i holding digit i, with the
#               point moved in after digit q by shifting digits 0..q down one
#   bytes 24-28 "e+XX" or "e-XXX" in exponent form
#   byte 31     left to the caller, for the separator
#
# With x = D * 10**(X - 16), D the 17 digits, "%.17g" is fixed-point for
# -4 <= X < 17 and exponent form otherwise, without trailing zeros, and with
# no point when no fraction digit is left.

_WORD = np.dtype("<u8")
_X_MIN, _X_MAX = -281, 281           # decimal exponents of the fast path
_ROWS = _X_MAX - _X_MIN + 1          # then one row for inf and one for nan
_INF, _NAN = _ROWS, _ROWS + 1
# the fast path takes |x| in [2**-_FAST, 2**_FAST), about [1.1e-280, 4.5e279]:
# every product and split of the double-double step below stays normal there.
# Other nonzero finite numbers, and D within 1e-9 of a rounding tie, are
# rendered by "%" one at a time.
_FAST = 930


def _powers_of_ten(k_min: int, k_max: int) -> tuple[np.ndarray, np.ndarray]:
    """For k from ``k_min`` < 0 to ``k_max``: the double ``hi`` nearest 10**k,
    and the double nearest 10**k - hi."""
    hi, lo, n = [], [], 10
    for _ in range(-k_min):
        h = 1 / n                        # int / int rounds correctly
        m, s = h.as_integer_ratio()      # s is a power of two
        hi.append(h)
        lo.append(math.ldexp((s - m * n) / n, 1 - s.bit_length()))
        n *= 10
    hi.reverse()
    lo.reverse()
    n = 1
    for _ in range(k_max + 1):
        hi.append(float(n))
        lo.append(float(n - int(hi[-1])))
        n *= 10
    return np.array(hi), np.array(lo)


def _kernel_tables() -> tuple[np.ndarray, ...]:
    """The kernel's lookup tables, built from integer arithmetic."""
    k_min = _X_MIN
    hi, lo = _powers_of_ten(k_min, 16 - _X_MIN)
    x = np.arange(_X_MIN, _X_MAX + 1)
    # the least double >= 10**X: lo has the sign of 10**X - hi
    hi_x, lo_x = hi[x - k_min], lo[x - k_min]
    least = np.where(lo_x > 0, np.nextafter(hi_x, np.inf), hi_x)
    # the multiplier 10**(16 - X), with hi split by Veltkamp into 26-bit halves
    mul_hi, mul_lo = hi[16 - x - k_min], lo[16 - x - k_min]
    t = mul_hi * 134217729.0
    mul_hh = t - (t - mul_hi)
    # by biased binary exponent: on the fast path or not, the row of
    # floor(E log10 2), and the least double >= 10**(X + 1), from which on
    # the row is one more
    e = np.arange(2048) - 1023
    fast = (e >= -_FAST) & (e < _FAST)
    row = np.where(fast, ((e * 78913) >> 18) - _X_MIN, -_X_MIN)
    above = np.where(fast, least[np.minimum(row + 1, _ROWS - 1)], np.inf)

    # the four digits of each chunk 0..9999 as ASCII, and how many of a D's
    # digits are significant when chunk j of 1..4 is its last nonzero one
    ascii = np.empty((10000, 4), np.uint8)
    for i in range(4):
        ascii[:, i] = np.tile(np.repeat(np.arange(48, 58, dtype=np.uint8),
                                        10 ** (3 - i)), 10 ** i)
    shown = np.full(10000, 4, np.uint8)  # a chunk's digits to its last nonzero
    for i in range(1, 5):
        shown.reshape(-1, 10 ** i)[:, 0] -= 1
    length = (shown + np.arange(1, 16, 4, dtype=np.uint8)[:, None]) * (shown > 0)

    # masks of layout code (q + 1) * 18 + n: a point after digit q (q = -1:
    # none), n digits shown.  keep holds the digits shown, before the bytes
    # that digits 0..q move down to, point the byte the point goes in
    q, n = np.divmod(np.arange(18 * 18)[:, None], 18)
    q -= 1
    b = np.arange(32)
    before = (b >= 6) & (b < 7 + q)
    keep = (b >= 7) & (b < 7 + n)
    point = np.where((b == 7 + q) & (q >= 0), ord("."), 0)
    # the layout code of each row and number L of significant digits (L = 0
    # is D = 0, shown as one digit); inf and nan show none.  The point
    # follows digit X in fixed-point form and digit 0 in exponent form, if
    # a digit follows it
    fixed = (x >= -4) & (x < 17)
    units = np.where(fixed, x, 0)[:, None]
    shown = np.maximum(np.arange(18), 1)
    q = np.where((units >= 0) & (shown > units + 1), units, -1)
    codes = np.zeros((_ROWS + 2, 18), np.int64)
    codes[:_ROWS] = (q + 1) * 18 + np.maximum(shown, units + 1)

    # sign and prefix, and suffix, by row and sign bit
    ends = np.zeros((_ROWS + 2, 2, 32), np.uint8)
    ends[:_ROWS, 1, 5] = ord("-")
    for row_x in range(-4, 0):
        for sign, lead in enumerate((b"", b"-")):
            text = lead + b"0." + b"0" * (-row_x - 1)
            ends[row_x - _X_MIN, sign, 7 - len(text):7] = list(text)
    ends[_INF, 0, 3:6] = list(b"inf")
    ends[_INF, 1, 2:6] = list(b"-inf")
    ends[_NAN, :, 3:6] = list(b"nan")
    mag = np.abs(x)
    three = mag >= 100
    suffix = np.stack([np.full(len(x), ord("e")), np.where(x < 0, ord("-"), ord("+")),
                       48 + np.where(three, mag // 100, mag // 10 % 10),
                       48 + np.where(three, mag // 10 % 10, mag % 10),
                       np.where(three, 48 + mag % 10, 0)], axis=1)
    ends[:_ROWS, :, 24:29] = (suffix * ~fixed[:, None])[:, None, :]

    words = lambda table: table.astype(np.uint8).view(_WORD)
    return (fast, row, above, mul_hi, mul_hh, mul_hi - mul_hh, mul_lo,
            ascii.view("<u4").ravel(), length, codes.ravel(), words(keep * 255),
            words(before * 255), words(point), ends.reshape(-1, 32).view(_WORD))


(_FAST_PATH, _ROW, _ABOVE, _MUL_HI, _MUL_HH, _MUL_HL, _MUL_LO, _CHUNK, _LENGTH,
 _CODES, _KEEP, _BEFORE, _POINT, _ENDS) = _kernel_tables()
_HIGH_26 = np.int64(-1 << 27)   # keeps the top 26 bits of a double


def _significand(x: np.ndarray) -> tuple[np.ndarray, ...]:
    """Row X - _X_MIN and the 17 digits D of each double of the 1D ``x``.

    Also returns where D's rounding was too close to a tie to trust, and
    the indices of the nonzero numbers off the fast path, whose row is
    that of inf or nan and whose D is 0.
    """
    eb = x.view(np.int64) >> 52         # the biased binary exponent
    eb &= 0x7FF
    fast = _FAST_PATH.take(eb)
    rare = np.flatnonzero(~fast & (x != 0))
    a = np.where(fast, np.abs(x), 0.0)
    row = _ROW.take(eb)
    row += a >= _ABOVE.take(eb)
    # y = a * 10**(16 - X) as the double-double p + lo; its error is below
    # 1e-14, so rounding it to D is exact unless its fraction is within
    # 1e-9 of a half
    p = a * _MUL_HI.take(row)
    lo = _low_part(a, row, p)
    r = np.rint(lo)
    lo -= r
    ties = np.abs(lo, out=lo) > 0.5 - 1e-9
    d = p.astype(np.int64)
    d += r.astype(np.int64)
    carry = d >= 10 ** 17              # 10**17 is 10**16 at the next exponent
    d[carry] = 10 ** 16
    row += carry
    row[rare] = np.where(np.isnan(x[rare]), _NAN, _INF)
    return row, d, ties, rare


def _low_part(a: np.ndarray, row: np.ndarray, p: np.ndarray) -> np.ndarray:
    """``a * 10**(16 - X) - p`` to double precision, where ``p`` is ``a``
    times the double nearest that power: the error of ``p`` by Dekker's
    exact product, plus ``a`` times the rest of the power."""
    ah = (a.view(np.int64) & _HIGH_26).view(np.float64)
    al = a - ah
    hh, hl = _MUL_HH.take(row), _MUL_HL.take(row)
    lo = ah * hh
    lo -= p
    ah *= hl
    lo += ah
    hh *= al
    lo += hh
    hl *= al
    lo += hl
    al = _MUL_LO.take(row)
    al *= a
    lo += al
    return lo


def _digits(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 17 digits of each ``d`` in bytes 7-23 of four words, and how many
    of them are significant (0 for ``d = 0``)."""
    # D as its first digit and four chunks of four, split in place
    chunks = np.empty((5, len(d)), np.int64)
    high, low = chunks[2], chunks[4]
    np.floor_divide(d, 10 ** 8, out=high)
    np.subtract(d, high * 10 ** 8, out=low)
    np.floor_divide(high, 10 ** 8, out=chunks[0])
    high -= chunks[0] * 10 ** 8
    np.floor_divide(high, 10 ** 4, out=chunks[1])
    high -= chunks[1] * 10 ** 4
    np.floor_divide(low, 10 ** 4, out=chunks[3])
    low -= chunks[3] * 10 ** 4
    significant = _LENGTH[0].take(chunks[1])
    for j in range(1, 4):
        np.maximum(significant, _LENGTH[j].take(chunks[j + 1]), out=significant)
    text = np.empty((len(d), 4), _WORD)
    for j, chunk in enumerate(chunks, 1):
        text.view("<u4")[:, j] = _CHUNK.take(chunk)
    return text, significant


def _render(x: np.ndarray) -> np.ndarray:
    """``"%.17g" % v`` of each double ``v`` of the 1D ``x``, four words each.

    See the layout above; byte 31 of each slot is PAD.
    """
    row, d, ties, rare = _significand(x)
    text, significant = _digits(d)
    code = _CODES.take(row * 18 + significant)
    # keep the digits shown, then move those up to the point down one byte
    mask = np.take(_KEEP, code, axis=0, mode="clip")
    text &= mask
    np.take(_BEFORE, code, axis=0, out=mask, mode="clip")
    flat, moved = text.reshape(-1).view(np.uint8), mask.reshape(-1).view(np.uint8)
    np.bitwise_and(moved[:-1], flat[1:], out=moved[:-1])
    np.bitwise_xor(flat[1:], moved[:-1], out=flat[1:])
    text |= mask
    text |= np.take(_POINT, code, axis=0, out=mask, mode="clip")
    row *= 2
    row += np.signbit(x)
    text |= np.take(_ENDS, row, axis=0, out=mask, mode="clip")
    # the rest of the rare values, and D too close to a tie, go through "%"
    for i in np.concatenate([rare[np.isfinite(x[rare])], np.flatnonzero(ties)]).tolist():
        text[i] = np.frombuffer((b"%.17g" % x[i]).ljust(32, b"\0"), _WORD)
    return text


# Each call of the kernel renders about this many numbers.  Fewer pay
# numpy's cost per call more often; more raise the writer's peak memory
# (test_emit_outputs_peak_memory_stays_flat).
_BLOCK_VALUES = 1536


def _rows(prefix: np.ndarray, values: np.ndarray, end: int) -> np.ndarray:
    """Rows of text: each row's ``prefix``, then its ``values`` at ``%.17g``.

    Each value is followed by a comma, the last one by the byte ``end``.
    The rows are PAD-filled, one row of a uint8 array per row.
    """
    words = _render(values.ravel())
    m, width = prefix.shape
    text = np.empty((m, width + 32 * values.shape[1]), np.uint8)
    text[:, :width] = prefix
    text[:, width:].view(_WORD)[...] = words.reshape(m, 4 * values.shape[1])
    text[:, width + 31::32] = ord(",")
    text[:, -1:] = end
    return text


def _prefixes(n_rows: int, fixed: Callable[[np.ndarray], np.ndarray],
              free: int) -> list[np.ndarray]:
    """Row prefixes of an ``n_rows``-row table, one uint8 array per block of rows.

    A row's prefix is its fixed columns, which ``fixed`` returns for the
    row numbers of one block as a 2D array, each at ``%.17g`` and followed
    by a comma.  A block holds ``_BLOCK_VALUES // free`` rows (at least 1),
    so that :func:`_write_table` renders about ``_BLOCK_VALUES`` of the
    ``free`` columns' numbers per kernel call; the fixed columns of a
    block are rendered in parts of at most as many.  Each prefix is
    PAD-filled to the block's longest, rounded up to whole words.
    """
    step = max(1, _BLOCK_VALUES // free)
    prefixes = []
    for start in range(0, n_rows, step):
        columns = fixed(np.arange(start, min(start + step, n_rows)))
        parts = np.array_split(columns, max(1, -(-columns.size // _BLOCK_VALUES)))
        text = np.concatenate([_rows(np.empty((len(part), 0), np.uint8), part, ord(","))
                               for part in parts])
        keep = text != 0
        lengths = keep.sum(axis=1)
        block = np.zeros((len(text), -(-lengths.max() // 8) * 8), np.uint8)
        block[np.arange(block.shape[1]) < lengths[:, None]] = text[keep]
        prefixes.append(block)
    return prefixes


def _write_table(path: Path, header: list[str], prefixes: list[np.ndarray],
                 free: list[np.ndarray]) -> Path:
    """A header line, then each row's prefix followed by its ``free`` columns.

    The rows come in the blocks of ``prefixes`` (see :func:`_prefixes`),
    each written with one ``write``.  The bytes are those of
    ``np.savetxt(fmt="%.17g", delimiter=",")`` on the fixed and free
    columns side by side, under the same header.
    """
    with open(path, "wb") as fh:
        fh.write(",".join(header).encode() + b"\n")
        start = 0
        for prefix in prefixes:
            stop = start + len(prefix)
            text = _rows(prefix, np.column_stack([c[start:stop] for c in free]),
                         ord("\n"))
            fh.write(text[text != 0])
            del text                    # before the next block is rendered
            start = stop
    return path
