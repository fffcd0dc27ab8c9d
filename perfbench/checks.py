"""Read a job's artifacts back and compare them with the in-memory run.

Every number the writer emits carries 17 significant digits, so reading
it back must give the very same double: each comparison below is exact.
Each check returns a list of problems; an empty list means the artifacts
are correct.
"""

from __future__ import annotations

import math
from dataclasses import fields
from pathlib import Path

import numpy as np


def _load_csv(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        table = np.loadtxt(fh, delimiter=",", ndmin=2)
    return header, table.reshape(-1, len(header))


def _same(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all((a == b) | (np.isnan(a) & np.isnan(b))))


def check_series(result, out: Path) -> list[str]:
    header, table = _load_csv(out / "series.csv")
    names = list(result.series)
    if header != ["t"] + names:
        return [f"series.csv header {header} != {['t'] + names}"]
    problems = []
    if names and not _same(table[:, 0], result.series[names[0]].t):
        problems.append("series.csv times differ from the run's")
    for col, name in enumerate(names, start=1):
        if not _same(table[:, col], result.series[name].values):
            problems.append(f"series.csv column {name} differs from the run's")
    return problems


def check_snapshots(haptosim, result, out: Path) -> list[str]:
    states = result.recorded_states
    files = sorted((out / "snapshots").glob("state_*.csv"))
    if len(files) != len(states):
        return [f"{len(files)} snapshot files for {len(states)} records"]
    params = result.scenario.params
    problems = []
    for state in states:
        path = out / "snapshots" / f"state_{state.t:.6f}.csv"
        if state.formulation != haptosim.model.PRIMITIVE:
            state = haptosim.stepping.from_weighted_form(state, params)
        grid = state.grid
        _, table = _load_csv(path)
        indices = np.meshgrid(*(np.arange(n) for n in grid.shape), indexing="ij")
        expected = ([i.ravel() for i in indices]
                    + [c.ravel() for c in grid.centers()]
                    + [f.values.ravel() for f in (state.cells, state.ecm,
                                                  state.protease)])
        if table.shape[1] != len(expected) or not all(
                _same(table[:, col], want) for col, want in enumerate(expected)):
            problems.append(f"{path.name} differs from the record at t={state.t!r}")
    return problems


def check_report(report, out: Path) -> list[str]:
    lines = (out / "report.txt").read_text().splitlines()
    if len(lines) != len(report.claims):
        return [f"report.txt has {len(lines)} lines for {len(report.claims)} claims"]
    problems = []
    for line, claim in zip(lines, report.claims):
        words = line.split()
        measured = float(words[2].removeprefix("measured="))
        if words[:2] != [claim.claim_id, claim.verdict] or not _same(
                measured, claim.measured):
            problems.append(f"report.txt line {line!r} does not match "
                            f"claim {claim.claim_id} {claim.verdict}")
    return problems


def check_echo(haptosim, result, out: Path) -> list[str]:
    echoed = haptosim.config.parse_config((out / "config_echo.ini").read_text())
    if echoed != result.scenario:
        return ["config_echo.ini does not re-parse to the run's scenario"]
    return []


def check_job(haptosim, result, report, out: Path) -> list[str]:
    """Every artifact check for one job's output directory."""
    return (check_series(result, out) + check_snapshots(haptosim, result, out)
            + check_report(report, out) + check_echo(haptosim, result, out))


def retained_bytes(result) -> int:
    """Bytes of field data held by the run's recorded states."""
    total = 0
    for state in result.recorded_states:
        for f in fields(state):
            value = getattr(state, f.name)
            items = value if isinstance(value, tuple) else (value,)
            total += sum(item.values.nbytes for item in items
                         if hasattr(item, "values"))
    return total


def rows_written(result) -> int:
    """Data rows the writer emits: one per series sample, one per cell per record."""
    series_rows = len(next(iter(result.series.values())).t) if result.series else 0
    return series_rows + len(result.recorded_states) * math.prod(
        result.scenario.grid.shape)
