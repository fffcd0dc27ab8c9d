"""Command-line front end.

Subcommands: ``run`` integrates a scenario and writes its artifacts,
``verify`` additionally scores the theorem claims and writes
report.txt, ``convergence`` prints a grid-refinement table, and
``presets`` dumps the built-in scenario documents.  Exit codes: 0 for
success with all claims passing, 2 when a verification claim fails,
1 for configuration or runtime errors.
"""

from __future__ import annotations

import argparse
import sys

from .config import (
    ConfigError,
    claim_line,
    emit_outputs,
    output_dir,
    parse_config,
    scenario_to_config,
)
from .harness import (
    PRESETS,
    convergence_study,
    preset_scenario,
    run,
    verify,
)
from .model import ValidationError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="haptosim",
        description="Finite-volume solver and theorem monitors for a "
                    "haptotaxis invasion model.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, text in (("run", "integrate a scenario and write its outputs"),
                       ("verify", "run, score the theorem claims, and report")):
        p = sub.add_parser(name, help=text)
        p.add_argument("-c", "--config", required=True,
                       help="path to a configuration document")
        p.add_argument("-o", "--out", default=None,
                       help="output directory (falls back to [output] dir)")

    p = sub.add_parser("convergence", help="grid-refinement order study")
    p.add_argument("-c", "--config", required=True,
                   help="path to a configuration document")
    p.add_argument("--levels", type=int, default=3,
                   help="number of refinement levels (default 3)")

    sub.add_parser("presets", help="list built-in scenarios and their configs")
    return parser


def _read_config(path: str) -> str:
    # newline="" keeps CRLF line ends, so the echo can repeat the input's bytes
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()
    except UnicodeDecodeError:
        raise ConfigError(f"{path} is not UTF-8 text") from None


def _resolve_out(args, text: str) -> str:
    out = args.out or output_dir(text)
    if out is None:
        raise ConfigError("no output directory: pass -o or set [output] dir")
    return out


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "presets":
            for name in PRESETS:
                print(f"# ---- {name} ----")
                print(scenario_to_config(preset_scenario(name)))
            return 0

        text = _read_config(args.config)
        scenario = parse_config(text)

        if args.command == "convergence":
            study = convergence_study(scenario, args.levels)
            print(f"{'cells':>12s} {'h':>12s} {'dt_max':>12s} "
                  f"{'error':>14s} {'order':>8s}")
            for row in study.rows:
                cells = "x".join(str(n) for n in row.cells)
                order = f"{row.observed_order:8.3f}" if row.observed_order == row.observed_order else "       -"
                print(f"{cells:>12s} {row.h:12.5e} {row.dt_max:12.5e} "
                      f"{row.error:14.6e} {order}")
            ref = "x".join(str(n) for n in study.reference_cells)
            print(f"reference: {ref} cells")
            return 0

        out = _resolve_out(args, text)
        result = run(scenario)
        if args.command == "run":
            emit_outputs(result, None, out)
            print(f"completed {scenario.name}: t={result.final_state.t:g}, "
                  f"{len(result.recorded_states)} records, "
                  f"{result.wall_time:.2f}s -> {out}")
            return 0

        report = verify(result)
        emit_outputs(result, report, out)
        for c in report.claims:
            print(claim_line(c, ".6g"))
        failures = sum(c.verdict == "fail" for c in report.claims)
        print(f"{scenario.name}: {len(report.claims)} claims, "
              f"{failures} failed -> {out}")
        return 0 if report.all_pass else 2
    except (ConfigError, ValidationError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
