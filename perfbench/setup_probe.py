"""Time one cold set-up of a workload and print it in seconds.

Set-up is what a user pays before the first step: importing the program
and parsing and validating the workload's documents.  The benchmark runs
this script in fresh interpreters, so every import is cold.

    python3 perfbench/setup_probe.py WORKLOAD SEED
"""

from __future__ import annotations

import sys
import time

import program
import workloads


def main(argv: list[str]) -> int:
    workload, seed = argv[0], int(argv[1])
    documents = [text for _, text in workloads.jobs(workload, seed)]
    start = time.perf_counter()
    haptosim = program.load()
    for text in documents:
        haptosim.config.parse_config(text)
    print(repr(time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except program.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
