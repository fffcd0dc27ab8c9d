"""The haptosim benchmark: one workload, timed untraced or traced.

    python3 perfbench/run.py --workload presets_1d --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; it imports the program from
``src/`` and writes its artifacts to a temporary directory inside the
checkout, which it deletes at the end.  Every job goes through the path
``haptosim verify`` takes: ``parse_config``, ``harness.run``,
``harness.verify``, ``config.emit_outputs``.  After each job the artifacts
are read back and compared with the in-memory run.

``--trace 0`` measures the end-to-end metrics: the median set-up time of
several cold interpreters, then as many passes over every job, with no
wrapper installed, as fit in ``--seconds`` (at least one).  Each time is
the best pass's: on a shared host a slower pass measures the neighbours.
The artifact checks count towards ``--seconds``; the set-up probes do not.
``--trace 1`` runs one plain pass and one pass with every module boundary
wrapped (see ``tracing.py``), reports the per-layer metrics and saves the
spans to ``.perfbench-trace/<workload>.npz``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names
and units are the ones listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import program

program.pin_blas()  # before numpy is first imported, by the modules below

import numpy as np  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
TRACE_DIR = program.ROOT / ".perfbench-trace"
# percentile levels for a per-call tail; the highest one with at least ten
# samples beyond it is reported
TAIL_LEVELS = (50.0, 90.0, 99.0, 99.9, 99.99)
# per-call timings: (span name, metric prefix, use self time)
PER_CALL = (
    ("stepping.imex_step", "stepping.imex_step.self_us", True),
    ("stepping.stable_dt", "stepping.stable_dt.us", False),
    ("operators.gradient_faces", "operators.gradient_faces.us", False),
    ("operators.helmholtz_solve", "operators.helmholtz_solve.us", False),
    ("model.taxis_weight", "model.taxis_weight.us", False),
    ("analysis.norm", "analysis.norm.us", False),
)


@dataclass
class Job:
    """One job of one pass: its timings, claim verdicts and check results."""

    name: str
    run_s: float = 0.0
    verify_s: float = 0.0
    write_s: float = 0.0
    claims: dict[str, str] = field(default_factory=dict)
    error: str | None = None
    problems: list[str] = field(default_factory=list)
    retained_bytes: int = 0
    rows: int = 0
    bytes_written: int = 0

    @property
    def wall_s(self) -> float:
        return self.run_s + self.verify_s + self.write_s

    @property
    def ok(self) -> bool:
        return self.error is None and not self.problems


def run_pass(haptosim, jobs, out_root: Path, tracer=None) -> list[Job]:
    """Run every job once, then check its artifacts and delete them.

    With a tracer the jobs run inside it; the checks run after it has
    removed its wrappers, so they leave no spans.
    """
    config, harness = haptosim.config, haptosim.harness
    outcomes = []
    with tracer if tracer is not None else contextlib.nullcontext():
        for index, (name, text) in enumerate(jobs):
            if tracer is not None:
                tracer.job = index
            job, out = Job(name), out_root / name
            try:
                scenario = config.parse_config(text)
                start = time.perf_counter()
                result = harness.run(scenario)
                ran = time.perf_counter()
                report = harness.verify(result)
                verified = time.perf_counter()
                paths = config.emit_outputs(result, report, out)
                written = time.perf_counter()
            except Exception as exc:  # a failing job is counted, not fatal
                job.error = f"{type(exc).__name__}: {exc}"
                outcomes.append((job, out, None, None, None))
                continue
            job.run_s, job.verify_s, job.write_s = (
                ran - start, verified - ran, written - verified)
            outcomes.append((job, out, result, report, paths))

    done = []
    for job, out, result, report, paths in outcomes:
        if result is not None:
            job.problems = checks.check_job(haptosim, result, report, out)
            job.claims = {c.claim_id: c.verdict for c in report.claims}
            job.retained_bytes = checks.retained_bytes(result)
            job.rows = checks.rows_written(result)
            job.bytes_written = sum(Path(p).stat().st_size for p in paths)
        shutil.rmtree(out, ignore_errors=True)
        done.append(job)
    return done


# ---------------------------------------------------------------------------
# end-to-end measurement


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Cold set-up times, one per fresh interpreter."""
    probe = Path(__file__).with_name("setup_probe.py")
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(probe), workload, str(seed)], cwd=program.ROOT,
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def claims_pass_share(passes: list[list[Job]]) -> float:
    """Share of claims not failed.

    A job that raised fails all its claims: as many as the same job had in
    a pass where it completed, or one if it never did.
    """
    claim_counts = {j.name: len(j.claims) for p in passes for j in p
                    if j.error is None}
    attempted = failed = 0
    for jobs in passes:
        for job in jobs:
            if job.error is not None:
                count = claim_counts.get(job.name, 1)
                attempted, failed = attempted + count, failed + count
            else:
                attempted += len(job.claims)
                failed += sum(v == "fail" for v in job.claims.values())
    return (attempted - failed) / attempted if attempted else 0.0


def measure_end_to_end(haptosim, jobs, setups: list[float], seconds: float,
                       out_root: Path) -> tuple[dict, list[list[Job]]]:
    base_rss = peak_rss_mb()
    passes = []
    start = time.perf_counter()
    # start another pass only if, at the mean pass length so far, it still
    # ends within the budget
    while not passes or (time.perf_counter() - start) * (1 + 1 / len(passes)) <= seconds:
        passes.append(run_pass(haptosim, jobs, out_root))
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": min(sum(j.wall_s for j in p) for p in passes),
        "run_s": min(sum(j.run_s for j in p) for p in passes),
        "peak_rss_mb": peak_rss_mb() - base_rss,
        "claims_pass_share": claims_pass_share(passes),
    }
    print(f"# set-up probes: {', '.join(f'{s:.4f}' for s in setups)} s")
    for i, p in enumerate(passes):
        print(f"# pass {i}: run {sum(j.run_s for j in p):.4f} s, "
              f"write {sum(j.write_s for j in p):.4f} s, "
              f"wall {sum(j.wall_s for j in p):.4f} s")
    return metrics, passes


# ---------------------------------------------------------------------------
# per-layer measurement


def per_call_us(values_ns: np.ndarray) -> tuple[float, float, float]:
    """Median, tail value and tail level of per-call times, in microseconds."""
    us = values_ns / 1e3
    beyond_ok = [q for q in TAIL_LEVELS if us.size * (100.0 - q) / 100.0 >= 10]
    level = max(beyond_ok, default=TAIL_LEVELS[0])
    return float(np.median(us)), float(np.percentile(us, level)), level


def layer_metrics(table: tracing.SpanTable, traced: list[Job],
                  plain: list[Job]) -> dict:
    steps = table.calls("stepping.imex_step")
    run_ns = float(table.durations("harness.run").sum())
    plain_run = sum(j.run_s for j in plain)
    traced_wall = sum(j.wall_s for j in traced)
    plain_wall = sum(j.wall_s for j in plain)
    emit_ns = float(table.durations("config.emit_outputs").sum())

    def total_s(name: str) -> float:
        return float(table.durations(name).sum()) / 1e9

    def share_of_run(name: str) -> float:
        return float(table.durations(name).sum()) / run_ns

    cg_calls = table.calls("operators.cg")
    metrics = {
        "step_us": plain_run * 1e6 / steps,
        "harness.run.self_us_per_step":
            float(table.self_times("harness.run").sum()) / 1e3 / steps,
        "harness.run.retained_bytes": sum(j.retained_bytes for j in traced),
        "stepping.imex_step.calls": steps,
        "operators.haptotaxis_divergence.calls":
            table.calls("operators.haptotaxis_divergence"),
        "operators.haptotaxis_divergence.share":
            share_of_run("operators.haptotaxis_divergence"),
        "operators.helmholtz_solve.share": share_of_run("operators.helmholtz_solve"),
        "operators.cg.calls": cg_calls,
        "operators.cg.iterations_per_solve":
            table.cg_iterations / cg_calls if cg_calls else 0.0,
        "operators.solveh_banded.calls": table.calls("operators.solveh_banded"),
        "analysis.bounds_report.s": total_s("analysis.bounds_report"),
        "harness.verify.s": total_s("harness.verify"),
        "config.parse_config.s": total_s("config.parse_config"),
        "config.emit_outputs.s": emit_ns / 1e9,
        "config.emit_outputs.bytes": sum(j.bytes_written for j in traced),
        "config.emit_outputs.us_per_row": emit_ns / 1e3 / sum(j.rows for j in traced),
        "config.emit_outputs.share": emit_ns / 1e9 / traced_wall,
        "trace.overhead_share": (traced_wall - plain_wall) / plain_wall,
    }
    for name, prefix, use_self in PER_CALL:
        values = table.self_times(name) if use_self else table.durations(name)
        median, tail, level = per_call_us(values)
        metrics[prefix], metrics[prefix + "_tail"] = median, tail
        metrics[f"{name}.calls"] = int(values.size)
        print(f"# {prefix}_tail is the p{level:g} of {values.size} calls")
    return metrics


def measure_layers(haptosim, jobs, workload: str,
                   out_root: Path) -> tuple[dict, list[list[Job]]]:
    before = tracing.bindings(haptosim)
    plain = run_pass(haptosim, jobs, out_root)
    tracer = tracing.Tracer(haptosim)
    traced = run_pass(haptosim, jobs, out_root, tracer)
    if tracing.bindings(haptosim) != before:
        raise RuntimeError("tracing wrappers are still installed after the trace")
    table = tracer.table()
    TRACE_DIR.mkdir(exist_ok=True)
    table.save(TRACE_DIR / f"{workload}.npz")
    print(f"# {table.duration.size} spans saved to "
          f"{(TRACE_DIR / f'{workload}.npz').relative_to(program.ROOT)}")
    return layer_metrics(table, traced, plain), [plain, traced]


# ---------------------------------------------------------------------------
# reporting


def environment(haptosim) -> dict:
    import scipy

    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = "unknown (not a git checkout)"
    if (program.ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(program.ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = done.stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "haptosim": haptosim.__version__,
        "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"],
        "blas_threads": {k: os.environ.get(k) for k in program.BLAS_ENV},
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "commit": commit,
    }


def declared_units(trace: bool) -> dict[str, str]:
    spec = json.loads((program.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # a terminated run still deletes its temporary directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    units = declared_units(bool(args.trace))
    haptosim = program.load()
    print(json.dumps({"environment": environment(haptosim)}))
    out_root = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=program.ROOT))
    try:
        jobs = workloads.jobs(args.workload, args.seed)
        if args.trace:
            metrics, passes = measure_layers(haptosim, jobs, args.workload, out_root)
        else:
            setups = setup_seconds(args.workload, args.seed)
            metrics, passes = measure_end_to_end(haptosim, jobs, setups,
                                                 args.seconds, out_root)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)

    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} do not "
                           "match BENCHMARK.json")
    # every pass counts towards correctness, the traced run's plain pass too
    done = [job for jobs in passes for job in jobs]
    for job in passes[-1]:
        failing = sorted(k for k, v in job.claims.items() if v == "fail")
        print(f"# claims {job.name}: {len(job.claims)} verdicts, failing: "
              f"{', '.join(failing) or 'none'}")
    for job in done:
        for problem in ([job.error] if job.error else []) + job.problems:
            print(f"# FAILED {job.name}: {problem}")
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    print(json.dumps({
        "correct": all(job.ok for job in done),
        "attempted": len(done),
        "failed": sum(not job.ok for job in done),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (program.MissingProgram, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
