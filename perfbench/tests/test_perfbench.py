"""Tests of the benchmark itself, run on shrunk copies of its workloads.

    python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks
import program
import run
import tracing
import workloads


def _spec():
    return json.loads((program.ROOT / "BENCHMARK.json").read_text())


def _traced_table(haptosim, tmp_path):
    tracer = tracing.Tracer(haptosim)
    run.run_pass(haptosim, workloads.jobs("invasion_2d", 3, shrink=True),
                 tmp_path, tracer)
    return tracer.table()


def test_self_times_are_nonnegative_and_fit_inside_the_parent(haptosim, tmp_path):
    table = _traced_table(haptosim, tmp_path)
    assert table.duration.size > 0
    assert np.all(table.self_time >= 0)
    child = table.parent != tracing.NO_PARENT
    covered = np.bincount(table.parent[child], weights=table.duration[child],
                          minlength=table.duration.size)
    assert np.all(covered <= table.duration)
    # self times partition each root span
    roots = ~child
    assert table.self_time.sum() == table.duration[roots].sum()


def test_same_seed_gives_same_documents_and_step_counts(haptosim, tmp_path):
    for workload in workloads.WORKLOADS:
        assert workloads.jobs(workload, 11) == workloads.jobs(workload, 11)
    for workload in ("invasion_2d", "records_3d"):
        assert workloads.jobs(workload, 11) != workloads.jobs(workload, 12)

    steps = []
    for _ in range(2):
        counter = tracing.Tracer(haptosim)
        run.run_pass(haptosim, workloads.jobs("records_3d", 11, shrink=True),
                     tmp_path, counter)
        steps.append(counter.table().calls("stepping.imex_step"))
    assert steps[0] == steps[1] > 0


def test_presets_workload_is_the_stock_presets(haptosim):
    for name, text in workloads.jobs("presets_1d", 0):
        assert text == haptosim.config.scenario_to_config(
            haptosim.harness.preset_scenario(name))


def test_wrappers_are_gone_after_the_traced_run(haptosim, tmp_path):
    before = tracing.bindings(haptosim)
    tracer = tracing.Tracer(haptosim)
    with tracer:
        assert tracing.bindings(haptosim) != before
    assert tracing.bindings(haptosim) == before
    _traced_table(haptosim, tmp_path)
    assert tracing.bindings(haptosim) == before


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_on_a_shrunk_workload(haptosim, tmp_path, workload):
    jobs = workloads.jobs(workload, 5, shrink=True)
    spec = _spec()

    metrics, passes = run.measure_end_to_end(haptosim, jobs, [0.5], 0.0, tmp_path)
    assert set(metrics) == {m["name"] for m in spec["end_to_end"]}
    assert all(job.ok for jobs_ in passes for job in jobs_)
    assert metrics["claims_pass_share"] > 0 and metrics["run_s"] > 0

    metrics, passes = run.measure_layers(haptosim, jobs, f"smoke-{workload}",
                                         tmp_path)
    (run.TRACE_DIR / f"smoke-{workload}.npz").unlink()
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}
    assert all(job.ok for jobs_ in passes for job in jobs_)
    assert metrics["stepping.imex_step.calls"] >= 10 * len(jobs)


def test_a_corrupted_artifact_is_reported(haptosim, tmp_path):
    config, harness = haptosim.config, haptosim.harness
    (_, text), = workloads.jobs("invasion_2d", 2, shrink=True)
    result = harness.run(config.parse_config(text))
    report = harness.verify(result)
    config.emit_outputs(result, report, tmp_path)
    assert checks.check_job(haptosim, result, report, tmp_path) == []
    series = tmp_path / "series.csv"
    lines = series.read_text().splitlines()
    head, *rest = lines[1].split(",")
    lines[1] = ",".join([repr(float(head) + 1e-3)] + rest)
    series.write_text("\n".join(lines) + "\n")
    assert checks.check_job(haptosim, result, report, tmp_path) != []


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(program.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(program.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "invasion_2d",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
