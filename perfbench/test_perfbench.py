"""Tests of the benchmark harness itself, at smoke sizes (seconds in all)."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import gdpa  # noqa: E402
import gdpa.baselines  # noqa: E402
import gdpa.cli  # noqa: E402
import gdpa.problems.analytic  # noqa: E402
import gdpa.solver  # noqa: E402

import bench_trace  # noqa: E402
import bench_workloads  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Every module-level name a traced run replaces, and so must put back.
PATCHED = [
    (gdpa.solver, "make_record"), (gdpa.baselines, "make_record"),
    (gdpa.problems.analytic, "kkt_residual"), (gdpa.cli, "kkt_residual"),
    (gdpa, "solve"), (gdpa.cli, "solve"), (gdpa.cli, "solve_penalty"), (gdpa.cli, "solve_alm"),
    (gdpa, "schedule"), (gdpa, "active_set"), (gdpa, "primal_step"), (gdpa, "dual_step"),
    (gdpa.cli, "write_trace"), (gdpa.cli, "main"),
]
PATCHED_ORIGINALS = {(mod, attr): getattr(mod, attr) for mod, attr in PATCHED}


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=120)


def test_workloads_match_the_harness():
    assert WORKLOADS == list(bench_workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench_trace.PER_LAYER_UNITS


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric_with_its_unit(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
        if not trace:
            assert metric["value"] > 0, name


def test_run_without_the_library_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "scaled-1d", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _traced_call(name: str, work_dir: Path):
    work_dir.mkdir()
    workload = bench_workloads.WORKLOADS[name](0, True, work_dir)
    inputs = workload.setup()
    tracer = bench_trace.Tracer()
    with tracer:
        assert gdpa.cli.write_trace is not PATCHED_ORIGINALS[(gdpa.cli, "write_trace")]
        tracer.begin_run()
        wall, raw = workload.run(inputs, tracer)
    execution = workload.judge(inputs, raw)
    return workload, inputs, tracer.run_metrics(wall, execution.bytes_written), execution


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_restores_every_patched_attribute(workload, tmp_path):
    _, inputs, layers, execution = _traced_call(workload, tmp_path / workload)
    assert execution.failed == 0
    assert layers["problem.accessor.calls"] > 0
    for (mod, attr), original in PATCHED_ORIGINALS.items():
        assert getattr(mod, attr) is original, f"{mod.__name__}.{attr}"
    if workload == "cli-bench-1d":
        return  # the command builds its problems itself
    for problem in inputs[0] if workload == "step-api-qq" else [inputs[0]]:
        assert not set(vars(problem)) & set(bench_trace.ACCESSOR_SPANS)
        assert not any(fn.__name__ == "traced" for fn in
                       (getattr(problem, attr) for attr in bench_trace.CALLBACK_SPANS))


def test_tracer_restores_after_an_exception():
    with pytest.raises(RuntimeError):
        with bench_trace.Tracer():
            raise RuntimeError("inside a traced call")
    for (mod, attr), original in PATCHED_ORIGINALS.items():
        assert getattr(mod, attr) is original, f"{mod.__name__}.{attr}"


def test_traced_counts_follow_the_workload_structure(tmp_path):
    steps = _traced_call("step-api-qq", tmp_path / "qq")
    workload = steps[0]
    n, k = len(workload.instance_seeds), workload.steps
    assert steps[2]["problems.g.calls"] == 2 * n * k + n
    assert steps[2]["solver.iters"] == n * k

    _, _, cli, _ = _traced_call("cli-bench-1d", tmp_path / "cli")
    total_steps = (cli["solver.iters"] + cli["baselines.penalty.steps"]
                   + cli["baselines.alm.steps"])
    assert cli["metrics.record.calls"] >= total_steps > 0
    assert cli["cli.write_trace.rows"] == cli["metrics.record.calls"]
    assert cli["cli.bytes_written"] > 0


def test_reference_covers_every_workload_on_both_seeds():
    stored = json.loads((HERE / "reference.json").read_text())
    for name in WORKLOADS:
        assert sorted(stored["workloads"][name]) == sorted(
            str(s) for s in bench_workloads.REFERENCE_SEEDS)


def test_reference_check_tolerates_roundoff_only():
    def execution(x):
        op = bench_workloads.Op("solve", {"x": np.array(x), "lambda": np.zeros(1)})
        return bench_workloads.Execution([op], 0.5, "digest")

    ref = bench_workloads.reference_entry(execution([1.0, -2.0]))
    close = execution([1.0 + 1e-13, -2.0])
    bench_workloads.check_against_reference(close, ref)
    assert close.failed == 0
    moved = execution([1.0 + 1e-6, -2.0])
    bench_workloads.check_against_reference(moved, ref)
    assert moved.failed == 1
