"""gdpa benchmark: one workload, one seed, one process.

Run from the repository root:

    python3 perfbench/run.py --workload scaled-1d --seed 0 --seconds 20 --trace 0

Workloads: scaled-1d, cmdp-100x10, cli-bench-1d, step-api-qq (see README.md).
The library is imported from ``src/`` next to this directory, never from an
installed copy. A run builds the inputs, makes one untimed warm-up call, then
for ``--seconds`` seconds repeats: set the inputs up again for 50 ms, make one
timed call, run the calibration loop. ``run_s`` and ``setup_s`` are medians of
calibration-normalized times (see CALIBRATION_REFERENCE_S). Every call's
outputs are checked; on the default and the held-out seed they are also
compared with ``reference.json``.

With ``--trace 0`` the last line of standard output is one JSON object with
the end-to-end metrics; with ``--trace 1`` traced and untraced calls
alternate and the object holds the per-layer metrics, and the spans are
written to ``.bench_traces/``. Lines before it start with ``#`` and are for
people. ``--smoke`` runs a tiny size of the workload in about a second, for
the harness's own tests, and skips the reference comparison.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("scaled-1d", "cmdp-100x10", "cli-bench-1d", "step-api-qq")

# Before each timed call, set the inputs up again for this long (at least
# once). Spread over the run, the set-ups see the same machine state as the
# calls; all at process start they read up to 2x slower and scatter widely.
SETUP_BATCH_SECONDS = 0.05

# The machine this was written on (a 2-vCPU Xeon VM shared with others) runs
# the same code up to 1.6x slower from one minute to the next, so raw wall
# times of identical runs spread by 20-35%. Each timed call therefore sits
# between two runs of a fixed calibration loop; run_s and setup_s are the
# median of (wall time / calibration time), times the calibration loop's
# typical time on that machine. They read as seconds at that speed.
CALIBRATION_ITERS = 2_000
CALIBRATION_REFERENCE_S = 0.02


def prepare() -> None:
    """Pin BLAS to one thread and import gdpa from this checkout's ``src``.

    Must run before numpy is imported: BLAS reads the thread count once, when
    it loads. Raises ImportError when the checkout has no library.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import gdpa

    if not Path(gdpa.__file__).resolve().is_relative_to(src):
        raise ImportError(f"gdpa was imported from {gdpa.__file__}, not from {src}")


@contextmanager
def work_directory(tag: str):
    """A scratch directory inside the checkout, removed afterwards."""
    path = ROOT / ".bench_work" / f"{tag}-{os.getpid()}"
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            path.parent.rmdir()
        except OSError:
            pass  # another run still uses it


def _git_commit() -> str:
    # Read .git directly: the benchmark may run in a copy that is no repository.
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas_build = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_build,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "commit": _git_commit(),
    }


def _reference(workload: str, seed: int):
    stored = json.loads((HERE / "reference.json").read_text())
    return stored["workloads"].get(workload, {}).get(str(seed))


def _median(values):
    return statistics.median(values) if values else math.nan


def calibrate() -> float:
    """Seconds this machine takes, right now, for a fixed small-numpy loop.

    The loop does what a solver iteration does (a small matrix-vector
    product, clipping, a finiteness check) and never touches gdpa, so its time
    moves with the machine and not with the library.
    """
    import numpy as np

    a = np.linspace(-1.0, 1.0, 16).reshape(4, 4)
    x = np.zeros(4)
    t0 = time.perf_counter()
    for _ in range(CALIBRATION_ITERS):
        x = np.clip(x - 0.01 * (x + a @ x - 1.0), -2.0, 2.0)
        if not np.all(np.isfinite(x)):
            raise ArithmeticError("calibration loop diverged")
    return time.perf_counter() - t0


def measure(args, work_dir: Path) -> tuple[dict, list[str]]:
    """Run one workload; return the result object and the lines for people."""
    import bench_trace
    import bench_workloads

    workload = bench_workloads.WORKLOADS[args.workload](args.seed, args.smoke, work_dir)
    inputs = workload.setup()
    reference = None if args.smoke else _reference(args.workload, args.seed)
    tracer = bench_trace.Tracer() if args.trace else None
    attempted = failed = 0
    kkts, digests, failures = [], [], []
    setup_rel, speeds = [], []
    walls = {False: [], True: []}  # seconds, keyed by traced
    rel = {False: [], True: []}    # seconds per calibration second
    layers = []

    def set_up() -> None:
        end = time.perf_counter() + SETUP_BATCH_SECONDS
        while True:
            t0 = time.perf_counter()
            workload.setup()
            setup_rel.append((time.perf_counter() - t0) / speeds[-1])
            if time.perf_counter() >= end:
                return

    def execute(trace: bool) -> None:
        nonlocal attempted, failed
        if trace:
            with tracer:
                tracer.begin_run()
                wall, raw = workload.run(inputs, tracer)
        else:
            wall, raw = workload.run(inputs)
        speeds.append(calibrate())
        walls[trace].append(wall)
        rel[trace].append(wall / (0.5 * (speeds[-2] + speeds[-1])))
        execution = workload.judge(inputs, raw)
        if reference is not None:
            bench_workloads.check_against_reference(execution, reference)
        attempted += len(execution.ops)
        failed += execution.failed
        failures.extend(f"{op.name}: {op.failure}" for op in execution.ops if op.failure)
        kkts.append(execution.kkt_max)
        digests.append(execution.digest)
        if trace:
            layers.append(tracer.run_metrics(wall, execution.bytes_written))

    speeds.append(calibrate())
    execute(False)  # warm-up: caches filled, lazy set-up done
    walls[False].clear()
    rel[False].clear()
    deadline = time.perf_counter() + args.seconds
    cycle = 0.0
    while not walls[False] or time.perf_counter() + cycle <= deadline:
        start = time.perf_counter()
        if args.trace:
            execute(False)
            execute(True)
        else:
            set_up()
            execute(False)
        cycle = time.perf_counter() - start

    digest_match = len(set(digests)) == 1 and (
        reference is None or digests[0] == reference["digest"])
    lines = [
        f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace} smoke={int(args.smoke)}",
        "env " + json.dumps(environment()),
        "reference: " + ("compared" if reference is not None else "none for this seed"),
        f"operations: {attempted} attempted, {failed} failed, "
        f"fail_ratio {failed / attempted:.6g}",
        f"trace digest identical across calls{' and to the reference' if reference else ''}: "
        f"{digest_match}",
    ]
    lines += [f"FAILED {text}" for text in failures[:10]]
    for trace, timing in walls.items():
        if timing:
            lines.append(f"{'traced' if trace else 'untraced'} calls: {len(timing)}, wall s "
                         f"median {_median(timing):.6g}, min {min(timing):.6g}, "
                         f"max {max(timing):.6g}")
    lines.append(f"calibration s: median {_median(speeds):.6g}, min {min(speeds):.6g}, "
                 f"max {max(speeds):.6g}; reference {CALIBRATION_REFERENCE_S}")

    if args.trace:
        metrics = {key: _median([layer[key] for layer in layers]) for key in layers[0]}
        metrics["trace.overhead_frac"] = _median(rel[True]) / _median(rel[False]) - 1.0
        metrics["check.trace_digest_match"] = 1.0 if digest_match else 0.0
        units = bench_trace.PER_LAYER_UNITS
        lines.append(f"spans in {_save_spans(tracer, args)}")
    else:
        metrics = {
            "setup_s": _median(setup_rel) * CALIBRATION_REFERENCE_S,
            "run_s": _median(rel[False]) * CALIBRATION_REFERENCE_S,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "kkt_max": _median(kkts),
            "success_ratio": (attempted - failed) / attempted,
        }
        units = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB", "kkt_max": "1",
                 "success_ratio": "ratio"}
        lines.append(f"set-ups: {len(setup_rel)}")
    lines += [f"{key:<28} {value:<14.6g} {units[key]}" for key, value in metrics.items()]
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value if math.isfinite(value) else None, "unit": units[key]}
                    for key, value in metrics.items()},
    }
    return result, lines


def _save_spans(tracer, args) -> str:
    out = ROOT / ".bench_traces"
    out.mkdir(exist_ok=True)
    path = out / f"{args.workload}-seed{args.seed}{'-smoke' if args.smoke else ''}.npz"
    tracer.save(path)
    return str(path.relative_to(ROOT))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, no reference comparison (for the harness's tests)")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    try:
        prepare()
    except ImportError as exc:
        print(f"perfbench: cannot import the gdpa library: {exc}", file=sys.stderr)
        return 2
    with work_directory(args.workload) as work_dir:
        result, lines = measure(args, work_dir)
    for line in lines:
        print("# " + line)
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
