"""Recompute reference.json: the outputs of every workload on the default
seed and the held-out seed, as the current library produces them.

Run from the repository root:

    python3 perfbench/record_reference.py

Only do this when a library change is meant to change results, and say so
where the change is described; the benchmark compares every run on these
seeds with the stored values.
"""

from __future__ import annotations

import json

import run


def main() -> int:
    run.prepare()
    import bench_workloads

    workloads = {}
    for name, cls in bench_workloads.WORKLOADS.items():
        for seed in bench_workloads.REFERENCE_SEEDS:
            with run.work_directory(f"reference-{name}") as work_dir:
                workload = cls(seed, False, work_dir)
                inputs = workload.setup()
                _, raw = workload.run(inputs)
                execution = workload.judge(inputs, raw)
            if execution.failed:
                raise SystemExit(f"{name} seed {seed}: "
                                 + "; ".join(op.failure for op in execution.ops if op.failure))
            workloads.setdefault(name, {})[str(seed)] = bench_workloads.reference_entry(execution)
            print(f"{name} seed {seed}: kkt_max {execution.kkt_max!r}")
    stored = {"seeds": list(bench_workloads.REFERENCE_SEEDS),
              "rtol": bench_workloads.REFERENCE_RTOL,
              "workloads": workloads}
    (run.HERE / "reference.json").write_text(json.dumps(stored, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
