"""scripts/bench_json.py, which writes BENCH_<LABEL>.json around perfbench, and
scripts/bench_pairs.py, which times two checkouts against each other."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(*args, script="bench_json.py"):
    cmd = [sys.executable, str(ROOT / "scripts" / script), *map(str, args)]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)


def test_smoke_run_writes_every_key_and_a_checkout_without_perfbench_exits_1(tmp_path):
    proc = run_script("smoke", "--smoke", "--out", tmp_path)
    assert proc.returncode == 0, proc.stderr
    out = json.loads((tmp_path / "BENCH_smoke.json").read_text())
    assert sorted(out) == ["commit", "env", "flags", "label", "metrics", "runs"]
    assert isinstance(out["commit"], str) and "--smoke" in out["flags"] and "numpy" in out["env"]
    assert out["runs"] == [{"workload": "scaled-1d", "seed": 0, "exit": 0, "correct": True,
                            "attempted": out["runs"][0]["attempted"], "failed": 0}]
    metrics = out["metrics"]["scaled-1d"]
    assert sorted(metrics) == ["kkt_max", "peak_rss_mb", "run_s", "setup_s", "success_ratio"]
    for m in metrics.values():
        assert sorted(m) == ["median", "q1", "q3", "unit"] and m["q1"] <= m["median"] <= m["q3"]

    proc = run_script("none", "--root", tmp_path, "--out", tmp_path)
    assert proc.returncode == 1 and "has no perfbench/run.py" in proc.stderr
    assert not (tmp_path / "BENCH_none.json").exists()


def test_pairs_smoke_run_alternates_the_order_and_a_failed_run_exits_1(tmp_path):
    proc = run_script(ROOT, ROOT, "scaled-1d", "--smoke", script="bench_pairs.py")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("pair  1 (before first): before ")
    assert lines[1].startswith("pair  2 (after first): before ")
    out = json.loads(lines[-1])
    assert sorted(out) == ["after", "after_wins", "before", "change", "faster", "flags", "seed",
                           "workload"]
    assert out["change"] == out["after"]["median"] / out["before"]["median"] - 1
    assert f"median change {out['change']:+.1%}; faster by the rule: " in lines[-2]
    assert (out["workload"], out["seed"]) == ("scaled-1d", 0) and out["faster"] in (True, False)
    assert out["after_wins"] in (0, 1, 2) and "--smoke" in out["flags"]
    for side in ("before", "after"):
        s = out[side]
        assert len(s["run_s"]) == 2 and s["q1"] <= s["median"] <= s["q3"]

    proc = run_script(ROOT, tmp_path, "scaled-1d", "--smoke", script="bench_pairs.py")
    assert proc.returncode == 1 and f"bench_pairs: {tmp_path}: exit 2" in proc.stderr
