"""scripts/bench_json.py, the driver that writes BENCH_<LABEL>.json around perfbench."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def driver(*args):
    cmd = [sys.executable, str(ROOT / "scripts" / "bench_json.py"), *map(str, args)]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)


def test_smoke_run_writes_every_key_and_a_checkout_without_perfbench_exits_1(tmp_path):
    proc = driver("smoke", "--smoke", "--out", tmp_path)
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

    proc = driver("none", "--root", tmp_path, "--out", tmp_path)
    assert proc.returncode == 1 and "has no perfbench/run.py" in proc.stderr
    assert not (tmp_path / "BENCH_none.json").exists()
