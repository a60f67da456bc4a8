"""Record the benchmark's end-to-end metrics in BENCH_<LABEL>.json:
python3 scripts/bench_json.py LABEL [--root CHECKOUT] [--out DIR] [--tier1] [--smoke]
runs perfbench/run.py for 8 s in CHECKOUT (default: this one) per workload of its
BENCHMARK.json at seeds 0-4, and stores each metric's median and quartiles over the seeds,
every run's outcome, the ``# env`` line, the flags and the commit ("-dirty": with edits);
``--tier1`` adds Tier-1's wall time and 3 slowest tests. Exits 1 if a run fails or is wrong."""

import argparse, json, os, re, statistics, subprocess, sys, time
from pathlib import Path


def stats(unit, v):
    q1, _, q3 = statistics.quantiles(v, n=4, method="inclusive") if len(v) > 1 else v * 3
    return {"unit": unit, "median": statistics.median(v), "q1": q1, "q3": q3}


def main(argv=None) -> int:
    p, here = argparse.ArgumentParser(description=__doc__), Path(__file__).resolve().parent.parent
    p.add_argument("label")
    p.add_argument("--root", type=Path, default=here)
    p.add_argument("--out", type=Path, default=here)
    p.add_argument("--tier1", action="store_true")
    p.add_argument("--smoke", action="store_true", help="one tiny run: first workload, seed 0")
    a = p.parse_args(argv)
    if not (a.root / "perfbench" / "run.py").is_file():
        print(f"bench_json: {a.root} has no perfbench/run.py", file=sys.stderr)
        return 1
    bench = json.loads((a.root / "BENCHMARK.json").read_text())
    flags = ["--seconds", "0.3", "--smoke"] if a.smoke else ["--seconds", "8"]
    git = subprocess.run(["git", "-C", a.root, "rev-parse", "HEAD"], capture_output=True, text=True)
    dirty = subprocess.run(["git", "-C", a.root, "diff", "--quiet", "HEAD"], capture_output=True)
    out = {"label": a.label, "commit": git.stdout.strip() + "-dirty" * (dirty.returncode == 1),
           "flags": flags, "env": None, "runs": [], "metrics": {}}
    for w in [x["name"] for x in bench["workloads"]][:1 if a.smoke else None]:
        values = {}
        for seed in range(1 if a.smoke else 5):
            cmd = [sys.executable, "perfbench/run.py", "--workload", w, "--seed", str(seed)]
            proc = subprocess.run(cmd + flags, cwd=a.root, capture_output=True, text=True)
            lines = proc.stdout.splitlines()
            res = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
            env = [json.loads(x[6:]) for x in lines if x.startswith("# env ")]
            out["env"] = out["env"] or (env or [None])[0]
            out["runs"].append({"workload": w, "seed": seed, "exit": proc.returncode,
                                **{k: res.get(k) for k in ("correct", "attempted", "failed")}})
            for name, metric in res.get("metrics", {}).items():
                values.setdefault(name, (metric["unit"], []))[1].append(metric["value"])
        out["metrics"][w] = {name: stats(unit, v) for name, (unit, v) in values.items()}
    if a.tier1:
        start, env = time.perf_counter(), {**os.environ, "PYTHONPATH": str(a.root / "src")}
        cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
        proc = subprocess.run(cmd, cwd=a.root, capture_output=True, text=True, env=env)
        slowest = re.findall(r"^([\d.]+)s \w+ +(\S+)$", proc.stdout, re.M)[:3]
        out["tier1"] = {"wall_s": time.perf_counter() - start, "exit": proc.returncode,
                        "slowest": [{"test": test, "s": float(s)} for s, test in slowest]}
    (a.out / f"BENCH_{a.label}.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0 if all(r["exit"] == 0 and r["correct"] is True for r in out["runs"]) else 1


if __name__ == "__main__":
    sys.exit(main())
