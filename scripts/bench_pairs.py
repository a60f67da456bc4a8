"""Paired timing of two checkouts on one perfbench workload:
python3 scripts/bench_pairs.py BEFORE AFTER WORKLOAD [--seed S] [--smoke]
runs perfbench/run.py for 8 s (seed 0 by default) in checkout BEFORE and in checkout
AFTER, 10 times each, switching from pair to pair which side runs first. It prints each
pair's run_s, each side's median and quartiles, the pairs AFTER won and the median's
change (AFTER's median / BEFORE's - 1); the last line holds the same as one JSON object,
with each side's median of every end-to-end metric its BENCHMARK.json names.
By the rule for a gain under 1.3x, AFTER is faster when it wins at least 9 of 10 pairs
and the medians differ by more than BEFORE's interquartile range. Exits 1 if a run fails
or is wrong."""

import argparse, json, statistics, subprocess, sys
from pathlib import Path


def end_to_end(root: Path, workload: str, seed: int, flags) -> dict:
    """Each end-to-end metric of ``root``'s BENCHMARK.json from one run in ``root``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(cmd + flags, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    res = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
    if res.get("correct") is not True:
        raise RuntimeError(f"{root}: exit {proc.returncode}, correct {res.get('correct')}: "
                           f"{proc.stderr.strip()[-500:]}")
    names = [m["name"] for m in json.loads((root / "BENCHMARK.json").read_text())["end_to_end"]]
    return {name: res["metrics"][name]["value"] for name in names}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("before", type=Path)
    p.add_argument("after", type=Path)
    p.add_argument("workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--smoke", action="store_true", help="2 pairs of tiny runs")
    a = p.parse_args(argv)
    flags = ["--seconds", "0.3", "--smoke"] if a.smoke else ["--seconds", "8"]
    runs = {"before": [], "after": []}
    for i in range(2 if a.smoke else 10):
        order = ("before", "after") if i % 2 == 0 else ("after", "before")
        try:
            for side in order:
                runs[side].append(end_to_end(getattr(a, side), a.workload, a.seed, flags))
        except (RuntimeError, KeyError) as exc:  # KeyError: a run lacks a declared metric
            print(f"bench_pairs: {exc}", file=sys.stderr)
            return 1
        print(f"pair {i + 1:2d} ({order[0]} first): before {runs['before'][-1]['run_s']:.4f} s, "
              f"after {runs['after'][-1]['run_s']:.4f} s")
    times = {side: [run["run_s"] for run in v] for side, v in runs.items()}
    out = {"workload": a.workload, "seed": a.seed, "flags": flags,
           "after_wins": sum(x < y for x, y in zip(times["after"], times["before"]))}
    for side, v in times.items():
        q1, med, q3 = statistics.quantiles(v, n=4, method="inclusive")
        out[side] = {"run_s": v, "median": med, "q1": q1, "q3": q3, "medians": {
            name: statistics.median(run[name] for run in runs[side]) for name in runs[side][0]}}
        print(f"{side}: median {med:.4f} s, quartiles {q1:.4f} and {q3:.4f} s")
    before, after = out["before"], out["after"]
    out["change"] = after["median"] / before["median"] - 1
    out["faster"] = (out["after_wins"] >= 0.9 * len(before["run_s"])
                     and before["median"] - after["median"] > before["q3"] - before["q1"])
    print(f"after won {out['after_wins']} of {len(before['run_s'])} pairs, median change "
          f"{out['change']:+.1%}; faster by the rule: {out['faster']}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
