"""Smoke run of ``scripts/mutants.py``: one killed and one equivalent mutant, each
against a few tests, in a temporary copy that leaves no trace in the checkout; and a
check that every killer ``MUTANTS.json`` names is still in the suite."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KILLED = "solver.py:solver.validate_tau: 66.0 -> 64.0"
EQUIVALENT = ("problem.py:problem._dist_to_negative_normal_cone: "
              "resid[at_upper], 0.0 -> 0.0, resid[at_upper]")
TESTS = ["tests/test_solver.py::TestValidation::test_tau_bound_arithmetic",
         "tests/test_problem_api.py::TestEstimateSigma"]


def git_status():
    proc = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT, capture_output=True,
                          text=True)
    return proc.stdout if proc.returncode == 0 else None  # not a git checkout


def test_mutants_smoke_run(tmp_path):
    before = git_status()
    (tmp_path / "tmp").mkdir()
    out = tmp_path / "matrix.json"
    proc = subprocess.run(
        [sys.executable, "scripts/mutants.py", "--out", str(out), "--only", KILLED, EQUIVALENT,
         "--tests", *TESTS], cwd=ROOT, capture_output=True, text=True, timeout=120,
        env={**os.environ, "TMPDIR": str(tmp_path / "tmp")})
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    assert report["matrix"] == {KILLED: [TESTS[0]], EQUIVALENT: "survived"}
    assert EQUIVALENT in report["equivalent"]
    assert report["counts"] == {"mutants": 2, "killed": 1, "survived": 0, "equivalent": 1,
                                "timeout": 0}
    assert git_status() == before
    assert list((tmp_path / "tmp").iterdir()) == []


def test_every_killer_in_the_matrix_is_collected():
    # a renamed test left kill lists naming an id the suite no longer has; a killer may
    # also be a test file, whose collection the mutant broke
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "pytest", "--collect-only", "-q", "-p",
                           "no:cacheprovider", "tests/"], cwd=ROOT, capture_output=True,
                          text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stdout[-2000:]
    collected = {line for line in proc.stdout.splitlines() if line.startswith("tests/")}
    collected |= {node.split("::", 1)[0] for node in collected}
    matrix = json.loads((ROOT / "MUTANTS.json").read_text())["matrix"]
    named = {test for kills in matrix.values() if isinstance(kills, list) for test in kills}
    assert named and sorted(named - collected) == []
