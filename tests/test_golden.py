"""Whole runs of GDPA and both baselines keep the digests in ``golden.json``: one per
field of their results (trace rows, final pair, averages, termination, T_eps and
iteration count). A mismatch names its case and the first field that differs, and
the numpy version and BLAS build of the file and of the run when they differ;
``python -m tests.record_golden`` re-records."""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gdpa.solver
from tests.record_golden import CASES, FIELDS, GOLDEN, build, changes, digests, run_case


@pytest.fixture(scope="module")
def recorded():
    return json.loads(GOLDEN.read_text())


def test_the_file_holds_every_case(recorded):
    assert sorted(recorded["cases"]) == sorted(CASES)
    assert all(sorted(fields) == sorted(FIELDS) for fields in recorded["cases"].values())


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_keeps_its_golden_digest(recorded, name):
    got, want = digests(run_case(name)), recorded["cases"][name]
    moved = [field for field in FIELDS if got[field] != want[field]]
    running = build()
    builds = ("" if all(recorded[k] == v for k, v in running.items()) else
              f" (recorded with numpy {recorded['numpy']} on {recorded['blas']}, running "
              f"numpy {running['numpy']} on {running['blas']})")
    assert not moved, (f"{name}: first differing field {moved[0]!r}, digest {got[moved[0]]} "
                       f"!= recorded {want[moved[0]]}; all that differ: {moved}{builds}")


def test_a_case_records_rows_in_the_stop_test_phase(monkeypatch):
    # a step with T_eps set and a violation within eps_feas runs the stop test,
    # which hands the step's row the projected step it made
    handed, real = [], gdpa.solver.make_record
    signature = inspect.signature(real)

    def spy(*args, **kwargs):
        handed.append(signature.bind(*args, **kwargs).arguments.get("proj") is not None)
        return real(*args, **kwargs)

    monkeypatch.setattr(gdpa.solver, "make_record", spy)
    res = run_case("gdpa/feasibility-stop")
    assert res.termination == "feasibility-stop" and len(handed) == len(res.trace)
    assert 0 < sum(handed) < len(handed)


def test_changes_names_each_moved_field_and_each_new_case():
    same = dict.fromkeys(FIELDS, "0")
    old = {"a": same, "b": same}
    assert changes(old, old) == ["0 cases moved"]
    new = {"a": {**same, "trace": "1", "T_eps": "1"}, "b": same, "c": same}
    assert changes(old, new) == ["moved: a trace", "moved: a T_eps", "new: c"]


def test_the_public_numpy_functions_keep_a_golden_digest(recorded):
    # vec.py binds the C count_nonzero, clip, where and concatenate of numpy's private
    # module, or the public functions where it lacks them: those give the same bits
    names = ("count_nonzero", "clip", "where", "concatenate")
    code = (
        "import json, tests, numpy as np\n"
        "try:\n    from numpy._core import _multiarray_umath as C\n"
        "except ImportError:\n    from numpy.core import _multiarray_umath as C\n"
        f"for name in {names}:\n    delattr(C, name)\n"
        "from gdpa import vec\n"
        "bound = (vec._count_nonzero, vec._clip, vec._where, vec._concatenate)\n"
        f"assert bound == tuple(getattr(np, name) for name in {names}), bound\n"
        "from tests.record_golden import digests, run_case\n"
        "print(json.dumps(digests(run_case('gdpa/qq-d4-m3'))))\n")
    src = str(Path(gdpa.solver.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code], cwd=GOLDEN.parent.parent,
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == recorded["cases"]["gdpa/qq-d4-m3"]
