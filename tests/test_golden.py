"""Whole runs of GDPA and both baselines keep the digests in ``golden.json``: one per
field of their results (trace rows, final pair, averages, termination, T_eps and
iteration count). A mismatch names its case and the first field that differs, and
the numpy version and BLAS build of the file and of the run when they differ;
``python -m tests.record_golden`` re-records."""

import inspect
import json

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
