"""Whole runs of GDPA and both baselines keep the digests in ``golden.json``: their
trace rows, final pairs, averages, terminations, T_eps and iteration counts. A
digest that no longer matches names its case, and both numpy versions when the
file was recorded with another one; ``python -m tests.record_golden`` re-records."""

import json

import numpy as np
import pytest

from tests.record_golden import CASES, GOLDEN, digest, run_case


@pytest.fixture(scope="module")
def recorded():
    return json.loads(GOLDEN.read_text())


def test_the_file_holds_every_case(recorded):
    assert sorted(recorded["cases"]) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_run_keeps_its_golden_digest(recorded, name):
    got, want = digest(run_case(name)), recorded["cases"][name]
    versions = ("" if recorded["numpy"] == np.__version__ else
                f" (recorded with numpy {recorded['numpy']}, running numpy {np.__version__})")
    assert got == want, f"{name}: digest {got} != recorded {want}{versions}"
