"""Trace rows: their checks run at their step; their records are built, complete,
once per block of steps (``metrics._fill_rows``, from the run's flush).

Whole runs' rows are pinned by ``golden.json`` (``tests/test_golden.py``). Here:
each row makes one residual step, or takes the stop test's, and then carries that
test's own stationarity; a row whose checks fail still ends the run at its step;
the block reductions have one row's bits; no library module holds what ``-O``
changes, and overflow in the fill leaks no warning.
"""

import ast
import dataclasses
import inspect
import itertools
import math
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest

import gdpa.baselines
import gdpa.metrics
import gdpa.solver
from gdpa import ConstrainedProblem, GdpaConfig, ProjectionSpec, solve
from gdpa.cli import TRACE_HEADER, write_trace
from gdpa.metrics import (IterationRecord, _block_steps, _slackness, _sq_norms, _violation_sq,
                          make_record)
from gdpa.problems import build_analytic
from gdpa.solver import _Run
from tests.record_golden import CASES, run_case

ROOT = Path(__file__).resolve().parent.parent
BLOCK = _block_steps(2 * 1 + 2 * 1)  # scaled-1d's: d = m = 1


def test_a_record_is_built_complete_at_the_flush():
    p = build_analytic("scaled-1d").problem
    x, lam = np.full(1, 0.3), np.full(1, 0.5)
    run = _Run(p, GdpaConfig(), x, lam, 0.1)
    run.r = 1
    make_record(run, x, lam, None, p.g(x), p.grad_f(x), p.jacobian(x), 0.5, 1.0, 0.1,
                _violation_sq(p.g(x)))
    assert run.trace == [] and len(run.rows) == 1
    assert not any(isinstance(part, IterationRecord) for part in run.rows[0])
    run.flush()
    assert run.rows == [] and len(run.trace) == 1
    assert None not in dataclasses.astuple(run.trace[0])


def spy_on(monkeypatch, owner, name, outs):
    """Append every value ``owner.name`` returns to ``outs``."""
    real = getattr(owner, name)

    def wrapped(*args):
        out = real(*args)
        outs.append(out)
        return out

    monkeypatch.setattr(owner, name, wrapped)


@pytest.mark.parametrize("name", [f"{kind}/{case}" for kind in ("gdpa", "penalty", "alm")
                                  for case in ("feasibility-stop", "numerical-failure",
                                               "qq-d4-m0", "qq-d4-m2-simplex")])
def test_each_row_makes_one_residual_step_or_carries_the_stop_test_s(monkeypatch, name):
    # every step recorded; a row whose checks fail makes no row and no step
    kind, problem, *rest = CASES[name]
    built = problem()  # a zoo instance checks its KKT pair when built
    monkeypatch.setitem(CASES, name, (kind, lambda: built, *rest))
    module = gdpa.solver if kind == "gdpa" else gdpa.baselines
    steps, stop_tests, carried, real = [], [], [], module.make_record
    spy_on(monkeypatch, gdpa.solver, "_stationarity", stop_tests)  # the fill has its own
    for owner in (gdpa.solver, gdpa.metrics):  # the stop test's and make_record's
        spy_on(monkeypatch, owner, "_residual_step", steps)
    signature = inspect.signature(real)

    def spy(*args):
        real(*args)
        handed = signature.bind(*args).arguments.get("proj") is not None
        carried.append(stop_tests[-1][1] if handed else None)  # this step's test

    monkeypatch.setattr(module, "make_record", spy)
    res = run_case(name, record_every=1)
    assert len(steps) == len(carried) == len(res.trace) > 0
    for rec, stat in zip(res.trace, carried):
        assert stat is None or struct.pack("<d", rec.stationarity_sq) == struct.pack("<d", stat)
    if name == "gdpa/feasibility-stop":  # rows with and without the stop test's step
        assert 0 < sum(stat is not None for stat in carried) < len(carried)


def test_rows_are_the_same_under_python_O():
    # `python -O` drops asserts and `if __debug__:` blocks and sets sys.flags.optimize;
    # a module with none of them computes the same bits under -O
    found = []
    for path in sorted((ROOT / "src" / "gdpa").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Assert)
                    or isinstance(node, ast.Name) and node.id == "__debug__"
                    or isinstance(node, ast.Attribute) and node.attr == "flags"
                    and isinstance(node.value, ast.Name) and node.value.id == "sys"
                    or isinstance(node, ast.ImportFrom) and node.module == "sys"
                    and any(alias.name == "flags" for alias in node.names)):
                found.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert found == []


def clipped_overflow(huge_from):
    """A box clips every primal step; from its ``huge_from``-th evaluation grad f is
    1e306, so alpha_r * grad f overflows to -inf, which the box clips to -1, and only
    the trace row's check of its residual step sees the Inf."""
    calls = itertools.count(1)
    return ConstrainedProblem(
        dim=1, num_constraints=1, eval_f=lambda x: float(x[0]),
        eval_grad_f=lambda x: np.array([1e306 if next(calls) >= huge_from else 1.0]),
        eval_g=lambda x: np.array([x[0] + 2.0]), eval_jacobian=lambda x: np.ones((1, 1)),
        projection=ProjectionSpec.box(-np.ones(1), np.ones(1)))


def test_a_row_that_fails_its_check_ends_the_run_at_its_step():
    res = solve(clipped_overflow(71), GdpaConfig(max_iters=200, alpha01=1e3, record_every=1),
                np.zeros(1))
    assert (res.termination, res.iterations) == ("numerical-failure", 71)
    assert res.failure_message == "iteration 71: v contains NaN or Inf"
    assert len(res.trace) == 70 and res.x_final.tolist() == [-1.0]
    last = res.trace[-1]  # registered mid-block, filled at the exit
    assert dataclasses.astuple(last) == (
        70, 195.26348200858524, 4.121285299808556, 0.02426427503202587, -1.0,
        36.15634257435778, 0.9999999999999996, 1.0, 38.995222138281676, 38.995222138281676)


@pytest.mark.parametrize("rows", [1, 3, 64])
@pytest.mark.parametrize("n", [*range(41), 100, 257, 1000])
def test_block_reductions_have_the_bits_of_one_row(n, rows):
    rng = np.random.default_rng(100 * n + rows)
    block = rng.standard_normal((rows, n)) * 10.0 ** rng.uniform(-3, 3, (rows, 1))
    other = rng.standard_normal((rows, n))
    norms, slack = _sq_norms(block), _slackness(block, other)
    assert norms.shape == slack.shape == (rows,)
    for k in range(rows):
        assert struct.pack("<d", norms[k]) == struct.pack("<d", block[k].dot(block[k]))
        assert slack[k] == _slackness(block[k], other[k])
        assert _sq_norms(block[k]) == block[k].dot(block[k])


def huge_constraint():
    """g = 1e200 everywhere, so squares of g and lam overflow and F_beta is inf - inf."""
    return ConstrainedProblem(dim=1, num_constraints=1, eval_f=lambda x: 0.0,
                              eval_grad_f=lambda x: np.zeros(1),
                              eval_g=lambda x: np.array([1e200]),
                              eval_jacobian=lambda x: np.zeros((1, 1)))


@pytest.mark.parametrize("steps", [10, BLOCK + 3])  # filled at the exit, or at a block's end too
def test_rows_that_overflow_in_the_fill_leak_no_warning(tmp_path, steps):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = solve(huge_constraint(), GdpaConfig(max_iters=steps, record_every=1),
                    np.zeros(1), lambda0=np.array([1e200]))
        write_trace(tmp_path / "trace.csv", res.trace)
    assert res.termination == "budget-exhausted" and len(res.trace) == steps
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert lines[1] == "1,0.5,1.0,0.1,0.0,nan,inf,inf,inf,inf"
    assert lines[2] == ("2,0.4424933340244421,1.2599210498948732,0.07937005259840997,"
                        "0.0,nan,inf,inf,inf,inf")
    assert all(line.endswith(",0.0,nan,inf,inf,inf,inf") for line in lines[1:])


def test_write_trace_writes_the_joined_fields(tmp_path):
    records = [IterationRecord(1, math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e308,
                               -1e308, 0.1),
               IterationRecord(2, 1 / 3, 0.1, 5e-324, -0.0, -math.inf, math.inf, math.nan,
                               1e308, 0.0)]
    write_trace(tmp_path / "trace.csv", records)
    lines = [TRACE_HEADER, "1,nan,inf,-inf,-0.0,0.0,5e-324,1e+308,-1e+308,0.1",
             "2,0.3333333333333333,0.1,5e-324,-0.0,-inf,inf,nan,1e+308,0.0"]
    assert (tmp_path / "trace.csv").read_bytes() == "".join(f"{s}\n" for s in lines).encode()
    write_trace(tmp_path / "empty.csv", [])
    assert (tmp_path / "empty.csv").read_bytes() == (TRACE_HEADER + "\n").encode()
