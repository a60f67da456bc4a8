"""Trace rows: their checks run at their step; their records are built, complete,
once per block of steps (``metrics._fill_rows``, from the run's flush).

Every row of a run must carry the bytes that the per-row formulas give at its
step, whatever the run's length and exit, so the rows are compared on the bytes
with an independent per-row transcription of the formulas; a row whose checks
fail still ends the run at its step. A row of a stop-test step carries that
test's own stationarity, from the projected step the test made.
"""

import dataclasses
import hashlib
import inspect
import itertools
import math
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import gdpa.baselines
import gdpa.metrics
import gdpa.solver
from gdpa import (
    AlmConfig,
    ConstrainedProblem,
    GdpaConfig,
    PenaltyConfig,
    ProjectionSpec,
    solve,
    solve_alm,
    solve_penalty,
)
from gdpa.cli import TRACE_HEADER, write_trace
from gdpa.metrics import (IterationRecord, _block_steps, _slackness, _sq_norms, _violation_sq,
                          make_record)
from gdpa.problems import build_analytic
from gdpa.solver import _Run
from gdpa.vec import _project_raw
from tests.conftest import make_unconstrained

ROOT = Path(__file__).resolve().parent.parent
BLOCK = _block_steps(2 * 1 + 2 * 1)  # scaled-1d's: d = m = 1
LENGTHS = (1, BLOCK - 1, BLOCK, BLOCK + 1)
NO_STOP = {"eps_feas": 1e-300, "eps_stat": 1e-300}


def bits(rec: IterationRecord):
    return tuple(struct.pack("<d", v) if isinstance(v, float) else v
                 for v in dataclasses.astuple(rec))


def per_row(problem, x, lam, fx, gx, grad_fx, jac, r, alpha, beta, gamma, viol_sq,
            one_minus_tau, proj=None):
    """The row at one step, from its own vectors: Python floats and ndarray.dot. A
    projected step that the stop test hands over must be the one made here."""
    with np.errstate(all="ignore"):
        f_val = problem.f(x, fx)
        step = _project_raw(problem.projection, x - alpha * (grad_fx + jac.T.dot(lam)))
        assert proj is None or proj.tobytes() == step.tobytes()
        dual = lam - np.maximum(lam + beta * gx, 0.0)
        stacked = np.concatenate([(x - step) / alpha, dual / beta])
        stat_sq = float(stacked.dot(stacked))
        damped = one_minus_tau * lam
        arg_pos = np.maximum(gx + damped / beta, 0.0)
        merit = (f_val + 0.5 * beta * float(arg_pos.dot(arg_pos))
                 - float(damped.dot(damped)) / (2.0 * beta))
        return IterationRecord(r, alpha, beta, gamma, f_val, merit, stat_sq,
                               math.sqrt(viol_sq), float(np.add.reduce(np.abs(lam * gx))),
                               math.sqrt(float(lam.dot(lam))))


def one_row(problem, tau, r, *args, **kwargs):
    """The record that ``make_record(run, *args, **kwargs)`` makes as step r of a
    fresh run with damping tau, flushed as a one-row block."""
    run = _Run(problem, GdpaConfig(), np.zeros(problem.dim), None, tau)
    run.r = r
    make_record(run, *args, **kwargs)
    run.flush()
    return run.trace[0]


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


SIGNATURE = inspect.signature(make_record)


def spy_calls(monkeypatch, module):
    """The arguments of every make_record call the module makes, by name, as copies,
    with the run's problem and step in place of the run, and the stop test's
    stationarity where the call has the stop test's projected step (else None);
    and the list of every residual step made, by the stop test or by make_record."""
    calls, stop_tests, steps, real = [], [], [], module.make_record

    def spy(*args, **kwargs):
        call = {name: v.copy() if isinstance(v, np.ndarray) else v
                for name, v in SIGNATURE.bind(*args, **kwargs).arguments.items()}
        run = call.pop("run")
        real(*args, **kwargs)
        stop_stat = None if call.get("proj") is None else stop_tests[-1][1]  # this step's test
        calls.append((run.problem, run.r, call, stop_stat))  # only passed checks make a row

    def spy_on(owner, name, record):
        real_fn = getattr(owner, name)

        def wrapped(*args):
            out = real_fn(*args)
            record.append(out)
            return out

        monkeypatch.setattr(owner, name, wrapped)

    spy_on(gdpa.solver, "_stationarity", stop_tests)  # solve()'s stop test; the fill has its own
    spy_on(gdpa.solver, "_residual_step", steps)
    spy_on(gdpa.metrics, "_residual_step", steps)
    monkeypatch.setattr(module, "make_record", spy)
    return calls, steps


def assert_rows_on_bytes(res, calls, tau):
    assert len(res.trace) == len(calls) > 0
    for rec, (problem, r, call, stop_stat) in zip(res.trace, calls):
        want = bits(per_row(problem, r=r, one_minus_tau=1.0 - tau, **call))
        assert bits(rec) == want, rec.r
        assert bits(one_row(problem, tau, r, **call)) == want, rec.r
        if stop_stat is not None:
            assert struct.pack("<d", rec.stationarity_sq) == struct.pack("<d", stop_stat), rec.r


def ball(d):
    return ProjectionSpec.ball(np.zeros(d), 0.5)


def linear_problem(d, m, projection=None):
    """f = 0.5*||x - c||^2 and m random linear constraints a_i.x <= b_i."""
    rng = np.random.default_rng(d + 10 * m)
    c, a, b = rng.standard_normal(d), rng.standard_normal((m, d)), rng.uniform(-1, 0, m)
    return ConstrainedProblem(
        dim=d, num_constraints=m, eval_f=lambda x: 0.5 * float((x - c).dot(x - c)),
        eval_grad_f=lambda x: x - c, eval_g=lambda x: a.dot(x) - b,
        eval_jacobian=lambda x: a, projection=projection or ProjectionSpec.identity())


def reused_g_buffer(problem):
    """``problem`` with g written into one buffer, handed back on every call."""
    buf, eval_g = np.empty(problem.num_constraints), problem.eval_g

    def into_buffer(x):
        buf[:] = eval_g(x)
        return buf

    return dataclasses.replace(problem, eval_g=into_buffer)


PROJECTIONS = {
    "identity": ProjectionSpec.identity(),
    "box": ProjectionSpec.box(-0.2 * np.ones(4), 0.2 * np.ones(4)),
    "ball": ball(4),
    "nonnegative": ProjectionSpec.nonnegative(),
    "simplex": ProjectionSpec.simplex_blocks(2),
}

# (problem, settings, start, termination, steps)
SOLVE_RUNS = {
    **{f"R={n}": (lambda: build_analytic("scaled-1d").problem, {"max_iters": n, **NO_STOP},
                  np.full(1, 0.3), "budget-exhausted", n) for n in LENGTHS},
    "feasibility-stop": (lambda: build_analytic("scaled-1d").problem,
                         {"max_iters": 400, "eps_feas": 1e-3, "eps_stat": 1e-1},
                         np.full(1, 0.3), "feasibility-stop", 232),
    "numerical-failure": (lambda: build_analytic("scaled-1d").problem,
                          {"max_iters": 400, "alpha01": 1e3, **NO_STOP}, np.zeros(1),
                          "numerical-failure", 55),
    "m=0": (lambda: make_unconstrained(np.linspace(-1, 1, 3)), {"max_iters": 70, **NO_STOP},
            np.zeros(3), "budget-exhausted", 70),
    "d=1000": (lambda: linear_problem(1000, 3), {"max_iters": 9, **NO_STOP}, np.zeros(1000),
               "budget-exhausted", 9),
    "g-buffer": (lambda: reused_g_buffer(linear_problem(4, 2)), {"max_iters": 70, **NO_STOP},
                 np.full(4, 0.1), "budget-exhausted", 70),
    **{kind: (lambda spec=spec: linear_problem(4, 2, spec), {"max_iters": 70, **NO_STOP},
              np.full(4, 0.1), "budget-exhausted", 70) for kind, spec in PROJECTIONS.items()},
}


@pytest.mark.parametrize("case", list(SOLVE_RUNS))
def test_solve_rows_equal_the_per_row_form(monkeypatch, case):
    problem, settings, x0, termination, steps = SOLVE_RUNS[case]
    built = problem()  # a zoo instance checks its KKT pair when built
    calls, residual_steps = spy_calls(monkeypatch, gdpa.solver)
    cfg = GdpaConfig(**settings, record_every=1)
    res = solve(built, cfg, x0)
    assert (res.termination, res.iterations) == (termination, steps)
    assert len(residual_steps) == len(calls)  # one per row, by the stop test or make_record
    assert_rows_on_bytes(res, calls, cfg.tau)
    if termination == "feasibility-stop":  # rows with and without the stop test's step
        assert 0 < sum(stop is not None for *_, stop in calls) < len(calls)


# (problem, settings, start, termination, steps of the penalty method and of ALM)
BASELINE_RUNS = {
    **{f"R={n}": (lambda: build_analytic("scaled-1d").problem,
                  {"inner_iters": 40, "outer_iters": 10, "inner_step": 1e-2, "max_steps": n},
                  np.full(1, 0.3), "budget-exhausted", (n, n)) for n in LENGTHS},
    "feasibility-stop": (lambda: build_analytic("circle-exterior").problem,
                         {"inner_iters": 30, "inner_step": 1e-2, "feas_tol": 1e-2},
                         np.full(2, 0.3), "feasibility-stop", (90, 90)),
    "numerical-failure": (lambda: build_analytic("scaled-1d").problem,
                          {"inner_iters": 40, "inner_step": 300.0}, np.full(1, 0.3),
                          "numerical-failure", (54, 56)),
    # without a violation the first round ends the run
    "m=0": (lambda: make_unconstrained(np.linspace(-1, 1, 3)), {"inner_iters": 70},
            np.zeros(3), "feasibility-stop", (70, 70)),
    "d=1000": (lambda: linear_problem(1000, 3), {"inner_iters": 10}, np.zeros(1000),
               "feasibility-stop", (10, 10)),
    "g-buffer": (lambda: reused_g_buffer(build_analytic("scaled-1d").problem),
                 {"inner_iters": 40, "outer_iters": 2, "inner_step": 1e-2}, np.full(1, 0.3),
                 "budget-exhausted", (80, 80)),
    **{kind: (lambda spec=spec: linear_problem(4, 2, spec),
              {"inner_iters": 35, "outer_iters": 2, "inner_step": 0.1}, np.full(4, 0.1),
              "budget-exhausted", (70, 70)) for kind, spec in PROJECTIONS.items()},
}


@pytest.mark.parametrize("alm", [False, True], ids=["penalty", "alm"])
@pytest.mark.parametrize("case", list(BASELINE_RUNS))
def test_baseline_rows_equal_the_per_row_form(monkeypatch, alm, case):
    problem, settings, x0, termination, steps = BASELINE_RUNS[case]
    built = problem()
    calls, residual_steps = spy_calls(monkeypatch, gdpa.baselines)
    run = solve_alm if alm else solve_penalty
    res = run(built, (AlmConfig if alm else PenaltyConfig)(**settings, record_every=1), x0)
    assert (res.termination, res.iterations) == (termination, steps[alm])
    assert len(residual_steps) == len(calls)
    assert_rows_on_bytes(res, calls, 0.0)


def trace_digest() -> str:
    """sha256 of the rows of a feasibility stop, a numerical failure and both baselines."""
    p, h = build_analytic("scaled-1d").problem, hashlib.sha256()
    for res in (solve(p, GdpaConfig(max_iters=300, record_every=1, eps_feas=1e-3,
                                    eps_stat=1e-1), np.full(1, 0.3)),
                solve(p, GdpaConfig(max_iters=400, alpha01=1e3, record_every=1), np.zeros(1)),
                solve_penalty(p, PenaltyConfig(inner_iters=40, inner_step=1e-2,
                                               record_every=1), np.full(1, 0.3)),
                solve_alm(p, AlmConfig(inner_iters=40, inner_step=1e-2, record_every=1),
                          np.full(1, 0.3))):
        h.update(repr([dataclasses.astuple(rec) for rec in res.trace]).encode())
    return h.hexdigest()


def test_rows_are_the_same_under_python_O():
    # nothing the solvers compute may depend on asserts or __debug__
    proc = subprocess.run(
        [sys.executable, "-O", "-c", "from tests.test_rows import trace_digest as d; print(d())"],
        cwd=ROOT, env={"PYTHONPATH": f"{ROOT / 'src'}:{ROOT}"}, capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == trace_digest()


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


def joined_rows(records):
    """The trace text as rows joined field by field."""
    return TRACE_HEADER + "\n" + "".join(",".join([
        str(rec.r), repr(rec.alpha), repr(rec.beta), repr(rec.gamma), repr(rec.f_value),
        repr(rec.F_beta_value), repr(rec.stationarity_sq), repr(rec.feasibility),
        repr(rec.slackness), repr(rec.lambda_norm)]) + "\n" for rec in records)


def test_write_trace_writes_the_joined_fields(tmp_path):
    specials = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e308, -1e308, 0.1, 1 / 3]
    records = [IterationRecord(r, *(specials[(r + k) % len(specials)] for k in range(9)))
               for r in range(1, 2 * len(specials) + 1)]
    write_trace(tmp_path / "trace.csv", records)
    want = joined_rows(records).encode()
    assert (tmp_path / "trace.csv").read_bytes() == want
    assert b"nan" in want and b"-inf" in want and b"-0.0" in want and b"5e-324" in want
    write_trace(tmp_path / "empty.csv", [])
    assert (tmp_path / "empty.csv").read_bytes() == (TRACE_HEADER + "\n").encode()
