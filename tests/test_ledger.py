"""The run ledger: solve() and both baselines sum their 1/beta-weighted averages,
and solve() runs the debug check of its dual update, once per block of steps.

The averages must have the bits of the per-step form ``x_sum = x_sum + x / beta``
whatever the run's length and exit, so every comparison here is on the bytes;
the check must name the first failing step, and must still fire when the run
ends before its block does.
"""

import itertools
import warnings

import numpy as np
import pytest

import gdpa.baselines
import gdpa.solver
from gdpa import (
    AlmConfig,
    ConstrainedProblem,
    GdpaConfig,
    PenaltyConfig,
    schedule,
    solve,
    solve_alm,
    solve_penalty,
)
from gdpa.metrics import _block_steps
from gdpa.problems import build_analytic
from gdpa.solver import _RunLedger
from tests.conftest import make_unconstrained

BLOCK = _RunLedger(np.zeros(1), np.zeros(1)).block  # scaled-1d's: d = m = 1
LENGTHS = (1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1)
NO_STOP = {"eps_feas": 1e-300, "eps_stat": 1e-300}


def same(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def per_step_averages(pairs, betas):
    """The averages as a loop that rebinds its sums on every step forms them."""
    x_sum, lam_sum, weight_sum = np.zeros_like(pairs[0][0]), np.zeros_like(pairs[0][1]), 0.0
    for (x, lam), beta in zip(pairs, betas):
        weight_sum += 1.0 / beta
        x_sum = x_sum + x / beta
        lam_sum = lam_sum + lam / beta
    return x_sum / weight_sum, lam_sum / weight_sum


def assert_per_step_averages(res, pairs, betas):
    assert len(pairs) == len(betas) == res.iterations
    x_avg, lam_avg = per_step_averages(pairs, betas)
    assert same(res.x_avg, x_avg) and same(res.lambda_avg, lam_avg)


def test_block_is_at_most_64_steps_and_one_for_a_million_entries():
    assert BLOCK == 64
    assert _RunLedger(np.zeros(1000), np.zeros(3)).block == 8  # cmdp-100x10's
    assert _RunLedger(np.zeros(10 ** 6), np.zeros(0)).block == 1
    assert _block_steps(0) == 64


@pytest.mark.parametrize("run, termination, steps", [
    *[({"max_iters": n}, "budget-exhausted", n) for n in LENGTHS],
    ({"max_iters": 400, "eps_feas": 1e-3, "eps_stat": 1e-1}, "feasibility-stop", 232),
    ({"max_iters": 400, "alpha01": 1e3}, "numerical-failure", 55),
], ids=[*[f"R={n}" for n in LENGTHS], "feasibility-stop", "numerical-failure"])
def test_solve_averages_equal_the_per_step_form(run, termination, steps):
    cfg = GdpaConfig(**{**NO_STOP, **run})
    x0 = np.zeros(1) if termination == "numerical-failure" else np.full(1, 0.3)
    res = solve(build_analytic("scaled-1d").problem, cfg, x0, capture_iterates=True)
    assert (res.termination, res.iterations) == (termination, steps)
    betas = [schedule(cfg, r)[1] for r in range(1, steps + 1)]
    assert_per_step_averages(res, res.iterates, betas)


def test_solve_averages_with_a_million_entry_point():
    p = make_unconstrained(np.linspace(-1.0, 1.0, 10 ** 6))
    cfg = GdpaConfig(max_iters=3, **NO_STOP)
    res = solve(p, cfg, np.zeros(p.dim), capture_iterates=True)
    assert_per_step_averages(res, res.iterates, [schedule(cfg, r)[1] for r in (1, 2, 3)])


def spy_rows(monkeypatch):
    """(x, lam, rho) of every step a baseline records, with record_every=1 every step."""
    rows, real = [], gdpa.baselines.make_record

    def spy(problem, x, lam, fx, gx, grad, jac, step, alpha, beta, *rest, **kwargs):
        rows.append((x.copy(), lam.copy(), beta))
        return real(problem, x, lam, fx, gx, grad, jac, step, alpha, beta, *rest, **kwargs)

    monkeypatch.setattr(gdpa.baselines, "make_record", spy)
    return rows


# (problem id, settings, termination, steps of the penalty method and of ALM);
# the ALM rounds move lam, and both methods' rounds move rho
BASELINE_RUNS = [
    *[("scaled-1d", {"inner_iters": 40, "outer_iters": 10, "inner_step": 1e-2, "max_steps": n},
       "budget-exhausted", (n, n)) for n in LENGTHS],
    ("circle-exterior", {"inner_iters": 30, "inner_step": 1e-2, "feas_tol": 1e-2},
     "feasibility-stop", (90, 90)),
    ("scaled-1d", {"inner_iters": 40, "inner_step": 300.0}, "numerical-failure", (54, 56)),
]


@pytest.mark.parametrize("alm", [False, True], ids=["penalty", "alm"])
@pytest.mark.parametrize("aid, settings, termination, steps", BASELINE_RUNS,
                         ids=[*[f"R={n}" for n in LENGTHS], "feasibility-stop",
                              "numerical-failure"])
def test_baseline_averages_equal_the_per_step_form(monkeypatch, alm, aid, settings,
                                                   termination, steps):
    rows = spy_rows(monkeypatch)
    p = build_analytic(aid).problem
    run = solve_alm if alm else solve_penalty
    res = run(p, (AlmConfig if alm else PenaltyConfig)(**settings, record_every=1),
              np.full(p.dim, 0.3))
    assert (res.termination, res.iterations) == (termination, steps[alm])
    assert_per_step_averages(res, [(x, lam) for x, lam, _ in rows], [rho for *_, rho in rows])


def never_active(nan_grad_at=None):
    """f(x) = x, never stationary, and g = -1 everywhere, so a correct dual update
    keeps lam at 0; the gradient turns NaN on its ``nan_grad_at``-th evaluation."""
    calls = itertools.count(1)
    return ConstrainedProblem(
        dim=1, num_constraints=1, eval_f=lambda x: float(x[0]),
        eval_grad_f=lambda x: np.array([np.nan if next(calls) == nan_grad_at else 1.0]),
        eval_g=lambda x: np.array([-1.0]), eval_jacobian=lambda x: np.zeros((1, 1)))


def break_dual_kernel(monkeypatch, bad_steps):
    """The dual kernel leaves a multiplier at 1 more than it should at ``bad_steps``."""
    real, calls = gdpa.solver._dual_step_raw, itertools.count(1)

    def kernel(g, damped, mask, beta):
        lam_next = real(g, damped, mask, beta)
        return lam_next + 1.0 if next(calls) in bad_steps else lam_next

    monkeypatch.setattr(gdpa.solver, "_dual_step_raw", kernel)


@pytest.mark.parametrize("bad_steps, max_iters", [
    ({30, 31, 100}, 200),  # mid-block, with more failures after it
    ({140}, 150),  # in the last, partial block
], ids=["mid-block", "last-partial-block"])
def test_check_names_the_first_failing_step(monkeypatch, bad_steps, max_iters):
    break_dual_kernel(monkeypatch, bad_steps)
    with pytest.raises(AssertionError, match=rf"^inactive multiplier not zeroed at "
                                             rf"r={min(bad_steps)}$"):
        solve(never_active(), GdpaConfig(max_iters=max_iters, **NO_STOP), np.ones(1))


def test_check_wins_over_a_later_failure_in_its_block(monkeypatch):
    cfg = GdpaConfig(max_iters=200, **NO_STOP)
    res = solve(never_active(nan_grad_at=25), cfg, np.ones(1))
    assert res.termination == "numerical-failure" and res.iterations == 25
    break_dual_kernel(monkeypatch, {20})
    with pytest.raises(AssertionError, match=r"^inactive multiplier not zeroed at r=20$"):
        solve(never_active(nan_grad_at=25), cfg, np.ones(1))


@pytest.mark.parametrize("second, message", [
    ("contracted", "inactive multiplier not zeroed at r=6"),
    ("zeroed", "dual contraction violated at r=6"),
])
def test_check_message_belongs_to_the_first_failing_step(second, message):
    # r=5 passes; r=6 fails one way and r=7 the other: the message is r=6's
    ledger = _RunLedger(np.zeros(1), np.zeros(1))
    active, inactive = np.array([True]), np.array([False])
    feasible, one, half = np.array([False]), np.array([1.0]), np.array([0.5])
    contraction_fails = (active, feasible, one, half)  # active, g <= 0, lam grew
    not_zeroed = (inactive, feasible, one, half)
    rows = [not_zeroed, contraction_fails] if second == "contracted" else [
        contraction_fails, not_zeroed]
    ledger.checks.append((5, active, feasible, half, one))
    ledger.checks.extend((r, *row) for r, row in zip((6, 7), rows))
    with pytest.raises(AssertionError, match=rf"^{message}$"):
        ledger.flush()
    assert ledger.checks == []


def test_check_keeps_each_step_s_constraint_sign():
    # a callback may hand back one buffer on every call: g runs +1, +1, -1, ...
    # in it, and a correct dual update grows the multiplier on a step from +1 to
    # +1; a block's end finds -1 in the buffer on some blocks
    buf, calls = np.empty(1), itertools.count()

    def eval_g(x):
        buf[0] = 1.0 if next(calls) % 3 < 2 else -1.0
        return buf

    p = ConstrainedProblem(dim=1, num_constraints=1, eval_f=lambda x: float(x[0]),
                           eval_grad_f=lambda x: np.ones(1), eval_g=eval_g,
                           eval_jacobian=lambda x: np.zeros((1, 1)))
    res = solve(p, GdpaConfig(max_iters=3 * BLOCK, **NO_STOP), np.zeros(1))
    assert res.termination == "budget-exhausted" and res.lambda_avg[0] > 0


@pytest.mark.parametrize("run", [
    lambda p, x0: solve(p, GdpaConfig(beta0=1e-300, max_iters=5), x0),
    lambda p, x0: solve_penalty(p, PenaltyConfig(rho0=1e-300, inner_iters=5, outer_iters=1), x0),
    lambda p, x0: solve_alm(p, AlmConfig(rho0=1e-300, inner_iters=5, outer_iters=1), x0),
], ids=["gdpa", "penalty", "alm"])
def test_exit_flush_of_an_overflowing_average_leaks_no_warning(run):
    # x/beta overflows; the flushes in the loop ran under its errstate, the exit one did not
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = run(build_analytic("scaled-1d").problem, np.full(1, 1e10))
    assert res.iterations == 5 and not np.isfinite(res.x_avg).all()
