"""The run's sums: solve() and both baselines sum their 1/beta-weighted averages
once per block of steps (``solver._Run``).

The averages must have the bits of the per-step form ``x_sum = x_sum + x / beta``
whatever the run's length and exit, so every comparison here is on the bytes.
"""

import itertools
import warnings

import numpy as np
import pytest

import gdpa.baselines
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
from gdpa.metrics import _ROW_SUM_SIZE, _block_steps, _weighted_sum, weighted_average
from gdpa.problems import build_analytic
from gdpa.solver import _Run
from tests.conftest import make_unconstrained


def run_block(d: int, m: int) -> int:
    """The block of a run on a problem with d variables and m constraints."""
    p = ConstrainedProblem(dim=d, num_constraints=m, eval_f=None, eval_grad_f=None,
                           eval_g=lambda x: None, eval_jacobian=lambda x: None)
    return _Run(p, GdpaConfig(), np.zeros(d), None, 0.1).block


BLOCK = run_block(1, 1)  # scaled-1d's
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
    assert run_block(1000, 3) == 8  # cmdp-100x10's
    assert run_block(10 ** 6, 0) == 1
    assert _block_steps(0) == 64


@pytest.mark.parametrize("rows", [1, 8, 64])
@pytest.mark.parametrize("size", [_ROW_SUM_SIZE - 1, _ROW_SUM_SIZE, _ROW_SUM_SIZE + 1])
def test_sums_on_either_side_of_the_row_sum_size_equal_the_per_row_form(size, rows):
    # below the threshold the rows add as one accumulated block, from it on one by
    # one; entry 0 overflows to inf and, with a second row, entry 1 to inf - inf
    rng = np.random.default_rng(size * rows)
    block = rng.standard_normal((rows, size)) * 10.0 ** rng.integers(-3, 4, (rows, 1))
    betas = list(rng.uniform(0.01, 2.0, rows))
    block[0, :2], block[-1, 1], betas[0], betas[-1] = 1e308, -1e308, 0.5, 0.5
    acc, xs = rng.standard_normal(size), list(block)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        average = weighted_average(xs, betas)  # under its own errstate
        with np.errstate(over="ignore", invalid="ignore"):  # as the run's flushes
            got = _weighted_sum(acc, xs, betas)
            want, want_avg, wsum = acc, np.zeros(size), 0.0
            for x, beta in zip(xs, betas):
                want, want_avg, wsum = want + x / beta, want_avg + x / beta, wsum + 1.0 / beta
            want_avg = want_avg / wsum
    assert same(got, want) and same(average, want_avg)
    assert got[0] == average[0] == np.inf and np.isnan(got[1]) == np.isnan(average[1]) == (rows > 1)


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

    def spy(run, x, lam, fx, gx, grad, jac, alpha, beta, *rest, **kwargs):
        rows.append((x.copy(), lam.copy(), beta))
        return real(run, x, lam, fx, gx, grad, jac, alpha, beta, *rest, **kwargs)

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


def test_averages_keep_each_step_s_multiplier_when_g_reuses_its_buffer():
    # a callback may hand back one buffer on every call: g runs +1, +1, -1, ...
    # in it, and a correct dual update grows the multiplier on a step from +1 to
    # +1; a block's end finds -1 in the buffer on some blocks, which must not
    # change the multipliers the block sums
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
