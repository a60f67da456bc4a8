"""The run's sums: solve() and both baselines sum their 1/beta-weighted averages
once per block of steps (``solver._Run``).

Whole runs' averages are pinned by ``golden.json`` (``tests/test_golden.py``);
here are the block sizes, the two forms of ``metrics._weighted_sum`` on either
side of its row-sum threshold, and the sums' overflow and buffer-reuse cases.
"""

import itertools
import warnings

import numpy as np
import pytest

from gdpa import (
    AlmConfig,
    ConstrainedProblem,
    GdpaConfig,
    PenaltyConfig,
    solve,
    solve_alm,
    solve_penalty,
)
from gdpa.metrics import _ROW_SUM_SIZE, _block_steps, _weighted_sum, weighted_average
from gdpa.problems import build_analytic
from gdpa.solver import _Run


def run_block(d: int, m: int) -> int:
    """The block of a run on a problem with d variables and m constraints."""
    p = ConstrainedProblem(dim=d, num_constraints=m, eval_f=None, eval_grad_f=None,
                           eval_g=lambda x: None, eval_jacobian=lambda x: None)
    return _Run(p, GdpaConfig(), np.zeros(d), None, 0.1).block


BLOCK = run_block(1, 1)  # scaled-1d's
NO_STOP = {"eps_feas": 1e-300, "eps_stat": 1e-300}


def same(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


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
