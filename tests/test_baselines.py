import dataclasses
import itertools

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
from gdpa.problems import build_analytic
from tests.conftest import make_unconstrained


def problem_a():
    return build_analytic("scaled-1d").problem


class TestPenalty:
    def test_problem_a_tracks_closed_form_minimizers(self):
        # inner objective x^2 + (rho/2)(1-x)_+^2 has minimizer rho/(2+rho) -> 1
        cfg = PenaltyConfig(rho0=1.0, rho_growth=10.0, inner_iters=300,
                            inner_step=9e-5, outer_iters=5, feas_tol=1e-8)
        res = solve_penalty(problem_a(), cfg, np.zeros(1))
        rho_final = 1.0 * 10.0 ** 4
        assert res.x_final[0] == pytest.approx(rho_final / (2.0 + rho_final), abs=1e-4)
        assert abs(res.x_final[0] - 1.0) <= 5e-2
        assert np.all(res.lambda_final == 0.0)

    def test_m0_is_projected_gradient_descent(self):
        c = np.array([0.4, -0.9])
        p = make_unconstrained(c)
        cfg = PenaltyConfig(inner_iters=50, inner_step=0.2, outer_iters=2,
                            feas_tol=1e-9)
        res = solve_penalty(p, cfg, np.zeros(2))
        x = np.zeros(2)
        for _ in range(50):  # feasibility stop fires after the first outer round
            x = x - 0.2 * p.grad_f(x)
        assert np.array_equal(res.x_final, x)
        assert res.termination == "feasibility-stop"
        assert res.T_eps == 1

    def test_feasible_stationary_start_is_fixed_point(self):
        # strictly feasible x0 with zero objective gradient: nothing moves
        p = ConstrainedProblem(
            dim=1, num_constraints=1,
            eval_f=lambda x: float((x[0] - 2.0) ** 2),
            eval_grad_f=lambda x: np.array([2.0 * (x[0] - 2.0)]),
            eval_g=lambda x: np.array([x[0] - 5.0]),
            eval_jacobian=lambda x: np.array([[1.0]]))
        cfg = PenaltyConfig(inner_iters=20, inner_step=0.1, outer_iters=3,
                            feas_tol=1e-8)
        res = solve_penalty(p, cfg, np.array([2.0]))
        assert res.x_final[0] == 2.0
        assert res.termination == "feasibility-stop"


class TestAlm:
    def test_problem_a_multiplier_converges(self):
        cfg = AlmConfig(rho0=10.0, rho_growth=10.0, inner_iters=2000,
                        inner_step=1e-3, outer_iters=5, feas_tol=1e-10)
        res = solve_alm(problem_a(), cfg, np.zeros(1))
        assert abs(res.lambda_final[0] - 2.0) <= 0.1
        assert abs(res.x_final[0] - 1.0) <= 5e-2

    def test_large_dual_decays_on_strictly_feasible_problem(self):
        p = ConstrainedProblem(
            dim=1, num_constraints=1,
            eval_f=lambda x: float(x[0] ** 2),
            eval_grad_f=lambda x: 2.0 * x,
            eval_g=lambda x: np.array([-1.0]),
            eval_jacobian=lambda x: np.zeros((1, 1)))
        cfg = AlmConfig(rho0=2.0, rho_growth=2.0, inner_iters=10,
                        inner_step=0.1, outer_iters=6, feas_tol=1e-12)
        res = solve_alm(p, cfg, np.array([1.0]), lambda0=np.array([10.0]))
        assert res.lambda_final[0] < 10.0
        assert res.lambda_final[0] >= 0.0

    def test_m0_reduces_to_gradient_descent(self):
        c = np.array([1.5])
        p = make_unconstrained(c)
        cfg = AlmConfig(inner_iters=40, inner_step=0.5, outer_iters=3, feas_tol=1e-9)
        res = solve_alm(p, cfg, np.zeros(1))
        np.testing.assert_allclose(res.x_final, c, atol=1e-8)
        assert res.termination == "feasibility-stop"

    def test_rho_grows_only_when_a_round_cuts_the_violation_by_less_than_a_tenth(self):
        # x never moves (grad f = 0, J = 0), so each round's violation is scripted: 1 at
        # the start, then 1.0, 0.89 (cut by 11%: rho stays), 0.85 (cut by 4.5%: it grows)
        values = iter([1.0, 1.0, 0.89, 0.85, 0.5])
        p = ConstrainedProblem(dim=1, num_constraints=1, eval_f=lambda x: 0.0,
                               eval_grad_f=lambda x: np.zeros(1),
                               eval_g=lambda x: np.array([next(values)]),
                               eval_jacobian=lambda x: np.zeros((1, 1)))
        res = solve_alm(p, AlmConfig(rho0=1.0, rho_growth=2.0, inner_iters=1, outer_iters=4,
                                     feas_tol=1e-3, record_every=1), np.zeros(1))
        assert [rec.beta for rec in res.trace] == [1.0, 1.0, 1.0, 2.0]

    def test_dual_always_nonnegative(self):
        cfg = AlmConfig(rho0=5.0, rho_growth=3.0, inner_iters=100,
                        inner_step=5e-3, outer_iters=6, feas_tol=1e-12)
        res = solve_alm(problem_a(), cfg, np.array([-2.0]))
        assert np.all(res.lambda_final >= 0.0)


@pytest.mark.parametrize("cls, rho_growth", [(PenaltyConfig, 0.5), (AlmConfig, 1.0)])
def test_rho_growth_must_exceed_1(cls, rho_growth):
    with pytest.raises(ValueError, match=r"^rho_growth must exceed 1$"):
        cls(rho_growth=rho_growth)


RUNS = {  # a baseline's second round begins at step 31
    "gdpa": lambda p: solve(p, GdpaConfig(max_iters=90), np.zeros(1)),
    "penalty": lambda p: solve_penalty(p, PenaltyConfig(inner_iters=30, outer_iters=3,
                                                        feas_tol=1e-300), np.zeros(1)),
    "alm": lambda p: solve_alm(p, AlmConfig(inner_iters=30, outer_iters=3, feas_tol=1e-300),
                               np.zeros(1)),
}


class TestFailure:
    @pytest.mark.parametrize("step", [1, 45])
    @pytest.mark.parametrize("kind", list(RUNS))
    def test_failure_names_its_step(self, kind, step):
        # grad f is evaluated once per step, at that step's iterate
        base, calls = problem_a(), itertools.count(1)
        p = dataclasses.replace(base, eval_grad_f=lambda x: base.eval_grad_f(x) * (
            np.nan if next(calls) == step else 1.0))
        res = RUNS[kind](p)
        assert (res.termination, res.iterations) == ("numerical-failure", step)
        assert res.failure_message.startswith(
            f"iteration {step}: grad f(x) is not finite at x=array(")

    @pytest.mark.parametrize("kind", list(RUNS))
    def test_failure_before_the_first_step_names_the_initial_evaluation(self, kind):
        base = problem_a()
        res = RUNS[kind](dataclasses.replace(base, eval_g=lambda x: np.array([np.nan])))
        assert (res.termination, res.iterations, res.trace) == ("numerical-failure", 0, [])
        assert res.failure_message == "initial evaluation: g(x) is not finite at x=array([0.])"

    @pytest.mark.parametrize("out, says", [
        ((1.0, np.zeros(1), np.zeros(1)), "not enough values to unpack (expected 4, got 3)"),
        (None, "cannot unpack non-iterable NoneType object"),
    ], ids=["three", "none"])
    @pytest.mark.parametrize("kind", ["gdpa", "alm"])
    def test_fused_oracle_of_another_arity_is_named(self, kind, out, says):
        # the unpack's own ValueError or TypeError ended the run without naming the callback
        p = dataclasses.replace(problem_a(), eval_first_order=lambda x: out)
        with pytest.raises(TypeError) as info:
            RUNS[kind](p)
        assert str(info.value) == f"eval_first_order must return (f, g, grad f, J): {says}"


class TestTrace:
    @pytest.mark.parametrize("kind, outer_iters, termination, iterations", [
        ("penalty", 6, "feasibility-stop", 1818),
        ("penalty", 3, "budget-exhausted", 909),
        ("alm", 6, "feasibility-stop", 909),
        ("alm", 2, "budget-exhausted", 606),
    ])
    def test_last_step_of_each_round_is_recorded(self, kind, outer_iters, termination,
                                                 iterations):
        # 303 steps a round fall off the record_every grid, so the last row
        # was r=1810 for a penalty run of 1818 steps; solve() records its last
        if kind == "penalty":
            res = solve_penalty(problem_a(), PenaltyConfig(
                rho0=1.0, rho_growth=10.0, inner_iters=303, inner_step=9e-5,
                outer_iters=outer_iters, feas_tol=1e-300, record_every=10,
                dense_until=0), np.zeros(1))
        else:
            res = solve_alm(problem_a(), AlmConfig(
                rho0=10.0, rho_growth=10.0, inner_iters=303, inner_step=1e-3,
                outer_iters=outer_iters, feas_tol=1e-300, record_every=10,
                dense_until=0), np.zeros(1))
        assert (res.termination, res.iterations) == (termination, iterations)
        assert res.trace[-1].r == res.iterations
        assert [rec.r for rec in res.trace if rec.r % 10] == list(range(303, iterations + 1, 303))

    @pytest.mark.parametrize("kind", ["penalty", "alm"])
    @pytest.mark.parametrize("aid", ["circle-exterior", "halfspace-quadratic"])
    def test_t_eps_is_the_step_after_which_the_iterate_is_feasible(self, kind, aid):
        # as in solve(): a row holds its step's pre-update iterate, so the iterate
        # after step T_eps is row T_eps + 1, the first within feas_tol
        p = build_analytic(aid).problem
        cfg = (AlmConfig if kind == "alm" else PenaltyConfig)(
            inner_iters=40, outer_iters=10, inner_step=1e-2, record_every=1)
        res = (solve_alm if kind == "alm" else solve_penalty)(p, cfg, np.full(p.dim, 0.3))
        assert res.trace[0].feasibility > cfg.feas_tol
        first = next(rec.r for rec in res.trace if rec.feasibility <= cfg.feas_tol)
        assert res.T_eps + 1 == first < res.iterations
