import numpy as np
import pytest

from gdpa import (
    AlmConfig,
    GdpaConfig,
    PenaltyConfig,
    solve,
    solve_alm,
    solve_penalty,
)
from gdpa.metrics import IterationRecord
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
        from gdpa import ConstrainedProblem
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

    def test_trace_schema_matches(self):
        cfg = PenaltyConfig(inner_iters=30, inner_step=1e-4, outer_iters=2,
                            feas_tol=1e-8, record_every=5, dense_until=0)
        res = solve_penalty(problem_a(), cfg, np.zeros(1))
        assert all(isinstance(rec, IterationRecord) for rec in res.trace)
        rs = [rec.r for rec in res.trace]
        assert rs == sorted(rs)
        assert all(rec.lambda_norm == 0.0 for rec in res.trace)


class TestAlm:
    def test_problem_a_multiplier_converges(self):
        cfg = AlmConfig(rho0=10.0, rho_growth=10.0, inner_iters=2000,
                        inner_step=1e-3, outer_iters=5, feas_tol=1e-10)
        res = solve_alm(problem_a(), cfg, np.zeros(1))
        assert abs(res.lambda_final[0] - 2.0) <= 0.1
        assert abs(res.x_final[0] - 1.0) <= 5e-2

    def test_large_dual_decays_on_strictly_feasible_problem(self):
        from gdpa import ConstrainedProblem
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

    def test_dual_always_nonnegative(self):
        cfg = AlmConfig(rho0=5.0, rho_growth=3.0, inner_iters=100,
                        inner_step=5e-3, outer_iters=6, feas_tol=1e-12)
        res = solve_alm(problem_a(), cfg, np.array([-2.0]))
        assert np.all(res.lambda_final >= 0.0)

    def test_lambda0_validation(self):
        with pytest.raises(ValueError):
            solve_alm(problem_a(), AlmConfig(), np.zeros(1), lambda0=np.array([-1.0]))


class TestAgreement:
    def test_three_solvers_agree_on_problem_a(self):
        p = problem_a()
        res_g = solve(p, GdpaConfig(max_iters=30_000, eps_feas=1e-14,
                                    eps_stat=1e-14, record_every=5000),
                      np.zeros(1))
        res_p = solve_penalty(p, PenaltyConfig(rho0=1.0, rho_growth=10.0,
                                               inner_iters=300, inner_step=9e-5,
                                               outer_iters=5, feas_tol=1e-8),
                              np.zeros(1))
        res_a = solve_alm(p, AlmConfig(rho0=10.0, rho_growth=10.0,
                                       inner_iters=2000, inner_step=1e-3,
                                       outer_iters=5, feas_tol=1e-10),
                          np.zeros(1))
        for res in (res_g, res_p, res_a):
            assert abs(res.x_final[0] - 1.0) <= 5e-2
