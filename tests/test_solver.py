import dataclasses
import math

import numpy as np
import pytest

from gdpa import (
    ConstrainedProblem,
    GdpaConfig,
    PenaltyConfig,
    ProblemConstants,
    ProjectionSpec,
    active_set,
    dual_step,
    primal_step,
    schedule,
    solve,
    solve_penalty,
    validate_alpha,
    validate_tau,
    weighted_average,
)
from gdpa.problems import build_analytic
from gdpa.vec import project
from tests.conftest import make_unconstrained, random_quadratic_problem


class TestSchedule:
    def test_beta_cube_root(self):
        cfg = GdpaConfig(beta0=2.0)
        _, beta, _ = schedule(cfg, 8)
        assert beta == pytest.approx(4.0)

    def test_gamma_is_tau_over_beta(self):
        cfg = GdpaConfig(tau=0.5, beta0=2.0)
        _, beta, gamma = schedule(cfg, 8)
        assert beta == pytest.approx(4.0)
        assert gamma == pytest.approx(0.125)

    def test_alpha_form(self):
        cfg = GdpaConfig(alpha01=1.0, alpha02=1.0, alpha03=1.0)
        alpha, _, _ = schedule(cfg, 8)
        assert alpha == pytest.approx(1.0 / 3.0)

    def test_monotonicity_and_coupling(self):
        cfg = GdpaConfig(tau=0.3, beta0=0.7, alpha01=0.9, alpha02=1.1, alpha03=2.0)
        prev = schedule(cfg, 1)
        for r in range(2, 500):
            cur = schedule(cfg, r)
            assert cur[1] >= prev[1]            # beta nondecreasing
            assert cur[0] <= prev[0]            # alpha nonincreasing
            assert cur[2] <= prev[2]            # gamma nonincreasing
            # gamma is defined as tau/beta, bit-identically
            assert cur[2] == cfg.tau / cur[1]
            # the product recovers tau to within a rounding step
            assert cur[2] * cur[1] == pytest.approx(cfg.tau, abs=1e-15)
            prev = cur

    def test_r_zero_rejected(self):
        with pytest.raises(ValueError):
            schedule(GdpaConfig(), 0)


class TestActiveSet:
    def test_shifted_value_positive(self):
        # -0.1 + 0.5*1.0/2 = 0.15 > 0
        mask = active_set(np.array([-0.1]), np.array([1.0]), beta_r=2.0, tau=0.5)
        assert mask.tolist() == [True]

    def test_shifted_value_nonpositive(self):
        # -1 + 0.5*0.2/1 = -0.9 <= 0
        mask = active_set(np.array([-1.0]), np.array([0.2]), beta_r=1.0, tau=0.5)
        assert mask.tolist() == [False]

    def test_boundary_is_inactive(self):
        mask = active_set(np.zeros(1), np.zeros(1), beta_r=1.0, tau=0.5)
        assert mask.tolist() == [False]


class TestPrimalStep:
    def test_unconstrained_gradient_step(self):
        p = ConstrainedProblem(dim=2, num_constraints=0,
                               eval_f=lambda x: 0.5 * float(x @ x),
                               eval_grad_f=lambda x: x)
        out = primal_step(p, np.array([1.0, 1.0]), np.zeros(0), 0.1, 1.0, 0.5)
        np.testing.assert_allclose(out, [0.9, 0.9], atol=1e-15)

    def test_penalized_direction(self):
        # f=0, g=x-1 at x=2: bracket [0 + 1*1]_+ = 1, J=1 -> x' = 2 - 0.5 = 1.5
        p = ConstrainedProblem(dim=1, num_constraints=1,
                               eval_f=lambda x: 0.0,
                               eval_grad_f=lambda x: np.zeros(1),
                               eval_g=lambda x: np.array([x[0] - 1.0]),
                               eval_jacobian=lambda x: np.array([[1.0]]))
        out = primal_step(p, np.array([2.0]), np.zeros(1), 0.5, 1.0, 0.5)
        assert out[0] == pytest.approx(1.5)

    def test_positive_part_gate_closes(self):
        # g=x-3 at x=2 with lam=0: bracket clips to zero, no movement
        p = ConstrainedProblem(dim=1, num_constraints=1,
                               eval_f=lambda x: 0.0,
                               eval_grad_f=lambda x: np.zeros(1),
                               eval_g=lambda x: np.array([x[0] - 3.0]),
                               eval_jacobian=lambda x: np.array([[1.0]]))
        out = primal_step(p, np.array([2.0]), np.zeros(1), 0.5, 1.0, 0.5)
        assert out[0] == 2.0


class TestDualStep:
    def test_inactive_zeroed_regardless_of_violation(self):
        out = dual_step(np.array([5.0]), np.array([3.0]), np.array([False]), 2.0, 0.5)
        assert out.tolist() == [0.0]

    def test_clipped_to_zero(self):
        # 0.5*1.0 + 2*(-0.3) = -0.1 -> 0
        out = dual_step(np.array([-0.3]), np.array([1.0]), np.array([True]), 2.0, 0.5)
        assert out.tolist() == [0.0]

    def test_growth(self):
        # 0.5*1.0 + 2*0.25 = 1.0
        out = dual_step(np.array([0.25]), np.array([1.0]), np.array([True]), 2.0, 0.5)
        assert out[0] == pytest.approx(1.0)


class TestValidation:
    def test_tau_bound_vanishes_without_constraints(self):
        rep = validate_tau(GdpaConfig(tau=0.01), ProblemConstants(sigma=1.0, U_J=0.0))
        assert rep.ok and rep.bound == pytest.approx(0.0)

    def test_tau_bound_arithmetic(self):
        consts = ProblemConstants(sigma=1.0, U_J=1.0)
        bound = 1.0 - 1.0 / math.sqrt(67.0)
        rep = validate_tau(GdpaConfig(tau=0.9), consts)
        assert rep.ok and rep.bound == pytest.approx(bound, abs=1e-12)
        rep = validate_tau(GdpaConfig(tau=0.1), consts)
        assert not rep.ok

    def test_tau_bound_with_infinite_sigma(self):
        rep = validate_tau(GdpaConfig(tau=0.05),
                           ProblemConstants(sigma=math.inf, U_J=3.0))
        assert rep.ok and rep.bound == pytest.approx(0.0)

    def test_alpha_condition_passes(self):
        # alpha_1 = 0.8/(1+1) = 0.4; 1/0.4 = 2.5 >= L_f = 2
        cfg = GdpaConfig(alpha01=0.8, alpha02=1.0, alpha03=1.0)
        consts = ProblemConstants(L_f=2.0, L_J=0.0, L_g=0.0, U_J=0.0)
        rep = validate_alpha(cfg, consts, lambda_norm=0.0, r=1)
        assert rep.ok and rep.bound == pytest.approx(2.0)

    def test_alpha_condition_warns(self):
        cfg = GdpaConfig(alpha01=2.0, alpha02=1.0, alpha03=1.0)  # alpha_1 = 1
        consts = ProblemConstants(L_f=2.0, L_J=0.0, L_g=0.0, U_J=0.0)
        assert not validate_alpha(cfg, consts, lambda_norm=0.0, r=1).ok

    def test_alpha_all_zero_constants_pass(self):
        consts = ProblemConstants(L_f=0.0, L_J=0.0, L_g=0.0, U_J=0.0)
        assert validate_alpha(GdpaConfig(), consts, lambda_norm=10.0, r=5).ok

    def test_config_invariants(self):
        with pytest.raises(ValueError):
            GdpaConfig(tau=0.0)
        with pytest.raises(ValueError):
            GdpaConfig(tau=1.0)
        with pytest.raises(ValueError):
            GdpaConfig(beta0=-1.0)
        warns = GdpaConfig(alpha01=2.0, alpha02=1.0).validate()
        assert any("alpha01" in w for w in warns)


class TestSolve:
    def test_problem_a_with_defaults(self):
        inst = build_analytic("scaled-1d")
        cfg = GdpaConfig(max_iters=30_000, eps_feas=1e-14, eps_stat=1e-14,
                         record_every=1000, dense_until=0)
        res = solve(inst.problem, cfg, np.zeros(1))
        assert abs(res.x_final[0] - 1.0) <= 1e-2
        assert abs(res.lambda_final[0] - 2.0) <= 5e-2

    def test_unconstrained_converges_and_dual_stays_empty(self):
        c = np.array([0.7, -0.3])
        res = solve(make_unconstrained(c), GdpaConfig(max_iters=5000, eps_stat=1e-10),
                    np.zeros(2))
        np.testing.assert_allclose(res.x_final, c, atol=1e-8)
        assert res.termination == "feasibility-stop"
        assert res.lambda_final.size == 0
        assert all(rec.lambda_norm == 0.0 for rec in res.trace)

    def test_never_active_constraint_keeps_lambda_zero(self):
        p = ConstrainedProblem(dim=1, num_constraints=1,
                               eval_f=lambda x: float(x[0] ** 2),
                               eval_grad_f=lambda x: 2.0 * x,
                               eval_g=lambda x: np.array([-1.0]),
                               eval_jacobian=lambda x: np.zeros((1, 1)))
        res = solve(p, GdpaConfig(max_iters=500, eps_feas=1e-20, eps_stat=1e-20),
                    np.array([3.0]))
        assert np.all(res.lambda_final == 0.0)
        assert all(rec.lambda_norm == 0.0 for rec in res.trace)

    def test_unsatisfiable_constraint_exhausts_budget(self):
        p = ConstrainedProblem(dim=1, num_constraints=1,
                               eval_f=lambda x: float(x[0] ** 2),
                               eval_grad_f=lambda x: 2.0 * x,
                               eval_g=lambda x: np.array([x[0] ** 2 + 1.0]),
                               eval_jacobian=lambda x: np.array([[2.0 * x[0]]]))
        res = solve(p, GdpaConfig(max_iters=2000, eps_feas=1e-3, eps_stat=1e-3),
                    np.zeros(1))
        assert res.termination == "budget-exhausted"
        assert res.T_eps is None
        assert res.lambda_final[0] > 1.0  # the multiplier keeps pumping

    def test_t_eps_records_first_feasibility_crossing(self):
        inst = build_analytic("scaled-1d")
        # huge eps: any violation qualifies immediately
        cfg = GdpaConfig(max_iters=50, eps_feas=1e6, eps_stat=1e-30)
        res = solve(inst.problem, cfg, np.zeros(1))
        assert res.T_eps == 1
        assert res.termination == "budget-exhausted"  # stationarity never met

    def test_feasibility_stop_needs_both_thresholds(self):
        inst = build_analytic("scaled-1d")
        cfg = GdpaConfig(max_iters=50_000, eps_feas=1e-2, eps_stat=1.0)
        res = solve(inst.problem, cfg, np.zeros(1))
        assert res.termination == "feasibility-stop"
        assert res.T_eps is not None

    def test_x0_projected_first(self):
        p = make_unconstrained([0.0, 0.0])
        p.projection = ProjectionSpec.box(-np.ones(2), np.ones(2))
        res = solve(p, GdpaConfig(max_iters=1), np.array([5.0, -7.0]),
                    capture_iterates=True)
        np.testing.assert_array_equal(res.iterates[0][0], [1.0, -1.0])

    def test_lambda0_validation(self):
        inst = build_analytic("scaled-1d")
        with pytest.raises(ValueError):
            solve(inst.problem, GdpaConfig(max_iters=1), np.zeros(1),
                  lambda0=np.array([-1.0]))
        with pytest.raises(ValueError):
            solve(inst.problem, GdpaConfig(max_iters=1), np.zeros(1),
                  lambda0=np.zeros(2))

    def test_numerical_failure_preserves_partial_trace(self):
        p = ConstrainedProblem(dim=1, num_constraints=0,
                               eval_f=lambda x: float(x[0] ** 4),
                               eval_grad_f=lambda x: 4.0 * x ** 3)
        cfg = GdpaConfig(alpha01=1e6, alpha02=1.0, alpha03=1.0, max_iters=10_000,
                         record_every=1, dense_until=0)
        res = solve(p, cfg, np.array([2.0]))
        assert res.termination == "numerical-failure"
        assert "iteration" in res.failure_message
        assert len(res.trace) >= 1
        assert np.all(np.isfinite(res.x_final))

    def test_simplex_overflow_is_a_numerical_failure(self):
        # x - alpha*grad overflows to +-Inf, which the simplex projection
        # cannot threshold; the run must end as a numerical failure for
        # GDPA and for the baselines, which share its primal step.
        p = ConstrainedProblem(dim=2, num_constraints=0,
                               eval_f=lambda x: 0.0,
                               eval_grad_f=lambda x: np.array([1e308, -1e308]),
                               projection=ProjectionSpec.simplex_blocks(2))
        x0 = np.array([0.5, 0.5])
        # no trace row before the step: the record's own projection would
        # catch the overflow first
        results = [solve(p, GdpaConfig(alpha01=10.0, dense_until=0), x0),
                   solve_penalty(p, PenaltyConfig(inner_step=10.0, dense_until=0), x0)]
        for res in results:
            assert res.termination == "numerical-failure"
            assert "non-finite" in res.failure_message

    @pytest.mark.parametrize("attr, iteration, message, rows, x_final", [
        ("eval_grad_f", 10, "iteration 10: grad f(x) is not finite at x=array([0.90649124])",
         0, 0.906491235885455),
        ("eval_grad_f", 13, "iteration 13: grad f(x) is not finite at x=array([0.91708178])",
         1, 0.9170817837160208),
        ("eval_jacobian", 10, "iteration 10: jacobian(x) is not finite at x=array([0.90649124])",
         0, 0.906491235885455),
        ("eval_jacobian", 13, "iteration 13: jacobian(x) is not finite at x=array([0.91708178])",
         1, 0.9170817837160208),
        ("eval_g", 10, "iteration 10: g(x) is not finite at x=array([0.9096808])",
         1, 0.906491235885455),
        ("eval_g", 13, "iteration 13: g(x) is not finite at x=array([0.91987914])",
         1, 0.9170817837160208),
    ])
    def test_non_finite_oracle_output_is_pinned(self, attr, iteration, message, rows, x_final):
        # NaN from one callback at a recorded (10) or unrecorded (13)
        # iteration; g is called once before the loop, then once per step.
        base = build_analytic("scaled-1d").problem
        fn, calls = getattr(base, attr), []

        def poisoned(x):
            calls.append(1)
            bad = len(calls) == iteration + (attr == "eval_g")
            return np.asarray(fn(x), dtype=float) * (np.nan if bad else 1.0)

        p = dataclasses.replace(base, **{attr: poisoned})
        cfg = GdpaConfig(max_iters=50, record_every=10, dense_until=0)
        res = solve(p, cfg, np.zeros(1))
        assert res.termination == "numerical-failure"
        assert res.failure_message == message
        assert len(res.trace) == rows
        assert res.x_final.tolist() == [x_final]

    @pytest.mark.parametrize("where, offset, scale, cfg, message, lam_final", [
        # x - alpha*grad overflows to -Inf, which the box clips back to
        # finite values; the residual's input check must still fire, in the
        # stopping check (feasible start) or in the trace row (infeasible)
        ("stopping check", -1.0, 1.0, dict(alpha01=100.0),
         "iteration 2: v contains NaN or Inf", 0.0),
        ("trace row", 2.0, 1.0, dict(alpha01=100.0),
         "iteration 3: v contains NaN or Inf", 6.4797631496846195),
        # beta*g overflows and 0*Inf in J^T [.]_+ gives NaN, which no box clips
        ("primal step", 2.0, 1e300, dict(beta0=1e10),
         "iteration 1: primal step produced non-finite iterate at r=1", 0.0),
    ])
    def test_box_overflow_is_pinned(self, where, offset, scale, cfg, message, lam_final):
        p = ConstrainedProblem(dim=2, num_constraints=1,
                               eval_f=lambda x: float(x @ x),
                               eval_grad_f=lambda x: np.full(2, 1e307),
                               eval_g=lambda x: np.array([scale * (offset - x[0])]),
                               eval_jacobian=lambda x: np.array([[-scale, 0.0]]),
                               projection=ProjectionSpec.box(-np.ones(2), np.ones(2)))
        res = solve(p, GdpaConfig(max_iters=50, record_every=3, dense_until=0, **cfg),
                    np.zeros(2))
        assert res.termination == "numerical-failure"
        assert res.failure_message == message
        assert res.trace == []
        x_final = [0.0, 0.0] if where == "primal step" else [-1.0, -1.0]
        assert res.x_final.tolist() == x_final
        assert res.lambda_final.tolist() == [lam_final]

    @pytest.mark.parametrize("broken, message", [
        (lambda g, damped, mask, beta: np.where(mask, damped + 1.0, 0.0),
         "dual contraction violated at r="),
        (lambda g, damped, mask, beta: np.ones_like(damped),
         "inactive multiplier not zeroed at r="),
    ])
    def test_dual_invariant_check_fires(self, monkeypatch, broken, message):
        # The debug check of the dual update catches a kernel that grows an
        # active multiplier at a feasible point, or leaves an inactive one
        # nonzero. A constraint that holds everywhere is never active.
        import gdpa.solver
        monkeypatch.setattr(gdpa.solver, "_dual_step_raw", broken)
        if "inactive" in message:
            p = ConstrainedProblem(dim=1, num_constraints=1,
                                   eval_f=lambda x: float(x[0] ** 2),
                                   eval_grad_f=lambda x: 2.0 * x,
                                   eval_g=lambda x: np.array([-1.0]),
                                   eval_jacobian=lambda x: np.zeros((1, 1)))
        else:
            p = build_analytic("scaled-1d").problem
        with pytest.raises(AssertionError, match=message):
            solve(p, GdpaConfig(max_iters=2000), np.zeros(1))

    def test_reduction_to_projected_gradient_descent(self):
        # With no constraints, iterates must be bit-identical to plain PGD.
        rng = np.random.default_rng(5)
        for seed in range(3):
            c = rng.standard_normal(3)
            p = make_unconstrained(c)
            p.projection = ProjectionSpec.box(-0.5 * np.ones(3), 0.5 * np.ones(3))
            cfg = GdpaConfig(alpha01=0.9, alpha02=1.3, alpha03=0.8,
                             max_iters=200, eps_stat=1e-300)
            res = solve(p, cfg, rng.standard_normal(3), capture_iterates=True)
            x = project(p.projection, res.iterates[0][0])
            for r in range(1, len(res.iterates) + 1):
                alpha, _, _ = schedule(cfg, r)
                assert np.array_equal(res.iterates[r - 1][0], x)
                x = project(p.projection, x - alpha * p.grad_f(x))
            if res.termination == "budget-exhausted":
                assert np.array_equal(res.x_final, x)
            else:
                # stopped at an exactly stationary iterate; final == last captured
                assert np.array_equal(res.x_final, res.iterates[-1][0])

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4, "unconstrained"])
    def test_solve_matches_public_step_functions(self, seed):
        # solve() and the public step functions share one step kernel, so a
        # loop over the public functions must reproduce solve() bit for bit.
        if seed == "unconstrained":
            p = make_unconstrained([0.6, -1.2, 0.3])
        else:
            p = random_quadratic_problem(seed)
        x0 = np.random.default_rng(200 + p.dim).uniform(-2, 2, p.dim)
        cfg = GdpaConfig(tau=0.25, beta0=0.5, alpha01=0.5, max_iters=200,
                         eps_feas=1e-30, eps_stat=1e-30)
        res = solve(p, cfg, x0, capture_iterates=True)
        assert res.termination == "budget-exhausted"
        x = project(p.projection, x0)
        lam = np.zeros(p.num_constraints)
        gx = p.g(x)
        for r, (x_r, lam_r) in enumerate(res.iterates, start=1):
            assert np.array_equal(x_r, x) and np.array_equal(lam_r, lam), r
            alpha, beta, _ = schedule(cfg, r)
            mask = active_set(gx, lam, beta, cfg.tau)
            x = primal_step(p, x, lam, alpha, beta, cfg.tau)
            gx = p.g(x)
            lam = dual_step(gx, lam, mask, beta, cfg.tau)
        assert np.array_equal(res.x_final, x) and np.array_equal(res.lambda_final, lam)

    def test_dual_properties_on_random_problems(self):
        stats = {"contraction": 0, "zeroing": 0, "negative": 0}
        tau = 0.25

        def hook(r, x_next, lam_prev, lam_next, mask, g_next):
            shrunk = mask & (g_next <= 0.0)
            if np.any(lam_next[shrunk] > (1.0 - tau) * lam_prev[shrunk] + 1e-15):
                stats["contraction"] += 1
            if np.any(lam_next[~mask] != 0.0):
                stats["zeroing"] += 1
            if np.any(lam_next < 0.0):
                stats["negative"] += 1

        cfg = GdpaConfig(tau=tau, beta0=0.5, alpha01=0.5, max_iters=2000,
                         eps_feas=1e-30, eps_stat=1e-30,
                         record_every=2000, dense_until=0)
        for seed in range(5):
            p = random_quadratic_problem(seed)
            x0 = np.random.default_rng(100 + seed).uniform(-2, 2, p.dim)
            solve(p, cfg, x0, on_iteration=hook)
        assert stats == {"contraction": 0, "zeroing": 0, "negative": 0}

    def test_average_consistency(self):
        inst = build_analytic("halfspace-quadratic")
        cfg = GdpaConfig(beta0=0.1, max_iters=2000, eps_feas=1e-30, eps_stat=1e-30,
                         record_every=1, dense_until=0)
        res = solve(inst.problem, cfg, np.zeros(2), capture_iterates=True)
        betas = [schedule(cfg, r)[1] for r in range(1, len(res.iterates) + 1)]
        x_re = weighted_average([it[0] for it in res.iterates], betas)
        lam_re = weighted_average([it[1] for it in res.iterates], betas)
        np.testing.assert_allclose(x_re, res.x_avg, rtol=1e-10)
        np.testing.assert_allclose(lam_re, res.lambda_avg, rtol=1e-10)

    def test_trace_respects_record_policy(self):
        inst = build_analytic("scaled-1d")
        cfg = GdpaConfig(max_iters=120, record_every=50, dense_until=10,
                         eps_feas=1e-30, eps_stat=1e-30)
        res = solve(inst.problem, cfg, np.zeros(1))
        rs = [rec.r for rec in res.trace]
        assert rs == list(range(1, 11)) + [50, 100, 120]
