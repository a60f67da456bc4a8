import dataclasses
import inspect
import math
import warnings

import numpy as np
import pytest

from gdpa import (
    AlmConfig,
    ConstrainedProblem,
    GdpaConfig,
    PenaltyConfig,
    ProblemConstants,
    ProjectionSpec,
    active_set,
    dual_step,
    kkt_residual,
    primal_step,
    schedule,
    solve,
    solve_alm,
    solve_penalty,
    validate_alpha,
    validate_tau,
    weighted_average,
)
from gdpa.metrics import _violation_sq, make_record
from gdpa.solver import NumericalFailure, _Run
from gdpa.problems import build_analytic, build_cmdp, random_cmdp
from gdpa.vec import DimensionMismatchError, NonFiniteError, project
from tests.conftest import make_unconstrained, random_quadratic_problem
from tests.test_acceptance import _counting


class TestSchedule:
    def test_gamma_is_tau_over_beta(self):
        cfg = GdpaConfig(tau=0.5, beta0=2.0)
        _, beta, gamma = schedule(cfg, 8)
        assert beta == pytest.approx(4.0)
        assert gamma == pytest.approx(0.125)

    def test_beta_cube_root(self):
        cfg = GdpaConfig(beta0=2.0)
        _, beta, _ = schedule(cfg, 8)
        assert beta == pytest.approx(4.0)

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

    def test_list_multiplier_taken(self):
        mask = active_set(np.array([0.5, -1.0]), [1.0, 0.0], 1.0, 0.5)
        assert mask.tolist() == [True, False]


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


def _untouchable(problem):
    """Copy of ``problem`` whose callbacks fail if any of them runs."""
    def boom(x):
        raise AssertionError("a callback ran")
    return dataclasses.replace(problem, eval_f=boom, eval_grad_f=boom, eval_g=boom,
                               eval_jacobian=boom, eval_first_order=None)


class TestStepChecks:
    # the public step functions take beta_r > 0 and tau in (0, 1), as GdpaConfig does
    G, LAM, MASK = np.array([0.5]), np.array([1.0]), np.array([True])

    @pytest.mark.parametrize("tau", [0.0, 1.0, -0.5, 5.0, float("nan")])
    def test_every_step_function_rejects_tau_outside_the_open_interval(self, tau):
        p = _untouchable(build_analytic("scaled-1d").problem)
        for call in (lambda: active_set(self.G, self.LAM, 1.0, tau),
                     lambda: primal_step(p, np.zeros(1), self.LAM, 0.1, 1.0, tau),
                     lambda: dual_step(self.G, self.LAM, self.MASK, 1.0, tau)):
            with pytest.raises(ValueError, match="tau must lie strictly between 0 and 1"):
                call()

    def test_every_step_size_rejects_infinity_without_a_warning(self):
        # each ran on and leaked "invalid value encountered in multiply"
        p = _untouchable(build_analytic("scaled-1d").problem)
        for call, says in (
                (lambda: active_set(self.G, self.LAM, math.inf, 0.1), "beta_r"),
                (lambda: dual_step(self.G, self.LAM, self.MASK, math.inf, 0.1), "beta_r"),
                (lambda: primal_step(p, np.zeros(1), self.LAM, 0.1, math.inf, 0.1), "beta_r"),
                (lambda: primal_step(p, np.zeros(1), self.LAM, math.inf, 1.0, 0.1), "alpha_r"),
                (lambda: kkt_residual(p, np.zeros(1), self.LAM, alpha=math.inf), "alpha")):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=rf"^{says} must be positive and finite$"):
                    call()

    @pytest.mark.parametrize("call, error, says", [
        (lambda: active_set(np.array([0.5, -1.0]), np.array([1.0]), 1.0, 0.5),
         DimensionMismatchError, "lambda must have length 2"),
        (lambda: active_set(np.array([np.nan, -1.0]), np.zeros(2), 1.0, 0.5),
         NonFiniteError, "g_x contains NaN or Inf"),
        (lambda: active_set(np.array([0.5]), np.array([1.0]), 0.0, 0.1), ValueError,
         "beta_r must be positive and finite"),
        (lambda: dual_step(np.array([0.5]), np.array([1.0]), np.array([True]), math.nan, 0.1),
         ValueError, "beta_r must be positive and finite"),
        (lambda: dual_step(np.array([0.5]), np.array([1.0]), np.array([True]), -1.0, 0.1),
         ValueError, "beta_r must be positive and finite"),
        # the mask broadcast against the two vectors and gave a 2x2 result
        (lambda: dual_step(np.array([0.5, -1.0]), np.array([1.0, 2.0]),
                           np.array([[True], [False]]), 1.0, 0.5),
         DimensionMismatchError, "mask must be 1-d, got shape (2, 1)"),
    ], ids=["short-multiplier", "nan-constraint-value", "active-set-zero-beta",
            "dual-step-nan-beta", "dual-step-negative-beta", "dual-step-2d-mask"])
    def test_bad_step_input_is_refused_without_a_warning(self, call, error, says):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error) as exc:
                call()
        assert exc.type is error and str(exc.value) == says

    @pytest.mark.parametrize("config, field", [
        (GdpaConfig, "beta0"), (GdpaConfig, "alpha01"), (GdpaConfig, "eps_stat"),
        (PenaltyConfig, "rho0"), (PenaltyConfig, "inner_step"), (AlmConfig, "rho0"),
    ])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_configs_reject_a_non_finite_number(self, config, field, value):
        # an infinite beta0 or rho0 ran and ended as a numerical failure
        with pytest.raises(ValueError,
                           match=rf"^{field} must be a finite positive number, got {value!r}$"):
            config(**{field: value})

    @pytest.mark.parametrize("config", [GdpaConfig, PenaltyConfig, AlmConfig])
    def test_numpy_integer_fields_are_stored_as_int(self, config):
        cfg = config(record_every=np.uint8(200), dense_until=np.int64(0))
        assert (cfg.record_every, cfg.dense_until) == (200, 0)
        assert type(cfg.record_every) is int and type(cfg.dense_until) is int


class TestLengthChecks:
    # a wrong-length point or multiplier is named before any callback runs

    @pytest.mark.parametrize("run", [
        lambda p, x0: solve(p, GdpaConfig(max_iters=5), x0),
        lambda p, x0: solve_penalty(p, PenaltyConfig(inner_iters=5, outer_iters=1), x0),
        lambda p, x0: solve_alm(p, AlmConfig(inner_iters=5, outer_iters=1), x0),
    ], ids=["solve", "solve_penalty", "solve_alm"])
    def test_solvers_name_a_wrong_length_start(self, run):
        p = _untouchable(build_analytic("scaled-1d").problem)
        with pytest.raises(ValueError, match=r"^x0 must have length 1$"):
            run(p, np.zeros(3))
        p.projection = ProjectionSpec.box(-np.ones(1), np.ones(1))  # check_dim's message stays
        with pytest.raises(ValueError, match="box is 1-dimensional, vector is 3-dimensional"):
            run(p, np.zeros(3))

    def test_primal_step_names_a_wrong_length_point(self):
        p = _untouchable(build_analytic("circle-exterior").problem)
        with pytest.raises(ValueError, match=r"^x must have length 2$"):
            primal_step(p, np.zeros(3), np.zeros(1), 0.1, 1.0, 0.5)

    def test_primal_step_names_a_wrong_length_multiplier(self):
        p = _untouchable(build_analytic("circle-exterior").problem)
        with pytest.raises(ValueError, match=r"^lambda must have length 1$"):
            primal_step(p, np.zeros(2), np.zeros(2), 0.1, 1.0, 0.5)

    def test_kkt_residual_names_a_wrong_length_point(self):
        p = _untouchable(build_analytic("circle-exterior").problem)
        with pytest.raises(ValueError, match=r"^x must have length 2$"):
            kkt_residual(p, np.zeros(3), np.zeros(1))

    def test_kkt_residual_names_a_wrong_length_multiplier(self):
        p = _untouchable(build_analytic("circle-exterior").problem)
        with pytest.raises(ValueError, match=r"^lambda must have length 1$"):
            kkt_residual(p, np.zeros(2), np.zeros(2))


def constants(L_f=0.0, L_g=0.0, L_J=0.0, U_J=0.0, sigma=None):
    return ProblemConstants(L_f, L_g, L_J, U_J, sigma)


class TestValidation:
    def test_tau_bound_vanishes_without_constraints(self):
        rep = validate_tau(GdpaConfig(tau=0.01), constants(sigma=1.0, U_J=0.0))
        assert rep.ok and rep.bound == pytest.approx(0.0)

    @pytest.mark.parametrize("u_j", [0.0, 3.0, math.inf])
    def test_tau_bound_is_1_at_a_zero_sigma(self, u_j):
        # at U_J = 0 the formula reads 1 - 0/0; sigma = 0 was refused as a constant
        rep = validate_tau(GdpaConfig(tau=0.99), constants(sigma=0.0, U_J=u_j))
        assert (rep.ok, rep.bound) == (False, 1.0)

    def test_tau_bound_arithmetic(self):
        consts = constants(sigma=1.0, U_J=1.0)
        bound = 1.0 - 1.0 / math.sqrt(67.0)
        rep = validate_tau(GdpaConfig(tau=0.9), consts)
        assert rep.ok and rep.bound == pytest.approx(bound, abs=1e-12)
        rep = validate_tau(GdpaConfig(tau=0.1), consts)
        assert not rep.ok

    def test_tau_at_the_bound_fails(self):
        # sqrt(66*2^2 + 65^2) = 67 exactly: the bound is 1 - 65/67, and the condition is strict
        consts = constants(sigma=65.0, U_J=2.0)
        rep = validate_tau(GdpaConfig(tau=1.0 - 65.0 / 67.0), consts)
        assert rep.bound == 1.0 - 65.0 / 67.0 and not rep.ok
        assert validate_tau(GdpaConfig(tau=math.nextafter(rep.bound, 1.0)), consts).ok

    def test_tau_bound_with_infinite_sigma(self):
        rep = validate_tau(GdpaConfig(tau=0.05), constants(sigma=math.inf, U_J=3.0))
        assert rep.ok and rep.bound == pytest.approx(0.0)

    def test_alpha_condition_holds_at_equality(self):
        # alpha_1 = 0.5/(1+1) = 0.25; 1/0.25 = 4 = L_f, and the condition is not strict
        cfg = GdpaConfig(alpha01=0.5, alpha02=1.0, alpha03=1.0)
        consts = constants(L_f=4.0)
        rep = validate_alpha(cfg, consts, lambda_norm=0.0, r=1)
        assert rep.ok and rep.bound == 4.0

    def test_alpha_condition_warns(self):
        cfg = GdpaConfig(alpha01=2.0, alpha02=1.0, alpha03=1.0)  # alpha_1 = 1
        consts = constants(L_f=2.0)
        assert not validate_alpha(cfg, consts, lambda_norm=0.0, r=1).ok

    def test_alpha_bound_weighs_each_constant(self):
        # L_J != L_g: at r = 8, beta_r = 2 and 1 + 0.9*4*2 + 2*0.5*3 = 11.2
        consts = constants(L_f=1.0, L_J=2.0, L_g=3.0, U_J=0.5)
        rep = validate_alpha(GdpaConfig(tau=0.1, beta0=1.0, alpha01=1.0), consts,
                             lambda_norm=4.0, r=8)
        assert rep.bound == pytest.approx(11.2, rel=1e-12) and not rep.ok

    def test_alpha_all_zero_constants_pass(self):
        assert validate_alpha(GdpaConfig(), constants(), lambda_norm=10.0, r=5).ok

    def test_alpha_product_with_a_zero_factor_is_zero(self):
        # 0 * inf made the bound NaN and ok False at a zero multiplier, the theory block's
        # case; an overflowing Jacobian difference reads L_J = inf
        cfg = GdpaConfig(tau=0.1, beta0=1.0, alpha01=1.0)
        finite = validate_alpha(cfg, constants(L_f=1.0, L_g=1.0, L_J=5.0, U_J=1.0), 0.0, r=1)
        assert (finite.ok, finite.bound) == (True, 2.0)
        assert validate_alpha(cfg, constants(L_f=1.0, L_g=1.0, L_J=math.inf, U_J=1.0),
                              0.0, r=1) == finite
        rep = validate_alpha(cfg, constants(L_f=1.0, L_g=1.0, L_J=math.inf, U_J=1.0), 0.5, r=1)
        assert (rep.ok, rep.bound) == (False, math.inf)
        # beta_r*U_J*L_g with L_g = 0 and U_J = inf adds nothing either
        assert validate_alpha(cfg, constants(L_f=1.0, U_J=math.inf), 0.0, r=1).bound == 1.0

    def test_config_invariants(self):
        with pytest.raises(ValueError):
            GdpaConfig(tau=0.0)
        with pytest.raises(ValueError):
            GdpaConfig(tau=1.0)
        with pytest.raises(ValueError):
            GdpaConfig(beta0=-1.0)


def dual_update_check(tau):
    """An ``on_iteration`` hook that checks each dual update: an active multiplier
    at a still-feasible point does not grow past (1-tau)*lam_i + 1e-15, an
    inactive one is zero, and none is negative."""
    def hook(r, x_next, lam_prev, lam_next, mask, g_next):
        shrunk = mask & (g_next <= 0.0)
        if np.any(lam_next[shrunk] > (1.0 - tau) * lam_prev[shrunk] + 1e-15):
            raise AssertionError(f"dual contraction violated at r={r}")
        if np.any(lam_next[~mask] != 0.0):
            raise AssertionError(f"inactive multiplier not zeroed at r={r}")
        if np.any(lam_next < 0.0):
            raise AssertionError(f"negative multiplier at r={r}")
    return hook


class TestSolve:
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

    @pytest.mark.parametrize("attr", ["eval_grad_f", "eval_jacobian", "eval_g"])
    @pytest.mark.parametrize("call", [10, 13, 51])
    def test_fused_oracle_failure_path_matches_the_separate_path(self, attr, call):
        # NaN in the call-th output of one callback, reached alone or through
        # a fused oracle. The fused grad f and J are checked at the top of the
        # next iteration, where the separate path calls them, so the run ends
        # alike; the 51st fused grad f and J (at x_{R+1}) are never used.
        def run(fused):
            base, calls = build_analytic("scaled-1d").problem, []
            fn = getattr(base, attr)

            def poisoned(x):
                calls.append(1)
                return np.asarray(fn(x), dtype=float) * (np.nan if len(calls) == call else 1.0)

            p = dataclasses.replace(base, **{attr: poisoned})
            if fused:
                p.eval_first_order = lambda x: (p.eval_f(x), p.eval_g(x), p.eval_grad_f(x),
                                                p.eval_jacobian(x))
            return solve(p, GdpaConfig(max_iters=50, record_every=10, dense_until=0),
                         np.zeros(1))

        a, b = run(True), run(False)
        unused = call == 51 and attr != "eval_g"
        assert a.termination == ("budget-exhausted" if unused else "numerical-failure")
        assert (a.termination, a.failure_message) == (b.termination, b.failure_message)
        assert (len(a.trace), a.iterations) == (len(b.trace), b.iterations)
        assert a.x_final.tolist() == b.x_final.tolist()
        assert a.lambda_final.tolist() == b.lambda_final.tolist()

    @pytest.mark.parametrize("solver, step, message", [
        ("gdpa", 10, "iteration 10: f(x) is not finite at x=array([0.90649124])"),
        ("gdpa", 13, ""),
        ("penalty", 10, "iteration 10: f(x) is not finite at x=array([0.00080913])"),
        ("penalty", 13, ""),
    ], ids=["gdpa-recorded", "gdpa-unrecorded", "penalty-recorded", "penalty-unrecorded"])
    def test_fused_f_failure_path_matches_the_separate_path(self, solver, step, message):
        # NaN f at the step-th iterate, reached alone or through a fused
        # oracle. Step 10 is recorded and step 13 is not; the fused f is
        # checked only in a trace row, where the separate path calls f, so a
        # NaN at an unrecorded step ends neither run. The poison is keyed to
        # the iterate, because the two paths call f a different number of times.
        base = build_analytic("scaled-1d").problem
        if solver == "gdpa":
            def run(p):
                return solve(p, GdpaConfig(max_iters=50, record_every=10, dense_until=0),
                             np.zeros(1))
        else:
            def run(p):
                return solve_penalty(p, PenaltyConfig(
                    inner_iters=20, inner_step=9e-5, outer_iters=2, record_every=10,
                    dense_until=0, feas_tol=1e-300), np.zeros(1))
        seen = []  # grad f is evaluated once per step, at that step's iterate
        run(dataclasses.replace(base, eval_grad_f=lambda x: seen.append(x.copy())
                                or base.eval_grad_f(x)))
        bad = seen[step - 1]
        p = dataclasses.replace(
            base, eval_f=lambda x: math.nan if np.array_equal(x, bad) else base.eval_f(x))
        b = run(p)
        p.eval_first_order = lambda x: (p.eval_f(x), p.eval_g(x), p.eval_grad_f(x),
                                        p.eval_jacobian(x))
        a = run(p)
        assert a.termination == b.termination == (
            "numerical-failure" if message else "budget-exhausted")
        assert a.failure_message == b.failure_message == message
        assert (len(a.trace), a.iterations) == (len(b.trace), b.iterations)
        assert a.x_final.tolist() == b.x_final.tolist()
        assert a.lambda_final.tolist() == b.lambda_final.tolist()

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
         "iteration 1: primal step produced non-finite iterate", 0.0),
        # that step through the public function, whose message names no step (it said
        # "at r=None")
        ("primal_step", 2.0, 1e300, dict(beta0=1e10),
         "primal step produced non-finite iterate", None),
    ])
    def test_box_overflow_is_pinned(self, where, offset, scale, cfg, message, lam_final):
        p = ConstrainedProblem(dim=2, num_constraints=1,
                               eval_f=lambda x: float(x @ x),
                               eval_grad_f=lambda x: np.full(2, 1e307),
                               eval_g=lambda x: np.array([scale * (offset - x[0])]),
                               eval_jacobian=lambda x: np.array([[-scale, 0.0]]),
                               projection=ProjectionSpec.box(-np.ones(2), np.ones(2)))
        cfg = GdpaConfig(max_iters=50, record_every=3, dense_until=0, **cfg)
        if where == "primal_step":  # the run's first step: x = 0, lam = 0
            alpha, beta, _ = schedule(cfg, 1)
            with np.errstate(over="ignore", invalid="ignore"), \
                    pytest.raises(NumericalFailure) as failure:
                primal_step(p, np.zeros(2), np.zeros(1), alpha, beta, cfg.tau)
            assert str(failure.value) == message
            return
        res = solve(p, cfg, np.zeros(2))
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
        # The dual-update hook catches a kernel that grows an active multiplier
        # at a feasible point, or leaves an inactive one nonzero. A constraint
        # that holds everywhere is never active.
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
        cfg = GdpaConfig(max_iters=2000)
        with pytest.raises(AssertionError, match=message):
            solve(p, cfg, np.zeros(1), on_iteration=dual_update_check(cfg.tau))

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
        cfg = GdpaConfig(tau=0.25, beta0=0.5, alpha01=0.5, max_iters=2000,
                         eps_feas=1e-30, eps_stat=1e-30,
                         record_every=2000, dense_until=0)
        for seed in range(5):
            p = random_quadratic_problem(seed)
            x0 = np.random.default_rng(100 + seed).uniform(-2, 2, p.dim)
            solve(p, cfg, x0, on_iteration=dual_update_check(cfg.tau))

    def test_average_consistency(self):
        inst = build_analytic("halfspace-quadratic")
        cfg = GdpaConfig(beta0=0.1, max_iters=2000, eps_feas=1e-30, eps_stat=1e-30,
                         record_every=1, dense_until=0)
        res = solve(inst.problem, cfg, np.zeros(2), capture_iterates=True)
        betas = [schedule(cfg, r)[1] for r in range(1, len(res.iterates) + 1)]
        x_re = weighted_average([it[0] for it in res.iterates], betas)
        lam_re = weighted_average([it[1] for it in res.iterates], betas)
        # weighted_average sums as solve() does: the same bits
        assert np.array_equal(x_re, res.x_avg)
        assert np.array_equal(lam_re, res.lambda_avg)

    def test_trace_respects_record_policy(self):
        inst = build_analytic("scaled-1d")
        cfg = GdpaConfig(max_iters=120, record_every=50, dense_until=10,
                         eps_feas=1e-30, eps_stat=1e-30)
        res = solve(inst.problem, cfg, np.zeros(1))
        rs = [rec.r for rec in res.trace]
        assert rs == list(range(1, 11)) + [50, 100, 120]


def _scaled_1d():
    return build_analytic("scaled-1d").problem


# Each case: problem, run, termination, steps. The penalty and ALM cases use
# configs/benchmark-scaled-1d.json's entries: the penalty method stops on
# feasibility within 7 rounds of 300 steps, and ALM runs one round of 2000.
ITERATION_CASES = {
    "gdpa-budget": (_scaled_1d, lambda p: solve(
        p, GdpaConfig(max_iters=50, eps_feas=1e-300, eps_stat=1e-300), np.zeros(1)),
        "budget-exhausted", 50),
    "gdpa-feasibility": (_scaled_1d, lambda p: solve(
        p, GdpaConfig(max_iters=50_000, eps_feas=1e-2, eps_stat=1.0), np.zeros(1)),
        "feasibility-stop", 10),
    "gdpa-unconstrained": (lambda: make_unconstrained([0.7, -0.3]), lambda p: solve(
        p, GdpaConfig(max_iters=5000, eps_stat=1e-10), np.zeros(2)),
        "feasibility-stop", 81),
    "penalty": (_scaled_1d, lambda p: solve_penalty(p, PenaltyConfig(
        rho0=1.0, rho_growth=10.0, inner_iters=300, inner_step=9e-5, outer_iters=7,
        feas_tol=1e-300), np.zeros(1)), "feasibility-stop", 1800),
    "alm": (_scaled_1d, lambda p: solve_alm(p, AlmConfig(
        rho0=10.0, rho_growth=10.0, inner_iters=2000, inner_step=1e-3, outer_iters=1,
        feas_tol=1e-300), np.zeros(1)), "budget-exhausted", 2000),
}


@pytest.mark.parametrize("case", sorted(ITERATION_CASES))
def test_iterations_price_the_gradient_calls(case):
    # SolveResult.iterations counts the steps begun; each costs one grad f
    # and, with constraints, one Jacobian: how `gdpa benchmark` prices a run
    problem, run, termination, iterations = ITERATION_CASES[case]
    calls = {"grad_f": 0, "jac": 0, "g": 0}
    p = problem()
    res = run(_counting(p, calls))
    assert (res.termination, res.iterations) == (termination, iterations)
    cost = 2 if p.num_constraints > 0 else 1
    assert calls["grad_f"] == res.iterations
    assert cost * res.iterations == calls["grad_f"] + calls["jac"]


def _cmdp_with_fused_oracle():
    model = random_cmdp(seed=3, num_states=12, num_actions=4, num_constraints=2,
                        discount=0.9, thresholds=[0.5, 0.5])
    return build_cmdp(model)


# Each case: run, termination, fused calls per step begun (one more at x0;
# a GDPA run that stops early skips the last step's call), separate g calls.
FUSED_CASES = {
    "gdpa": (lambda p: solve(p, GdpaConfig(
        alpha01=100.0, beta0=0.5, max_iters=1000, eps_feas=1e-4, eps_stat=0.1,
        record_every=7, dense_until=20), np.zeros(48)), "feasibility-stop", 0, 0),
    "gdpa-budget": (lambda p: solve(p, GdpaConfig(
        alpha01=100.0, beta0=0.5, max_iters=60, eps_feas=1e-300, eps_stat=1e-300),
        np.zeros(48)), "budget-exhausted", 1, 0),
    "alm": (lambda p: solve_alm(p, AlmConfig(
        rho0=1.0, inner_iters=50, inner_step=3.0, outer_iters=6, feas_tol=1e-6,
        record_every=5, dense_until=10), np.zeros(48)), "feasibility-stop", 1, 0),
    "penalty": (lambda p: solve_penalty(p, PenaltyConfig(
        rho0=1.0, inner_iters=30, inner_step=3.0, outer_iters=3, feas_tol=1e-300,
        record_every=4, dense_until=5), np.zeros(48)), "budget-exhausted", 1, 0),
}


@pytest.mark.parametrize("case", sorted(FUSED_CASES))
def test_fused_oracle_matches_the_separate_callbacks(case):
    # CMDP's eval_first_order against the same problem without it: the same
    # run up to roundoff (the fused pass stacks all tables into one solve)
    run, termination, _, _ = FUSED_CASES[case]
    fused = _cmdp_with_fused_oracle()
    a, b = run(fused), run(dataclasses.replace(fused, eval_first_order=None))
    assert a.termination == termination
    assert (a.termination, a.T_eps, len(a.trace)) == (b.termination, b.T_eps, len(b.trace))
    assert a.iterations == b.iterations
    for got, want in [(a.x_final, b.x_final), (a.lambda_final, b.lambda_final),
                      (a.x_avg, b.x_avg), (a.lambda_avg, b.lambda_avg)]:
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    # the trace's f comes from the fused pass on one path, from eval_f on the other
    for got, want in zip(a.trace, b.trace):
        assert got.r == want.r and abs(got.f_value - want.f_value) <= 1e-12 * abs(want.f_value)


@pytest.mark.parametrize("case", sorted(FUSED_CASES))
def test_fused_oracle_replaces_the_separate_calls(case):
    # one fused call per step; the separate f, grad f and Jacobian callbacks
    # (and a counting wrapper around them) are not called at all, trace rows
    # included
    run, _, extra, g_calls = FUSED_CASES[case]
    calls = {"f": 0, "grad_f": 0, "jac": 0, "g": 0}
    p = _counting(_cmdp_with_fused_oracle(), calls)
    eval_f = p.eval_f
    p.eval_f = lambda x: calls.update(f=calls["f"] + 1) or eval_f(x)
    fused, fused_calls = p.eval_first_order, []
    p.eval_first_order = lambda x: fused_calls.append(1) or fused(x)
    res = run(p)
    assert len(fused_calls) == res.iterations + extra and res.trace
    assert calls == {"f": 0, "grad_f": 0, "jac": 0, "g": g_calls}


def one_row(problem, tau, r, *args, **kwargs):
    """The record that ``make_record(run, *args, **kwargs)`` makes as step r of a
    fresh run with damping tau, flushed as a one-row block."""
    run = _Run(problem, GdpaConfig(), np.zeros(problem.dim), None, tau)
    run.r = r
    make_record(run, *args, **kwargs)
    run.flush()
    return run.trace[0]


# Each case: problem, run, tau. The GDPA runs set T_eps early and record every
# row, so their stop tests run on recorded rows and share the stationarity; on
# the box the violation rises above eps_feas again on a third of the rows, which
# then compute their own. The ball's radius keeps the steps inside it, where
# projection returns its input.
SHARED_CASES = {
    "gdpa": (_scaled_1d, lambda p: solve(p, GdpaConfig(
        max_iters=300, eps_feas=1e-2, eps_stat=1e-300, record_every=1), np.zeros(1),
        capture_iterates=True), 0.1),
    "gdpa-box": (lambda: random_quadratic_problem(1), lambda p: solve(p, GdpaConfig(
        tau=0.25, beta0=0.5, alpha01=0.5, max_iters=200, eps_feas=1e-2, eps_stat=1e-300,
        record_every=1), np.full(4, 1.5), capture_iterates=True), 0.25),
    "gdpa-ball-stops": (lambda: dataclasses.replace(
        make_unconstrained([0.7, -0.3]), projection=ProjectionSpec.ball(np.zeros(2), 5.0)),
        lambda p: solve(p, GdpaConfig(max_iters=5000, eps_stat=1e-10, record_every=1),
                        np.zeros(2), capture_iterates=True), 0.1),
    "penalty": (_scaled_1d, lambda p: solve_penalty(p, PenaltyConfig(
        inner_iters=50, inner_step=9e-5, outer_iters=4, feas_tol=1e-300, record_every=1),
        np.zeros(1)), 0.0),
    "alm": (_scaled_1d, lambda p: solve_alm(p, AlmConfig(
        rho0=10.0, inner_iters=50, inner_step=1e-3, outer_iters=4, feas_tol=1e-300,
        record_every=1), np.zeros(1)), 0.0),
}


@pytest.mark.parametrize("case", sorted(SHARED_CASES))
def test_shared_values_equal_fresh_ones(case, monkeypatch):
    # A trace row reuses its step's squared violation and, after a stop test,
    # that test's projected step (GDPA); each row must equal the row make_record
    # computes afresh at the same iterate in a one-row run, bit for bit.
    import gdpa.baselines
    import gdpa.solver
    problem, run, tau = SHARED_CASES[case]
    module = gdpa.solver if case.startswith("gdpa") else gdpa.baselines
    signature = inspect.signature(make_record)
    seen = []

    def spy(*args, **kwargs):
        given = signature.bind(*args, **kwargs).arguments
        seen.append((given["x"].copy(), given["lam"].copy(), given.get("proj") is not None))
        return make_record(*args, **kwargs)

    monkeypatch.setattr(module, "make_record", spy)
    p = problem()
    res = run(p)
    assert res.termination != "numerical-failure" and len(seen) == len(res.trace) > 10
    if module is gdpa.solver:  # the projected step came from a stop test on most rows
        assert sum(stop for _, _, stop in seen) > len(seen) // 2
    for rec, (x, lam, _) in zip(res.trace, seen):
        if res.iterates is not None:
            assert np.array_equal(x, res.iterates[rec.r - 1][0])
            assert np.array_equal(lam, res.iterates[rec.r - 1][1])
        g = p.g(x)
        fresh = one_row(p, tau, rec.r, x, lam, None, g, p.grad_f(x), p.jacobian(x), rec.alpha,
                        rec.beta, rec.gamma, _violation_sq(g))
        assert dataclasses.astuple(rec) == dataclasses.astuple(fresh), rec.r
