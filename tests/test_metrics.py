import math
import warnings

import numpy as np
import pytest

from gdpa import (
    ConstrainedProblem,
    GdpaConfig,
    InsufficientDataError,
    IterationRecord,
    ProjectionSpec,
    fit_rate,
    kkt_residual,
    schedule,
    solve,
    weighted_average,
)
from gdpa.metrics import _perturbed_value, _residual_step, _shifted, _stationarity
from gdpa.problems import build_analytic
from gdpa.vec import positive_part, project
from tests.conftest import make_unconstrained, random_quadratic_problem


def vector_problem(f, grad, g, jac, d, m):
    return ConstrainedProblem(dim=d, num_constraints=m, eval_f=f,
                              eval_grad_f=grad, eval_g=g, eval_jacobian=jac)


def perturbed_lagrangian(p, x, lam, beta, tau):
    """The merit value from the problem's f and g at x."""
    damped = (1.0 - tau) * lam
    return _perturbed_value(p.f(x), p.g(x) + damped / beta, damped, beta)


def stationarity_measure(p, x, lam, alpha, beta):
    """The stacked residual and its squared norm from the problem's evaluations at x."""
    proj = _residual_step(x, lam, p.grad_f(x), p.jacobian(x), alpha, p.projection)
    return _stationarity(x, proj, lam, _shifted(lam, p.g(x), beta), alpha, beta)


def constant_g_problem(values):
    vals = np.asarray(values, dtype=float)
    return vector_problem(
        lambda x: 0.0, lambda x: np.zeros(1),
        lambda x: vals.copy(), lambda x: np.zeros((vals.size, 1)),
        d=1, m=vals.size)


class TestPerturbedLagrangian:
    def test_strictly_feasible_zero_dual_equals_f(self):
        p = vector_problem(lambda x: float(x @ x), lambda x: 2 * x,
                           lambda x: np.array([-1.0]), lambda x: np.zeros((1, 2)),
                           d=2, m=1)
        x = np.array([1.0, 2.0])
        assert perturbed_lagrangian(p, x, np.zeros(1), beta=3.0, tau=0.5) == p.f(x)

    def test_penalty_term(self):
        # f=0, g=1, lam=0, beta=2, tau=0.5 -> (2/2)*1^2 = 1
        p = constant_g_problem([1.0])
        assert perturbed_lagrangian(p, np.zeros(1), np.zeros(1), 2.0, 0.5) \
            == pytest.approx(1.0)

    def test_negative_offset_term(self):
        # f=0, g=-10, lam=1, beta=1, tau=0.5: bracket clips to 0, value -0.125
        p = constant_g_problem([-10.0])
        assert perturbed_lagrangian(p, np.zeros(1), np.ones(1), 1.0, 0.5) \
            == pytest.approx(-0.125)


class TestStationarityMeasure:
    def test_zero_at_analytic_kkt(self):
        for aid in ("scaled-1d", "halfspace-quadratic", "circle-exterior"):
            inst = build_analytic(aid)
            _, sq = stationarity_measure(inst.problem, inst.x_star,
                                         inst.lambda_star, alpha=0.7, beta=2.3)
            assert sq <= 1e-24, aid

    def test_zero_at_unconstrained_minimum(self):
        p = make_unconstrained([1.0, -2.0])
        _, sq = stationarity_measure(p, np.array([1.0, -2.0]), np.zeros(0), 0.5, 1.0)
        assert sq == 0.0

    def test_matches_manual_prox_expansion(self, rng):
        for seed in range(5):
            p = random_quadratic_problem(seed)
            x = project(p.projection, rng.standard_normal(p.dim))
            lam = np.abs(rng.standard_normal(p.num_constraints))
            alpha, beta = 0.37, 1.9
            vec, sq = stationarity_measure(p, x, lam, alpha, beta)
            grad_l = p.grad_f(x) + p.jacobian(x).T @ lam
            primal = (x - project(p.projection, x - alpha * grad_l)) / alpha
            dual = (lam - positive_part(lam + beta * p.g(x))) / beta
            manual = np.concatenate([primal, dual])
            np.testing.assert_allclose(vec, manual, atol=1e-12)
            assert sq == pytest.approx(float(manual @ manual), abs=1e-12)


class TestKktResidual:
    def test_feasible_zero_dual(self):
        p = constant_g_problem([-1.0])
        res = kkt_residual(p, np.zeros(1), np.zeros(1))
        assert res.feasibility == 0.0
        assert res.slackness == 0.0

    def test_negative_multiplier_is_refused(self):
        # on min x s.t. x - 1 <= 0, lam = -1 made the maximizer x = 1 read (0, 0, 0)
        p = vector_problem(lambda x: float(x[0]), lambda x: np.ones(1),
                           lambda x: x - 1.0, lambda x: np.ones((1, 1)), d=1, m=1)
        with pytest.raises(ValueError, match="^lambda must be componentwise nonnegative$"):
            kkt_residual(p, [1.0], [-1.0])
        assert kkt_residual(p, [1.0], [-0.0]).feasibility == 0.0

    def test_hand_arithmetic(self):
        # g=(0.3,-0.4), lam=(1,2): feasibility 0.3, slackness 0.3+0.8=1.1
        p = constant_g_problem([0.3, -0.4])
        res = kkt_residual(p, np.zeros(1), np.array([1.0, 2.0]))
        assert res.feasibility == pytest.approx(0.3)
        assert res.slackness == pytest.approx(1.1)


class TestWeightedAverage:
    def test_single_entry(self):
        np.testing.assert_allclose(
            weighted_average([np.array([2.0, 3.0])], [5.0]), [2.0, 3.0], rtol=1e-15)

    def test_hand_value(self):
        # weights (1, 1/2) normalized (2/3, 1/3): 0*(2/3) + 3*(1/3) = 1
        out = weighted_average([np.zeros(1), np.array([3.0])], [1.0, 2.0])
        assert out[0] == pytest.approx(1.0)

    def test_constant_sequence(self):
        c = np.array([0.7, -0.2])
        out = weighted_average([c, c, c], [1.0, 2.0, 3.0])
        np.testing.assert_allclose(out, c, atol=1e-15)

    @pytest.mark.parametrize("beta", [math.inf, math.nan, 0.0, -1.0])
    def test_beta_must_be_positive_and_finite(self, beta):
        # an infinite beta gave nan, with "invalid value encountered in divide"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="^betas must be positive and finite$"):
                weighted_average([np.array([2.0])], [beta])

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            weighted_average([], [])

    def test_lengths_must_agree(self):
        with pytest.raises(ValueError, match=r"^iterates and betas differ in length$"):
            weighted_average([np.zeros(1), np.ones(1)], [1.0])

    def test_overflowing_sum_reads_inf_without_a_warning(self):
        # 1e10/1e-300 overflows; a run's averages read inf here with no warning, and
        # this raised "overflow encountered in divide" under -W error
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = weighted_average([np.array([1e10])], [1e-300])
        assert out.tolist() == [math.inf]

    @pytest.mark.parametrize("spec", [
        ProjectionSpec.box(-np.ones(4), np.ones(4)),
        ProjectionSpec.ball(np.zeros(4), 2.0),
        ProjectionSpec.nonnegative(),
        ProjectionSpec.simplex_blocks(2),
    ])
    def test_average_stays_in_convex_set(self, spec, rng):
        pts = [project(spec, rng.standard_normal(4) * 2.0) for _ in range(20)]
        betas = list(1.0 + rng.uniform(0.0, 3.0, 20))
        avg = weighted_average(pts, betas)
        assert np.linalg.norm(project(spec, avg) - avg) <= 1e-10


def synthetic_records(values):
    return [IterationRecord(r=r, alpha=1.0, beta=1.0, gamma=1.0, f_value=0.0,
                            F_beta_value=0.0, stationarity_sq=v, feasibility=v,
                            slackness=v, lambda_norm=0.0)
            for r, v in values]


class TestFitRate:
    def test_exact_power_law(self):
        recs = synthetic_records((r, r ** (-2.0 / 3.0)) for r in range(1, 2001))
        fit = fit_rate(recs, "stationarity_sq", (10, 2000))
        assert fit.slope == pytest.approx(-2.0 / 3.0, abs=1e-6)
        assert fit.r_squared > 0.999999

    def test_scaled_power_law_intercept(self):
        recs = synthetic_records((r, 5.0 * r ** (-1.0 / 3.0)) for r in range(1, 1001))
        fit = fit_rate(recs, "slackness", (1, 1000))
        assert fit.slope == pytest.approx(-1.0 / 3.0, abs=1e-9)
        assert fit.intercept == pytest.approx(math.log(5.0), abs=1e-8)

    def test_envelope_uses_running_minimum(self):
        # An oscillating overlay must not destroy the underlying trend.
        vals = [(r, (1.5 if r % 2 else 1.0) * r ** (-0.5)) for r in range(1, 501)]
        fit = fit_rate(synthetic_records(vals), "feasibility", (1, 500))
        assert fit.slope <= -0.4

    def test_r_squared_of_a_curved_envelope(self):
        # the line misses this curve, so r_squared is below 1; checked against
        # 1 - SS_res/SS_tot of numpy's own line fit
        rs = np.arange(10, 2001)
        vals = np.exp(-2.0 * np.sqrt(np.log(rs + 1.0)))
        fit = fit_rate(synthetic_records(zip(rs.tolist(), vals.tolist())), "slackness",
                       (10, 2000))
        lx, ly = np.log(rs), np.log(vals)
        res = ly - np.polyval(np.polyfit(lx, ly, 1), lx)
        assert fit.r_squared == pytest.approx(1.0 - res @ res / np.sum((ly - ly.mean()) ** 2),
                                              rel=1e-12)

    def test_records_at_one_r_are_refused(self):
        # one log r for all 10 points: lstsq returned its minimum-norm slope, which means nothing
        recs = synthetic_records((5, 2.0 ** -k) for k in range(10))
        says = "^all 10 envelope points share r = 5; need at least 2 distinct r$"
        with pytest.raises(InsufficientDataError, match=says):
            fit_rate(recs, "slackness", (1, 10))
        # one point at a second r is enough: the line through (log 5, mean) and (log 6, -10 log 2)
        fit = fit_rate(recs + synthetic_records([(6, 2.0 ** -10)]), "slackness", (1, 10))
        assert fit.n_points == 11
        assert fit.slope == pytest.approx((-10 + 4.5) * math.log(2.0) / math.log(1.2), rel=1e-12)

    def test_ten_points_are_the_least(self):
        recs = synthetic_records((r, 1.0 / r) for r in range(1, 11))
        with pytest.raises(InsufficientDataError, match="^only 9 records in window"):
            fit_rate(recs, "feasibility", (1, 9))
        fit = fit_rate(recs, "feasibility", (1, 10))
        assert fit.n_points == 10 and fit.slope == pytest.approx(-1.0, abs=1e-12)

    def test_unknown_column_rejected(self):
        recs = synthetic_records((r, 1.0) for r in range(1, 20))
        with pytest.raises(ValueError):
            fit_rate(recs, "f_value", (1, 20))

    def test_non_finite_envelope_points_are_dropped(self):
        # A diverged first row (Inf) stays in the running minimum until the
        # next finite value; it must not turn the slope into NaN.
        vals = [(r, math.inf if r == 1 else r ** (-0.5)) for r in range(1, 101)]
        fit = fit_rate(synthetic_records(vals), "stationarity_sq", (1, 100))
        assert fit.n_points == 99
        assert fit.slope == pytest.approx(-0.5, abs=1e-12)
        # NaN poisons the running minimum from there on: too few points left
        vals = [(r, math.nan if r == 5 else 1.0 / r) for r in range(1, 101)]
        with pytest.raises(InsufficientDataError):
            fit_rate(synthetic_records(vals), "feasibility", (1, 100))


class TestMakeRecord:
    @pytest.mark.parametrize("case", [0, 1, 2, 3, "unconstrained", "scaled-1d"])
    def test_rows_equal_public_functions(self, case):
        # The trace row takes its values from the solver's evaluations; they
        # must equal, bit for bit, what the public functions compute at the
        # same (x, lam) and step sizes.
        cfg = GdpaConfig(tau=0.25, beta0=0.5, alpha01=0.5, max_iters=150,
                         eps_feas=1e-30, eps_stat=1e-30, record_every=1, dense_until=0)
        if case == "unconstrained":
            p = make_unconstrained([0.6, -1.2, 0.3])
        elif case == "scaled-1d":
            p = build_analytic("scaled-1d").problem
            cfg = GdpaConfig(tau=0.1, beta0=0.1, alpha01=1.0, max_iters=150,
                             eps_feas=1e-30, eps_stat=1e-30, record_every=1, dense_until=0)
        else:
            p = random_quadratic_problem(case)
        x0 = np.random.default_rng(300 + p.dim).uniform(-2, 2, p.dim)
        res = solve(p, cfg, x0, capture_iterates=True)
        assert len(res.trace) == cfg.max_iters
        for rec in res.trace:
            x, lam = res.iterates[rec.r - 1]
            alpha, beta, gamma = schedule(cfg, rec.r)
            assert (rec.alpha, rec.beta, rec.gamma) == (alpha, beta, gamma)
            assert rec.f_value == p.f(x)
            assert rec.F_beta_value == perturbed_lagrangian(p, x, lam, beta, cfg.tau)
            assert rec.stationarity_sq == stationarity_measure(p, x, lam, alpha, beta)[1]
            kkt = kkt_residual(p, x, lam)
            assert rec.feasibility == kkt.feasibility \
                == np.linalg.norm(np.maximum(p.g(x), 0.0))
            assert rec.slackness == kkt.slackness
            assert rec.lambda_norm == np.linalg.norm(lam)
