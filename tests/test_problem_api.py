import math

import numpy as np
import pytest

from gdpa import (
    ConstrainedProblem,
    NonFiniteError,
    ProblemConstants,
    ProjectionSpec,
    UnsupportedProjectionError,
    check_gradients,
    effective_constants,
    estimate_sigma,
)
from gdpa.problem import seeded_check_points
from gdpa.problems import build_analytic


def scalar_problem(f, grad, g=None, jac=None, projection=None):
    m = 1 if g is not None else 0
    return ConstrainedProblem(
        dim=1, num_constraints=m,
        eval_f=lambda x: float(f(x[0])),
        eval_grad_f=lambda x: np.array([grad(x[0])]),
        eval_g=(lambda x: np.array([g(x[0])])) if g else None,
        eval_jacobian=(lambda x: np.array([[jac(x[0])]])) if jac else None,
        projection=projection or ProjectionSpec.identity(),
    )


class TestCheckGradients:
    def test_quadratic_is_exact_under_central_differences(self):
        p = scalar_problem(lambda x: x * x, lambda x: 2 * x)
        rep = check_gradients(p, [np.array([3.0])], h=1e-5)
        assert rep.grad_f_error <= 1e-8
        assert rep.jacobian_error is None

    def test_linear_constraint(self):
        p = scalar_problem(lambda x: 0.0, lambda x: 0.0,
                           g=lambda x: 1.0 - x, jac=lambda x: -1.0)
        rep = check_gradients(p, [np.array([0.3])], h=1e-6)
        assert rep.jacobian_error <= 1e-10

    def test_wrong_gradient_reports_relative_error(self):
        # claimed gradient 2x+1 for f=x^2 at x=1: |3-2|/max(1,|3|) = 1/3
        p = scalar_problem(lambda x: x * x, lambda x: 2 * x + 1)
        rep = check_gradients(p, [np.array([1.0])], h=1e-6)
        assert rep.grad_f_error == pytest.approx(1.0 / 3.0, rel=1e-4)
        assert not rep.passed(1e-5)

    def test_points_are_projected_into_feasible_set(self):
        p = scalar_problem(lambda x: x * x, lambda x: 2 * x,
                           projection=ProjectionSpec.box([-1.0], [1.0]))
        rep = check_gradients(p, [np.array([5.0])], h=1e-6)
        assert rep.grad_f_error <= 1e-8

    def test_non_finite_callback_names_the_point(self):
        p = scalar_problem(lambda x: float("nan"), lambda x: 0.0)
        with pytest.raises(NonFiniteError, match="point 0"):
            check_gradients(p, [np.array([0.0])])

    def test_bundled_analytic_problems_pass(self):
        for aid in ("scaled-1d", "halfspace-quadratic", "circle-exterior"):
            inst = build_analytic(aid)
            pts = seeded_check_points(inst.problem, 20, seed=3)
            rep = check_gradients(inst.problem, pts, h=1e-6)
            assert rep.passed(1e-5), (aid, rep)


class TestEstimateSigma:
    def test_single_infeasible_ratio(self):
        # g+ = 1, J = 2 everywhere: ratio |J^T g+| / |g+| = 2
        p = scalar_problem(lambda x: 0.0, lambda x: 0.0,
                           g=lambda x: 1.0, jac=lambda x: 2.0)
        assert estimate_sigma(p, [np.array([0.0])]) == pytest.approx(2.0)

    def test_all_feasible_is_inf_sentinel(self):
        p = scalar_problem(lambda x: 0.0, lambda x: 0.0,
                           g=lambda x: -1.0, jac=lambda x: 2.0)
        assert math.isinf(estimate_sigma(p, [np.array([0.0]), np.array([1.0])]))

    def test_min_over_samples(self):
        # J(x) = x: at x=2 ratio 2, at x=0.5 ratio 0.5 -> min 0.5
        p = scalar_problem(lambda x: 0.0, lambda x: 0.0,
                           g=lambda x: 1.0, jac=lambda x: x)
        val = estimate_sigma(p, [np.array([2.0]), np.array([0.5])])
        assert val == pytest.approx(0.5)

    def test_box_zeroes_outward_components(self):
        # At the active upper bound, a negative J^T g+ component lies inside
        # the allowed cone and contributes no distance.
        p = scalar_problem(lambda x: 0.0, lambda x: 0.0,
                           g=lambda x: 1.0, jac=lambda x: -3.0,
                           projection=ProjectionSpec.box([-1.0], [1.0]))
        assert estimate_sigma(p, [np.array([1.0])]) == pytest.approx(0.0)
        # In the interior the full component counts.
        assert estimate_sigma(p, [np.array([0.0])]) == pytest.approx(3.0)

    def test_unsupported_projection(self):
        p = scalar_problem(lambda x: 0.0, lambda x: 0.0,
                           g=lambda x: 1.0, jac=lambda x: 1.0,
                           projection=ProjectionSpec.ball([0.0], 1.0))
        with pytest.raises(UnsupportedProjectionError):
            estimate_sigma(p, [np.array([0.0])])


class TestEffectiveConstants:
    def test_quadratic_lipschitz_estimate_in_range(self):
        p = scalar_problem(lambda x: x * x, lambda x: 2 * x,
                           projection=ProjectionSpec.box([-1.0], [1.0]))
        consts = effective_constants(p, sample_budget=16, seed=0)
        assert 2.0 <= consts.L_f <= 3.0

    def test_supplied_constants_returned_verbatim(self):
        supplied = ProblemConstants(L_f=7.0, sigma=0.5)
        p = scalar_problem(lambda x: x * x, lambda x: 2 * x)
        p.constants = supplied
        consts = effective_constants(p, sample_budget=8, seed=0)
        assert consts.L_f == 7.0
        assert consts.sigma == 0.5
        assert consts.U_J is not None  # the missing ones are estimated

    def test_no_constraints_zeroes_constraint_constants(self):
        p = scalar_problem(lambda x: x * x, lambda x: 2 * x)
        consts = effective_constants(p, sample_budget=8, seed=0)
        assert consts.U_J == 0.0
        assert consts.L_J == 0.0
        assert math.isinf(consts.sigma)

    def test_deterministic_given_seed(self):
        p = scalar_problem(lambda x: math.sin(x), lambda x: math.cos(x),
                           g=lambda x: x - 1.0, jac=lambda x: 1.0)
        a = effective_constants(p, sample_budget=12, seed=42)
        b = effective_constants(p, sample_budget=12, seed=42)
        assert a == b

    def test_budget_too_small(self):
        p = scalar_problem(lambda x: x * x, lambda x: 2 * x)
        with pytest.raises(ValueError):
            effective_constants(p, sample_budget=1, seed=0)


class TestConstrainedProblemValidation:
    def test_missing_constraint_callbacks_rejected(self):
        with pytest.raises(ValueError):
            ConstrainedProblem(dim=1, num_constraints=1,
                               eval_f=lambda x: 0.0, eval_grad_f=lambda x: np.zeros(1))

    def test_shape_mismatch_detected(self):
        p = ConstrainedProblem(dim=2, num_constraints=0,
                               eval_f=lambda x: 0.0,
                               eval_grad_f=lambda x: np.zeros(3))
        with pytest.raises(Exception):
            p.grad_f(np.zeros(2))

    def test_constants_validation(self):
        with pytest.raises(ValueError):
            ProblemConstants(L_f=-1.0)
        with pytest.raises(ValueError):
            ProblemConstants(sigma=0.0)
