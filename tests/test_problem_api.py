import math
import re
import warnings

import numpy as np
import pytest

from gdpa import (
    ConstrainedProblem,
    DimensionMismatchError,
    GdpaConfig,
    NonFiniteError,
    ProblemConstants,
    ProjectionSpec,
    UnsupportedProjectionError,
    check_gradients,
    effective_constants,
    estimate_sigma,
    solve,
    validate_tau,
)


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


# a callback output of each kind an accessor refuses, in the shape of the real output v
NOT_REAL = {
    "str": lambda v: str(float(np.ravel(v)[0])), "bytes": lambda v: b"1.0",
    "object": lambda v: np.asarray(v, dtype=object),
    "void": lambda v: np.zeros(np.shape(v), dtype="V8"),
    "datetime": lambda v: np.zeros(np.shape(v), dtype="M8[s]"),
    "masked": lambda v: np.ma.masked_all(np.shape(v)),
    "complex": lambda v: np.asarray(v) + 0j,
    "huge int": lambda v: np.full(np.shape(v), 10 ** 400).tolist(),  # float() overflowed
}


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
        # f = 0 has no error to find: the worst point is the only one, point 0
        assert (rep.grad_f_error, rep.worst_point_grad) == (0.0, 0)

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

    @pytest.mark.parametrize("h", [0.0, -1e-6, math.inf, math.nan])
    def test_step_must_be_positive_and_finite(self, h):
        # an infinite h would move every check point to inf and blame the callback
        p = scalar_problem(lambda x: x * x, lambda x: 2 * x)
        with pytest.raises(ValueError, match="^h must be positive and finite$"):
            check_gradients(p, [np.array([0.2])], h=h)

    def test_fused_oracle_is_compared_with_the_callbacks(self):
        p = scalar_problem(lambda x: x * x, lambda x: 2 * x,
                           g=lambda x: 1.0 - x, jac=lambda x: -1.0)
        assert check_gradients(p, [np.array([0.5])]).first_order_error is None
        # a fused J off by 1e-3 at x=0.5: |-1.001 - (-1)| / max(1, 1) = 1e-3
        p.eval_first_order = lambda x: (x @ x, 1.0 - x, 2.0 * x, np.array([[-1.001]]))
        rep = check_gradients(p, [np.array([0.5])], h=1e-6)
        assert rep.jacobian_error <= 1e-10
        assert rep.first_order_error == pytest.approx(1e-3, rel=1e-9)
        assert not rep.passed(1e-5)
        # a fused f off by 1e-3: |0.251 - 0.25| / max(1, 0.25) = 1e-3
        p.eval_first_order = lambda x: (x @ x + 1e-3, 1.0 - x, 2.0 * x, np.array([[-1.0]]))
        rep = check_gradients(p, [np.array([0.5])], h=1e-6)
        assert rep.first_order_error == pytest.approx(1e-3, rel=1e-9)
        assert not rep.passed(1e-5)
        p.eval_first_order = lambda x: (x @ x, 1.0 - x, 2.0 * x, np.array([[-1.0]]))
        rep = check_gradients(p, [np.array([0.5])], h=1e-6)
        assert rep.first_order_error == 0.0 and rep.passed(1e-5)


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

    def test_sample_whose_ratio_overflows_to_nan_is_skipped(self):
        # at x = 0, J^T g+ = 1e200*1e200 - 5e199*1e200 is inf - inf; at x = 1 the ratio is
        # |2*1 - 1*1| / ||(1, 1)|| = 1/sqrt(2), and the NaN sample after it does not count
        p = ConstrainedProblem(
            dim=1, num_constraints=2, eval_f=lambda x: 0.0, eval_grad_f=lambda x: np.zeros(1),
            eval_g=lambda x: np.full(2, 1.0 if x[0] else 1e200),
            eval_jacobian=lambda x: (2.0 if x[0] else 1e200) * np.array([[1.0], [-0.5]]))
        with np.errstate(over="ignore", invalid="ignore"):
            sigma = estimate_sigma(p, [np.ones(1), np.zeros(1)])
        assert sigma == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)

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
        consts = effective_constants(p, seed=0)
        assert 2.0 <= consts.L_f <= 3.0

    def test_ball_leaves_sigma_unknown(self):
        # estimate_sigma refuses a ball; the unknown sigma passes validate_tau
        p = scalar_problem(lambda x: x * x, lambda x: 2 * x, g=lambda x: 1.0,
                           jac=lambda x: 1.0, projection=ProjectionSpec.ball([0.0], 1.0))
        consts = effective_constants(p, seed=0)
        assert consts.sigma is None and consts.U_J == 1.5
        report = validate_tau(GdpaConfig(), consts)
        assert report.ok is True and math.isnan(report.bound)

    def test_zero_width_box_gives_zero_estimates(self):
        # every sample projects onto the one point, so no pair has a gap
        p = scalar_problem(lambda x: x * x, lambda x: 2 * x,
                           projection=ProjectionSpec.box([0.5], [0.5]))
        assert effective_constants(p, seed=0) == ProblemConstants(0.0, 0.0, 0.0, 0.0, math.inf)

    def test_a_gap_of_exactly_1e_12_counts(self):
        # the box [0, 1e-12] projects each sample to 0 or 1e-12: a pair 1e-12 apart has
        # grad f = 2x differ by 2e-12, a quotient of 2, inflated by 1.5
        p = scalar_problem(lambda x: x * x, lambda x: 2 * x,
                           projection=ProjectionSpec.box([0.0], [1e-12]))
        assert effective_constants(p, seed=0).L_f == 3.0

    def test_a_jacobian_difference_that_overflows_gives_an_infinite_l_j(self):
        # J jumps from -1e308 to 1e308 across x = 0; the 2-norm of the overflowed
        # difference was NaN, which max() passed over, so L_J read 0
        p = scalar_problem(lambda x: 0.0, lambda x: 0.0, g=lambda x: 1e308 * x,
                           jac=lambda x: math.copysign(1e308, x),
                           projection=ProjectionSpec.box([-1.0], [1.0]))
        with np.errstate(over="ignore", invalid="ignore"):
            assert effective_constants(p, seed=0).L_J == math.inf

    def test_every_known_constant_is_a_python_float(self):
        # L_f and L_g were numpy.float64, so validate_alpha's ok was a numpy.bool,
        # which json.dump refuses
        p = scalar_problem(lambda x: math.sin(x), lambda x: math.cos(x),
                           g=lambda x: x - 1.0, jac=lambda x: 1.0)
        consts = effective_constants(p, seed=0)
        values = [consts.L_f, consts.L_g, consts.L_J, consts.U_J, consts.sigma]
        assert [type(v) for v in values] == [float] * 5, values
        assert consts.L_J == 0.0 and consts.U_J == 1.5
        given = ProblemConstants(L_J=np.float64(2.0), U_J=3)
        assert (type(given.L_J), type(given.U_J), given.U_J) == (float, float, 3.0)


class TestConstrainedProblemValidation:
    @pytest.mark.parametrize("build, says", [
        (lambda: ConstrainedProblem(dim=0, num_constraints=0, eval_f=lambda x: 0.0,
                                    eval_grad_f=lambda x: x), "dim must be positive"),
        (lambda: ConstrainedProblem(dim=1, num_constraints=-1, eval_f=lambda x: 0.0,
                                    eval_grad_f=lambda x: x),
         "num_constraints must be nonnegative"),
        (lambda: check_gradients(scalar_problem(lambda x: x * x, lambda x: 2 * x), []),
         "need at least one check point"),
        (lambda: ConstrainedProblem(dim=1, num_constraints=1, eval_f=lambda x: 0.0,
                                    eval_grad_f=lambda x: np.zeros(1)),
         "eval_g and eval_jacobian are required when num_constraints > 0"),
    ], ids=["dim-0", "negative-constraint-count", "no-check-points", "no-constraint-callbacks"])
    def test_bad_input_is_refused(self, build, says):
        with pytest.raises(ValueError) as exc:
            build()
        assert exc.type is ValueError and str(exc.value) == says

    @pytest.mark.parametrize("kind", sorted(NOT_REAL))
    @pytest.mark.parametrize("callback, what", [
        ("eval_f", "f"), ("eval_grad_f", "grad f"), ("eval_g", "g"), ("eval_jacobian", "jacobian"),
        (0, "f"), (1, "g"), (2, "grad f"), (3, "jacobian")])  # eval_first_order's (f, g, grad, J)
    def test_non_numeric_callback_output_raises_type_error_naming_it(self, callback, what, kind):
        # text ran as its number or failed in numpy's words, objects and masked arrays ran on
        # their data, and a complex f raised float()'s TypeError
        parts = {"eval_f": lambda x: float(x[0] ** 2), "eval_grad_f": lambda x: 2.0 * x,
                 "eval_g": lambda x: 1.0 - x, "eval_jacobian": lambda x: -np.ones((1, 1))}
        real = dict(parts)
        if isinstance(callback, str):
            parts[callback] = lambda x: NOT_REAL[kind](real[callback](x))
        else:
            def fused(x):
                out = [real[k](x) for k in ("eval_f", "eval_g", "eval_grad_f", "eval_jacobian")]
                out[callback] = NOT_REAL[kind](out[callback])
                return tuple(out)
            parts["eval_first_order"] = fused
        p = ConstrainedProblem(dim=1, num_constraints=1, **parts)
        says = "must be real, got complex values" if kind == "complex" else "must hold real numbers"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TypeError, match=f"^{what} {says}"):
                solve(p, GdpaConfig(max_iters=5, record_every=1), np.ones(1))

    @pytest.mark.parametrize("shape", [(1,), (2,), (1, 1)])
    def test_f_must_be_a_scalar(self, shape):
        # numpy raised "only 0-dimensional arrays can be converted to Python scalars"
        p = scalar_problem(lambda x: x * x, lambda x: 2 * x)
        p.eval_f = lambda x: np.full(shape, 1.0)
        with pytest.raises(DimensionMismatchError,
                           match=rf"^f must have shape \(\), got {re.escape(str(shape))}$"):
            p.f(np.ones(1))

    @pytest.mark.parametrize("name, bad", [
        *((name, math.nan) for name in ("L_f", "L_g", "L_J", "U_J", "sigma")),
        ("L_f", -1.0), ("sigma", 0.0)])
    def test_nan_constant_is_refused_and_inf_allowed(self, name, bad):
        # nan < 0 is False, so ProblemConstants(L_f=nan) was accepted
        with pytest.raises(ValueError, match=f"^{name} must be "):
            ProblemConstants(**{name: bad})
        assert ProblemConstants(**{name: math.inf}) == ProblemConstants(**{name: math.inf})
