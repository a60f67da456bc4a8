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


# a callback output of each kind an accessor refuses, in the shape of the real output v
NOT_REAL = {
    "str": lambda v: str(float(np.ravel(v)[0])), "bytes": lambda v: b"1.0",
    "object": lambda v: np.asarray(v, dtype=object),
    "void": lambda v: np.zeros(np.shape(v), dtype="V8"),
    "datetime": lambda v: np.zeros(np.shape(v), dtype="M8[s]"),
    "masked": lambda v: np.ma.masked_all(np.shape(v)),
    "complex": lambda v: np.asarray(v) + 0j,
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

    def test_no_constraints_zeroes_constraint_constants(self):
        p = scalar_problem(lambda x: x * x, lambda x: 2 * x)
        consts = effective_constants(p, seed=0)
        assert consts.U_J == 0.0
        assert consts.L_J == 0.0
        assert math.isinf(consts.sigma)

    def test_deterministic_given_seed(self):
        p = scalar_problem(lambda x: math.sin(x), lambda x: math.cos(x),
                           g=lambda x: x - 1.0, jac=lambda x: 1.0)
        a = effective_constants(p, seed=42)
        b = effective_constants(p, seed=42)
        assert a == b

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
    ], ids=["dim-0", "negative-constraint-count", "no-check-points"])
    def test_bad_input_is_refused(self, build, says):
        with pytest.raises(ValueError) as exc:
            build()
        assert exc.type is ValueError and str(exc.value) == says

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

    @pytest.mark.parametrize("callback, what", [
        ("eval_grad_f", "grad f"), ("eval_g", "g"), ("eval_jacobian", "jacobian")])
    def test_complex_callback_output_raises_type_error_without_a_warning(self, callback, what):
        # the accessors cast it to its real part, with a ComplexWarning
        parts = {"eval_f": lambda x: float(x[0] ** 2), "eval_grad_f": lambda x: 2.0 * x,
                 "eval_g": lambda x: 1.0 - x, "eval_jacobian": lambda x: -np.ones((1, 1))}
        real = parts[callback]
        parts[callback] = lambda x: real(x) + 0j
        p = ConstrainedProblem(dim=1, num_constraints=1, **parts)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TypeError, match=f"^{what} must be real, got complex values$"):
                solve(p, GdpaConfig(max_iters=5), np.ones(1))

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

    def test_bool_outputs_run_as_zero_and_one(self):
        # each accessor casts a bool array (and f a bool) to 0.0 and 1.0, bit for bit
        parts = {"eval_f": lambda x: bool(x[0] > 0.5), "eval_grad_f": lambda x: x > 0.5,
                 "eval_g": lambda x: x > 1.0, "eval_jacobian": lambda x: np.ones((1, 1), bool)}
        cast = {k: (lambda fn: lambda x: np.asarray(fn(x), dtype=np.float64))(fn)
                for k, fn in parts.items()}
        cast["eval_f"] = lambda x: float(parts["eval_f"](x))
        runs = []
        for callbacks in (parts, cast):
            p = ConstrainedProblem(dim=1, num_constraints=1, **callbacks)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                runs.append(solve(p, GdpaConfig(max_iters=20, record_every=1), np.full(1, 3.0)))
        assert runs[0].trace == runs[1].trace and np.array_equal(runs[0].x_final, runs[1].x_final)

    def test_constants_validation(self):
        with pytest.raises(ValueError):
            ProblemConstants(L_f=-1.0)
        with pytest.raises(ValueError):
            ProblemConstants(sigma=0.0)

    @pytest.mark.parametrize("name", ["L_f", "L_g", "L_J", "U_J", "sigma"])
    def test_nan_constant_is_refused_and_inf_allowed(self, name):
        # nan < 0 is False, so ProblemConstants(L_f=nan) was accepted
        with pytest.raises(ValueError, match=f"^{name} must be "):
            ProblemConstants(**{name: math.nan})
        assert ProblemConstants(**{name: math.inf}) == ProblemConstants(**{name: math.inf})
