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
    check_gradients,
    effective_constants,
    estimate_sigma,
    seeded_check_points,
    solve,
    validate_tau,
)


def sized(dim=1, num_constraints=0):
    """A problem with the given sizes and callbacks that only the sizes matter to."""
    return ConstrainedProblem(dim=dim, num_constraints=num_constraints, eval_f=lambda x: 0.0,
                              eval_grad_f=np.zeros_like, eval_g=lambda x: np.zeros(num_constraints),
                              eval_jacobian=lambda x: np.zeros((num_constraints, x.size)))


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

    def test_sample_whose_product_overflowed_is_not_the_minimum(self):
        # at x = 0, J^T g+ = 1e200*1e200 - 5e199*1e200 was inf - inf, a NaN sample; at unit
        # scale it is 5e199, whose squared norm still overflows, so that ratio reads inf; at
        # x = 1 the ratio is |2*1 - 1*1| / ||(1, 1)|| = 1/sqrt(2)
        p = ConstrainedProblem(
            dim=1, num_constraints=2, eval_f=lambda x: 0.0, eval_grad_f=lambda x: np.zeros(1),
            eval_g=lambda x: np.full(2, 1.0 if x[0] else 1e200),
            eval_jacobian=lambda x: (2.0 if x[0] else 1e200) * np.array([[1.0], [-0.5]]))
        with np.errstate(over="ignore"):
            sigma = estimate_sigma(p, [np.ones(1), np.zeros(1)])
        assert sigma == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)

    def test_a_nan_sample_after_the_minimum_does_not_replace_it(self):
        # 1e308 and -0.9e308 alternating over 16 rows: J^T g+ is 8e307 summed in order, but a
        # dot product that keeps split partial sums (OpenBLAS 0.3.31's Haswell kernel) reaches
        # +inf and -inf and reads NaN; the sample at x = 1, ratio |2| / ||1_16|| = 0.5, stays
        # the minimum on every BLAS, and the test tells min(best, ratio) from min(ratio, best)
        # only where the sum reads NaN
        p = ConstrainedProblem(
            dim=1, num_constraints=16, eval_f=lambda x: 0.0, eval_grad_f=lambda x: np.zeros(1),
            eval_g=lambda x: np.ones(16),
            eval_jacobian=lambda x: 2.0 * np.eye(16, 1) if x[0] else np.resize([1e308, -0.9e308],
                                                                               (16, 1)))
        with np.errstate(over="ignore", invalid="ignore"):
            assert estimate_sigma(p, [np.ones(1), np.zeros(1)]) == 0.5

    def test_huge_violation_with_a_cancelling_jacobian_gives_zero(self):
        # J^T g+ = 1e200*1e200 - 1e200*1e200 is 0 at unit scale; the NaN sample was skipped (inf)
        p = ConstrainedProblem(
            dim=1, num_constraints=2, eval_f=lambda x: 0.0, eval_grad_f=lambda x: np.zeros(1),
            eval_g=lambda x: np.full(2, 1e200),
            eval_jacobian=lambda x: 1e200 * np.array([[1.0], [-1.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert estimate_sigma(p, [np.zeros(1)]) == 0.0

    def test_box_zeroes_outward_components(self):
        # At the active upper bound, a negative J^T g+ component lies inside
        # the allowed cone and contributes no distance.
        p = scalar_problem(lambda x: 0.0, lambda x: 0.0,
                           g=lambda x: 1.0, jac=lambda x: -3.0,
                           projection=ProjectionSpec.box([-1.0], [1.0]))
        assert estimate_sigma(p, [np.array([1.0])]) == pytest.approx(0.0)
        # In the interior the full component counts.
        assert estimate_sigma(p, [np.array([0.0])]) == pytest.approx(3.0)

    def test_ball_gives_none_unless_there_is_no_constraint(self):
        # a ball's normal cone is not measured: sigma is unknown, but with m = 0 it is inf
        # before the set is looked at; a ball raised UnsupportedProjectionError for either
        ball = ProjectionSpec.ball([0.0], 1.0)
        p = scalar_problem(lambda x: 0.0, lambda x: 0.0,
                           g=lambda x: 1.0, jac=lambda x: 1.0, projection=ball)
        assert estimate_sigma(p, [np.array([0.0])]) is None
        p = scalar_problem(lambda x: 0.0, lambda x: 0.0, projection=ball)
        assert estimate_sigma(p, [np.array([0.0])]) == math.inf


class TestEffectiveConstants:
    def test_quadratic_lipschitz_estimate_in_range(self):
        p = scalar_problem(lambda x: x * x, lambda x: 2 * x,
                           projection=ProjectionSpec.box([-1.0], [1.0]))
        consts = effective_constants(p, seed=0)
        assert 2.0 <= consts.L_f <= 3.0

    def test_ball_leaves_sigma_unknown(self):
        # estimate_sigma gives None on a ball; the unknown sigma passes validate_tau
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
        given = ProblemConstants(L_f=0.0, L_g=0.0, L_J=np.float64(2.0), U_J=3, sigma=0)
        assert [type(v) for v in vars(given).values()] == [float] * 5
        assert (given.U_J, given.sigma) == (3.0, 0.0)

    @pytest.mark.parametrize("d, m, g, jac, u_j", [
        (2, 1, [1.0], [[0.0, 0.0]], 0.0),  # g = 1 everywhere and J = 0
        (1, 2, [1.0, 1.0], [[1.0], [-1.0]], 1.5 * math.sqrt(2.0)),  # J^T g+ = 1 - 1 = 0
    ], ids=["zero-jacobian", "cancelling-rows"])
    def test_a_zero_sigma_estimate_is_measured_and_gives_tau_bound_1(self, d, m, g, jac, u_j):
        # "sigma must be strictly positive when supplied" refused the library's own estimate
        p = ConstrainedProblem(dim=d, num_constraints=m, eval_f=lambda x: 0.0,
                               eval_grad_f=lambda x: np.zeros(d),
                               eval_g=lambda x: np.array(g), eval_jacobian=lambda x: np.array(jac))
        consts = effective_constants(p, seed=0)
        assert (consts.L_f, consts.L_g, consts.L_J, consts.sigma) == (0.0, 0.0, 0.0, 0.0)
        assert consts.U_J == pytest.approx(u_j, rel=1e-15)
        report = validate_tau(GdpaConfig(tau=0.99), consts)
        assert (report.ok, report.bound) == (False, 1.0)

    @pytest.mark.parametrize("projection", [
        ProjectionSpec.identity(), ProjectionSpec.box([-1.0, 0.0, -2.0], [1.0, 0.5, 2.0]),
        ProjectionSpec.ball([0.0, 1.0, 0.0], 1.5)], ids=["identity", "box", "ball"])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_no_constraint_gives_zero_constraint_constants_and_infinite_sigma(self, projection,
                                                                              seed, monkeypatch):
        # the m = 0 shortcut's constants, now from the general path: 1.5 times the largest
        # quotient of successive samples' grad f, zero for g and J, and sigma inf; the 2-norm
        # of the empty (0, 3) Jacobian raises here as on numpy 1.x (amax of no singular value)
        norm = np.linalg.norm

        def norm_of_numpy_1(a, ord=None, *args, **kwargs):
            if ord == 2 and np.size(a) == 0:
                raise ValueError("zero-size array to reduction operation maximum")
            return norm(a, ord, *args, **kwargs)
        monkeypatch.setattr(np.linalg, "norm", norm_of_numpy_1)
        p = ConstrainedProblem(dim=3, num_constraints=0, eval_f=lambda x: float(np.sin(x).sum()),
                               eval_grad_f=np.cos, projection=projection)
        pts = seeded_check_points(p, 8, seed)
        l_f = 1.5 * max(float(np.linalg.norm(np.cos(b) - np.cos(a)) / np.linalg.norm(b - a))
                        for a, b in zip(pts, pts[1:]))
        assert effective_constants(p, seed) == ProblemConstants(l_f, 0.0, 0.0, 0.0, math.inf)


class TestFirstOrder:
    def test_without_a_fused_oracle_it_is_one_checked_g_call(self):
        calls, g_out = [], [np.array([0.5])]

        def counted(name, fn):
            return lambda x: calls.append(name) or fn(x)
        p = ConstrainedProblem(
            dim=1, num_constraints=1, eval_f=counted("f", lambda x: 0.0),
            eval_grad_f=counted("grad f", lambda x: np.zeros(1)),
            eval_g=counted("g", lambda x: g_out[0]),
            eval_jacobian=counted("jacobian", lambda x: np.ones((1, 1))))
        f, g, grad, jac = p.first_order(np.zeros(1))
        assert (f, grad, jac) == (None, None, None) and g is g_out[0] and calls == ["g"]
        g_out[0] = np.array([math.nan])
        with pytest.raises(NonFiniteError, match=r"^g\(x\) is not finite at x=array\(\[0\.\]\)$"):
            p.first_order(np.zeros(1))
        assert calls == ["g", "g"]


class TestConstrainedProblemValidation:
    @pytest.mark.parametrize("build, says", [
        (lambda: sized(dim=0), "dim must be an integer in [1, 2**62], got 0"),
        (lambda: sized(num_constraints=-1),
         "num_constraints must be an integer in [0, 2**62], got -1"),
        # a float or bool size was accepted: dim=2.5 sized nothing, True read as 1
        (lambda: sized(dim=2.5), "dim must be an integer in [1, 2**62], got 2.5"),
        (lambda: sized(dim=True), "dim must be an integer in [1, 2**62], got True"),
        (lambda: sized(num_constraints=1.5),
         "num_constraints must be an integer in [0, 2**62], got 1.5"),
        (lambda: check_gradients(scalar_problem(lambda x: x * x, lambda x: 2 * x), []),
         "need at least one check point"),
        (lambda: ConstrainedProblem(dim=1, num_constraints=1, eval_f=lambda x: 0.0,
                                    eval_grad_f=lambda x: np.zeros(1)),
         "eval_g and eval_jacobian are required when num_constraints > 0"),
    ], ids=["dim-0", "negative-constraint-count", "fractional-dim", "bool-dim",
            "fractional-constraint-count", "no-check-points", "no-constraint-callbacks"])
    def test_bad_input_is_refused(self, build, says):
        with pytest.raises(ValueError) as exc:
            build()
        assert exc.type is ValueError and str(exc.value) == says

    def test_numpy_integer_sizes_pass_and_are_stored_as_int(self):
        # a stored uint8 size would wrap around in later size arithmetic (200 + 100 is 44)
        p = sized(dim=np.uint8(200), num_constraints=np.int64(0))
        assert (p.dim, p.num_constraints) == (200, 0) and p.g(np.zeros(200)).shape == (0,)
        assert type(p.dim) is int and type(p.num_constraints) is int

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
        ("L_f", -1.0), ("L_g", None)])
    def test_nan_constant_is_refused_and_inf_allowed(self, name, bad):
        # nan < 0 is False, so ProblemConstants(L_f=nan) was accepted; one rule for all five:
        # a nonnegative float, inf and 0 allowed, and None for sigma alone (unknown)
        zero = dict(L_f=0.0, L_g=0.0, L_J=0.0, U_J=0.0)
        with pytest.raises(ValueError, match=f"^{name} must be a nonnegative number, got "):
            ProblemConstants(**{**zero, name: bad})
        assert getattr(ProblemConstants(**{**zero, name: math.inf}), name) == math.inf
        assert getattr(ProblemConstants(**{**zero, name: 0}), name) == 0.0
        assert ProblemConstants(**zero).sigma is None
