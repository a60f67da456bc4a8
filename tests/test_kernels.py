"""The step and trace-row kernels against the forms they replace.

The kernels use ``ndarray.dot`` where the plain form is the ``@`` operator,
which costs about twice as much per call on tiny arrays, and the hot loops
pass their scalars as 0-d float64 arrays, which a ufunc takes faster than a
Python float; both must give the same bits, so every comparison here is
``==`` (on the bytes, where a -0.0 could hide behind a 0.0).
"""

import itertools

import numpy as np
import pytest

import gdpa.metrics
from gdpa.metrics import (_perturbed_value, _residual_step, _shift_sum, _shifted, _stationarity,
                          _violation_sq)
from gdpa.solver import _dual_step_raw, _primal_step_raw, active_set
from gdpa.vec import NonFiniteError, ProjectionSpec, _project_raw

CASES = list(itertools.product([1, 4, 1000], [0, 1, 3]))
DRAWS = 20


def draws(d, m):
    """Random kernel inputs of every sign and a wide range of magnitudes."""
    rng = np.random.default_rng(1000 * d + m)
    for _ in range(DRAWS):
        scale = 10.0 ** rng.uniform(-3, 3)
        yield (rng, scale * rng.standard_normal(d), scale * rng.standard_normal(d),
               rng.standard_normal((m, d)), scale * rng.standard_normal(m))


def projections(d):
    return [ProjectionSpec.identity(), ProjectionSpec.box(-np.ones(d), np.ones(d))]


@pytest.mark.parametrize("d, m", CASES)
def test_primal_step_equals_the_matmul_form(d, m):
    for rng, x, grad, jac, g in draws(d, m):
        shifted = np.maximum(rng.standard_normal(m) + g, 0.0)
        alpha = rng.uniform(1e-3, 1.0)
        for spec in projections(d):
            want = _project_raw(spec, x - alpha * (grad + jac.T @ shifted))
            assert np.array_equal(_primal_step_raw(spec, x, grad, jac, shifted, alpha), want)


@pytest.mark.parametrize("d, m", CASES)
def test_violation_and_perturbed_value_equal_the_matmul_form(d, m):
    for rng, _, _, _, g in draws(d, m):
        gp = np.maximum(g, 0.0)
        assert _violation_sq(g) == float(gp @ gp)
        damped = np.abs(rng.standard_normal(m))
        beta = rng.uniform(1e-2, 10.0)
        arg = g + damped / beta
        ap = np.maximum(arg, 0.0)
        want = 1.5 + 0.5 * beta * float(ap @ ap) - float(damped @ damped) / (2.0 * beta)
        assert _perturbed_value(1.5, arg, damped, beta) == want


@pytest.mark.parametrize("d, m", CASES)
def test_stationarity_equals_the_matmul_form(d, m):
    for rng, x, grad, jac, g in draws(d, m):
        lam = np.abs(rng.standard_normal(m))
        alpha, beta = rng.uniform(1e-3, 1.0), rng.uniform(1e-2, 10.0)
        for spec in projections(d):
            proj = _project_raw(spec, x - alpha * (grad + jac.T @ lam))
            want = np.concatenate([(x - proj) / alpha,
                                   (lam - np.maximum(lam + beta * g, 0.0)) / beta])
            proj = _residual_step(x, lam, grad, jac, alpha, spec)
            stacked, value = _stationarity(x, proj, lam, _shifted(lam, g, beta), alpha, beta)
            assert np.array_equal(stacked, want)
            assert value == float(want @ want)


def signed_zeros_and_infs(g):
    """``g`` with its first entries set to +0.0, -0.0, +inf and -inf, as far as it reaches."""
    g = g.copy()
    special = np.array([0.0, -0.0, np.inf, -np.inf])[:g.size]
    g[:special.size] = special
    return g


def same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("d, m", CASES)
def test_zero_d_operands_equal_the_python_float_forms(d, m):
    for rng, _, _, _, drawn in draws(d, m):
        lam = np.abs(rng.standard_normal(m))
        beta, tau = rng.uniform(1e-2, 10.0), rng.uniform(0.01, 0.99)
        beta_0d, omt_0d = np.asarray(beta), np.asarray(1.0 - tau)
        for g in (drawn, signed_zeros_and_infs(drawn)):
            damped = (1.0 - tau) * lam
            total = damped + beta * g
            for beta_op, omt_op in ((beta, 1.0 - tau), (beta_0d, omt_0d)):
                damped_op = omt_op * lam  # a step's damped multiplier, and its sum
                assert same(damped_op, damped) and same(_shift_sum(damped_op, g, beta_op), total)
                # the trace rows' merit argument
                assert same(g + damped_op / beta_op, g + damped / beta)
            assert same(_shifted(damped, g, beta_0d), np.maximum(total, 0.0))
            assert same(_shifted(damped, g, beta_0d, total), np.maximum(total, 0.0))
            mask = total > 0.0
            assert same(total > gdpa.metrics._ZERO, mask)
            for step_mask in (mask, ~mask):  # a step's mask is g(x_r)'s, not g_next's
                assert same(_dual_step_raw(g, damped, step_mask, beta_0d),
                            np.where(step_mask, np.maximum(total, 0.0), 0.0))
            gp = np.maximum(g, 0.0)
            assert _violation_sq(g) == float(gp.dot(gp))
            if np.count_nonzero(np.isfinite(g)) == g.size:
                assert same(active_set(g, lam, beta, tau), mask)
            else:  # the public function takes finite vectors only
                with pytest.raises(NonFiniteError):
                    active_set(g, lam, beta, tau)


@pytest.mark.parametrize("const", [gdpa.metrics._ZERO])
def test_module_constants_are_read_only_0d_float64(const):
    assert const.shape == () and const.dtype == np.float64
    with pytest.raises(ValueError, match="read-only"):
        const[...] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        np.add(const, 1.0, out=const)


@pytest.mark.parametrize("lower, upper", [(-1.0, 1.0), (-0.0, 0.0), (0.0, 0.0), (-0.0, -0.0)])
def test_box_projection_equals_np_clip(lower, upper):
    # the projection calls ndarray.clip, the method np.clip ends in
    x = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 0.5, -0.5, 3.0, -3.0, 5e-324])
    rng = np.random.default_rng(0)
    for v in (x, rng.permutation(x), np.repeat(x, 2)[::2], 10.0 * rng.standard_normal(10)):
        spec = ProjectionSpec.box(np.full(10, lower), np.full(10, upper))
        assert same(_project_raw(spec, v), np.clip(v, spec.lower, spec.upper))
