"""The step and trace-row kernels against the forms they replace.

The kernels use ``ndarray.dot`` where the plain form is the ``@`` operator,
which costs about twice as much per call on tiny arrays; both must give the
same bits, so every comparison here is ``==``.
"""

import itertools

import numpy as np
import pytest

from gdpa.metrics import _perturbed_value, _stationarity_from_evals, _violation_sq
from gdpa.solver import _primal_step_raw
from gdpa.vec import ProjectionSpec, _project_raw

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
            stacked, value = _stationarity_from_evals(x, lam, g, grad, jac, alpha, beta, spec)
            assert np.array_equal(stacked, want)
            assert value == float(want @ want)
