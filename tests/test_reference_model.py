"""solve() and both baselines against the independent reference model of
Algorithm 1 (tests/reference_model.py), over the five feasible sets."""

import dataclasses

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gdpa import (
    AlmConfig,
    GdpaConfig,
    PenaltyConfig,
    ProjectionSpec,
    solve,
    solve_alm,
    solve_penalty,
)
from tests import reference_model
from tests.conftest import random_quadratic_problem

D = 4  # two simplex blocks of 2
SETS = ("identity", "box", "ball", "nonnegative", "simplex")
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)
# On the unbounded sets the largest drawn steps overflow in about 1 run in 300;
# such runs are skipped here, as the failure paths have pinned tests in test_solver.py


def instance(kind, m, seed):
    """conftest's random quadratic problem (convex f, m indefinite quadratic
    constraints) on one of the five sets, the model's view of it, and a start."""
    rng = np.random.default_rng(seed)
    center = 0.1 * rng.standard_normal(D)
    params = {"box": {"lower": -np.ones(D), "upper": np.ones(D)},
              "ball": {"center": center, "radius": 1.5}, "simplex": {"block": 2}}.get(kind, {})
    spec = {"identity": ProjectionSpec.identity(), "nonnegative": ProjectionSpec.nonnegative(),
            "box": ProjectionSpec.box(-np.ones(D), np.ones(D)),
            "ball": ProjectionSpec.ball(center, 1.5),
            "simplex": ProjectionSpec.simplex_blocks(2)}[kind]
    problem = dataclasses.replace(random_quadratic_problem(seed, d=D, m=m), projection=spec)
    model = (problem.grad_f, problem.g, problem.jacobian,
             lambda x: reference_model.project(kind, x, **params))
    return problem, model, rng.uniform(-2.0, 2.0, D)


def assert_close(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-300)


@given(kind=st.sampled_from(SETS), m=st.sampled_from([0, 1, 3]), seed=st.integers(0, 2 ** 16),
       tau=st.floats(0.05, 0.95), beta0=st.floats(0.05, 1.0), alpha01=st.floats(0.01, 0.25))
@SETTINGS
def test_solve_matches_the_reference_model(kind, m, seed, tau, beta0, alpha01):
    problem, model, x0 = instance(kind, m, seed)
    cfg = GdpaConfig(tau=tau, beta0=beta0, alpha01=alpha01, max_iters=50,
                     eps_feas=1e-300, eps_stat=1e-300, record_every=50, dense_until=0)
    res = solve(problem, cfg, x0, capture_iterates=True)
    assume(res.termination != "numerical-failure")
    pairs, x, lam, x_avg, lam_avg = reference_model.gdpa(
        *model, x0, tau, beta0, alpha01, 1.0, 1.0, 50)
    # a feasible, exactly stationary iterate stops the run before R
    assert res.iterations == len(res.iterates) <= 50
    for (x_r, lam_r), (want_x, want_lam) in zip(res.iterates, pairs):
        assert_close(x_r, want_x)
        assert_close(lam_r, want_lam)
    if res.termination == "budget-exhausted":
        assert_close(res.x_final, x)
        assert_close(res.lambda_final, lam)
        assert_close(res.x_avg, x_avg)
        assert_close(res.lambda_avg, lam_avg)


@given(kind=st.sampled_from(SETS), m=st.sampled_from([0, 1, 3]), seed=st.integers(0, 2 ** 16),
       alm=st.booleans(), rho0=st.floats(0.1, 2.0), growth=st.floats(1.5, 4.0),
       inner=st.integers(1, 20), outer=st.integers(1, 4), step=st.floats(0.005, 0.05),
       max_steps=st.integers(1, 60))
# ALM with multipliers that turn positive after a round and a growing rho, so that
# the 1/rho weights of lam_avg count: the drawn examples rarely reach such a run
@example(kind="box", m=3, seed=3, alm=True, rho0=0.5, growth=2.0, inner=10, outer=4,
         step=0.02, max_steps=60)
@SETTINGS
def test_baselines_match_the_reference_model(kind, m, seed, alm, rho0, growth, inner, outer,
                                             step, max_steps):
    problem, model, x0 = instance(kind, m, seed)
    settings_ = dict(rho0=rho0, rho_growth=growth, inner_iters=inner, outer_iters=outer,
                     inner_step=step, feas_tol=1e-6, max_steps=max_steps)
    res = (solve_alm(problem, AlmConfig(**settings_), x0) if alm
           else solve_penalty(problem, PenaltyConfig(**settings_), x0))
    assume(res.termination != "numerical-failure")
    x, lam, steps, x_avg, lam_avg = reference_model.inner_outer(
        *model, x0, rho0, growth, inner, outer, step, 1e-6, max_steps, alm)
    assert res.iterations == steps <= max_steps
    assert res.trace[-1].r == steps
    assert_close(res.x_final, x)
    assert_close(res.lambda_final, lam)
    assert_close(res.x_avg, x_avg)
    assert_close(res.lambda_avg, lam_avg)
