"""Golden digests of whole solver runs: GDPA, the penalty method and ALM on the
analytic instances, on random quadratics (on a box, on each other feasible set,
and with a g callback that hands back one buffer on every call), on separable
quadratics with d = 1000 and with d = 10,000 and m = 50, on a 3-class MNPC and a
3-class net (separate callbacks, so f is called for each recorded row), on a
small CMDP, one with d = 256 (whose blocks of steps are shorter than 64) and the
S = 100, A = 10, m = 3 CMDP of perfbench's cmdp-100x10, on one run per solver
that ends in a numerical failure, and on one 1-step run per solver, whose
averages are those of its start.

Each case holds one sha256 per field of its result (``FIELDS``): the bytes of its
trace rows, final pair, averages, termination, T_eps and iteration count, so a
mismatch names the field that moved. The failure message is left out, as its
wording may change without a change in what the run computed. The file also
records the numpy version and BLAS build it was made with. Runs made through the
``tests`` package, as both below are, use one BLAS thread (``tests/__init__.py``).

    PYTHONPATH=src python -m tests.record_golden   # rewrites tests/golden.json

and prints each case and field whose digest moved (or "0 cases moved") and each
case that is new to the file.

``tests/test_golden.py`` checks every case against the file.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np

from gdpa import (
    AlmConfig,
    ConstrainedProblem,
    GdpaConfig,
    PenaltyConfig,
    ProjectionSpec,
    solve,
    solve_alm,
    solve_penalty,
)
from gdpa.problems import (
    ANALYTIC_IDS,
    build_analytic,
    build_cmdp,
    build_mnpc,
    build_nn_budget,
    generate_synthetic_mnpc,
    random_cmdp,
)

GOLDEN = Path(__file__).with_name("golden.json")

# record_every and dense_until small enough that every run has dense and sparse rows
GDPA = dict(tau=0.25, beta0=0.5, alpha01=0.5, max_iters=300, eps_feas=1e-30, eps_stat=1e-30,
            record_every=7, dense_until=20)
BASELINE = dict(inner_iters=70, outer_iters=4, inner_step=1e-2, record_every=7, dense_until=20)


def quadratic(d: int, m: int, seed: int, projection=None) -> ConstrainedProblem:
    """Convex quadratic objective under m random (indefinite) quadratic
    constraints, on ``projection`` (default the box [-2, 2]^d)."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d)) / np.sqrt(d)
    hess, lin = a.T @ a + np.eye(d), rng.standard_normal(d)
    b = rng.standard_normal((m, d, d)) / np.sqrt(d)
    quads = 0.5 * (b + b.transpose(0, 2, 1))
    slopes, offsets = rng.standard_normal((m, d)), rng.uniform(-1.0, 1.0, m)
    return ConstrainedProblem(
        dim=d, num_constraints=m,
        eval_f=lambda x: 0.5 * float(x @ hess @ x) + float(lin @ x),
        eval_grad_f=lambda x: hess @ x + lin,
        eval_g=lambda x: 0.5 * (quads @ x) @ x + slopes @ x + offsets,
        eval_jacobian=lambda x: quads @ x + slopes,
        projection=projection or ProjectionSpec.box(np.full(d, -2.0), np.full(d, 2.0)))


def separable(d: int, m: int, seed: int) -> ConstrainedProblem:
    """``quadratic`` with diagonal Hessians, so that each evaluation costs O(m*d)."""
    rng = np.random.default_rng(seed)
    hess, lin = 1.0 + rng.uniform(0.0, 1.0, d), rng.standard_normal(d)
    quads, slopes = rng.standard_normal((2, m, d)) / np.sqrt(d)
    offsets = rng.uniform(-1.0, 1.0, m)
    return ConstrainedProblem(
        dim=d, num_constraints=m,
        eval_f=lambda x: 0.5 * float(x @ (hess * x)) + float(lin @ x),
        eval_grad_f=lambda x: hess * x + lin,
        eval_g=lambda x: 0.5 * (quads * x) @ x + slopes @ x + offsets,
        eval_jacobian=lambda x: quads * x + slopes,
        projection=ProjectionSpec.box(np.full(d, -2.0), np.full(d, 2.0)))


def g_buffer(problem: ConstrainedProblem) -> ConstrainedProblem:
    """``problem`` with g written into one buffer that every call hands back."""
    buf, eval_g = np.empty(problem.num_constraints), problem.eval_g

    def into_buffer(x):
        buf[:] = eval_g(x)
        return buf

    return dataclasses.replace(problem, eval_g=into_buffer)


PROJECTIONS = {
    "identity": ProjectionSpec.identity(),
    "ball": ProjectionSpec.ball(np.zeros(4), 1.0),
    "nonnegative": ProjectionSpec.nonnegative(),
    "simplex": ProjectionSpec.simplex_blocks(2),
}


def cmdp(seed: int, num_states: int, num_actions: int, thresholds) -> ConstrainedProblem:
    return build_cmdp(random_cmdp(seed=seed, num_states=num_states, num_actions=num_actions,
                                  num_constraints=len(thresholds), discount=0.9,
                                  thresholds=np.array(thresholds)))


def three_classes():
    return generate_synthetic_mnpc(seed=3, num_classes=3, d_in=4, per_class=8, noise_std=0.5)


def _uniform(p):
    return np.random.default_rng(p.dim).uniform(-2.0, 2.0, p.dim)


def _at(value):
    return lambda p: np.full(p.dim, value)


def _instances() -> dict:
    """name -> (problem builder, start builder) of each instance."""
    instances = {aid: (lambda aid=aid: build_analytic(aid).problem, _at(0.3))
                 for aid in ANALYTIC_IDS}
    for d in (1, 4, 50):
        for m in (0, 1, 3):
            instances[f"qq-d{d}-m{m}"] = (lambda d=d, m=m: quadratic(d, m, 10 * d + m), _uniform)
    for kind, spec in PROJECTIONS.items():
        instances[f"qq-d4-m2-{kind}"] = (lambda spec=spec: quadratic(4, 2, 42, spec), _uniform)
    instances["qq-d4-m2-g-buffer"] = (lambda: g_buffer(quadratic(4, 2, 42)), _uniform)
    instances["sq-d1000-m3"] = (lambda: separable(1000, 3, 1003), _uniform)
    instances["sq-d10000-m50"] = (lambda: separable(10_000, 50, 10_050), _uniform)
    instances["mnpc-3"] = (lambda: build_mnpc(three_classes(), 0.1, [0.2, 0.2]), _uniform)
    instances["nn-3"] = (lambda: build_nn_budget(three_classes(), 3, [0.1, 0.1]), _uniform)
    instances["cmdp-6x3"] = (lambda: cmdp(4, 6, 3, [0.55, 0.6]), _at(0.0))
    instances["cmdp-64x4"] = (lambda: cmdp(5, 64, 4, [0.5, 0.55]), _at(0.0))
    instances["cmdp-100x10"] = (lambda: cmdp(20240, 100, 10, [0.55] * 3), _at(0.0))
    return instances


def _cases() -> dict:
    """name -> (solver kind, problem builder, start builder, settings)."""
    instances = _instances()
    lam0 = {"lambda0": np.array([0.5, 0.25, 0.125])}  # the first m of them
    cmdp_settings = {"gdpa": {"beta0": 0.5, "alpha01": 50.0, **lam0},
                     "penalty": {"inner_step": 5.0}, "alm": {"inner_step": 5.0, **lam0}}
    cases = {f"{kind}/{name}": (kind, *instance,
                                cmdp_settings[kind] if name.startswith("cmdp") else {})
             for name, instance in instances.items() for kind in ("gdpa", "penalty", "alm")}
    # the other exits: a feasibility stop, a step cap within a round, a numerical failure,
    # and a run of one step
    scaled, halfspace, circle = (instances[aid][0] for aid in ANALYTIC_IDS)
    first_round = {"inner_iters": 30, "outer_iters": 5, "feas_tol": 1e-2}
    cases.update({
        "gdpa/feasibility-stop": ("gdpa", scaled, _at(0.3), {
            "tau": 0.1, "beta0": 1.0, "alpha01": 1.0, "max_iters": 400, "eps_feas": 1e-3,
            "eps_stat": 1e-1}),
        "penalty/feasibility-stop": ("penalty", circle, _at(0.3), first_round),
        "alm/feasibility-stop": ("alm", circle, _at(0.3), first_round),
        "penalty/step-cap": ("penalty", halfspace, _at(0.3), {"max_steps": 250}),
        "alm/step-cap": ("alm", halfspace, _at(0.3), {"max_steps": 250}),
        "gdpa/numerical-failure": ("gdpa", scaled, _at(0.0), {
            "tau": 0.1, "beta0": 1.0, "alpha01": 1e3, "max_iters": 400}),
        "penalty/numerical-failure": ("penalty", scaled, _at(0.3), {"inner_step": 300.0}),
        "alm/numerical-failure": ("alm", scaled, _at(0.3), {"inner_step": 300.0}),
        "gdpa/R=1": ("gdpa", scaled, _at(0.3), {"max_iters": 1}),
        "penalty/R=1": ("penalty", scaled, _at(0.3), {"max_steps": 1}),
        "alm/R=1": ("alm", scaled, _at(0.3), {"max_steps": 1}),
    })
    return cases


CASES = _cases()


def _sha256(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(f"{part.dtype.str}{part.shape}".encode() + part.tobytes())
        elif isinstance(part, float):
            h.update(part.hex().encode())
        else:
            h.update(repr(part).encode())
        h.update(b"|")
    return h.hexdigest()


def run_case(name: str, **overrides):
    """The result of case ``name``, with ``overrides`` on its solver settings."""
    kind, problem, start, settings = CASES[name]
    p, settings = problem(), {**settings, **overrides}
    x0, lambda0 = start(p), settings.pop("lambda0", None)
    if lambda0 is not None:
        lambda0 = lambda0[:p.num_constraints]
    if kind == "gdpa":
        return solve(p, GdpaConfig(**{**GDPA, **settings}), x0, lambda0)
    if kind == "penalty":
        return solve_penalty(p, PenaltyConfig(**{**BASELINE, **settings}), x0)
    return solve_alm(p, AlmConfig(**{**BASELINE, **settings}), x0, lambda0)


FIELDS = ("trace", "final", "averages", "termination", "T_eps", "iterations")


def digests(res) -> dict:
    """field -> sha256 of that part of the run's result, for each of ``FIELDS``."""
    parts = {"trace": [part for rec in res.trace for part in dataclasses.astuple(rec)],
             "final": [res.x_final, res.lambda_final], "averages": [res.x_avg, res.lambda_avg],
             "termination": [res.termination], "T_eps": [res.T_eps],
             "iterations": [res.iterations]}
    return {field: _sha256(parts[field]) for field in FIELDS}


def build() -> dict:
    """The numpy version and BLAS build that a run's bits may depend on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


def record() -> dict:
    return {**build(), "cases": {name: digests(run_case(name)) for name in CASES}}


def changes(old: dict, new: dict) -> list:
    """One line for each case and field whose digest moved from ``old``'s cases to
    ``new``'s (or "0 cases moved"), then one for each case new to the file."""
    moved = [f"moved: {name} {field}" for name, fields in sorted(new.items()) if name in old
             for field in FIELDS if fields[field] != old[name].get(field)]
    added = [f"new: {name}" for name in sorted(new) if name not in old]
    return (moved or ["0 cases moved"]) + added


if __name__ == "__main__":
    old = json.loads(GOLDEN.read_text())["cases"] if GOLDEN.exists() else {}
    golden = record()
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote the digests of {len(CASES)} cases to {GOLDEN}")
    print("\n".join(changes(old, golden["cases"])))
