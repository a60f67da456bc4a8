"""Small analytic instances whose KKT pairs are known in closed form.

These are the desk-scale oracles the test suite and the acceptance gates
measure against. Each instance verifies its stored KKT pair at construction
time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..metrics import kkt_residual
from ..problem import ConstrainedProblem

_KKT_CONSTRUCTION_TOL = 1e-12
_CIRCLE_CENTER = np.array([0.5, 0.0])


@dataclass
class AnalyticInstance:
    id: str
    problem: ConstrainedProblem
    x_star: np.ndarray
    lambda_star: np.ndarray


# id -> (dim, f, grad f, g, J, x*, lam*) of one instance with one constraint
_INSTANCES = {
    # min x^2 s.t. 1 - x <= 0; stationarity 2x = lam, active constraint x = 1.
    "scaled-1d": (1, lambda x: float(x[0] * x[0]), lambda x: 2.0 * x,
                  lambda x: np.array([1.0 - x[0]]), lambda x: np.array([[-1.0]]), [1.0], [2.0]),
    # min ||x||^2 s.t. 1 - sum(x) <= 0; 2x = lam * 1, sum(x) = 1.
    "halfspace-quadratic": (2, lambda x: float(x @ x), lambda x: 2.0 * x,
                            lambda x: np.array([1.0 - x.sum()]),
                            lambda x: np.array([[-1.0, -1.0]]), [0.5, 0.5], [1.0]),
    # min ||x - c||^2 s.t. 1 - ||x||^2 <= 0 with c = (0.5, 0): the target sits
    # strictly inside the excluded disk, so the solution (1, 0) lies on the
    # (nonconvex) boundary with multiplier 0.5.
    "circle-exterior": (2, lambda x: float((x - _CIRCLE_CENTER) @ (x - _CIRCLE_CENTER)),
                        lambda x: 2.0 * (x - _CIRCLE_CENTER), lambda x: np.array([1.0 - x @ x]),
                        lambda x: (-2.0 * x).reshape(1, 2), [1.0, 0.0], [0.5]),
}
ANALYTIC_IDS = tuple(_INSTANCES)


def build_analytic(instance_id: str) -> AnalyticInstance:
    """Construct a bundled analytic instance and verify its stored KKT pair."""
    if instance_id not in _INSTANCES:
        raise ValueError(f"unknown analytic instance {instance_id!r}; "
                         f"choose one of {ANALYTIC_IDS}")
    dim, f, grad_f, g, jac, x_star, lambda_star = _INSTANCES[instance_id]
    problem = ConstrainedProblem(dim=dim, num_constraints=1, eval_f=f, eval_grad_f=grad_f,
                                 eval_g=g, eval_jacobian=jac, name=instance_id)
    inst = AnalyticInstance(instance_id, problem, np.array(x_star), np.array(lambda_star))
    res = kkt_residual(inst.problem, inst.x_star, inst.lambda_star)
    if res.max() > _KKT_CONSTRUCTION_TOL:
        raise AssertionError(
            f"stored KKT pair of {instance_id!r} fails verification: {res}")
    return inst
