"""Problem-definition contract, derivative verification, and constant estimation.

A :class:`ConstrainedProblem` bundles the callbacks for

    minimize f(x)  over x in X,  subject to g(x) <= 0 componentwise,

together with the projection describing X and (optionally) the smoothness /
boundedness constants the solver's validation checks consume. Callbacks are
expected to be deterministic and pure; the accessors here coerce their outputs
to float64, check shapes, and fail fast on NaN/Inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Sequence

import numpy as np

from .vec import (
    DimensionMismatchError,
    NonFiniteError,
    ProjectionSpec,
    as_vector,
    positive_part,
    project,
)


class UnsupportedProjectionError(NotImplementedError):
    """The requested operation is not implemented for this feasible-set kind."""


@dataclass
class ProblemConstants:
    """Smoothness / boundedness constants; ``None`` marks an unknown value.

    L_f: gradient-Lipschitz constant of f.
    L_g: function-Lipschitz constant of g; L_J: Jacobian-Lipschitz constant.
    U_J: bound on the Jacobian spectral norm.
    sigma: regularity constant relating violation to its Jacobian-weighted
    direction; may be ``math.inf`` when no sampled point was infeasible.
    """

    L_f: Optional[float] = None
    L_g: Optional[float] = None
    L_J: Optional[float] = None
    U_J: Optional[float] = None
    sigma: Optional[float] = None

    def __post_init__(self):
        for name in ("L_f", "L_g", "L_J", "U_J"):
            val = getattr(self, name)
            if val is not None and val < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.sigma is not None and not self.sigma > 0:
            raise ValueError("sigma must be strictly positive when supplied")


@dataclass
class ConstrainedProblem:
    """Callbacks plus metadata defining one constrained instance.

    ``eval_g`` / ``eval_jacobian`` may be omitted when ``num_constraints`` is
    zero. ``eval_jacobian`` returns the m-by-dim matrix of constraint
    gradients (row i is the gradient of g_i).
    """

    dim: int
    num_constraints: int
    eval_f: Callable[[np.ndarray], float]
    eval_grad_f: Callable[[np.ndarray], np.ndarray]
    eval_g: Optional[Callable[[np.ndarray], np.ndarray]] = None
    eval_jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None
    projection: ProjectionSpec = field(default_factory=ProjectionSpec.identity)
    constants: Optional[ProblemConstants] = None
    name: str = ""

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be positive")
        if self.num_constraints < 0:
            raise ValueError("num_constraints must be nonnegative")
        if self.num_constraints > 0 and (self.eval_g is None or self.eval_jacobian is None):
            raise ValueError("eval_g and eval_jacobian are required when num_constraints > 0")
        self.projection.check_dim(self.dim)

    # -- validated accessors -------------------------------------------------

    def f(self, x: np.ndarray) -> float:
        val = float(self.eval_f(x))
        if not math.isfinite(val):
            raise NonFiniteError(f"f(x) is not finite at x={x!r}")
        return val

    def grad_f(self, x: np.ndarray) -> np.ndarray:
        out = np.asarray(self.eval_grad_f(x), dtype=np.float64)
        if out.shape != (self.dim,):
            raise DimensionMismatchError(
                f"grad f must have shape ({self.dim},), got {out.shape}")
        if not np.isfinite(out).all():
            raise NonFiniteError(f"grad f(x) is not finite at x={x!r}")
        return out

    def g(self, x: np.ndarray) -> np.ndarray:
        if self.num_constraints == 0:
            return np.zeros(0)
        out = np.asarray(self.eval_g(x), dtype=np.float64)
        if out.shape != (self.num_constraints,):
            raise DimensionMismatchError(
                f"g must have shape ({self.num_constraints},), got {out.shape}")
        if not np.isfinite(out).all():
            raise NonFiniteError(f"g(x) is not finite at x={x!r}")
        return out

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        if self.num_constraints == 0:
            return np.zeros((0, self.dim))
        out = np.asarray(self.eval_jacobian(x), dtype=np.float64)
        if out.shape != (self.num_constraints, self.dim):
            raise DimensionMismatchError(
                f"jacobian must have shape ({self.num_constraints}, {self.dim}), got {out.shape}")
        if not np.isfinite(out).all():
            raise NonFiniteError(f"jacobian(x) is not finite at x={x!r}")
        return out


@dataclass
class GradientCheckReport:
    """Max relative errors of analytic derivatives against central differences."""

    grad_f_error: float
    jacobian_error: Optional[float]  # None when the problem has no constraints
    num_points: int
    step: float
    worst_point_grad: int = 0
    worst_point_jac: int = 0

    def passed(self, tol: float = 1e-5) -> bool:
        if self.grad_f_error > tol:
            return False
        return self.jacobian_error is None or self.jacobian_error <= tol


def _rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = max(1.0, float(np.linalg.norm(analytic)))
    return float(np.linalg.norm(analytic - numeric)) / denom


def check_gradients(
    problem: ConstrainedProblem,
    points: Sequence[np.ndarray],
    h: float = 1e-6,
) -> GradientCheckReport:
    """Compare analytic derivatives with central finite differences.

    Each point is projected into the feasible set first. The relative error
    uses ``max(1, ||analytic||)`` as denominator so values near critical
    points do not blow up.
    """
    if not h > 0:
        raise ValueError("h must be positive")
    if len(points) == 0:
        raise ValueError("need at least one check point")
    d, m = problem.dim, problem.num_constraints
    grad_err, jac_err = 0.0, 0.0
    worst_g, worst_j = 0, 0
    for k, p in enumerate(points):
        x = project(problem.projection, as_vector(p, f"point {k}"))
        try:
            analytic_grad = problem.grad_f(x)
            fd_grad = np.empty(d)
            for i in range(d):
                xp = x.copy(); xp[i] += h
                xm = x.copy(); xm[i] -= h
                fd_grad[i] = (problem.f(xp) - problem.f(xm)) / (2.0 * h)
            if m > 0:
                analytic_jac = problem.jacobian(x)
                fd_jac = np.empty((m, d))
                for i in range(d):
                    xp = x.copy(); xp[i] += h
                    xm = x.copy(); xm[i] -= h
                    fd_jac[:, i] = (problem.g(xp) - problem.g(xm)) / (2.0 * h)
        except NonFiniteError as exc:
            raise NonFiniteError(f"non-finite callback output at check point {k}: {exc}") from exc
        e = _rel_error(analytic_grad, fd_grad)
        if e > grad_err:
            grad_err, worst_g = e, k
        if m > 0:
            ej = _rel_error(analytic_jac.ravel(), fd_jac.ravel())
            if ej > jac_err:
                jac_err, worst_j = ej, k
    return GradientCheckReport(
        grad_f_error=grad_err,
        jacobian_error=jac_err if m > 0 else None,
        num_points=len(points),
        step=h,
        worst_point_grad=worst_g,
        worst_point_jac=worst_j,
    )


def _dist_to_negative_normal_cone(w: np.ndarray, spec: ProjectionSpec, x: np.ndarray) -> float:
    """dist(w, -N_X(x)) for X = R^d or a box."""
    if spec.kind == "identity":
        return float(np.linalg.norm(w))
    if spec.kind == "box":
        resid = w.copy()
        at_upper = x >= spec.upper
        at_lower = x <= spec.lower
        # Components pointing into the allowed cone at an active bound carry
        # no distance; zero them and measure what remains.
        resid[at_upper] = np.maximum(resid[at_upper], 0.0)
        resid[at_lower] = np.minimum(resid[at_lower], 0.0)
        return float(np.linalg.norm(resid))
    raise UnsupportedProjectionError(
        f"normal-cone distance is only implemented for identity and box sets, not {spec.kind!r}")


def estimate_sigma(problem: ConstrainedProblem, sample_points: Sequence[np.ndarray]) -> float:
    """Sampled lower estimate of the regularity constant.

    Returns ``min over infeasible samples of dist(J(x)^T g_+(x), -N_X(x)) /
    ||g_+(x)||``, or ``math.inf`` when no sample violates any constraint.
    This is a heuristic stand-in for a constant the theory assumes known;
    treat the value as indicative, not certified.
    """
    if problem.projection.kind not in ("identity", "box"):
        raise UnsupportedProjectionError(
            f"estimate_sigma supports identity and box feasible sets, not "
            f"{problem.projection.kind!r}")
    if problem.num_constraints == 0:
        return math.inf
    best = math.inf
    for k, p in enumerate(sample_points):
        x = project(problem.projection, as_vector(p, f"sample {k}"))
        gp = positive_part(problem.g(x))
        viol = float(np.linalg.norm(gp))
        if viol == 0.0:
            continue
        w = problem.jacobian(x).T @ gp
        ratio = _dist_to_negative_normal_cone(w, problem.projection, x) / viol
        best = min(best, ratio)
    return best


_SAFETY = 1.5


def effective_constants(
    problem: ConstrainedProblem,
    sample_budget: int,
    seed: int,
) -> ProblemConstants:
    """Fill missing :class:`ProblemConstants` fields by seeded sampling.

    Supplied values are returned verbatim. Estimates use difference quotients
    and sampled maxima over ``sample_budget`` random points projected into the
    feasible set, inflated by a safety factor of 1.5. The regularity constant
    is the one exception: the sampled minimum can only overestimate the true
    infimum, so it is deflated by the same factor instead. For feasible-set
    kinds without normal-cone support sigma is left unknown.
    """
    if sample_budget < 2:
        raise ValueError("sample_budget must be at least 2")
    rng = np.random.default_rng(seed)
    pts = [project(problem.projection, rng.standard_normal(problem.dim))
           for _ in range(sample_budget)]

    supplied = problem.constants or ProblemConstants()
    m = problem.num_constraints

    grads = [problem.grad_f(x) for x in pts]
    gs = [problem.g(x) for x in pts] if m else None
    jacs = [problem.jacobian(x) for x in pts] if m else None

    def pair_quotient(values, norm):
        best = 0.0
        for a in range(len(pts) - 1):
            gap = float(np.linalg.norm(pts[a + 1] - pts[a]))
            if gap < 1e-12:
                continue
            best = max(best, norm(values[a + 1] - values[a]) / gap)
        return best

    est = ProblemConstants()
    est.L_f = _SAFETY * pair_quotient(grads, np.linalg.norm)
    if m:
        est.L_g = _SAFETY * pair_quotient(gs, np.linalg.norm)
        est.L_J = _SAFETY * pair_quotient(jacs, lambda A: float(np.linalg.norm(A, 2)))
        est.U_J = _SAFETY * max(float(np.linalg.norm(J, 2)) for J in jacs)
        try:
            sig = estimate_sigma(problem, pts)
            est.sigma = sig if math.isinf(sig) else sig / _SAFETY
        except UnsupportedProjectionError:
            est.sigma = None
    else:
        est.L_g, est.L_J, est.U_J = 0.0, 0.0, 0.0
        est.sigma = math.inf

    merged = {}
    for name in ("L_f", "L_g", "L_J", "U_J", "sigma"):
        have = getattr(supplied, name)
        merged[name] = have if have is not None else getattr(est, name)
    return replace(supplied, **merged)


def seeded_check_points(problem: ConstrainedProblem, count: int, seed: int,
                        scale: float = 1.0) -> List[np.ndarray]:
    """Deterministic batch of points for gradient checks, projected into X."""
    rng = np.random.default_rng(seed)
    return [project(problem.projection, scale * rng.standard_normal(problem.dim))
            for _ in range(count)]
