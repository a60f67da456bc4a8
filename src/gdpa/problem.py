"""Problem-definition contract, derivative verification, and constant estimation.

A :class:`ConstrainedProblem` bundles the callbacks for

    minimize f(x)  over x in X,  subject to g(x) <= 0 componentwise,

together with the projection describing X. Callbacks are expected to be
deterministic and pure; the accessors here coerce their outputs to float64,
check shapes, and fail fast on NaN/Inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .vec import (
    _F64,
    DimensionMismatchError,
    NonFiniteError,
    ProjectionSpec,
    _float64,
    all_finite,
    as_vector,
    check_integer,
    positive_part,
    project,
)


@dataclass
class ProblemConstants:
    """Smoothness / boundedness constants, each a nonnegative float (inf allowed).

    L_f: gradient-Lipschitz constant of f.
    L_g: function-Lipschitz constant of g; L_J: Jacobian-Lipschitz constant.
    U_J: bound on the Jacobian spectral norm.
    sigma: regularity constant relating violation to its Jacobian-weighted
    direction; ``math.inf`` when no sampled point was infeasible, ``None`` when unknown.
    """

    L_f: float
    L_g: float
    L_J: float
    U_J: float
    sigma: Optional[float] = None

    def __post_init__(self):
        for name in (f.name for f in fields(self)):
            val = getattr(self, name)
            if val is None and name == "sigma":  # the one constant that may be unknown
                continue
            if val is None or not val >= 0:  # `not val >= 0` refuses a NaN
                raise ValueError(f"{name} must be a nonnegative number, got {val!r}")
            setattr(self, name, float(val))  # kept as a Python float


@dataclass
class ConstrainedProblem:
    """Callbacks plus metadata defining one constrained instance.

    ``eval_g`` / ``eval_jacobian`` may be omitted when ``num_constraints`` is
    zero. ``eval_jacobian`` returns the m-by-dim matrix of constraint
    gradients (row i is the gradient of g_i). The optional
    ``eval_first_order`` returns (f, g, grad f, J), equal to the four separate
    callbacks; when set, the solvers call it in their place once per step.
    """

    dim: int
    num_constraints: int
    eval_f: Callable[[np.ndarray], float]
    eval_grad_f: Callable[[np.ndarray], np.ndarray]
    eval_g: Optional[Callable[[np.ndarray], np.ndarray]] = None
    eval_jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None
    projection: ProjectionSpec = field(default_factory=ProjectionSpec.identity)
    name: str = ""
    eval_first_order: Optional[Callable[[np.ndarray], tuple]] = None

    def __post_init__(self):
        self.dim = check_integer(self.dim, "dim", 1)
        self.num_constraints = check_integer(self.num_constraints, "num_constraints", 0)
        if self.num_constraints > 0 and (self.eval_g is None or self.eval_jacobian is None):
            raise ValueError("eval_g and eval_jacobian are required when num_constraints > 0")
        self.projection.check_dim(self.dim)

    # -- validated accessors -------------------------------------------------
    # ``value``: eval_first_order's output at x, checked in place of a new call

    def f(self, x: np.ndarray, value=None) -> float:
        val = self.eval_f(x) if value is None else value
        if not isinstance(val, float):  # Python and numpy floats; anything else as a g entry
            val = self._checked(x, val, (), "f")
        val = float(val)
        if not math.isfinite(val):
            raise NonFiniteError(f"f(x) is not finite at x={x!r}")
        return val

    def grad_f(self, x: np.ndarray, value=None) -> np.ndarray:
        return self._checked(x, self.eval_grad_f(x) if value is None else value,
                             (self.dim,), "grad f")

    def g(self, x: np.ndarray, value=None) -> np.ndarray:
        if self.num_constraints == 0:
            return np.zeros(0)
        return self._checked(x, self.eval_g(x) if value is None else value,
                             (self.num_constraints,), "g")

    def jacobian(self, x: np.ndarray, value=None) -> np.ndarray:
        if self.num_constraints == 0:
            return np.zeros((0, self.dim))
        return self._checked(x, self.eval_jacobian(x) if value is None else value,
                             (self.num_constraints, self.dim), "jacobian")

    @staticmethod
    def _checked(x: np.ndarray, out, shape: Tuple[int, ...], what: str) -> np.ndarray:
        """``out`` as float64 (bools as 0 and 1), checked for its kind, its shape, then for
        finiteness; TypeError for text, bytes, objects, voids, dates, masked arrays, complex."""
        if not (type(out) is np.ndarray and out.dtype is _F64):
            arr = np.asarray(out)
            if isinstance(out, np.ma.MaskedArray) or arr.dtype.kind not in "biufc":
                raise TypeError(f"{what} must hold real numbers, got a {type(out).__name__} "
                                f"of dtype {arr.dtype}")
            out = _float64(arr, what)
        if out.shape != shape:
            raise DimensionMismatchError(f"{what} must have shape {shape}, got {out.shape}")
        if not all_finite(out):
            raise NonFiniteError(f"{what}(x) is not finite at x={x!r}")
        return out

    def first_order(self, x: np.ndarray):
        """f, checked g(x), grad f and J from one eval_first_order call (f, grad
        f and J unchecked, or None without one), for the caller to check as ``value``."""
        if not self.eval_first_order:
            return None, self.g(x), None, None
        out = self.eval_first_order(x)
        try:
            f, g, grad, jac = out
        except (TypeError, ValueError) as exc:  # not 4 values: say whose output it was
            raise TypeError(f"eval_first_order must return (f, g, grad f, J): {exc}") from None
        return f, self.g(x, g), grad, jac


@dataclass
class GradientCheckReport:
    """Max relative errors of analytic derivatives against central differences,
    and of the fused oracle's (f, g, grad f, J) against the separate callbacks."""

    grad_f_error: float
    jacobian_error: Optional[float]  # None when the problem has no constraints
    worst_point_grad: int = 0
    worst_point_jac: int = 0
    first_order_error: Optional[float] = None  # None without eval_first_order

    def passed(self, tol: float = 1e-5) -> bool:
        errors = (self.grad_f_error, self.jacobian_error, self.first_order_error)
        return all(e is None or e <= tol for e in errors)


def _rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = max(1.0, float(np.linalg.norm(analytic)))
    return float(np.linalg.norm(analytic - numeric)) / denom


def check_gradients(
    problem: ConstrainedProblem,
    points: Sequence[np.ndarray],
    h: float = 1e-6,
) -> GradientCheckReport:
    """Compare analytic derivatives with central finite differences, and a
    fused oracle with the separate callbacks.

    Each point is projected into the feasible set first. The relative error
    uses ``max(1, ||analytic||)`` as denominator so values near critical
    points do not blow up.
    """
    if not 0 < h < math.inf:
        raise ValueError("h must be positive and finite")
    if len(points) == 0:
        raise ValueError("need at least one check point")
    d, m = problem.dim, problem.num_constraints
    fused = problem.eval_first_order
    grad_err, jac_err, fused_err = 0.0, 0.0, 0.0
    worst_g, worst_j = 0, 0
    for k, p in enumerate(points):
        x = project(problem.projection, as_vector(p, f"point {k}"))
        try:
            analytic_grad = problem.grad_f(x)
            fd_grad, fd_jac = np.empty(d), np.empty((m, d))
            for i in range(d):
                xp = x.copy(); xp[i] += h
                xm = x.copy(); xm[i] -= h
                fd_grad[i] = (problem.f(xp) - problem.f(xm)) / (2.0 * h)
                fd_jac[:, i] = (problem.g(xp) - problem.g(xm)) / (2.0 * h)
            analytic_jac = problem.jacobian(x)
            if fused is not None:
                f1, g1, grad1, jac1 = problem.first_order(x)
                fused_err = max(fused_err, _rel_error(problem.f(x), problem.f(x, f1)),
                                _rel_error(problem.g(x), problem.g(x, g1)),
                                _rel_error(analytic_grad, problem.grad_f(x, grad1)),
                                _rel_error(analytic_jac, problem.jacobian(x, jac1)))
        except NonFiniteError as exc:
            raise NonFiniteError(f"non-finite callback output at check point {k}: {exc}") from exc
        e = _rel_error(analytic_grad, fd_grad)
        if e > grad_err:
            grad_err, worst_g = e, k
        ej = _rel_error(analytic_jac.ravel(), fd_jac.ravel())
        if ej > jac_err:
            jac_err, worst_j = ej, k
    return GradientCheckReport(
        grad_f_error=grad_err,
        jacobian_error=jac_err if m > 0 else None,
        worst_point_grad=worst_g,
        worst_point_jac=worst_j,
        first_order_error=None if fused is None else fused_err,
    )


def _dist_to_negative_normal_cone(w: np.ndarray, spec: ProjectionSpec, x: np.ndarray) -> float:
    """dist(w, -N_X(x)) for X = R^d or a box, the sets ``estimate_sigma`` accepts."""
    if spec.kind == "identity":
        return float(np.linalg.norm(w))
    resid = w.copy()
    at_upper, at_lower = x >= spec.upper, x <= spec.lower
    # at an active bound, components pointing into the allowed cone carry no distance
    resid[at_upper] = np.maximum(resid[at_upper], 0.0)
    resid[at_lower] = np.minimum(resid[at_lower], 0.0)
    return float(np.linalg.norm(resid))


def estimate_sigma(problem: ConstrainedProblem,
                   sample_points: Sequence[np.ndarray]) -> Optional[float]:
    """Sampled lower estimate of the regularity constant.

    Returns ``min over infeasible samples of dist(J(x)^T g_+(x), -N_X(x)) /
    ||g_+(x)||``, ``math.inf`` when no sample violates a constraint (always when
    m = 0), or ``None`` (unknown) on a ball, orthant or simplex. A heuristic stand-in
    for a constant the theory assumes known; treat the value as indicative, not certified.
    """
    if problem.num_constraints == 0:
        return math.inf
    if problem.projection.kind not in ("identity", "box"):
        return None
    best = math.inf
    for k, p in enumerate(sample_points):
        x = project(problem.projection, as_vector(p, f"sample {k}"))
        gp = positive_part(problem.g(x))
        top = float(gp.max())
        if top == 0.0:
            continue
        gp = gp / top  # the ratio is homogeneous in g+; at unit scale g+ alone overflows nothing
        viol = float(np.linalg.norm(gp))
        w = problem.jacobian(x).T @ gp
        ratio = _dist_to_negative_normal_cone(w, problem.projection, x) / viol
        best = min(best, ratio)
    return best


_SAFETY = 1.5
_SAMPLES = 8  # seeded points that effective_constants samples


def effective_constants(problem: ConstrainedProblem, seed: int) -> ProblemConstants:
    """Estimate the :class:`ProblemConstants` fields by seeded sampling.

    Estimates use difference quotients and sampled maxima over 8 random points
    projected into the feasible set, inflated by a safety factor of 1.5. The
    regularity constant is the one exception: the sampled minimum can only
    overestimate the true infimum, so it is deflated by the same factor
    instead, and left unknown where ``estimate_sigma`` gives ``None``.
    """
    pts = seeded_check_points(problem, _SAMPLES, seed)
    grads = [problem.grad_f(x) for x in pts]

    def pair_quotient(values, norm):
        best = 0.0
        for a in range(len(pts) - 1):
            gap = float(np.linalg.norm(pts[a + 1] - pts[a]))
            if gap < 1e-12:
                continue
            best = max(best, norm(values[a + 1] - values[a]) / gap)
        return _SAFETY * best

    def spectral(A):  # inf where an overflowing difference reads NaN; numpy 1.x raises at m = 0
        return (float(np.linalg.norm(A, 2)) if A.size else 0.0) if all_finite(A) else math.inf

    gs = [problem.g(x) for x in pts]
    jacs = [problem.jacobian(x) for x in pts]
    sigma = estimate_sigma(problem, pts)
    return ProblemConstants(
        L_f=pair_quotient(grads, np.linalg.norm), L_g=pair_quotient(gs, np.linalg.norm),
        L_J=pair_quotient(jacs, spectral), U_J=_SAFETY * max(spectral(J) for J in jacs),
        sigma=None if sigma is None else sigma / _SAFETY)  # inf / 1.5 stays inf


def seeded_check_points(problem: ConstrainedProblem, count: int, seed: int) -> List[np.ndarray]:
    """Deterministic batch of standard normal points for gradient checks, projected into X."""
    rng = np.random.default_rng(seed)
    return [project(problem.projection, rng.standard_normal(problem.dim)) for _ in range(count)]
