"""Solution-quality measurements: merit value, stationarity, KKT residuals,
weighted averaging, and empirical convergence-rate fitting."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .problem import ConstrainedProblem
from .vec import ProjectionSpec, _project_raw, as_vector, require_finite


class InsufficientDataError(ValueError):
    """Too few usable records to fit a rate."""


@dataclass(slots=True)
class IterationRecord:
    """One row of a solver trace, taken at the pre-update iterate of step r."""

    r: int
    alpha: float
    beta: float
    gamma: float
    f_value: float
    F_beta_value: float
    stationarity_sq: float
    feasibility: float
    slackness: float
    lambda_norm: float


@dataclass
class KktResidual:
    """Stationarity / feasibility / complementary-slackness residual triple.

    ``stationarity`` is the primal proximal-gradient residual norm, a
    computable surrogate for the normal-cone distance; for an unconstrained
    feasible set it coincides with the Lagrangian gradient norm.
    """

    stationarity: float
    feasibility: float
    slackness: float

    def max(self) -> float:
        return max(self.stationarity, self.feasibility, self.slackness)


@dataclass
class RateFit:
    slope: float
    intercept: float
    r_squared: float
    n_points: int


def _shifted(base, g, beta):
    return np.maximum(base + beta * g, 0.0)


def _active_arg(g, lam, beta, tau):
    damped = (1.0 - tau) * lam
    return damped, g + damped / beta


def _perturbed_value(f_val: float, arg: np.ndarray, damped: np.ndarray, beta: float) -> float:
    return f_val + 0.5 * beta * _violation_sq(arg) - float(damped @ damped) / (2.0 * beta)


def _stationarity_from_evals(
    x: np.ndarray,
    lam: np.ndarray,
    gx: np.ndarray,
    grad_fx: np.ndarray,
    jac: np.ndarray,
    alpha: float,
    beta: float,
    projection: ProjectionSpec,
    shifted: Optional[np.ndarray] = None,  # [lam + beta*g]_+, when the caller holds it
) -> Tuple[np.ndarray, float]:
    # Stacked proximal-gradient residual of the plain (unperturbed)
    # Lagrangian: grad_x L = grad f + J^T lam, grad_lam L = g.
    # project()'s two checks; the input one catches an Inf step a box clips to finite
    step = require_finite(x - alpha * (grad_fx + jac.T @ lam), "v")
    proj = _project_raw(projection, step)  # step itself when inside X: checked already
    primal = (x - (proj if proj is step else require_finite(proj, "projection output"))) / alpha
    dual = (lam - (_shifted(lam, gx, beta) if shifted is None else shifted)) / beta
    stacked = np.concatenate([primal, dual])
    return stacked, float(stacked @ stacked)


def _violation_sq(gx: np.ndarray) -> float:
    gp = np.maximum(gx, 0.0)
    return float(gp @ gp)  # math.sqrt of this equals np.linalg.norm(gp) bit for bit


def kkt_residual(problem: ConstrainedProblem, x, lam, alpha: float = 1.0) -> KktResidual:
    """KKT residual triple at the pair (x, lam)."""
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    xv = as_vector(x, "x")
    lv = as_vector(lam, "lambda")
    gx = problem.g(xv)
    # the dual half of the stacked residual is discarded, so its scaling
    # (beta=1) does not matter
    stacked, _ = _stationarity_from_evals(
        xv, lv, gx, problem.grad_f(xv), problem.jacobian(xv), alpha, 1.0, problem.projection)
    return KktResidual(
        stationarity=float(np.linalg.norm(stacked[:xv.size])),
        feasibility=math.sqrt(_violation_sq(gx)),
        slackness=float(np.abs(lv * gx).sum()),
    )


def weighted_average(iterates: Sequence[np.ndarray], betas: Sequence[float]) -> np.ndarray:
    """(sum 1/beta_r)^-1 * sum x_r/beta_r over the trace."""
    if len(iterates) == 0:
        raise ValueError("weighted_average needs a nonempty trace")
    if len(iterates) != len(betas):
        raise ValueError("iterates and betas differ in length")
    wsum = 0.0
    acc = np.zeros_like(as_vector(iterates[0], "iterate"))
    for xr, br in zip(iterates, betas):
        if not br > 0:
            raise ValueError("betas must be positive")
        w = 1.0 / br
        wsum += w
        acc = acc + w * as_vector(xr, "iterate")
    return acc / wsum


_FIT_COLUMNS = ("stationarity_sq", "feasibility", "slackness")


def fit_rate(
    records: Sequence[IterationRecord],
    column: str,
    window: Tuple[float, float],
) -> RateFit:
    """Least-squares log-log line fit of the running-minimum envelope.

    Raw per-iteration metrics oscillate; the monotone envelope tracks the
    best-so-far behavior the convergence guarantees bound. Only records with
    ``window[0] <= r <= window[1]``, a positive ``r`` and a positive, finite
    envelope value are used, and at least 10 such points are required.
    """
    if column not in _FIT_COLUMNS:
        raise ValueError(f"column must be one of {_FIT_COLUMNS}, got {column!r}")
    lo, hi = window
    rs, vals = [], []
    for rec in records:
        if lo <= rec.r <= hi:
            rs.append(rec.r)
            vals.append(getattr(rec, column))
    if len(rs) < 10:
        raise InsufficientDataError(
            f"only {len(rs)} records in window [{lo}, {hi}]; need at least 10")
    env = np.minimum.accumulate(np.asarray(vals, dtype=float))
    rs = np.asarray(rs, dtype=float)
    keep = (env > 0.0) & np.isfinite(env) & (rs > 0.0)
    if int(keep.sum()) < 10:
        raise InsufficientDataError(
            f"only {int(keep.sum())} positive finite envelope points in window; need at least 10")
    lx = np.log(rs[keep])
    ly = np.log(env[keep])
    design = np.column_stack([lx, np.ones_like(lx)])
    (slope, intercept), res, _, _ = np.linalg.lstsq(design, ly, rcond=None)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    ss_res = float(res[0]) if res.size else float(np.sum((ly - design @ [slope, intercept]) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RateFit(slope=float(slope), intercept=float(intercept),
                   r_squared=r2, n_points=int(keep.sum()))


def make_record(
    problem: ConstrainedProblem,
    x: np.ndarray,
    lam: np.ndarray,
    fx: Optional[float],
    gx: np.ndarray,
    grad_fx: np.ndarray,
    jac: np.ndarray,
    r: int,
    alpha: float,
    beta: float,
    gamma: float,
    tau: float,
    viol_sq: Optional[float] = None,
    stat_sq: Optional[float] = None,
    active: Optional[Tuple[np.ndarray, np.ndarray]] = None,  # _active_arg's (damped, arg)
    shifted: Optional[np.ndarray] = None,  # [lam + beta*g]_+
) -> IterationRecord:
    """Build a trace row from evaluated callbacks and, when given, the values its step
    holds; ``fx`` is a fused oracle's f at x, checked here, or None for one f call."""
    f_val = problem.f(x, fx)
    if stat_sq is None:
        _, stat_sq = _stationarity_from_evals(
            x, lam, gx, grad_fx, jac, alpha, beta, problem.projection, shifted)
    damped, arg = _active_arg(gx, lam, beta, tau) if active is None else active
    return IterationRecord(
        r=r, alpha=alpha, beta=beta, gamma=gamma,
        f_value=f_val,
        F_beta_value=_perturbed_value(f_val, arg, damped, beta),
        stationarity_sq=stat_sq,
        feasibility=math.sqrt(_violation_sq(gx) if viol_sq is None else viol_sq),
        slackness=float(np.add.reduce(np.abs(lam * gx))),
        lambda_norm=math.sqrt(float(lam @ lam)),
    )
