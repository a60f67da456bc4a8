"""Solution-quality measurements: merit value, stationarity, KKT residuals,
weighted averaging, and empirical convergence-rate fitting."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .problem import ConstrainedProblem
from .vec import ProjectionSpec, _project_raw, as_vector, positive_part, require_finite


class InsufficientDataError(ValueError):
    """Too few usable records to fit a rate."""


@dataclass
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


def perturbed_lagrangian(problem: ConstrainedProblem, x, lam, beta: float, tau: float) -> float:
    """Merit value f(x) + (b/2)||[g(x) + (1-t)l/b]_+||^2 - ||(1-t)l||^2/(2b)."""
    xv = as_vector(x, "x")
    lv = as_vector(lam, "lambda")
    gx = problem.g(xv)
    return _perturbed_value(problem.f(xv), gx, lv, beta, tau)


def _perturbed_value(f_val: float, gx: np.ndarray, lam: np.ndarray,
                     beta: float, tau: float) -> float:
    damped = (1.0 - tau) * lam
    shifted = np.maximum(gx + damped / beta, 0.0)
    return f_val + 0.5 * beta * float(shifted @ shifted) \
        - float(damped @ damped) / (2.0 * beta)


def _stationarity_from_evals(
    x: np.ndarray,
    lam: np.ndarray,
    gx: np.ndarray,
    grad_fx: np.ndarray,
    jac: np.ndarray,
    alpha: float,
    beta: float,
    projection: ProjectionSpec,
) -> Tuple[np.ndarray, float]:
    # Stacked proximal-gradient residual of the plain (unperturbed)
    # Lagrangian: grad_x L = grad f + J^T lam, grad_lam L = g.
    # project()'s two checks; the input one catches an Inf step a box clips to finite
    step = require_finite(x - alpha * (grad_fx + jac.T @ lam), "v")
    primal = (x - require_finite(_project_raw(projection, step), "projection output")) / alpha
    dual = (lam - np.maximum(lam + beta * gx, 0.0)) / beta
    stacked = np.concatenate([primal, dual])
    return stacked, float(stacked @ stacked)


def _violation_sq(gx: np.ndarray) -> float:
    gp = np.maximum(gx, 0.0)
    return float(gp @ gp)  # math.sqrt of this equals np.linalg.norm(gp) bit for bit


def stationarity_measure(problem: ConstrainedProblem, x, lam,
                         alpha: float, beta: float) -> Tuple[np.ndarray, float]:
    """Stacked primal/dual proximal residual and its squared norm.

    Zero exactly at saddle/stationary points of the Lagrangian for any
    positive step scalings alpha, beta.
    """
    if not (alpha > 0 and beta > 0):
        raise ValueError("alpha and beta must be positive")
    xv = as_vector(x, "x")
    lv = as_vector(lam, "lambda")
    return _stationarity_from_evals(
        xv, lv, problem.g(xv), problem.grad_f(xv), problem.jacobian(xv),
        alpha, beta, problem.projection)


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
        feasibility=float(np.linalg.norm(positive_part(gx))),
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
    gx: np.ndarray,
    grad_fx: np.ndarray,
    jac: np.ndarray,
    r: int,
    alpha: float,
    beta: float,
    gamma: float,
    tau: float,
) -> IterationRecord:
    """Build a trace row from already-evaluated callbacks (one extra f eval)."""
    f_val = problem.f(x)
    _, stat_sq = _stationarity_from_evals(
        x, lam, gx, grad_fx, jac, alpha, beta, problem.projection)
    return IterationRecord(
        r=r, alpha=alpha, beta=beta, gamma=gamma,
        f_value=f_val,
        F_beta_value=_perturbed_value(f_val, gx, lam, beta, tau),
        stationarity_sq=stat_sq,
        feasibility=math.sqrt(_violation_sq(gx)),
        slackness=float(np.abs(lam * gx).sum()),
        lambda_norm=math.sqrt(float(lam @ lam)),
    )
