"""Solution-quality measurements: merit value, stationarity, KKT residuals,
weighted averaging, and empirical convergence-rate fitting."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .problem import ConstrainedProblem
from .vec import (ProjectionSpec, _concatenate, _project_raw, as_vector, check_length,
                  require_finite)


class InsufficientDataError(ValueError):
    """Too few usable records to fit a rate."""


@dataclass(slots=True)
class IterationRecord:
    """One row of a solver trace, taken at the pre-update iterate of step r and
    built, complete, when the run that holds it flushes its rows."""

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


def _const(value: float) -> np.ndarray:
    """A read-only 0-d float64 array of ``value``, the form in which the hot loops
    pass the step kernels their scalars: numpy 2 (NEP 50) converts a Python-float
    operand on every ufunc call, which costs more on small arrays, for the same bits."""
    arr = np.array(value, dtype=np.float64)
    arr.flags.writeable = False
    return arr


_ZERO = _const(0.0)


def _shift_sum(base, g, beta):
    return base + beta * g


def _shifted(base, g, beta, total=None):  # [base + beta*g]_+; total: _shift_sum's, if made
    return np.maximum(_shift_sum(base, g, beta) if total is None else total, _ZERO)


def _sq_norms(a: np.ndarray):
    """Squared norm along the last axis, with ndarray.dot's bits: a float for a
    vector, and the K values of a (K, n) block's rows, where matmul on the
    stacked rows keeps dot's bits (einsum does not)."""
    if a.ndim == 1:
        return float(a.dot(a))
    return np.matmul(a[:, None, :], a[:, :, None])[:, 0, 0]


def _perturbed_value(f_val, arg: np.ndarray, damped: np.ndarray, beta):
    return f_val + 0.5 * beta * _violation_sq(arg) - _sq_norms(damped) / (2.0 * beta)


def _residual_step(x, lam, grad_fx, jac, alpha, projection: ProjectionSpec) -> np.ndarray:
    """The projected step of the stationarity residual, with project()'s two checks;
    the input one catches an Inf step a box clips to finite."""
    step = require_finite(x - alpha * (grad_fx + jac.T.dot(lam)), "v")
    proj = _project_raw(projection, step)  # step itself when inside X: checked already
    return proj if proj is step else require_finite(proj, "projection output")


def _stationarity(x, proj, lam, shifted, alpha, beta):
    # Stacked proximal-gradient residual of the plain (unperturbed)
    # Lagrangian: grad_x L = grad f + J^T lam, grad_lam L = g.
    stacked = _concatenate([(x - proj) / alpha, (lam - shifted) / beta], axis=-1)
    return stacked, _sq_norms(stacked)


def _violation_sq(gx: np.ndarray):
    return _sq_norms(np.maximum(gx, _ZERO))  # math.sqrt of this equals np.linalg.norm bit for bit


def _slackness(lam: np.ndarray, g: np.ndarray):
    return np.add.reduce(np.abs(lam * g), axis=-1)  # ndarray.sum without its Python wrapper


def kkt_residual(problem: ConstrainedProblem, x, lam, alpha: float = 1.0) -> KktResidual:
    """KKT residual triple at the pair (x, lam)."""
    if not 0 < alpha < math.inf:
        raise ValueError("alpha must be positive and finite")
    xv = check_length(as_vector(x, "x"), problem.dim, "x")
    lv = check_length(as_vector(lam, "lambda"), problem.num_constraints, "lambda")
    if np.minimum.reduce(lv, initial=0.0) < 0.0:  # would certify a maximizer as a KKT point
        raise ValueError("lambda must be componentwise nonnegative")
    gx = problem.g(xv)
    proj = _residual_step(xv, lv, problem.grad_f(xv), problem.jacobian(xv), alpha,
                          problem.projection)
    return KktResidual(
        stationarity=float(np.linalg.norm((xv - proj) / alpha)),
        feasibility=math.sqrt(_violation_sq(gx)),
        slackness=float(_slackness(lv, gx)),
    )


_BLOCK_STEPS = 64  # rows summed at once: at most this many steps,
_BLOCK_FLOATS = 16384  # and about this many floats (8 recorded d = 1000 steps), so one block
# stays small while a flush's fixed cost is shared by several steps
_ROW_SUM_SIZE = 256  # from this many entries on, a row add costs less than the block's accumulate


def _block_steps(floats_per_step: int) -> int:
    return max(1, min(_BLOCK_STEPS, _BLOCK_FLOATS // max(floats_per_step, 1)))


def _weighted_sum(acc: np.ndarray, rows: Sequence[np.ndarray], betas: Sequence[float]):
    """acc + rows[0]/betas[0] + rows[1]/betas[1] + ..., added left to right: the bits of
    rebinding ``acc = acc + row / beta`` once per row. Short rows add as one block down
    axis 0 by ``np.add.accumulate`` (``np.add.reduce`` would sum a (K, 1) block pairwise)."""
    if acc.size >= _ROW_SUM_SIZE:
        acc = acc + rows[0] / betas[0]
        for row, beta in zip(rows[1:], betas[1:]):
            np.add(acc, row / beta, out=acc)
        return acc
    block = np.empty((len(rows) + 1, acc.size))
    block[0] = acc
    np.divide(rows, np.array(betas)[:, None], out=block[1:])
    return np.add.accumulate(block)[-1]


def weighted_average(iterates: Sequence[np.ndarray], betas: Sequence[float]) -> np.ndarray:
    """(sum 1/beta_r)^-1 * sum x_r/beta_r over the trace, summed as ``solve()``
    sums its averages, so the two agree bit for bit."""
    if len(iterates) == 0:
        raise ValueError("weighted_average needs a nonempty trace")
    if len(iterates) != len(betas):
        raise ValueError("iterates and betas differ in length")
    size = as_vector(iterates[0], "iterate").size
    rows = [check_length(as_vector(xr, "iterate"), size, "iterate") for xr in iterates]
    wsum = 0.0
    for br in betas:
        if not 0 < br < math.inf:
            raise ValueError("betas must be positive and finite")
        wsum += 1.0 / br
    acc = np.zeros_like(rows[0])
    step = _block_steps(acc.size)
    with np.errstate(over="ignore", invalid="ignore"):  # as a run's: overflow reads inf or nan
        for k in range(0, len(rows), step):
            acc = _weighted_sum(acc, rows[k:k + step], betas[k:k + step])
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
    envelope value are used, and at least 10 such points, at 2 or more distinct
    ``r``, are required.
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
    if lx.min() == lx.max():  # no spread in r: any slope fits as well as any other
        raise InsufficientDataError(f"all {lx.size} envelope points share r = {rs[keep][0]:g}; "
                                    "need at least 2 distinct r")
    design = np.column_stack([lx, np.ones_like(lx)])
    (slope, intercept), res, _, _ = np.linalg.lstsq(design, ly, rcond=None)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    ss_res = float(res[0]) if res.size else float(np.sum((ly - design @ [slope, intercept]) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RateFit(slope=float(slope), intercept=float(intercept),
                   r_squared=r2, n_points=int(keep.sum()))


def make_record(run, x: np.ndarray, lam: np.ndarray, fx: Optional[float], gx: np.ndarray,
                grad_fx: np.ndarray, jac: np.ndarray, alpha: float, beta: float, gamma: float,
                viol_sq: float, proj: Optional[np.ndarray] = None) -> None:
    """Queue the trace row of ``run``'s step ``run.r`` at (x, lam), from evaluated
    callbacks and the values its step holds; ``fx`` is a fused oracle's f at x,
    checked here, or None for one f call; ``proj`` is the stop test's checked
    projected step of the residual, or None to make and check it here.

    Only the checks run here: f, then the projected step. The run's next flush
    builds the record (``_fill_rows``), so the arrays given here must stay
    unchanged until then (``gx`` is copied)."""
    problem = run.problem
    f_val = problem.f(x, fx)
    if proj is None:
        proj = _residual_step(x, lam, grad_fx, jac, alpha, problem.projection)
    run.rows.append(((run.r, alpha, beta, gamma, f_val, math.sqrt(viol_sq)), x, proj, lam,
                     gx.copy()))


def _fill_rows(rows: Sequence[tuple], one_minus_tau) -> List[IterationRecord]:
    """``make_record``'s rows as complete records, from their stacked arrays, under the
    flush's errstate: elementwise ops as on one row, and reductions with one row's bits."""
    heads, xs, projs, lams, gs = zip(*rows)
    lam, g = np.array(lams), np.array(gs)
    _, alpha, beta, _, f_val, _ = np.array(heads, dtype=np.float64).T
    beta_col = beta[:, None]
    damped = one_minus_tau * lam
    merit = _perturbed_value(f_val, g + damped / beta_col, damped, beta)
    _, stat = _stationarity(np.array(xs), np.array(projs), lam, _shifted(lam, g, beta_col),
                            alpha[:, None], beta_col)
    slack, norm = _slackness(lam, g), np.sqrt(_sq_norms(lam))
    return [IterationRecord(r, a, b, c, f, merit_k, stat_k, feas, slack_k, norm_k)
            for (r, a, b, c, f, feas), merit_k, stat_k, slack_k, norm_k
            in zip(heads, merit.tolist(), stat.tolist(), slack.tolist(), norm.tolist())]
