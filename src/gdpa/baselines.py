"""Simplified comparison solvers: quadratic penalty and inexact augmented
Lagrangian.

Both are deliberately plain (fixed inner iteration counts, constant inner
step, no acceleration): the point is interface-comparable convergence traces
over the same problem contract, not faithful reproductions of the published
competitor codebases. Traces reuse the same record schema as the primary
solver, with ``r`` counting cumulative inner steps; the last inner step of each
outer round is always recorded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .metrics import IterationRecord, _shifted, _violation_sq, make_record
from .problem import ConstrainedProblem
from .solver import (
    TERM_BUDGET,
    TERM_FEASIBILITY,
    TERM_NUMERICAL,
    NumericalFailure,
    SolveResult,
    _averages,
    _check_types,
    _initial_multiplier,
    _primal_step_raw,
)
from .vec import NonFiniteError, as_vector, project

STALL_FACTOR = 0.9  # see AlmConfig


@dataclass
class PenaltyConfig:
    rho0: float = 1.0
    rho_growth: float = 10.0
    inner_iters: int = 200
    inner_step: float = 1e-3
    outer_iters: int = 5
    feas_tol: float = 1e-6
    record_every: int = 10
    dense_until: int = 1000
    max_steps: int = 2 ** 62  # inner steps over all rounds; reaching it ends a round early

    def __post_init__(self):
        _check_types(self)
        if not (self.rho0 > 0 and self.inner_step > 0 and self.feas_tol > 0):
            raise ValueError("rho0, inner_step, and feas_tol must be positive")
        if not self.rho_growth > 1:
            raise ValueError("rho_growth must exceed 1")
        if min(self.inner_iters, self.outer_iters, self.record_every, self.max_steps) < 1:
            raise ValueError("iteration counts must be positive")


@dataclass
class AlmConfig(PenaltyConfig):
    """Penalty settings plus the classical multiplier update lam <- [lam + rho*g]_+.

    The penalty parameter only grows when feasibility stalls (violation not
    reduced by at least the factor ``STALL_FACTOR`` over the previous outer round).
    """


def solve_penalty(problem: ConstrainedProblem, cfg: PenaltyConfig, x0) -> SolveResult:
    """Outer loop over growing penalties, inner projected-gradient descent on
    f(x) + (rho/2)||g_+(x)||^2. The trace carries a zero multiplier."""
    return _inner_outer(problem, cfg, x0, np.zeros(problem.num_constraints), frozen=True)


def solve_alm(problem: ConstrainedProblem, cfg: AlmConfig, x0, lambda0=None) -> SolveResult:
    """Inexact augmented Lagrangian: inner projected-gradient minimization of
    f + (rho/2)||[g + lam/rho]_+||^2 - ||lam||^2/(2*rho), then the classical
    multiplier update."""
    lam = _initial_multiplier(lambda0, problem.num_constraints)
    return _inner_outer(problem, cfg, x0, lam, frozen=False)


def _inner_outer(problem: ConstrainedProblem, cfg: PenaltyConfig, x0, lam: np.ndarray,
                 frozen: bool) -> SolveResult:
    """Inner/outer loop shared by both baselines. Each inner step is the GDPA
    primal step with tau=0 and beta=rho: projected gradient descent on the
    augmented Lagrangian. ``frozen`` keeps the multipliers at their start
    (zero for the penalty method) and grows rho after every outer round
    instead of only when feasibility stalls."""
    x = project(problem.projection, as_vector(x0, "x0"))
    trace: List[IterationRecord] = []
    termination = TERM_BUDGET
    failure = ""
    T_eps: Optional[int] = None
    step = 0
    weight_sum = 0.0
    x_accum = np.zeros_like(x)
    lam_accum = np.zeros_like(lam)
    rho = cfg.rho0
    prev_norm = np.inf
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            # as in solve(): one evaluation per point, whose g (and squared
            # violation) also serves the round end that reaches that point
            fx, gx, grad, jac = problem.first_order(x)
            viol = _violation_sq(gx)
            for _outer in range(cfg.outer_iters):
                last = min(cfg.inner_iters, cfg.max_steps - step)
                for inner in range(1, last + 1):
                    step += 1
                    grad = problem.grad_f(x, grad)
                    jac = problem.jacobian(x, jac)
                    weight_sum += 1.0 / rho
                    x_accum += x / rho
                    lam_accum += lam / rho
                    shifted = _shifted(lam, gx, rho)  # also the row's stationarity dual half
                    # a round's last step is recorded, as solve() records its last
                    if step % cfg.record_every == 0 or step <= cfg.dense_until or inner == last:
                        # tau=0 turns the merit value into the classic
                        # augmented Lagrangian this method actually minimizes.
                        trace.append(make_record(problem, x, lam, fx, gx, grad, jac, step,
                                                 cfg.inner_step, rho, 0.0, 0.0, viol,
                                                 shifted=shifted))
                    if T_eps is None and math.sqrt(viol) <= cfg.feas_tol:
                        T_eps = step
                    x = _primal_step_raw(problem.projection, x, grad, jac, shifted,
                                         cfg.inner_step, step)
                    fx, gx, grad, jac = problem.first_order(x)
                    viol = _violation_sq(gx)
                if last < cfg.inner_iters:  # stopped at max_steps, within a round
                    break
                if not frozen:
                    lam = _shifted(lam, gx, rho)
                norm = math.sqrt(viol)
                if norm <= cfg.feas_tol:
                    termination = TERM_FEASIBILITY
                    if T_eps is None:
                        T_eps = step
                    break
                if frozen or norm > STALL_FACTOR * prev_norm:
                    rho *= cfg.rho_growth
                prev_norm = norm
    except (NumericalFailure, NonFiniteError) as exc:
        termination = TERM_NUMERICAL
        failure = str(exc)
    return SolveResult(x, lam, *_averages(weight_sum, x_accum, lam_accum, x, lam), termination,
                       T_eps, trace, None, failure, step)
