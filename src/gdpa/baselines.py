"""Simplified comparison solvers: quadratic penalty and inexact augmented
Lagrangian.

Both are deliberately plain (fixed inner iteration counts, constant inner
step, no acceleration): the point is interface-comparable convergence traces
over the same problem contract, not faithful reproductions of the published
competitor codebases. Traces reuse the same record schema as the primary
solver, with ``r`` counting cumulative inner steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .metrics import IterationRecord, _violation_sq, make_record
from .problem import ConstrainedProblem
from .solver import (
    TERM_BUDGET,
    TERM_FEASIBILITY,
    TERM_NUMERICAL,
    NumericalFailure,
    SolveResult,
    _check_integers,
    _initial_multiplier,
    _primal_step_raw,
)
from .vec import NonFiniteError, as_vector, project


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

    def __post_init__(self):
        if not (self.rho0 > 0 and self.inner_step > 0 and self.feas_tol > 0):
            raise ValueError("rho0, inner_step, and feas_tol must be positive")
        if not self.rho_growth > 1:
            raise ValueError("rho_growth must exceed 1")
        _check_integers(self, ("inner_iters", "outer_iters", "record_every", "dense_until"))
        if self.inner_iters < 1 or self.outer_iters < 1 or self.record_every < 1:
            raise ValueError("iteration counts must be positive")


@dataclass
class AlmConfig(PenaltyConfig):
    """Penalty settings plus the classical multiplier update lam <- [lam + rho*g]_+.

    The penalty parameter only grows when feasibility stalls (violation not
    reduced by at least a factor of 0.9 over the previous outer round).
    """

    stall_factor: float = 0.9


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
    prev_viol = np.inf
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for _outer in range(cfg.outer_iters):
                for _ in range(cfg.inner_iters):
                    step += 1
                    gx = problem.g(x)
                    grad = problem.grad_f(x)
                    jac = problem.jacobian(x)
                    weight_sum += 1.0 / rho
                    x_accum += x / rho
                    lam_accum += lam / rho
                    if step % cfg.record_every == 0 or step <= cfg.dense_until:
                        # tau=0 turns the merit value into the classic
                        # augmented Lagrangian this method actually minimizes.
                        trace.append(make_record(problem, x, lam, gx, grad, jac,
                                                 step, cfg.inner_step, rho, 0.0, 0.0))
                    if T_eps is None and math.sqrt(_violation_sq(gx)) <= cfg.feas_tol:
                        T_eps = step
                    x = _primal_step_raw(problem.projection, x, lam, grad, jac, gx,
                                         cfg.inner_step, rho, step)
                gx = problem.g(x)
                if not frozen:
                    lam = np.maximum(lam + rho * gx, 0.0)
                viol = math.sqrt(_violation_sq(gx))
                if viol <= cfg.feas_tol:
                    termination = TERM_FEASIBILITY
                    if T_eps is None:
                        T_eps = step
                    break
                if frozen or viol > cfg.stall_factor * prev_viol:
                    rho *= cfg.rho_growth
                prev_viol = viol
    except (NumericalFailure, NonFiniteError) as exc:
        termination = TERM_NUMERICAL
        failure = str(exc)
    if weight_sum > 0:
        x_avg = x_accum / weight_sum
        lam_avg = lam_accum / weight_sum
    else:
        x_avg, lam_avg = x.copy(), lam.copy()
    return SolveResult(x, lam, x_avg, lam_avg, termination, T_eps, trace, None, failure)
