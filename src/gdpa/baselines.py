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
from typing import Optional

import numpy as np

from .metrics import _const, _shifted, _violation_sq, make_record
from .problem import ConstrainedProblem
from .solver import TERM_BUDGET, TERM_FEASIBILITY, SolveResult, _check_types, _primal_step_raw, _Run

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
        if not self.rho_growth > 1:
            raise ValueError("rho_growth must exceed 1")


@dataclass
class AlmConfig(PenaltyConfig):
    """Penalty settings plus the classical multiplier update lam <- [lam + rho*g]_+.

    The penalty parameter only grows when feasibility stalls (violation not
    reduced by at least the factor ``STALL_FACTOR`` over the previous outer round).
    """


def solve_penalty(problem: ConstrainedProblem, cfg: PenaltyConfig, x0) -> SolveResult:
    """Outer loop over growing penalties, inner projected-gradient descent on
    f(x) + (rho/2)||g_+(x)||^2. The trace carries a zero multiplier."""
    return _inner_outer(problem, cfg, x0, None, frozen=True)


def solve_alm(problem: ConstrainedProblem, cfg: AlmConfig, x0, lambda0=None) -> SolveResult:
    """Inexact augmented Lagrangian: inner projected-gradient minimization of
    f + (rho/2)||[g + lam/rho]_+||^2 - ||lam||^2/(2*rho), then the classical
    multiplier update."""
    return _inner_outer(problem, cfg, x0, lambda0, frozen=False)


def _inner_outer(problem: ConstrainedProblem, cfg: PenaltyConfig, x0, lambda0,
                 frozen: bool) -> SolveResult:
    """Inner/outer loop shared by both baselines. Each inner step is the GDPA
    primal step with tau=0 and beta=rho: projected gradient descent on the
    augmented Lagrangian. ``frozen`` keeps the multipliers at their start
    (zero for the penalty method) and grows rho after every outer round
    instead of only when feasibility stalls."""
    run = _Run(problem, cfg, x0, lambda0, 0.0)
    x, lam = run.start
    termination = TERM_BUDGET
    T_eps: Optional[int] = None
    add_step = run.pending.append
    rho = cfg.rho0
    prev_norm = np.inf
    inner_step = _const(cfg.inner_step)  # a 0-d operand, as solve()'s beta_r
    with run.guard():
        # as in solve(): one evaluation per point, whose g (and squared
        # violation) also serves the round end that reaches that point
        fx, gx, grad, jac = problem.first_order(x)
        viol = _violation_sq(gx)
        for _outer in range(cfg.outer_iters):
            rho_r = _const(rho)
            begun = run.r
            last = min(begun + cfg.inner_iters, cfg.max_steps)
            for step in run.steps(begun + 1, last):
                grad = problem.grad_f(x, grad)
                jac = problem.jacobian(x, jac)
                add_step((x, lam, rho))
                # a round's last step is recorded, as solve() records its last; the run's
                # tau=0 turns a row's merit value into the classic augmented Lagrangian
                # this method minimizes
                if run.recorded(step == last):
                    make_record(run, x, lam, fx, gx, grad, jac, cfg.inner_step, rho, 0.0, viol)
                x = _primal_step_raw(problem.projection, x, grad, jac, _shifted(lam, gx, rho_r),
                                     inner_step)
                fx, gx, grad, jac = problem.first_order(x)
                viol = _violation_sq(gx)
                if T_eps is None and math.sqrt(viol) <= cfg.feas_tol:  # as solve(): x after step
                    T_eps = step
            if last < begun + cfg.inner_iters:  # stopped at max_steps, within a round
                break
            if not frozen:
                lam = _shifted(lam, gx, rho_r)
            norm = math.sqrt(viol)
            if norm <= cfg.feas_tol:
                termination = TERM_FEASIBILITY
                break
            if frozen or norm > STALL_FACTOR * prev_norm:
                rho *= cfg.rho_growth
            prev_norm = norm
    return run.result(x, lam, termination, T_eps)
