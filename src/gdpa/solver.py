"""Single-loop primal-dual solver with perturbed dual ascent.

Each iteration performs one projected-gradient step on the merit function in
the primal variable and one damped, perturbation-regularized ascent step in
the dual variable, restricted to an active set of constraints. The dual step
size grows like r^(1/3) while the primal step size and the perturbation decay
like r^(-1/3); their product with the dual step size is pinned to the damping
constant tau. Cost per iteration: one objective-gradient, one Jacobian, and
one fresh constraint evaluation (the constraint value at the new point is
reused by the following iteration), or one fused ``eval_first_order`` call,
whose f also serves the trace row.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from .metrics import (IterationRecord, _active_arg, _shifted, _stationarity_from_evals,
                      _violation_sq, make_record)
from .problem import ConstrainedProblem, ProblemConstants
from .vec import NonFiniteError, _project_raw, all_finite, as_vector, project

TERM_FEASIBILITY = "feasibility-stop"
TERM_BUDGET = "budget-exhausted"
TERM_NUMERICAL = "numerical-failure"


class NumericalFailure(RuntimeError):
    """A solver step produced non-finite values; the message names the iteration."""


@dataclass
class GdpaConfig:
    """Hyperparameters of the solver.

    tau: dual damping constant in (0, 1); couples the dual step size and the
        perturbation weight through gamma_r * beta_r = tau.
    beta0: scale of the growing dual step size beta_r = beta0 * r^(1/3).
    alpha01/02/03: primal step schedule alpha_r = a01 / (a02 + a03 * r^(1/3)).
    eps_feas: threshold on the squared positive violation defining the
        feasibility stopping time.
    eps_stat: stationarity-norm threshold that must additionally hold before
        the solver declares success.
    record_every: trace-row modulus; iterations up to ``dense_until`` are
        always recorded to keep the early transient visible.
    """

    tau: float = 0.1
    beta0: float = 1.0
    alpha01: float = 1.0
    alpha02: float = 1.0
    alpha03: float = 1.0
    max_iters: int = 100_000
    eps_feas: float = 1e-6
    eps_stat: float = 1e-4
    record_every: int = 10
    dense_until: int = 1000

    def __post_init__(self):
        _check_types(self)
        if not 0.0 < self.tau < 1.0:
            raise ValueError("tau must lie strictly between 0 and 1")
        for name in ("beta0", "alpha01", "alpha02", "alpha03", "eps_feas", "eps_stat"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if not 1 <= self.max_iters <= 2 ** 62 or self.record_every < 1:
            raise ValueError("max_iters must lie in [1, 2**62] and record_every be positive")
        if self.dense_until < 0:
            raise ValueError("dense_until must be nonnegative")
        # alpha_r decreases in r; the residuals need it positive to the end
        if not schedule(self, self.max_iters)[0] > 0:
            raise ValueError("alpha_r underflows to 0 before r reaches max_iters")

    def validate(self) -> List[str]:
        """Non-fatal sanity warnings (empty list when everything looks fine)."""
        notes = []
        if not self.alpha01 < self.alpha02:
            notes.append(
                f"alpha01={self.alpha01} >= alpha02={self.alpha02}; the recommended "
                "relation alpha01 < alpha02 is not satisfied (not enforced)")
        return notes


def _check_types(cfg) -> None:
    """Every field of a config dataclass holds an integer where its default is
    an int and a real number within the float range elsewhere; never a bool."""
    for name, field in cfg.__dataclass_fields__.items():
        val = getattr(cfg, name)
        integral = type(field.default) is int
        if isinstance(val, bool) or not isinstance(
                val, (int, np.integer) if integral else (int, float, np.integer, np.floating)):
            raise ValueError(f"{name} must be {'an integer' if integral else 'a number'}, "
                             f"got {val!r}")
        if not integral and isinstance(val, int) and abs(val) > sys.float_info.max:
            raise ValueError(f"{name} is beyond the float range, got {val!r}")


@dataclass
class ValidationReport:
    ok: bool
    bound: float
    message: str


@dataclass
class SolveResult:
    x_final: np.ndarray
    lambda_final: np.ndarray
    x_avg: np.ndarray
    lambda_avg: np.ndarray
    termination: str
    T_eps: Optional[int]
    trace: List[IterationRecord]
    iterates: Optional[List[Tuple[np.ndarray, np.ndarray]]] = None
    failure_message: str = ""
    iterations: int = 0  # steps begun; each evaluates grad f and the Jacobian once


def schedule(cfg: GdpaConfig, r: int) -> Tuple[float, float, float]:
    """Step sizes (alpha_r, beta_r, gamma_r) at iteration r >= 1.

    beta is nondecreasing, alpha and gamma nonincreasing, and
    gamma_r == cfg.tau / beta_r by construction.
    """
    if r < 1:
        raise ValueError("iteration index starts at 1")
    cube = r ** (1.0 / 3.0)
    beta = cfg.beta0 * cube
    gamma = cfg.tau / beta
    alpha = cfg.alpha01 / (cfg.alpha02 + cfg.alpha03 * cube)
    return alpha, beta, gamma


def active_set(g_x: np.ndarray, lam: np.ndarray, beta_r: float, tau: float) -> np.ndarray:
    """Boolean mask of constraints with g_i(x) + (1-tau)*lam_i/beta > 0.

    The inequality is strict, so a constraint sitting exactly on the boundary
    with a zero multiplier stays inactive.
    """
    return _active_arg(g_x, lam, beta_r, tau)[1] > 0.0


# Raw steps take the step's [damped + beta*g]_+ or damped = (1-tau)*lam (lam when tau=0).
def _primal_step_raw(projection, x, grad_fx, jac, shifted, alpha_r, r=None):
    x_next = _project_raw(projection, x - alpha_r * (grad_fx + jac.T @ shifted))
    if not all_finite(x_next):
        raise NumericalFailure(f"primal step produced non-finite iterate at r={r}")
    return x_next


def primal_step(problem: ConstrainedProblem, x, lam,
                alpha_r: float, beta_r: float, tau: float) -> np.ndarray:
    """Projected gradient step on the merit function at fixed dual variable."""
    if not (alpha_r > 0 and beta_r > 0):
        raise ValueError("alpha_r and beta_r must be positive")
    xv = as_vector(x, "x")
    lv = as_vector(lam, "lambda")
    return _primal_step_raw(problem.projection, xv, problem.grad_f(xv), problem.jacobian(xv),
                            _shifted((1.0 - tau) * lv, problem.g(xv), beta_r), alpha_r)


def dual_step(g_next, lam, mask, beta_r: float, tau: float) -> np.ndarray:
    """Damped multiplier update on the active set; inactive entries reset to 0.

    ``g_next`` must be the constraint vector at the NEW primal point: the
    primal moves first, the dual reacts to the updated violation.
    """
    gv = as_vector(g_next, "g_next")
    lv = as_vector(lam, "lambda")
    m = np.asarray(mask, dtype=bool)
    if not (gv.size == lv.size == m.size):
        raise ValueError("g_next, lambda, and mask must have equal length")
    return _dual_step_raw(gv, (1.0 - tau) * lv, m, beta_r)


def _dual_step_raw(g_next, damped, mask, beta_r):
    return np.where(mask, _shifted(damped, g_next, beta_r), 0.0)


def validate_tau(cfg: GdpaConfig, constants: ProblemConstants) -> ValidationReport:
    """Check tau against the theoretical lower bound 1 - s/sqrt(66*U_J^2 + s^2).

    A violation is a warning, not an error: the bound needs the regularity
    constant, which is rarely known exactly, and small tau values often work
    well in practice.
    """
    sigma, u_j = constants.sigma, constants.U_J
    if sigma is None or u_j is None:
        return ValidationReport(True, float("nan"),
                                "tau bound skipped: sigma or U_J unknown")
    if math.isinf(sigma):
        bound = 0.0
    else:
        bound = 1.0 - sigma / math.sqrt(66.0 * u_j ** 2 + sigma ** 2)
    ok = cfg.tau > bound
    msg = (f"tau={cfg.tau} vs theoretical lower bound {bound:.6g}: "
           + ("ok" if ok else "below the bound (convergence guarantee void; warning only)"))
    return ValidationReport(ok, bound, msg)


def validate_alpha(cfg: GdpaConfig, constants: ProblemConstants,
                   lambda_norm: float, r: int) -> ValidationReport:
    """Check the descent condition 1/alpha_r >= L_f + (1-tau)|lam|L_J + beta_r*U_J*L_g."""
    needed = (constants.L_f, constants.L_J, constants.L_g, constants.U_J)
    if any(c is None for c in needed):
        return ValidationReport(True, float("nan"),
                                "alpha condition skipped: missing constants")
    alpha_r, beta_r, _ = schedule(cfg, r)
    required = (constants.L_f + (1.0 - cfg.tau) * lambda_norm * constants.L_J
                + beta_r * constants.U_J * constants.L_g)
    ok = 1.0 / alpha_r >= required
    msg = (f"1/alpha_{r}={1.0 / alpha_r:.6g} vs required {required:.6g}: "
           + ("ok" if ok else "descent condition violated (warning only)"))
    return ValidationReport(ok, required, msg)


def _initial_multiplier(lambda0, m: int) -> np.ndarray:
    """Validated copy of a user-supplied multiplier start; zeros when None."""
    if lambda0 is None:
        return np.zeros(m)
    lam = as_vector(lambda0, "lambda0").copy()
    if lam.size != m:
        raise ValueError(f"lambda0 must have length {m}")
    if np.any(lam < 0):
        raise ValueError("lambda0 must be componentwise nonnegative")
    return lam


def solve(
    problem: ConstrainedProblem,
    cfg: GdpaConfig,
    x0,
    lambda0=None,
    *,
    capture_iterates: bool = False,
    on_iteration: Optional[Callable] = None,
) -> SolveResult:
    """Run the solver from ``x0`` (projected into the feasible set first).

    The trace records metrics at the pre-update iterate of each recorded
    step, using that step's scheduled alpha/beta/gamma. Averages weight
    iterate r by 1/beta_r. The feasibility stopping time T_eps is the first r
    with squared positive violation of the new iterate at most ``eps_feas``;
    the run only terminates early once the stationarity norm also drops below
    ``eps_stat``. Numerical failures abort with the partial trace preserved.

    ``on_iteration(r, x_next, lam_prev, lam_next, mask, g_next)`` is invoked
    after every dual update; intended for diagnostics and invariant checks.
    """
    tau = cfg.tau
    x = project(problem.projection, as_vector(x0, "x0"))
    lam = _initial_multiplier(lambda0, problem.num_constraints)
    projection = problem.projection
    trace: List[IterationRecord] = []
    iterates: Optional[List[Tuple[np.ndarray, np.ndarray]]] = [] if capture_iterates else None
    T_eps: Optional[int] = None
    termination = TERM_BUDGET
    failure_message = ""
    eps_stat_sq = cfg.eps_stat ** 2 if cfg.eps_stat < 1e154 else math.inf  # ** can overflow
    weight_sum = 0.0
    x_sum = np.zeros_like(x)
    lam_sum = np.zeros_like(lam)

    r = 0
    try:
        # overflow in a diverging run must surface as a checked numerical
        # failure, not a numpy warning
        with np.errstate(over="ignore", invalid="ignore"):
            # a fused oracle's grad f and J come with g, checked at the loop
            # top, and its f, checked in a trace row
            fx, gx, grad, jac = problem.first_order(x)
            viol = _violation_sq(gx)  # of each g, shared by the stop test and the trace row
            for r in range(1, cfg.max_iters + 1):
                alpha, beta, gamma = schedule(cfg, r)
                grad = problem.grad_f(x, grad)
                jac = problem.jacobian(x, jac)

                weight_sum += 1.0 / beta
                x_sum += x / beta
                lam_sum += lam / beta
                if capture_iterates:
                    iterates.append((x.copy(), lam.copy()))

                stopping, stat_sq = False, None
                if T_eps is not None and viol <= cfg.eps_feas:
                    _, stat_sq = _stationarity_from_evals(
                        x, lam, gx, grad, jac, alpha, beta, projection)
                    stopping = stat_sq <= eps_stat_sq
                damped, arg = _active_arg(gx, lam, beta, tau)
                mask = arg > 0.0
                if (stopping or r <= cfg.dense_until or r % cfg.record_every == 0
                        or r == cfg.max_iters):
                    trace.append(make_record(problem, x, lam, fx, gx, grad, jac, r, alpha, beta,
                                             gamma, tau, viol, stat_sq, active=(damped, arg)))
                if stopping:
                    termination = TERM_FEASIBILITY
                    break

                x_next = _primal_step_raw(projection, x, grad, jac, _shifted(damped, gx, beta),
                                          alpha, r)
                f_next, g_next, grad, jac = problem.first_order(x_next)
                lam_next = _dual_step_raw(g_next, damped, mask, beta)
                if __debug__:  # active and still feasible: contracted; inactive: zeroed
                    ok = np.where(mask, (g_next > 0.0) | (lam_next <= damped + 1e-15),
                                  lam_next == 0.0)
                    assert np.count_nonzero(ok) == ok.size, (
                        ("inactive multiplier not zeroed" if ok[mask].all()
                         else "dual contraction violated") + f" at r={r}")
                if on_iteration is not None:
                    on_iteration(r, x_next, lam, lam_next, mask, g_next)
                x, lam, fx, gx, viol = x_next, lam_next, f_next, g_next, _violation_sq(g_next)
                if T_eps is None and viol <= cfg.eps_feas:
                    T_eps = r
    except (NumericalFailure, NonFiniteError) as exc:
        termination = TERM_NUMERICAL
        where = f"iteration {r}" if r else "initial evaluation"
        failure_message = f"{where}: {exc}"

    return SolveResult(x, lam, *_averages(weight_sum, x_sum, lam_sum, x, lam), termination,
                       T_eps, trace, iterates, failure_message, r)


def _averages(weight_sum: float, x_sum, lam_sum, x, lam) -> Tuple[np.ndarray, np.ndarray]:
    """A run's 1/beta-weighted averages of x and lambda from their weighted
    sums, or copies of the last iterate when no step began."""
    if weight_sum > 0:
        return x_sum / weight_sum, lam_sum / weight_sum
    return x.copy(), lam.copy()
