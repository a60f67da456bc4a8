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
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from .metrics import (_ZERO, IterationRecord, _block_steps, _const, _fill_rows, _residual_step,
                      _shift_sum, _shifted, _stationarity, _violation_sq, _weighted_sum,
                      make_record)
from .problem import ConstrainedProblem, ProblemConstants
from .vec import (_F64, DimensionMismatchError, NonFiniteError, _project_raw, _where, all_finite,
                  as_vector, check_length, project)

TERM_FEASIBILITY = "feasibility-stop"
TERM_BUDGET = "budget-exhausted"
TERM_NUMERICAL = "numerical-failure"


class NumericalFailure(RuntimeError):
    """A solver step produced non-finite values; the run's message names its iteration."""


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
        if not self.tau < 1.0:
            raise ValueError("tau must lie strictly between 0 and 1")
        # alpha_r decreases in r; the residuals need it positive to the end
        if not schedule(self, self.max_iters)[0] > 0:
            raise ValueError("alpha_r underflows to 0 before r reaches max_iters")


def _check_types(cfg) -> None:
    """The solver configs' one field rule, never met by a bool: an integer in [1, 2**62]
    where the default is an int (``dense_until`` from 0), else a finite positive number."""
    for name, field in cfg.__dataclass_fields__.items():
        val = getattr(cfg, name)
        if type(field.default) is int:
            least = 0 if name == "dense_until" else 1
            if isinstance(val, bool) or not (isinstance(val, (int, np.integer))
                                             and least <= val <= 2 ** 62):
                raise ValueError(f"{name} must be an integer in [{least}, 2**62], got {val!r}")
        elif isinstance(val, bool) or not isinstance(val, (int, float, np.integer, np.floating)):
            raise ValueError(f"{name} must be a number, got {val!r}")
        elif isinstance(val, int) and abs(val) > sys.float_info.max:
            raise ValueError(f"{name} is beyond the float range, got {val!r}")
        elif not 0 < val < math.inf:
            raise ValueError(f"{name} must be a finite positive number, got {val!r}")


@dataclass
class ValidationReport:
    ok: bool
    bound: float


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
    """Mask of (1-tau)*lam_i + beta*g_i(x) > 0, the support of the primal step's [.]_+.

    The inequality is strict, so a constraint sitting exactly on the boundary
    with a zero multiplier stays inactive.
    """
    _check_steps(beta_r, tau)
    total = None
    if _vector_pair(g_x, lam):
        try:  # + and * by finite positive scalars keep a NaN or Inf of either input
            total = _shift_sum((1.0 - tau) * lam, g_x, beta_r)
        except (RuntimeWarning, FloatingPointError):  # -W error: check the inputs first
            pass
        if total is not None and all_finite(total):
            return total > _ZERO
    gv = as_vector(g_x, "g_x")
    lv = check_length(as_vector(lam, "lambda"), gv.size, "lambda")
    return (_shift_sum((1.0 - tau) * lv, gv, beta_r) if total is None else total) > _ZERO


def _vector_pair(a, b) -> bool:  # arrays that as_vector returns unchanged, if finite
    return (type(a) is np.ndarray and type(b) is np.ndarray and a.dtype is _F64
            and b.dtype is _F64 and a.ndim == 1 and a.shape == b.shape)


def _check_steps(beta_r: float, tau: float) -> None:
    """The public step functions take tau in GdpaConfig's range and a finite positive beta_r."""
    if not 0 < beta_r < math.inf:
        raise ValueError("beta_r must be positive and finite")
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must lie strictly between 0 and 1")


# Raw steps take the step's [damped + beta*g]_+ or damped = (1-tau)*lam (lam when tau=0).
def _primal_step_raw(projection, x, grad_fx, jac, shifted, alpha_r):
    x_next = _project_raw(projection, x - alpha_r * (grad_fx + jac.T.dot(shifted)))
    if not all_finite(x_next):
        raise NumericalFailure("primal step produced non-finite iterate")
    return x_next


def primal_step(problem: ConstrainedProblem, x, lam,
                alpha_r: float, beta_r: float, tau: float) -> np.ndarray:
    """Projected gradient step on the merit function at fixed dual variable."""
    if not 0 < alpha_r < math.inf:
        raise ValueError("alpha_r must be positive and finite")
    _check_steps(beta_r, tau)
    xv = check_length(as_vector(x, "x"), problem.dim, "x")
    lv = check_length(as_vector(lam, "lambda"), problem.num_constraints, "lambda")
    return _primal_step_raw(problem.projection, xv, problem.grad_f(xv), problem.jacobian(xv),
                            _shifted((1.0 - tau) * lv, problem.g(xv), beta_r), alpha_r)


def dual_step(g_next, lam, mask, beta_r: float, tau: float) -> np.ndarray:
    """Damped multiplier update on the active set; inactive entries reset to 0.

    ``g_next`` must be the constraint vector at the NEW primal point: the
    primal moves first, the dual reacts to the updated violation.
    """
    _check_steps(beta_r, tau)
    total = None
    if (_vector_pair(g_next, lam) and type(mask) is np.ndarray and mask.dtype.kind == "b"
            and mask.shape == lam.shape):
        try:  # checked before the clamp, which turns a -inf into 0
            total = _shift_sum((1.0 - tau) * lam, g_next, beta_r)
        except (RuntimeWarning, FloatingPointError):
            pass
        if total is not None and all_finite(total):
            return _dual_step_raw(g_next, None, mask, beta_r, total)
    gv = as_vector(g_next, "g_next")
    lv = as_vector(lam, "lambda")
    m = np.asarray(mask, dtype=bool)
    if not (gv.size == lv.size == m.size):
        raise ValueError("g_next, lambda, and mask must have equal length")
    if m.ndim != 1:
        raise DimensionMismatchError(f"mask must be 1-d, got shape {m.shape}")
    return _dual_step_raw(gv, (1.0 - tau) * lv, m, beta_r, total)


def _dual_step_raw(g_next, damped, mask, beta_r, total=None):
    return _where(mask, _shifted(damped, g_next, beta_r, total), _ZERO)


def validate_tau(cfg: GdpaConfig, constants: ProblemConstants) -> ValidationReport:
    """Check tau against the theoretical lower bound 1 - s/sqrt(66*U_J^2 + s^2).

    A violation voids the convergence guarantee, not the run: the bound needs
    the regularity constant, which is rarely known exactly, and small tau
    values often work well in practice. Unknown constants pass with a NaN bound.
    """
    sigma, u_j = constants.sigma, constants.U_J
    if sigma is None or u_j is None:
        return ValidationReport(True, float("nan"))
    bound = 0.0 if math.isinf(sigma) else 1.0 - sigma / math.sqrt(66.0 * u_j ** 2 + sigma ** 2)
    return ValidationReport(cfg.tau > bound, bound)


def validate_alpha(cfg: GdpaConfig, constants: ProblemConstants,
                   lambda_norm: float, r: int) -> ValidationReport:
    """Check the descent condition 1/alpha_r >= L_f + (1-tau)|lam|L_J + beta_r*U_J*L_g;
    unknown constants pass with a NaN bound."""
    needed = (constants.L_f, constants.L_J, constants.L_g, constants.U_J)
    if any(c is None for c in needed):
        return ValidationReport(True, float("nan"))
    alpha_r, beta_r, _ = schedule(cfg, r)
    required = (constants.L_f + (1.0 - cfg.tau) * lambda_norm * constants.L_J
                + beta_r * constants.U_J * constants.L_g)
    return ValidationReport(1.0 / alpha_r >= required, required)


class _Run:
    """The plumbing of one run of GDPA or of a baseline, around the solver's own step
    arithmetic and stop rules: the start, the step counter ``r``, the trace and its
    row rule, the 1/beta-weighted sums of (x_r, lam_r) and the building of the trace
    rows, applied once per block of steps, the capture of a numerical failure and the
    result. It holds references to the arrays it is given, which nobody may change
    before the next ``flush``."""

    def __init__(self, problem: ConstrainedProblem, cfg, x0, lambda0, tau: float):
        """``start``: ``x0`` projected into the feasible set, and a copy of ``lambda0``
        (zeros when None), both checked against the problem. ``tau``: the solver's dual
        damping (0 for the baselines), with which the run's rows form their merit values."""
        m = problem.num_constraints
        x = check_length(project(problem.projection, as_vector(x0, "x0")), problem.dim, "x0")
        lam = np.zeros(m) if lambda0 is None else check_length(
            as_vector(lambda0, "lambda0").copy(), m, "lambda0")
        if np.any(lam < 0):
            raise ValueError("lambda0 must be componentwise nonnegative")
        self.start = x, lam
        self.problem, self.one_minus_tau = problem, _const(1.0 - tau)
        self.record_every, self.dense_until = cfg.record_every, cfg.dense_until
        # a recorded step holds x, its projected step, lam and a copy of g
        self.block = _block_steps(2 * x.size + 2 * lam.size)
        self.x_sum, self.lam_sum, self.weight_sum = np.zeros_like(x), np.zeros_like(lam), 0.0
        self.pending: list = []  # (x_r, lam_r, beta_r) not yet summed
        self.rows: list = []  # make_record's, built into records by the flush
        self.trace: List[IterationRecord] = []
        self.r = 0  # the step begun last
        self.failure = ""

    def steps(self, first: int, last: int):
        """Steps first..last as ``r``; the run flushes after each block's last step
        that completes."""
        block = self.block
        for r in range(first, last + 1):
            self.r = r
            yield r
            if r % block == 0:
                self.flush()

    def recorded(self, forced: bool) -> bool:
        """Whether step ``r`` gets a trace row: forced, dense, or on the modulus."""
        return forced or self.r <= self.dense_until or self.r % self.record_every == 0

    @contextmanager
    def guard(self):
        """The loop's context: overflow in a diverging run must surface as a checked
        numerical failure, not a numpy warning, and such a failure ends the run with
        a message naming its step."""
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                yield
        except (NumericalFailure, NonFiniteError) as exc:
            where = f"iteration {self.r}" if self.r else "initial evaluation"
            self.failure = f"{where}: {exc}"

    def flush(self) -> None:
        if self.pending:
            xs, lams, betas = zip(*self.pending)
            self.pending.clear()
            self.x_sum = _weighted_sum(self.x_sum, xs, betas)
            self.lam_sum = _weighted_sum(self.lam_sum, lams, betas)
            for beta in betas:
                self.weight_sum += 1.0 / beta
        if self.rows:
            self.trace += _fill_rows(self.rows, self.one_minus_tau)
            self.rows.clear()

    def result(self, x, lam, termination: str, T_eps: Optional[int],
               iterates=None) -> SolveResult:
        """The run's result at its last pair. Its averages are the 1/beta-weighted
        ones, or copies of the last pair when no step began. A numerical failure
        overrides ``termination``."""
        with np.errstate(over="ignore", invalid="ignore"):  # as the flushes in the loops
            self.flush()
            if self.weight_sum > 0:
                x_avg, lam_avg = self.x_sum / self.weight_sum, self.lam_sum / self.weight_sum
            else:
                x_avg, lam_avg = x.copy(), lam.copy()
        return SolveResult(x, lam, x_avg, lam_avg,
                           TERM_NUMERICAL if self.failure else termination, T_eps, self.trace,
                           iterates, self.failure, self.r)


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
    A row's checks run at its step; its record is built, complete, when the
    run flushes (once per block of steps, and at the exit) and only then
    joins the trace. The stop test hands its row its projected step.

    ``on_iteration(r, x_next, lam_prev, lam_next, mask, g_next)`` is invoked
    after every dual update; intended for diagnostics and invariant checks. It
    must treat its arrays as read-only: the run's averages read them once per
    block of steps.
    """
    run = _Run(problem, cfg, x0, lambda0, cfg.tau)
    x, lam = run.start
    projection = problem.projection
    iterates: Optional[List[Tuple[np.ndarray, np.ndarray]]] = [] if capture_iterates else None
    T_eps: Optional[int] = None
    termination = TERM_BUDGET
    eps_stat_sq = cfg.eps_stat ** 2 if cfg.eps_stat < 1e154 else math.inf  # ** can overflow
    add_step = run.pending.append

    with run.guard():
        # a fused oracle's grad f and J come with g, checked at the loop top, and
        # its f, checked in a trace row
        fx, gx, grad, jac = problem.first_order(x)
        viol = _violation_sq(gx)  # of each g, shared by the stop test and the trace row
        for r in run.steps(1, cfg.max_iters):
            alpha, beta, gamma = schedule(cfg, r)
            beta_r = np.asarray(beta)  # the step kernels' operand; beta for the row
            grad = problem.grad_f(x, grad)
            jac = problem.jacobian(x, jac)

            add_step((x, lam, beta))
            if capture_iterates:
                iterates.append((x.copy(), lam.copy()))

            stopping, proj = False, None
            if T_eps is not None and viol <= cfg.eps_feas:
                proj = _residual_step(x, lam, grad, jac, alpha, projection)
                _, stat_sq = _stationarity(x, proj, lam, _shifted(lam, gx, beta), alpha, beta)
                stopping = stat_sq <= eps_stat_sq
            damped = run.one_minus_tau * lam
            total = _shift_sum(damped, gx, beta_r)  # its support is the active set
            mask = total > _ZERO
            if run.recorded(stopping or r == cfg.max_iters):
                make_record(run, x, lam, fx, gx, grad, jac, alpha, beta, gamma, viol, proj)
            if stopping:
                termination = TERM_FEASIBILITY
                break

            x_next = _primal_step_raw(projection, x, grad, jac,
                                      _shifted(damped, gx, beta_r, total), alpha)
            f_next, g_next, grad, jac = problem.first_order(x_next)
            lam_next = _dual_step_raw(g_next, damped, mask, beta_r)
            if on_iteration is not None:
                on_iteration(r, x_next, lam, lam_next, mask, g_next)
            x, lam, fx, gx, viol = x_next, lam_next, f_next, g_next, _violation_sq(g_next)
            if T_eps is None and viol <= cfg.eps_feas:
                T_eps = r
    return run.result(x, lam, termination, T_eps, iterates)
