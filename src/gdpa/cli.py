"""Command-line front end: run configuration, experiment orchestration, trace
persistence, baseline comparison tables, and rate-fit reports.

Subcommands: ``solve``, ``benchmark``, ``rate-report``, ``check``. Configs are
JSON; traces are CSV with a fixed schema so external plot tools can consume
them directly. Exit codes: 0 success, 2 bad config/usage, 3 numerical
failure, 4 insufficient data for a rate fit.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .baselines import AlmConfig, PenaltyConfig, solve_alm, solve_penalty
from .metrics import InsufficientDataError, IterationRecord, KktResidual, fit_rate, kkt_residual
from .problem import (
    ConstrainedProblem,
    UnsupportedProjectionError,
    check_gradients,
    effective_constants,
    estimate_sigma,
    seeded_check_points,
)
from .solver import TERM_NUMERICAL, GdpaConfig, schedule, solve, validate_alpha, validate_tau
from .problems import (
    build_analytic,
    build_cmdp,
    build_mnpc,
    build_nn_budget,
    generate_synthetic_mnpc,
    load_csv_dataset,
    random_cmdp,
)
from .vec import NonFiniteError

log = logging.getLogger("gdpa")

TRACE_HEADER = "r,alpha,beta,gamma,f,F_beta,stationarity_sq,feasibility,slackness,lambda_norm"

_LOG_LEVELS = {"error": logging.ERROR, "warn": logging.WARNING,
               "info": logging.INFO, "debug": logging.DEBUG}

GDPA_PRESETS = {
    "mnpc": {"alpha01": 0.1, "beta0": 1e-4},
    "nn": {"alpha01": 2e-4, "beta0": 2e-4},
    "cmdp": {"alpha01": 1e3, "beta0": 0.5},
}


class ConfigError(ValueError):
    """Bad run configuration (maps to exit code 2)."""


def _setup_logging() -> None:
    level = os.environ.get("GDPA_LOG_LEVEL", "warn").lower()
    if level not in _LOG_LEVELS:
        level = "warn"
    logging.basicConfig(level=_LOG_LEVELS[level],
                        format="%(levelname)s %(name)s: %(message)s")


# --------------------------------------------------------------------------
# Run configuration


# JSON type of each config key; every key but "problem" and "seed" may be null
_RUNCONFIG_TYPES = {"problem": dict, "solver": dict, "solvers": list, "out_dir": str,
                    "record_every": int, "seed": int, "budget_grad_evals": int,
                    "grid_points": int}
_JSON_NAMES = {dict: "object", list: "array", str: "string", int: "integer"}


@dataclass
class RunConfig:
    problem: dict
    solver: Optional[dict] = None
    solvers: Optional[list] = None
    out_dir: Optional[str] = None
    record_every: Optional[int] = None
    seed: int = 0
    budget_grad_evals: Optional[int] = None
    grid_points: Optional[int] = None

    @staticmethod
    def from_dict(raw: dict) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        unknown = set(raw) - _RUNCONFIG_TYPES.keys()
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "problem" not in raw:
            raise ConfigError("config requires a 'problem' section")
        for key, val in raw.items():
            want = _RUNCONFIG_TYPES[key]
            if val is None and key not in ("problem", "seed"):
                continue
            if not isinstance(val, want) or isinstance(val, bool):
                raise ConfigError(f"'{key}' must be a JSON {_JSON_NAMES[want]}, got {val!r}")
        if not all(isinstance(spec, dict) for spec in raw.get("solvers") or []):
            raise ConfigError("every entry of 'solvers' must be a JSON object")
        return RunConfig(**raw)

    def to_dict(self) -> dict:
        out = {"problem": self.problem, "seed": self.seed}
        for key in ("solver", "solvers", "out_dir", "record_every",
                    "budget_grad_evals", "grid_points"):
            val = getattr(self, key)
            if val is not None:
                out[key] = val
        return out


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    return RunConfig.from_dict(raw)


# --------------------------------------------------------------------------
# Problem construction


def _integer(spec: dict, key: str, *default) -> int:
    """Integer field of a problem section (KeyError when required and missing);
    a JSON float such as 2.5 or 1e300 is rejected, not truncated."""
    val = spec.get(key, *default) if default else spec[key]
    if isinstance(val, bool) or not isinstance(val, int):
        raise ConfigError(f"bad problem section: '{key}' must be a JSON integer, got {val!r}")
    return val


def _build_dataset(spec: dict, default_seed: int):
    source = spec.get("source", "synthetic")
    if source == "synthetic":
        return generate_synthetic_mnpc(
            seed=_integer(spec, "dataset_seed", default_seed),
            num_classes=_integer(spec, "num_classes"),
            d_in=_integer(spec, "d_in"),
            per_class=_integer(spec, "per_class", 20),
            noise_std=float(spec.get("noise_std", 0.5)),
        )
    if source == "csv":
        return load_csv_dataset(spec["path"])
    raise ConfigError(f"unknown dataset source {source!r}")


def build_problem(spec: dict, seed: int) -> Tuple[ConstrainedProblem, np.ndarray]:
    """Instantiate the configured problem and its initial point."""
    try:
        kind = spec["kind"]
        if kind == "analytic":
            inst = build_analytic(spec["id"])
            problem = inst.problem
            default_x0 = np.zeros(problem.dim)
        elif kind == "mnpc":
            data = _build_dataset(spec, seed)
            problem = build_mnpc(data, float(spec.get("reg_lambda", 1.0)),
                                 spec["thresholds"])
            default_x0 = None
        elif kind == "nn":
            data = _build_dataset(spec, seed)
            problem = build_nn_budget(data, _integer(spec, "hidden"), spec["budgets"])
            default_x0 = None
        elif kind == "cmdp":
            model = random_cmdp(
                seed=_integer(spec, "dataset_seed", seed),
                num_states=_integer(spec, "num_states"),
                num_actions=_integer(spec, "num_actions"),
                num_constraints=_integer(spec, "num_constraints", 1),
                discount=float(spec.get("discount", 0.9)),
                thresholds=spec.get("thresholds"),
            )
            problem = build_cmdp(model)
            default_x0 = np.zeros(problem.dim)
        else:
            raise ConfigError(f"unknown problem kind {kind!r}")
        if "x0" in spec:
            x0 = np.asarray(spec["x0"], dtype=np.float64)
            if x0.shape != (problem.dim,):
                raise ConfigError(f"x0 must have length {problem.dim}")
        elif default_x0 is not None:
            x0 = default_x0
        else:
            scale = float(spec.get("x0_scale", 1e-3))
            x0 = scale * np.random.default_rng(seed).standard_normal(problem.dim)
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError, NonFiniteError) as exc:
        raise ConfigError(f"bad problem section: {exc}") from exc
    if not np.isfinite(x0).all():
        raise ConfigError("bad problem section: the start point is not finite")
    return problem, x0


def build_solver_config(spec: dict, record_every: Optional[int]):
    """Parse a solver section into (kind, config object)."""
    if not isinstance(spec, dict):
        raise ConfigError(f"a solver section must be a JSON object, got {spec!r}")
    spec = dict(spec)
    spec.pop("name", None)
    kind = spec.pop("kind", "gdpa")
    if record_every is not None:
        spec.setdefault("record_every", record_every)
    try:
        if kind == "gdpa":
            preset = spec.pop("preset", None)
            merged = dict(GDPA_PRESETS[preset]) if preset else {}
            if "alpha" in spec:
                a = spec.pop("alpha")
                spec["alpha01"], spec["alpha02"], spec["alpha03"] = (float(v) for v in a)
            merged.update(spec)
            return kind, GdpaConfig(**merged)
        if kind == "penalty":
            return kind, PenaltyConfig(**spec)
        if kind == "alm":
            return kind, AlmConfig(**spec)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad solver section ({kind}): {exc}") from exc
    raise ConfigError(f"unknown solver kind {kind!r}")


def run_solver(kind: str, config, problem: ConstrainedProblem, x0, **kwargs):
    if kind == "gdpa":
        return solve(problem, config, x0, **kwargs)
    if kind == "penalty":
        return solve_penalty(problem, config, x0)
    if kind == "alm":
        return solve_alm(problem, config, x0)
    raise ConfigError(f"unknown solver kind {kind!r}")


# --------------------------------------------------------------------------
# Trace persistence


def write_trace(path, records: Sequence[IterationRecord]) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(TRACE_HEADER + "\n")
        for rec in records:
            fh.write(",".join([
                str(rec.r), repr(rec.alpha), repr(rec.beta), repr(rec.gamma),
                repr(rec.f_value), repr(rec.F_beta_value),
                repr(rec.stationarity_sq), repr(rec.feasibility),
                repr(rec.slackness), repr(rec.lambda_norm),
            ]) + "\n")


def read_trace(path) -> List[IterationRecord]:
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read trace {path}: {exc}") from exc
    if not lines or lines[0] != TRACE_HEADER:
        raise ConfigError(f"{path}: not a trace file (bad header)")
    out = []
    for line in lines[1:]:
        if not line:
            continue
        parts = line.split(",")
        try:
            if len(parts) != 10:
                raise ValueError(f"{len(parts)} fields, expected 10")
            out.append(IterationRecord(int(parts[0]), *map(float, parts[1:])))
        except ValueError as exc:
            raise ConfigError(f"{path}: malformed trace row {line!r}: {exc}") from exc
    return out


def _null_non_finite(value, key: str, flagged: List[str]):
    """Copy of ``value`` with every non-finite float replaced by None, so it
    dumps as strict JSON; the key of each replaced value is appended to ``flagged``."""
    if isinstance(value, dict):
        return {k: _null_non_finite(v, f"{key}.{k}" if key else k, flagged)
                for k, v in value.items()}
    if isinstance(value, list):
        return [_null_non_finite(v, f"{key}[{i}]", flagged) for i, v in enumerate(value)]
    if isinstance(value, float) and not math.isfinite(value):
        flagged.append(key)
        return None
    return value


def _summary(problem, result, kind, wall_seconds, alpha_last) -> dict:
    # after a numerical failure the residuals may overflow (report, don't warn)
    # or a callback may fail at the reported point (NaN, written as null)
    def residuals(x, lam):
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                return kkt_residual(problem, x, lam, alpha_last)
        except NonFiniteError:
            return KktResidual(math.nan, math.nan, math.nan)

    kkt_final = residuals(result.x_final, result.lambda_final)
    kkt_avg = residuals(result.x_avg, result.lambda_avg)
    summary = {
        "solver": kind,
        "termination": result.termination,
        "T_eps": result.T_eps,
        "x_final": [float(v) for v in result.x_final],
        "lambda_final": [float(v) for v in result.lambda_final],
        "x_avg": [float(v) for v in result.x_avg],
        "lambda_avg": [float(v) for v in result.lambda_avg],
        "kkt_final": {"stationarity": kkt_final.stationarity,
                      "feasibility": kkt_final.feasibility,
                      "slackness": kkt_final.slackness},
        "kkt_avg": {"stationarity": kkt_avg.stationarity,
                    "feasibility": kkt_avg.feasibility,
                    "slackness": kkt_avg.slackness},
        "wall_seconds": wall_seconds,
        "failure_message": result.failure_message,
    }
    non_finite: List[str] = []
    return {**_null_non_finite(summary, "", non_finite), "non_finite": non_finite}


# --------------------------------------------------------------------------
# solve


def _collect_warnings(problem, cfg) -> List[str]:
    notes = []
    constants = problem.constants
    if constants is None:
        try:
            constants = effective_constants(problem, sample_budget=8, seed=cfg.seed)
            notes.append("constants estimated by sampling (8 points, safety factor 1.5)")
        except Exception as exc:  # noqa: BLE001 - estimation is best-effort
            notes.append(f"constant estimation skipped: {exc}")
            constants = None
    if constants is not None:
        for rep in (validate_tau(cfg, constants),
                    validate_alpha(cfg, constants, lambda_norm=0.0, r=1)):
            notes.append(rep.message)
            if not rep.ok:
                log.warning(rep.message)
    notes.extend(cfg.validate())
    return notes


def cmd_solve(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    out_dir = Path(args.out or cfg.out_dir or "gdpa-run")
    out_dir.mkdir(parents=True, exist_ok=True)
    problem, x0 = build_problem(cfg.problem, cfg.seed)
    kind, solver_cfg = build_solver_config(cfg.solver or {"kind": "gdpa"}, cfg.record_every)

    warnings: List[str] = []
    if kind == "gdpa":
        warnings = _collect_warnings(problem, solver_cfg)
    (out_dir / "warnings.log").write_text("".join(w + "\n" for w in warnings))

    t0 = time.perf_counter()
    result = run_solver(kind, solver_cfg, problem, x0)
    wall = time.perf_counter() - t0

    write_trace(out_dir / "trace.csv", result.trace)
    if kind == "gdpa":
        alpha_last, _, _ = schedule(solver_cfg, max(result.trace[-1].r if result.trace else 1, 1))
    else:
        alpha_last = solver_cfg.inner_step
    with open(out_dir / "summary.json", "w") as fh:
        json.dump(_summary(problem, result, kind, wall, alpha_last), fh, indent=2, allow_nan=False)
        fh.write("\n")
    log.info("solve finished: %s in %.3fs, outputs in %s", result.termination, wall, out_dir)
    if result.termination == TERM_NUMERICAL:
        print(f"numerical failure: {result.failure_message}", file=sys.stderr)
        return 3
    return 0


# --------------------------------------------------------------------------
# benchmark


class _CountingProblem(ConstrainedProblem):
    """Wrapper counting oracle calls (gradient evaluations = grad f + Jacobian)."""

    def __init__(self, inner: ConstrainedProblem):
        self.grad_calls = 0
        self.jac_calls = 0
        super().__init__(
            dim=inner.dim,
            num_constraints=inner.num_constraints,
            eval_f=inner.eval_f,
            eval_grad_f=self._count_grad(inner.eval_grad_f),
            eval_g=inner.eval_g,
            eval_jacobian=self._count_jac(inner.eval_jacobian) if inner.eval_jacobian else None,
            projection=inner.projection,
            constants=inner.constants,
            name=inner.name,
        )

    def _count_grad(self, fn):
        def wrapped(x):
            self.grad_calls += 1
            return fn(x)
        return wrapped

    def _count_jac(self, fn):
        def wrapped(x):
            self.jac_calls += 1
            return fn(x)
        return wrapped

    @property
    def grad_evals(self) -> int:
        return self.grad_calls + self.jac_calls


def _per_step_grad_cost(m: int) -> int:
    # Every solver evaluates one objective gradient and (with constraints)
    # one Jacobian per primal step.
    return 2 if m > 0 else 1


def cmd_benchmark(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    if not cfg.solvers or len(cfg.solvers) < 2:
        raise ConfigError("benchmark requires at least two entries in 'solvers'")
    if not cfg.budget_grad_evals or cfg.budget_grad_evals <= 0:
        raise ConfigError("benchmark requires a positive 'budget_grad_evals'")
    if cfg.grid_points is not None and cfg.grid_points < 1:
        raise ConfigError("'grid_points' must be positive")
    out_dir = Path(args.out or cfg.out_dir or "gdpa-benchmark")
    out_dir.mkdir(parents=True, exist_ok=True)
    budget = cfg.budget_grad_evals
    grid_n = cfg.grid_points or 50

    runs = []
    for idx, solver_spec in enumerate(cfg.solvers):
        name = solver_spec.get("name") or f"{solver_spec.get('kind', 'gdpa')}-{idx}"
        problem, x0 = build_problem(cfg.problem, cfg.seed)
        counted = _CountingProblem(problem)
        kind, solver_cfg = build_solver_config(solver_spec, cfg.record_every)
        cost = _per_step_grad_cost(problem.num_constraints)
        steps = max(1, budget // cost)
        if kind == "gdpa":
            solver_cfg.max_iters = steps
            # benchmark runs exhaust their budget; disable early stopping
            solver_cfg.eps_feas = min(solver_cfg.eps_feas, 1e-300)
            solver_cfg.eps_stat = min(solver_cfg.eps_stat, 1e-300)
        else:
            solver_cfg.outer_iters = max(1, math.ceil(steps / solver_cfg.inner_iters))
            solver_cfg.feas_tol = min(solver_cfg.feas_tol, 1e-300)
        t0 = time.perf_counter()
        result = run_solver(kind, solver_cfg, counted, x0)
        wall_ms = 1000.0 * (time.perf_counter() - t0)
        write_trace(out_dir / f"trace_{name}.csv", result.trace)
        runs.append((name, cost, result, wall_ms, counted.grad_evals))
        log.info("benchmark %s: %d grad evals, %.1f ms", name, counted.grad_evals, wall_ms)

    lo = min(cost for _, cost, _, _, _ in runs)
    grid = np.unique(np.round(np.logspace(
        math.log10(lo), math.log10(budget), grid_n)).astype(int))
    lines = ["solver,grad_evals,wall_ms,stationarity_sq,feasibility,slackness"]
    for name, cost, result, wall_ms, used in runs:
        total = max(used, 1)
        recs = [(cost * rec.r, rec) for rec in result.trace]
        for point in grid:
            eligible = [entry for entry in recs if entry[0] <= point]
            if not eligible:
                continue
            ge, rec = eligible[-1]
            t_ms = wall_ms * ge / total
            lines.append(
                f"{name},{int(point)},{repr(t_ms)},{repr(rec.stationarity_sq)},"
                f"{repr(rec.feasibility)},{repr(rec.slackness)}")
    (out_dir / "compare.csv").write_text("\n".join(lines) + "\n")
    return 0


# --------------------------------------------------------------------------
# rate-report


def cmd_rate_report(args) -> int:
    records = read_trace(args.trace)
    window = (args.window_lo, args.window_hi)
    ceilings = {
        "stationarity_sq": args.max_slope_stationarity,
        "feasibility_sq": args.max_slope_feasibility_sq,
        "slackness": args.max_slope_slackness,
    }
    if not all(map(math.isfinite, (*window, *ceilings.values()))):
        raise ConfigError("the window bounds and slope ceilings must be finite")
    report = {}
    try:
        fit_stat = fit_rate(records, "stationarity_sq", window)
        fit_feas = fit_rate(records, "feasibility", window)
        fit_slack = fit_rate(records, "slackness", window)
    except InsufficientDataError as exc:
        print(f"insufficient data: {exc}", file=sys.stderr)
        return 4
    # Squaring the feasibility column doubles slope and intercept of the
    # envelope fit exactly, so report the squared-violation rate directly.
    entries = [
        ("stationarity_sq", fit_stat.slope, fit_stat.intercept, fit_stat),
        ("feasibility_sq", 2.0 * fit_feas.slope, 2.0 * fit_feas.intercept, fit_feas),
        ("slackness", fit_slack.slope, fit_slack.intercept, fit_slack),
    ]
    for column, slope, intercept, fit in entries:
        ok = slope <= ceilings[column]
        report[column] = {
            "slope": slope,
            "intercept": intercept,
            "r_squared": fit.r_squared,
            "n_points": fit.n_points,
            "ceiling": ceilings[column],
            "pass": bool(ok),
        }
        print(f"{column}: slope={slope:.4f} (ceiling {ceilings[column]}) "
              f"r2={fit.r_squared:.4f} -> {'PASS' if ok else 'FAIL'}")
    out_dir = Path(args.out) if args.out else Path(args.trace).parent
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "rate.json", "w") as fh:
        json.dump({"window": list(window), "columns": report}, fh, indent=2, allow_nan=False)
        fh.write("\n")
    return 0


# --------------------------------------------------------------------------
# check


def cmd_check(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    problem, _ = build_problem(cfg.problem, cfg.seed)
    points = seeded_check_points(problem, count=20, seed=cfg.seed)
    report = check_gradients(problem, points, h=1e-6)
    print(f"gradient of f: max relative error {report.grad_f_error:.3e} "
          f"(worst point {report.worst_point_grad})")
    if report.jacobian_error is None:
        print("jacobian: skipped (no constraints)")
    else:
        print(f"jacobian: max relative error {report.jacobian_error:.3e} "
              f"(worst point {report.worst_point_jac})")
    try:
        sigma = estimate_sigma(problem, points)
        print("regularity constant estimate: "
              + ("inf (all sample points feasible)" if math.isinf(sigma) else f"{sigma:.6g}"))
    except UnsupportedProjectionError as exc:
        print(f"regularity constant estimate skipped: {exc}")
    ok = report.passed(1e-5)
    print("gradient check: " + ("PASS" if ok else "FAIL") + " (tolerance 1e-05)")
    return 0 if ok else 1


# --------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gdpa",
        description="Solver and benchmark harness for nonconvex inequality-"
                    "constrained problems")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run one solver on one problem")
    p_solve.add_argument("--config", required=True)
    p_solve.add_argument("--out", default=None)
    p_solve.add_argument("--seed", type=int, default=None)
    p_solve.set_defaults(func=cmd_solve)

    p_bench = sub.add_parser("benchmark", help="compare solvers under a shared budget")
    p_bench.add_argument("--config", required=True)
    p_bench.add_argument("--out", default=None)
    p_bench.add_argument("--seed", type=int, default=None)
    p_bench.set_defaults(func=cmd_benchmark)

    p_rate = sub.add_parser("rate-report", help="fit convergence-rate slopes from a trace")
    p_rate.add_argument("trace")
    p_rate.add_argument("--window-lo", type=float, default=1e3)
    p_rate.add_argument("--window-hi", type=float, default=1e5)
    p_rate.add_argument("--max-slope-stationarity", type=float, default=-0.5)
    p_rate.add_argument("--max-slope-feasibility-sq", type=float, default=-0.5)
    p_rate.add_argument("--max-slope-slackness", type=float, default=-0.25)
    p_rate.add_argument("--out", default=None)
    p_rate.set_defaults(func=cmd_rate_report)

    p_check = sub.add_parser("check", help="verify gradients and estimate regularity")
    p_check.add_argument("--config", required=True)
    p_check.add_argument("--seed", type=int, default=None)
    p_check.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
