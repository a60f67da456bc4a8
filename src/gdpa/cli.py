"""Command-line front end: run configuration, experiment orchestration, trace
persistence, run summaries with their rate fits, and baseline comparison tables.

Subcommands: ``solve``, ``benchmark``, ``check``. Configs are JSON; traces are
CSV with a fixed schema so external plot tools can consume them directly.
Exit codes: 0 success, 1 failed gradient check, 2 bad config/usage, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import bisect
import json
import logging
import math
import os
import sys
import time
from dataclasses import asdict, fields, replace
from pathlib import Path
from types import SimpleNamespace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .baselines import AlmConfig, PenaltyConfig, solve_alm, solve_penalty
from .metrics import InsufficientDataError, IterationRecord, KktResidual, fit_rate, kkt_residual
from .problem import (
    ConstrainedProblem,
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
from .vec import NonFiniteError, all_finite

log = logging.getLogger("gdpa")

TRACE_HEADER = "r,alpha,beta,gamma,f,F_beta,stationarity_sq,feasibility,slackness,lambda_norm"

GDPA_PRESETS = {
    "mnpc": {"alpha01": 0.1, "beta0": 1e-4},
    "nn": {"alpha01": 2e-4, "beta0": 2e-4},
    "cmdp": {"alpha01": 1e3, "beta0": 0.5},
}

MAX_GRID_POINTS = 10_000  # compare.csv rows per solver in `gdpa benchmark`


class ConfigError(ValueError):
    """Bad run configuration (maps to exit code 2)."""


def _setup_logging() -> None:
    level = logging.getLevelName(os.environ.get("GDPA_LOG_LEVEL", "warn").upper())
    logging.basicConfig(level=level if isinstance(level, int) else logging.WARNING,
                        format="%(levelname)s %(name)s: %(message)s")


# --------------------------------------------------------------------------
# Run configuration


REQUIRED = object()  # the default of a key that must be given
NUMBERS = "array of numbers"  # the JSON type, and its name, of a key that lists floats

# One table per config section, the one statement of its keys: key -> (JSON
# type, default or REQUIRED, least value or None). A float key, or an entry of
# a NUMBERS key, also takes a JSON integer; no key or entry takes a boolean,
# and a key whose default is None may be null.
_TOP_KEYS = {"problem": (dict, REQUIRED, None), "solver": (dict, None, None),
             "solvers": (list, None, None), "out_dir": (str, None, None),
             "record_every": (int, None, 1), "seed": (int, 0, 0),
             "budget_grad_evals": (int, None, None), "grid_points": (int, None, None)}
_JSON_NAMES = {dict: "object", list: "array", str: "string", int: "integer", float: "number"}


def _is_a(val, want) -> bool:
    """Whether the JSON value ``val`` has the table type ``want``."""
    if want is NUMBERS:
        return isinstance(val, list) and all(_is_a(v, float) for v in val)
    return not isinstance(val, bool) and isinstance(val, (int, float) if want is float else want)


def _refuse_unknown(raw: dict, keys, where: str) -> None:
    if not raw.keys() <= keys:
        raise ConfigError(f"unknown {where}: {sorted(raw.keys() - keys)}")


def _section(raw: dict, table: dict, where: str) -> dict:
    """Checked values of a config section, defaults filled in; ``where`` names its keys."""
    _refuse_unknown(raw, table.keys(), where)
    out = {}
    for key, (want, default, least) in table.items():
        val = out[key] = raw.get(key, default)
        if val is REQUIRED:
            raise ConfigError(f"missing {where}: '{key}'")
        if val is None and default is None:
            continue
        if not _is_a(val, want):
            raise ConfigError(f"'{key}' must be a JSON {_JSON_NAMES.get(want, want)}, got {val!r}")
        if least is not None and val < least:
            raise ConfigError(f"'{key}' must be at least {least}, got {val!r}")
        try:
            if want is float:
                out[key] = float(val)
            elif want is NUMBERS:
                out[key] = [float(v) for v in val]
        except OverflowError:
            raise ConfigError(f"'{key}' is beyond the float range, got {val!r}") from None
    return out


def load_config(path, seed: Optional[int] = None) -> SimpleNamespace:
    """Parse and check a config file; ``seed`` (the ``--seed`` option) overrides its seed."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # also non-UTF-8, a huge int, deep nesting
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    if seed is not None:  # checked as the file's seed is
        raw["seed"] = seed
    cfg = SimpleNamespace(**_section(raw, _TOP_KEYS, "config keys"))
    if cfg.record_every is not None and cfg.record_every > 2 ** 62:  # as in a solver section
        raise ConfigError(f"'record_every' must be at most 2**62, got {cfg.record_every}")
    if not all(isinstance(spec, dict) for spec in cfg.solvers or []):
        raise ConfigError("every entry of 'solvers' must be a JSON object")
    return cfg


# --------------------------------------------------------------------------
# Problem construction


# float64 entries (800 MB) the arrays of a configured problem may hold
_MAX_ENTRIES = 10 ** 8


def _check_size(entries: int) -> None:
    if entries > _MAX_ENTRIES:
        raise ValueError(f"its arrays would hold more than {_MAX_ENTRIES:,} float64 entries")


# the problem sections' tables (see _TOP_KEYS): "kind" picks one, and an mnpc
# or nn section adds the keys of its dataset "source"; a null dataset_seed
# stands for the run's seed
_START = {"kind": (str, REQUIRED, None), "x0": (NUMBERS, None, None)}
_SAMPLED = {**_START, "source": (str, "synthetic", None)}
_DATASET_SEED = {"dataset_seed": (int, None, 0)}
_PROBLEMS = {
    "analytic": {**_START, "id": (str, REQUIRED, None)},
    "mnpc": {**_SAMPLED, "reg_lambda": (float, 1.0, None),
             "thresholds": (NUMBERS, REQUIRED, None)},
    "nn": {**_SAMPLED, "hidden": (int, REQUIRED, 1), "budgets": (NUMBERS, REQUIRED, None)},
    "cmdp": {**_START, **_DATASET_SEED, "num_states": (int, REQUIRED, 1),
             "num_actions": (int, REQUIRED, 1), "num_constraints": (int, 1, 0),
             "discount": (float, 0.9, None), "thresholds": (NUMBERS, None, None)}}
_SOURCES = {
    "synthetic": {**_DATASET_SEED, "num_classes": (int, REQUIRED, 2),
                  "d_in": (int, REQUIRED, 1), "per_class": (int, 20, 1),
                  "noise_std": (float, 0.5, None)},
    "csv": {"path": (str, REQUIRED, None)}}


def build_problem(spec: dict, seed: int) -> Tuple[ConstrainedProblem, np.ndarray]:
    """Instantiate the configured problem and its initial point."""
    kind = spec.get("kind")
    table = _PROBLEMS.get(kind) if isinstance(kind, str) else None
    if table is None:
        raise ConfigError(f"unknown problem kind {kind!r}; choose one of {sorted(_PROBLEMS)}")
    if "source" in table:
        source = spec.get("source", table["source"][1])
        if not isinstance(source, str) or source not in _SOURCES:
            raise ConfigError(f"unknown dataset source {source!r}")
        table = {**table, **_SOURCES[source]}
    spec = _section(spec, table, f"problem keys ({kind})")
    data_seed = seed if spec.get("dataset_seed") is None else spec["dataset_seed"]
    try:
        if kind == "analytic":
            problem = build_analytic(spec["id"]).problem
        elif kind == "cmdp":
            states, actions, m = spec["num_states"], spec["num_actions"], spec["num_constraints"]
            _check_size(states * states * actions + (m + 1) * states * actions)
            problem = build_cmdp(random_cmdp(data_seed, states, actions, m, spec["discount"],
                                             spec["thresholds"]))
        else:  # mnpc or nn; the net's weights count toward the size cap
            hidden = spec.get("hidden", 0)
            if spec["source"] == "csv":
                data = load_csv_dataset(spec["path"])
                _check_size(hidden * (data.d_in + data.num_classes))
            else:
                classes, d_in, per_class = spec["num_classes"], spec["d_in"], spec["per_class"]
                _check_size(classes * per_class * d_in + hidden * (d_in + classes))
                data = generate_synthetic_mnpc(data_seed, classes, d_in, per_class,
                                               spec["noise_std"])
            problem = (build_mnpc(data, spec["reg_lambda"], spec["thresholds"]) if kind == "mnpc"
                       else build_nn_budget(data, hidden, spec["budgets"]))
        if spec["x0"] is not None:
            x0 = np.asarray(spec["x0"], dtype=np.float64)
            if x0.shape != (problem.dim,):
                raise ValueError(f"x0 must have length {problem.dim}")
        elif kind in ("mnpc", "nn"):  # a random start
            x0 = 1e-3 * np.random.default_rng(seed).standard_normal(problem.dim)
        else:
            x0 = np.zeros(problem.dim)
    except (KeyError, TypeError, ValueError, NonFiniteError) as exc:
        raise ConfigError(f"bad problem section: {exc}") from exc
    if not all_finite(x0):
        raise ConfigError("bad problem section: the start point is not finite")
    return problem, x0


# kind -> names of its config class and entry point here, looked up when used
_SOLVERS = {"gdpa": ("GdpaConfig", "solve"),
            "penalty": ("PenaltyConfig", "solve_penalty"),
            "alm": ("AlmConfig", "solve_alm")}
# kind -> its section's keys, from the classes themselves (the names above may be wrapped)
_SOLVER_KEYS = {kind: {"kind", "name", *(f.name for f in fields(globals()[cls]))}
                for kind, (cls, _) in _SOLVERS.items()}
_SOLVER_KEYS["gdpa"].add("preset")
# a benchmark solver's name goes into a file name and a compare.csv field
_NAME_CHARS = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_.-")


def build_solver_config(spec: dict, record_every: Optional[int], steps: Optional[int] = None):
    """Parse a solver section into (kind, config object). ``steps`` budgets a benchmark
    run; its stop tolerances fall to 1e-300, so a baseline round ending at ||g+|| = 0 still
    stops it early. The budgeted config is built anew, so it passes its class's checks."""
    kind = spec.get("kind", "gdpa")
    if not isinstance(kind, str) or kind not in _SOLVERS:
        raise ConfigError(f"unknown solver kind {kind!r}")
    _refuse_unknown(spec, _SOLVER_KEYS[kind], f"solver keys ({kind})")
    spec = {key: val for key, val in spec.items() if key not in ("kind", "name")}
    preset = spec.pop("preset", None)
    if preset is not None and not (isinstance(preset, str) and preset in GDPA_PRESETS):
        raise ConfigError(f"unknown preset {preset!r}; choose one of {sorted(GDPA_PRESETS)}")
    spec = {**GDPA_PRESETS.get(preset, {}), **spec}
    if record_every is not None:
        spec.setdefault("record_every", record_every)
    try:
        config = globals()[_SOLVERS[kind][0]](**spec)
        if steps is None:
            return kind, config
        if kind == "gdpa":
            return kind, replace(config, max_iters=steps, eps_feas=min(config.eps_feas, 1e-300),
                                 eps_stat=min(config.eps_stat, 1e-300))
        # every round takes a step, so `steps` rounds never bind before max_steps
        return kind, replace(config, outer_iters=steps, max_steps=steps,
                             feas_tol=min(config.feas_tol, 1e-300))
    except ValueError as exc:
        raise ConfigError(f"bad solver section ({kind}): {exc}") from exc


def _run(kind: str, config, problem: ConstrainedProblem, x0, trace_path):
    """Run one solver and write its trace; returns (result, wall seconds)."""
    t0 = time.perf_counter()
    result = globals()[_SOLVERS[kind][1]](problem, config, x0)
    wall = time.perf_counter() - t0
    write_trace(trace_path, result.trace)
    return result, wall


# --------------------------------------------------------------------------
# Trace persistence


def write_trace(path, records: Sequence[IterationRecord]) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(TRACE_HEADER + "\n")
        fh.writelines(  # a generator: the text of every row at once would raise the peak RSS
            f"{rec.r},{rec.alpha!r},{rec.beta!r},{rec.gamma!r},{rec.f_value!r},"
            f"{rec.F_beta_value!r},{rec.stationarity_sq!r},{rec.feasibility!r},"
            f"{rec.slackness!r},{rec.lambda_norm!r}\n" for rec in records)


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


# rates column -> (trace column, factor, slope ceiling). Squaring the feasibility
# column doubles the slope and intercept of its envelope fit exactly, so the
# squared-violation rate is reported directly. The ceilings sit above the
# theoretical orders -2/3, -2/3 and -1/3.
_RATE_COLUMNS = {"stationarity_sq": ("stationarity_sq", 1.0, -0.5),
                 "feasibility_sq": ("feasibility", 2.0, -0.5),
                 "slackness": ("slackness", 1.0, -0.25)}
_RATE_WINDOW = (1e3, 1e5)


def _rates(records: Sequence[IterationRecord]) -> dict:
    """The log-log slope of each rates column's running-minimum envelope over
    ``_RATE_WINDOW``, against its ceiling; a column with too few points is skipped."""
    columns = {}
    for column, (trace_column, factor, ceiling) in _RATE_COLUMNS.items():
        try:
            fit = fit_rate(records, trace_column, _RATE_WINDOW)
        except InsufficientDataError as exc:
            columns[column] = {"skipped": str(exc)}
            continue
        slope = factor * fit.slope
        columns[column] = {"slope": slope, "intercept": factor * fit.intercept,
                           "r_squared": fit.r_squared, "n_points": fit.n_points,
                           "ceiling": ceiling, "pass": slope <= ceiling}
    return {"window": list(_RATE_WINDOW), "columns": columns}


def _summary(problem, result, kind, wall_seconds, alpha_last, theory) -> dict:
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
        "kkt_final": asdict(kkt_final),
        "kkt_avg": asdict(kkt_avg),
        "wall_seconds": wall_seconds,
        "iterations": result.iterations,
        "us_per_iter": 1e6 * wall_seconds / result.iterations if result.iterations else None,
        "failure_message": result.failure_message,
        "theory": theory,
        "rates": _rates(result.trace),
    }
    non_finite: List[str] = []
    return {**_null_non_finite(summary, "", non_finite), "non_finite": non_finite}


# --------------------------------------------------------------------------
# solve


def _theory(problem, cfg: GdpaConfig, seed: int) -> dict:
    """The paper's sufficient step-size conditions at constants sampled at 8 points."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is a skip reason
            constants = effective_constants(problem, seed)
            tau, alpha = (validate_tau(cfg, constants),
                          validate_alpha(cfg, constants, lambda_norm=0.0, r=1))
    except (ArithmeticError, ValueError) as exc:  # a non-finite or misshapen sample
        return {"skipped": str(exc)}
    return {"tau_bound": tau.bound, "tau_ok": tau.ok,
            "alpha_1_required": alpha.bound, "alpha_1_ok": alpha.ok}


def cmd_solve(args) -> int:
    cfg = load_config(args.config, args.seed)
    for key in ("solvers", "budget_grad_evals", "grid_points"):
        if getattr(cfg, key) is not None:
            raise ConfigError(f"'{key}' is read only by gdpa benchmark")
    problem, x0 = build_problem(cfg.problem, cfg.seed)
    kind, solver_cfg = build_solver_config(cfg.solver or {"kind": "gdpa"}, cfg.record_every)
    out_dir = Path(args.out or cfg.out_dir or "gdpa-run")  # made once the config checks out
    out_dir.mkdir(parents=True, exist_ok=True)
    result, wall = _run(kind, solver_cfg, problem, x0, out_dir / "trace.csv")
    if kind == "gdpa":
        alpha_last, _, _ = schedule(solver_cfg, max(result.trace[-1].r if result.trace else 1, 1))
        theory = _theory(problem, solver_cfg, cfg.seed)
    else:
        alpha_last, theory = solver_cfg.inner_step, None
    with open(out_dir / "summary.json", "w") as fh:
        json.dump(_summary(problem, result, kind, wall, alpha_last, theory), fh, indent=2,
                  allow_nan=False)
        fh.write("\n")
    log.info("solve finished: %s in %.3fs, outputs in %s", result.termination, wall, out_dir)
    if result.termination == TERM_NUMERICAL:
        return _numerical_failure(result.failure_message)
    return 0


def _numerical_failure(message) -> int:
    # an array in the message may span lines; stderr gets one
    print("numerical failure: " + " ".join(str(message).split()), file=sys.stderr)
    return 3


# --------------------------------------------------------------------------
# benchmark


def cmd_benchmark(args) -> int:
    cfg = load_config(args.config, args.seed)
    if cfg.solver is not None:
        raise ConfigError("'solver' is read only by gdpa solve")
    if not cfg.solvers or len(cfg.solvers) < 2:
        raise ConfigError("benchmark requires at least two entries in 'solvers'")
    budget = cfg.budget_grad_evals
    if budget is None or not 1 <= budget <= 2 ** 62:
        raise ConfigError(f"benchmark requires 'budget_grad_evals' in [1, 2**62], got {budget}")
    top = min(budget, MAX_GRID_POINTS)  # checked before np.logspace allocates
    if cfg.grid_points is not None and not 1 <= cfg.grid_points <= top:
        raise ConfigError(f"'grid_points' must lie in [1, {top}], got {cfg.grid_points}")
    problem, x0 = build_problem(cfg.problem, cfg.seed)
    # each step of every solver costs one grad f plus, with constraints, one Jacobian
    cost = 2 if problem.num_constraints > 0 else 1
    if budget < cost:
        raise ConfigError(f"'budget_grad_evals' must cover one step, {cost} evals, got {budget}")
    steps = budget // cost
    grid = np.unique(np.round(np.logspace(
        math.log10(cost), math.log10(budget), cfg.grid_points or 50)).astype(int))

    sections = {}  # name -> (kind, config); all are checked before any solver runs
    for idx, solver_spec in enumerate(cfg.solvers):
        kind, solver_cfg = build_solver_config(solver_spec, cfg.record_every, steps)
        name = solver_spec.get("name", f"{kind}-{idx}")
        if not (isinstance(name, str) and name and set(name) <= _NAME_CHARS) or name in sections:
            raise ConfigError(f"solver names must be distinct, in [A-Za-z0-9_.-]+, got {name!r}")
        sections[name] = kind, solver_cfg
    out_dir = Path(args.out or cfg.out_dir or "gdpa-benchmark")  # made once all checks out
    out_dir.mkdir(parents=True, exist_ok=True)

    lines = ["solver,grad_evals,wall_ms,stationarity_sq,feasibility,slackness"]
    failures = []
    for name, (kind, solver_cfg) in sections.items():
        result, wall = _run(kind, solver_cfg, problem, x0, out_dir / f"trace_{name}.csv")
        wall_ms = 1000.0 * wall
        spent = cost * result.iterations
        log.info("benchmark %s: %d grad evals, %.1f ms", name, spent, wall_ms)
        points = grid
        if result.termination == TERM_NUMERICAL:  # listed up to the evaluations it spent
            points = grid[grid <= spent]
            failures.append(f"{name}: {result.failure_message}")
        for point in points:
            row = bisect.bisect_right(result.trace, point, key=lambda rec: cost * rec.r)
            if row == 0:
                continue
            rec = result.trace[row - 1]
            t_ms = wall_ms * (cost * rec.r) / max(spent, 1)
            lines.append(
                f"{name},{int(point)},{repr(t_ms)},{repr(rec.stationarity_sq)},"
                f"{repr(rec.feasibility)},{repr(rec.slackness)}")
    (out_dir / "compare.csv").write_text("\n".join(lines) + "\n")
    return _numerical_failure("; ".join(failures)) if failures else 0


# --------------------------------------------------------------------------
# check


def cmd_check(args) -> int:
    cfg = load_config(args.config, args.seed)
    problem, _ = build_problem(cfg.problem, cfg.seed)
    points = seeded_check_points(problem, count=20, seed=cfg.seed)
    try:
        # a callback that overflows is a numerical failure, not a numpy warning
        with np.errstate(over="ignore", invalid="ignore"):
            report = check_gradients(problem, points, h=1e-6)
            sigma = estimate_sigma(problem, points)  # every built problem lives on R^d
    except NonFiniteError as exc:
        return _numerical_failure(exc)
    print(f"gradient of f: max relative error {report.grad_f_error:.3e} "
          f"(worst point {report.worst_point_grad})")
    if report.jacobian_error is None:
        print("jacobian: skipped (no constraints)")
    else:
        print(f"jacobian: max relative error {report.jacobian_error:.3e} "
              f"(worst point {report.worst_point_jac})")
    if report.first_order_error is not None:
        print(f"fused oracle: max relative error {report.first_order_error:.3e} (vs callbacks)")
    print("regularity constant estimate: " + ("inf (all sample points feasible)"
                                               if math.isinf(sigma) else f"{sigma:.6g}"))
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
    for name, func, text in (
            ("solve", cmd_solve, "run one solver on one problem"),
            ("benchmark", cmd_benchmark, "compare solvers under a shared budget"),
            ("check", cmd_check, "verify gradients and estimate regularity")):
        command = sub.add_parser(name, help=text)
        command.set_defaults(func=func)
        command.add_argument("--config", required=True)
        if func is not cmd_check:
            command.add_argument("--out", default=None)
        command.add_argument("--seed", type=int, default=None)
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
    except OSError as exc:  # a missing file or an unwritable output directory
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
