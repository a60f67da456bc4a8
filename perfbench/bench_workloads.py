"""The benchmark's workloads: inputs from a seed, one timed call, and checks.

Each workload drives gdpa through its public API or CLI only. Constructing a
workload prepares anything that must exist on disk; :meth:`setup` builds the
inputs through the public builders (this is what ``setup_s`` times);
:meth:`run` times exactly one call at the workload's fixed size; and
:meth:`judge` reads the outputs back and checks every operation. ``judge``
runs after a traced call has restored the library, so its own oracle calls
are never counted.

Why these four: each one puts a different layer in front (see README.md for
the layer shares each workload is expected to show).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import shutil
import time
from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np

import gdpa
import gdpa.cli
from gdpa.problems import build_analytic, build_cmdp, random_cmdp

CLI_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "benchmark-scaled-1d.json"

# The instances and their nominal start points are fixed; the seed perturbs
# each start by START_NOISE * N(0, I). Every output changes with the seed, and
# kkt_max, a property of the instance, still compares across seeds (random
# instances or random starts move it by 25% or more between seeds).
CMDP_INSTANCE_SEED = 20240
QQ_INSTANCE_SEEDS = range(10)
START_NOISE = 1e-3

# Sizes keep one timed call near 0.3-0.6 s on a 2-vCPU Xeon VM, so a run
# holds dozens of calls, each between two speed calibrations (see run.py).
# The machine's speed drifts by up to 1.6x within a minute, and only short
# calls let a calibration next to the call track it.
SCALED_1D_ITERS = 10_000
CMDP_ITERS = 100
CLI_BUDGET_GRAD_EVALS = 4_000
QQ_STEPS = 200

# Early stopping off: every solve runs its full iteration budget.
NO_EARLY_STOP = {"eps_feas": 1e-300, "eps_stat": 1e-300}

# The default seed and one held-out seed; their outputs are stored in
# reference.json and every run on them is compared with it.
REFERENCE_SEEDS = (0, 7)

# Outputs compared with the stored reference may differ by this much,
# normwise relative. A one-ulp change of the start point moves the cmdp-100x10
# outputs by ~5e-14, so reordered floating-point arithmetic passes; a changed
# step or schedule does not.
REFERENCE_RTOL = 1e-9


@dataclass
class Op:
    """One operation: one solve, one CLI solver, or one step-loop problem."""

    name: str
    values: dict
    failure: str = ""


@dataclass
class Execution:
    """What one timed call produced, read back after the clock stopped."""

    ops: list
    kkt_max: float
    digest: str
    bytes_written: int = 0

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if op.failure)


def _worst(kkts) -> float:
    # kkt_max over the operations that succeeded; NaN when none did.
    finite = [k for k in kkts if k is not None]
    return max(finite) if finite else math.nan


def _finite(*arrays) -> bool:
    return all(np.all(np.isfinite(np.asarray(a, dtype=float))) for a in arrays)


def _start(nominal, seed, *key):
    nominal = np.asarray(nominal, dtype=np.float64)
    noise = np.random.default_rng([seed, *key]).standard_normal(nominal.shape)
    return nominal + START_NOISE * noise


def _trace_digest(records) -> str:
    h = hashlib.sha256()
    for rec in records:
        h.update((",".join(repr(v) for v in astuple(rec)) + "\n").encode())
    return h.hexdigest()


class SolveWorkload:
    """One library ``solve()`` call on a problem built by the zoo."""

    def __init__(self, seed: int, smoke: bool, work_dir: Path):
        self.seed = seed
        self.smoke = smoke

    def setup(self):  # -> (problem, x0, cfg), built by the subclass
        raise NotImplementedError

    def run(self, inputs, tracer=None):
        problem, x0, cfg = inputs
        solve = gdpa.solve
        t0 = time.perf_counter()
        res = solve(problem, cfg, x0)
        return time.perf_counter() - t0, res

    def judge(self, inputs, res) -> Execution:
        problem = inputs[0]
        op = Op("solve", {"x": res.x_final, "lambda": res.lambda_final})
        if res.termination == "numerical-failure":
            op.failure = f"numerical failure: {res.failure_message}"
        elif not _finite(res.x_final, res.lambda_final):
            op.failure = "non-finite final pair"
        kkt = None if op.failure else \
            gdpa.metrics.kkt_residual(problem, res.x_final, res.lambda_final).max()
        return Execution([op], _worst([kkt]), _trace_digest(res.trace))


class ScaledOneD(SolveWorkload):
    """W1: analytic scaled-1d with the gate-1 constants."""

    def setup(self):
        inst = build_analytic("scaled-1d")
        x0 = _start(np.zeros(inst.problem.dim), self.seed)
        cfg = gdpa.GdpaConfig(tau=0.1, beta0=0.1, alpha01=1.0, alpha02=1.0, alpha03=1.0,
                              max_iters=2_000 if self.smoke else SCALED_1D_ITERS,
                              **NO_EARLY_STOP)
        return inst.problem, x0, cfg


class Cmdp100x10(SolveWorkload):
    """W3: tabular CMDP, S=100, A=10, m=3, with the cmdp preset."""

    def setup(self):
        model = random_cmdp(seed=CMDP_INSTANCE_SEED, num_states=100, num_actions=10,
                            num_constraints=3, discount=0.9, thresholds=[0.55] * 3)
        problem = build_cmdp(model)
        x0 = _start(np.zeros(problem.dim), self.seed)  # 0 is the uniform policy
        cfg = gdpa.GdpaConfig(**gdpa.cli.GDPA_PRESETS["cmdp"],
                              max_iters=10 if self.smoke else CMDP_ITERS, **NO_EARLY_STOP)
        return problem, x0, cfg


class CliBench1d:
    """In-process ``gdpa benchmark`` on configs/benchmark-scaled-1d.json."""

    def __init__(self, seed: int, smoke: bool, work_dir: Path):
        self.seed = seed
        raw = json.loads(CLI_CONFIG.read_text())
        raw["problem"]["x0"] = [float(v) for v in _start(np.zeros(1), seed)]
        raw["budget_grad_evals"] = 400 if smoke else CLI_BUDGET_GRAD_EVALS
        self.solvers = [spec["name"] for spec in raw["solvers"]]
        self.config = work_dir / "config.json"
        self.config.write_text(json.dumps(raw))
        self.out_dir = work_dir / "out"

    def setup(self):
        # The same builder calls cmd_benchmark makes before it solves.
        cfg = gdpa.cli.load_config(self.config)
        for spec in cfg.solvers:
            gdpa.cli.build_problem(cfg.problem, cfg.seed)
            gdpa.cli.build_solver_config(spec, cfg.record_every)
        return cfg

    def run(self, inputs, tracer=None):
        shutil.rmtree(self.out_dir, ignore_errors=True)
        argv = ["benchmark", "--config", str(self.config), "--out", str(self.out_dir),
                "--seed", str(self.seed)]
        t0 = time.perf_counter()
        code = gdpa.cli.main(argv)
        return time.perf_counter() - t0, code

    def judge(self, inputs, code) -> Execution:
        last, digest_rows = {}, []
        compare = self.out_dir / "compare.csv"
        if compare.exists():
            with open(compare, newline="") as fh:
                for row in csv.DictReader(fh):
                    last[row["solver"]] = row
                    # wall_ms is measured time, so it differs between runs.
                    row = dict(row)
                    del row["wall_ms"]
                    digest_rows.append(",".join(row.values()))
        ops = []
        for name in self.solvers:
            row = last.get(name)
            try:
                resid = np.array([math.sqrt(float(row["stationarity_sq"])),
                                  float(row["feasibility"]), float(row["slackness"])])
            except (TypeError, KeyError, ValueError):
                resid = np.full(3, math.nan)
            op = Op(name, {"residuals": resid})
            if code != 0:
                op.failure = f"gdpa benchmark exited {code}"
            elif row is None:
                op.failure = "solver missing from compare.csv"
            elif not _finite(resid):
                op.failure = "unreadable or non-finite residual in compare.csv"
            ops.append(op)
        kkt = _worst([None if op.failure else float(op.values["residuals"].max())
                      for op in ops])

        h = hashlib.sha256()
        for path in sorted(self.out_dir.glob("trace_*.csv")):
            h.update(path.read_bytes())
        h.update("\n".join(digest_rows).encode())
        written = sum(p.stat().st_size for p in self.out_dir.iterdir()) \
            if self.out_dir.exists() else 0
        return Execution(ops, kkt, h.hexdigest(), written)


def random_quadratic_problem(seed: int, d: int = 4, m: int = 3, box_radius: float = 2.0):
    """Convex quadratic objective, random indefinite quadratic constraints, box set."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((d, d))
    hess = a.T @ a + np.eye(d)
    lin = rng.standard_normal(d)
    quads = np.empty((m, d, d))
    for i in range(m):
        b = rng.standard_normal((d, d))
        quads[i] = 0.5 * (b + b.T)
    slopes = rng.standard_normal((m, d))
    offsets = rng.uniform(-1.0, 1.0, m)

    def eval_f(x):
        return 0.5 * float(x @ hess @ x) + float(lin @ x)

    def eval_grad_f(x):
        return hess @ x + lin

    def eval_g(x):
        return np.array([0.5 * float(x @ quads[i] @ x) + float(slopes[i] @ x) + offsets[i]
                         for i in range(m)])

    def eval_jacobian(x):
        return np.vstack([quads[i] @ x + slopes[i] for i in range(m)])

    return gdpa.ConstrainedProblem(
        dim=d, num_constraints=m,
        eval_f=eval_f, eval_grad_f=eval_grad_f,
        eval_g=eval_g, eval_jacobian=eval_jacobian,
        projection=gdpa.ProjectionSpec.box(-box_radius * np.ones(d), box_radius * np.ones(d)),
        name=f"random-qq-{seed}",
    )


class StepApiQq:
    """The public step functions driven in a loop, as in acceptance gate 3."""

    def __init__(self, seed: int, smoke: bool, work_dir: Path):
        self.seed = seed
        self.instance_seeds = QQ_INSTANCE_SEEDS[:2] if smoke else QQ_INSTANCE_SEEDS
        self.steps = 50 if smoke else QQ_STEPS

    def setup(self):
        problems = [random_quadratic_problem(s) for s in self.instance_seeds]
        # Nominal starts as in acceptance gate 3.
        starts = [gdpa.project(p.projection, _start(
                      np.random.default_rng(10_000 + s).uniform(-2.0, 2.0, p.dim), self.seed, s))
                  for p, s in zip(problems, self.instance_seeds)]
        cfg = gdpa.GdpaConfig(tau=0.25, beta0=0.5, alpha01=0.5, alpha02=1.0, alpha03=1.0)
        return problems, starts, cfg

    def run(self, inputs, tracer=None):
        problems, starts, cfg = inputs
        if tracer is not None:
            for problem in problems:
                tracer.instrument_problem(problem)
        schedule, active_set = gdpa.schedule, gdpa.active_set
        primal_step, dual_step = gdpa.primal_step, gdpa.dual_step
        tau, steps = cfg.tau, self.steps
        finals = []
        t0 = time.perf_counter()
        for problem, x in zip(problems, starts):
            lam = np.zeros(problem.num_constraints)
            failure = ""
            try:
                gx = problem.g(x)
                for r in range(1, steps + 1):
                    alpha, beta, _ = schedule(cfg, r)
                    mask = active_set(gx, lam, beta, tau)
                    x = primal_step(problem, x, lam, alpha, beta, tau)
                    g_next = problem.g(x)
                    lam = dual_step(g_next, lam, mask, beta, tau)
                    gx = g_next
            except (gdpa.NumericalFailure, gdpa.NonFiniteError) as exc:
                failure = f"numerical failure: {exc}"
            finals.append((x, lam, failure))
        return time.perf_counter() - t0, finals

    def judge(self, inputs, finals) -> Execution:
        problems = inputs[0]
        ops, kkts = [], []
        h = hashlib.sha256()
        for problem, (x, lam, failure) in zip(problems, finals):
            op = Op(problem.name, {"x": x, "lambda": lam}, failure)
            if not failure and not (_finite(x, lam) and np.all(lam >= 0.0)):
                op.failure = "non-finite or negative final pair"
            kkts.append(None if op.failure
                        else gdpa.metrics.kkt_residual(problem, x, lam).max())
            h.update(np.asarray(x, dtype=np.float64).tobytes())
            h.update(np.asarray(lam, dtype=np.float64).tobytes())
            ops.append(op)
        return Execution(ops, _worst(kkts), h.hexdigest())


WORKLOADS = {
    "scaled-1d": ScaledOneD,
    "cmdp-100x10": Cmdp100x10,
    "cli-bench-1d": CliBench1d,
    "step-api-qq": StepApiQq,
}


# -- reference values --------------------------------------------------------


def reference_entry(execution: Execution) -> dict:
    """The stored form of an execution's outputs."""
    return {
        "kkt_max": execution.kkt_max,
        "digest": execution.digest,
        "ops": {op.name: {k: [float(v) for v in np.ravel(arr)] for k, arr in op.values.items()}
                for op in execution.ops},
    }


def _close(actual, expected) -> bool:
    a = np.ravel(np.asarray(actual, dtype=float))
    b = np.ravel(np.asarray(expected, dtype=float))
    return a.shape == b.shape and bool(
        np.max(np.abs(a - b), initial=0.0) <= REFERENCE_RTOL * np.max(np.abs(b), initial=0.0))


def check_against_reference(execution: Execution, ref: dict) -> None:
    """Fail each operation whose outputs differ from the stored reference."""
    kkt_ok = _close(execution.kkt_max, ref["kkt_max"])
    for op in execution.ops:
        if op.failure:
            continue
        stored = ref["ops"].get(op.name)
        if stored is None:
            op.failure = "operation missing from the reference"
        elif not all(_close(np.ravel(op.values[k]), v) for k, v in stored.items()):
            op.failure = "final values differ from the reference"
        elif not kkt_ok:
            op.failure = f"kkt_max {execution.kkt_max!r} differs from the reference {ref['kkt_max']!r}"
