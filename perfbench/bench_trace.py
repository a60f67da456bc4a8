"""Spans and counts recorded around calls into the gdpa layers, from outside.

A :class:`Tracer` replaces entry points of each layer with wrappers that
record one span per call (name, start, end, parent span, run id) and restores
every replaced attribute when it exits. The library itself is not modified:
spans sit at the boundaries the benchmark can reach (the built problem's
callbacks and accessors, ``make_record`` as bound in the solver and the
baselines, ``kkt_residual`` as bound where the library calls it, the solvers,
the public step functions and ``gdpa.cli.write_trace``). Projection inside
``gdpa.vec`` is counted in the calling solver span's self time.

Wrapping costs a few microseconds per call, so end-to-end figures come only
from untraced executions.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter

import numpy as np

import gdpa
import gdpa.baselines
import gdpa.cli
import gdpa.problems.analytic
import gdpa.solver

CALLBACK_SPANS = {"eval_f": "problems.f", "eval_grad_f": "problems.grad_f",
                  "eval_g": "problems.g", "eval_jacobian": "problems.jac"}
ACCESSOR_SPANS = {"f": "problem.f", "grad_f": "problem.grad_f",
                  "g": "problem.g", "jacobian": "problem.jacobian"}
SOLVER_SPANS = ("solver.solve", "solver.schedule", "solver.active_set",
                "solver.primal_step", "solver.dual_step")
BASELINE_SPANS = {"penalty": "baselines.penalty", "alm": "baselines.alm"}

PER_LAYER_UNITS = {
    **{f"problems.{k}.calls": "count" for k in ("f", "grad_f", "g", "jac")},
    **{f"problems.{k}.s": "s" for k in ("f", "grad_f", "g", "jac")},
    "problem.accessor.calls": "count",
    "problem.accessor.self_s": "s",
    "solver.iters": "count",
    "solver.self_s": "s",
    "solver.us_per_iter": "us",
    "solver.active_frac": "ratio",
    "solver.primal_step.self_s": "s",
    "solver.dual_step.self_s": "s",
    "metrics.record.calls": "count",
    "metrics.record.self_s": "s",
    "metrics.kkt.calls": "count",
    "metrics.kkt.s": "s",
    "baselines.penalty.steps": "count",
    "baselines.penalty.self_s": "s",
    "baselines.alm.steps": "count",
    "baselines.alm.self_s": "s",
    "cli.write_trace.rows": "count",
    "cli.write_trace.s": "s",
    "cli.bytes_written": "B",
    "cli.self_s": "s",
    "trace.run_s": "s",
    "trace.overhead_frac": "ratio",
    "check.trace_digest_match": "bool",
}


class Tracer:
    """Span recorder and attribute patcher; use as a context manager.

    Spans are appended to flat arrays and kept in memory until :meth:`save`.
    ``begin_run`` starts a new run id; :meth:`run_metrics` aggregates the
    spans of the current run into the per-layer metrics.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_run = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: Counter = Counter()
        self.run_id = -1
        self._run_first = 0
        self._open = -1
        self._patches: list[tuple] = []
        self._instrumented: set[int] = set()

    # -- recording ----------------------------------------------------------

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so that each call records one span."""
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(name)
        span_name, span_parent, span_run = self.span_name, self.span_parent, self.span_run
        span_start, span_end = self.span_start, self.span_end
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(span_name)
            parent = self._open
            span_name.append(nid)
            span_parent.append(parent)
            span_run.append(self.run_id)
            span_start.append(0.0)
            span_end.append(0.0)
            self._open = idx
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span_end[idx] = clock()
                span_start[idx] = t0
                self._open = parent

        return traced

    def patch(self, obj, attr: str, replacement) -> None:
        """Set ``obj.attr`` to ``replacement``, remembering how to undo it."""
        own = attr in vars(obj)
        self._patches.append((obj, attr, getattr(obj, attr), own))
        setattr(obj, attr, replacement)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            obj, attr, original, own = self._patches.pop()
            if own:
                setattr(obj, attr, original)
            else:
                delattr(obj, attr)
        self._instrumented.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- what gets wrapped --------------------------------------------------

    def instrument_problem(self, problem) -> None:
        """Wrap a problem's callbacks and its accessors (as instance attributes)."""
        if id(problem) in self._instrumented:
            return
        self._instrumented.add(id(problem))
        for attr, name in CALLBACK_SPANS.items():
            fn = getattr(problem, attr)
            if fn is not None:
                self.patch(problem, attr, self.wrap(name, fn))
        for attr, name in ACCESSOR_SPANS.items():
            self.patch(problem, attr, self.wrap(name, getattr(problem, attr)))

    def _count_iteration(self, r, x_next, lam_prev, lam_next, mask, g_next) -> None:
        self.counts["solve.iters"] += 1
        if mask.any():
            self.counts["active"] += 1

    def _solve(self, fn):
        traced = self.wrap("solver.solve", fn)

        def solve(problem, cfg, x0, *args, **kwargs):
            self.instrument_problem(problem)
            if kwargs.get("on_iteration") is None:
                kwargs["on_iteration"] = self._count_iteration
            return traced(problem, cfg, x0, *args, **kwargs)

        return solve

    def _instrumenting(self, name: str, fn):
        # For entry points whose first argument is the problem.
        traced = self.wrap(name, fn)

        def entry(problem, *args, **kwargs):
            self.instrument_problem(problem)
            return traced(problem, *args, **kwargs)

        return entry

    def _active_set(self, fn):
        traced = self.wrap("solver.active_set", fn)

        def active_set(*args, **kwargs):
            mask = traced(*args, **kwargs)
            if mask.any():
                self.counts["active"] += 1
            return mask

        return active_set

    def _write_trace(self, fn):
        traced = self.wrap("cli.write_trace", fn)

        def write_trace(path, records):
            self.counts["write_trace.rows"] += len(records)
            return traced(path, records)

        return write_trace

    def install(self) -> None:
        """Patch the entry points of every layer at the names callers use."""
        record = self.wrap("metrics.record", gdpa.metrics.make_record)
        self.patch(gdpa.solver, "make_record", record)
        self.patch(gdpa.baselines, "make_record", record)
        kkt = self.wrap("metrics.kkt", gdpa.metrics.kkt_residual)
        self.patch(gdpa.problems.analytic, "kkt_residual", kkt)
        self.patch(gdpa.cli, "kkt_residual", kkt)
        solve = self._solve(gdpa.solver.solve)
        self.patch(gdpa, "solve", solve)
        self.patch(gdpa.cli, "solve", solve)
        self.patch(gdpa.cli, "solve_penalty",
                   self._instrumenting(BASELINE_SPANS["penalty"], gdpa.baselines.solve_penalty))
        self.patch(gdpa.cli, "solve_alm",
                   self._instrumenting(BASELINE_SPANS["alm"], gdpa.baselines.solve_alm))
        self.patch(gdpa, "schedule", self.wrap("solver.schedule", gdpa.solver.schedule))
        self.patch(gdpa, "active_set", self._active_set(gdpa.solver.active_set))
        self.patch(gdpa, "primal_step",
                   self._instrumenting("solver.primal_step", gdpa.solver.primal_step))
        self.patch(gdpa, "dual_step", self.wrap("solver.dual_step", gdpa.solver.dual_step))
        self.patch(gdpa.cli, "write_trace", self._write_trace(gdpa.cli.write_trace))
        self.patch(gdpa.cli, "main", self.wrap("cli.main", gdpa.cli.main))

    # -- aggregation --------------------------------------------------------

    def begin_run(self) -> None:
        self.run_id += 1
        self._run_first = len(self.span_name)
        self.counts.clear()

    def run_metrics(self, run_s: float, bytes_written: int) -> dict:
        """Per-layer metrics of the current run, from its spans and counts."""
        lo = self._run_first
        # Slicing copies, so the arrays stay free to grow after this call.
        names = np.frombuffer(self.span_name[lo:], dtype=np.int32)
        parents = np.frombuffer(self.span_parent[lo:], dtype=np.int32) - lo
        dur = (np.frombuffer(self.span_end[lo:], dtype=np.float64)
               - np.frombuffer(self.span_start[lo:], dtype=np.float64))
        child = np.zeros_like(dur)
        nested = parents >= 0
        np.add.at(child, parents[nested], dur[nested])
        self_t = dur - child

        def ids(*span_names):
            return [self._name_ids[n] for n in span_names if n in self._name_ids]

        def sel(*span_names):
            return np.isin(names, ids(*span_names))

        def calls(*span_names):
            return int(np.count_nonzero(sel(*span_names)))

        def total(*span_names):
            return float(dur[sel(*span_names)].sum())

        def own(*span_names):
            return float(self_t[sel(*span_names)].sum())

        def steps_under(parent_name):
            # Each inner step of a baseline reads the gradient once.
            grad = sel("problem.grad_f") & nested
            return int(np.count_nonzero(np.isin(names[parents[grad]], ids(parent_name))))

        out = {}
        for key, name in (("f", "problems.f"), ("grad_f", "problems.grad_f"),
                          ("g", "problems.g"), ("jac", "problems.jac")):
            out[f"problems.{key}.calls"] = calls(name)
            out[f"problems.{key}.s"] = total(name)
        accessors = tuple(ACCESSOR_SPANS.values())
        out["problem.accessor.calls"] = calls(*accessors)
        out["problem.accessor.self_s"] = own(*accessors)

        iters = self.counts["solve.iters"] + calls("solver.primal_step")
        solver_top = sel(*SOLVER_SPANS)
        solver_top[nested] &= ~np.isin(names[parents[nested]], ids(*SOLVER_SPANS))
        out["solver.iters"] = iters
        out["solver.self_s"] = own(*SOLVER_SPANS)
        out["solver.us_per_iter"] = 1e6 * float(dur[solver_top].sum()) / iters if iters else 0.0
        out["solver.active_frac"] = self.counts["active"] / iters if iters else 0.0
        out["solver.primal_step.self_s"] = own("solver.primal_step")
        out["solver.dual_step.self_s"] = own("solver.dual_step")

        out["metrics.record.calls"] = calls("metrics.record")
        out["metrics.record.self_s"] = own("metrics.record")
        out["metrics.kkt.calls"] = calls("metrics.kkt")
        out["metrics.kkt.s"] = total("metrics.kkt")

        for key, name in BASELINE_SPANS.items():
            out[f"baselines.{key}.steps"] = steps_under(name)
            out[f"baselines.{key}.self_s"] = own(name)

        out["cli.write_trace.rows"] = self.counts["write_trace.rows"]
        out["cli.write_trace.s"] = total("cli.write_trace")
        out["cli.bytes_written"] = bytes_written
        out["cli.self_s"] = own("cli.main")
        out["trace.run_s"] = run_s
        return out

    def save(self, path) -> None:
        """Write every recorded span to ``path`` (numpy ``.npz``)."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.array(self.span_name, dtype=np.int32),
            parent=np.array(self.span_parent, dtype=np.int32),
            run=np.array(self.span_run, dtype=np.int32),
            start=np.array(self.span_start, dtype=np.float64),
            end=np.array(self.span_end, dtype=np.float64),
        )
