import dataclasses
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from gdpa import (cli, effective_constants, fit_rate, solve, solve_alm, solve_penalty,
                  validate_alpha, validate_tau)
from gdpa.metrics import IterationRecord
from gdpa.problems import build_analytic

CONFIGS = Path(__file__).parents[1] / "configs"


def assert_one_line_naming(capsys, text):
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and text in err, err


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=2))
    return str(path)


def scaled_1d_config(tmp_path, out, max_iters=2000, **solver_overrides):
    solver = {"kind": "gdpa", "tau": 0.1, "beta0": 1.0, "max_iters": max_iters,
              "eps_feas": 1e-14, "eps_stat": 1e-14}
    solver.update(solver_overrides)
    return write_config(tmp_path, {
        "problem": {"kind": "analytic", "id": "scaled-1d"},
        "solver": solver,
        "out_dir": str(out),
        "record_every": 10,
        "seed": 0,
    })


# grad f and f overflow at almost every point: reg_lambda * x exceeds the float range
MNPC_OVERFLOW = {"kind": "mnpc", "num_classes": 3, "d_in": 4, "per_class": 5,
                 "thresholds": [1.0, 1.0], "reg_lambda": 1e308}

CMDP_NAN = {"kind": "cmdp", "num_states": 5, "num_actions": 3, "thresholds": [math.nan]}
MNPC_SMALL = {"kind": "mnpc", "num_classes": 3, "d_in": 2, "per_class": 4,
              "thresholds": [1.0, 1.0]}


def read_trace(path):
    """The records of a trace that ``cli.write_trace`` wrote."""
    rows = (line.split(",") for line in Path(path).read_text().splitlines()[1:])
    return [IterationRecord(int(r), *map(float, values)) for r, *values in rows]


def write_csv(tmp_path, bad=False):
    """Three classes of three samples with two features; ``bad`` puts a nan in one."""
    rows = np.random.default_rng(0).standard_normal((9, 2))
    if bad:
        rows[4, 1] = math.nan
    path = tmp_path / "data.csv"
    path.write_text("class,f1,f2\n" + "".join(
        f"{i % 3},{a!r},{b!r}\n" for i, (a, b) in enumerate(rows.tolist())))
    return str(path)


def write_sparse_csv(tmp_path, top):
    """Classes 0, 1 and ``top`` of one sample each: class 2 has no samples."""
    path = tmp_path / "sparse.csv"
    path.write_text(f"class,f1\n0,0.1\n1,0.2\n{top},0.3\n")
    return str(path)


class TestSolveCommand:
    def test_writes_outputs_and_converges(self, tmp_path):
        out = tmp_path / "run"
        cfg = scaled_1d_config(tmp_path, out, max_iters=30_000)
        assert cli.main(["solve", "--config", cfg]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert abs(summary["x_final"][0] - 1.0) <= 1e-2
        assert summary["termination"] == "budget-exhausted"
        assert summary["iterations"] == 30_000
        assert summary["us_per_iter"] == 1e6 * summary["wall_seconds"] / 30_000
        assert sorted(p.name for p in out.iterdir()) == ["summary.json", "trace.csv"]

    def test_summary_reports_the_step_size_conditions_and_stderr_stays_empty(self, tmp_path):
        # the conditions were WARNING lines on stderr and in a warnings.log
        cfg = json.loads(Path(scaled_1d_config(tmp_path, tmp_path / "unused", 50)).read_text())
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items() if k != "GDPA_LOG_LEVEL"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        theory = {}
        for kind, solver in (("gdpa", cfg["solver"]),
                             ("alm", {"kind": "alm", "inner_iters": 5, "outer_iters": 2})):
            out = tmp_path / kind
            path = write_config(tmp_path, {**cfg, "solver": solver, "out_dir": str(out)})
            proc = subprocess.run([sys.executable, "-m", "gdpa.cli", "solve", "--config", path],
                                  capture_output=True, text=True, env=env)
            assert proc.returncode == 0 and proc.stderr == "", proc.stderr
            theory[kind] = json.loads((out / "summary.json").read_text())["theory"]
        gdpa_cfg = cli.build_solver_config(cfg["solver"], None)[1]
        constants = effective_constants(build_analytic("scaled-1d").problem, cfg["seed"])
        tau = validate_tau(gdpa_cfg, constants)
        alpha = validate_alpha(gdpa_cfg, constants, lambda_norm=0.0, r=1)
        assert theory["gdpa"] == {"tau_bound": tau.bound, "tau_ok": tau.ok,
                                  "alpha_1_required": alpha.bound, "alpha_1_ok": alpha.ok}
        assert theory["gdpa"]["tau_ok"] is False and theory["gdpa"]["alpha_1_ok"] is False
        assert theory["alm"] is None

    def test_failure_before_the_first_step_gives_null_us_per_iter(self, tmp_path):
        # g(x0) overflows (x0 @ x0 is inf), so the run fails before step 1
        out = tmp_path / "run"
        cfg = write_config(tmp_path, {
            "problem": {"kind": "analytic", "id": "circle-exterior", "x0": [1e200, 0.0]},
            "solver": {"kind": "gdpa", "max_iters": 10}})
        assert cli.main(["solve", "--config", cfg, "--out", str(out)]) == 3
        summary = json.loads((out / "summary.json").read_text())
        assert summary["failure_message"].startswith("initial evaluation: ")
        assert summary["iterations"] == 0
        assert summary["us_per_iter"] is None
        assert "us_per_iter" not in summary["non_finite"]

    @pytest.mark.parametrize("content, says", [
        (b'{"seed": ' + b"1" * 5000 + b"}", "Exceeds the limit (4300 digits)"),
        (b'{"seed": \xff\xfe 0}', "can't decode byte 0xff"),
        (b"[" * 200_000, "maximum recursion depth exceeded"),
        (None, "config error: cannot read config "),
        (b"{not json", "Expecting property name enclosed in double quotes"),
    ], ids=["4300-digit-int", "non-utf-8", "deep-nesting", "directory", "not-json"])
    def test_malformed_json_exits_2_in_one_line(self, tmp_path, capsys, content, says):
        # the first three ended in a traceback with exit 1; None makes the path a directory
        bad = tmp_path / "bad.json"
        if content is None:
            bad.mkdir()
        else:
            bad.write_bytes(content)
        assert cli.main(["solve", "--config", str(bad)]) == 2
        assert_one_line_naming(capsys, says)

    @pytest.mark.parametrize("command, override, says", [
        ("solve", {"problem": {"kind": "analytic", "id": "scaled-1d", "x0": ["a"]}},
         "'x0' must be a JSON array of numbers"),
        ("solve", {"problem": {"kind": "analytic", "id": "scaled-1d", "x0": [math.nan]}},
         "start point is not finite"),
        ("solve", {"problem": {"kind": "mnpc", "num_classes": 1e300, "d_in": 2,
                               "thresholds": [1.0]}}, "'num_classes' must be a JSON integer"),
        ("solve", {"solver": [1]}, "'solver' must be a JSON object"),
        ("solve", {"solver": {"max_iters": 2.5}}, "max_iters must be an integer"),
        ("solve", {"solver": {"max_iters": math.inf}}, "max_iters must be an integer"),
        ("solve", {"solver": {"alpha02": 1e308, "alpha03": 1e308}}, "alpha_r underflows"),
        ("benchmark", {"solvers": [1, 2]}, "every entry of 'solvers'"),
        ("benchmark", {"budget_grad_evals": "a"}, "'budget_grad_evals' must be"),
        ("benchmark", {"grid_points": "a"}, "'grid_points' must be"),
        ("solve", {"solver": {"alpha": [1, 1, 1]}}, "unknown solver keys (gdpa): ['alpha']"),
        ("solve", {"solver": {"zeta": 1, "alpha": 2}},
         "unknown solver keys (gdpa): ['alpha', 'zeta']"),
        ("solve", {"solver": {"kind": "penalty", "dense_until": -1}},
         "bad solver section (penalty): dense_until must be an integer in [0, 2**62], got -1"),
        ("solve", {"solver": {"kind": "alm", "dense_until": -1}},
         "bad solver section (alm): dense_until must be an integer in [0, 2**62], got -1"),
        ("solve", {"problem": {**MNPC_SMALL, "source": "parquet"}},
         "unknown dataset source 'parquet'"),
        ("solve", {"record_every": 2 ** 62 + 1},
         "'record_every' must be at most 2**62, got 4611686018427387905"),
        ("benchmark", {"record_every": 2 ** 62 + 1},
         "'record_every' must be at most 2**62, got 4611686018427387905"),
        ("solve", {"sover": {}}, "unknown config keys: ['sover']"),
        ("benchmark", {"solvers": [{"kind": "gdpa"}]},
         "benchmark requires at least two entries in 'solvers'"),
    ])
    def test_malformed_section_exits_2(self, tmp_path, capsys, command, override, says):
        # each of these ended in a traceback (exit 1) before the section checks, but the
        # last six: a gdpa section named only its first unknown key, in Python's words
        # ("unexpected keyword argument"), a baseline ran with a negative dense_until,
        # and a top-level record_every above 2**62 was refused as a solver section's key
        config = {"problem": {"kind": "analytic", "id": "scaled-1d"},
                  "solver": {"kind": "gdpa", "max_iters": 10}}
        if command == "benchmark":
            config = {"problem": config["problem"], "budget_grad_evals": 20,
                      "solvers": [{"kind": "gdpa"}, {"kind": "alm"}]}
        config.update(override)
        cfg = write_config(tmp_path, config)
        assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1 and says in err

    @pytest.mark.parametrize("solver", [{"kind": "gdpa", "beta0": math.inf},
                                        {"kind": "penalty", "rho0": math.inf}],
                             ids=["gdpa-beta0", "penalty-rho0"])
    def test_infinite_step_constant_exits_2(self, tmp_path, capsys, solver):
        # "beta0": Infinity ran, and exited 3 as a numerical failure
        key = "beta0" if "beta0" in solver else "rho0"
        cfg = write_config(tmp_path, {"problem": SECTIONS["analytic"], "solver": solver})
        assert cli.main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert_one_line_naming(capsys, f"{key} must be a finite positive number, got inf")

    def test_overflowing_average_leaks_no_warning(self, tmp_path, capsys):
        # the exit flush of the run's averages printed "overflow encountered in divide"
        cfg = write_config(tmp_path, {
            "problem": {**SECTIONS["analytic"], "x0": [1e10]},
            "solver": {"kind": "gdpa", "beta0": 1e-300, "max_iters": 50}})
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert "RuntimeWarning" not in capsys.readouterr().err
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["x_avg"] == [None]

    @pytest.mark.parametrize("problem", [
        {"kind": "mnpc", "num_classes": 10 ** 300, "d_in": 2, "thresholds": [1.0]},
        {"kind": "nn", "num_classes": 2, "d_in": 2, "hidden": 10 ** 300, "budgets": [1.0]},
        {"kind": "cmdp", "num_states": 100_000, "num_actions": 100_000},
        {"kind": "nn", "source": "csv", "hidden": 10 ** 300, "budgets": [1.0, 1.0]},
    ], ids=["mnpc-classes", "nn-hidden", "cmdp-states", "nn-csv-hidden"])
    def test_oversized_problem_exits_2_before_allocating(self, tmp_path, capsys, problem):
        # without the size cap the dataset generator loops without bound, or
        # numpy fails (or the machine runs out of memory) allocating the arrays
        if problem.get("source") == "csv":
            problem = {**problem, "path": write_csv(tmp_path)}
        cfg = write_config(tmp_path, {"problem": problem})
        tracemalloc.start()
        t0 = time.perf_counter()
        try:
            code = cli.main(["solve", "--config", cfg, "--out", str(tmp_path / "out")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and time.perf_counter() - t0 < 1.0
        assert peak < 2 ** 20
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "more than 100,000,000 float64 entries" in err

    @pytest.mark.parametrize("command, problem, says", [
        ("solve", CMDP_NAN, "thresholds must be finite"),
        ("check", CMDP_NAN, "thresholds must be finite"),
        ("solve", {**MNPC_SMALL, "noise_std": math.inf}, "features must be finite"),
        ("solve", {**MNPC_SMALL, "reg_lambda": math.inf}, "reg_lambda must be finite"),
        ("solve", {"kind": "mnpc", "source": "csv", "thresholds": [1.0, 1.0]},
         "features must be finite"),
        ("solve", {"kind": "nn", "source": "csv", "hidden": 2, "budgets": [1.0, 1.0]},
         "features must be finite"),
    ], ids=["cmdp-solve", "cmdp-check", "mnpc-noise", "mnpc-reg", "mnpc-csv", "nn-csv"])
    def test_non_finite_problem_data_exits_2(self, tmp_path, capsys, command, problem, says):
        # each exited 3 with "numerical failure: ... is not finite"
        if problem.get("source") == "csv":
            problem = {**problem, "path": write_csv(tmp_path, bad=True)}
        cfg = write_config(tmp_path, {"problem": problem, "out_dir": str(tmp_path / "out")})
        assert cli.main([command, "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: bad problem section: " + says)
        assert err.count("\n") == 1

    @pytest.mark.parametrize("problem, says", [
        ({"kind": "cmdp", "num_states": 5, "num_actions": 3, "num_constraint": 3},
         "unknown problem keys (cmdp): ['num_constraint']"),
        ({**MNPC_SMALL, "per_klass": 5, "noise": 0.1},
         "unknown problem keys (mnpc): ['noise', 'per_klass']"),
        ({"kind": "analytic", "id": "scaled-1d", "x0_scale": 0.1},
         "unknown problem keys (analytic): ['x0_scale']"),
        ({**MNPC_SMALL, "x0_scale": 0.1}, "unknown problem keys (mnpc): ['x0_scale']"),
        ({"kind": "nn", "num_classes": 2, "d_in": 2, "hidden": 2, "budgets": [1.0],
          "x0_scale": 0.1}, "unknown problem keys (nn): ['x0_scale']"),
    ], ids=["cmdp", "mnpc", "analytic", "mnpc-x0_scale", "nn-x0_scale"])
    def test_unknown_problem_key_exits_2(self, tmp_path, capsys, problem, says):
        # a problem section ignored the key: the cmdp one ran with 1 constraint
        cfg = write_config(tmp_path, {"problem": problem})
        assert cli.main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"config error: {says}\n"
        assert not (tmp_path / "out" / "trace.csv").exists()

    @pytest.mark.parametrize("problem, dim", [
        ({"kind": "mnpc", "thresholds": [1.0, 1.0]}, 3 * 2),
        ({"kind": "nn", "hidden": 3, "budgets": [1.0, 1.0]}, 2 * 3 + 3 * 3),
    ], ids=["mnpc", "nn"])
    def test_csv_dataset_solves(self, tmp_path, problem, dim):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, {
            "problem": {**problem, "source": "csv", "path": write_csv(tmp_path)},
            "solver": {"kind": "gdpa", "preset": problem["kind"], "max_iters": 50},
            "out_dir": str(out)})
        assert cli.main(["solve", "--config", cfg]) == 0
        assert len(read_trace(out / "trace.csv")) == 50
        # the decision variable is sized by the file: 3 classes, 2 features
        assert len(json.loads((out / "summary.json").read_text())["x_final"]) == dim

    @pytest.mark.parametrize("problem, top", [
        ({"kind": "mnpc", "thresholds": [1.0, 1.0]}, 10 ** 9),
        ({"kind": "nn", "hidden": 2, "budgets": [1.0, 1.0]}, 10 ** 7),  # within the size cap
    ], ids=["mnpc", "nn"])
    def test_sparse_class_id_exits_2_at_once(self, tmp_path, capsys, problem, top):
        # one block per class id was built before the empty class was found,
        # so time and memory grew with the largest id
        cfg = write_config(tmp_path, {"problem": {**problem, "source": "csv",
                                                  "path": write_sparse_csv(tmp_path, top)}})
        start = time.perf_counter()
        code = cli.main(["solve", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 2 and time.perf_counter() - start < 1.0
        assert_one_line_naming(capsys, "class 2 has no samples")

    def test_overflowing_constant_estimate_leaks_no_warning(self, tmp_path, capsys):
        # the sampled constant estimate overflows; it used to print numpy's
        # RuntimeWarning ahead of the one-line failure
        out = tmp_path / "run"
        cfg = write_config(tmp_path, {"problem": MNPC_OVERFLOW,
                                      "solver": {"kind": "gdpa", "max_iters": 20}})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["solve", "--config", cfg, "--out", str(out)]) == 3
        assert not caught
        summary = json.loads((out / "summary.json").read_text())
        assert "grad f(x) is not finite" in summary["theory"]["skipped"]
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and err.count("\n") == 1

    def test_start_point_where_a_callback_overflows_gives_null_residuals(self, tmp_path):
        # grad f overflows at x0, so the summary's residuals at x_final = x0
        # cannot be evaluated: they are written as null, not raised
        out = tmp_path / "run"
        cfg = write_config(tmp_path, {
            "problem": {"kind": "analytic", "id": "scaled-1d", "x0": [1e308]},
            "solver": {"kind": "gdpa", "max_iters": 10}})
        assert cli.main(["solve", "--config", cfg, "--out", str(out)]) == 3

        def reject(token):
            raise ValueError(f"summary.json is not strict JSON: {token}")

        summary = json.loads((out / "summary.json").read_text(), parse_constant=reject)
        assert summary["kkt_final"] == {"stationarity": None, "feasibility": None,
                                        "slackness": None}
        assert "kkt_final.stationarity" in summary["non_finite"]

    @pytest.mark.parametrize("d, g, jac", [
        (2, [1.0], [[0.0, 0.0]]),  # g = 1 everywhere and J = 0
        (1, [1.0, 1.0], [[1.0], [-1.0]]),  # J^T g+ = 1 - 1 = 0
    ], ids=["zero-jacobian", "cancelling-rows"])
    def test_a_zero_sigma_estimate_gives_tau_bound_1(self, tmp_path, monkeypatch, d, g, jac):
        # the theory block read {"skipped": "sigma must be strictly positive when supplied"}
        from gdpa import ConstrainedProblem

        def zero_sigma_problem(spec, seed):
            p = ConstrainedProblem(dim=d, num_constraints=len(g), eval_f=lambda x: 0.0,
                                   eval_grad_f=lambda x: np.zeros(d),
                                   eval_g=lambda x: np.array(g),
                                   eval_jacobian=lambda x: np.array(jac))
            return p, np.zeros(d)

        monkeypatch.setattr(cli, "build_problem", zero_sigma_problem)
        out = tmp_path / "run"
        cfg = write_config(tmp_path, {"problem": {"kind": "analytic", "id": "scaled-1d"},
                                      "solver": {"kind": "gdpa", "max_iters": 20},
                                      "out_dir": str(out)})
        assert cli.main(["solve", "--config", cfg]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["theory"]["tau_bound"] == 1.0 and summary["theory"]["tau_ok"] is False
        assert not [key for key in summary["non_finite"] if key.startswith("theory")]

    def test_numerical_failure_exits_3_with_partial_trace(self, tmp_path, monkeypatch):
        from gdpa import ConstrainedProblem

        def broken_problem(spec, seed):
            p = ConstrainedProblem(dim=1, num_constraints=0,
                                   eval_f=lambda x: float(x[0] ** 4),
                                   eval_grad_f=lambda x: 4.0 * x ** 3)
            return p, np.array([2.0])

        monkeypatch.setattr(cli, "build_problem", broken_problem)
        out = tmp_path / "run"
        cfg = write_config(tmp_path, {
            "problem": {"kind": "analytic", "id": "scaled-1d"},
            "solver": {"kind": "gdpa", "alpha01": 1e6, "max_iters": 100},
            "out_dir": str(out),
        })
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["solve", "--config", cfg]) == 3
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert (out / "trace.csv").exists()

        def reject(token):
            raise ValueError(f"summary.json is not strict JSON: {token}")

        summary = json.loads((out / "summary.json").read_text(), parse_constant=reject)
        assert summary["non_finite"] == ["kkt_final.stationarity", "kkt_avg.stationarity"]
        assert summary["kkt_final"]["stationarity"] is None
        assert summary["rates"]["columns"]["slackness"] == {
            "skipped": "only 0 records in window [1000.0, 100000.0]; need at least 10"}

    def test_summary_kkt_values_recompute(self, tmp_path):
        from gdpa import kkt_residual
        from gdpa.problems import build_analytic

        out = tmp_path / "run"
        cfg = scaled_1d_config(tmp_path, out, max_iters=2000, record_every=1)
        assert cli.main(["solve", "--config", cfg]) == 0
        summary = json.loads((out / "summary.json").read_text())
        problem = build_analytic("scaled-1d").problem
        records = read_trace(out / "trace.csv")
        recomputed = kkt_residual(problem, np.array(summary["x_avg"]),
                                  np.array(summary["lambda_avg"]),
                                  alpha=records[-1].alpha)
        for key, value in (("stationarity", recomputed.stationarity),
                           ("feasibility", recomputed.feasibility),
                           ("slackness", recomputed.slackness)):
            assert summary["kkt_avg"][key] == pytest.approx(value, rel=1e-8, abs=1e-12)

    def test_baseline_solver_through_cli(self, tmp_path):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, {
            "problem": {"kind": "analytic", "id": "scaled-1d"},
            "solver": {"kind": "penalty", "rho0": 1.0, "rho_growth": 10.0,
                       "inner_iters": 300, "inner_step": 9e-5, "outer_iters": 5},
            "out_dir": str(out),
        })
        assert cli.main(["solve", "--config", cfg]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["solver"] == "penalty"
        assert abs(summary["x_final"][0] - 1.0) <= 5e-2
        assert summary["rates"]["columns"]["stationarity_sq"]["n_points"] > 0

    def test_output_directory_under_a_file_exits_2(self, tmp_path, capsys):
        # creating it raised NotADirectoryError: a traceback and exit 1
        out = tmp_path / "file" / "out"
        out.parent.write_text("")
        cfg = scaled_1d_config(tmp_path, out, max_iters=10)
        assert cli.main(["solve", "--config", cfg]) == 2
        assert_one_line_naming(capsys, str(out))

    def test_log_level_env_is_honored(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GDPA_LOG_LEVEL", "debug")
        out = tmp_path / "run"
        cfg = scaled_1d_config(tmp_path, out, max_iters=50)
        assert cli.main(["solve", "--config", cfg]) == 0
        monkeypatch.setenv("GDPA_LOG_LEVEL", "bogus")  # falls back to warn
        assert cli.main(["solve", "--config", cfg, "--out", str(tmp_path / "r2")]) == 0


class TestBenchmarkCommand:
    def benchmark_config(self, tmp_path, out, budget=4000):
        return write_config(tmp_path, {
            "problem": {"kind": "analytic", "id": "scaled-1d"},
            "solvers": [
                {"name": "gdpa", "kind": "gdpa", "beta0": 1.0},
                {"name": "penalty", "kind": "penalty", "rho0": 1.0,
                 "inner_iters": 200, "inner_step": 9e-5},
            ],
            "budget_grad_evals": budget,
            "out_dir": str(out),
            "seed": 0,
        })

    @pytest.mark.parametrize("steps", [450, 600])
    @pytest.mark.parametrize("name", ["gdpa", "penalty", "alm"])
    def test_every_solver_runs_exactly_the_budgeted_steps(self, name, steps):
        # the budget need not fall on a round's end: it cuts ALM's one round
        # of 2000 steps, and the penalty method's second round of 300 at 450
        # (at 600 it ends that round)
        raw = json.loads((CONFIGS / "benchmark-scaled-1d.json").read_text())
        spec = next(spec for spec in raw["solvers"] if spec["name"] == name)
        kind, config = cli.build_solver_config(spec, 1, steps)
        problem, x0 = cli.build_problem(raw["problem"], 0)
        res = {"gdpa": solve, "penalty": solve_penalty, "alm": solve_alm}[kind](
            problem, config, x0)
        assert (res.termination, res.iterations) == ("budget-exhausted", steps)
        assert [rec.r for rec in res.trace] == list(range(1, steps + 1))

    def test_compare_table_has_shared_grid(self, tmp_path):
        out = tmp_path / "bench"
        cfg = self.benchmark_config(tmp_path, out)
        assert cli.main(["benchmark", "--config", cfg]) == 0
        lines = (out / "compare.csv").read_text().splitlines()
        assert lines[0] == "solver,grad_evals,wall_ms,stationarity_sq,feasibility,slackness"
        by_solver = {}
        for line in lines[1:]:
            parts = line.split(",")
            by_solver.setdefault(parts[0], []).append(int(parts[1]))
        assert set(by_solver) == {"gdpa", "penalty"}
        # identical grid where both have data
        assert by_solver["gdpa"] == by_solver["penalty"]
        assert (out / "trace_gdpa.csv").exists()
        assert (out / "trace_penalty.csv").exists()

    def test_both_solvers_reach_feasibility(self, tmp_path):
        out = tmp_path / "bench"
        cfg = write_config(tmp_path, {
            "problem": {"kind": "analytic", "id": "scaled-1d"},
            "solvers": [
                {"name": "gdpa", "kind": "gdpa", "beta0": 2.0},
                {"name": "penalty", "kind": "penalty", "rho0": 1.0,
                 "rho_growth": 10.0, "inner_iters": 300, "inner_step": 9e-5,
                 "outer_iters": 5},
            ],
            "budget_grad_evals": 20_000,
            "record_every": 1,
            "out_dir": str(out),
            "seed": 0,
        })
        assert cli.main(["benchmark", "--config", cfg]) == 0
        for name in ("gdpa", "penalty"):
            records = read_trace(out / f"trace_{name}.csv")
            assert min(rec.feasibility for rec in records) <= 1e-3, name

    def test_numerical_failure_exits_3_and_lists_only_the_spent_budget(self, tmp_path, capsys):
        # this exited 0 and repeated GDPA's diverged last row up to the budget
        out = tmp_path / "bench"
        cfg = write_config(tmp_path, {
            "problem": {"kind": "analytic", "id": "scaled-1d"},
            "solvers": [{"name": "gdpa", "kind": "gdpa", "alpha01": 1e6},
                        {"name": "alm", "kind": "alm", "inner_iters": 20}],
            "budget_grad_evals": 200,
            "out_dir": str(out),
            "seed": 0,
        })
        assert cli.main(["benchmark", "--config", cfg]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: gdpa: iteration 27: ")
        assert err.count("\n") == 1
        rows = [line.split(",") for line in (out / "compare.csv").read_text().splitlines()[1:]]
        points = {name: [int(r[1]) for r in rows if r[0] == name] for name in ("gdpa", "alm")}
        assert points["gdpa"] and max(points["gdpa"]) <= 2 * 27  # 27 steps began
        assert max(points["alm"]) == 200
        assert len(read_trace(out / "trace_gdpa.csv")) == 26
        assert read_trace(out / "trace_alm.csv")

    @pytest.mark.parametrize("solvers, says", [
        ([{"name": "a", "kind": "gdpa"}, {"name": "a", "kind": "alm"}], "got 'a'"),
        ([{"kind": "gdpa"}, {"name": 1, "kind": "alm"}], "got 1"),
        ([{"name": "a", "kind": "gdpa"}, {"name": "b", "kind": "alm", "inner_iters": 0}],
         "bad solver section (alm)"),
        ([{"name": "gd,pa", "kind": "gdpa"}, {"name": "alm", "kind": "alm"}], "got 'gd,pa'"),
        ([{"name": "gdpa", "kind": "gdpa"}, {"name": "pen/alty", "kind": "penalty"}],
         "got 'pen/alty'"),
        *(([{"name": name, "kind": "gdpa"}, {"kind": "alm"}], f"got {name!r}")
          for name in ("", None, 0, False, [])),
    ], ids=["duplicate-name", "non-string-name", "bad-last-section", "comma-in-name",
            "slash-in-last-name", "empty-name", "null-name", "zero-name", "false-name",
            "empty-list-name"])
    def test_bad_solver_list_exits_2_before_any_solver_runs(self, tmp_path, capsys,
                                                            solvers, says):
        # the sections before a bad one ran and wrote their traces first, two
        # solvers named "a" exited 0 with one trace_a.csv and mixed compare rows,
        # "gd,pa" exited 0 with 7-field compare rows under a 6-field header, and
        # a falsy name ran as "gdpa-0"
        out = tmp_path / "bench"
        cfg = write_config(tmp_path, {
            "problem": {"kind": "analytic", "id": "scaled-1d"},
            "solvers": solvers,
            "budget_grad_evals": 20,
            "out_dir": str(out),
        })
        assert cli.main(["benchmark", "--config", cfg]) == 2
        assert_one_line_naming(capsys, says)
        assert not list(out.glob("trace_*.csv"))

    def test_grid_points_before_the_first_row_are_skipped(self, tmp_path):
        # with dense_until 0 gdpa's first row is r = 10, at 20 grad evals
        out = tmp_path / "bench"
        cfg = write_config(tmp_path, {
            "problem": {"kind": "analytic", "id": "scaled-1d"}, "budget_grad_evals": 200,
            "solvers": [{"name": "gdpa", "kind": "gdpa", "dense_until": 0},
                        {"name": "alm", "kind": "alm"}],
            "grid_points": 20, "out_dir": str(out)})
        assert cli.main(["benchmark", "--config", cfg]) == 0
        rows = [line.split(",") for line in (out / "compare.csv").read_text().splitlines()[1:]]
        points = {name: [int(r[1]) for r in rows if r[0] == name] for name in ("gdpa", "alm")}
        assert points["alm"][:3] == [2, 3, 4]
        assert points["gdpa"] == [p for p in points["alm"] if p >= 20]

    def test_solver_table_uses_the_module_names_at_call_time(self, tmp_path, monkeypatch):
        # the fuzz tests and the perfbench tracer patch these names
        seen = []
        for name in ("GdpaConfig", "PenaltyConfig", "solve", "solve_penalty"):
            real = getattr(cli, name)
            monkeypatch.setattr(cli, name, lambda *a, _name=name, _real=real, **kw:
                                seen.append(_name) or _real(*a, **kw))
        cfg = self.benchmark_config(tmp_path, tmp_path / "bench", budget=40)
        assert cli.main(["benchmark", "--config", cfg]) == 0
        assert seen == ["GdpaConfig", "PenaltyConfig", "solve", "solve_penalty"]

    def test_output_directory_under_a_file_exits_2(self, tmp_path, capsys):
        out = tmp_path / "file" / "out"
        out.parent.write_text("")
        cfg = self.benchmark_config(tmp_path, out, budget=40)
        assert cli.main(["benchmark", "--config", cfg]) == 2
        assert_one_line_naming(capsys, str(out))

    @pytest.mark.parametrize("solvers, budget, grid_points, says", [
        ([{"kind": "gdpa"}, {"kind": "alm"}], 200, 10 ** 11,
         "'grid_points' must lie in [1, 200], got 100000000000"),
        ([{"kind": "gdpa"}, {"kind": "alm"}], 10 ** 12, 10 ** 11,
         "'grid_points' must lie in [1, 10000], got 100000000000"),
        ([{"kind": "gdpa", "alpha01": 1e-323, "max_iters": 1}, {"kind": "alm"}],
         2000, None, "bad solver section (gdpa): alpha_r underflows to 0"),
        ([{"kind": "gdpa"}, {"kind": "alm"}], 1, None,
         "'budget_grad_evals' must cover one step, 2 evals, got 1"),
    ], ids=["grid-above-budget", "grid-above-the-cap", "alpha-underflows-at-the-budget",
            "budget-below-one-step"])
    def test_out_of_range_setting_exits_2_before_any_solver_runs(
            self, tmp_path, capsys, solvers, budget, grid_points, says):
        # the grid ended in a traceback (np.logspace asked for 745 GiB); the
        # budgeted gdpa config skipped the checks its own max_iters had passed
        out = tmp_path / "bench"
        cfg = write_config(tmp_path, {
            "problem": {"kind": "analytic", "id": "scaled-1d"}, "solvers": solvers,
            "budget_grad_evals": budget, "grid_points": grid_points, "out_dir": str(out)})
        assert cli.main(["benchmark", "--config", cfg]) == 2
        assert_one_line_naming(capsys, says)
        assert not list(out.glob("trace_*.csv"))

    @pytest.mark.parametrize("budget", [0, 2 ** 62 + 1, 10 ** 30])
    def test_budget_outside_1_to_2_62_exits_2(self, tmp_path, capsys, budget):
        # 10**30 overflowed the grid's int cast with a RuntimeWarning, then ran
        # GDPA with max_iters = 5e29
        out = tmp_path / "bench"
        cfg = self.benchmark_config(tmp_path, out, budget=budget)
        assert cli.main(["benchmark", "--config", cfg]) == 2
        assert_one_line_naming(capsys, "'budget_grad_evals' in [1, 2**62]")
        assert not list(out.glob("trace_*.csv"))


# one valid problem section per kind and dataset source of the key tables
SECTIONS = {
    "analytic": {"kind": "analytic", "id": "scaled-1d"},
    "mnpc": MNPC_SMALL,
    "mnpc-csv": {"kind": "mnpc", "source": "csv", "thresholds": [1.0, 1.0]},
    "nn": {"kind": "nn", "num_classes": 2, "d_in": 2, "per_class": 3, "hidden": 2,
           "budgets": [1.0]},
    "nn-csv": {"kind": "nn", "source": "csv", "hidden": 2, "budgets": [1.0, 1.0]},
    "cmdp": {"kind": "cmdp", "num_states": 3, "num_actions": 2},
}
SOLVERS = {"gdpa": (cli.GdpaConfig, {"max_iters": 5}),
           "penalty": (cli.PenaltyConfig, {"inner_iters": 5, "outer_iters": 1}),
           "alm": (cli.AlmConfig, {"inner_iters": 5, "outer_iters": 1})}


def section_table(section):
    """The key table of ``section``: "top" or a key of SECTIONS."""
    if section == "top":
        return cli._TOP_KEYS
    table = cli._PROBLEMS[SECTIONS[section]["kind"]]
    if "source" in table:
        table = {**table, **cli._SOURCES[SECTIONS[section].get("source", table["source"][1])]}
    return table


def schema_keys(keep):
    """(section, key) for every key of the top and problem tables whose
    (type, default, least value) ``keep`` accepts."""
    return [(section, key) for section in ["top", *SECTIONS]
            for key, entry in section_table(section).items() if keep(*entry)]


def schema_config(tmp_path, section, key, value=None, delete=False):
    """A solve config with ``key`` of ``section`` ("top", a key of SECTIONS or a
    solver kind) set to ``value``, or deleted."""
    problem = dict(SECTIONS.get(section, SECTIONS["analytic"]))
    if problem.get("source") == "csv":
        problem["path"] = write_csv(tmp_path)
    kind = section if section in SOLVERS else "gdpa"
    config = {"problem": problem, "solver": {"kind": kind, **SOLVERS[kind][1]}}
    target = config if section == "top" else config["solver"] if section in SOLVERS \
        else problem
    if delete:
        del target[key]
    else:
        target[key] = value
    return write_config(tmp_path, config)


class TestConfigSchema:
    @pytest.mark.parametrize("command", ["check", "solve"])
    @pytest.mark.parametrize("spelling", ["file", "flag"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, command, spelling):
        # numpy's "expected non-negative integer" ended `check` in a traceback
        config = {"problem": SECTIONS["analytic"], "solver": {"kind": "gdpa", "max_iters": 5}}
        if spelling == "file":
            config["seed"] = -1
        cfg = write_config(tmp_path, config)
        argv = [command, "--config", cfg] + (["--seed", "-5"] if spelling == "flag" else [])
        assert cli.main(argv + ([] if command == "check" else ["--out", str(tmp_path)])) == 2
        assert_one_line_naming(capsys, "'seed' must be at least 0")

    @pytest.mark.parametrize("section, key", schema_keys(
        lambda want, default, least: least is not None))
    def test_value_below_its_least_exits_2(self, tmp_path, capsys, section, key):
        least = section_table(section)[key][2]
        cfg = schema_config(tmp_path, section, key, least - 1)
        assert cli.main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert_one_line_naming(capsys, f"'{key}' must be at least {least}")

    @pytest.mark.parametrize("value", [True, "1"], ids=["bool", "string"])
    @pytest.mark.parametrize("section, key", schema_keys(
        lambda want, default, least: want in (int, float)) + [
        (kind, field.name) for kind, (cls, _) in SOLVERS.items()
        for field in dataclasses.fields(cls)])
    def test_boolean_or_string_for_a_number_exits_2(self, tmp_path, capsys, section, key,
                                                    value):
        # `true` ran as 1 and "0.5" as 0.5 wherever a float() or a comparison took them
        cfg = schema_config(tmp_path, section, key, value)
        assert cli.main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert_one_line_naming(capsys, key)

    @pytest.mark.parametrize("value", ["0.5", True, None, 10 ** 400],
                             ids=["string", "bool", "null", "huge"])
    @pytest.mark.parametrize("section, key", schema_keys(
        lambda want, default, least: want is cli.NUMBERS))
    def test_list_entry_that_is_not_a_float_exits_2(self, tmp_path, capsys, section, key,
                                                     value):
        # "0.5" and true ran as numbers, null said "contains NaN or Inf", and
        # 10**400 ended in an OverflowError traceback
        cfg = schema_config(tmp_path, section, key, [value])
        assert cli.main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert_one_line_naming(capsys, f"'{key}'")

    @pytest.mark.parametrize("section, key", schema_keys(
        lambda want, default, least: want is float) + [
        (kind, field.name) for kind, (cls, _) in SOLVERS.items()
        for field in dataclasses.fields(cls) if type(field.default) is float])
    def test_integer_beyond_the_float_range_exits_2(self, tmp_path, capsys, section, key):
        # a solver field ended in an OverflowError traceback, from schedule() or mid-run
        cfg = schema_config(tmp_path, section, key, 10 ** 400)
        assert cli.main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and key in err and "is beyond the float range" in err, err

    @pytest.mark.parametrize("section, key", schema_keys(
        lambda want, default, least: default is cli.REQUIRED))
    def test_missing_required_key_is_named(self, tmp_path, capsys, section, key):
        # a missing key showed as a KeyError repr: "bad problem section: 'd_in'"
        cfg = schema_config(tmp_path, section, key, delete=True)
        assert cli.main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        if key == "kind":  # no table applies without it
            says = "unknown problem kind None; choose one of"
        else:
            where = "config keys" if section == "top" else \
                f"problem keys ({SECTIONS[section]['kind']})"
            says = f"missing {where}: '{key}'"
        assert_one_line_naming(capsys, says)

    @pytest.mark.parametrize("preset", ["zz", ["a"]])
    def test_unknown_preset_lists_the_presets(self, tmp_path, capsys, preset):
        # these said "bad solver section (gdpa): 'zz'" and "unhashable type: 'list'"
        cfg = write_config(tmp_path, {"problem": MNPC_SMALL,
                                      "solver": {"kind": "gdpa", "preset": preset}})
        assert cli.main(["solve", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert_one_line_naming(
            capsys, f"unknown preset {preset!r}; choose one of ['cmdp', 'mnpc', 'nn']")

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.json")), ids=lambda path: path.stem)
    def test_every_shipped_config_builds(self, path):
        cfg = cli.load_config(path)
        problem, x0 = cli.build_problem(cfg.problem, cfg.seed)
        assert x0.shape == (problem.dim,)
        budget = cfg.budget_grad_evals
        for spec in cfg.solvers or [cfg.solver]:
            cli.build_solver_config(spec, cfg.record_every,
                                    None if budget is None else max(1, budget // 2))


def synthetic_records(value_fn, n=2000):
    """Rows r = 1..n whose three rate columns all read ``value_fn(r)``."""
    return [IterationRecord(r=r, alpha=1.0, beta=1.0, gamma=1.0, f_value=0.0,
                            F_beta_value=0.0, stationarity_sq=value_fn(r),
                            feasibility=value_fn(r), slackness=value_fn(r), lambda_norm=0.0)
            for r in range(1, n + 1)]


class TestRates:
    # (stationarity_sq, feasibility_sq, slackness) slopes and passes, or None when
    # too few rows lie in the window; the squared feasibility doubles its slope
    @pytest.mark.parametrize("value_fn, n, n_points, slopes, passes", [
        (lambda r: r ** (-2 / 3), 2000, 1001, (-2 / 3, -4 / 3, -2 / 3), (True, True, True)),
        (lambda r: 0.5, 2000, 1001, (0.0, 0.0, 0.0), (False, False, False)),
        (lambda r: r ** -0.4, 2000, 1001, (-0.4, -0.8, -0.4), (False, True, True)),
        # the inf row is left out of the fit, so no slope reads NaN
        (lambda r: math.inf if r == 1000 else r ** -0.6, 2000, 1000, (-0.6, -1.2, -0.6),
         (True, True, True)),
        (lambda r: 1.0 / r, 1005, 6, None, None),
    ], ids=["power-law", "constant", "ceilings", "inf-row", "too-few-points"])
    def test_synthetic_trace(self, value_fn, n, n_points, slopes, passes):
        rates = cli._rates(synthetic_records(value_fn, n))
        json.dumps(rates, allow_nan=False)
        assert rates["window"] == [1000.0, 100000.0]
        columns = rates["columns"]
        if slopes is None:
            says = f"only {n_points} records in window [1000.0, 100000.0]; need at least 10"
            assert columns == {column: {"skipped": says} for column in cli._RATE_COLUMNS}
            return
        assert {column: row["ceiling"] for column, row in columns.items()} == {
            "stationarity_sq": -0.5, "feasibility_sq": -0.5, "slackness": -0.25}
        assert [row["slope"] for row in columns.values()] == pytest.approx(slopes, abs=1e-9)
        assert tuple(row["pass"] for row in columns.values()) == passes
        assert all(row["n_points"] == n_points for row in columns.values())

    def test_rows_at_one_r_are_skipped(self):
        rows = [dataclasses.replace(row, r=1000)
                for row in synthetic_records(lambda r: 1.0 / r, 10)]
        says = "all 10 envelope points share r = 1000; need at least 2 distinct r"
        assert cli._rates(rows)["columns"] == {column: {"skipped": says}
                                               for column in cli._RATE_COLUMNS}

    def test_solve_reports_the_rates_of_its_trace(self, tmp_path):
        out = tmp_path / "run"
        assert cli.main(["solve", "--config", scaled_1d_config(tmp_path, out, 5000)]) == 0
        records = read_trace(out / "trace.csv")
        columns = {}
        for column, trace_column, factor, ceiling in (
                ("stationarity_sq", "stationarity_sq", 1.0, -0.5),
                ("feasibility_sq", "feasibility", 2.0, -0.5),
                ("slackness", "slackness", 1.0, -0.25)):
            fit = fit_rate(records, trace_column, (1e3, 1e5))
            columns[column] = {"slope": factor * fit.slope, "intercept": factor * fit.intercept,
                               "r_squared": fit.r_squared, "n_points": fit.n_points,
                               "ceiling": ceiling, "pass": factor * fit.slope <= ceiling}
        summary = json.loads((out / "summary.json").read_text())
        assert summary["rates"] == {"window": [1000.0, 100000.0], "columns": columns}


class TestCheckCommand:
    def test_analytic_passes(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "problem": {"kind": "analytic", "id": "circle-exterior"}})
        assert cli.main(["check", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_mnpc_synthetic_passes(self, tmp_path):
        cfg = write_config(tmp_path, {
            "problem": {"kind": "mnpc", "num_classes": 3, "d_in": 6,
                        "per_class": 8, "noise_std": 0.5,
                        "reg_lambda": 1.0, "thresholds": [0.5, 0.5]}})
        assert cli.main(["check", "--config", cfg]) == 0

    def test_no_constraints_skips_jacobian(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "problem": {"kind": "cmdp", "num_states": 3, "num_actions": 2,
                        "num_constraints": 0, "discount": 0.8}})
        assert cli.main(["check", "--config", cfg]) == 0
        assert "skipped (no constraints)" in capsys.readouterr().out

    def test_fused_oracle_line_only_with_a_fused_oracle(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"problem": {"kind": "cmdp", "num_states": 4,
                                                  "num_actions": 3, "num_constraints": 2}})
        assert cli.main(["check", "--config", cfg]) == 0
        assert "fused oracle: max relative error " in capsys.readouterr().out
        cfg = write_config(tmp_path, {"problem": {"kind": "analytic", "id": "scaled-1d"}})
        assert cli.main(["check", "--config", cfg]) == 0
        assert "fused oracle" not in capsys.readouterr().out

    def test_non_finite_callback_exits_3_in_one_line(self, tmp_path, capsys):
        # this ended in a NonFiniteError traceback (exit 1, read as a failed check)
        cfg = write_config(tmp_path, {"problem": MNPC_OVERFLOW})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["check", "--config", cfg]) == 3
        assert not caught
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and err.count("\n") == 1
        assert "f(x) is not finite at x=array([" in err

    def test_injected_gradient_bug_fails(self, tmp_path, monkeypatch, capsys):
        from gdpa import ConstrainedProblem

        def broken_problem(spec, seed):
            p = ConstrainedProblem(dim=1, num_constraints=0,
                                   eval_f=lambda x: float(x[0] ** 2),
                                   eval_grad_f=lambda x: 2.0 * x + 1.0)
            return p, np.zeros(1)

        monkeypatch.setattr(cli, "build_problem", broken_problem)
        cfg = write_config(tmp_path, {
            "problem": {"kind": "analytic", "id": "scaled-1d"}})
        assert cli.main(["check", "--config", cfg]) == 1
        assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("command, config, says", [
    ("solve", lambda tmp_path: {"problem": {"kind": "mnpc", "source": "csv",
                                            "path": write_sparse_csv(tmp_path, 3),
                                            "thresholds": [1.0, 1.0]}},
     "class 2 has no samples"),
    ("solve", lambda tmp_path: {"problem": {**MNPC_SMALL, "noise": 0.1}},
     "unknown problem keys (mnpc): ['noise']"),
    ("solve", lambda tmp_path: {"problem": MNPC_SMALL, "solver": {"kind": "gdpa", "tau": 2}},
     "tau must lie strictly between 0 and 1"),
    ("benchmark", lambda tmp_path: {
        "problem": {"kind": "analytic", "id": "scaled-1d"}, "budget_grad_evals": 20,
        "solvers": [{"name": "gdpa", "kind": "gdpa"}, {"name": "pen/alty", "kind": "penalty"}]},
     "got 'pen/alty'"),
    ("solve", lambda tmp_path: json.loads((CONFIGS / "benchmark-scaled-1d.json").read_text()),
     "'solvers' is read only by gdpa benchmark"),
    ("solve", lambda tmp_path: {"problem": MNPC_SMALL, "budget_grad_evals": 20},
     "'budget_grad_evals' is read only by gdpa benchmark"),
    ("solve", lambda tmp_path: {"problem": MNPC_SMALL, "grid_points": 5},
     "'grid_points' is read only by gdpa benchmark"),
    ("benchmark", lambda tmp_path: json.loads((CONFIGS / "scaled-1d.json").read_text()),
     "'solver' is read only by gdpa solve"),
], ids=["sparse-class-csv", "unknown-problem-key", "bad-solver-section", "bad-solver-name",
        "benchmark-config-to-solve", "budget-to-solve", "grid-to-solve",
        "solve-config-to-benchmark"])
def test_rejected_config_creates_no_output_directory(tmp_path, capsys, command, config, says):
    # the directory was made before the problem and solver sections were checked
    out = tmp_path / "out"
    cfg = write_config(tmp_path, config(tmp_path))
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == 2
    assert_one_line_naming(capsys, says)
    assert not out.exists()


def test_module_entrypoint_runs():
    proc = subprocess.run([sys.executable, "-m", "gdpa.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "solve" in proc.stdout
