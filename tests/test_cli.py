import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

from gdpa import cli
from gdpa.metrics import IterationRecord


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=2))
    return str(path)


def scaled_1d_config(tmp_path, out, max_iters=2000, **solver_overrides):
    solver = {"kind": "gdpa", "tau": 0.1, "beta0": 1.0, "alpha": [1.0, 1.0, 1.0],
              "max_iters": max_iters, "eps_feas": 1e-14, "eps_stat": 1e-14}
    solver.update(solver_overrides)
    return write_config(tmp_path, {
        "problem": {"kind": "analytic", "id": "scaled-1d"},
        "solver": solver,
        "out_dir": str(out),
        "record_every": 10,
        "seed": 0,
    })


class TestSolveCommand:
    def test_writes_outputs_and_converges(self, tmp_path):
        out = tmp_path / "run"
        cfg = scaled_1d_config(tmp_path, out, max_iters=30_000)
        assert cli.main(["solve", "--config", cfg]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert abs(summary["x_final"][0] - 1.0) <= 1e-2
        assert summary["termination"] == "budget-exhausted"
        assert (out / "trace.csv").exists()
        assert (out / "warnings.log").exists()

    def test_trace_round_trips_losslessly(self, tmp_path):
        out = tmp_path / "run"
        cfg = scaled_1d_config(tmp_path, out)
        assert cli.main(["solve", "--config", cfg]) == 0
        records = cli.read_trace(out / "trace.csv")
        assert all(isinstance(r, IterationRecord) for r in records)
        # writing the parsed records again reproduces the file byte for byte
        cli.write_trace(out / "trace2.csv", records)
        assert (out / "trace.csv").read_bytes() == (out / "trace2.csv").read_bytes()

    def test_determinism_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cfg_a = scaled_1d_config(tmp_path, out_a, max_iters=2000)
        assert cli.main(["solve", "--config", cfg_a, "--out", str(out_a)]) == 0
        assert cli.main(["solve", "--config", cfg_a, "--out", str(out_b)]) == 0
        assert (out_a / "trace.csv").read_bytes() == (out_b / "trace.csv").read_bytes()

    def test_malformed_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli.main(["solve", "--config", str(bad)]) == 2

    def test_unknown_key_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, {"problem": {"kind": "analytic", "id": "scaled-1d"},
                                      "sover": {}})
        assert cli.main(["solve", "--config", cfg]) == 2

    def test_unconstrained_problem_has_zero_lambda_column(self, tmp_path):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, {
            "problem": {"kind": "cmdp", "num_states": 3, "num_actions": 2,
                        "num_constraints": 0, "discount": 0.8, "dataset_seed": 5},
            "solver": {"kind": "gdpa", "preset": "cmdp", "max_iters": 50},
            "out_dir": str(out),
            "seed": 1,
        })
        assert cli.main(["solve", "--config", cfg]) == 0
        records = cli.read_trace(out / "trace.csv")
        assert records and all(r.lambda_norm == 0.0 for r in records)

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
            "solver": {"kind": "gdpa", "alpha": [1e6, 1.0, 1.0], "max_iters": 100},
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

    def test_runconfig_round_trip(self):
        raw = {"problem": {"kind": "analytic", "id": "scaled-1d"},
               "solver": {"kind": "gdpa"}, "out_dir": "x", "record_every": 5,
               "seed": 3}
        rc = cli.RunConfig.from_dict(raw)
        assert rc.to_dict() == raw
        assert cli.RunConfig.from_dict(rc.to_dict()) == rc

    def test_summary_kkt_values_recompute(self, tmp_path):
        from gdpa import kkt_residual
        from gdpa.problems import build_analytic

        out = tmp_path / "run"
        cfg = scaled_1d_config(tmp_path, out, max_iters=2000, record_every=1)
        assert cli.main(["solve", "--config", cfg]) == 0
        summary = json.loads((out / "summary.json").read_text())
        problem = build_analytic("scaled-1d").problem
        records = cli.read_trace(out / "trace.csv")
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
            records = cli.read_trace(out / f"trace_{name}.csv")
            assert min(rec.feasibility for rec in records) <= 1e-3, name

    def test_zero_budget_exits_2(self, tmp_path):
        out = tmp_path / "bench"
        cfg = self.benchmark_config(tmp_path, out, budget=0)
        assert cli.main(["benchmark", "--config", cfg]) == 2

    def test_single_solver_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, {
            "problem": {"kind": "analytic", "id": "scaled-1d"},
            "solvers": [{"kind": "gdpa"}],
            "budget_grad_evals": 100,
        })
        assert cli.main(["benchmark", "--config", cfg]) == 2


class TestRateReportCommand:
    def synthetic_trace(self, tmp_path, value_fn, n=2000):
        records = [IterationRecord(r=r, alpha=1.0, beta=1.0, gamma=1.0,
                                   f_value=0.0, F_beta_value=0.0,
                                   stationarity_sq=value_fn(r),
                                   feasibility=value_fn(r),
                                   slackness=value_fn(r), lambda_norm=0.0)
                   for r in range(1, n + 1)]
        path = tmp_path / "trace.csv"
        cli.write_trace(path, records)
        return str(path)

    def test_power_law_passes(self, tmp_path, capsys):
        trace = self.synthetic_trace(tmp_path, lambda r: r ** (-2.0 / 3.0))
        code = cli.main(["rate-report", trace, "--window-lo", "10",
                         "--window-hi", "2000"])
        assert code == 0
        rate = json.loads((tmp_path / "rate.json").read_text())
        assert rate["columns"]["stationarity_sq"]["slope"] == pytest.approx(-2 / 3, abs=1e-3)
        assert rate["columns"]["stationarity_sq"]["pass"] is True
        # feasibility is squared for reporting: slope doubles
        assert rate["columns"]["feasibility_sq"]["slope"] == pytest.approx(-4 / 3, abs=1e-3)
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_constant_trace_fails_ceiling(self, tmp_path, capsys):
        trace = self.synthetic_trace(tmp_path, lambda r: 0.5)
        code = cli.main(["rate-report", trace, "--window-lo", "10",
                         "--window-hi", "2000",
                         "--max-slope-stationarity", "-0.4"])
        assert code == 0
        rate = json.loads((tmp_path / "rate.json").read_text())
        assert rate["columns"]["stationarity_sq"]["slope"] == pytest.approx(0.0, abs=1e-9)
        assert rate["columns"]["stationarity_sq"]["pass"] is False
        assert "FAIL" in capsys.readouterr().out

    def test_non_numeric_field_exits_2(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        trace.write_text(cli.TRACE_HEADER + "\n1,a,1,1,0,0,1,1,1,0\n")
        assert cli.main(["rate-report", str(trace)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(trace) in err and "1,a,1" in err

    def test_insufficient_points_exits_4(self, tmp_path):
        trace = self.synthetic_trace(tmp_path, lambda r: 1.0 / r, n=5)
        assert cli.main(["rate-report", trace, "--window-lo", "1",
                         "--window-hi", "5"]) == 4


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


def test_module_entrypoint_runs():
    proc = subprocess.run([sys.executable, "-m", "gdpa.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "solve" in proc.stdout
