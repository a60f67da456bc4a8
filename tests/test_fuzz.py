"""Hypothesis fuzz of the CLI's input contract.

Each example is a small valid config or trace file with up to two values
replaced by junk (a wrong type, NaN, Inf, an extreme or negative number, an
unknown key). The CLI must end in a documented exit code with a one-line
message on stderr, never in a traceback, and every JSON file it writes must
be strict JSON. Sizes stay tiny (at most 40 iterations or gradient
evaluations per solver) and the examples are derandomized, so the suite sees
the same inputs on every run.
"""

import copy
import functools
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gdpa import cli

FUZZ = settings(max_examples=40, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture,
                                       HealthCheck.too_slow])

ODD_NUMBERS = [0, -1, 2.5, 1e300, 5e-324, math.inf, -math.inf, math.nan]
junk = st.one_of(st.sampled_from(ODD_NUMBERS), st.none(), st.booleans(), st.text(max_size=2),
                 st.lists(st.integers(-1, 1), max_size=2), st.builds(dict))

small = st.integers(1, 40)
step = st.sampled_from([0.05, 0.1, 0.5, 1.0])
problems = st.one_of(
    st.fixed_dictionaries(
        {"kind": st.just("analytic"),
         "id": st.sampled_from(["scaled-1d", "halfspace-quadratic", "circle-exterior"])},
        optional={"x0": st.lists(st.sampled_from([-1.0, 0.5, 1e200]), min_size=2, max_size=2)}),
    st.fixed_dictionaries(
        {"kind": st.just("mnpc"), "num_classes": st.just(2), "d_in": st.just(2),
         "per_class": st.just(3), "thresholds": st.just([1.0])},
        optional={"x0_scale": step, "reg_lambda": step}),
    st.fixed_dictionaries(
        {"kind": st.just("nn"), "num_classes": st.just(2), "d_in": st.just(2),
         "per_class": st.just(2), "hidden": st.just(2), "budgets": st.just([1.0])},
        optional={"noise_std": step, "dataset_seed": st.integers(0, 3)}),
    st.fixed_dictionaries(
        {"kind": st.just("cmdp"), "num_states": st.just(3), "num_actions": st.just(2)},
        optional={"num_constraints": st.just(1), "discount": st.just(0.9),
                  "thresholds": st.just([0.5]), "dataset_seed": st.integers(0, 3)}))
gdpa_solvers = st.fixed_dictionaries(
    {"kind": st.just("gdpa"), "max_iters": small},
    optional={"tau": step, "beta0": step, "alpha": st.lists(step, min_size=3, max_size=3),
              "eps_feas": step, "eps_stat": step, "record_every": small,
              "dense_until": small, "seed": small, "name": st.sampled_from(["a", "b"])})
baseline_solvers = st.fixed_dictionaries(
    {"kind": st.sampled_from(["penalty", "alm"]), "inner_iters": small,
     "outer_iters": st.integers(1, 2)},
    optional={"rho0": step, "rho_growth": st.just(2.0), "inner_step": step,
              "feas_tol": step, "record_every": small, "dense_until": small})
solvers = st.one_of(gdpa_solvers, baseline_solvers)
solve_configs = st.fixed_dictionaries(
    {"problem": problems, "solver": solvers},
    optional={"record_every": small, "seed": st.integers(0, 3)})
benchmark_configs = st.fixed_dictionaries(
    {"problem": problems, "solvers": st.lists(solvers, min_size=2, max_size=3),
     "budget_grad_evals": small},
    optional={"grid_points": st.integers(1, 8), "record_every": small})


def slots(value):
    """Every (container, key) pair of a parsed JSON value, the root first."""
    yield None, None
    items = value.items() if isinstance(value, dict) else enumerate(value) \
        if isinstance(value, list) else ()
    for key, child in items:
        yield value, key
        yield from ((c, k) for c, k in slots(child) if c is not None)


@st.composite
def damaged(draw, valid):
    """A valid value with up to two slots replaced by junk (an unknown key
    is added instead when the slot is a dict key and the coin says so)."""
    value = copy.deepcopy(draw(valid))  # st.just() hands out one shared object
    for _ in range(draw(st.integers(0, 2))):
        container, key = draw(st.sampled_from(list(slots(value))))
        if container is None:
            value = draw(junk)
        elif isinstance(container, dict) and draw(st.booleans()):
            container["typo"] = draw(junk)
        else:
            container[key] = draw(junk)
    return value


def reject_constant(token):
    raise ValueError(f"not strict JSON: {token}")


def run_cli(capsys, argv):
    capsys.readouterr()
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    # a failure says why in one line, a success says nothing; log records
    # (which reach stderr only when the root logger has no handler) aside
    said = [line for line in err.splitlines()
            if not line.startswith(("DEBUG gdpa:", "INFO gdpa:", "WARNING gdpa:"))]
    assert len(said) == (code != 0), err
    return code


@pytest.fixture
def short_defaults(monkeypatch):
    # A damaged config can fall back to the default iteration counts (a
    # "solver" replaced by null, say), which run for seconds; shrink them.
    monkeypatch.setattr(cli, "GdpaConfig", functools.partial(cli.GdpaConfig, max_iters=40))
    for name in ("PenaltyConfig", "AlmConfig"):
        monkeypatch.setattr(cli, name, functools.partial(getattr(cli, name), inner_iters=20,
                                                         outer_iters=2))


@FUZZ
@given(config=damaged(solve_configs))
def test_solve_config_fuzz(tmp_path_factory, capsys, short_defaults, config):
    work = tmp_path_factory.mktemp("fuzz")
    (work / "config.json").write_text(json.dumps(config))
    code = run_cli(capsys, ["solve", "--config", str(work / "config.json"),
                            "--out", str(work / "out")])
    assert code in {0, 2, 3}
    if code != 2:
        json.loads((work / "out" / "summary.json").read_text(), parse_constant=reject_constant)


@FUZZ
@given(config=damaged(benchmark_configs))
def test_benchmark_config_fuzz(tmp_path_factory, capsys, short_defaults, config):
    work = tmp_path_factory.mktemp("fuzz")
    (work / "config.json").write_text(json.dumps(config))
    code = run_cli(capsys, ["benchmark", "--config", str(work / "config.json"),
                            "--out", str(work / "out")])
    assert code in {0, 2}


values = st.floats(min_value=1e-6, max_value=1e3)
traces = st.lists(st.tuples(st.integers(1, 10 ** 6), st.lists(values, min_size=9, max_size=9)),
                  min_size=8, max_size=30, unique_by=lambda row: row[0]).map(
    lambda rows: [[r, *vals] for r, vals in sorted(rows)])
trace_junk = st.sampled_from([0, -1, 1e-300, 1e300, math.inf, -math.inf, math.nan,
                              "a", "", "1.5", "1,2"])


@FUZZ
@given(table=traces, cells=st.lists(st.tuples(st.integers(0, 29), st.integers(0, 9),
                                               trace_junk), max_size=2))
def test_trace_fuzz(tmp_path_factory, capsys, table, cells):
    for row, col, text in cells:
        table[row % len(table)][col] = text
    work = tmp_path_factory.mktemp("fuzz")
    trace = work / "trace.csv"
    trace.write_text("\n".join([cli.TRACE_HEADER] + [",".join(map(str, fields))
                                                     for fields in table]) + "\n")
    code = run_cli(capsys, ["rate-report", str(trace), "--window-lo", "1",
                            "--window-hi", "1e6"])
    assert code in {0, 2, 4}
    if code == 0:
        json.loads((work / "rate.json").read_text(), parse_constant=reject_constant)
