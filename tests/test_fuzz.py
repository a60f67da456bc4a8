"""Hypothesis fuzz of the CLI's input contract.

Each example is a small valid config file with up to two values replaced by
junk (a wrong type, NaN, Inf, an extreme or negative number, an
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
seeds = st.integers(0, 3)
names = st.sampled_from(["a", "b"])


def starts(*dims):
    """Start points of one of the given lengths: a section's sizes, so some fit."""
    return st.sampled_from(dims).flatmap(lambda n: st.lists(
        st.sampled_from([-1.0, 0.5, 1e200]), min_size=n, max_size=n))


def sections(kind, sizes, optional):
    """Problem sections of one kind, drawn at each of the given sizes."""
    return st.one_of(*[st.fixed_dictionaries(
        {"kind": st.just(kind), **{key: st.just(val) for key, val in size.items()}},
        optional=optional) for size in sizes])


problems = st.one_of(
    st.fixed_dictionaries(
        {"kind": st.just("analytic"),
         "id": st.sampled_from(["scaled-1d", "halfspace-quadratic", "circle-exterior"])},
        optional={"x0": starts(1, 2)}),
    sections("mnpc", [{"num_classes": 2, "d_in": 2, "per_class": 3, "thresholds": [1.0]},
                      {"num_classes": 3, "d_in": 3, "per_class": 2, "thresholds": [1.0, 1.0]}],
             optional={"reg_lambda": step, "x0": starts(4, 9),
                       "noise_std": step, "dataset_seed": seeds}),
    sections("nn", [{"num_classes": 2, "d_in": 2, "per_class": 2, "hidden": 2, "budgets": [1.0]},
                    {"num_classes": 3, "d_in": 3, "per_class": 2, "hidden": 3,
                     "budgets": [1.0, 1.0]}],
             optional={"noise_std": step, "dataset_seed": seeds, "x0": starts(8, 18)}),
    sections("cmdp", [{"num_states": 3, "num_actions": 2}, {"num_states": 5, "num_actions": 3}],
             optional={"num_constraints": st.just(1), "discount": st.just(0.9),
                       "thresholds": st.just([0.5]), "dataset_seed": seeds,
                       "x0": starts(6, 15)}))
gdpa_solvers = st.fixed_dictionaries(
    {"kind": st.just("gdpa"), "max_iters": small},
    optional={"tau": step, "beta0": step, "alpha01": step, "alpha02": step, "alpha03": step,
              "eps_feas": step, "eps_stat": step, "record_every": small,
              "dense_until": small, "name": names,
              "preset": st.sampled_from(sorted(cli.GDPA_PRESETS))})
baseline_solvers = st.fixed_dictionaries(
    {"kind": st.sampled_from(["penalty", "alm"]), "inner_iters": small,
     "outer_iters": st.integers(1, 2)},
    optional={"rho0": step, "rho_growth": st.just(2.0), "inner_step": step,
              "feas_tol": step, "record_every": small, "dense_until": small,
              "max_steps": small, "name": names})
solvers = st.one_of(gdpa_solvers, baseline_solvers)
solve_configs = st.fixed_dictionaries(
    {"problem": problems, "solver": solvers},
    optional={"record_every": small, "seed": seeds})
benchmark_configs = st.fixed_dictionaries(
    {"problem": problems, "solvers": st.lists(solvers, min_size=2, max_size=3),
     "budget_grad_evals": small},
    optional={"grid_points": st.integers(1, 8), "record_every": small})
check_configs = st.fixed_dictionaries({"problem": problems}, optional={"seed": seeds})


# config keys no strategy draws, with the reason
UNDRAWN = {"out_dir": "a deployment path", "source": "the csv source needs a file",
           "path": "the csv source needs a file"}


def section_keys(config):
    """(section, key) for every key of a config: "top", a problem kind, "gdpa"
    or "baselines" (a penalty or ALM section)."""
    sections = [("top", config), (config["problem"]["kind"], config["problem"])]
    for solver in [config.get("solver"), *config.get("solvers", [])]:
        if solver is not None:
            sections.append(("gdpa" if solver["kind"] == "gdpa" else "baselines", solver))
    return {(section, key) for section, keys in sections for key in keys}


def test_every_config_key_is_drawn_or_excluded():
    tables = {"top": cli._TOP_KEYS, **cli._PROBLEMS, "gdpa": cli._SOLVER_KEYS["gdpa"],
              "baselines": cli._SOLVER_KEYS["penalty"]}
    for kind in ("mnpc", "nn"):
        tables[kind] = [*tables[kind], *(key for source in cli._SOURCES.values()
                                         for key in source)]
    keys = {(section, key) for section, table in tables.items() for key in table}
    assert {key for _, key in keys} >= UNDRAWN.keys()
    drawn = set()

    @settings(max_examples=300, derandomize=True, database=None)
    @given(config=st.one_of(solve_configs, benchmark_configs, check_configs))
    def collect(config):
        drawn.update(section_keys(config))

    collect()
    assert sorted(key for key in keys - drawn if key[1] not in UNDRAWN) == []
    assert not {key for key in drawn if key[1] in UNDRAWN}


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


def run_cli(capsys, argv, silent=(0,)):
    capsys.readouterr()
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    # a failure says why in one line, a success (any code in ``silent``) says
    # nothing; log records (which reach stderr only when the root logger has
    # no handler) aside
    said = [line for line in err.splitlines()
            if not line.startswith(("DEBUG gdpa:", "INFO gdpa:", "WARNING gdpa:"))]
    assert len(said) == (code not in silent), err
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
    # 3: a solver failed numerically; the table is written all the same
    assert code in {0, 2, 3}
    if code != 2:
        assert (work / "out" / "compare.csv").exists()


@FUZZ
@given(config=damaged(check_configs), seed=st.sampled_from([[], ["--seed", "1"]]))
def test_check_config_fuzz(tmp_path_factory, capsys, config, seed):
    work = tmp_path_factory.mktemp("fuzz")
    (work / "config.json").write_text(json.dumps(config))
    # exit 1 is a failed gradient check, reported on stdout
    code = run_cli(capsys, ["check", "--config", str(work / "config.json"), *seed],
                   silent=(0, 1))
    assert code in {0, 1, 2, 3}
