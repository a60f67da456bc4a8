"""Repository-wide pytest hooks."""

import argparse
from pathlib import Path

import tests  # noqa: F401  one BLAS thread, before any test file loads numpy


def pytest_terminal_summary(terminalreporter):
    # the size of the library and of each file, and of the test files, tracked by
    # ROADMAP's code-diet and test-scaffolding items; a summary line rather than a
    # header line, because `pytest -q` hides the header
    here = Path(__file__).parent
    root = here / "src" / "gdpa"
    counts = {f.relative_to(root).as_posix(): len(f.read_text().splitlines())
              for f in sorted(root.rglob("*.py"))}
    each = ", ".join(f"{name} {lines}" for name, lines in counts.items())
    tests_total = sum(len(f.read_text().splitlines()) for f in (here / "tests").glob("*.py"))
    terminalreporter.write_line(
        f"src/gdpa: {sum(counts.values())} lines in {len(counts)} files ({each}); "
        f"tests/*.py: {tests_total} lines")
    terminalreporter.write_line("settable keys per config section: " + _key_counts()
                                + "; flags per subcommand: " + _flag_counts())


def _key_counts() -> str:
    """The option count of ROADMAP's code-diet item: the keys of each section's table in
    `gdpa.cli`, a solver section's fields plus "kind", "name" (and gdpa's "preset"), and
    for an mnpc or nn section, those of its default dataset source and of the others."""
    from gdpa import cli

    counts = [f"top {len(cli._TOP_KEYS)}"]
    counts += [f"{kind} {len(keys)}" for kind, keys in cli._SOLVER_KEYS.items()]
    for kind, table in cli._PROBLEMS.items():
        if "source" not in table:
            counts.append(f"{kind} {len(table)}")
            continue
        default = table["source"][1]
        others = ", ".join(f"{len(table) + len(keys)} with {source}"
                           for source, keys in cli._SOURCES.items() if source != default)
        counts.append(f"{kind} {len(table) + len(cli._SOURCES[default])} ({others})")
    return ", ".join(counts)


def _flag_counts() -> str:
    """The arguments each `gdpa` subcommand takes, positional ones included and
    --help not, read from `cli._build_parser()`."""
    from gdpa import cli

    sub = next(action for action in cli._build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    return ", ".join(
        f"{name} {sum(not isinstance(a, argparse._HelpAction) for a in parser._actions)}"
        for name, parser in sub.choices.items())
