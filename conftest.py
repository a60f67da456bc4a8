"""Repository-wide pytest hooks."""

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
