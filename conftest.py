"""Repository-wide pytest hooks."""

from pathlib import Path

import tests  # noqa: F401  one BLAS thread, before any test file loads numpy


def pytest_terminal_summary(terminalreporter):
    # the size of the library and of each file, tracked by ROADMAP's code-diet
    # item; a summary line rather than a header line, because `pytest -q` hides
    # the header
    root = Path(__file__).parent / "src" / "gdpa"
    counts = {f.relative_to(root).as_posix(): len(f.read_text().splitlines())
              for f in sorted(root.rglob("*.py"))}
    each = ", ".join(f"{name} {lines}" for name, lines in counts.items())
    terminalreporter.write_line(
        f"src/gdpa: {sum(counts.values())} lines in {len(counts)} files ({each})")
