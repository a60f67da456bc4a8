"""Repository-wide pytest hooks."""

from pathlib import Path


def pytest_terminal_summary(terminalreporter):
    # the size of the library, tracked by ROADMAP's code-diet item; a summary
    # line rather than a header line, because `pytest -q` hides the header
    files = sorted((Path(__file__).parent / "src" / "gdpa").rglob("*.py"))
    lines = sum(len(f.read_text().splitlines()) for f in files)
    terminalreporter.write_line(f"src/gdpa: {lines} lines in {len(files)} files")
