"""Mutation score of the test suite: a fixed list of mutants over src/gdpa, a kill matrix.

    python3 scripts/mutants.py [--out MUTANTS.json] [--only ID ...] [--tests NODEID ...]

Each mutant changes one token of one file: a comparison or arithmetic operator swap, a
numeric constant nudge, a dropped ``raise`` or the first two arguments of a call swapped.
The list is fixed: a crc32 sample of the sites, denser in the scopes of ``STRIDES``,
plus the hand-written mutants of ``ALWAYS``. Each mutant is applied in one
temporary copy of the checkout, never in the working tree, and pytest runs once on
``tests/`` without gate 3 (too slow) and without this script's own smoke test, with no
``-x``, so every failing test id is recorded. A run past ``TIMEOUT`` seconds has its
process group killed and reads "timeout", which counts as no kill. The matrix maps each
mutant id to its failing test ids, "survived" or "timeout"; ``EQUIVALENT`` lists by hand
the mutants no test can kill, each with its reason. ``--only`` runs the given mutants,
which may be any site's, and ``--tests`` the given node ids in place of the suite.
"""

import argparse, ast, json, os, shutil, signal, subprocess, sys, tempfile, zlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "src/gdpa"
TIMEOUT = 300  # seconds; a run of the suite takes about 50
SUITE = ["tests/", "--deselect", "tests/test_mutants.py",
         "--deselect", "tests/test_acceptance.py::test_criterion_3_dual_contraction_suite"]
# scope prefix -> stride: a site is chosen when the crc32 of its id is a multiple of its
# scope's stride, so the paper-facing diagnostics get the denser sample
STRIDES = {"problem.": 8, "metrics.fit_rate": 6, "solver.validate_": 4, "cli._theory": 1,
           "cli._summary": 1, "": 70}
ALWAYS = (  # the hand-written mutants that came first
    "solver.py:solver.validate_tau: > -> >=", "solver.py:solver.validate_tau: 66.0 -> 64.0",
    "problem.py:problem: 1.5 -> 1.46", "cli.py:cli: 10_000 -> 10001",
    "problem.py:problem._dist_to_negative_normal_cone: >= -> >")
SWAPS = {ast.Gt: (">", ">="), ast.GtE: (">=", ">"), ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"),
         ast.Eq: ("==", "!="), ast.NotEq: ("!=", "=="), ast.Is: ("is", "is not"),
         ast.IsNot: ("is not", "is"), ast.In: ("in", "not in"), ast.NotIn: ("not in", "in"),
         ast.Add: ("+", "-"), ast.Sub: ("-", "+"), ast.Mult: ("*", "/"), ast.Div: ("/", "*"),
         ast.Pow: ("**", "*"), ast.FloorDiv: ("//", "/"), ast.Mod: ("%", "//"),
         ast.BitAnd: ("&", "|"), ast.BitOr: ("|", "&")}  # operator -> (its token, the mutant's)
EQUIVALENT = {  # mutant id -> why no test can kill it
    "problem.py:problem._dist_to_negative_normal_cone: "
    "resid[at_upper], 0.0 -> 0.0, resid[at_upper]": (
        "np.maximum swaps only a zero's sign (max(-0.0, 0.0) is 0.0, max(0.0, -0.0) is -0.0) "
        "and keeps a NaN, and the norm taken after it reads both zeros alike"),
    "problem.py:problem.effective_constants.pair_quotient: best, norm(values[a + 1] - values[a]) "
    "/ gap -> norm(values[a + 1] - values[a]) / gap, best":
        "max() reads its arguments alike but for a NaN or zeros of two signs, and no quotient "
        "is either: a norm over a finite gap is +0.0, finite or inf (L_J's inf for an overflow)",
}


def nudge(value):
    """An int plus one, a float times 0.97 to three digits (66.0 -> 64.0), None for 0.0."""
    if isinstance(value, int):
        return value + 1
    return float(f"{value * 0.97:.3g}") if value else None


class Sites(ast.NodeVisitor):
    """Each mutation site of one file as (scope, first byte, last byte, old text, new text)."""

    def __init__(self, source: bytes, module: str):
        self.src, self.scope, self.sites = source, [module], []
        self.starts = [0]
        for line in source.splitlines(keepends=True):
            self.starts.append(self.starts[-1] + len(line))

    def at(self, line, col):
        return self.starts[line - 1] + col

    def span(self, node):
        return (self.at(node.lineno, node.col_offset),
                self.at(node.end_lineno, node.end_col_offset))

    def add(self, a, b, new):
        self.sites.append((".".join(self.scope), a, b, self.src[a:b].decode(), new))

    def between(self, left, right, op):  # the operator token between two operands
        if type(op) not in SWAPS:
            return
        a, b = self.span(left)[1], self.span(right)[0]
        gap = self.src[a:b].decode()
        old, new = SWAPS[type(op)]
        k = gap.find(f" {old} ") + 1 if old.isalpha() else gap.find(old)
        if k >= 0 and (old.isalpha() or gap.count(old) == 1):
            start = a + len(gap[:k].encode())
            self.add(start, start + len(old), new)

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        for stmt in node.body[1:] if ast.get_docstring(node) else node.body:
            self.visit(stmt)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef

    def visit_Compare(self, node):
        left = node.left
        for op, right in zip(node.ops, node.comparators):
            self.between(left, right, op)
            left = right
        self.generic_visit(node)

    def visit_BinOp(self, node):
        self.between(node.left, node.right, node.op)
        self.generic_visit(node)

    def visit_Constant(self, node):
        if type(node.value) in (int, float) and nudge(node.value) is not None:
            self.add(*self.span(node), repr(nudge(node.value)))

    def visit_Raise(self, node):
        self.add(*self.span(node), "pass")

    def visit_Call(self, node):
        a, b = node.args[:2] if len(node.args) >= 2 else (None, None)
        if b is not None and not isinstance(a, ast.Starred) and not isinstance(b, ast.Starred):
            (a0, a1), (b0, b1) = self.span(a), self.span(b)
            first, second = self.src[a0:a1], self.src[b0:b1]
            if first != second:
                self.add(a0, b1, (second + self.src[a1:b0] + first).decode())
        self.generic_visit(node)

    def visit_JoinedStr(self, node):  # f-string text is message, not arithmetic
        pass


def mutants():
    """Every site as {id: (file, first byte, last byte, new text)}, and the fixed list's
    ids. An id names the file, the scope, the old and the new text, and the site's rank
    among equal ones in its scope, so edits elsewhere neither rename nor drop a mutant."""
    sites, chosen = {}, []
    for path in sorted((ROOT / PACKAGE).rglob("*.py")):
        rel = path.relative_to(ROOT / PACKAGE).as_posix()
        source = path.read_bytes()
        visitor = Sites(source, rel[:-3].replace("/", "."))
        visitor.visit(ast.parse(source))
        seen = []
        for scope, a, b, old, new in sorted(visitor.sites, key=lambda s: (s[1], s[2])):
            mid = f"{rel}:{scope}: {' '.join(old.split())} -> {' '.join(new.split())}"
            seen.append(mid)
            mid += f" #{seen.count(mid)}" if seen.count(mid) > 1 else ""
            sites[mid] = (rel, a, b, new)
            stride = next(n for prefix, n in STRIDES.items() if scope.startswith(prefix))
            if zlib.crc32(mid.encode()) % stride == 0 or mid in ALWAYS:
                chosen.append(mid)
    return sites, chosen


def run(copy: Path, tests):
    """Failing node ids of one pytest run in ``copy``, or "timeout"."""
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--tb=no", "-rfE",
           *tests]
    # no bytecode: a restored file the size of its mutant, written within the second
    # of it, would load the mutant's cached code
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.Popen(cmd, cwd=copy, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return "timeout"
    failed = sorted({line.split(" ", 1)[1].split(" - ", 1)[0] for line in out.splitlines()
                     if line.startswith(("FAILED ", "ERROR "))})
    if proc.returncode and not failed:
        failed = [f"pytest exit {proc.returncode}: {out.strip()[-300:]}"]
    return failed


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--out", type=Path, default=ROOT / "MUTANTS.json")
    p.add_argument("--only", nargs="+", help="mutant ids to run (default: all)")
    p.add_argument("--tests", nargs="+", help="pytest node ids to run (default: the suite)")
    args = p.parse_args(argv)
    table, chosen = mutants()
    chosen = args.only or chosen
    unknown = [m for m in chosen if m not in table]
    if unknown:
        p.error(f"unknown mutant ids: {unknown}")
    matrix = {}
    with tempfile.TemporaryDirectory(prefix="gdpa-mutants-") as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench*", "runs"))
        for k, mid in enumerate(chosen, 1):
            rel, a, b, new = table[mid]
            target = copy / PACKAGE / rel
            source = target.read_bytes()
            mutated = source[:a] + new.encode() + source[b:]
            try:
                compile(mutated, str(target), "exec")
            except SyntaxError as exc:
                raise SystemExit(f"{mid}: the mutant does not compile: {exc}")
            target.write_bytes(mutated)
            try:
                result = run(copy, args.tests or SUITE)
            finally:
                target.write_bytes(source)
            matrix[mid] = result or "survived"
            verdict = f"killed by {len(result)}" if isinstance(result, list) else result
            print(f"[{k}/{len(chosen)}] {mid}: {verdict if result else 'survived'}", flush=True)
            counts = write(args.out, matrix)  # after each mutant, so a cut run keeps its part
    print(json.dumps(counts))
    return 0


def write(out: Path, matrix: dict) -> dict:
    """Write the matrix, with its counts and the equivalent table, to ``out``."""
    counts = {"mutants": len(matrix), "killed": 0, "survived": 0, "equivalent": 0, "timeout": 0}
    for mid, result in matrix.items():
        kind = ("killed" if isinstance(result, list) else result if result == "timeout"
                else "equivalent" if mid in EQUIVALENT else "survived")
        counts[kind] += 1
    out.write_text(json.dumps({"counts": counts, "equivalent": EQUIVALENT, "matrix": matrix},
                              indent=1) + "\n")
    return counts


if __name__ == "__main__":
    sys.exit(main())
