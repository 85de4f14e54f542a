"""Mutation audit of ``src/clawmwss``: which wrong programs pass the tests.

    python tools/mutants.py > tools/mutants_report.txt

Stdlib only; it takes no options and is not part of tier-1.  Each mutant is
one small change to one of the eight modules with logic (all but
``errors.py`` and ``__init__.py``), made with ``ast`` and written back with
``ast.unparse``.  The operators:

- ``delete``: a statement replaced by ``pass`` (docstrings and ``pass``
  excepted);
- a comparison swapped: ``<``/``<=``, ``>``/``>=``, ``==``/``!=``,
  ``in``/``not in``, ``is``/``is not``;
- ``+``/``-`` and ``&``/``|`` swapped, augmented assignments included;
- ``and``/``or`` swapped, and ``not`` dropped;
- an int constant plus one;
- ``break``/``continue`` swapped;
- a returned value replaced by ``None``;
- ``min``/``max`` swapped;
- a slice bound plus one.

Annotations are never mutated: under ``from __future__ import annotations``
no code reads them.

Each mutant runs in a child process on a temporary copy of the tree, at most
two at a time, each with a timeout and an address-space limit, since some
mutants loop forever.  The mutant first meets its module's own tests and the
result-line corpus, ``tests/test_result_lines.py``, which runs under pytest
only: run as a script, that file rewrites the corpus.  A mutant that passes
them meets the rest of tier-1, the acceptance criteria last.  A mutant
that fails or times out is killed.

The report on stdout has one line per mutant, ``<key>  => <verdict>``,
sorted by key, so two reports diff; a summary goes to stderr.  A key is ``module.function | mutation |
statement``: the innermost enclosing function (``<module>`` at top level),
the mutation, and the text of the statement it changes (a compound
statement's header only), with ``#2``, ``#3`` after the mutation for a
repeat within one statement.  No key holds a line number.  Every survivor
must be in ``mutants_ledger.txt``, with the reason that no test should kill
it; the exit status is 1, and stderr names the key, when one is not, or
when a ledger entry matches no survivor.
"""

from __future__ import annotations

import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor, as_completed
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "clawmwss"
LEDGER = Path(__file__).with_name("mutants_ledger.txt")

# Each mutated module, with the test files that filter its mutants first.
MODULE_TESTS = {
    "cardinality": ["tests/test_cardinality.py"],
    "cli": ["tests/test_cli.py"],
    "gen": ["tests/test_oracle_gen.py"],
    "graph": ["tests/test_graph.py"],
    "instances": ["tests/test_instances.py"],
    "oracles": ["tests/test_oracle_gen.py"],
    "structure": ["tests/test_structure.py"],
    "weighted": ["tests/test_weighted.py"],
}
CORPUS = "tests/test_result_lines.py"
# The acceptance criteria take half of tier-1's time, so they run last.
ACCEPTANCE = "tests/test_acceptance.py"

WORKERS = 2
# Seconds.  On a 2-vCPU host the slowest filter, tests/test_cli.py plus the
# corpus, takes about 10 s, and the rest of tier-1 about 50 s.  A mutant
# that breaks a test's stopping condition, such as a ``while checked < N``
# loop, runs until its timeout.
FILTER_TIMEOUT = 40
TIER1_TIMEOUT = 200
MEMORY_LIMIT = 2 << 30  # bytes of address space per child
KEY_WIDTH = 80  # statement text longer than this is cut

COMPARE = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Is: ast.IsNot, ast.IsNot: ast.Is,
}
BINARY = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd}
BOOLEAN = {ast.And: ast.Or, ast.Or: ast.And}
SYMBOL = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=", ast.Eq: "==", ast.NotEq: "!=",
    ast.In: "in", ast.NotIn: "not in", ast.Is: "is", ast.IsNot: "is not",
    ast.Add: "+", ast.Sub: "-", ast.BitAnd: "&", ast.BitOr: "|", ast.And: "and", ast.Or: "or",
}
BODIES = ("body", "orelse", "finalbody")

# Runs pytest with the child's address space capped: a mutant that loops
# may also allocate.
PYTEST = (
    "import resource, sys, pytest; "
    f"resource.setrlimit(resource.RLIMIT_AS, ({MEMORY_LIMIT}, {MEMORY_LIMIT})); "
    "sys.exit(pytest.main(sys.argv[1:]))"
)


class Site(NamedTuple):
    function: str
    statement: str
    mutation: str
    apply: Callable[[], object]


class Mutant(NamedTuple):
    module: str
    key: str
    code: str


def _replace(parent: ast.AST, field: str, index: int | None, new: ast.AST) -> None:
    if index is None:
        setattr(parent, field, new)
    else:
        getattr(parent, field)[index] = new


def _is_docstring(stmt: ast.stmt) -> bool:
    return isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant) and isinstance(
        stmt.value.value, str
    )


class _Sites:
    """Every mutation site of one parsed module, in walk order."""

    def __init__(self, source: str) -> None:
        self.lines = source.encode().splitlines(keepends=True)
        self.found: list[Site] = []

    def header(self, stmt: ast.stmt) -> str:
        """The statement's text on one line; a compound statement's header."""
        end = (stmt.end_lineno, stmt.end_col_offset)
        body = getattr(stmt, "body", None)
        if isinstance(body, list) and body:
            end = (body[0].lineno, body[0].col_offset)
        (l0, c0), (l1, c1) = (stmt.lineno, stmt.col_offset), end
        if l0 == l1:
            raw = self.lines[l0 - 1][c0:c1]
        else:
            raw = self.lines[l0 - 1][c0:] + b"".join(self.lines[l0 : l1 - 1]) + self.lines[l1 - 1][:c1]
        text = " ".join(raw.decode().split()).rstrip(":").rstrip()
        return text if len(text) <= KEY_WIDTH else text[: KEY_WIDTH - 3] + "..."

    def add(self, function: str, statement: str, mutation: str, apply: Callable[[], object]) -> None:
        self.found.append(Site(function, statement, mutation, apply))

    def body(self, stmts: list[ast.stmt], function: str) -> None:
        for i, stmt in enumerate(stmts):
            if _is_docstring(stmt):
                continue
            text = self.header(stmt)
            site = partial(self.add, function, text)
            if not isinstance(stmt, ast.Pass):
                site("delete", partial(stmts.__setitem__, i, ast.Pass()))
            if isinstance(stmt, (ast.Break, ast.Continue)):
                swap = ast.Continue() if isinstance(stmt, ast.Break) else ast.Break()
                site(f"{text} -> {type(swap).__name__.lower()}", partial(stmts.__setitem__, i, swap))
            if isinstance(stmt, ast.Return) and stmt.value is not None and not (
                isinstance(stmt.value, ast.Constant) and stmt.value.value is None
            ):
                site("return None", partial(setattr, stmt, "value", None))
            if isinstance(stmt, ast.AugAssign) and type(stmt.op) in BINARY:
                new = BINARY[type(stmt.op)]
                site(f"{SYMBOL[type(stmt.op)]}= -> {SYMBOL[new]}=", partial(setattr, stmt, "op", new()))
            inner = function
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = stmt.name if function == "<module>" else f"{function}.{stmt.name}"
            for name, value in ast.iter_fields(stmt):
                if name in BODIES:
                    self.body(value, inner)
                elif name == "handlers":
                    for handler in value:
                        if handler.type is not None:
                            self.node(handler, "type", None, handler.type, function, text)
                        self.body(handler.body, function)
                elif name not in ("annotation", "returns"):
                    self.children(stmt, name, value, function, text)

    def children(self, parent: ast.AST, name: str, value: object, function: str, text: str) -> None:
        if isinstance(value, list):
            for j, item in enumerate(value):
                if isinstance(item, ast.AST):
                    self.node(parent, name, j, item, function, text)
        elif isinstance(value, ast.AST):
            self.node(parent, name, None, value, function, text)

    def node(
        self, parent: ast.AST, field: str, index: int | None, node: ast.AST, function: str, text: str
    ) -> None:
        if isinstance(node, (ast.arg, ast.operator, ast.cmpop, ast.boolop, ast.unaryop)):
            return
        site = partial(self.add, function, text)
        if isinstance(node, ast.Compare):
            for k, op in enumerate(node.ops):
                new = COMPARE[type(op)]
                site(f"{SYMBOL[type(op)]} -> {SYMBOL[new]}", partial(node.ops.__setitem__, k, new()))
        elif isinstance(node, ast.BinOp) and type(node.op) in BINARY:
            new = BINARY[type(node.op)]
            site(f"{SYMBOL[type(node.op)]} -> {SYMBOL[new]}", partial(setattr, node, "op", new()))
        elif isinstance(node, ast.BoolOp):
            new = BOOLEAN[type(node.op)]
            site(f"{SYMBOL[type(node.op)]} -> {SYMBOL[new]}", partial(setattr, node, "op", new()))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            site("not dropped", partial(_replace, parent, field, index, node.operand))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            site(f"{node.value} -> {node.value + 1}", partial(setattr, node, "value", node.value + 1))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("min", "max")
        ):
            new = "max" if node.func.id == "min" else "min"
            site(f"{node.func.id} -> {new}", partial(setattr, node.func, "id", new))
        elif isinstance(node, ast.Slice):
            for bound in ("lower", "upper"):
                value = getattr(node, bound)
                if value is not None:
                    plus = ast.BinOp(value, ast.Add(), ast.Constant(1))
                    site(f"{bound} bound +1", partial(setattr, node, bound, plus))
        for name, value in ast.iter_fields(node):
            self.children(node, name, value, function, text)


def mutants(module: str) -> list[Mutant]:
    """Every mutant of one module, each with its key and its source."""
    source = (PACKAGE / f"{module}.py").read_text(encoding="ascii")
    out, seen = [], Counter()
    for i in range(len(_walk(source)[1])):
        tree, sites = _walk(source)
        site = sites[i]
        seen[site[:3]] += 1
        repeat = f" #{seen[site[:3]]}" if seen[site[:3]] > 1 else ""
        key = f"{module}.{site.function} | {site.mutation}{repeat} | {site.statement}"
        site.apply()
        out.append(Mutant(module, key, ast.unparse(ast.fix_missing_locations(tree)) + "\n"))
    return out


def _walk(source: str) -> tuple[ast.Module, list[Site]]:
    """A fresh parse of ``source`` and its sites; applying a site changes
    only that parse."""
    tree = ast.parse(source)
    sites = _Sites(source)
    sites.body(tree.body, "<module>")
    return tree, sites.found


def _tier1() -> list[str]:
    """Every tier-1 test file, the acceptance criteria last."""
    files = sorted(str(p.relative_to(ROOT)) for p in (ROOT / "tests").glob("test_*.py"))
    files.remove(ACCEPTANCE)
    return files + [ACCEPTANCE]


def _run(base: Path, tests: list[str], timeout: int) -> str:
    """'pass', 'fail' or 'timeout' for pytest on ``tests``, in that order, in
    the tree at ``base``."""
    env = {**os.environ, "PYTHONPATH": str(base / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    cmd = [sys.executable, "-c", PYTEST, "-q", "-x", "-p", "no:cacheprovider", *tests]
    child = subprocess.Popen(
        cmd, cwd=base, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    try:
        return "pass" if child.wait(timeout=timeout) == 0 else "fail"
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        return "timeout"


def _copy_tree(base: Path, changed: dict[str, str]) -> None:
    """What tier-1 reads (the sources, the tests, the benchmark's tracer and
    the pytest settings), with ``changed`` modules replaced."""
    skip = shutil.ignore_patterns("__pycache__", "*.egg-info")
    for part in ("src", "tests", "perfbench"):
        shutil.copytree(ROOT / part, base / part, ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", base)
    for module, code in changed.items():
        (base / "src" / "clawmwss" / f"{module}.py").write_text(code, encoding="ascii")


def verdict(mutant: Mutant) -> str:
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        base = Path(tmp)
        _copy_tree(base, {mutant.module: mutant.code})
        tests = MODULE_TESTS[mutant.module] + [CORPUS]
        first = _run(base, tests, FILTER_TIMEOUT)
        if first != "pass":
            return "killed" if first == "fail" else "timeout"
        full = _run(base, [t for t in _tier1() if t not in tests], TIER1_TIMEOUT)
        return {"fail": "killed by tier-1", "timeout": "timeout in tier-1", "pass": "survives"}[full]


def read_ledger() -> dict[str, str]:
    """Key -> reason: each key line is followed by its indented reason."""
    ledger: dict[str, str] = {}
    key = None
    for line in LEDGER.read_text(encoding="ascii").splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        if line[0].isspace():
            ledger[key] = f"{ledger[key]} {line.strip()}".strip()
        else:
            key = line.strip()
            ledger[key] = ""
    return ledger


def main() -> int:
    ledger = read_ledger()
    todo = [m for module in MODULE_TESTS for m in mutants(module)]
    print(f"{len(todo)} mutants over {len(MODULE_TESTS)} modules", file=sys.stderr)
    # The unparsed, unmutated tree must pass, or no verdict means anything.
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        unparsed = {
            module: ast.unparse(ast.parse((PACKAGE / f"{module}.py").read_text(encoding="ascii")))
            + "\n"
            for module in MODULE_TESTS
        }
        _copy_tree(Path(tmp), unparsed)
        if _run(Path(tmp), _tier1(), TIER1_TIMEOUT) != "pass":
            print("error: the unmutated, unparsed tree fails tier-1", file=sys.stderr)
            return 1
    start = time.monotonic()
    verdicts: dict[str, str] = {}
    with ThreadPoolExecutor(WORKERS) as pool:
        jobs = {pool.submit(verdict, m): m for m in todo}
        for done, job in enumerate(as_completed(jobs), 1):
            key = jobs[job].key
            verdicts[key] = job.result()
            elapsed = time.monotonic() - start
            print(f"{done}/{len(todo)} {elapsed:.0f} s: {verdicts[key]}: {key}", file=sys.stderr)
    print("\n".join(f"{key}  => {verdicts[key]}" for key in sorted(verdicts)))
    tally = Counter(verdicts.values())
    print(", ".join(f"{v}: {c}" for v, c in sorted(tally.items())), file=sys.stderr)
    survivors = {key for key, v in verdicts.items() if v == "survives"}
    for key in sorted(survivors - set(ledger)):
        print(f"survivor not in the ledger: {key}", file=sys.stderr)
    for key in sorted(set(ledger) - survivors):
        print(f"ledger entry matches no survivor: {key}", file=sys.stderr)
    return 0 if survivors == set(ledger) else 1


if __name__ == "__main__":
    sys.exit(main())
