"""List the statements of ``src/oraclediag`` that no test runs.

Usage::

    python tools/untested_statements.py

Runs ``tests/`` in this process under a ``sys.settrace`` line tracer
confined to ``src/oraclediag``, then finds the statements of each module
with ``ast`` (leaving out definitions, imports, docstrings and other
statements that compile to no code of their own) and prints every one
that never ran and that ``ALLOWED`` does not name.  Code run in a
subprocess, such as the CLI usage-error tests, is not traced and counts
as not run.  Hypothesis draws are seeded, so a run of one tree lists
the same statements each time.  Exits with 1 if any statement remains
or the tests fail.

It is not a tier-1 test: tracing every line makes a tier-1 run several
times slower (ROADMAP item 9 gives the measured times).  The scanner
itself uses only the standard library; pytest runs the tests.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "oraclediag"

# (file, enclosing function, statement text) -> why no test runs it
ALLOWED = {
    ("cli.py", "<module>", "sys.exit(main())"): (
        "runs only when the module is run as __main__, which the tests do in a subprocess"
    ),
    ("cli.py", "cmd_bounds", 'raise ValueError(f"unknown check {args.check!r}")'): (
        "argparse's choices admit only tail, power and markov"
    ),
}

# statements that are skipped themselves; the statements inside them are not
_SKIPPED = (
    ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom,
    ast.Global, ast.Nonlocal, ast.Try, getattr(ast, "TryStar", ast.Try),
)


def statements(source: str) -> list[tuple[str, int, str, set[int]]]:
    """Each statement as (enclosing function, first line, the text of
    that line, its own lines): the lines it spans less those of the
    statements nested in it.  A line event on any own line means the
    statement ran."""
    found = []
    lines = [line.encode() for line in source.splitlines()]  # ast offsets count bytes

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = child.name if scope == "<module>" else f"{scope}.{child.name}"
            if isinstance(child, ast.stmt) and not _skipped(child):
                own = set(range(child.lineno, child.end_lineno + 1))
                for nested in ast.walk(child):
                    if nested is not child and isinstance(nested, ast.stmt):
                        own -= set(range(nested.lineno, nested.end_lineno + 1))
                line = lines[child.lineno - 1]
                end = child.end_col_offset if child.end_lineno == child.lineno else len(line)
                text = line[child.col_offset:end].decode().strip()
                found.append((scope, child.lineno, text, own or {child.lineno}))
            visit(child, inner)

    visit(ast.parse(source), "<module>")
    return found


def _skipped(stmt: ast.stmt) -> bool:
    """Definitions, imports, docstrings, bare annotations: no code of their own."""
    if isinstance(stmt, _SKIPPED):
        return True
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
        return isinstance(stmt.value.value, str)
    return isinstance(stmt, ast.AnnAssign) and stmt.value is None


def traced_lines(package: Path, run: Callable[[], object]) -> tuple[object, dict[str, set[int]]]:
    """``run()``'s result and the lines it ran in each file under ``package``.

    The tracer this replaces, if any, is restored afterwards, so a traced
    run may call this too.  The standard library's ``trace.Trace`` is not
    used: it caches its ignore decision by a file's base name, so every
    ``__init__.py`` takes the verdict of the first one called (one under
    site-packages), and it took over twice as long on the same test files."""
    prefix = str(package.resolve()) + os.sep
    ran: dict[str, set[int]] = {}
    inside: dict[str, bool] = {}  # co_filename -> whether it is under the package

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def start(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in inside:
            inside[filename] = os.path.realpath(filename).startswith(prefix)
            ran.setdefault(filename, set())
        return local if inside[filename] else None

    before, before_threads = sys.gettrace(), threading.gettrace()
    threading.settrace(start)
    sys.settrace(start)
    try:
        result = run()
    finally:
        sys.settrace(before)
        threading.settrace(before_threads)
    by_path: dict[str, set[int]] = {}
    for filename, lines in ran.items():
        by_path.setdefault(os.path.realpath(filename), set()).update(lines)
    return result, by_path


def unrun_statements(
    package: Path, ran: dict[str, set[int]], allowed: dict = ALLOWED
) -> list[tuple[str, int, str, str]]:
    """(file, first line, enclosing function, text) of every statement in
    ``package``'s modules with no line in ``ran``, less the ``allowed``."""
    missing = []
    for path in sorted(package.glob("*.py")):
        lines = ran.get(str(path.resolve()), set())
        for scope, line, text, own in statements(path.read_text(encoding="utf-8")):
            if not own & lines and (path.name, scope, text) not in allowed:
                missing.append((path.name, line, scope, text))
    return sorted(missing, key=lambda entry: entry[:2])


def main() -> int:
    import pytest

    sys.path.insert(0, str(PACKAGE.parent))
    status, ran = traced_lines(
        PACKAGE,
        lambda: pytest.main(
            ["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", str(ROOT / "tests")]
        ),
    )
    missing = unrun_statements(PACKAGE, ran)
    for name, line, scope, text in missing:
        print(f"src/oraclediag/{name}:{line} {scope}: {text}")
    print(f"{len(missing)} statements never ran; the tests exited with {int(status)}")
    return 1 if missing or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
