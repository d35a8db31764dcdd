"""Source hygiene: every name a module imports is read somewhere in it."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted([*(ROOT / "src" / "oraclediag").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never loaded."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names if a.name != "*"]
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [name for name in imported if name not in read]


def test_the_scan_sees_an_unused_import():
    source = "import os\nfrom sys import argv, path as p\nfrom __future__ import annotations\nprint(argv)\n"
    assert unused_imports(source) == ["os", "p"]


def test_no_module_imports_a_name_it_never_reads():
    found = {
        f"{path.relative_to(ROOT)}: {name}"
        for path in SOURCES
        for name in unused_imports(path.read_text(encoding="utf-8"))
    }
    assert not found, sorted(found)
