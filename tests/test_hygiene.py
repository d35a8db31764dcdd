"""Source hygiene: every name a module imports is read somewhere in it,
only the two records of ``cylinder`` name a cylinder space, every name
the benchmark looks up in the package exists, every name the package
defines is read by the package or the benchmark, and every opcode the
machine defines is emitted by a program builder."""

import ast
import importlib
import re
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


REPRESENTATIONS = {"FamilyPatternSet", "SortedPrefixFree"}


def representation_checks(source: str) -> list[str]:
    """Every ``isinstance`` call whose classes name a set representation."""
    return [
        ast.unparse(node)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and ast.unparse(node.func) == "isinstance"
        and any(
            getattr(name, "id", getattr(name, "attr", None)) in REPRESENTATIONS
            for classes in node.args[1:]
            for name in ast.walk(classes)
        )
    ]


def test_the_scan_sees_a_representation_check():
    source = (
        "isinstance(s, FamilyPatternSet)\n"
        "isinstance(s, (frozenset, cylinder.SortedPrefixFree))\n"
        "isinstance(s, str)\n"
        "FamilyPatternSet(levels)\n"
    )
    assert representation_checks(source) == [
        "isinstance(s, FamilyPatternSet)",
        "isinstance(s, (frozenset, cylinder.SortedPrefixFree))",
    ]


def test_escapes_never_ask_how_a_set_is_stored():
    # diagonal reads every set through the open-set protocol of cylinder
    source = (ROOT / "src" / "oraclediag" / "diagonal.py").read_text(encoding="utf-8")
    assert not representation_checks(source)


# ---------------------------------------------------------------------------
# The two cylinder spaces are told apart by their records alone
# ---------------------------------------------------------------------------

KIND_NAMES = {"binary", "family"}
RECORDS = {"BINARY", "FAMILY"}  # the only statements that name a space
STR_CHECKS = {"validate_bits", "cell_kind"}  # the only functions that ask for a str


def kind_offences(source: str, cylinder: bool) -> list[str]:
    """``scope: text`` of every string constant naming a space and every
    ``isinstance(..., str)`` in ``source``, less, in ``cylinder``, the
    names in the two records and the checks in ``STR_CHECKS``."""
    found = []
    for node in ast.parse(source).body:
        scope = getattr(node, "name", None) or ", ".join(bound([node])) or type(node).__name__
        for inner in ast.walk(node):
            if isinstance(inner, ast.Constant) and inner.value in KIND_NAMES:
                if not (cylinder and scope in RECORDS):
                    found.append(f"{scope}: {inner.value!r}")
            elif (
                isinstance(inner, ast.Call)
                and ast.unparse(inner.func) == "isinstance"
                and any(getattr(n, "id", None) == "str" for n in ast.walk(inner.args[-1]))
                and not (cylinder and scope in STR_CHECKS)
            ):
                found.append(f"{scope}: {ast.unparse(inner)}")
    return found


def test_the_scan_sees_a_kind_told_apart_by_name_or_type():
    source = (
        'BINARY = Kind("binary")\nFAMILY = Kind("family")\n'
        "def validate_bits(s):\n    return isinstance(s, str)\n"
        "def cell_kind(t):\n    return isinstance(t, str)\n"
        "def child(p):\n    return isinstance(p, (str, tuple)) or isinstance(p, tuple)\n"
        'def parse(kind):\n    return kind == "binary"\n'
        'CHOICES = ("binary", "family", "binary-ish")\n'
    )
    planted = [
        "child: isinstance(p, (str, tuple))",
        "parse: 'binary'",
        "CHOICES: 'binary'",
        "CHOICES: 'family'",
    ]
    assert kind_offences(source, cylinder=True) == planted
    assert kind_offences(source, cylinder=False) == [
        "BINARY: 'binary'",
        "FAMILY: 'family'",
        "validate_bits: isinstance(s, str)",
        "cell_kind: isinstance(t, str)",
        *planted,
    ]


def test_only_the_records_name_a_space_and_only_cylinder_infers_one():
    found = [
        f"{path.name}: {offence}"
        for path in sorted((ROOT / "src" / "oraclediag").glob("*.py"))
        for offence in kind_offences(path.read_text(encoding="utf-8"), path.stem == "cylinder")
    ]
    assert not found, found


# ---------------------------------------------------------------------------
# Names the benchmark looks up in the package
# ---------------------------------------------------------------------------

BENCH = ROOT / "bench"
OD_REFERENCE = re.compile(r"\bod\.(\w+)\.(\w+)")


def tracing_targets() -> list[tuple[str, str, str | None]]:
    """(module, attr, owner class) of every ``Target(...)`` in ``TARGETS``."""
    tree = ast.parse((BENCH / "tracing.py").read_text(encoding="utf-8"))
    (targets,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "TARGETS"
    ]
    found = []
    for call in targets.elts:
        module, attr = (arg.value for arg in call.args[:2])
        owner = next((k.value.value for k in call.keywords if k.arg == "owner"), None)
        found.append((module, attr, owner))
    return found


def bench_references() -> set[tuple[str, str]]:
    """Every ``od.<module>.<name>`` in the benchmark's scripts and tests."""
    paths = [*BENCH.glob("*.py"), *(BENCH / "tests").glob("*.py")]
    return {m.groups() for path in paths for m in OD_REFERENCE.finditer(path.read_text(encoding="utf-8"))}


def _resolves(module: str, attr: str, owner: str | None = None) -> bool:
    try:
        found = importlib.import_module(f"oraclediag.{module}")
    except ImportError:
        return False
    if owner is not None:
        found = getattr(found, owner, None)
    return hasattr(found, attr)


def test_the_scans_see_the_benchmark_names():
    targets = tracing_targets()
    assert ("cli", "main", None) in targets and ("schedules", "f", "Schedule") in targets
    assert len(targets) == len(set(targets)) >= 30
    references = bench_references()
    assert ("experiments", "nbit_primes") in references and len(references) >= 30
    assert not _resolves("experiments", "no_such_name") and not _resolves("no_such_module", "f")
    assert not _resolves("schedules", "no_such_method", "Schedule")


def test_every_name_the_benchmark_needs_exists():
    missing = [
        ".".join(filter(None, (module, owner, attr)))
        for module, attr, owner in tracing_targets()
        if not _resolves(module, attr, owner)
    ]
    missing += [f"{module}.{attr}" for module, attr in bench_references() if not _resolves(module, attr)]
    assert not missing, sorted(missing)


# ---------------------------------------------------------------------------
# Names only tests reach
# ---------------------------------------------------------------------------

# kept in the library though no src/ or bench/ code reads them
TEST_ONLY = {
    "subadditivity_check": "acceptance criterion 1 checks the measure axioms with it",
    "monotonicity_check": "acceptance criterion 1 checks the measure axioms with it",
    "minimal_shoup_constant": "acceptance criterion 3 audits the Shoup constant with it",
    "build_rom_testfamily": "acceptance criterion 7 builds its random-oracle test sets with it",
    "all_oracle_tables": "the brute-force reference that bad_tables_for is held to",
}


def bound(body: list[ast.stmt]) -> list[str]:
    """Names the functions, classes and assignments of ``body`` bind."""
    found = []
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return found


def definitions(source: str) -> list[str]:
    """Module-level functions, classes and constants, and what the body of
    a module-level class binds (``Class.name``): its methods, class
    attributes and dataclass fields.  Dunders are left out, as the
    language reads them."""
    found = []
    for node in ast.parse(source).body:
        found += bound([node])
        if isinstance(node, ast.ClassDef):
            found += [f"{node.name}.{name}" for name in bound(node.body)]
    return [name for name in found if not re.fullmatch(r"__\w+__", name.rsplit(".", 1)[-1])]


def names_read(source: str) -> set[str]:
    """Every name loaded and every attribute read, by name alone."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


def unread(defining: str, read: set[str]) -> list[str]:
    """Definitions in ``defining`` whose name is not in ``read``."""
    return [name for name in definitions(defining) if name.rsplit(".", 1)[-1] not in read]


def test_the_scan_sees_a_name_only_tests_reach():
    defining = (
        "LIMIT = 3\nCOUNT: int = 4\n"
        "def used(): pass\ndef planted(): pass\ndef traced(): pass\n"
        "class Box:\n    def __len__(self): pass\n    def size(self): pass\n    def spare(self): pass\n"
        "@dataclass\nclass Cell:\n    __slots__ = ()\n    kind = 'binary'\n    uniform = True\n"
        "    den: int\n    unused: int = 0\n"
    )
    read = names_read("used(LIMIT, COUNT)\nBox().size()\nc = Cell(1)\nc.kind, c.den\n") | {"traced"}
    assert unread(defining, read) == ["planted", "Box.spare", "Cell.uniform", "Cell.unused"]


def test_every_library_name_has_a_caller_outside_tests():
    sources = sorted((ROOT / "src" / "oraclediag").glob("*.py"))
    read = {attr for _, attr, _ in tracing_targets()}  # looked up by string
    for path in [*sources, *BENCH.glob("*.py")]:
        read |= names_read(path.read_text(encoding="utf-8"))
    found = {name: path.stem for path in sources for name in unread(path.read_text(encoding="utf-8"), read)}
    # a name found and not listed is read by tests only; one listed and
    # not found has a caller again and leaves the list
    assert set(found) == set(TEST_ONLY), {n: found.get(n, "read") for n in set(found) ^ set(TEST_ONLY)}


# ---------------------------------------------------------------------------
# Opcodes no builder emits
# ---------------------------------------------------------------------------


def opcodes(source: str) -> list[str]:
    """Module-level ``OP_*`` names, in the order they are bound."""
    return [name for name in definitions(source) if name.startswith("OP_")]


def emitted_opcodes(source: str) -> set[str]:
    """``OP_*`` names that head an instruction a method of ``_Asm`` passes
    to ``self._emit`` or ``self._value``."""
    (cls,) = [n for n in ast.parse(source).body if isinstance(n, ast.ClassDef) and n.name == "_Asm"]
    return {
        call.args[0].elts[0].id
        for call in ast.walk(cls)
        if isinstance(call, ast.Call)
        and ast.unparse(call.func) in ("self._emit", "self._value")
        and isinstance(call.args[0], (ast.List, ast.Tuple))
        and isinstance(call.args[0].elts[0], ast.Name)
    }


def test_the_scan_sees_an_opcode_no_builder_emits():
    machine = "OP_A, OP_B, OP_PLANTED = range(3)\nOP_C: int = 3\n"
    builder = (
        "class _Asm:\n"
        "    def a(self):\n        return self._value([OP_A, 0])\n"
        "    def c(self):\n        self._emit((OP_C,))\n"
        "    def build(self):\n        return [i for i in self.instrs if i[0] in (OP_B, OP_PLANTED)]\n"
        "    def b(self, label):\n        self._emit([OP_B, label])\n"
    )
    assert opcodes(machine) == ["OP_A", "OP_B", "OP_PLANTED", "OP_C"]
    assert [op for op in opcodes(machine) if op not in emitted_opcodes(builder)] == ["OP_PLANTED"]


def test_every_opcode_has_a_builder():
    # an opcode no builder emits runs in no program; it goes, with its
    # branches in both interpreters, rather than stay untested
    package = ROOT / "src" / "oraclediag"
    emitted = emitted_opcodes((package / "programs.py").read_text(encoding="utf-8"))
    defined = opcodes((package / "vm.py").read_text(encoding="utf-8"))
    assert len(defined) >= 6
    assert [op for op in defined if op not in emitted] == []
