"""The statement scan of ``tools/untested_statements.py``, on a planted
module: it reports exactly the statements that did not run."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("untested_statements", ROOT / "tools" / "untested_statements.py")
scan = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(scan)

PLANTED = '''"""A module with one called function."""


def called(x):
    y = x + 1
    return y


def uncalled(x):
    if x:
        return 1
    return 2
'''


def test_the_scan_reports_exactly_the_function_no_one_calls(tmp_path):
    (tmp_path / "planted.py").write_text(PLANTED)
    spec = importlib.util.spec_from_file_location("planted", tmp_path / "planted.py")
    module = importlib.util.module_from_spec(spec)

    def run():
        spec.loader.exec_module(module)
        return module.called(2)

    result, ran = scan.traced_lines(tmp_path, run)
    assert result == 3
    unrun = [
        ("planted.py", 10, "uncalled", "if x:"),
        ("planted.py", 11, "uncalled", "return 1"),
        ("planted.py", 12, "uncalled", "return 2"),
    ]
    assert scan.unrun_statements(tmp_path, ran, allowed={}) == unrun
    allowed = {("planted.py", "uncalled", "return 2"): "a reason"}
    assert scan.unrun_statements(tmp_path, ran, allowed) == unrun[:2]


def test_every_allowlist_entry_names_a_statement_of_the_package():
    present = {
        (path.name, scope, text)
        for path in scan.PACKAGE.glob("*.py")
        for scope, _, text, _ in scan.statements(path.read_text(encoding="utf-8"))
    }
    assert set(scan.ALLOWED) <= present
    assert all(scan.ALLOWED.values())
