"""The answer digests of ``tools/output_digest.py``: a planted change of
one rational moves its section's digest and no other, and a section's
digest does not depend on the hash seed."""

import importlib.util
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from oraclediag import rom

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "output_digest.py"
_spec = importlib.util.spec_from_file_location("output_digest", TOOL)
digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digest)


def test_every_section_is_recorded():
    assert set(json.loads(digest.RECORDED.read_text())) == set(digest.SECTIONS)


def test_a_planted_rational_moves_only_its_section(monkeypatch):
    before = digest.digests(small=True)
    closed_form = rom.rom_testset_measure

    def planted(n, q, ell, bad_count):
        value = closed_form(n, q, ell, bad_count)
        return value + Fraction(1, 2**40) if (n, q, bad_count) == (2, 1, 8) else value

    monkeypatch.setattr(rom, "rom_testset_measure", planted)
    after = digest.digests(small=True)
    assert [name for name in before if before[name] != after[name]] == ["rom"]


def test_a_section_is_the_same_under_two_hash_seeds():
    runs = [
        subprocess.run(
            [sys.executable, str(TOOL), "member-escapes"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONHASHSEED": seed},
        )
        for seed in ("1", "2")
    ]
    assert [run.returncode for run in runs] == [0, 0], [run.stderr for run in runs]
    assert runs[0].stdout == runs[1].stdout and " ok" in runs[0].stdout
