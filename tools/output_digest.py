"""Check that the library's answers are unchanged: one sha256 per section.

Usage::

    python tools/output_digest.py                 # check every section
    python tools/output_digest.py rom block-span  # check only these sections
    python tools/output_digest.py --record        # rewrite the recorded digests

Each section is a seeded generator of text lines: escape transcripts,
measures, success vectors and the like, every rational written out
exactly.  A call that refuses writes its error type and message in place
of its answer, so a changed refusal moves a digest as a changed rational
does.  The digests are compared with ``tools/output_digest.json``; the
script prints one line per section and exits with 1 if any differs,
naming it.  A change that alters a section's output on purpose records
the section again and says why.

The corpus uses only the package's public calls, with kinds given by
name, so one recording can be checked against a tree before and after
a refactor.  ``digests(small=True)`` runs a cut-down corpus for the
tier-1 self-test; its digests are not recorded.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator

ROOT = Path(__file__).resolve().parents[1]
RECORDED = Path(__file__).with_suffix(".json")
sys.path.insert(0, str(ROOT / "src"))

from oraclediag import (  # noqa: E402
    cli, cylinder, diagonal, experiments, fdh, pipeline, programs, rom, schedules,
)


def _answer(call: Callable[[], object], show: Callable[[object], str] = str) -> str:
    """``show(call())``, or the refusal's type and message."""
    try:
        return show(call())
    except Exception as exc:  # a refusal is part of the answer
        return f"{type(exc).__name__}: {exc}"


def _fractions(values) -> str:
    return " ".join(map(str, values))


# ---------------------------------------------------------------------------
# Seeded sets
# ---------------------------------------------------------------------------


def _bits(rng: random.Random, low: int, high: int) -> str:
    return "".join(rng.choice("01") for _ in range(rng.randint(low, high)))


def _binary_set(rng: random.Random) -> frozenset:
    members = {_bits(rng, 1, 7) for _ in range(rng.randint(0, 10))}
    if rng.random() < 0.02:
        members.add("")
    return frozenset(members)


def _encoding(rng: random.Random, width: int) -> cylinder.EncodingFunction:
    encodings = cylinder.all_encodings(width)
    return encodings[rng.randrange(len(encodings))]


def _family_prefix(rng: random.Random, length: int) -> tuple:
    return tuple(_encoding(rng, width) for width in range(1, length + 1))


def _family_set(rng: random.Random) -> frozenset:
    count = rng.randint(0, 6)
    return frozenset(_family_prefix(rng, rng.choices((1, 2, 3), (1, 3, 3))[0]) for _ in range(count))


def _extension(rng: random.Random, member):
    """A longer member inside ``member``'s cell: more bits, or encodings
    of the next widths up to 3."""
    if isinstance(member, str):
        return member + _bits(rng, 1, 3)
    return member + tuple(_encoding(rng, width) for width in range(len(member) + 1, 4))


def _compact_set(rng: random.Random, levels: int = 2) -> cylinder.FamilyPatternSet:
    """A few levels of width 1-4, each with a few bad assignments."""
    found = {}
    for n in sorted(rng.sample(range(1, 5), rng.randint(1, levels))):
        size = 1 << n
        keys = tuple(sorted(rng.sample(range(size), rng.randint(1, min(2, size)))))
        found[n] = (keys, [tuple(rng.sample(range(size), len(keys))) for _ in range(rng.randint(1, 3))])
    return cylinder.FamilyPatternSet(found)


def _text(kind: str, members) -> str:
    if isinstance(members, cylinder.FamilyPatternSet):
        return repr(sorted((n, keys, sorted(bad)) for n, (keys, bad) in members.levels.items()))
    write = cylinder.format_binary_set if kind == "binary" else cylinder.format_family_set
    return write(members).replace("\n", "|")


def _ordered(kind: str, members) -> list:
    key = (lambda s: (len(s), s)) if kind == "binary" else (lambda p: (len(p), [e.table for e in p]))
    return sorted(members, key=key)


def _escape_lines(kind: str, S, members, depth: int, mode: str) -> Iterator[str]:
    escape = diagonal.escape_binary if kind == "binary" else diagonal.escape_family
    try:
        transcript = escape(S, depth=depth, mode=mode)
    except Exception as exc:
        yield f"{type(exc).__name__}: {exc}"
        return
    yield transcript.to_text()
    yield f"verified {_answer(lambda: diagonal.verify_escape(transcript.prefix, members))}"


# ---------------------------------------------------------------------------
# Sections
# ---------------------------------------------------------------------------


def toy_pipeline(small: bool) -> Iterator[str]:
    """Reports of both schedules at depths 1-6 in both modes, and horizon 4 at depth 5."""
    names, modes = ("paper", "compressed"), ("exact", "approx")
    runs = [(s, d, 3, m) for s in names for d in range(1, 3 if small else 7) for m in modes]
    runs += [] if small else [(s, 5, 4, m) for s in names for m in modes]
    for schedule, depth, horizon, mode in runs:
        yield f"pipeline {schedule} depth {depth} horizon {horizon} mode {mode}"
        run = lambda: pipeline.run_pipeline(schedule, depth=depth, horizon=horizon, mode=mode)  # noqa: E731
        yield _answer(lambda: run().summary())


def member_escapes(small: bool) -> Iterator[str]:
    """Random binary and family member sets, escaped in both modes."""
    rng = random.Random(1201)
    for case in range(40 if small else 1200):
        kind = "binary" if case % 3 else "family"
        members = _binary_set(rng) if kind == "binary" else _family_set(rng)
        depth = rng.randint(0, 12) if kind == "binary" else rng.randint(0, 4)
        yield f"case {case} {kind} depth {depth} set {_text(kind, members)}"
        yield f"measure {_answer(lambda: cylinder.measure(members))}"
        for mode in ("exact", "approx"):
            yield from _escape_lines(kind, members, members, depth, mode)


def _stages(rng: random.Random, kind: str):
    """Growing stages of a member set, the last the whole set; an earlier
    stage may hold longer members inside cells a later one adds."""
    members = _ordered(kind, _binary_set(rng) if kind == "binary" else _family_set(rng))
    count = rng.randint(1, 4)
    cuts = [len(members) * j // count for j in range(count + 1)]
    stages = []
    for j in range(1, count):
        ahead = members[cuts[j]:cuts[j + 1]]
        longer = {_extension(rng, m) for m in ahead} if rng.random() < 0.5 else set()
        stages.append(frozenset(members[:cuts[j]]) | longer)
    stages.append(frozenset(members).union(*stages))
    return stages, frozenset(members)


def _compact_stages(rng: random.Random):
    whole = _compact_set(rng, levels=3)
    levels = sorted(whole.levels.items())
    stages = [
        cylinder.FamilyPatternSet({n: (keys, sorted(bad)[: j + 1]) for n, (keys, bad) in levels[: j + 1]})
        for j in range(len(levels))
    ]
    return [*stages, whole], whole


# approximators within 2**-k of the measure
IN_CONTRACT = {
    "exact": lambda total, k: total,
    "below": lambda total, k: total - Fraction(1, 2 ** (k + 1)),
    "above": lambda total, k: total + Fraction(1, 2 ** (k + 1)),
    "skew": lambda total, k: total + Fraction(5, 2 ** (k + 3)),
}
# approximators that break the contract
BROKEN = {
    "high": lambda total, k: total + Fraction(3, 2**k),
    "low": lambda total, k: total - Fraction(3, 2**k),
    "quarter-low": lambda total, k: total - Fraction(1, 4),
    "zero": lambda total, k: Fraction(0),
    "one": lambda total, k: Fraction(1),
}


def _staged_lines(rng: random.Random, case: int, approximators: dict) -> Iterator[str]:
    form = ("binary", "family", "compact")[case % 3]
    kind = "binary" if form == "binary" else "family"
    stages, members = _compact_stages(rng) if form == "compact" else _stages(rng, kind)
    total = cylinder.measure(stages[-1])
    name = sorted(approximators)[rng.randrange(len(approximators))]
    approx = approximators[name]
    depth = rng.randint(0, 10) if kind == "binary" else rng.randint(0, 4)
    yield f"case {case} {form} {name} depth {depth} measure {total}"
    yield " / ".join(_text(kind, stage) for stage in stages)
    for mode in ("exact", "approx"):
        S = diagonal.EnumeratedOpenSet(kind, tuple(stages), lambda k: approx(total, k))
        yield from _escape_lines(kind, S, members, depth, mode)


def staged_sets(small: bool) -> Iterator[str]:
    """Staged binary, family and compact sets whose approximators keep their contract."""
    rng = random.Random(3202)
    for case in range(30 if small else 1200):
        yield from _staged_lines(rng, case, IN_CONTRACT)


def broken_approximators(small: bool) -> Iterator[str]:
    """Staged sets whose approximators break their contract: the answer or the typed error."""
    rng = random.Random(4303)
    for case in range(30 if small else 600):
        yield from _staged_lines(rng, case, BROKEN)


def _cli(argv: list[str]) -> str:
    """The exit code, output and error of one command."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refuses a usage
            code = exc.code
    return f"exit {code}\n{out.getvalue()}{err.getvalue()}"


def set_files(small: bool) -> Iterator[str]:
    """``measure`` and ``diagonalize`` on seeded set files of both kinds,
    some with comments, the other token for the root, a bad line, or the
    other kind's members, read through the command line."""
    rng = random.Random(5404)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "set.txt"
        for case in range(20 if small else 200):
            kind = ("binary", "family")[case % 2]
            members = _binary_set(rng) if kind == "binary" else _family_set(rng)
            text = _text(kind, members).replace("|", "\n")
            twist = rng.choice(("none", "comment", "root", "bad", "other"))
            text += {"comment": "# a comment\n\n", "root": "λ\n", "bad": "x1\n"}.get(twist, "")
            flag = ("family", "binary")[case % 2] if twist == "other" else kind
            path.write_text(text)
            depth = str(rng.randint(0, 10) if kind == "binary" else rng.randint(0, 4))
            yield f"case {case} {kind} {twist} {text!r}"
            yield _cli(["measure", str(path), "--kind", flag])
            for mode in ("exact", "approx"):
                yield _cli(["diagonalize", str(path), "--kind", flag, "--depth", depth, "--mode", mode])
        yield _cli(["measure", str(path), "--kind", "bogus"])


def rom_sets(small: bool) -> Iterator[str]:
    """Bad tables, patterns and the measures of both forms for every fdh adversary."""
    for adversary in sorted(fdh.ADVERSARIES):
        for q in (1,) if small else (1, 2):
            for n in (1, 2) if small else (1, 2, 3):
                oracle = fdh.fdh_experiment_oracle(fdh.default_toy_scheme(q), adversary)
                yield f"rom {adversary} q {q} n {n}"
                try:
                    bad = rom.bad_tables_for(oracle, 2, n)
                except Exception as exc:
                    yield f"{type(exc).__name__}: {exc}"
                    continue
                yield " ".join(",".join(table.values) for table in bad)
                patterns = rom.build_constraint_patterns(n, q, oracle.ell, bad)
                yield " ".join(f"{p.length}:{p.pins}" for p in patterns)
                yield f"patterns {_answer(lambda: rom.pattern_set_measure(patterns))}"
                yield f"closed {_answer(lambda: rom.rom_testset_measure(n, q, oracle.ell, len(bad)))}"
                strings = lambda: rom.build_constraint_strings(  # noqa: E731
                    n, q, oracle.ell, bad, max_strings=2**16
                )
                yield f"strings {_answer(lambda: cylinder.binary_measure(strings()))}"


def block_spans(small: bool) -> Iterator[str]:
    """``block_span`` under three block-length polynomials."""
    for coeffs in ((1,), (1, 1), (2, 0, 1)):
        ell = rom.EllPoly(coeffs)
        for n in range(4 if small else 7):
            for j in range(4 if small else 7):
                yield f"{coeffs} {n} {j} {_answer(lambda: rom.block_span(n, j, ell))}"


PROGRAMS = (
    "const_guess:0", "const_guess:1", "invalid_guess", "random_guess:1", "random_guess:2",
    "linear_search:1", "linear_search:2", "bsgs:1", "bsgs:2",
    "cdh_echo", "cdh_const_guess:01", "cdh_invalid",
)


def success_vectors(small: bool) -> Iterator[str]:
    """Naive (width 2) and fast (widths 2-3) success vectors, per-sigma
    values, averages and fixed-modulus audits."""
    for spec in PROGRAMS[:4] if small else PROGRAMS:
        experiment = "cdh" if spec.startswith("cdh") else "dlog"
        for n in (2,) if small else (2, 3):
            prog = programs.build_program(spec, n)
            yield f"program {spec} n {n}"
            yield _answer(lambda: experiments.success_vector(prog, n, experiment), _fractions)
            if n == 2:
                naive = lambda: experiments.success_vector(prog, n, experiment, method="naive")  # noqa: E731
                yield _answer(naive, _fractions)
                per = getattr(experiments, f"{experiment}_success_for_sigma")
                sigmas = cylinder.all_encodings(n)[::5]
                yield _answer(lambda: [per(prog, n, sigma) for sigma in sigmas], _fractions)
            run = experiments.dlog_success_ggm if experiment == "dlog" else experiments.cdh_success_ggm
            yield _answer(lambda: run(prog, n).row(prog.name, n, "avg"), repr)
            for modulus in (3, 4, 5, 6, 7):
                audit = lambda: experiments.shoup_audit(prog, n, experiment, modulus, 1)  # noqa: E731
                yield _answer(lambda: audit().row(prog.name, n, modulus, 1), repr)


def depth_limits(small: bool) -> Iterator[str]:
    """Escapes at and past the size rule's depth limits, and the escape
    schedule's cutoffs up to the rule."""
    binary_cap, family_cap = (300, 4) if small else (14284, 9)
    compact = cylinder.FamilyPatternSet({2: ((0,), [(1,), (2,)]), 3: ((0, 5), [(1, 2)])})
    runs = [
        ("binary", frozenset({"1", "011"}), binary_cap, "exact"),
        ("binary", frozenset({"1", "011"}), 60 if small else 600, "approx"),
        ("family", compact, family_cap, "exact"),
        ("family", compact, family_cap, "approx"),
        ("family", frozenset({_family_prefix(random.Random(9), 2)}), family_cap, "exact"),
    ]
    if not small:
        runs += [("binary", frozenset({"1"}), 14285, "exact"), ("family", compact, 10, "approx")]
    for kind, members, depth, mode in runs:
        yield f"{kind} depth {depth} {mode} set {_text(kind, members)}"
        yield from _escape_lines(kind, members, members, depth, mode)
    if not small:
        yield f"pipeline depth 9 {_answer(lambda: pipeline.run_pipeline('compressed', depth=9).summary())}"
    g = schedules.Schedule.escape_from(schedules.Schedule.dlog_paper())
    for m in range(1, 5 if small else 9):
        yield f"g({m}) {_answer(lambda: g.g(m), lambda v: hashlib.sha256(str(v).encode()).hexdigest())}"


SECTIONS: dict[str, Callable[[bool], Iterator[str]]] = {
    "toy-pipeline": toy_pipeline,
    "member-escapes": member_escapes,
    "staged-sets": staged_sets,
    "broken-approximators": broken_approximators,
    "set-files": set_files,
    "rom": rom_sets,
    "block-span": block_spans,
    "success-vectors": success_vectors,
    "depth-limits": depth_limits,
}


def digest(section: str, small: bool = False) -> str:
    h = hashlib.sha256()
    for line in SECTIONS[section](small):
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def digests(names=SECTIONS, small: bool = False) -> dict[str, str]:
    return {name: digest(name, small) for name in names}


def main(argv: list[str]) -> int:
    record = "--record" in argv
    names = [a for a in argv if a != "--record"] or list(SECTIONS)
    unknown = [name for name in names if name not in SECTIONS]
    if unknown:
        print(f"unknown sections {unknown}; known: {list(SECTIONS)}", file=sys.stderr)
        return 2
    recorded = json.loads(RECORDED.read_text()) if RECORDED.exists() else {}
    found = digests(names)
    if record:
        RECORDED.write_text(json.dumps({**recorded, **found}, indent=2, sort_keys=True) + "\n")
    failed = [name for name in names if not record and found[name] != recorded.get(name)]
    for name in names:
        print(f"{name:22} {found[name]} {'MISMATCH' if name in failed else 'ok'}")
    if failed:
        print(f"changed: {', '.join(failed)}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
