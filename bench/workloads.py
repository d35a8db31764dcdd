"""Seeded question pools, stratified rounds, execution and answer checks.

A workload is a list of classes, each with a fixed number of slots per
round.  Every round takes the next unused questions of each class, so
every run has the same share of each class whatever its seed; the seed
only decides which questions fill the slots and in which order.  No
question repeats within a run: when a class runs out of questions, the
run ends after its last complete round.

Slot counts are chosen so that the nearest-rank 50th and 90th answer-time
percentiles each fall inside one class of similar-cost questions, which
keeps them steady from seed to seed: ``ggm-sweep`` holds them in its
width-2 cdh and its width-3 classes, ``binary-rom`` in its exact and its
approximate escapes, and ``toy-pipeline`` in its seven pipeline
questions of each ten.  Every round is short enough that a run holds
three or more of them.

Questions of the fixed pools (``ggm-sweep`` and the CLI half of
``toy-pipeline``) are checked against ``goldens.json``.  Seeded questions
are checked with properties that do not trust the code under test: an
independent prefix-free reduction and escape for the binary sets, the
semantics of each toy forgery adversary for the ROM test sets, and
escape verification plus block sizes for the seeded registries.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, cycle
from pathlib import Path
from typing import Iterator

GOLDENS = Path(__file__).with_name("goldens.json")

WORKLOADS = {
    "ggm-sweep": (
        ("w2-dlog", 3),
        ("w2-cdh", 3),
        ("sample", 1),
        ("audit", 1),
        ("w3-const", 2),
    ),
    "toy-pipeline": (
        ("paper", 3),
        ("registry-exact", 3),
        ("compressed", 1),
        ("registry-approx", 3),
    ),
    "binary-rom": (
        ("measure", 2),
        ("rom-patterns-q2", 3),
        ("rom-strings-n2", 3),
        ("escape-exact", 12),
        ("rom-patterns-q3", 1),
        ("escape-approx", 3),
        ("rom-strings-n3", 1),
    ),
}

# Binary set files: the member counts each class cycles through, and the
# bounds of the member lengths.  The escape depth is the longest member
# length.  A round holds one exact escape of each size, so their answer
# times spread evenly around the 50th percentile instead of piling up in
# one narrow peak that shifts with the speed of the machine.
SET_MEMBERS = {
    "measure": (20000,),
    "escape-exact": tuple(range(2500, 14000, 1000)),
    "escape-approx": (1500,),
}
SET_LENGTHS = (12, 24)
ESCAPE_DEPTH = 24
# A member of length >= FORCE_FROM + 1 equal to "prefix + 0" blocks the
# 0 branch at that level, so the escape path is seeded, not all zeros.
# The number of blocked levels is fixed so that escapes cost the same.
FORCE_FROM = SET_LENGTHS[0] - 1
FORCED_LEVELS = 6

ROM_ADVERSARIES = ("replay", "fresh_guess", "invert", "lucky_all_ones")


@dataclass(frozen=True)
class Question:
    """One question; ``qid`` is unique among all questions of a workload."""

    qid: str
    cls: str
    kind: str  # "cli" | "binary-cli" | "rom" | "registry"
    argv: tuple[str, ...] = ()
    params: tuple = ()


@dataclass
class Outcome:
    question: Question
    seconds: float
    answer: str  # fingerprint
    error: str | None = None
    ok: bool = False


# ---------------------------------------------------------------------------
# Pools
# ---------------------------------------------------------------------------


def _cli(cls: str, *argv: str) -> Question:
    return Question(qid=f"{cls}:{' '.join(argv)}", cls=cls, kind="cli", argv=argv)


def _bits_up_to(length: int) -> list[str]:
    return [format(i, f"0{k}b") for k in range(1, length + 1) for i in range(2**k)]


def fixed_pools() -> dict[str, list[Question]]:
    """Every question whose answer is a recorded golden, by class."""
    # the width-2 pools hold enough questions for the time budget, not the
    # pool size, to end a ggm-sweep run
    dlog2 = (
        [f"const_guess:{c}" for c in range(24)]
        + ["invalid_guess"]
        + [f"random_guess:{b}" for b in range(1, 4)]
        + [f"linear_search:{m}" for m in range(8)]
        + [f"bsgs:{m}" for m in range(1, 7)]
    )
    cdh2 = ["cdh_echo", "cdh_invalid"] + [f"cdh_const_guess:{s}" for s in _bits_up_to(5)]
    # searching programs run exhaustively at width 3 here; moduli are kept
    # small enough that every audit is cheaper than a w3-const question,
    # which holds the 90th percentile
    audits = [("dlog", f"linear_search:{m}", N, C) for m in (1, 2, 3) for N in (4, 5, 6) for C in (1, 2)]
    audits += [("dlog", f"bsgs:{m}", 4, C) for m in (1, 2, 3) for C in (1, 2)]
    audits += [("dlog", "random_guess:1", N, 1) for N in (4, 5)]
    audits += [("dlog", f"const_guess:{c}", N, 1) for c in (1, 2) for N in (4, 5)]
    audits += [("cdh", p, 2, 1) for p in ("cdh_echo", "cdh_const_guess:101")]
    samples = [("cdh_echo", 5, s, 25) for s in range(8)]
    samples += [(f"cdh_const_guess:{s}", 5, i, 25) for i, s in enumerate(("00110", "11011", "10001", "0111"))]
    samples += [(f"cdh_const_guess:{s}", 4, i, 250) for i, s in enumerate(("0110", "1001", "1111", "0000"))]
    samples += [("cdh_echo", 4, s, 250) for s in range(4)]
    pools = {
        "w2-dlog": [_cli("w2-dlog", "dlog", "--prog", p, "--n", "2") for p in dlog2],
        "w2-cdh": [_cli("w2-cdh", "cdh", "--prog", p, "--n", "2") for p in cdh2],
        "sample": [
            _cli("sample", "cdh", "--prog", p, "--n", str(n), "--mode", "sample",
                 "--seed", str(s), "--samples", str(k))
            for p, n, s, k in samples
        ],
        "audit": [
            _cli("audit", e, "--prog", p, "--n", "3", "--N", str(N), "--C", str(C))
            for e, p, N, C in audits
        ],
        # one program shape, so every question of the class costs the same
        "w3-const": [
            _cli("w3-const", "dlog", "--prog", p, "--n", "3")
            for p in [f"const_guess:{c}" for c in range(32)] + ["invalid_guess"]
        ],
        "paper": [
            _cli("paper", "diagonalize", "--toy-pipeline", "--schedule", "paper",
                 "--C", str(C), "--depth", str(d), "--mode", mode)
            for C in range(1, 9)
            for d in (1, 2, 3)
            for mode in ("exact", "approx")
        ],
        "compressed": [
            _cli("compressed", "diagonalize", "--toy-pipeline", "--schedule", "compressed",
                 "--depth", str(d), "--mode", mode)
            for d in (1, 2, 3)
            for mode in ("exact", "approx")
        ],
    }
    return pools


def _rom_pool(cls: str) -> list[Question]:
    if cls == "rom-patterns-q2":
        grid = [(a, 2, n, d, False) for a in ROM_ADVERSARIES for n in range(2, 10) for d in (2, 3, 4)]
    elif cls == "rom-patterns-q3":
        # every table is bad for fresh_guess and invert at q = 3, and the
        # pairwise pattern measure over 32768 tables is out of reach;
        # replay keeps the class cheaper than the approximate escapes,
        # which hold the 90th percentile
        grid = [("replay", 3, n, d, False) for n in range(2, 10) for d in (2, 3, 4)]
    elif cls == "rom-strings-n2":
        grid = [(a, 1, 2, d, True) for a in ROM_ADVERSARIES for d in range(2, 7)]
    else:  # rom-strings-n3: 262144 materialized strings each
        grid = [(a, 1, 3, d, True) for a in ("fresh_guess", "invert") for d in range(2, 7)]
    return [
        Question(qid=f"{cls}:{a}:q{q}:n{n}:d{d}", cls=cls, kind="rom", params=(a, q, n, d, m))
        for a, q, n, d, m in grid
    ]


def _seeded(cls: str, rng: random.Random) -> Iterator[Question]:
    """Unbounded stream of distinct seeded questions of one class."""
    seen: set[int] = set()
    sizes = cycle(SET_MEMBERS.get(cls, ()))
    while True:
        sub = rng.getrandbits(48)
        if sub in seen:
            continue
        seen.add(sub)
        if cls.startswith("registry-"):
            mode = cls.split("-", 1)[1]
            yield Question(qid=f"{cls}:{sub}", cls=cls, kind="registry", params=(sub, mode, 3))
        else:
            yield Question(qid=f"{cls}:{sub}", cls=cls, kind="binary-cli", params=(sub, next(sizes)))


def class_stream(workload: str, cls: str, seed: int) -> Iterator[Question]:
    rng = random.Random(f"{seed}:{workload}:{cls}")
    if cls.startswith("registry-") or cls in SET_MEMBERS:
        return _seeded(cls, rng)
    pool = _rom_pool(cls) if cls.startswith("rom-") else fixed_pools()[cls]
    pool = list(pool)
    rng.shuffle(pool)
    return iter(pool)


def rounds(workload: str, seed: int) -> Iterator[list[Question]]:
    """Stratified rounds of one workload; stops when a class runs dry."""
    strata = WORKLOADS[workload]
    streams = {cls: class_stream(workload, cls, seed) for cls, _ in strata}
    order = random.Random(f"{seed}:{workload}:order")
    for _ in count():
        batch = []
        for cls, slots in strata:
            for _ in range(slots):
                q = next(streams[cls], None)
                if q is None:
                    return
                batch.append(q)
        order.shuffle(batch)
        yield batch


# ---------------------------------------------------------------------------
# Generated inputs
# ---------------------------------------------------------------------------


def binary_set(sub_seed: int, members: int) -> frozenset[str]:
    """Seeded bit strings of lengths 12-24 whose measure stays below 9/10.

    Besides uniform members, the set blocks the 0 branch of a seeded path
    at some levels past FORCE_FROM, so escapes must take the 1 branch there.
    """
    rng = random.Random(sub_seed)
    lo, hi = SET_LENGTHS
    out: set[str] = set()
    forced = set(rng.sample(range(FORCE_FROM, ESCAPE_DEPTH), FORCED_LEVELS))
    path = ""
    for level in range(ESCAPE_DEPTH):
        if level in forced:
            out.add(path + "0")
        path += "1" if level in forced else "0"
    budget = 9 * 2**hi // 10  # in units of 2**-hi
    used = sum(2 ** (hi - len(s)) for s in out)
    while len(out) < members:
        length = rng.randint(lo, hi)
        if used + 2 ** (hi - length) > budget:
            length = hi
        s = format(rng.getrandbits(length), f"0{length}b")
        if s not in out and not path.startswith(s):
            out.add(s)
            used += 2 ** (hi - length)
    return frozenset(out)


def _prefix_free(members) -> list[str]:
    """Members with no proper prefix in the set, by a sorted sweep."""
    kept: list[str] = []
    for s in sorted(members):
        if not (kept and s.startswith(kept[-1])):
            kept.append(s)
    return kept


def reference_measure(members) -> tuple[int, Fraction]:
    kept = _prefix_free(members)
    top = max(map(len, kept), default=0)
    return len(kept), Fraction(sum(2 ** (top - len(s)) for s in kept), 2**top)


def reference_escape(members, depth: int) -> str:
    """First-candidate escape: take 0 unless its cell is at least full."""
    live = _prefix_free(members)
    prefix = ""
    for _ in range(depth):
        for bit in "01":
            t = prefix + bit
            if any(t.startswith(s) for s in live):
                continue  # the whole cell is inside the set
            trapped = sum(Fraction(1, 2 ** len(s)) for s in live if s.startswith(t))
            if trapped < Fraction(1, 2 ** len(t)):
                break
        else:
            raise AssertionError("no escaping candidate; measure not below 1")
        prefix = t
        live = [s for s in live if s.startswith(prefix)]
    return prefix


def pin_targets(sub_seed: int) -> dict[tuple[int, int], list[str]]:
    """Seeded permutation of the n-bit strings per (adversary, width)."""
    rng = random.Random(sub_seed)
    out = {}
    for adversary in (1, 2):
        for n in (2, 3):
            targets = [format(i, f"0{n}b") for i in range(2**n)]
            rng.shuffle(targets)
            out[(adversary, n)] = targets
    return out


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def run_cli(od, argv) -> tuple[int, str]:
    """Exit code and standard output of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = od.cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue()


class Runner:
    """Runs questions against an imported ``oraclediag`` package.

    Set files are written under ``tmpdir``; inputs are prepared before the
    clock starts and checked after it stops.
    """

    HORIZON = 3

    def __init__(self, od, tmpdir: Path, tracer=None):
        self.od = od
        self.tmpdir = tmpdir
        self.tracer = tracer
        self.goldens = json.loads(GOLDENS.read_text())

    # -- one question -----------------------------------------------------

    def ask(self, q: Question) -> Outcome:
        call, check = self._prepare(q)
        span = self.tracer.question(q.qid) if self.tracer else contextlib.nullcontext()
        start = time.perf_counter()
        try:
            with span:
                answer = call()
        except Exception as exc:  # a raising question is a failed question
            seconds = time.perf_counter() - start
            return Outcome(q, seconds, "", error=f"{type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - start
        outcome = Outcome(q, seconds, fingerprint(answer))
        try:
            outcome.ok = bool(check(answer))
        except Exception as exc:
            outcome.error = f"check raised {type(exc).__name__}: {exc}"
        if not outcome.ok and outcome.error is None:
            outcome.error = "answer does not match the check"
        return outcome

    def _prepare(self, q: Question):
        if q.kind == "cli":
            golden = self.goldens[q.qid]
            return (
                lambda: run_cli(self.od, q.argv),
                lambda a: a == (golden["code"], golden["stdout"]),
            )
        if q.kind == "binary-cli":
            return self._prepare_binary(q)
        if q.kind == "rom":
            return (lambda: self._rom(*q.params), lambda a: self._check_rom(q.params, a))
        return self._prepare_registry(q)

    # -- binary set files -------------------------------------------------

    def _prepare_binary(self, q: Question):
        sub_seed, size = q.params
        members = binary_set(sub_seed, size)
        path = self.tmpdir / f"set-{sub_seed}.txt"
        path.write_text(self.od.cylinder.format_binary_set(members))
        if q.cls == "measure":
            argv = ("measure", str(path))

            def check(answer):
                count, value = reference_measure(members)
                return answer == (0, f"members {count}\n{value.numerator}/{value.denominator}\n")
        else:
            mode = q.cls.split("-", 1)[1]
            argv = ("diagonalize", str(path), "--depth", str(ESCAPE_DEPTH), "--mode", mode)

            def check(answer):
                code, text = answer
                expected = reference_escape(members, ESCAPE_DEPTH)
                steps = [line for line in text.splitlines() if line.startswith("step ")]
                return (
                    code == 0
                    and f"prefix {expected}" in text.splitlines()
                    and len(steps) == ESCAPE_DEPTH
                    and not any(expected.startswith(s) for s in members)
                )

        return (lambda: run_cli(self.od, argv)), check

    # -- random-oracle test sets -------------------------------------------

    def _rom(self, adversary: str, q: int, n: int, d: int, materialize: bool):
        od = self.od
        oracle = od.fdh.fdh_experiment_oracle(od.fdh.default_toy_scheme(q), adversary)
        bad = od.rom.bad_tables_for(oracle, d, n)
        patterns = od.rom.build_constraint_patterns(n, q, oracle.ell, bad)
        pattern_measure = od.rom.pattern_set_measure(patterns)
        closed_form = od.rom.rom_testset_measure(n, q, oracle.ell, len(bad))
        if not materialize:
            return len(bad), pattern_measure, closed_form, None, None
        strings = od.rom.build_constraint_strings(n, q, oracle.ell, bad, max_strings=2**18)
        return len(bad), pattern_measure, closed_form, od.cylinder.binary_measure(strings), (
            len(strings), sum(2**p.free_bits for p in patterns)
        )

    def _check_rom(self, params, answer) -> bool:
        adversary, q, n, d, materialize = params
        bad, pattern_measure, closed_form, string_measure, sizes = answer
        # width-1 blocks: 2**(2**(q+1) - 1) tables; replay never forges,
        # fresh_guess forges with 1/2 and invert always (both above 1/n**d),
        # lucky_all_ones forges only on the all-ones table
        tables = 2 ** (2 ** (q + 1) - 1)
        expected = {"replay": 0, "fresh_guess": tables, "invert": tables, "lucky_all_ones": 1}
        ok = bad == expected[adversary] and pattern_measure == closed_form == Fraction(bad, tables)
        if materialize:
            ok = ok and string_measure == closed_form and sizes[0] == sizes[1]
        return ok

    # -- seeded registries ---------------------------------------------------

    def _prepare_registry(self, q: Question):
        od = self.od
        sub_seed, mode, depth = q.params
        targets = pin_targets(sub_seed)
        horizon = self.HORIZON

        def program_for(adversary):
            def build(n):
                if not 2 <= n <= horizon:
                    return od.programs.cdh_invalid()
                pins = [(j, targets[(adversary, n)][j - 1]) for j in range(1, 5)]
                return od.programs.cdh_pin_table(pins)

            return build

        def call():
            registry = tuple(
                od.pipeline.GgmAdversary(f"pin{a}", "cdh", program_for(a)) for a in (1, 2)
            )
            family = od.pipeline.registry_testfamily(registry, horizon)
            f_schedule, g_schedule = od.pipeline.compressed_schedules(5, horizon)
            open_set = od.diagonal.assemble_open_set(
                family, f_schedule, m_max=5, horizon=horizon,
                g_schedule=g_schedule, kind="family",
            )
            transcript = od.diagonal.escape_family(open_set, depth=depth, mode=mode)
            blocks = {(i, 2, n): family(i, 2, n) for i in (1, 2) for n in (2, horizon)}
            verified = all(
                od.diagonal.verify_escape(transcript.prefix, block) for block in blocks.values()
            )
            return transcript, blocks, verified

        def check(answer):
            transcript, blocks, verified = answer
            prefix = transcript.prefix
            sizes = {key: len(block) for key, block in blocks.items()}
            return (
                verified
                and sizes == {(1, 2, 2): 6, (1, 2, 3): 1152, (2, 2, 2): 6, (2, 2, 3): 1152}
                and len(transcript.steps) == depth
                and all(step.trapped < step.cell for step in transcript.steps)
                and not any(prefix[: len(m)] == m for block in blocks.values() for m in block)
            )

        return call, check


def fingerprint(answer) -> str:
    """Stable text form of an answer, for comparing two runs."""
    if isinstance(answer, tuple) and len(answer) == 3 and hasattr(answer[0], "to_text"):
        transcript, blocks, verified = answer
        sizes = sorted((k, len(v)) for k, v in blocks.items())
        return f"{transcript.to_text()}{sizes}{verified}"
    return repr(answer)
