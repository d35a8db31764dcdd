"""Diagonal escape from an enumerated open set of measure below one.

The construction extends a prefix one level at a time, always into a
cell where the trapped mass is strictly smaller than the cell's volume.
Exact mode scores each candidate cell by the exact conditional measure
of a finite representative; approx mode reproduces the computable-
analysis route: a measure approximator g with |total - g(k)| < 2**-k, a
stage search h locating an enumeration stage heavy enough to cancel the
unknown remainder, and the derived cell approximator f with
|F(t) - f(t, k)| < 2**-k.  Both modes share one tie-break: the
lexicographically least candidate that certifies strictly below the cell
volume.

One driver runs both modes.  It reads a stage through the open-set
protocol of ``cylinder`` (``open_view``): a member set sorted once, or a
compact generic-group set as it is.  A mode supplies only its check that
the measure is below 1 and its choice at each level.  Exact mode takes
the ``least_open`` child of the whole set.  Approx mode certifies
candidates in order, doubling k up to a ceiling derived from the set
and the depth, where only full cells are undecided, so both modes
choose alike; its below-1 check is the root's certification, as the
root's cell approximator is g(k) itself.  The stage search keeps ``f(t, k) - 2**-k`` below the
mass its stage holds in t's cell, so no child is rejected before that
ceiling; after a rejection the walk goes on at the least child the
consulted stage leaves open, as every child that stage fills is full.
A transcript records, per step, the number of candidates, the chosen
index, the certified conditional measure, and the cell volume; the
step invariant "trapped mass < cell volume" is what makes the prefix
extendable forever, and `verify_escape` re-checks the finite claim
against the raw member set by looking up the prefixes of the escape in
it.  Children are built from their ranks, so no encoding is listed.

Every denominator a transcript writes out divides ``D``, the larger of
the last stage's ``den`` and the cell count at the depth.  The driver
refuses, before any level is built, an escape that ``cylinder``'s one
size rule (``writable``: at most 4,300 digits) rejects: a depth past
``Kind.writable_length``, 14,284 for binary and 9 for family escapes, or a
set whose own ``den`` is past the rule.  Under it a transcript still
grows with the square of the depth: 31 MB at binary depth 14,284.
"""

from __future__ import annotations

from collections.abc import Collection, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Callable, Iterable

from .cylinder import (
    BINARY,
    FAMILY,
    FamilyPatternSet,
    Kind,
    KindMismatchError,
    TextLimitError,
    cell_kind,
    cell_mass,
    cell_volume,
    kind_named,
    kind_of,
    measure,
    open_union,
    open_view,
    writable,
)
from .numbering import phi_escape
from .schedules import Schedule


class MeasureTooLargeError(ValueError):
    """The open set has measure at least 1; nothing can escape it."""


class StageCapExceeded(RuntimeError):
    """The enumeration never caught up with the measure approximator."""


class EscapeContractViolation(RuntimeError):
    """No candidate cell satisfied the strict inequality; broken inputs."""


class ScheduleBoundError(ValueError):
    """A materialized constraint set exceeds its scheduled measure bound."""


@dataclass(frozen=True)
class EnumeratedOpenSet:
    """An r.e. open set presented by stages plus a measure approximator.

    ``stages`` is a finite sequence of finite, monotonically growing
    cylinder sets, stage m at index m - 1, the last of them the whole
    set; ``measure_approx(k)`` returns a rational within 2**-k of its
    measure.
    """

    kind: Kind  # given by a Kind or its name, kept as the Kind
    stages: Sequence[Collection]
    measure_approx: Callable[[int], Fraction]
    # precision k -> _stage_for result; lives and dies with this set
    _stage_memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # stage index m -> _stage_view result, built once
    _stages: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "kind", kind_named(self.kind))
        if not len(self.stages):
            raise ValueError("an open set needs at least one stage")

    @classmethod
    def from_finite(cls, members: Collection, kind: Kind | str | None = None) -> EnumeratedOpenSet:
        """One-stage set of the members, viewed once; its approximator is exact."""
        view = open_view(members, None if kind is None else kind_named(kind))
        if view.kind is None:
            raise ValueError("cannot infer the kind of an empty set")
        exact = view.measure()
        S = cls(kind=view.kind, stages=(members,), measure_approx=lambda k: exact)
        S._stages[1] = view
        return S


def conditional_measure_exact(members: Iterable, t) -> Fraction:
    """Exact mass of the open set inside the cell of t."""
    return cell_mass(frozenset(members), t)  # refuses mixed kinds


def _stage_view(S: EnumeratedOpenSet, m: int):
    """Stage m's ``open_view``, built on first use and kept on ``S``."""
    view = S._stages.get(m)
    if view is None:
        view = S._stages[m] = open_view(S.stages[m - 1], S.kind)
    return view


def _stage_for(S: EnumeratedOpenSet, k: int) -> tuple[object, Fraction, Fraction]:
    """Stage search: the first stage heavy enough for precision k.

    Uses the exact partition identity "sum of per-cell masses at any
    depth equals the total mass", so the per-cell sum never has to be
    enumerated cell by cell.  Returns (the stage's ``_stage_view``, its
    measure, the approximator's value), memoized on ``S`` so that
    nothing outlives the open set it was computed for.
    """
    found = S._stage_memo.get(k)
    if found is not None:
        return found
    g = S.measure_approx(k)
    threshold = g - Fraction(1, 2**k)
    for m in range(1, len(S.stages) + 1):
        view = _stage_view(S, m)
        stage_measure = view.measure()
        if stage_measure > threshold:
            found = S._stage_memo[k] = (view, stage_measure, g)
            return found
    raise StageCapExceeded(
        f"no stage within {len(S.stages)} reached measure above {threshold};"
        " the measure approximator is broken"
    )


def conditional_measure_approx(S: EnumeratedOpenSet, t, k: int) -> Fraction:
    """Rational within 2**-k of the mass of the set inside the cell of t."""
    view, stage_measure, g = _stage_for(S, k)
    return g - (stage_measure - view.cell_mass(t))


# ---------------------------------------------------------------------------
# Escape
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EscapeStep:
    depth: int
    candidate_count: int
    chosen_index: int
    trapped: Fraction  # certified conditional measure of the chosen cell
    cell: Fraction
    precision: int | None = None  # k that certified the choice (approx mode)


@dataclass(frozen=True)
class EscapeTranscript:
    kind: Kind
    mode: str
    prefix: object  # Bits or FamilyPrefix
    steps: tuple[EscapeStep, ...]

    def to_text(self) -> str:
        prefix = self.kind.write([self.prefix]).strip()
        lines = [f"kind {self.kind}", f"mode {self.mode}", f"prefix {prefix}"]
        lines += (
            f"step {s.depth} candidates {s.candidate_count} chosen {s.chosen_index}"
            f" F {s.trapped.numerator}/{s.trapped.denominator}"
            f" cell {s.cell.numerator}/{s.cell.denominator}"
            + ("" if s.precision is None else f" k {s.precision}")
            for s in self.steps
        )
        return "\n".join(lines) + "\n"


def _certify(S: EnumeratedOpenSet, t, cell: Fraction, ceiling: int):
    """``(f, k)`` for the first precision k = 8, 16, ... that certifies
    ``f(t, k) + 2**-k < cell``, or ``(None, k)`` for the first k of at
    least ``ceiling`` if none does: only a full cell is undecided there,
    and exact mode rejects it too."""
    k = 8  # the first precision tried; each retry doubles it
    while True:
        f_val = conditional_measure_approx(S, t, k)
        if f_val + Fraction(1, 2**k) < cell:
            return f_val, k
        if k >= ceiling:
            return None, k
        k *= 2


def _approx_choice(S: EnumeratedOpenSet, prefix, ceiling: int):
    """Approx-mode choice at one level: the least child of ``prefix`` that
    certifies, as ``(cell, index, count, f, k)``; None if none does.

    Children are certified in order.  The stage for k measures above
    ``g(k) - 2**-k``, so ``f(t, k) - 2**-k`` stays below the mass that
    stage holds in t's cell: no precision rejects a child early, and
    every rejected child is rejected at the same k, the first at or past
    ``ceiling``.  A child that the stage for that k fills is full (every
    stage lies inside the set), so it never certifies: the walk goes on
    at that stage's ``least_open``, or at the next child when a stage
    with members longer than the set's leaves the rejected one open.
    """
    count = S.kind.child_count(prefix)
    index, t = 0, S.kind.child(prefix, 0)
    cell = cell_volume(t)
    while True:
        f_val, k = _certify(S, t, cell, ceiling)
        if f_val is not None:
            return t, index, count, f_val, k
        jump = _stage_for(S, k)[0].least_open(prefix)
        if jump is None:
            return None
        index = max(jump[1], index + 1)
        if index == count:
            return None
        t = S.kind.child(prefix, index)


def _escape(S, kind: Kind, depth: int, mode: str) -> EscapeTranscript:
    """The one escape driver: checks its arguments, wraps a finite set,
    and extends the prefix level by level.  A mode supplies its check that
    the measure is below 1 and its choice at a level: the last stage's
    ``least_open`` (exact), or ``_approx_choice`` (approx)."""
    if depth < 0:
        raise ValueError(f"depth must be at least 0, got {depth}")
    if mode not in ("exact", "approx"):
        raise ValueError(f"unknown mode {mode!r}")
    cap = kind.writable_length
    if depth > cap:  # before 2**depth is built
        raise TextLimitError(f"{kind} escape depth capped at {cap}")
    if not isinstance(S, EnumeratedOpenSet):
        S = EnumeratedOpenSet.from_finite(S, kind=kind)
    elif S.kind is not kind:
        raise KindMismatchError(f"expected a {kind} set, got {S.kind}")
    total = _stage_view(S, len(S.stages))
    prefix = kind.root
    # Every mass compared is a multiple of 1/D, and |F - f| < 2**-k; once
    # 2**(1-k) < 1/D, a cell certifies iff it is not full, and the measure
    # is certified below 1 iff it is.  A transcript writes out no
    # denominator past D.
    D = writable(max(total.den, kind.cell_den(depth)), f"the {kind} set's cell count")
    if mode == "exact":
        total_measure = total.measure()
        if total_measure >= 1:
            raise MeasureTooLargeError(f"open set has measure {total_measure} >= 1")
        choose = total.least_open
    else:
        ceiling = D.bit_length() + 1
        # the root's cell mass is the stage measure, so f(root, k) = g(k)
        if _certify(S, prefix, Fraction(1), ceiling)[0] is None:
            raise MeasureTooLargeError("measure approximator never certified < 1")
        choose = partial(_approx_choice, S, ceiling=ceiling)
    steps: list[EscapeStep] = []
    for level in range(1, depth + 1):
        chosen = choose(prefix)
        if chosen is None:
            raise EscapeContractViolation(
                f"no candidate at depth {level} certified below its cell volume"
            )
        prefix, index, count, trapped, *k_used = chosen  # approx adds its k
        steps.append(EscapeStep(level, count, index, trapped, cell_volume(prefix), *k_used))
    return EscapeTranscript(kind, mode, prefix, tuple(steps))


def escape_binary(S, depth: int, mode: str = "exact") -> EscapeTranscript:
    """Prefix of the requested depth escaping a binary open set."""
    return _escape(S, BINARY, depth, mode)


def escape_family(S, depth: int, mode: str = "exact") -> EscapeTranscript:
    """Family prefix of the requested depth escaping a family open set."""
    return _escape(S, FAMILY, depth, mode)


def verify_escape(prefix, members: Iterable) -> bool:
    """Independent check that no member of the set traps the prefix: none
    of the prefix's own ``len(prefix) + 1`` prefixes is a member.  Any
    ``Collection`` is looked up as it is, so a compact set answers
    without building a member; other iterables are gathered once.
    """
    if not isinstance(members, Collection):
        members = frozenset(members)
    kind_of(members, cell_kind(prefix))  # refuses mixed kinds
    return not any(prefix[:i] in members for i in range(len(prefix) + 1))


# ---------------------------------------------------------------------------
# Assembling the full test family into one enumerated open set
# ---------------------------------------------------------------------------


class _Stages(Sequence):
    """Stages 1, ..., count of an assembled set, each built when it is read;
    the escape reads each one once, through ``_stage_view``."""

    def __init__(self, build: Callable[[int], Collection], count: int):
        self._build, self._count = build, count

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, index: int) -> Collection:
        return self._build(range(1, self._count + 1)[index])


def assemble_open_set(
    testfamily: Callable[[int, int, int], frozenset],
    f_schedule: Schedule,
    m_max: int = 6,
    horizon: int = 3,
    g_schedule: Schedule | None = None,
    kind: Kind | str = FAMILY,
) -> EnumeratedOpenSet:
    """Union of scheduled constraint-set blocks as one enumerated open set.

    Block m covers the pair ``phi_escape(m) = (i, d)`` from cutoff ``g(m)`` on;
    only levels up to the horizon are built (the toy registries
    guarantee emptiness beyond it).  A stage is the ``open_union`` of its
    blocks.  Every block at a level past ``f(i, 2d)`` must measure
    strictly below ``1/n**d``, otherwise the schedule and the test family
    disagree and assembly refuses.

    The measure approximator evaluates the finite blocks prescribed for
    precision k: members with index m <= k + 1, levels below
    ``g(m) * 2**(k+1)``.
    """
    if g_schedule is None:
        g_schedule = Schedule.escape_from(f_schedule)

    cells: dict[tuple[int, int, int], frozenset] = {}

    def block(m: int, n: int) -> frozenset:
        i, d = phi_escape(m)
        key = (i, d, n)
        if key not in cells:
            materialized = testfamily(i, d, n)
            if materialized and n >= f_schedule.f(i, 2 * d):
                got = measure(materialized)
                bound = Fraction(1, n**d)
                if not got < bound:
                    raise ScheduleBoundError(
                        f"constraint set at (i={i}, d={d}, n={n}) has measure"
                        f" {got}, not below {bound}"
                    )
            cells[key] = materialized
        return cells[key]

    def grid(last: int, stop: Callable[[int], int]) -> Collection:
        """Union of the blocks m <= last at levels g(m) to stop(g(m)),
        none past the horizon: a stage and an approximation alike."""
        pieces = []
        for m in range(1, min(last, m_max) + 1):
            start = g_schedule.g(m)
            pieces += (block(m, n) for n in range(start, min(stop(start), horizon) + 1))
        return open_union(pieces, open_set.kind)  # the Kind the set was built with

    def stage(r: int) -> Collection:
        return grid(r, lambda start: start + r - 1)

    def measure_approx(k: int) -> Fraction:
        return measure(grid(k + 1, lambda start: start * 2 ** (k + 1) - 1))

    # every cutoff g(m) is at least 1, so by stage max(m_max, horizon)
    # each block reaches the horizon and the stages stop growing
    stages = _Stages(stage, max(1, m_max, horizon))
    open_set = EnumeratedOpenSet(kind=kind, stages=stages, measure_approx=measure_approx)
    return open_set


def build_ggm_testfamily(
    prog: "GenericProgram", d: int, n: int, experiment: str = "dlog"
) -> FamilyPatternSet:
    """Length-n prefixes whose last encoding breaks ``prog``'s 1/n**d target.

    Returned compact: the plan's table keys ``Z`` and the assignments to
    them on which the program's success, thresholded in integers, beats
    the target (``experiments.bad_assignments``); no encoding is built.
    The first n - 1 coordinates are free; the set therefore measures
    exactly (number of bad encodings) / (2**n)!.  A level is limited
    only by the instance budget of the plan it thresholds.
    """
    from .experiments import bad_assignments  # local import to avoid a cycle

    if d < 2:
        raise ValueError("need d >= 2")
    return FamilyPatternSet({n: bad_assignments(prog, n, experiment, Fraction(1, n**d))})
