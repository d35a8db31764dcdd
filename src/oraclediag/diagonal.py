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

A stage of members is sorted once (``SortedPrefixFree``), and both
modes read a candidate cell's mass from it by bisection: the members in
the cell are one range of the order, their mass a difference of two
running sums.  A transcript records, per step, the number of
candidates, the chosen index, the certified conditional measure, and the
cell volume; the step invariant "trapped mass < cell volume" is what
makes the prefix extendable forever, and `verify_escape` re-checks the
finite claim against the raw member set by looking up the prefixes of
the escape in it.

Generic-group constraint sets are compact (``FamilyPatternSet``): a
block at level n is "first n - 1 encodings free, the n-th hits a bad
assignment to a few table keys".  A stage made only of such blocks stays
compact, and both modes work on it without building a member.  Exact
mode picks, per level, the least encoding that avoids the level's
assignments (a pruned lex walk) and reports it by its Lehmer rank.
Approx mode scores a candidate by whether a stage fills its cell; a
rejected candidate rejects every candidate its first filling stage
fills, so only the least candidate that stage leaves open is certified
next.  The transcripts equal those of the sorted path, which any stage
holding a plain frozenset block still takes.  Family escapes reach
depth 4 (``PATTERN_DEPTH_CAP``); a level that must scan its candidates,
as over member sets, asks ``all_encodings`` for them, which refuses
width 4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable

from .cylinder import (
    EncodingFunction,
    FamilyPatternSet,
    FamilyPrefix,
    KindMismatchError,
    SortedPrefixFree,
    all_encodings,
    cell_den,
    cell_mass,
    cell_volume,
    encf_count,
    encoding_rank,
    format_family_set,
    kind_of,
    least_encoding,
    measure,
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

    ``stages(m)`` (m >= 1) returns finite, monotonically growing cylinder
    sets whose union is the set; ``measure_approx(k)`` returns a rational
    within 2**-k of the true measure.
    """

    kind: str  # "binary" | "family"
    stages: Callable[[int], frozenset]
    measure_approx: Callable[[int], Fraction]
    stage_cap: int = 64
    # precision k -> _stage_for result; lives and dies with this set
    _stage_memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # stage index m -> _stage_view result, sorted when the set was built
    _stages: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in ("binary", "family"):
            raise ValueError(f"unknown kind {self.kind!r}")

    @classmethod
    def from_finite(cls, members: Iterable, kind: str | None = None) -> "EnumeratedOpenSet":
        """One-stage set of the members, sorted once; its approximator is exact.

        A compact family set is its own stage, measured in closed form.
        """
        if isinstance(members, FamilyPatternSet):
            if kind not in (None, "family"):
                raise KindMismatchError(f"expected a {kind} set, got a family set")
            view, kind = members, "family"
        else:
            members = frozenset(members)
            if kind is None and not members:
                raise ValueError("cannot infer the kind of an empty set")
            view = SortedPrefixFree(members, kind)
            kind = view.kind
        exact = view.measure()
        S = cls(kind=kind, stages=lambda m: members, measure_approx=lambda k: exact, stage_cap=1)
        S._stages[1] = view
        return S


def conditional_measure_exact(members: Iterable, t) -> Fraction:
    """Exact mass of the open set inside the cell of t."""
    members = frozenset(members)
    kind_of(members, "binary" if isinstance(t, str) else "family")  # refuses mixed kinds
    return cell_mass(members, t)


def _stage_view(S: EnumeratedOpenSet, m: int) -> SortedPrefixFree | FamilyPatternSet:
    """Stage m sorted (a finite set's when it was built), or the compact
    stage itself, whose measure and cell masses are in closed form."""
    found = S._stages.get(m)
    if found is None:
        stage = S.stages(m)
        found = stage if isinstance(stage, FamilyPatternSet) else SortedPrefixFree(stage, S.kind)
    return found


def _stage_for(S: EnumeratedOpenSet, k: int) -> tuple[int, object, Fraction, Fraction]:
    """Stage search: the first stage heavy enough for precision k.

    Uses the exact partition identity "sum of per-cell masses at any
    depth equals the total mass", so the per-cell sum never has to be
    enumerated cell by cell.  Returns (stage index, the stage's
    ``_stage_view``, its measure, the approximator's value), memoized on
    ``S`` so that nothing outlives the open set it was computed for.
    """
    found = S._stage_memo.get(k)
    if found is not None:
        return found
    g = S.measure_approx(k)
    threshold = g - Fraction(1, 2**k)
    for m in range(1, S.stage_cap + 1):
        view = _stage_view(S, m)
        stage_measure = view.measure()
        if stage_measure > threshold:
            found = S._stage_memo[k] = (m, view, stage_measure, g)
            return found
    raise StageCapExceeded(
        f"no stage within {S.stage_cap} reached measure above {threshold};"
        " the measure approximator is broken"
    )


def conditional_measure_approx(S: EnumeratedOpenSet, t, k: int) -> Fraction:
    """Rational within 2**-k of the mass of the set inside the cell of t."""
    _, view, stage_measure, g = _stage_for(S, k)
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
    kind: str
    mode: str
    prefix: object  # Bits or FamilyPrefix
    steps: tuple[EscapeStep, ...]

    def to_text(self) -> str:
        lines = [f"kind {self.kind}", f"mode {self.mode}"]
        if self.kind == "binary":
            lines.append(f"prefix {self.prefix or '-'}")
        else:
            lines.append("prefix " + format_family_set([self.prefix]).strip())
        for s in self.steps:
            line = (
                f"step {s.depth} candidates {s.candidate_count}"
                f" chosen {s.chosen_index}"
                f" F {s.trapped.numerator}/{s.trapped.denominator}"
                f" cell {s.cell.numerator}/{s.cell.denominator}"
            )
            if s.precision is not None:
                line += f" k {s.precision}"
            lines.append(line)
        return "\n".join(lines) + "\n"


def _coerce(S, kind: str) -> EnumeratedOpenSet:
    if isinstance(S, EnumeratedOpenSet):
        if S.kind != kind:
            raise KindMismatchError(f"expected a {kind} set, got {S.kind}")
        return S
    return EnumeratedOpenSet.from_finite(S, kind=kind)


def _extend(prefix, tau):
    return prefix + tau if isinstance(prefix, str) else prefix + (tau,)


def _exact_escape(S: EnumeratedOpenSet, depth: int, candidates_at) -> EscapeTranscript:
    total = _stage_view(S, S.stage_cap)
    total_measure = total.measure()
    if total_measure >= 1:
        raise MeasureTooLargeError(f"open set has measure {total_measure} >= 1")
    if isinstance(total, FamilyPatternSet):
        return _exact_escape_patterns(total, depth)
    prefix = "" if S.kind == "binary" else ()
    steps: list[EscapeStep] = []
    for level in range(depth):
        cell = Fraction(1, cell_den(S.kind, level + 1))
        candidates = candidates_at(level)
        for idx, tau in enumerate(candidates):
            t = _extend(prefix, tau)
            trapped = total.cell_mass(t)  # two bisections of the sorted stage
            if trapped < cell:
                break
        else:
            raise EscapeContractViolation(
                f"no candidate at depth {level + 1} satisfies the strict inequality"
            )
        prefix = t
        steps.append(EscapeStep(level + 1, len(candidates), idx, trapped, cell))
    return EscapeTranscript(S.kind, "exact", prefix, tuple(steps))


def _exact_escape_patterns(total: FamilyPatternSet, depth: int) -> EscapeTranscript:
    """Exact escape of a compact set.

    A cell the level's assignments miss holds ``cell * (1 - miss_after)``,
    below the cell since the set measures below 1, and a cell they hit is
    full; so each level's choice is the least encoding avoiding them.
    """
    prefix: FamilyPrefix = ()
    steps: list[EscapeStep] = []
    for width in range(1, depth + 1):
        table = least_encoding(width, *total.levels.get(width, ((), ())))
        prefix += (EncodingFunction(width, table),)
        cell = Fraction(1, cell_den("family", width))
        steps.append(
            EscapeStep(
                width, encf_count(width), encoding_rank(table), total.cell_mass(prefix), cell
            )
        )
    return EscapeTranscript("family", "exact", prefix, tuple(steps))


def _certify(S: EnumeratedOpenSet, t, cell: Fraction, k_start: int, k_max: int, tried: list):
    """``(f, k)`` once precision k certifies ``f(t, k) + 2**-k < cell``;
    None once one certifies ``f - 2**-k >= cell`` or ``k_max`` leaves it
    undecided, which rejects it like exact mode would.  Every precision
    used is appended to ``tried``."""
    k = k_start
    while True:
        tried.append(k)
        eps = Fraction(1, 2**k)
        f_val = conditional_measure_approx(S, t, k)
        if f_val + eps < cell:
            return f_val, k
        if f_val - eps >= cell or k >= k_max:
            return None
        k = min(2 * k, k_max)


def _approx_scan(S: EnumeratedOpenSet, prefix, candidates, k_start: int, k_max: int):
    """Approx-mode choice at one level: certify candidates in order;
    None if none certifies."""
    for idx, tau in enumerate(candidates):
        t = _extend(prefix, tau)
        found = _certify(S, t, cell_volume(t), k_start, k_max, [])
        if found is not None:
            return len(candidates), idx, tau, *found
    return None


def _approx_patterns(
    S: EnumeratedOpenSet, prefix: FamilyPrefix, width: int, k_start: int, k_max: int
):
    """Approx-mode choice at one family level, over compact stages.

    ``f(t, k)`` depends on the candidate only through whether the stage
    for k fills its cell, and filling it only raises ``f``.  So a
    rejected candidate's run rejects every candidate filled wherever it
    was filled, without a stage the scan would not consult; as stages
    grow, that is every candidate filled by the first stage that filled
    the rejected one.  The walk therefore certifies the least candidate
    that stage leaves open: the one the scan would certify next.
    Returns the scan's result, ``()`` if every candidate is rejected, or
    None when a stage it consults is not compact; the scan then decides.
    """
    cell = Fraction(1, cell_den("family", width))
    floor_index, floor = 0, None  # every candidate floor fills is rejected
    while True:
        if floor is not None and (floor.covers(prefix) or floor.miss_after(width) == 0):
            return ()  # the floor fills every candidate's cell
        keys, bad = floor.levels.get(width, ((), ())) if floor is not None else ((), ())
        table = least_encoding(width, keys, bad)
        if table is None:
            return ()
        t = prefix + (EncodingFunction(width, table),)
        tried: list[int] = []
        found = _certify(S, t, cell, k_start, k_max, tried)
        if found is not None:
            return encf_count(width), encoding_rank(table), t[-1], *found
        filled = []
        for k in tried:
            m, stage = _stage_for(S, k)[:2]
            if not isinstance(stage, FamilyPatternSet):
                return None
            if stage.cell_mass(t) == cell:
                filled.append((m, stage))
        if not filled:
            return ()  # rejected while open everywhere: every candidate is
        m, stage = min(filled, key=lambda pair: pair[0])
        if m <= floor_index:  # floor leaves t open, so a grown stage would too
            raise EscapeContractViolation("the stages of the open set do not grow")
        floor_index, floor = m, stage


def _approx_escape(
    S: EnumeratedOpenSet,
    depth: int,
    candidates_at,
    k_start: int,
    k_max: int,
) -> EscapeTranscript:
    if k_start < 1:
        raise ValueError(f"k_start must be at least 1, got {k_start}")
    if k_max < k_start:
        raise ValueError(f"k_max {k_max} is below k_start {k_start}")
    # Trust the approximator for the precondition: some k must witness
    # a total measure strictly below 1.
    witnessed = False
    k = k_start
    while k <= k_max:
        if S.measure_approx(k) < 1 - Fraction(1, 2**k):
            witnessed = True
            break
        k *= 2
    if not witnessed:
        raise MeasureTooLargeError(
            f"measure approximator never certified < 1 up to precision {k_max}"
        )
    prefix = "" if S.kind == "binary" else ()
    steps: list[EscapeStep] = []
    for level in range(depth):
        chosen = None
        if S.kind == "family":
            chosen = _approx_patterns(S, prefix, level + 1, k_start, k_max)
        if chosen is None:
            chosen = _approx_scan(S, prefix, candidates_at(level), k_start, k_max)
        if not chosen:
            raise EscapeContractViolation(
                f"no candidate at depth {level + 1} certified below its cell volume"
            )
        count, idx, tau, f_val, k_used = chosen
        prefix = _extend(prefix, tau)
        steps.append(EscapeStep(level + 1, count, idx, f_val, cell_volume(prefix), k_used))
    return EscapeTranscript(S.kind, "approx", prefix, tuple(steps))


def _escape(
    S, kind: str, depth: int, mode: str, candidates_at, k_start: int, k_max: int
) -> EscapeTranscript:
    if depth < 0:
        raise ValueError(f"depth must be at least 0, got {depth}")
    if mode not in ("exact", "approx"):
        raise ValueError(f"unknown mode {mode!r}")
    S = _coerce(S, kind)
    if mode == "exact":
        return _exact_escape(S, depth, candidates_at)
    return _approx_escape(S, depth, candidates_at, k_start, k_max)


def escape_binary(
    S,
    depth: int,
    mode: str = "exact",
    k_start: int = 8,
    k_max: int = 128,
) -> EscapeTranscript:
    """Prefix of the requested depth escaping a binary open set."""
    return _escape(S, "binary", depth, mode, lambda level: ("0", "1"), k_start, k_max)


PATTERN_DEPTH_CAP = 4


def escape_family(
    S,
    depth: int,
    mode: str = "exact",
    k_start: int = 8,
    k_max: int = 128,
) -> EscapeTranscript:
    """Family prefix of the requested depth escaping a family open set.

    Depth is capped at ``PATTERN_DEPTH_CAP`` (4): past it, cell volumes
    need precisions beyond the default ``k_max``.  Compact stages
    (``FamilyPatternSet``) are searched without a scan; a level that
    scans takes its candidates from ``all_encodings``, which refuses
    width 4, so a member set fails there unless approx mode certifies
    the least candidate at once.
    """
    if depth > PATTERN_DEPTH_CAP:
        raise ValueError(f"family escape depth capped at {PATTERN_DEPTH_CAP}")
    candidates_at = lambda level: all_encodings(level + 1)
    return _escape(S, "family", depth, mode, candidates_at, k_start, k_max)


def verify_escape(prefix, members: Iterable) -> bool:
    """Independent check that no member of the set traps the prefix: none
    of the prefix's own ``len(prefix) + 1`` prefixes is a member.

    For a compact set: no level within the prefix hits it.
    """
    if isinstance(members, FamilyPatternSet):
        if isinstance(prefix, str):
            raise KindMismatchError("expected a binary set, got a family set")
        return not members.covers(prefix)
    members = frozenset(members)
    kind_of(members, "binary" if isinstance(prefix, str) else "family")  # refuses mixed kinds
    return not any(prefix[:i] in members for i in range(len(prefix) + 1))


# ---------------------------------------------------------------------------
# Assembling the full test family into one enumerated open set
# ---------------------------------------------------------------------------


def assemble_open_set(
    testfamily: Callable[[int, int, int], frozenset],
    f_schedule: Schedule,
    m_max: int = 6,
    horizon: int = 3,
    g_schedule: Schedule | None = None,
    kind: str = "family",
) -> EnumeratedOpenSet:
    """Union of scheduled constraint-set blocks as one enumerated open set.

    Block m covers the pair ``phi_escape(m) = (i, d)`` from cutoff ``g(m)`` on;
    only levels up to the horizon are built (the toy registries
    guarantee emptiness beyond it).  A family stage whose nonempty
    blocks are all compact is their compact union; a stage holding any
    plain frozenset block is the frozenset of every block's members.
    Every block at a level past ``f(i, 2d)`` must measure strictly below
    ``1/n**d``, otherwise the schedule and the test family disagree and
    assembly refuses.

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

    def union(pieces: Iterable[frozenset]) -> frozenset:
        pieces = [piece for piece in pieces if piece]
        if kind == "family" and all(isinstance(p, FamilyPatternSet) for p in pieces):
            return FamilyPatternSet.union(pieces)
        out: set = set()
        for piece in pieces:
            out.update(piece)
        return frozenset(out)

    @lru_cache(maxsize=None)
    def stages(r: int) -> frozenset:
        pieces = []
        for m in range(1, min(r, m_max) + 1):
            start = g_schedule.g(m)
            for n in range(start, min(start + r - 1, horizon) + 1):
                pieces.append(block(m, n))
        return union(pieces)

    @lru_cache(maxsize=None)
    def measure_approx(k: int) -> Fraction:
        pieces = []
        for m in range(1, min(k + 1, m_max) + 1):
            start = g_schedule.g(m)
            stop = min(start * 2 ** (k + 1) - 1, horizon)
            for n in range(start, stop + 1):
                pieces.append(block(m, n))
        return measure(union(pieces))

    return EnumeratedOpenSet(kind=kind, stages=stages, measure_approx=measure_approx)


def build_ggm_testfamily(
    program_for: Callable[[int], "GenericProgram"] | "GenericProgram",
    d: int,
    n: int,
    experiment: str = "dlog",
) -> FamilyPatternSet:
    """Length-n prefixes whose last encoding breaks the 1/n**d target.

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
    prog = program_for(n) if callable(program_for) else program_for
    return FamilyPatternSet({n: bad_assignments(prog, n, experiment, Fraction(1, n**d))})
