"""End-to-end escape pipeline over a toy generic-group adversary registry.

With the default closed-form schedule the first constraint block starts
at a cutoff in the thousands, so nothing below a desk-scale horizon ever
materializes; the run then simply documents that vacuity.  The
compressed schedule is a custom table that pulls a few hand-picked
(adversary, exponent) blocks down into materializable levels, so the
escape actually has to steer around nonempty constraint sets.

The registry adversaries are Diffie-Hellman table-guessers gated on
y = 1: their per-encoding success counts how many of four pinned
positions the encoding sends to the guessed strings, which makes the
over-threshold set a thin, nonempty slice of the encodings.  The test
family is empty outside levels 2 to the horizon, so the assembled set
is provably finite.

Constraint blocks are compact (``FamilyPatternSet``): the few bad
assignments to the table entries a program reads, never the member
prefixes, which the ``members=`` counts of a report only count.  So the
escape depth reaches 9, choosing among up to 512! encodings per level
without a scan, and the horizon reaches the widths the instance budget
of the blocks' plans admits.  Depth 9 is where ``cylinder``'s one size
rule (``FAMILY.writable_length``) stops family escapes: a depth-10 cell count
has 4,673 digits, past the 4,300 Python writes out.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from .cylinder import FamilyPrefix, all_bit_strings
from .diagonal import (
    EnumeratedOpenSet,
    EscapeTranscript,
    assemble_open_set,
    build_ggm_testfamily,
    escape_family,
    verify_escape,
)
from .numbering import phi_escape
from .programs import cdh_pin_table
from .schedules import Schedule, named_schedule
from .vm import GenericProgram


@dataclass(frozen=True)
class GgmAdversary:
    name: str
    experiment: str  # "dlog" | "cdh"
    program_for: Callable[[int], GenericProgram]


def _pin_program(n: int, reverse: bool) -> GenericProgram:
    if n < 2:
        raise ValueError(f"width {n} has fewer than the 4 strings to pin")
    targets = all_bit_strings(n)
    if reverse:
        targets = targets[::-1]
    pins = [(j, targets[j - 1]) for j in range(1, 5)]
    return cdh_pin_table(pins)


def toy_registry() -> tuple[GgmAdversary, ...]:
    """Two gated table-guessers with thin over-threshold encoding sets."""
    return (
        GgmAdversary("pin_forward", "cdh", lambda n: _pin_program(n, reverse=False)),
        GgmAdversary("pin_reverse", "cdh", lambda n: _pin_program(n, reverse=True)),
    )


def registry_testfamily(
    registry: tuple[GgmAdversary, ...],
    horizon: int = 3,
) -> Callable[[int, int, int], frozenset[FamilyPrefix]]:
    """(i, d, n) -> compact constraint set for the i-th adversary.

    Unregistered indices and levels beyond the horizon are empty; the
    per-(i, d, n) sets are cached because the assembly and its measure
    approximator revisit them.
    """

    @lru_cache(maxsize=None)
    def family(i: int, d: int, n: int) -> frozenset:
        if not 1 <= i <= len(registry) or n > horizon or n < 2:
            return frozenset()
        adversary = registry[i - 1]
        return build_ggm_testfamily(adversary.program_for(n), d, n, adversary.experiment)

    return family


def compressed_schedules(m_max: int = 5, horizon: int = 3) -> tuple[Schedule, Schedule]:
    """Custom (f, g) tables that make blocks m = 1, 2 bite at levels 2..3.

    Blocks whose constraint sets would break their measure bound at desk
    scale are pushed past the horizon instead of being silently skipped.
    """
    f_table = {(i, dd): 2 for i in range(1, 4) for dd in (4, 6, 8)}
    g_table: dict[int, int] = {}
    for m in range(1, m_max + 1):
        i, d = phi_escape(m)
        g_table[m] = 2 if (i, d) in ((1, 2), (2, 2)) else horizon + 1
    return Schedule(pair_table=f_table), Schedule(unary_table=g_table)


@dataclass(frozen=True)
class PipelineReport:
    schedule: str
    open_set: EnumeratedOpenSet
    transcript: EscapeTranscript
    materialized: dict[tuple[int, int, int], int]  # (i, d, n) -> member count
    verified: bool
    vacuous: bool

    def summary(self) -> str:
        lines = [f"schedule {self.schedule}"]
        nonempty = {k: v for k, v in self.materialized.items() if v}
        if self.vacuous:
            lines.append(
                "all materialized constraint sets below the horizon are empty"
            )
        for (i, d, n), count in sorted(nonempty.items()):
            lines.append(f"constraints i={i} d={d} n={n} members={count}")
        lines.append(f"escape verified {self.verified}")
        lines.append(self.transcript.to_text().rstrip("\n"))
        return "\n".join(lines) + "\n"


def run_pipeline(
    schedule: str = "paper",
    depth: int = 3,
    C: int = 1,
    horizon: int = 3,
    m_max: int = 5,
    mode: str = "exact",
) -> PipelineReport:
    """Assemble the registry's constraint sets and escape them.

    ``schedule`` is "compressed" (the custom toy tables) or a name
    ``schedules.named_schedule`` reads ("paper", "file:PATH"), whose
    f and derived g give the cutoffs.  ``depth`` goes up to 9,
    where ``cylinder``'s size rule stops family escapes; a block past the
    width the instance budget admits refuses the ``horizon``.
    """
    registry = toy_registry()
    testfamily = registry_testfamily(registry, horizon)
    if schedule == "compressed":
        f_schedule, g_schedule = compressed_schedules(m_max, horizon)
    else:
        f_schedule = g_schedule = named_schedule(schedule, C)

    open_set = assemble_open_set(testfamily, f_schedule, m_max, horizon, g_schedule)

    materialized: dict[tuple[int, int, int], int] = {}
    for m in range(1, m_max + 1):
        i, d = phi_escape(m)
        for n in range(g_schedule.g(m), horizon + 1):
            materialized[(i, d, n)] = len(testfamily(i, d, n))

    vacuous = not any(materialized.values())
    transcript = escape_family(open_set, depth=depth, mode=mode)
    verified = all(
        verify_escape(transcript.prefix, testfamily(i, d, n))
        for (i, d, n) in materialized
    )
    return PipelineReport(
        schedule=schedule,
        open_set=open_set,
        transcript=transcript,
        materialized=materialized,
        verified=verified,
        vacuous=vacuous,
    )
