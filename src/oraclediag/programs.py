"""Built-in generic algorithms.

Discrete-log programs take inputs (sigma(1), sigma(x)) and answer with an
integer; Diffie-Hellman programs take (sigma(1), sigma(x), sigma(y)) and
answer with a string (as a natural).  Loops are unrolled at build time,
so every program here is straight-line code with forward branches.

Success profiles span the full range: const_guess hits with probability
1/N, linear_search covers min(m + 1, N) exponents with m additions, bsgs
is the classic two-chain search with ~2*sqrt(N) queries, and
invalid_guess never wins.  The cdh_* builders exist mostly to feed the
test-set machinery; cdh_pin_table is the one whose per-sigma success
actually varies with sigma.
"""

from __future__ import annotations

from typing import Sequence

from .cylinder import Bits, read_int, validate_bits
from .numbering import string_to_nat
from .vm import (
    OP_ADD,
    OP_COIN,
    OP_EQ,
    OP_INPUT,
    OP_OUT_INT,
    OP_OUT_REG,
    GenericProgram,
    Instruction,
)


# bsgs:1 at width 13, the widest dlog width the instance budget admits,
# has 40968 instructions; bsgs:1 at width 64 would never finish building
PROGRAM_LENGTH_CAP = 2**16


class _Asm:
    """Instruction-list builder with named labels and register tracking."""

    def __init__(self) -> None:
        self.instrs: list[list] = []
        self.labels: dict[str, int] = {}
        self._regs = 0

    def _emit(self, ins: list) -> None:
        if len(self.instrs) == PROGRAM_LENGTH_CAP:
            raise ValueError(f"program longer than {PROGRAM_LENGTH_CAP} instructions")
        self.instrs.append(ins)

    def _value(self, ins: list) -> int:
        self._emit(ins)
        self._regs += 1
        return self._regs - 1

    def input(self, i: int) -> int:
        return self._value([OP_INPUT, i])

    def add(self, a: int, b: int) -> int:
        return self._value([OP_ADD, a, b])

    def eq(self, a: int, b: int, label: str) -> None:
        self._emit([OP_EQ, a, b, label])

    def coin(self, label: str) -> None:
        self._emit([OP_COIN, label])

    def out_int(self, base: int | None, mod: bool = False) -> None:
        self._emit([OP_OUT_INT, base, mod])

    def out_reg(self, a: int) -> None:
        self._emit([OP_OUT_REG, a])

    def label(self, name: str) -> None:
        self.labels[name] = len(self.instrs)

    def build(self, name: str, n_inputs: int) -> GenericProgram:
        resolved: list[Instruction] = []
        for ins in self.instrs:
            if ins[0] == OP_EQ:
                resolved.append((OP_EQ, ins[1], ins[2], self.labels[ins[3]]))
            elif ins[0] == OP_COIN:
                resolved.append((OP_COIN, self.labels[ins[1]]))
            else:
                resolved.append(tuple(ins))
        return GenericProgram(name=name, instructions=tuple(resolved), n_inputs=n_inputs)


def const_guess(c: int) -> GenericProgram:
    """Always answers the fixed integer c (no queries)."""
    a = _Asm()
    a.out_int(c)
    return a.build(f"const_guess({c})", n_inputs=2)


def invalid_guess() -> GenericProgram:
    """Always answers N itself, which is never an element of Z_N."""
    a = _Asm()
    a.out_int(None)
    return a.build("invalid_guess", n_inputs=2)


def random_guess(b: int) -> GenericProgram:
    """Answers the integer spelled by b coin flips (most significant first)."""
    if b < 1:
        raise ValueError("need at least one coin")
    a = _Asm()

    def emit(bits: str) -> None:
        if len(bits) == b:
            a.label(f"leaf{bits}")
            a.out_int(int(bits, 2))
            return
        a.coin(f"node{bits}1" if len(bits) + 1 < b else f"leaf{bits}1")
        emit(bits + "0")
        if len(bits) + 1 < b:
            a.label(f"node{bits}1")
        emit(bits + "1")

    emit("")
    return a.build(f"random_guess({b})", n_inputs=2)


def linear_search(m: int) -> GenericProgram:
    """Tests x against 1, 2, ..., m + 1 using at most m additions.

    A hit at k answers k mod N, so the final probe also covers x = 0 when
    m + 1 reaches the group order; a miss answers the invalid N.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    a = _Asm()
    r_one = a.input(0)
    r_x = a.input(1)
    a.eq(r_one, r_x, "hit1")
    cur = r_one
    for k in range(2, m + 2):
        cur = a.add(cur, r_one)
        a.eq(cur, r_x, f"hit{k}")
    a.out_int(None)
    for k in range(1, m + 2):
        a.label(f"hit{k}")
        a.out_int(k, mod=True)
    return a.build(f"linear_search({m})", n_inputs=2)


def bsgs(m: int, n: int) -> GenericProgram:
    """Baby-step giant-step with block size m, sized for moduli up to 2**n.

    Baby handles sigma(x + j) for j in [0, m] and giant handles
    sigma(i * m) for i in [1, 2**n // m + 1] are all computed up front, so
    the query count is the same fixed m + (m - 1) + (i_max - 1) on every
    path; a match at (i, j) answers (i*m - j) mod N.
    """
    if m < 1 or n < 1:
        raise ValueError("need m >= 1 and n >= 1")
    i_max = 2**n // m + 1
    a = _Asm()
    r_one = a.input(0)
    r_x = a.input(1)
    baby = [r_x]
    for _ in range(m):
        baby.append(a.add(baby[-1], r_one))
    # walk sigma(2), ..., sigma(m) to obtain the giant stride
    stride = r_one
    for _ in range(m - 1):
        stride = a.add(stride, r_one)
    giants = [stride]
    for _ in range(i_max - 1):
        giants.append(a.add(giants[-1], stride))
    for i, r_giant in enumerate(giants, start=1):
        for j, r_baby in enumerate(baby):
            a.eq(r_baby, r_giant, f"hit{i}_{j}")
    a.out_int(None)
    for i in range(1, i_max + 1):
        for j in range(m + 1):
            a.label(f"hit{i}_{j}")
            a.out_int(i * m - j, mod=True)
    return a.build(f"bsgs({m},{n})", n_inputs=2)


def cdh_echo() -> GenericProgram:
    """Answers the input handle sigma(x) verbatim."""
    a = _Asm()
    a.input(0)
    r_x = a.input(1)
    a.out_reg(r_x)
    return a.build("cdh_echo", n_inputs=3)


def cdh_const_guess(s: Bits) -> GenericProgram:
    """Answers a fixed string regardless of the instance."""
    validate_bits(s)
    a = _Asm()
    a.out_int(string_to_nat(s))
    return a.build(f"cdh_const_guess({s or 'λ'})", n_inputs=3)


def cdh_invalid() -> GenericProgram:
    """Answers the empty string, which no n-bit encoding ever equals."""
    a = _Asm()
    a.out_int(0)
    return a.build("cdh_invalid", n_inputs=3)


def cdh_pin_table(pins: Sequence[tuple[int, Bits]]) -> GenericProgram:
    """Gated table guesser: when y = 1, map x = j to a fixed string guess.

    pins are (j, target) entries with distinct j >= 1; on the y = 1 branch
    the program walks sigma(1), sigma(2), ... and answers the pinned
    string for the matching x (then xy = x = j, so it wins exactly when
    sigma(j) is the pinned target).  Everything else answers the empty
    string.
    """
    if not pins:
        raise ValueError("need at least one pin")
    pins = sorted(pins, key=lambda e: e[0])
    if any(j < 1 for j, _ in pins) or len({j for j, _ in pins}) != len(pins):
        raise ValueError("pin positions must be distinct and >= 1")
    for _, s in pins:
        validate_bits(s)
    a = _Asm()
    r_one = a.input(0)
    r_x = a.input(1)
    r_y = a.input(2)
    a.eq(r_y, r_one, "go")
    a.out_int(0)
    a.label("go")
    cur, j_cur = r_one, 1
    for j, _ in pins:
        while j_cur < j:
            cur = a.add(cur, r_one)
            j_cur += 1
        a.eq(r_x, cur, f"hit{j}")
    a.out_int(0)
    for j, s in pins:
        a.label(f"hit{j}")
        a.out_int(string_to_nat(s))
    label = ";".join(f"{j}:{s}" for j, s in pins)
    return a.build(f"cdh_pin_table({label})", n_inputs=3)


# ---------------------------------------------------------------------------
# Name-based registry (CLI entry point)
# ---------------------------------------------------------------------------


# name -> (argument form, default, builder of (argument, width)); a
# program with no form takes no argument, BITS is taken as written and
# every other form is an integer.  Each builder is looked up when called,
# where a tracer may wrap it.
PROGRAMS = {
    "const_guess": ("C", 0, lambda c, n: const_guess(c)),
    "invalid_guess": (None, None, lambda _, n: invalid_guess()),
    "random_guess": ("B", 1, lambda b, n: random_guess(b)),
    "linear_search": ("M", 1, lambda m, n: linear_search(m)),
    "bsgs": ("M", 2, lambda m, n: bsgs(m, n)),
    "cdh_echo": (None, None, lambda _, n: cdh_echo()),
    "cdh_const_guess": ("BITS", "", lambda s, n: cdh_const_guess(s)),
    "cdh_invalid": (None, None, lambda _, n: cdh_invalid()),
}

REGISTRY_HELP = " | ".join(
    f"{name}:{form}" if form else name for name, (form, *_) in PROGRAMS.items()
)


def build_program(spec: str, n: int) -> GenericProgram:
    """Construct a registry program from a spec like ``linear_search:3``;
    an empty argument stands for the default.

    The width n is only consulted by builders that need it (bsgs).
    """
    name, _, text = spec.partition(":")
    if name not in PROGRAMS:
        raise ValueError(f"unknown program spec {spec!r}")
    form, default, build = PROGRAMS[name]
    if text and form is None:
        raise ValueError(f"program {name} takes no argument, got {spec!r}")
    if text and form != "BITS":
        return build(read_int(text, f"the argument of {name}"), n)
    return build(text or default, n)
