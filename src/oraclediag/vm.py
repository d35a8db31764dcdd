"""A tiny branching-program machine for generic group algorithms.

Programs act on a cyclic group of order N presented through an encoding
function sigma: registers hold group-element handles obtained from the
inputs or from the add oracle, never forged strings.  Equality branches
compare handles, coin branches consume an explicit finite coin tape, and
a run ends at an output instruction.

Outputs are naturals under the usual string/natural identification, so a
program can answer either with a plain integer (``out_int``) or with the
encoding string held in a register (``out_reg``).

Control flow is forward-only, so no run is longer than its program
(loops are unrolled when a program is built).  ``GenericProgram`` checks
the contract once: every instruction is well formed, every path reaches
an output and reads only registers written on that path.  It derives
``coin_count``, the most coin branches on any path.  An
interpreter checks only its arguments: inputs in Z_N and a coin tape of
``coin_count`` bits.

The module has one fast interpreter and one reference.  ``run_symbolic``
simulates handles by their discrete logs without any encoding and
reports the output handle itself; the experiments build their instance
plans on it, and ``run_generic`` is the same run with sigma applied to a
register output.  ``run_generic_reference`` carries literal encoding
strings through a :class:`GroupOracle` and validates every oracle call;
it exists so the fast path can be checked against an independent one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .cylinder import Bits, EncodingFunction
from .numbering import string_to_nat

OP_INPUT, OP_ADD, OP_EQ, OP_COIN, OP_OUT_INT, OP_OUT_REG = range(6)

# Operand types of (OP_INPUT, i), (OP_ADD, r, s), (OP_EQ, r, s, target),
# (OP_COIN, target), (OP_OUT_INT, base or None for N, reduce), (OP_OUT_REG, r)
_SHAPES = {OP_INPUT: (int,), OP_ADD: (int, int), OP_EQ: (int, int, int), OP_COIN: (int,),
           OP_OUT_INT: ((int, type(None)), bool), OP_OUT_REG: (int,)}
_READS = {OP_ADD: slice(1, 3), OP_EQ: slice(1, 3), OP_OUT_REG: slice(1, 2)}
_OUTPUTS = (OP_OUT_INT, OP_OUT_REG)

Instruction = tuple


class ProgramError(ValueError):
    """A program failed static validation."""


class InvalidEncoding(RuntimeError):
    """An oracle was called on a string outside the group's encoding."""


@dataclass(frozen=True)
class GenericProgram:
    name: str
    instructions: tuple[Instruction, ...]
    n_inputs: int
    coin_count: int = field(init=False)  # the most coin branches on any path

    def __post_init__(self) -> None:
        object.__setattr__(self, "coin_count", _validate(self))


def _validate(prog: GenericProgram) -> int:
    """Refuse a program that breaks the contract; else return the most
    coin branches on a path to an output."""
    instrs = prog.instructions
    if not instrs:
        raise ProgramError("empty program")
    if prog.n_inputs < 1:
        raise ProgramError(f"need n_inputs >= 1 in {prog.name}")
    size = len(instrs)
    for idx, ins in enumerate(instrs):
        if not ins or ins[0] not in _SHAPES:
            raise ProgramError(f"instr {idx}: unknown opcode in {ins!r}")
        shape = _SHAPES[ins[0]]
        if len(ins) != 1 + len(shape) or not all(map(isinstance, ins[1:], shape)):
            raise ProgramError(f"instr {idx}: {ins!r} has the wrong operands")
    # values[i]: value ops before instruction i, so a path that ran all of
    # them reaches i holding registers r0 .. r(values[i] - 1)
    values = list(itertools.accumulate((ins[0] in (OP_INPUT, OP_ADD) for ins in instrs), initial=0))
    skipped = [False] * size  # some path to i skipped a value op
    coins = [0] + [-1] * (size - 1)  # most coin branches on a path to i; -1: no path
    most = 0
    for idx, ins in enumerate(instrs):
        op = ins[0]
        if op == OP_INPUT and not 0 <= ins[1] < prog.n_inputs:
            raise ProgramError(f"instr {idx}: input index {ins[1]} out of range")
        if op in _READS:
            for reg in ins[_READS[op]]:
                if not 0 <= reg < values[idx]:
                    raise ProgramError(f"instr {idx}: register r{reg} read before write")
            if skipped[idx]:
                raise ProgramError(f"instr {idx}: read after a branch skipped a value op")
        if op in _OUTPUTS:
            most = max(most, coins[idx])
            continue
        if idx == size - 1:
            raise ProgramError("last instruction must be an output")
        taken = coins[idx] + (op == OP_COIN) if coins[idx] >= 0 else -1
        skipped[idx + 1] |= skipped[idx]
        coins[idx + 1] = max(coins[idx + 1], taken)
        if op in (OP_EQ, OP_COIN):
            target = ins[-1]
            if not idx < target < size:
                raise ProgramError(
                    f"instr {idx}: branch target {target} must be forward and in range"
                )
            skipped[target] |= skipped[idx] or values[target] > values[idx + 1]
            coins[target] = max(coins[target], taken)
    return most


@dataclass(frozen=True)
class RunResult:
    output: int  # natural under the string identification
    queries: int


def run_generic(
    prog: GenericProgram,
    N: int,
    sigma: EncodingFunction,
    inputs: Sequence[int],
    coins: str = "",
) -> RunResult:
    """Execute a program against (N, sigma) with explicit inputs and coins.

    Inputs are the discrete logs of the handle inputs (in Z_N); the run is
    deterministic given all arguments.  It is :func:`run_symbolic` with
    sigma applied to a register output.
    """
    if N < 1 or N > 2**sigma.n:
        raise ValueError(f"modulus {N} does not fit width {sigma.n}")
    kind, value, queries = run_symbolic(prog, N, inputs, coins)
    if kind == "reg":
        value = (1 << sigma.n) + sigma.table[value] - 1
    return RunResult(value, queries)


def run_symbolic(
    prog: GenericProgram,
    N: int,
    inputs: Sequence[int],
    coins: str = "",
) -> tuple[str, int, int]:
    """Run without an encoding; returns (output kind, value, queries).

    Control flow in this machine depends on sigma only through handle
    equality, which reduces to equality of discrete logs, so the path and
    the query count are encoding-independent.  The output is either
    ('int', natural) for out_int or ('reg', element value) for out_reg;
    the caller applies an encoding afterwards if it needs one.
    """
    if N < 1:
        raise ValueError(f"modulus must be at least 1, got {N}")
    if len(inputs) != prog.n_inputs:
        raise ValueError(f"expected {prog.n_inputs} inputs, got {len(inputs)}")
    if any(not 0 <= x < N for x in inputs):
        raise ValueError("inputs must be group elements in Z_N")
    if len(coins) != prog.coin_count:
        raise ValueError(f"expected a coin tape of {prog.coin_count}, got {len(coins)}")
    instrs = prog.instructions
    regs: list[int] = []
    ip = 0
    coin_idx = 0
    queries = 0
    while True:
        ins = instrs[ip]
        op = ins[0]
        if op == OP_ADD:
            regs.append((regs[ins[1]] + regs[ins[2]]) % N)
            queries += 1
        elif op == OP_EQ:
            if regs[ins[1]] == regs[ins[2]]:
                ip = ins[3]
                continue
        elif op == OP_INPUT:
            regs.append(inputs[ins[1]])
        elif op == OP_COIN:
            bit = coins[coin_idx]
            coin_idx += 1
            if bit == "1":
                ip = ins[1]
                continue
        elif op == OP_OUT_INT:
            value = N if ins[1] is None else ins[1]
            if ins[2]:
                value %= N
            return "int", value, queries
        else:  # OP_OUT_REG
            return "reg", regs[ins[1]], queries
        ip += 1


class GroupOracle:
    """String-level add oracle for one (N, sigma) instance.

    Every argument is validated against the encoding's image of Z_N; a
    string from outside it raises :class:`InvalidEncoding`.
    """

    def __init__(self, N: int, sigma: EncodingFunction):
        if N < 1 or N > 2**sigma.n:
            raise ValueError(f"modulus {N} does not fit width {sigma.n}")
        self.N = N
        self.sigma = sigma
        self.queries = 0
        self._decode = {sigma.encode(x): x for x in range(N)}

    def encode(self, x: int) -> Bits:
        return self.sigma.encode(x % self.N)

    def decode(self, s: Bits) -> int:
        try:
            return self._decode[s]
        except KeyError:
            raise InvalidEncoding(f"{s!r} does not encode an element of Z_{self.N}")

    def add(self, a: Bits, b: Bits) -> Bits:
        self.queries += 1
        return self.encode(self.decode(a) + self.decode(b))


def run_generic_reference(
    prog: GenericProgram,
    N: int,
    sigma: EncodingFunction,
    inputs: Sequence[int],
    coins: str = "",
) -> RunResult:
    """Reference interpreter over literal encoding strings."""
    oracle = GroupOracle(N, sigma)
    if len(inputs) != prog.n_inputs:
        raise ValueError(f"expected {prog.n_inputs} inputs, got {len(inputs)}")
    if any(not 0 <= x < N for x in inputs):
        raise ValueError("inputs must be group elements in Z_N")
    if len(coins) != prog.coin_count:
        raise ValueError(f"expected a coin tape of {prog.coin_count}, got {len(coins)}")
    instrs = prog.instructions
    regs: list[Bits] = []
    ip = 0
    coin_idx = 0
    while True:
        ins = instrs[ip]
        op = ins[0]
        if op == OP_INPUT:
            regs.append(oracle.encode(inputs[ins[1]]))
        elif op == OP_ADD:
            regs.append(oracle.add(regs[ins[1]], regs[ins[2]]))
        elif op == OP_EQ:
            if regs[ins[1]] == regs[ins[2]]:
                ip = ins[3]
                continue
        elif op == OP_COIN:
            bit = coins[coin_idx]
            coin_idx += 1
            if bit == "1":
                ip = ins[1]
                continue
        elif op == OP_OUT_INT:
            value = N if ins[1] is None else ins[1]
            if ins[2]:
                value %= N
            return RunResult(value, oracle.queries)
        else:  # OP_OUT_REG
            oracle.decode(regs[ins[1]])  # reject anything outside the group
            return RunResult(string_to_nat(regs[ins[1]]), oracle.queries)
        ip += 1


def coin_tapes(count: int) -> Iterator[str]:
    """All coin tapes of the given length ('' alone when count is zero)."""
    return ("".join(bits) for bits in itertools.product("01", repeat=count))
