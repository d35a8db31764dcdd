"""A tiny branching-program machine for generic group algorithms.

Programs act on a cyclic group of order N presented through an encoding
function sigma: registers hold group-element handles obtained from the
inputs or from the add/inv oracles, never forged strings.  Equality
branches compare handles, coin branches consume an explicit finite coin
tape, and a run ends at an output instruction.

Outputs are naturals under the usual string/natural identification, so a
program can answer either with a plain integer (``out_int``) or with the
encoding string held in a register (``out_reg``).

Control flow is forward-only: branch targets must point past the current
instruction.  That keeps every path finite and makes the declared step
bound checkable, at the price of requiring loops to be unrolled (all
built-in programs are generated that way).

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
from dataclasses import dataclass
from typing import Iterator, Sequence

from .cylinder import Bits, EncodingFunction
from .numbering import string_to_nat

OP_INPUT, OP_ADD, OP_INV, OP_CONST, OP_EQ, OP_COIN, OP_OUT_INT, OP_OUT_REG = range(8)

_VALUE_OPS = (OP_INPUT, OP_ADD, OP_INV, OP_CONST)

# out_int value expression: (base, reduce) with base None standing for N.
Instruction = tuple


class ProgramError(ValueError):
    """A program failed static validation."""


class ExecutionError(RuntimeError):
    """A program misbehaved at run time."""


class CoinsExhausted(ExecutionError):
    pass


class StepBoundExceeded(ExecutionError):
    pass


class InvalidEncoding(ExecutionError):
    """An oracle was called on a string outside the group's encoding."""


@dataclass(frozen=True)
class GenericProgram:
    name: str
    instructions: tuple[Instruction, ...]
    n_inputs: int
    coin_count: int = 0
    step_bound: int = 0

    def __post_init__(self) -> None:
        if self.step_bound == 0:
            # Forward-only control flow: no path is longer than the program.
            object.__setattr__(self, "step_bound", len(self.instructions))
        _validate(self)


def _validate(prog: GenericProgram) -> None:
    instrs = prog.instructions
    if not instrs:
        raise ProgramError("empty program")
    produced = 0
    for idx, ins in enumerate(instrs):
        op = ins[0]
        if op == OP_INPUT:
            if not 0 <= ins[1] < prog.n_inputs:
                raise ProgramError(f"instr {idx}: input index {ins[1]} out of range")
        elif op in (OP_ADD, OP_INV, OP_OUT_REG):
            for reg in ins[1:3] if op == OP_ADD else ins[1:2]:
                if not 0 <= reg < produced:
                    raise ProgramError(f"instr {idx}: register r{reg} read before write")
        elif op == OP_EQ:
            for reg in ins[1:3]:
                if not 0 <= reg < produced:
                    raise ProgramError(f"instr {idx}: register r{reg} read before write")
        if op in (OP_EQ, OP_COIN):
            target = ins[3] if op == OP_EQ else ins[1]
            if not idx < target < len(instrs):
                raise ProgramError(
                    f"instr {idx}: branch target {target} must be forward and in range"
                )
        if op in _VALUE_OPS:
            produced += 1
        if idx == len(instrs) - 1 and op not in (OP_OUT_INT, OP_OUT_REG):
            raise ProgramError("last instruction must be an output")
    if prog.step_bound < len(instrs):
        raise ProgramError("step bound smaller than the longest possible path")


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
    instrs = prog.instructions
    regs: list[int] = []
    ip = 0
    coin_idx = 0
    queries = 0
    steps = 0
    bound = prog.step_bound
    while True:
        if steps >= bound:
            raise StepBoundExceeded(f"{prog.name}: exceeded {bound} steps")
        steps += 1
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
        elif op == OP_INV:
            regs.append(-regs[ins[1]] % N)
            queries += 1
        elif op == OP_CONST:
            regs.append(ins[1] % N)
        elif op == OP_COIN:
            if coin_idx >= len(coins):
                raise CoinsExhausted(f"{prog.name}: coin tape of {len(coins)} exhausted")
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
    """String-level add/inv oracles for one (N, sigma) instance.

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

    def inv(self, a: Bits) -> Bits:
        self.queries += 1
        return self.encode(-self.decode(a))


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
    instrs = prog.instructions
    regs: list[Bits] = []
    ip = 0
    coin_idx = 0
    steps = 0
    while True:
        if steps >= prog.step_bound:
            raise StepBoundExceeded(f"{prog.name}: exceeded {prog.step_bound} steps")
        steps += 1
        ins = instrs[ip]
        op = ins[0]
        if op == OP_INPUT:
            regs.append(oracle.encode(inputs[ins[1]]))
        elif op == OP_ADD:
            regs.append(oracle.add(regs[ins[1]], regs[ins[2]]))
        elif op == OP_INV:
            regs.append(oracle.inv(regs[ins[1]]))
        elif op == OP_CONST:
            regs.append(oracle.encode(ins[1]))
        elif op == OP_EQ:
            if regs[ins[1]] == regs[ins[2]]:
                ip = ins[3]
                continue
        elif op == OP_COIN:
            if coin_idx >= len(coins):
                raise CoinsExhausted(f"{prog.name}: coin tape of {len(coins)} exhausted")
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
    """All coin tapes of the given length ('' when count is zero)."""
    if count == 0:
        yield ""
        return
    for bits in itertools.product("01", repeat=count):
        yield "".join(bits)

