"""A toy hash-and-invert signature scheme over tabulated permutations.

This is deliberately not cryptography: the trapdoor family is the cyclic
shift on width-w strings (key k maps s to s + k mod 2**w), so "inverting"
is subtraction.  What the scheme provides is an exactly enumerable
forgery experiment: finite keys, finite messages, finite coins, and an
oracle table standing in for the hash.  Signing answers the preimage of
the hashed message under the keyed permutation, verification re-applies
the permutation and compares, so honest signatures always verify.

The forgery experiment hands the adversary the public key plus oracle
access to signing and hashing, and scores a win when it returns a valid
signature on a message it never queried.  Success probabilities are
exact rationals, enumerated over keys and the adversary's coin tape.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .cylinder import Bits, bit_strings_up_to
from .rom import ELL_ONE, EllPoly, ExperimentOracle, OracleTable
from .vm import coin_tapes


def shift_apply(width: int, key: int, s: Bits) -> Bits:
    return format((int(s, 2) + key) % 2**width, f"0{width}b")


def shift_invert(width: int, key: int, s: Bits) -> Bits:
    return format((int(s, 2) - key) % 2**width, f"0{width}b")


@dataclass(frozen=True)
class ToyFdhScheme:
    """Key space, message space, and the sign/verify pair."""

    ell: EllPoly
    query_depth: Callable[[int], int]

    def key_count(self, n: int) -> int:
        return 2 ** self.ell(n)

    def messages(self, n: int) -> list[Bits]:
        return bit_strings_up_to(self.query_depth(n))

    def sign(self, n: int, key: int, m: Bits, table: OracleTable) -> Bits:
        return shift_invert(self.ell(n), key, table.lookup(m))

    def verify(self, n: int, key: int, m: Bits, sig: Bits, table: OracleTable) -> bool:
        if len(sig) != self.ell(n):
            return False
        return shift_apply(self.ell(n), key, sig) == table.lookup(m)


def default_toy_scheme(q: int = 1) -> ToyFdhScheme:
    return ToyFdhScheme(ell=ELL_ONE, query_depth=lambda n: q)


@dataclass(frozen=True)
class ToyAdversary:
    """A forgery strategy against the toy scheme.

    ``run(n, scheme, pk, sign_oracle, hash_oracle, coins)`` returns the
    claimed (message, signature); the experiment tracks which messages
    went through the signing oracle.
    """

    name: str
    coin_count: Callable[[int, ToyFdhScheme], int]
    run: Callable


def _replay(n, scheme, pk, sign_oracle, hash_oracle, coins):
    sig = sign_oracle("")
    return "", sig


def _fresh_guess(n, scheme, pk, sign_oracle, hash_oracle, coins):
    return "0", coins  # coins spell a uniform signature guess


def _invert(n, scheme, pk, sign_oracle, hash_oracle, coins):
    return "0", shift_invert(scheme.ell(n), pk, hash_oracle("0"))


def _lucky_all_ones(n, scheme, pk, sign_oracle, hash_oracle, coins):
    # forges only against tables hashing every short message to all-ones,
    # so its success probability is table-sensitive: exactly 0 or 1
    width = scheme.ell(n)
    ones = "1" * width
    if all(hash_oracle(m) == ones for m in scheme.messages(n)):
        return _invert(n, scheme, pk, sign_oracle, hash_oracle, coins)
    return "0", ""  # zero-length signature never verifies


ADVERSARIES: dict[str, ToyAdversary] = {
    "replay": ToyAdversary("replay", lambda n, s: 0, _replay),
    "fresh_guess": ToyAdversary("fresh_guess", lambda n, s: s.ell(n), _fresh_guess),
    "invert": ToyAdversary("invert", lambda n, s: 0, _invert),
    "lucky_all_ones": ToyAdversary("lucky_all_ones", lambda n, s: 0, _lucky_all_ones),
}


def sigforge_toy(
    n: int,
    table: OracleTable,
    scheme: ToyFdhScheme,
    adversary_id: str,
) -> Fraction:
    """Exact forgery probability for one fixed oracle table.

    Enumerates every key and every coin tape; a run wins when the output
    message was never sent to the signing oracle and its signature
    verifies.
    """
    try:
        adversary = ADVERSARIES[adversary_id]
    except KeyError:
        raise ValueError(f"unknown adversary {adversary_id!r}")
    if table.width != scheme.ell(n):
        raise ValueError("oracle table width disagrees with the scheme")
    coins_needed = adversary.coin_count(n, scheme)
    hits = 0
    total = 0
    for key in range(scheme.key_count(n)):
        for coins in coin_tapes(coins_needed):
            queried: set[Bits] = set()

            def sign_oracle(m: Bits) -> Bits:
                queried.add(m)
                return scheme.sign(n, key, m, table)

            m, sig = adversary.run(n, scheme, key, sign_oracle, table.lookup, coins)
            total += 1
            if m not in queried and scheme.verify(n, key, m, sig, table):
                hits += 1
    return Fraction(hits, total)


def fdh_experiment_oracle(scheme: ToyFdhScheme, adversary_id: str) -> ExperimentOracle:
    """Wrap one (scheme, adversary) pair as an exact experiment oracle."""
    return ExperimentOracle(
        ell=scheme.ell,
        evaluator=lambda n, table: sigforge_toy(n, table, scheme, adversary_id),
        query_depth=scheme.query_depth,
    )
