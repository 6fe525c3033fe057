"""Exact arithmetic on integers carried with their prime factorizations.

Every modulus in the lab is a ``FactoredModulus``: a positive integer
together with its full factorization, so that divisors, exact divisors and
gcds can be computed without ever re-factoring or touching floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

_FACTOR_CAP = 2**64


def _trial_factor(n: int) -> tuple[tuple[int, int], ...]:
    """Deterministic trial division up to sqrt(n).  Desk-scale inputs only."""
    if n <= 0:
        raise ValueError(f"modulus must be positive, got {n}")
    if n >= _FACTOR_CAP:
        raise ValueError(f"modulus {n} exceeds the 2**64 factorization cap")
    factors = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors.append((p, e))
        p += 1 if p == 2 else 2
    if m > 1:
        factors.append((m, 1))
    return tuple(factors)


@dataclass(frozen=True)
class FactoredModulus:
    """A positive integer with its prime factorization.

    ``factors`` is a tuple of (prime, exponent) pairs with strictly
    increasing primes and exponents >= 1; the empty tuple encodes 1.
    """

    value: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        prod = 1
        last = 1
        for p, e in self.factors:
            if p <= last or e < 1:
                raise ValueError(f"bad factor list {self.factors}")
            prod *= p**e
            last = p
        if prod != self.value or self.value < 1:
            raise ValueError(f"factors {self.factors} do not multiply to {self.value}")

    @staticmethod
    def of(n: int) -> "FactoredModulus":
        """Factor ``n`` by trial division; input factorizations are never trusted."""
        return FactoredModulus(n, _trial_factor(n))

    def exponent_of(self, p: int) -> int:
        for q, e in self.factors:
            if q == p:
                return e
        return 0

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def is_one(self) -> bool:
        return self.value == 1

    def __int__(self) -> int:
        return self.value

    def __repr__(self) -> str:
        if not self.factors:
            return "FactoredModulus(1)"
        body = "*".join(f"{p}^{e}" if e > 1 else str(p) for p, e in self.factors)
        return f"FactoredModulus({self.value}={body})"


ONE = FactoredModulus(1, ())


def exact_divides(a: FactoredModulus, b: FactoredModulus) -> bool:
    """True iff a || b: every prime power p^n || a also satisfies p^n || b."""
    return all(b.exponent_of(p) == e for p, e in a.factors)


def divides(a: FactoredModulus, b: FactoredModulus) -> bool:
    """Plain divisibility a | b, checked on exponents."""
    return all(b.exponent_of(p) >= e for p, e in a.factors)


def fgcd(a: FactoredModulus, b: FactoredModulus) -> FactoredModulus:
    factors = []
    value = 1
    for p, e in a.factors:
        m = min(e, b.exponent_of(p))
        if m > 0:
            factors.append((p, m))
            value *= p**m
    return FactoredModulus(value, tuple(factors))


def divisors(q: FactoredModulus) -> Iterator[FactoredModulus]:
    """All divisors of q, in mixed-radix exponent order (1 first, q last)."""
    ps = q.factors
    exps = [0] * len(ps)
    while True:
        factors = tuple((p, e) for (p, _), e in zip(ps, exps) if e > 0)
        value = 1
        for p, e in factors:
            value *= p**e
        yield FactoredModulus(value, factors)
        i = 0
        while i < len(ps) and exps[i] == ps[i][1]:
            exps[i] = 0
            i += 1
        if i == len(ps):
            return
        exps[i] += 1


def exact_divisors(q: FactoredModulus) -> Iterator[FactoredModulus]:
    """All d with d || q: each prime taken with full exponent or not at all."""
    ps = q.factors
    for mask in range(1 << len(ps)):
        factors = tuple(ps[i] for i in range(len(ps)) if mask >> i & 1)
        value = 1
        for p, e in factors:
            value *= p**e
        yield FactoredModulus(value, factors)
