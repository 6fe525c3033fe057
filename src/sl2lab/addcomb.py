"""Exact sumset/productset oracles over Z/qZ and Z/q1Z x Z/q2Z.

One-dimensional sets are bitmasks in a Python integer (word-parallel
rotations implement wraparound sumsets); q <= 2**16 stays on the bitset
path and larger moduli fall back to hashed sets.  Pair sets use dense
boolean arrays.  These are the hot loops behind the covering searches.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .factored import FactoredModulus, divisors
from .packed import unique_codes

BITSET_MAX = 1 << 16


@dataclass(frozen=True)
class ResidueSet:
    """A subset of Z/qZ: bitmask for q <= 2**16, frozenset beyond."""

    q: int
    bits: Optional[int] = None
    members_set: Optional[frozenset] = None

    @staticmethod
    def of(q: int, members: Iterable[int]) -> "ResidueSet":
        if q < 1:
            raise ValueError("modulus must be positive")
        if q <= BITSET_MAX:
            bits = 0
            for m in members:
                bits |= 1 << (m % q)
            return ResidueSet(q, bits=bits)
        return ResidueSet(q, members_set=frozenset(m % q for m in members))

    @staticmethod
    def full(q: int) -> "ResidueSet":
        return ResidueSet.of(q, range(q))

    def __len__(self) -> int:
        if self.bits is not None:
            return self.bits.bit_count()
        return len(self.members_set)

    def __contains__(self, x: int) -> bool:
        x %= self.q
        if self.bits is not None:
            return bool(self.bits >> x & 1)
        return x in self.members_set

    def members(self) -> list[int]:
        if self.bits is not None:
            out = []
            b = self.bits
            while b:
                low = b & -b
                out.append(low.bit_length() - 1)
                b ^= low
            return out
        return sorted(self.members_set)


def _check_same_q(a: ResidueSet, b: ResidueSet):
    if a.q != b.q:
        raise ValueError(f"modulus mismatch: {a.q} vs {b.q}")


def sumset(a: ResidueSet, b: ResidueSet) -> ResidueSet:
    """A + B via word-parallel rotations of the bitmask."""
    _check_same_q(a, b)
    q = a.q
    if a.bits is not None:
        if len(a) < len(b):
            a, b = b, a
        mask = (1 << q) - 1
        out = 0
        bits = a.bits
        for s in b.members():
            out |= ((bits << s) | (bits >> (q - s))) & mask if s else bits
        return ResidueSet(q, bits=out)
    out = {(x + y) % q for x in a.members_set for y in b.members_set}
    return ResidueSet(q, members_set=frozenset(out))


def negate(a: ResidueSet) -> ResidueSet:
    return ResidueSet.of(a.q, ((-m) % a.q for m in a.members()))


def productset(a: ResidueSet, b: ResidueSet) -> ResidueSet:
    _check_same_q(a, b)
    q = a.q
    if (q - 1) ** 2 >= 2**63:  # int64 products would wrap
        return ResidueSet.of(q, (x * y for x in a.members() for y in b.members()))
    am = np.array(a.members(), dtype=np.int64)
    bm = np.array(b.members(), dtype=np.int64)
    return ResidueSet.of(q, (int(v) for v in unique_codes((am[:, None] * bm[None, :]) % q)))


def difference_of_products(a: ResidueSet, b: ResidueSet) -> ResidueSet:
    """AB - AB."""
    d = productset(a, b)
    return sumset(d, negate(d))


def power_by_doubling(x, k: int, op):
    """x op x op ... op x with k factors, for an associative ``op``, by doubling."""
    if k < 1:
        raise ValueError(f"repeat count must be >= 1, got {k}")
    result = None
    square = x
    while k:
        if k & 1:
            result = square if result is None else op(result, square)
        k >>= 1
        if k:
            square = op(square, square)
    return result


def fold_sum(x: ResidueSet, k: int) -> ResidueSet:
    """The k-fold sumset of x, by doubling."""
    return power_by_doubling(x, k, sumset)


def _contains_subgroup(s: ResidueSet, step: int) -> bool:
    return all((step * t) % s.q in s for t in range(s.q // math.gcd(step, s.q)))


def subgroup_cover_1d(
    a: ResidueSet,
    b: ResidueSet,
    folds: int = 24,
    gamma: Optional[float] = None,
) -> dict:
    """Smallest divisor q' of q with q'Z/qZ inside the folds-fold sum of AB - AB.

    The size hypothesis |A|, |B| > q^{1-gamma} annotates the result (warning,
    not a gate); the verified flag records q' < q^{12 gamma / 5}.
    """
    _check_same_q(a, b)
    q = a.q
    if gamma is not None and gamma >= 0.25:
        warnings.warn(f"gamma = {gamma} is outside the lemma range (0, 1/4)", stacklevel=2)
    hypothesis_ok = None
    if gamma is not None:
        need = q ** (1 - gamma)
        hypothesis_ok = len(a) > need and len(b) > need
        if not hypothesis_ok:
            warnings.warn(
                f"|A|={len(a)}, |B|={len(b)} below the hypothesis q^(1-gamma)={need:.1f}",
                stacklevel=2,
            )
    s = fold_sum(difference_of_products(a, b), folds)
    qfac = FactoredModulus.of(q)
    q_prime = q
    for d in sorted(divisors(qfac), key=lambda m: m.value):
        if _contains_subgroup(s, d.value):
            q_prime = d.value
            break
    out = {
        "q": q,
        "folds": folds,
        "q_prime": q_prime,
        "hypothesis_ok": hypothesis_ok,
        "verified": None,
        "cover_size": len(s),
    }
    if gamma is not None:
        out["verified"] = q_prime < q ** (12 * gamma / 5)
    return out


# ---------------------------------------------------------------------------
# two-dimensional sets over Z/q1 x Z/q2


@dataclass(frozen=True)
class ResidueSetPair:
    """A subset of Z/q1Z x Z/q2Z as a dense boolean grid."""

    q1: int
    q2: int
    grid: np.ndarray  # shape (q1, q2), bool

    @staticmethod
    def of(q1: int, q2: int, members: Iterable[tuple[int, int]]) -> "ResidueSetPair":
        grid = np.zeros((q1, q2), dtype=bool)
        for x, y in members:
            grid[x % q1, y % q2] = True
        return ResidueSetPair(q1, q2, grid)

    @staticmethod
    def full(q1: int, q2: int) -> "ResidueSetPair":
        return ResidueSetPair(q1, q2, np.ones((q1, q2), dtype=bool))

    def __len__(self) -> int:
        return int(self.grid.sum())

    def __contains__(self, xy: tuple[int, int]) -> bool:
        return bool(self.grid[xy[0] % self.q1, xy[1] % self.q2])

    def members(self) -> list[tuple[int, int]]:
        xs, ys = np.nonzero(self.grid)
        return [(int(x), int(y)) for x, y in zip(xs, ys)]


def _check_same_pair(a: ResidueSetPair, b: ResidueSetPair):
    if (a.q1, a.q2) != (b.q1, b.q2):
        raise ValueError("modulus mismatch")


def sumset_pair(a: ResidueSetPair, b: ResidueSetPair) -> ResidueSetPair:
    _check_same_pair(a, b)
    if len(a) < len(b):
        a, b = b, a
    out = np.zeros_like(a.grid)
    for x, y in b.members():
        out |= np.roll(np.roll(a.grid, x, axis=0), y, axis=1)
    return ResidueSetPair(a.q1, a.q2, out)


def negate_pair(a: ResidueSetPair) -> ResidueSetPair:
    return ResidueSetPair.of(a.q1, a.q2, (((-x) % a.q1, (-y) % a.q2) for x, y in a.members()))


def productset_pair(a: ResidueSetPair, b: ResidueSetPair) -> ResidueSetPair:
    _check_same_pair(a, b)
    am = np.array(a.members(), dtype=np.int64)
    out = np.zeros_like(a.grid)
    for x, y in b.members():
        out[(am[:, 0] * x) % a.q1, (am[:, 1] * y) % a.q2] = True
    return ResidueSetPair(a.q1, a.q2, out)


def fold_sum_pair(x: ResidueSetPair, k: int) -> ResidueSetPair:
    return power_by_doubling(x, k, sumset_pair)


def subgroup_cover_2d(
    a: ResidueSetPair,
    b: ResidueSetPair,
    folds: int = 96,
    delta: Optional[float] = None,
) -> dict:
    """Minimal divisor pair (q1', q2') with the box q1'Z/q1Z x q2'Z/q2Z inside
    the folds-fold sum of AB - AB; records both exponent bounds."""
    _check_same_pair(a, b)
    q1, q2 = a.q1, a.q2
    if delta is not None and delta >= 0.125:
        warnings.warn(f"delta = {delta} is outside the lemma range (0, 1/8)", stacklevel=2)
    hypothesis_ok = None
    if delta is not None:
        need = (q1 * q2) ** (1 - delta)
        hypothesis_ok = len(a) > need and len(b) > need
        if not hypothesis_ok:
            warnings.warn(
                f"|A|={len(a)}, |B|={len(b)} below the hypothesis (q1 q2)^(1-delta)={need:.1f}",
                stacklevel=2,
            )
    d = productset_pair(a, b)
    s = fold_sum_pair(sumset_pair(d, negate_pair(d)), folds)
    pairs = [
        (d1.value, d2.value)
        for d1 in divisors(FactoredModulus.of(q1))
        for d2 in divisors(FactoredModulus.of(q2))
    ]
    pairs.sort(key=lambda p: (p[0] * p[1], p[0]))
    best = (q1, q2)
    for d1, d2 in pairs:
        if np.all(s.grid[np.ix_(np.arange(0, q1, d1), np.arange(0, q2, d2))]):
            best = (d1, d2)
            break
    out = {
        "q1": q1,
        "q2": q2,
        "folds": folds,
        "q1_prime": best[0],
        "q2_prime": best[1],
        "hypothesis_ok": hypothesis_ok,
        "verified_statement_bound": None,
        "verified_proof_bound": None,
        "cover_size": len(s),
    }
    if delta is not None:
        prod = best[0] * best[1]
        out["verified_statement_bound"] = prod < (q1 * q2) ** (10 * delta)
        out["verified_proof_bound"] = prod < (q1 * q2) ** (24 * delta / 5)
    return out
