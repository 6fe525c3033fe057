"""Product-set growth, congruence-subgroup covers and bounded generation.

Group sets are deduplicated packed-code arrays over a fixed pair modulus.
``bounded_generation_search`` tries exact-divisor pairs strongest first and
builds the powers A^k incrementally, sharing them across pair attempts and
stopping once a power stabilizes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .factored import FactoredModulus, divides, exact_divisors
from .packed import (
    PairContext,
    congruence_subgroup_codes,
    full_pair_codes,
    isin_sorted,
    mul_codes,
    unique_codes,
)
from .sl2 import IntPair, PairElement, group_order

SET_CAP = 10_000_000
PRODUCT_WORK_CAP = 200_000_000  # multiplications one product_set may spend


@dataclass(frozen=True)
class GroupSet:
    """A finite subset of SL2(Z/q1) x SL2(Z/q2) in canonical packed form."""

    q1: FactoredModulus
    q2: FactoredModulus
    codes: np.ndarray  # sorted, deduplicated int64

    def __post_init__(self):
        if self.codes.size and np.any(np.diff(self.codes) <= 0):
            raise ValueError("codes must be sorted and deduplicated")

    @property
    def ctx(self) -> PairContext:
        return PairContext(self.q1.value, self.q2.value)

    def __len__(self) -> int:
        return int(self.codes.size)

    def union(self, other: "GroupSet") -> "GroupSet":
        return GroupSet(self.q1, self.q2, unique_codes(np.concatenate([self.codes, other.codes])))

    @staticmethod
    def from_elements(
        q1: FactoredModulus, q2: FactoredModulus, elements: Sequence[PairElement]
    ) -> "GroupSet":
        ctx = PairContext(q1.value, q2.value)
        codes = unique_codes(
            np.array([ctx.encode_element(x) for x in elements], dtype=np.int64)
        )
        return GroupSet(q1, q2, codes)

    @staticmethod
    def from_intpairs(
        q1: FactoredModulus, q2: FactoredModulus, gens: Sequence[IntPair]
    ) -> "GroupSet":
        codes = PairContext(q1.value, q2.value).encode_intpairs(gens)
        return GroupSet(q1, q2, unique_codes(codes))

    @staticmethod
    def full_group(q1: FactoredModulus, q2: FactoredModulus) -> "GroupSet":
        return GroupSet(q1, q2, full_pair_codes(q1.value, q2.value))

    def reduce_to(self, q1: FactoredModulus, q2: FactoredModulus) -> "GroupSet":
        if not (divides(q1, self.q1) and divides(q2, self.q2)):
            raise ValueError("target moduli must divide the current moduli")
        tgt = PairContext(q1.value, q2.value)
        return GroupSet(q1, q2, unique_codes(self.ctx.reduce_codes(self.codes, tgt)))


def product_set(a: GroupSet, b: GroupSet, cap: int = SET_CAP) -> GroupSet:
    """{x*y : x in a, y in b}, deduplicated.

    |a| + |b| > |G| gives the whole group at once, by pigeonhole.  Otherwise
    ``mul_codes`` forms the products, and stops as soon as they fill the
    group; ``PRODUCT_WORK_CAP`` bounds the |a| |b| products it may form.
    """
    if (a.q1, a.q2) != (b.q1, b.q2):
        raise ValueError("modulus mismatch")
    order = a.ctx.order
    if len(a) + len(b) > order:
        # pigeonhole: A meets g B^{-1} for every g, so the product is everything
        if order > cap:
            raise ValueError(f"product set size {order} exceeds cap {cap}")
        return GroupSet.full_group(a.q1, a.q2)
    if len(a) * len(b) > PRODUCT_WORK_CAP:
        raise ValueError(
            f"product needs {len(a) * len(b)} multiplications > {PRODUCT_WORK_CAP}"
        )
    codes = mul_codes(a.ctx, a.codes, b.codes)
    if codes.size > cap:
        raise ValueError(f"product set size {codes.size} exceeds cap {cap}")
    return GroupSet(a.q1, a.q2, codes)


@dataclass
class GrowthReport:
    size: int
    size_triple: int
    exponent: float  # log|AAA| / log|A|; NaN when |A| = 1
    delta: Optional[float] = None
    grows: Optional[bool] = None
    trajectory: list[int] = field(default_factory=list)


def tripling(a: GroupSet, delta: Optional[float] = None, cap: int = SET_CAP) -> GrowthReport:
    """Exact |A*A*A| and the tripling exponent, with an optional growth flag."""
    aa = product_set(a, a, cap)
    aaa = product_set(aa, a, cap)
    n, n3 = len(a), len(aaa)
    exponent = math.nan if n <= 1 else math.log(n3) / math.log(n)
    grows = None
    if delta is not None and n > 1:
        grows = n3 > n ** (1 + delta)
    return GrowthReport(n, n3, exponent, delta, grows, trajectory=[n, len(aa), n3])


def covers_congruence(
    x: GroupSet, q1p: FactoredModulus, q2p: FactoredModulus, cap: int = SET_CAP
) -> bool:
    """True iff x contains the full congruence subgroup pair at (q1p, q2p)."""
    if not (divides(q1p, x.q1) and divides(q2p, x.q2)):
        raise ValueError("q1p, q2p must divide the ambient moduli")
    order1 = _kernel_order(x.q1, q1p)
    order2 = _kernel_order(x.q2, q2p)
    if order1 * order2 > cap:
        raise ValueError(f"congruence subgroup size {order1 * order2} exceeds cap {cap}")
    sub = congruence_subgroup_codes(x.q1.value, x.q2.value, q1p.value, q2p.value)
    return bool(np.all(isin_sorted(sub, x.codes)))


def _kernel_order(q: FactoredModulus, d: FactoredModulus) -> int:
    return group_order(q) // group_order(d)


@dataclass
class BoundedGenerationResult:
    found: bool
    k: Optional[int] = None
    q1p: Optional[FactoredModulus] = None
    q2p: Optional[FactoredModulus] = None
    sizes: list[int] = field(default_factory=list)


def _divisor_pairs(q1: FactoredModulus, q2: FactoredModulus):
    # the fully trivial pair (q1, q2) asserts only {1} <= A^k; exclude it
    pairs = [
        (d1, d2)
        for d1 in exact_divisors(q1)
        for d2 in exact_divisors(q2)
        if not (d1 == q1 and d2 == q2)
    ]
    pairs.sort(key=lambda p: (p[0].value * p[1].value, p[0].value))
    return pairs


def bounded_generation_search(
    a: GroupSet,
    k_max: int = 12,
    delta: float = 0.04,
    cap: int = SET_CAP,
) -> BoundedGenerationResult:
    """Smallest k <= k_max and strongest exact-divisor pair with A^k covering
    the congruence subgroup at (q1p, q2p); incremental powering.

    The size hypothesis |A| > (q1 q2)^{3 - delta} is advisory: violations
    warn and the search proceeds.  Pairs whose congruence subgroup exceeds
    ``cap`` are skipped; when one was skipped and no other pair is found,
    the search raises ValueError, since the cap, not A, ended it, and so
    does a ``k_max`` below 1, which tries no power.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be at least 1, got {k_max}")
    qq = a.q1.value * a.q2.value
    if qq > 1 and len(a) <= qq ** (3 - delta):
        warnings.warn(
            f"|A| = {len(a)} is below the size hypothesis (q1 q2)^(3-delta) = {qq ** (3 - delta):.1f}",
            stacklevel=2,
        )
    all_pairs = _divisor_pairs(a.q1, a.q2)
    pairs = [p for p in all_pairs if _kernel_order(a.q1, p[0]) * _kernel_order(a.q2, p[1]) <= cap]
    # strongest pair first (ascending (q1p*q2p, q1p)), smallest power within;
    # powers are materialized incrementally and shared across pair attempts
    powers = [a]
    sizes = [len(a)]
    stabilized = False
    for d1, d2 in pairs:
        for k in range(1, k_max + 1):
            while len(powers) < k and not stabilized:
                nxt = product_set(powers[-1], a, cap)
                if nxt.codes.size == powers[-1].codes.size and np.array_equal(
                    nxt.codes, powers[-1].codes
                ):
                    stabilized = True
                    break
                powers.append(nxt)
                sizes.append(len(nxt))
            power = powers[min(k, len(powers)) - 1]
            if covers_congruence(power, d1, d2, cap):
                return BoundedGenerationResult(True, min(k, len(powers)), d1, d2, sizes)
            if stabilized and k >= len(powers):
                break
    if len(pairs) < len(all_pairs):
        raise ValueError(
            f"cap {cap} skipped {len(all_pairs) - len(pairs)} of {len(all_pairs)} divisor pairs, "
            f"whose congruence subgroups exceed it, and no other is covered within k_max={k_max}"
        )
    return BoundedGenerationResult(False, sizes=sizes)
