"""Finitely supported probability measures on group elements.

Weights are exact ``Fraction`` values.  The convolution convention is
(f*g)(x) = sum_y f(y) g(x y^{-1}), so delta_a * delta_b = delta_{ba}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Hashable, Iterable

from .addcomb import power_by_doubling
from .factored import FactoredModulus
from .sl2 import ipair_mul, pair_mul, reduce_pair


@dataclass(frozen=True)
class GroupLaw:
    """Multiplication on hashable element keys, tagged for mismatch detection."""

    tag: tuple
    mul: Callable[[Hashable, Hashable], Hashable]


INTEGRAL_PAIR_LAW = GroupLaw(("integral-pair",), ipair_mul)


def pair_law(q1: FactoredModulus, q2: FactoredModulus) -> GroupLaw:
    return GroupLaw(("pair", q1.value, q2.value), pair_mul)


@dataclass
class SparseMeasure:
    law: GroupLaw
    weights: dict

    def __post_init__(self):
        self.weights = {k: w for k, w in self.weights.items() if w != 0}

    @property
    def support_size(self) -> int:
        return len(self.weights)

    def __call__(self, x) -> Fraction:
        return self.weights.get(x, Fraction(0))


def uniform_on(elements: Iterable, law: GroupLaw) -> SparseMeasure:
    """Normalized counting measure; duplicate elements merge with summed weight."""
    elements = list(elements)
    if not elements:
        raise ValueError("cannot build a uniform measure on the empty set")
    w = Fraction(1, len(elements))
    weights: dict = {}
    for x in elements:
        weights[x] = weights.get(x, Fraction(0)) + w
    return SparseMeasure(law, weights)


def delta(x, law: GroupLaw) -> SparseMeasure:
    return SparseMeasure(law, {x: Fraction(1)})


def convolve(f: SparseMeasure, g: SparseMeasure) -> SparseMeasure:
    """(f*g)(x) = sum_y f(y) g(x y^{-1}); computed as sum f(y) g(z) delta_{zy}."""
    if f.law.tag != g.law.tag:
        raise ValueError(f"group mismatch: {f.law.tag} vs {g.law.tag}")
    mul = f.law.mul
    out: dict = {}
    for y, wy in f.weights.items():
        for z, wz in g.weights.items():
            key = mul(z, y)
            out[key] = out.get(key, Fraction(0)) + wy * wz
    return SparseMeasure(f.law, out)


def convolve_power(f: SparseMeasure, l: int) -> SparseMeasure:
    """The l-fold self-convolution f^(l), by repeated squaring."""
    return power_by_doubling(f, l, convolve)


def pushforward(f: SparseMeasure, mapper: Callable, law: GroupLaw) -> SparseMeasure:
    """Weights summed over the fibers of ``mapper``."""
    out: dict = {}
    for x, w in f.weights.items():
        key = mapper(x)
        out[key] = out.get(key, Fraction(0)) + w
    return SparseMeasure(law, out)


def pushforward_pair(
    f: SparseMeasure, q1: FactoredModulus, q2: FactoredModulus
) -> SparseMeasure:
    """Reduce a measure on integral pairs or on a pair group mod (q1, q2)."""
    return pushforward(f, lambda x: reduce_pair(x, q1, q2), pair_law(q1, q2))


def mass_on(f: SparseMeasure, predicate: Callable[[Hashable], bool]) -> Fraction:
    return sum((w for x, w in f.weights.items() if predicate(x)), Fraction(0))
