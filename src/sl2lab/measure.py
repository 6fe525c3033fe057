"""Finitely supported probability measures on group elements.

Weights are exact ``Fraction`` values or doubles; the mode is part of the
measure and operations never mix modes.  The convolution convention is
(f*g)(x) = sum_y f(y) g(x y^{-1}), so delta_a * delta_b = delta_{ba}.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Hashable, Iterable

from .addcomb import power_by_doubling
from .factored import FactoredModulus
from .sl2 import PairElement, ipair_mul, pair_mul, reduce_pair


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
    exact: bool = True

    def __post_init__(self):
        self.weights = {k: w for k, w in self.weights.items() if w != 0}

    @property
    def support_size(self) -> int:
        return len(self.weights)

    def total_mass(self):
        zero = Fraction(0) if self.exact else 0.0
        return sum(self.weights.values(), zero)

    def __call__(self, x) -> Fraction | float:
        return self.weights.get(x, Fraction(0) if self.exact else 0.0)


def uniform_on(elements: Iterable, law: GroupLaw, exact: bool = True) -> SparseMeasure:
    """Normalized counting measure; duplicate elements merge with summed weight."""
    elements = list(elements)
    if not elements:
        raise ValueError("cannot build a uniform measure on the empty set")
    w = Fraction(1, len(elements)) if exact else 1.0 / len(elements)
    weights: dict = {}
    for x in elements:
        weights[x] = weights.get(x, Fraction(0) if exact else 0.0) + w
    return SparseMeasure(law, weights, exact)


def delta(x, law: GroupLaw, exact: bool = True) -> SparseMeasure:
    return SparseMeasure(law, {x: Fraction(1) if exact else 1.0}, exact)


def _check_compatible(f: SparseMeasure, g: SparseMeasure):
    if f.law.tag != g.law.tag:
        raise ValueError(f"group mismatch: {f.law.tag} vs {g.law.tag}")
    if f.exact != g.exact:
        raise ValueError("cannot mix exact and floating measures")


def convolve(f: SparseMeasure, g: SparseMeasure, support_cap: int | None = None) -> SparseMeasure:
    """(f*g)(x) = sum_y f(y) g(x y^{-1}); computed as sum f(y) g(z) delta_{zy}."""
    _check_compatible(f, g)
    mul = f.law.mul
    zero = Fraction(0) if f.exact else 0.0
    out: dict = {}
    for y, wy in f.weights.items():
        for z, wz in g.weights.items():
            key = mul(z, y)
            out[key] = out.get(key, zero) + wy * wz
    if support_cap is not None and len(out) > support_cap:
        raise ValueError(f"convolution support {len(out)} exceeds cap {support_cap}")
    return SparseMeasure(f.law, out, f.exact)


def convolve_power(f: SparseMeasure, l: int, support_cap: int | None = None) -> SparseMeasure:
    """The l-fold self-convolution f^(l), by repeated squaring."""
    return power_by_doubling(f, l, lambda a, b: convolve(a, b, support_cap))


def pushforward(f: SparseMeasure, mapper: Callable, law: GroupLaw) -> SparseMeasure:
    """Weights summed over the fibers of ``mapper``."""
    zero = Fraction(0) if f.exact else 0.0
    out: dict = {}
    for x, w in f.weights.items():
        key = mapper(x)
        out[key] = out.get(key, zero) + w
    return SparseMeasure(law, out, f.exact)


def pushforward_pair(
    f: SparseMeasure, q1: FactoredModulus, q2: FactoredModulus
) -> SparseMeasure:
    """Reduce a measure on integral pairs or on a pair group mod (q1, q2)."""
    return pushforward(f, lambda x: reduce_pair(x, q1, q2), pair_law(q1, q2))


def mass_on(f: SparseMeasure, predicate: Callable[[Hashable], bool]):
    zero = Fraction(0) if f.exact else 0.0
    return sum((w for x, w in f.weights.items() if predicate(x)), zero)


def l2_distance_to_uniform(f: SparseMeasure, group_size: int) -> float:
    """||f - u||_2 over a group of the given size (zero weights included)."""
    u = 1.0 / group_size
    acc = 0.0
    for w in f.weights.values():
        acc += (float(w) - u) ** 2
    acc += (group_size - len(f.weights)) * u * u
    return acc**0.5


def to_floating(f: SparseMeasure) -> SparseMeasure:
    if not f.exact:
        return f
    return SparseMeasure(f.law, {k: float(w) for k, w in f.weights.items()}, exact=False)


# ---------------------------------------------------------------------------
# JSON serialization (pair measures): canonical element string -> weight string


def _pair_key(x: PairElement) -> str:
    l, r = x.left, x.right
    return f"{l.a},{l.b},{l.c},{l.d}|{r.a},{r.b},{r.c},{r.d}"


def pair_measure_to_json(f: SparseMeasure) -> str:
    if f.law.tag[0] != "pair":
        raise ValueError("only pair-group measures serialize")
    items = sorted((_pair_key(x), str(w)) for x, w in f.weights.items())
    return json.dumps(
        {
            "moduli": [str(f.law.tag[1]), str(f.law.tag[2])],
            "exact": f.exact,
            "weights": dict(items),
        },
        indent=0,
        sort_keys=True,
    )


def pair_measure_from_json(text: str) -> SparseMeasure:
    from .sl2 import SL2Residue

    data = json.loads(text)
    q1 = FactoredModulus.of(int(data["moduli"][0]))
    q2 = FactoredModulus.of(int(data["moduli"][1]))
    exact = bool(data["exact"])
    weights = {}
    for key, wstr in data["weights"].items():
        lpart, rpart = key.split("|")
        la, lb, lc, ld = (int(v) for v in lpart.split(","))
        ra, rb, rc, rd = (int(v) for v in rpart.split(","))
        x = PairElement(SL2Residue(q1, la, lb, lc, ld), SL2Residue(q2, ra, rb, rc, rd))
        weights[x] = Fraction(wstr) if exact else float(wstr)
    return SparseMeasure(pair_law(q1, q2), weights, exact)
