"""Approximate-homomorphism structure theory, constructive at desk scale.

A map psi: G1 -> G2 with few multiplicative defects is either certified
DEFECT (with a witnessing pair) or repaired into a genuine homomorphism f
agreeing with psi off a small exceptional set.  The constructive chain is
degree pruning on the agreement graph, subgroup closure of A'A'^{-1} in
G1 x G2, and fiber extraction; every claim the result carries is verified
exhaustively before it is returned.  One boolean agreement table
(``agreement_table``) serves both maps: ``dichotomy`` builds it once for psi,
reading the agreement fraction, the pruning degrees and the DEFECT witness
from it, and once for f, as the exhaustive homomorphism check.  The closure
runs through ``packed.closure`` over sorted pair codes i*|G2| + j, so the
fiber over each i of G1 is a run of adjacent codes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import packed
from .packed import BLOCK, PairContext, index_sorted, sl2_codes, unique_codes

EXACT_AGREEMENT_LIMIT = 4096
ASSOCIATIVITY_CHECKS = 64  # seeded random triples from_mul_table tests
SUBGROUP_COUNT_CAP = 100_000  # subgroups all_subgroups may find
# largest |G| whose subgroups are enumerated exhaustively; a larger value
# could only raise in all_subgroups
EXHAUSTIVE_SUBGROUP_LIMIT = 512


class StructuredConstructionError(RuntimeError):
    """The structured branch applied but the constructive chain broke; the
    message names the violated inequality."""


@dataclass
class FiniteGroupTable:
    """A finite group as an index multiplication table."""

    mul: np.ndarray  # (n, n) int32/int64, mul[i, j] = index of x_i * x_j
    inv: np.ndarray
    identity: int
    labels: Optional[list] = None

    @property
    def order(self) -> int:
        return int(self.mul.shape[0])

    @staticmethod
    def from_mul_table(mul: np.ndarray, labels=None):
        mul = np.asarray(mul)
        n = mul.shape[0]
        if mul.shape != (n, n):
            raise ValueError("multiplication table must be square")
        ident = None
        for i in range(n):
            if np.array_equal(mul[i], np.arange(n)) and np.array_equal(mul[:, i], np.arange(n)):
                ident = i
                break
        if ident is None:
            raise ValueError("no identity element in the table")
        inv = np.full(n, -1, dtype=np.int64)
        for i in range(n):
            js = np.nonzero(mul[i] == ident)[0]
            if js.size != 1 or mul[js[0], i] != ident:
                raise ValueError(f"element {i} has no unique inverse")
            inv[i] = js[0]
        rng = np.random.Generator(np.random.Philox(key=0))
        for _ in range(ASSOCIATIVITY_CHECKS):
            a, b, c = (int(v) for v in rng.integers(0, n, size=3))
            if mul[mul[a, b], c] != mul[a, mul[b, c]]:
                raise ValueError(f"associativity fails on ({a}, {b}, {c})")
        return FiniteGroupTable(mul.astype(np.int64), inv, ident, labels)

    @staticmethod
    def cyclic(n: int) -> "FiniteGroupTable":
        idx = np.arange(n)
        mul = (idx[:, None] + idx[None, :]) % n
        return FiniteGroupTable.from_mul_table(mul, labels=list(range(n)))

    @staticmethod
    def from_codes(ctx, codes: np.ndarray) -> "FiniteGroupTable":
        """Group table from packed codes (must be closed under the group law)."""
        # rows of at most BLOCK products: one broadcast for |G| <= 512, and
        # the temporaries stay near the table's own size for larger groups
        rows = max(1, BLOCK // codes.size)
        mul = np.concatenate([
            index_sorted(ctx.mul(codes[i : i + rows, None], codes[None, :]), codes)
            for i in range(0, codes.size, rows)
        ])
        return FiniteGroupTable.from_mul_table(mul, labels=[int(c) for c in codes])

    @staticmethod
    def from_sl2(q: int) -> "FiniteGroupTable":
        return FiniteGroupTable.from_codes(PairContext(q, 1), sl2_codes(q))

    def direct_product(self, other: "FiniteGroupTable") -> "FiniteGroupTable":
        n, m = self.order, other.order
        i1 = np.arange(n * m) // m
        i2 = np.arange(n * m) % m
        mul = self.mul[np.ix_(i1, i1)] * m + other.mul[np.ix_(i2, i2)]
        return FiniteGroupTable.from_mul_table(mul)

    def products(self, a, b) -> np.ndarray:
        """Sorted distinct indices of the product set {x * y : x in a, y in b}."""
        return unique_codes(self.mul[np.ix_(a, b)])


# ---------------------------------------------------------------------------


def agreement_table(psi: np.ndarray, g1: FiniteGroupTable, g2: FiniteGroupTable) -> np.ndarray:
    """Boolean (n, n) table of psi(x_i x_j) == psi(x_i) psi(x_j), exact for
    |G1| <= EXACT_AGREEMENT_LIMIT."""
    psi = np.asarray(psi, dtype=np.int64)
    n = g1.order
    if psi.shape != (n,):
        raise ValueError("psi must assign an image to every element of G1")
    if n > EXACT_AGREEMENT_LIMIT:
        raise ValueError(f"|G1| = {n} exceeds the exact agreement limit {EXACT_AGREEMENT_LIMIT}")
    return psi[g1.mul] == g2.mul[psi][:, psi]


def agreement(psi: np.ndarray, g1: FiniteGroupTable, g2: FiniteGroupTable) -> Fraction:
    """Exact fraction of pairs (x, y) with psi(xy) = psi(x) psi(y)."""
    return Fraction(int(agreement_table(psi, g1, g2).sum()), g1.order**2)


def closure_in_product(
    gen_codes: np.ndarray, g1: FiniteGroupTable, g2: FiniteGroupTable, cap: int
) -> Optional[np.ndarray]:
    """Sorted pair codes i*|G2| + j of the subgroup of G1 x G2 generated by
    ``gen_codes``; None if it exceeds cap."""
    m2 = g2.order

    def product(x, g):
        x = x[:, None]
        return unique_codes(g1.mul[x // m2, g // m2] * m2 + g2.mul[x % m2, g % m2])

    return packed.closure(gen_codes, g1.identity * m2 + g2.identity, product, cap)


@dataclass
class DichotomyResult:
    agreement_fraction: Fraction
    branch: str  # "DEFECT" | "STRUCTURED"
    epsilon: Fraction
    epsilon_work: Fraction
    witness: Optional[tuple[int, int]] = None
    s_indices: Optional[np.ndarray] = None
    f: Optional[np.ndarray] = None
    certificate: dict = field(default_factory=dict)


def _attempt_structured(
    psi: np.ndarray,
    good: np.ndarray,
    g1: FiniteGroupTable,
    g2: FiniteGroupTable,
    eps_work: Fraction,
) -> tuple[Optional[tuple[np.ndarray, np.ndarray, dict]], str]:
    """The constructive chain on psi's agreement table ``good``; returns
    ((S, f, certificate), "") or (None, violated claim)."""
    n = g1.order
    # degree pruning: keep x whose row in the agreement graph is nearly full
    threshold = (1 - _sqrt_fraction(eps_work)) * n
    degrees = good.sum(axis=1)
    a_prime = np.nonzero(degrees > threshold)[0]
    if a_prime.size <= threshold:
        return None, f"|A'| = {a_prime.size} <= (1 - sqrt(eps)) |G1| = {float(threshold):.3f}"
    # subgroup closure of A' A'^{-1} inside G1 x G2; the |A'|^2 products are
    # formed in row blocks of A' of about BLOCK products each
    m2 = g2.order
    inv1, inv2 = g1.inv[a_prime], g2.inv[psi[a_prime]]
    rows = max(1, BLOCK // a_prime.size)
    gen_codes = np.array([], dtype=np.int64)
    for i in range(0, a_prime.size, rows):
        block = a_prime[i : i + rows, None]
        codes = g1.mul[block, inv1] * m2 + g2.mul[psi[block], inv2]
        gen_codes = unique_codes(np.concatenate([gen_codes, codes.ravel()]))
    if gen_codes.size > 2 * n:
        return None, f"|A'A'^-1| = {gen_codes.size} > 2|G1| = {2 * n}"
    h = closure_in_product(gen_codes, g1, g2, cap=2 * n)
    if h is None:
        return None, f"|<A'A'^-1>| > 2|G1| = {2 * n} (fiber map cannot be single-valued)"
    i, f = np.divmod(h, m2)
    repeated = np.nonzero(i[1:] == i[:-1])[0]
    if repeated.size:
        return None, f"fiber over element {int(i[repeated[0]])} is not unique"
    if i.size != n:
        return None, f"P1(H) has {i.size} elements < |G1| = {n}"
    # exhaustive homomorphism check on all of G1 x G1
    if not agreement_table(f, g1, g2).all():
        return None, "f(xy) = f(x) f(y) fails on some pair"
    s = a_prime
    if not np.array_equal(f[s], psi[s]):
        return None, "f does not agree with psi on S = P1(A')"
    cert = {
        "A_prime_size": int(a_prime.size),
        "H_size": int(h.size),
        "S_size": int(s.size),
        "f_equals_psi_on_S": True,
        "f_verified_homomorphism": True,
    }
    return (s, f, cert), ""


def _sqrt_fraction(x: Fraction) -> float:
    return float(x) ** 0.5


def dichotomy(
    psi: np.ndarray,
    g1: FiniteGroupTable,
    g2: FiniteGroupTable,
    epsilon: Fraction,
) -> DichotomyResult:
    """Defect/structure dichotomy for psi: G1 -> G2 at threshold epsilon.

    The structured construction is attempted whenever the empirical defect
    fraction leaves it room (below 1/4, the pruning lemma's range), using the
    larger of epsilon and the empirical defect rate as the working parameter;
    agreement below 1 - epsilon with no recoverable structure is DEFECT, with
    the first failing pair in row-major order as witness.  A high-agreement
    map whose construction chain breaks raises StructuredConstructionError
    naming the violated inequality.
    """
    epsilon = Fraction(epsilon)
    if not 0 < epsilon:
        raise ValueError("epsilon must be positive")
    if epsilon >= Fraction(1, 1600):
        warnings.warn(
            f"epsilon = {epsilon} is outside the guaranteed range (0, 1/1600)",
            stacklevel=2,
        )
    psi = np.asarray(psi, dtype=np.int64)
    good = agreement_table(psi, g1, g2)
    n = g1.order
    agree = Fraction(int(good.sum()), n * n)
    defect = 1 - agree
    eps_work = max(epsilon, defect)
    high_agreement = agree >= 1 - epsilon

    found = None
    violated = "empirical defect fraction >= 1/4, no pruning range left"
    if defect < Fraction(1, 4):
        found, violated = _attempt_structured(psi, good, g1, g2, eps_work)
    if found is not None:
        s, f, cert = found
        if high_agreement:
            cert["within_stated_threshold"] = True
        _assert_coprime_remark(cert, psi, eps_work, g1, g2)
        return DichotomyResult(agree, "STRUCTURED", epsilon, eps_work, s_indices=s, f=f,
                               certificate=cert)
    if not high_agreement:
        x, y = divmod(int(np.argmin(good)), n)
        return DichotomyResult(agree, "DEFECT", epsilon, eps_work, witness=(x, y))
    raise StructuredConstructionError(
        f"agreement {agree} >= 1 - epsilon but the construction failed: {violated}"
    )


def _assert_coprime_remark(cert: dict, psi, eps_work: Fraction, g1, g2):
    """gcd(|G1|, |G2|) = 1 forces f trivial, so psi is 1 off a sqrt(eps) set."""
    if math.gcd(g1.order, g2.order) != 1:
        return
    nontrivial = int((psi != g2.identity).sum())
    bound = _sqrt_fraction(eps_work) * g1.order
    cert["coprime_remark_nontrivial_count"] = nontrivial
    if not nontrivial < bound:
        raise StructuredConstructionError(
            f"coprime-order remark violated: |psi != 1| = {nontrivial} >= sqrt(eps)|G1| = {bound:.2f}"
        )


# ---------------------------------------------------------------------------
# small doubling: subgroup detection with a coset cover


@dataclass
class SmallDoublingResult:
    found: bool
    subgroup: Optional[set[int]] = None
    coset_reps: Optional[list[int]] = None
    reason: str = ""


def closure(elements: Sequence[int], g: FiniteGroupTable, cap: int) -> Optional[set[int]]:
    """Subgroup generated by ``elements``; None if it exceeds cap."""
    gens = np.array(elements, dtype=np.int64)
    h = packed.closure(gens, g.identity, lambda x, a: unique_codes(g.mul[x[:, None], a]), cap)
    return None if h is None else set(h.tolist())


def _coset_cover(s: Sequence[int], h: set[int], g: FiniteGroupTable) -> list[int]:
    """Right-coset representatives Hx covering s, canonical choice per coset."""
    reps = []
    seen = set()
    h_sorted = sorted(h)
    for x in s:
        canonical = int(g.products(h_sorted, [x])[0])
        if canonical not in seen:
            seen.add(canonical)
            reps.append(canonical)
    return reps


def all_subgroups(g: FiniteGroupTable) -> list[frozenset[int]]:
    """All subgroups by cyclic extension; exhaustive oracle for
    |G| <= EXHAUSTIVE_SUBGROUP_LIMIT."""
    if g.order > EXHAUSTIVE_SUBGROUP_LIMIT:
        raise ValueError(
            f"exhaustive subgroup enumeration is limited to |G| <= {EXHAUSTIVE_SUBGROUP_LIMIT}"
        )
    found = {frozenset([g.identity])}
    frontier = [frozenset([g.identity])]
    while frontier:
        nxt = []
        for h in frontier:
            for x in range(g.order):
                if x in h:
                    continue
                bigger = closure(list(h) + [x], g, cap=g.order)
                fs = frozenset(bigger)
                if fs not in found:
                    found.add(fs)
                    nxt.append(fs)
                    if len(found) > SUBGROUP_COUNT_CAP:
                        raise ValueError("subgroup count exceeds cap")
        frontier = nxt
    return sorted(found, key=lambda h: (len(h), sorted(h)))


def small_doubling_subgroup(
    s: Sequence[int],
    a: Sequence[int],
    g: FiniteGroupTable,
    epsilon: float,
) -> SmallDoublingResult:
    """A subgroup H with |H| <= (2/eps - 1)|S| covering S by at most
    2/eps - 1 right cosets, under the small-doubling hypothesis |A S| <= (2 - eps)|S|.

    Fast path: H = <S S^{-1}>.  If its size bound fails, exhaustive subgroup
    enumeration (|G| <= EXHAUSTIVE_SUBGROUP_LIMIT) searches for a qualifying H.
    """
    if not 0 < epsilon <= 1:
        raise ValueError("epsilon must lie in (0, 1]")
    s = [int(v) for v in s]
    a = [int(v) for v in a]
    if not s:
        raise ValueError("S must be nonempty")
    prod = g.products(a, s)
    if prod.size > (2 - epsilon) * len(s):
        warnings.warn(
            f"|A S| = {prod.size} > (2 - eps)|S| = {(2 - epsilon) * len(s):.1f}",
            stacklevel=2,
        )
    if len(a) < len(s):
        warnings.warn(f"|A| = {len(a)} < |S| = {len(s)}", stacklevel=2)
    bound = (2.0 / epsilon) - 1.0
    h = closure(g.products(s, g.inv[s]), g, cap=g.order)
    if h is not None and len(h) <= bound * len(s):
        reps = _coset_cover(s, h, g)
        if len(reps) <= bound:
            return SmallDoublingResult(True, set(h), reps)
    if g.order <= EXHAUSTIVE_SUBGROUP_LIMIT:
        for cand in all_subgroups(g):
            if len(cand) > bound * len(s):
                continue
            reps = _coset_cover(s, set(cand), g)
            if len(reps) <= bound and _cover_verified(s, set(cand), reps, g):
                return SmallDoublingResult(True, set(cand), reps)
        return SmallDoublingResult(False, reason="no qualifying subgroup exists")
    return SmallDoublingResult(
        False, reason=f"fast path failed and |G| = {g.order} > {EXHAUSTIVE_SUBGROUP_LIMIT}"
    )


def _cover_verified(s, h: set[int], reps: list[int], g: FiniteGroupTable) -> bool:
    return set(s) <= set(g.products(sorted(h), reps).tolist())


# ---------------------------------------------------------------------------
# graph-restricted extraction (the pruning lemma, constructive form)


@dataclass
class ExtractionResult:
    a_prime: list
    size_ok: bool
    doubling_ok: bool
    doubling: int
    doubling_bound: float


def restricted_product_extract(
    a: Sequence[int],
    graph: set[tuple[int, int]],
    g: FiniteGroupTable,
    epsilon: float,
) -> ExtractionResult:
    """Degree pruning: A' = {x in A: deg_graph(x) > (1 - sqrt(eps))|A|}.

    Requires |graph| > (1 - eps)|A|^2; the returned record carries the
    cardinality guarantee and the restricted-doubling bound check
    |A'A'| < |A ._graph A|^4 / ((1-sqrt(eps))(1-2 sqrt(eps))^2 |A|^3).
    """
    if not 0 < epsilon < 0.25:
        raise ValueError("epsilon must lie in (0, 1/4)")
    a = [int(v) for v in a]
    n = len(a)
    if len(graph) <= (1 - epsilon) * n * n:
        raise ValueError(
            f"|graph| = {len(graph)} <= (1 - eps)|A|^2 = {(1 - epsilon) * n * n:.1f}"
        )
    deg = {x: 0 for x in a}
    for x, y in graph:
        deg[x] += 1
    root = epsilon**0.5
    a_prime = [x for x in a if deg[x] > (1 - root) * n]
    products = g.products(a_prime, a_prime)
    restricted = {int(g.mul[x, y]) for x, y in graph}
    bound = len(restricted) ** 4 / ((1 - root) * (1 - 2 * root) ** 2 * n**3)
    return ExtractionResult(
        a_prime=a_prime,
        size_ok=len(a_prime) > (1 - root) * n,
        doubling_ok=products.size < bound,
        doubling=int(products.size),
        doubling_bound=bound,
    )
