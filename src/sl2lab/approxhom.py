"""Approximate-homomorphism structure theory, constructive at desk scale.

A map psi: G1 -> G2 with few multiplicative defects is either certified
DEFECT (with a witnessing pair) or repaired into a genuine homomorphism f
agreeing with psi off a small exceptional set.  The constructive chain is
degree pruning on the agreement graph to a set A', the subgroup
H = <A'A'^{-1}> of G1 x G2, and fiber extraction; every claim the result
carries is verified exhaustively before it is returned.  H is closed from
the |A'| elements (x, psi x)(a0, psi a0)^{-1}, x in A', for one a0 in A',
not from the |A'|^2 products of A'A'^{-1}: they generate the same subgroup,
since x y^{-1} = (x a0^{-1})(y a0^{-1})^{-1}.  One boolean agreement table
(``agreement_table``) serves both maps: ``dichotomy`` builds it once for psi,
reading the agreement fraction, the pruning degrees and the DEFECT witness
from it, and once for f, as the exhaustive homomorphism check.  The closure
runs through ``packed.closure`` over sorted pair codes i*|G2| + j, so the
fiber over each i of G1 is a run of adjacent codes.  A table built by
``FiniteGroupTable.from_codes`` keeps the sorted packed codes of its
elements as ``codes``: index i of the table is the element codes[i].
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from . import packed
from .packed import BLOCK, PairContext, index_sorted, sl2_codes, unique_codes

EXACT_AGREEMENT_LIMIT = 4096
ASSOCIATIVITY_CHECKS = 64  # seeded random triples from_mul_table tests


class StructuredConstructionError(RuntimeError):
    """The structured branch applied but the constructive chain broke; the
    message names the violated inequality."""


@dataclass
class FiniteGroupTable:
    """A finite group as an index multiplication table."""

    mul: np.ndarray  # (n, n) int32/int64, mul[i, j] = index of x_i * x_j
    inv: np.ndarray
    identity: int
    codes: Optional[np.ndarray] = None  # sorted packed codes x_i, from from_codes

    @property
    def order(self) -> int:
        return int(self.mul.shape[0])

    @staticmethod
    def from_mul_table(mul: np.ndarray, codes=None):
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
        return FiniteGroupTable(mul.astype(np.int64), inv, ident, codes)

    @staticmethod
    def cyclic(n: int) -> "FiniteGroupTable":
        idx = np.arange(n)
        mul = (idx[:, None] + idx[None, :]) % n
        return FiniteGroupTable.from_mul_table(mul)

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
        return FiniteGroupTable.from_mul_table(mul, codes)

    @staticmethod
    def from_sl2(q: int) -> "FiniteGroupTable":
        return FiniteGroupTable.from_codes(PairContext(q, 1), sl2_codes(q))


# ---------------------------------------------------------------------------
# the dichotomy: agreement table, closure in G1 x G2, constructive chain


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
    # degree pruning: keep x whose row in the agreement graph misses fewer
    # than sqrt(eps) n pairs.  m < sqrt(eps) n is tested as m^2 < eps n^2 in
    # integers: in floats, 1 - sqrt(eps) rounds to 1 for eps below 1e-32
    slack = math.isqrt(math.ceil(eps_work * n * n) - 1)
    degrees = good.sum(axis=1)
    a_prime = np.nonzero(degrees >= n - slack)[0]
    if n - a_prime.size > slack:
        threshold = (1 - _sqrt_fraction(eps_work)) * n
        return None, f"|A'| = {a_prime.size} <= (1 - sqrt(eps)) |G1| = {threshold:.3f}"
    # H = <A'A'^-1> inside G1 x G2, closed from (x, psi x)(a0, psi a0)^-1
    m2 = g2.order
    a0 = a_prime[0]
    gen_codes = g1.mul[a_prime, g1.inv[a0]] * m2 + g2.mul[psi[a_prime], g2.inv[psi[a0]]]
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
