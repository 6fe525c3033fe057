"""Congruence-subgroup machinery around the commutator identity.

Exact verification of the depth-additive commutator congruence, spanning of
the Lie algebra by brackets against two independent directions, congruence
box amplification with exhaustive product-set checks at small moduli, and
connecting-map sections used by the gluing pipeline.

A section is one array: ``ConnectingMap.lifts[i]`` is the lift of
``domain_codes[i]``, so the gluing pipeline reads lifts by index.
``congruence_depths`` counts depths with ``packed.one_mod``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .factored import FactoredModulus, divides
from .growth import GroupSet, bounded_generation_search, product_set
from .packed import (
    PairContext,
    _mat_mul,
    congruence_subgroup_codes,
    index_sorted,
    isin_sorted,
    mul_codes,
    one_mod,
    unique_codes,
)
from .sl2 import LieVector, bracket, lie_is_primitive

# ---------------------------------------------------------------------------
# the commutator congruence identity


def commutator_sweep(p: int, depth: int = 4) -> dict:
    """Exhaustive check of the commutator congruence over all pairs x, y = 1
    (mod p) in SL2(Z/p^depth); vectorized over y for each x.

    Checks at t = min(m + m' + min(m, m'), depth) where m, m' are the actual
    congruence depths of each element.  Returns counts and violations.

    [x, y] is formed as xy (yx)^-1 with (yx)^-1 = adj(yx), since det(yx) = 1:
    two ``_mat_mul`` calls per x, then the product xy adj(yx) written out
    inline and left unreduced inside the ``% p^t`` test.  Its entries stay
    below P^2 in size, inside the 2 P^2 of ``_mat_mul``'s own products.  It
    is the one 2x2 product outside ``_mat_mul``: reducing it mod P first, as
    ``_mat_mul`` does, costs the whole gain over the four products of
    x y x^-1 y^-1.
    """
    if p < 2:
        raise ValueError(f"p must be >= 2, got {p}")
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    P = p**depth
    # elements 1 + p*M with det 1, each Lie coordinate ranging over Z/p^(depth-1)
    a, b, c, d = _unit_lift_digits(p, 1, p ** (depth - 1), P)
    count = a.size

    depths = congruence_depths((a, b, c, d), p, depth)
    pt_table = np.array([p**min(t, depth) for t in range(4 * depth)], dtype=np.int64)

    # every y at once
    y = (a, b, c, d)
    violations = []
    pairs_checked = 0
    for i in range(count):
        x = tuple(int(v[i]) for v in y)
        m1 = int(depths[i])
        (a1, b1, c1, d1), (a2, b2, c2, d2) = _mat_mul(x, y, P), _mat_mul(y, x, P)
        # xy adj(yx), adj(yx) = [[d2, -b2], [-c2, a2]]
        lhs = (a1 * d2 - b1 * c2, b1 * a2 - a1 * b2, c1 * d2 - d1 * c2, d1 * a2 - c1 * b2)
        rhs = (1 + a1 - a2, b1 - b2, c1 - c2, 1 + d1 - d2)
        t = np.minimum(m1 + depths + np.minimum(m1, depths), depth)
        pt = pt_table[t]
        ok = np.logical_and.reduce([(l - r) % pt == 0 for l, r in zip(lhs, rhs)])
        pairs_checked += count
        bad = np.nonzero(~ok)[0]
        for j in bad[:10]:
            violations.append((x, tuple(int(v[j]) for v in y)))
    return {
        "p": p,
        "depth": depth,
        "elements": int(count),
        "pairs_checked": int(pairs_checked),
        "violations": violations,
    }


def congruence_depths(digits, p: int, n: int) -> np.ndarray:
    """Largest t <= n with x = 1 (mod p^t), for x given by digit arrays (a, b, c, d)."""
    out = np.zeros(np.shape(digits[0]), dtype=np.int64)
    for t in range(1, n + 1):
        out += one_mod(digits, p**t)
    return out


def _batch_inv_mod(a: np.ndarray, q: int) -> np.ndarray:
    """Modular inverse of each entry (all must be units)."""
    out = np.empty_like(a)
    cache: dict[int, int] = {}
    for i, v in enumerate(a.tolist()):
        if v not in cache:
            cache[v] = pow(v, -1, q)
        out[i] = cache[v]
    return out


def _unit_lift_digits(p: int, m: int, r: int, P: int):
    """Digits (a, b, c, d) of the elements 1 + p^m [[alpha, beta], [gamma, *]]
    mod P with det 1, over the ij meshgrid of alpha, beta, gamma in [0, r);
    d is solved from the determinant (a is a unit since m >= 1)."""
    alpha, beta, gamma = np.meshgrid(*[np.arange(r, dtype=np.int64)] * 3, indexing="ij")
    pm = p**m
    a = (1 + pm * alpha.ravel()) % P
    b = (pm * beta.ravel()) % P
    c = (pm * gamma.ravel()) % P
    d = ((1 + b * c) % P) * _batch_inv_mod(a, P) % P
    return a, b, c, d


# ---------------------------------------------------------------------------
# linear solving mod prime powers (pivoting on minimal p-valuation)


def solve_mod_prime_power(
    m: list[list[int]], c: list[int], p: int, k: int
) -> Optional[list[int]]:
    """One solution z of M z = c (mod p^k), or None when inconsistent.

    Gaussian elimination pivoting on the submatrix entry of minimal
    p-valuation, so zero-divisor pivots are handled exactly.
    """
    pk = p**k
    rows = len(m)
    cols = len(m[0]) if rows else 0
    a = [[m[i][j] % pk for j in range(cols)] for i in range(rows)]
    rhs = [c[i] % pk for i in range(rows)]
    col_perm = list(range(cols))
    pivots = []  # (row, col position, valuation)
    r = 0
    for _ in range(min(rows, cols)):
        best = None
        for i in range(r, rows):
            for j in range(r, cols):
                v = a[i][j]
                if v == 0:
                    continue
                val = 0
                while v % p == 0:
                    v //= p
                    val += 1
                if best is None or val < best[2]:
                    best = (i, j, val)
            if best is not None and best[2] == 0:
                break
        if best is None:
            break
        bi, bj, val = best
        a[r], a[bi] = a[bi], a[r]
        rhs[r], rhs[bi] = rhs[bi], rhs[r]
        for row in a:
            row[r], row[bj] = row[bj], row[r]
        col_perm[r], col_perm[bj] = col_perm[bj], col_perm[r]
        unit = a[r][r] // p**val
        inv_unit = pow(unit, -1, pk)
        for i in range(rows):
            if i == r:
                continue
            e = a[i][r]
            if e == 0:
                continue
            factor = (e // p**val) * inv_unit % pk
            for j in range(r, cols):
                a[i][j] = (a[i][j] - factor * a[r][j]) % pk
            rhs[i] = (rhs[i] - factor * rhs[r]) % pk
        pivots.append((r, val, inv_unit))
        r += 1
    # consistency of zero rows
    for i in range(r, rows):
        if rhs[i] % pk != 0:
            return None
    z = [0] * cols
    for row, val, inv_unit in reversed(pivots):
        tail = sum(a[row][j] * z[j] for j in range(row + 1, cols)) % pk
        num = (rhs[row] - tail) % pk
        if num % p**val != 0:
            return None
        z[row] = (num // p**val) * inv_unit % (pk // p**val)
    out = [0] * cols
    for pos, orig in enumerate(col_perm):
        out[orig] = z[pos] if pos < len(z) else 0
    return out


def solve_mod_q(m: list[list[int]], c: list[int], q: FactoredModulus) -> Optional[list[int]]:
    """Solve M z = c (mod q) by prime-power solves glued with the CRT."""
    if q.value == 1:
        return [0] * (len(m[0]) if m else 0)
    partials = []
    for p, e in q.factors:
        z = solve_mod_prime_power(m, c, p, e)
        if z is None:
            return None
        partials.append((p**e, z))
    cols = len(partials[0][1])
    out = []
    for j in range(cols):
        r = 0
        for pe, z in partials:
            rest = q.value // pe
            r = (r + z[j] * rest * pow(rest, -1, pe)) % q.value
        out.append(r)
    return out


# ---------------------------------------------------------------------------
# bracket spanning


def _ad_matrix(v: LieVector) -> list[list[int]]:
    """Columns are [v, h], [v, e], [v, f] in (h, e, f) coordinates."""
    return [
        [0, -v.xf, v.xe],
        [-2 * v.xe, 2 * v.xh, 0],
        [2 * v.xf, 0, -2 * v.xh],
    ]


def bracket_span_cover(v: LieVector, w: LieVector, q: FactoredModulus) -> dict:
    """Certified solutions of [v, x] + [w, y] = 2t for each basis target t.

    Requires v, w primitive and linearly independent mod every prime of q;
    every certificate is substituted back before being returned.
    """
    if v.q != q or w.q != q:
        raise ValueError("vector moduli must match q")
    if not (lie_is_primitive(v) and lie_is_primitive(w)):
        raise ValueError("v and w must be primitive")
    cross = (
        v.xe * w.xf - v.xf * w.xe,
        v.xf * w.xh - v.xh * w.xf,
        v.xh * w.xe - v.xe * w.xh,
    )
    for p, _ in q.factors:
        if all(c % p == 0 for c in cross):
            raise ValueError(f"v and w are linearly dependent mod {p}")
    av, aw = _ad_matrix(v), _ad_matrix(w)
    m = [av[i] + aw[i] for i in range(3)]
    targets = {"h": (2, 0, 0), "e": (0, 2, 0), "f": (0, 0, 2)}
    certificates = {}
    for name, t in targets.items():
        z = solve_mod_q(m, list(t), q)
        if z is None:
            return {"covered": False, "failing_target": name, "certificates": certificates}
        x = LieVector(q, z[0], z[1], z[2])
        y = LieVector(q, z[3], z[4], z[5])
        got = bracket(v, x)
        got2 = bracket(w, y)
        total = tuple((g1 + g2) % q.value for g1, g2 in zip(got.coords, got2.coords))
        if total != tuple(ti % q.value for ti in t):
            raise AssertionError(f"solver certificate fails substitution at target {name}")
        certificates[name] = {"x": x.coords, "y": y.coords}
    return {"covered": True, "certificates": certificates}


# ---------------------------------------------------------------------------
# congruence boxes and amplification


@dataclass(frozen=True)
class CongruenceBox:
    """The set 1 + inner * V (mod outer): inner depth, outer window."""

    inner: FactoredModulus
    outer: FactoredModulus

    def __post_init__(self):
        if not divides(self.inner, self.outer):
            raise ValueError("inner must divide outer")

    def window(self, p: int) -> tuple[int, int]:
        return self.inner.exponent_of(p), self.outer.exponent_of(p)

    def window_valid(self) -> bool:
        """1 <= m1 and m1 <= m2 <= 2 m1 at every prime of the outer modulus."""
        for p, m2 in self.outer.factors:
            m1 = self.inner.exponent_of(p)
            if not (1 <= m1 <= m2 <= 2 * m1):
                return False
        return True


def amplify(h1: CongruenceBox, h2: CongruenceBox) -> CongruenceBox:
    """Window arithmetic of box amplification: the product of two valid boxes
    over the same primes amplifies to (inner1*inner2, outer1*outer2)."""
    if h1.outer.primes != h2.outer.primes:
        raise ValueError("boxes must live over the same primes")
    for box in (h1, h2):
        if not box.window_valid():
            raise ValueError(f"box {box} violates the window condition")
    inner = FactoredModulus.of(h1.inner.value * h2.inner.value)
    outer = FactoredModulus.of(h1.outer.value * h2.outer.value)
    return CongruenceBox(inner, outer)


def box_lift_codes(p: int, m1: int, m2: int, big: int, extra: int = 0) -> np.ndarray:
    """SL2(Z/p^big) lifts of the box 1 + p^{m1} V (mod p^{m2}).

    Lie coordinates range over Z/p^{m2-m1+extra} (capped at depth big) and the
    d-entry is determinant-corrected (a is a unit since m1 >= 1).  ``extra``
    digits of lift depth model hypothesis sets whose elements carry arbitrary
    residues beyond the stated window; one dyadic digit is needed for the
    amplification containment at p = 2 with a degenerate window.
    """
    P = p**big
    r = min(p ** (m2 - m1 + extra), p ** (big - m1))
    a, b, c, d = _unit_lift_digits(p, m1, r, P)
    z = np.zeros_like(a)
    return unique_codes(PairContext(P, 1).encode([a, b, c, d, z, z, z, z]))


def amplify_exhaustive_check(
    h1: CongruenceBox, h2: CongruenceBox, cap: int = 128
) -> dict:
    """Exhaustively verify 1 + p^{m1+n1} V (mod p^{m2+n2}) inside (H1 H2)^4,
    prime by prime, with H1, H2 the canonical box lifts.  Outer product
    moduli above cap are skipped (reported per prime)."""
    out = amplify(h1, h2)
    report = {"output": out, "primes": {}}
    for p, _ in h1.outer.factors:
        m1, m2 = h1.window(p)
        n1, n2 = h2.window(p)
        big = m2 + n2
        if p**big > cap:
            report["primes"][p] = {"checked": False, "reason": f"p^{big} > {cap}"}
            continue
        P = p**big
        ctx = PairContext(P, 1)
        # one extra lift digit is needed (and sufficient) only at p = 2,
        # where degenerate windows otherwise produce false violations
        extra = 1 if p == 2 else 0
        a_codes = box_lift_codes(p, m1, m2, big, extra=extra)
        b_codes = box_lift_codes(p, n1, n2, big, extra=extra)
        # every layer lies in ker(SL2(Z/p^big) -> SL2(Z/p^min(m1,n1))), a group
        # of order p^(3(big - min)) containing both boxes: once a layer fills
        # it, every later layer equals it
        kernel_order = p ** (3 * (big - min(m1, n1)))
        layer = a_codes
        for step in range(1, 8):
            if layer.size == kernel_order:
                break
            other = b_codes if step % 2 == 1 else a_codes
            layer = _product_layer(ctx, layer, other)
        # under the window condition the box mod p^big is exactly the set of
        # canonical lifts, so containment is direct membership in the product
        target = box_lift_codes(p, m1 + n1, m2 + n2, big)
        contained = bool(np.all(isin_sorted(target, layer)))
        report["primes"][p] = {
            "checked": True,
            "contained": contained,
            "product_size": int(layer.size),
            "target_size": int(target.size),
        }
    report["verified"] = all(
        info.get("contained", True) for info in report["primes"].values()
    )
    return report


# bench/spans.py counts box-amplification product work through this name
_product_layer = mul_codes


# ---------------------------------------------------------------------------
# connecting-map sections


@dataclass
class ConnectingMap:
    """A section psi of the reduction onto a congruence subgroup: lifts[i]
    is the smallest-code preimage of domain_codes[i] in B^power."""

    q1: FactoredModulus
    q2: FactoredModulus
    d1: FactoredModulus
    d2: FactoredModulus
    power: int
    domain_codes: np.ndarray  # subgroup codes in the reduced context, sorted
    lifts: np.ndarray  # full-modulus codes, aligned with domain_codes
    full_ctx: PairContext
    reduced_ctx: PairContext

    def validate(self) -> bool:
        """reduce(psi(x)) = x for every x in the domain."""
        red = self.full_ctx.reduce_codes(self.lifts, self.reduced_ctx)
        return bool(np.array_equal(red, self.domain_codes))


def connecting_map(
    b: GroupSet,
    q1: FactoredModulus,
    q2: FactoredModulus,
    k_max: int = 12,
    cap: int = 2_000_000,
) -> Optional[ConnectingMap]:
    """Build a section of pi_{q1,q2} out of powers of B, or None when no
    power up to ``k_max`` covers a congruence subgroup of the target.

    Reduction is a homomorphism, so B^k reduces onto (B reduced)^k: the
    smallest power whose reduction covers the bounded-generation congruence
    subgroup is the k that ``bounded_generation_search`` finds for the
    reduced B.  Each element of the subgroup gets its smallest-code
    preimage in B^k, so sections are deterministic.  A ``cap`` that stops
    the search or a power raises ValueError: it says nothing about B.
    """
    if not (divides(q1, b.q1) and divides(q2, b.q2)):
        raise ValueError("target moduli must divide the ambient moduli of B")
    if q1.is_one() and q2.is_one():
        # trivial target: B covers the one-element group
        k, d1, d2 = 1, q1, q2
    else:
        res = bounded_generation_search(b.reduce_to(q1, q2), k_max=k_max, cap=cap)
        if not res.found:
            return None
        k, d1, d2 = res.k, res.q1p, res.q2p
    reduced_ctx = PairContext(q1.value, q2.value)
    domain = congruence_subgroup_codes(q1.value, q2.value, d1.value, d2.value)
    power = b
    for _ in range(k - 1):
        power = product_set(power, b, cap)
    red = power.ctx.reduce_codes(power.codes, reduced_ctx)
    # power.codes ascend, so a stable sort by reduced code puts the smallest
    # preimage of each reduced code first
    order = np.argsort(red, kind="stable")
    red, full = red[order], power.codes[order]
    first = np.ones(red.size, dtype=bool)
    first[1:] = red[1:] != red[:-1]
    lifts = full[first][index_sorted(domain, red[first])]
    cm = ConnectingMap(q1, q2, d1, d2, k, domain, lifts, power.ctx, reduced_ctx)
    if not cm.validate():
        raise AssertionError("section validation failed")
    return cm
