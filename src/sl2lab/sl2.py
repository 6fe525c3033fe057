"""Exact matrix algebra in SL2(Z/qZ), its pair group, and Lie(SL2).

Group elements over a modulus are ``SL2Residue`` values (always stored
reduced mod the full modulus); elements of the integral group
SL2(Z) x SL2(Z) are plain nested tuples with int or Fraction entries.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterator

from .factored import FactoredModulus, divides

# ---------------------------------------------------------------------------
# integral 2x2 matrices: ((a, b), (c, d)) with int or Fraction entries

IntMat = tuple[tuple, tuple]
IntPair = tuple[IntMat, IntMat]

IMAT_ID: IntMat = ((1, 0), (0, 1))


def imat_mul(x: IntMat, y: IntMat) -> IntMat:
    (a, b), (c, d) = x
    (e, f), (g, h) = y
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def imat_det(x: IntMat):
    return x[0][0] * x[1][1] - x[0][1] * x[1][0]


def imat_inv(x: IntMat) -> IntMat:
    """Adjugate inverse; valid only when det(x) = 1 (checked)."""
    if imat_det(x) != 1:
        raise ValueError(f"matrix {x} does not have determinant 1")
    (a, b), (c, d) = x
    return ((d, -b), (-c, a))


def ipair_mul(x: IntPair, y: IntPair) -> IntPair:
    return (imat_mul(x[0], y[0]), imat_mul(x[1], y[1]))


def ipair_inv(x: IntPair) -> IntPair:
    return (imat_inv(x[0]), imat_inv(x[1]))


# ---------------------------------------------------------------------------
# residue matrices


def _reduce_entry(v, q: int) -> int:
    """Reduce an int or Fraction m/n with gcd(n, q) = 1 to a residue in [0, q)."""
    if q == 1:
        return 0
    if isinstance(v, Fraction):
        if v.denominator == 1:
            return v.numerator % q
        if gcd(v.denominator, q) != 1:
            raise ValueError(f"denominator of {v} is not invertible mod {q}")
        return v.numerator * pow(v.denominator, -1, q) % q
    return v % q


@dataclass(frozen=True)
class SL2Residue:
    """A 2x2 determinant-1 matrix over Z/qZ, entries reduced to [0, q)."""

    q: FactoredModulus
    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        n = self.q.value
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, getattr(self, name) % n if n > 1 else 0)
        if (self.a * self.d - self.b * self.c) % n != 1 % n:
            raise ValueError(f"determinant is not 1 mod {n}")

    @property
    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def __repr__(self) -> str:
        return f"SL2Residue(q={self.q.value}, [[{self.a},{self.b}],[{self.c},{self.d}]])"


def identity(q: FactoredModulus) -> SL2Residue:
    return SL2Residue(q, 1, 0, 0, 1)


def mul(x: SL2Residue, y: SL2Residue) -> SL2Residue:
    if x.q != y.q:
        raise ValueError(f"modulus mismatch: {x.q.value} vs {y.q.value}")
    return SL2Residue(
        x.q,
        x.a * y.a + x.b * y.c,
        x.a * y.b + x.b * y.d,
        x.c * y.a + x.d * y.c,
        x.c * y.b + x.d * y.d,
    )


def inverse(x: SL2Residue) -> SL2Residue:
    return SL2Residue(x.q, x.d, -x.b, -x.c, x.a)


def trace(x: SL2Residue) -> int:
    return (x.a + x.d) % x.q.value


def reduce_residue(x: SL2Residue, q_target: FactoredModulus) -> SL2Residue:
    if not divides(q_target, x.q):
        raise ValueError(f"{q_target.value} does not divide {x.q.value}")
    return SL2Residue(q_target, x.a, x.b, x.c, x.d)


def reduce_intmat(m: IntMat, q: FactoredModulus) -> SL2Residue:
    n = q.value
    return SL2Residue(
        q,
        _reduce_entry(m[0][0], n),
        _reduce_entry(m[0][1], n),
        _reduce_entry(m[1][0], n),
        _reduce_entry(m[1][1], n),
    )


def group_order(q: FactoredModulus) -> int:
    """|SL2(Z/qZ)| = q^3 prod_{p | q} (1 - p^{-2})."""
    order = q.value**3
    for p, _ in q.factors:
        order = order // (p * p) * (p * p - 1)
    return order


def enumerate_group(q: FactoredModulus, cap: int = 10_000_000) -> Iterator[SL2Residue]:
    """Yield each element of SL2(Z/qZ) exactly once.

    Rows (a, b) with gcd(a, b, q) = 1 are completed to determinant 1 via the
    extended gcd; the remaining solutions form the coset (c + ta, d + tb).
    """
    n = q.value
    if group_order(q) > cap:
        raise ValueError(f"group order {group_order(q)} exceeds cap {cap}")
    if n == 1:
        yield identity(q)
        return
    for a in range(n):
        for b in range(n):
            g = gcd(gcd(a, b), n)
            if g != 1:
                continue
            # solve a*d0 - b*c0 = 1 via Bezout on (a, b)
            g0, u, v = _ext_gcd(a, b)
            inv_g0 = pow(g0, -1, n)
            d0 = u * inv_g0 % n
            c0 = -v * inv_g0 % n
            for t in range(n):
                yield SL2Residue(q, a, b, (c0 + t * a) % n, (d0 + t * b) % n)


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, u, v) with a*u + b*v = g = gcd(a, b)."""
    old_r, r = a, b
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r != 0:
        qt = old_r // r
        old_r, r = r, old_r - qt * r
        old_u, u = u, old_u - qt * u
        old_v, v = v, old_v - qt * v
    return old_r, old_u, old_v


# ---------------------------------------------------------------------------
# pairs


@dataclass(frozen=True)
class PairElement:
    """An element of SL2(Z/q1) x SL2(Z/q2)."""

    left: SL2Residue
    right: SL2Residue

    @property
    def moduli(self) -> tuple[FactoredModulus, FactoredModulus]:
        return (self.left.q, self.right.q)


def pair_identity(q1: FactoredModulus, q2: FactoredModulus) -> PairElement:
    return PairElement(identity(q1), identity(q2))


def pair_mul(x: PairElement, y: PairElement) -> PairElement:
    return PairElement(mul(x.left, y.left), mul(x.right, y.right))


def pair_inverse(x: PairElement) -> PairElement:
    return PairElement(inverse(x.left), inverse(x.right))


def reduce_pair(
    g: IntPair | PairElement, q1: FactoredModulus, q2: FactoredModulus
) -> PairElement:
    """The reduction map onto SL2(Z/q1) x SL2(Z/q2).

    Accepts integral pairs (entries int or Fraction with denominator coprime
    to the target) or residue pairs over moduli the targets divide.
    """
    if isinstance(g, PairElement):
        return PairElement(reduce_residue(g.left, q1), reduce_residue(g.right, q2))
    return PairElement(reduce_intmat(g[0], q1), reduce_intmat(g[1], q2))


# ---------------------------------------------------------------------------
# Lie algebra V = Lie(SL2)(Z/qZ) with basis h, e, f


@dataclass(frozen=True)
class LieVector:
    """x_h*h + x_e*e + x_f*f, i.e. the traceless matrix [[x_h, x_e], [x_f, -x_h]]."""

    q: FactoredModulus
    xh: int
    xe: int
    xf: int

    def __post_init__(self):
        n = self.q.value
        for name in ("xh", "xe", "xf"):
            object.__setattr__(self, name, getattr(self, name) % n if n > 1 else 0)

    @property
    def coords(self) -> tuple[int, int, int]:
        return (self.xh, self.xe, self.xf)


def bracket(u: LieVector, v: LieVector) -> LieVector:
    """Lie bracket uv - vu in (h, e, f) coordinates."""
    if u.q != v.q:
        raise ValueError("modulus mismatch")
    h = u.xe * v.xf - u.xf * v.xe
    e = 2 * (u.xh * v.xe - u.xe * v.xh)
    f = 2 * (u.xf * v.xh - u.xh * v.xf)
    return LieVector(u.q, h, e, f)


def lie_is_primitive(v: LieVector) -> bool:
    g = gcd(gcd(v.xh, v.xe), gcd(v.xf, v.q.value))
    return g == 1


# ---------------------------------------------------------------------------
# generator files: JSON array of pairs of 2x2 matrices, entries decimal
# strings or "m/n" rationals; must have det 1 and be closed under inverse.


def _parse_entry(s) -> Fraction:
    if isinstance(s, int):
        return Fraction(s)
    if isinstance(s, str):
        return Fraction(s)
    raise ValueError(f"matrix entry {s!r} must be an integer or a decimal/rational string")


def _parse_mat(rows) -> IntMat:
    if len(rows) != 2 or any(len(r) != 2 for r in rows):
        raise ValueError("each matrix must be 2x2")
    m = tuple(tuple(_parse_entry(v) for v in row) for row in rows)
    # keep plain ints where possible so hashing and printing stay tidy
    return tuple(
        tuple(int(v) if v.denominator == 1 else v for v in row) for row in m
    )


def parse_generator_json(text: str) -> list[IntPair]:
    data = json.loads(text)
    if not isinstance(data, list) or not data:
        raise ValueError("generator file must be a nonempty JSON array")
    gens = []
    for item in data:
        if len(item) != 2:
            raise ValueError("each generator must be a pair of matrices")
        pair = (_parse_mat(item[0]), _parse_mat(item[1]))
        for m in pair:
            if imat_det(m) != 1:
                raise ValueError(f"generator component {m} has determinant {imat_det(m)}")
        gens.append(pair)
    elems = set(gens)
    for g in gens:
        if ipair_inv(g) not in elems:
            raise ValueError(f"generator set is not closed under inverse (missing inverse of {g})")
    return gens


def load_generator_file(path) -> list[IntPair]:
    with open(path) as fh:
        return parse_generator_json(fh.read())


def symmetrize(gens: list[IntPair]) -> list[IntPair]:
    """Append missing inverses, preserving order and multiplicity of the input."""
    out = list(gens)
    have = set(gens)
    for g in gens:
        gi = ipair_inv(g)
        if gi not in have:
            out.append(gi)
            have.add(gi)
    return out
