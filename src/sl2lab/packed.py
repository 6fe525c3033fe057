"""Vectorized pair-group engine: elements packed into int64 radix codes.

An element ((a1,b1),(c1,d1)) x ((a2,b2),(c2,d2)) of SL2(Z/q1) x SL2(Z/q2)
is packed as a single int64 in radix (q1,q1,q1,q1,q2,q2,q2,q2).  Group sets
are sorted code arrays; multiplication, inversion and membership are all
numpy-vectorized.  Single-factor groups are the q2 = 1 special case.  Safe
for (q1*q2)**4 < 2**63, far beyond desk scale.

Every 2x2 product of digit arrays goes through ``_mat_mul`` but one: the
innermost product of ``commutator.commutator_sweep``, which is left
unreduced inside its congruence test because reducing it first costs the
time the sweep saves.  Every product of factor digits goes through
``_product``: one ``_mat_mul`` per factor, skipping the trivial factor when
q2 = 1.  ``PairContext.mul`` is the elementwise product of two
broadcastable code arrays (or single codes), the one to use for group words
such as conjugates and commutators;
``mul_const`` feeds ``_product`` one fixed element on either side.
``mul_codes`` forms broadcast blocks of ``BLOCK`` products by one of two
routes.  The table route multiplies, per factor, the distinct parts of the
two sets once, with ``_product`` in the factor context, and keeps each
table entry as its rank: its index among the sorted distinct entries ui of
its own table, the left ranks scaled by |u2|.  A pair product is then the
rank r1[i1] + r2[i2] of its code among the pair codes of u1 x u2, and no
group is enumerated.  Pair codes sort by the left factor first, so rank
order is sorted-code order, and the products are deduped by marking a mask
of |u1| |u2| bytes; the sorted codes are those of the marked ranks,
u1[r // |u2|] q2^4 + u2[r % |u2|], with no sort.  The route is taken when
the tables hold fewer entries than the |a| |b| products and at most
``FLUSH``, the bound on buffered products, and when |u1| |u2| <= 8
``FLUSH``, the bytes those products fill.  Each table is bounded by
min(|a|, |Gi|) min(|b|, |Gi|), which needs no sort; sets of distinct codes
in a single-factor context never pass, since their one table would hold
every product.  The digit route decodes each set once, feeds ``_product``
the blocks and merges the codes with ``unique_codes``.  The block size is a
constant, not a share of the merge threshold ``FLUSH``, because each digit
block holds about a dozen int64 temporaries of its size: peak memory then
stays bounded whatever the sizes of the two sets.  ``mul_codes`` stops
once its distinct products number |G|: they are then the whole group, and
dense sets fill a quasirandom group after few products (Gowers,
"Quasirandom groups", 2008).  To see that moment, the distinct products are
counted, by a merge or by counting the marks, once the products added
since the last count number at least min(FLUSH, max(|G| - counted,
counted)): block by block while a block could fill the group, and
otherwise with a merge that sorts at most twice what it adds, or once
every FLUSH products.

``one_mod`` is the one test of 2x2 digit arrays for x = 1 mod d, and
``PairContext.kernel_mask(codes, d1, d2)`` applies it to both factors: the
kernel of the reduction to (d1, d2), wherever the library needs it.

``closure`` is the one subgroup-closure kernel: a breadth-first search over
sorted int64 codes, with the product of a layer passed in.  It closes factor
groups through ``mul_codes``, and the table groups of ``approxhom`` close
table indices and pair codes with it.

A generating set passes between modules as an int64 array of codes of its
``PairContext``, in the caller's order and with the caller's multiplicity;
``PairContext.encode_intpairs`` is the one converter from integral pairs.
The codes are checked where they enter, at the top of ``pair_subgroup`` and
of ``spectral.CayleyOperator.build``: ``PairContext.check_codes`` rejects a
code out of range or of a pair that is not in SL2 x SL2.

``pair_subgroup`` is the one pair-group enumerator, and ``generated_subgroup``
returns its codes.  It never searches the N = |H| pair codes.  Following
Schreier's lemma (Holt, Eick and O'Brien, *Handbook of Computational Group
Theory*, ch. 4), for H = <S> <= G1 x G2 it
- searches the left projection A = pi1(H) breadth-first in the (q1, 1)
  context, carrying for each a the right part t(a) of the first element
  (a, t(a)) of H found over it;
- closes the Schreier generators t(a) s2 t(a s1)^-1, one per edge (a, s),
  in the (q2, 1) context: they generate N2 = H n (1 x G2);
- checks |H| = |A| |N2| against the cap before building any pair code;
- writes H = U {a} x t(a) N2.  When every right part s2 lies in N2, H is
  the direct product A x N2, and its sorted codes are the Kronecker sums
  a q2^4 + n in row-major order, with no sort.  Otherwise each row
  t(a) N2 is sorted on its own.
When every right part is the identity, as in every single-factor group,
H = A x 1 and A is closed directly, with no transversal.
Pair codes order by the left factor first, so either way the rows run in
sorted order: the codes of H are the array a search over pair codes returns.

Every dedupe and union of code arrays goes through ``unique_codes``, one
``np.sort`` and a mask of adjacent differences, but one: the table route of
``mul_codes`` dedupes ranks in its mask over u1 x u2, with no sort.
``np.unique`` returns the same sorted distinct array, but numpy 2.4 routes
it through a hash table and then sorts the result, which on int64 codes is
5 to 100 times slower.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .factored import FactoredModulus
from .sl2 import PairElement, SL2Residue, _ext_gcd, group_order, reduce_pair

BLOCK = 1 << 18  # products per broadcast block in mul_codes
FLUSH = 8_000_000  # products mul_codes adds between counts of its distinct products


@dataclass(frozen=True)
class PairContext:
    """Packing context for the pair modulus (q1, q2)."""

    q1: int
    q2: int

    def __post_init__(self):
        if self.q1 < 1 or self.q2 < 1:
            raise ValueError("moduli must be >= 1")
        if (self.q1 * self.q2) ** 4 >= 2**63:
            raise ValueError(f"moduli ({self.q1}, {self.q2}) too large to pack")

    @property
    def order(self) -> int:
        return group_order(FactoredModulus.of(self.q1)) * group_order(
            FactoredModulus.of(self.q2)
        )

    def split(self, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(left, right): the factor codes of pair codes, in the contexts
        (q1, 1) and (q2, 1).  With ``join``, the one place of the radix q2^4."""
        return codes // self.q2**4, codes % self.q2**4

    def join(self, left, right) -> np.ndarray:
        """Pair codes of factor codes ``left`` (q1, 1) and ``right`` (q2, 1),
        broadcast against each other."""
        return left * self.q2**4 + right

    def encode(self, digits) -> np.ndarray:
        """Pack 8 digit arrays (a1,b1,c1,d1,a2,b2,c2,d2) into codes."""
        a1, b1, c1, d1, a2, b2, c2, d2 = (np.asarray(x, dtype=np.int64) for x in digits)
        left = ((a1 * self.q1 + b1) * self.q1 + c1) * self.q1 + d1
        right = ((a2 * self.q2 + b2) * self.q2 + c2) * self.q2 + d2
        return self.join(left, right)

    def decode(self, codes: np.ndarray) -> tuple[np.ndarray, ...]:
        left, right = self.split(np.asarray(codes, dtype=np.int64))
        out = []
        for base, chunk in ((self.q2, right), (self.q1, left)):
            for _ in range(4):
                out.append(chunk % base)
                chunk = chunk // base
        d2, c2, b2, a2, d1, c1, b1, a1 = out
        return a1, b1, c1, d1, a2, b2, c2, d2

    def identity_code(self) -> int:
        one1 = 1 % self.q1
        one2 = 1 % self.q2
        return int(self.encode([one1, 0, 0, one1, one2, 0, 0, one2])[()])

    def encode_element(self, x: PairElement) -> int:
        e = x.left.entries + x.right.entries
        return int(self.encode([np.int64(v) for v in e])[()])

    def encode_intpairs(self, gens) -> np.ndarray:
        """Codes of integral pairs (int or Fraction entries, det 1) reduced
        mod (q1, q2), in the given order; ValueError where ``reduce_pair``
        raises.  Reduction in Python integers keeps unreduced entries,
        however large, from meeting int64 digit arrays."""
        q1, q2 = FactoredModulus.of(self.q1), FactoredModulus.of(self.q2)
        return np.array(
            [self.encode_element(reduce_pair(g, q1, q2)) for g in gens], dtype=np.int64
        )

    def check_codes(self, codes) -> np.ndarray:
        """``codes`` as an int64 array, once each lies in [0, (q1 q2)^4) and
        decodes to a determinant-1 matrix on both factors; ValueError otherwise."""
        codes = np.asarray(codes, dtype=np.int64)
        a1, b1, c1, d1, a2, b2, c2, d2 = self.decode(codes)
        bad = (codes < 0) | (codes >= (self.q1 * self.q2) ** 4)
        bad |= (a1 * d1 - b1 * c1) % self.q1 != 1 % self.q1
        bad |= (a2 * d2 - b2 * c2) % self.q2 != 1 % self.q2
        if bad.any():
            raise ValueError(
                f"not codes of SL2 pairs mod ({self.q1}, {self.q2}): {codes[bad][:5].tolist()}"
            )
        return codes

    def decode_element(
        self, code: int, q1: FactoredModulus, q2: FactoredModulus
    ) -> PairElement:
        vals = [int(v[0]) for v in self.decode(np.array([code], dtype=np.int64))]
        return PairElement(SL2Residue(q1, *vals[:4]), SL2Residue(q2, *vals[4:]))

    def reduce_digits(self, g) -> tuple[int, ...]:
        """The 8 entries of g reduced mod (q1, q1, q1, q1, q2, q2, q2, q2).

        Reduction in Python integers keeps unreduced entries, however large,
        from meeting int64 digit arrays.
        """
        g = tuple(int(v) for v in g)
        if len(g) != 8:
            raise ValueError(f"expected 8 entries, got {len(g)}")
        return tuple(v % self.q1 for v in g[:4]) + tuple(v % self.q2 for v in g[4:])

    def mul_const(self, codes: np.ndarray, g: tuple[int, ...], side: str) -> np.ndarray:
        """Codes of g*x (side='left') or x*g (side='right') for all packed x."""
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        x = self.decode(codes)
        g = self.reduce_digits(g)
        return _product(self, g, x) if side == "left" else _product(self, x, g)

    def mul(self, x, y) -> np.ndarray:
        """Codes of x_i * y_i for broadcastable code arrays or single codes."""
        return _product(self, self.decode(x), self.decode(y))

    def inv(self, codes: np.ndarray) -> np.ndarray:
        a1, b1, c1, d1, a2, b2, c2, d2 = self.decode(codes)
        return self.encode(
            [
                d1,
                (-b1) % self.q1,
                (-c1) % self.q1,
                a1,
                d2,
                (-b2) % self.q2,
                (-c2) % self.q2,
                a2,
            ]
        )

    def reduce_codes(self, codes: np.ndarray, target: "PairContext") -> np.ndarray:
        """Reduce packed elements to divisor moduli (t.q1 | q1, t.q2 | q2)."""
        if self.q1 % target.q1 or self.q2 % target.q2:
            raise ValueError("target moduli must divide the current moduli")
        digits = self.decode(codes)
        red = [d % target.q1 for d in digits[:4]] + [d % target.q2 for d in digits[4:]]
        return target.encode(red)

    def kernel_mask(self, codes, d1: int, d2: int) -> np.ndarray:
        """Mask of the codes in the kernel of the reduction to (d1, d2),
        d1 | q1 and d2 | q2: the elements = 1 mod d1 on the left factor and
        = 1 mod d2 on the right."""
        if self.q1 % d1 or self.q2 % d2:
            raise ValueError("kernel moduli must divide the current moduli")
        digits = self.decode(codes)
        return one_mod(digits[:4], d1) & one_mod(digits[4:], d2)


def _mat_mul(x, y, q: int) -> tuple:
    """Entries (a, b, c, d) of the 2x2 product x*y mod q, entrywise over arrays."""
    xa, xb, xc, xd = x
    ya, yb, yc, yd = y
    return (
        (xa * ya + xb * yc) % q,
        (xa * yb + xb * yd) % q,
        (xc * ya + xd * yc) % q,
        (xc * yb + xd * yd) % q,
    )


def one_mod(x, d: int) -> np.ndarray:
    """Mask of the 2x2 digit arrays x = (a, b, c, d) that are = 1 mod d."""
    a, b, c, dd = x
    return (a % d == 1 % d) & (b % d == 0) & (c % d == 0) & (dd % d == 1 % d)


def _product(ctx: PairContext, x, y) -> np.ndarray:
    """Codes of x*y for 8-digit tuples x, y of scalars or broadcastable arrays."""
    left = _mat_mul(x[:4], y[:4], ctx.q1)
    right = (0, 0, 0, 0) if ctx.q2 == 1 else _mat_mul(x[4:], y[4:], ctx.q2)
    return ctx.encode(left + right)


def unique_codes(codes: np.ndarray) -> np.ndarray:
    """Sorted distinct values of an integer array, raveled (``np.unique``)."""
    s = np.sort(codes, axis=None)
    keep = np.empty(s.size, dtype=bool)
    keep[:1] = True
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    return s[keep]


def isin_sorted(values: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Boolean membership of ``values`` in the sorted code array ``table``."""
    if table.size == 0:
        return np.zeros(values.shape, dtype=bool)
    idx = np.searchsorted(table, values)
    idx = np.minimum(idx, table.size - 1)
    return table[idx] == values


def index_sorted(values: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Indices of ``values`` in sorted ``table``; raises if any is missing."""
    idx = np.searchsorted(table, values)
    if np.any(idx >= table.size) or np.any(table[np.minimum(idx, table.size - 1)] != values):
        raise KeyError("element not present in the enumerated set")
    return idx


def sl2_codes(q: int) -> np.ndarray:
    """Sorted codes of the full SL2(Z/q), packed in the (q, 1) context.

    Unimodular rows (a, b) are completed via Bezout; the solution set over
    (c, d) is the coset (c0 + t*a, d0 + t*b).
    """
    ctx = PairContext(q, 1)
    rows = []
    t = np.arange(q, dtype=np.int64)
    for a in range(q):
        for b in range(q):
            if gcd(gcd(a, b), q) != 1:
                continue
            g0, u, v = _ext_gcd(a, b)
            inv_g0 = pow(g0, -1, q)
            d0 = u * inv_g0 % q
            c0 = -v * inv_g0 % q
            c = (c0 + t * a) % q
            d = (d0 + t * b) % q
            rows.append(
                ctx.encode(
                    [
                        np.full(q, a, dtype=np.int64),
                        np.full(q, b, dtype=np.int64),
                        c,
                        d,
                        np.zeros(q, dtype=np.int64),
                        np.zeros(q, dtype=np.int64),
                        np.zeros(q, dtype=np.int64),
                        np.zeros(q, dtype=np.int64),
                    ]
                )
            )
    out = np.sort(np.concatenate(rows))
    return out


def full_pair_codes(q1: int, q2: int) -> np.ndarray:
    """Sorted codes of the full product group SL2(Z/q1) x SL2(Z/q2)."""
    return congruence_subgroup_codes(q1, q2, 1, 1)


def closure(gen_codes: np.ndarray, identity: int, product, cap: int):
    """Sorted codes of the closure of {identity} under right multiplication
    by ``gen_codes``, or None once it has more than ``cap`` elements.

    Breadth-first, one ``product(frontier, gen_codes)`` call per layer; the
    call must return the sorted distinct codes of all products.  In a finite
    group the monoid generated by a set is the subgroup it generates, so the
    generators need not be symmetric.  Every element of a layer lies in the
    closure, so checking the cap once per layer gives the same None-or-set
    outcome as checking it per element.
    """
    visited = np.array([identity], dtype=np.int64)
    frontier = visited
    while frontier.size:
        nxt = product(frontier, gen_codes)
        nxt = nxt[~isin_sorted(nxt, visited)]
        if visited.size + nxt.size > cap:
            return None
        visited = np.sort(np.concatenate([visited, nxt]))
        frontier = nxt
    return visited


@dataclass(frozen=True)
class PairSubgroup:
    """H <= G1 x G2 as Schreier's lemma gives it: ``left`` is the sorted
    A = pi1(H) in the (q1, 1) context, ``kernel`` the sorted
    N2 = H n (1 x G2) in the (q2, 1) context, ``codes`` the sorted pair codes
    of H, and ``direct`` whether H = A x N2."""

    left: np.ndarray
    kernel: np.ndarray
    codes: np.ndarray
    direct: bool


def _edge_products(ctx: PairContext, x: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Codes of x_i * s_j in row-major order, formed ``BLOCK`` products at a time."""
    rows = max(1, BLOCK // max(1, s.size))
    blocks = [ctx.mul(x[i : i + rows, None], s).ravel() for i in range(0, x.size, rows)]
    return np.concatenate(blocks)


def pair_subgroup(ctx: PairContext, gens: np.ndarray, cap: int) -> PairSubgroup:
    """The subgroup generated by the codes ``gens`` from factor-sized work;
    raises ValueError when it has more than ``cap`` elements, or when
    ``gens`` are not codes of SL2 pairs (``PairContext.check_codes``)."""
    gen_codes = unique_codes(ctx.check_codes(gens))
    s1, s2 = ctx.split(gen_codes)
    c1, c2 = PairContext(ctx.q1, 1), PairContext(ctx.q2, 1)
    one2 = c2.identity_code()
    if (s2 == one2).all():
        # H = A x 1, as for every single-factor group: no transversal to carry
        left = closure(s1, c1.identity_code(), lambda x, g: mul_codes(c1, x, g), cap)
        if left is None:
            raise ValueError(f"generated subgroup exceeds cap {cap}")
        return PairSubgroup(left, np.array([one2]), ctx.join(left, one2), True)
    left = np.array([c1.identity_code()], dtype=np.int64)
    trans = np.array([one2], dtype=np.int64)  # t(a) for each a of left
    schreier = np.array([], dtype=np.int64)
    frontier, f_trans = left, trans
    while frontier.size:
        # edges (a, s) of the layer, a s1 and t(a) s2, stably sorted by a s1:
        # the first edge into each new a s1 is the first found in row-major order
        nl, nr = _edge_products(c1, frontier, s1), _edge_products(c2, f_trans, s2)
        order = np.argsort(nl, kind="stable")
        nl, nr = nl[order], nr[order]
        new = ~isin_sorted(nl, left)
        new[1:] &= nl[1:] != nl[:-1]
        frontier, f_trans = nl[new], nr[new]
        left = np.concatenate([left, frontier])
        if left.size > cap:
            raise ValueError(f"generated subgroup exceeds cap {cap}")
        order = np.argsort(left)
        left, trans = left[order], np.concatenate([trans, f_trans])[order]
        # t(a) s2 t(a s1)^-1 is the identity exactly when t(a s1) = t(a) s2
        t_end = trans[index_sorted(nl, left)]
        moved = nr != t_end
        gens2 = c2.mul(nr[moved], c2.inv(t_end[moved]))
        schreier = unique_codes(np.concatenate([schreier, gens2]))
    # |H| = |A| |N2| > cap exactly when |N2| > cap // |A|
    kernel = closure(schreier, one2, lambda x, g: mul_codes(c2, x, g), cap // left.size)
    if kernel is None:
        raise ValueError(f"generated subgroup exceeds cap {cap}")
    direct = bool(isin_sorted(s2, kernel).all())
    if direct:
        codes = ctx.join(left[:, None], kernel).ravel()
    else:
        codes = np.empty((left.size, kernel.size), dtype=np.int64)
        rows = max(1, BLOCK // kernel.size)
        for i in range(0, left.size, rows):
            coset = c2.mul(trans[i : i + rows, None], kernel)
            coset.sort(axis=1)
            codes[i : i + rows] = ctx.join(left[i : i + rows, None], coset)
        codes = codes.ravel()
    return PairSubgroup(left, kernel, codes, direct)


def generated_subgroup(ctx: PairContext, gens: np.ndarray, cap: int = 10_000_000) -> np.ndarray:
    """Sorted codes of the subgroup generated by the codes ``gens``; raises
    ValueError when the subgroup exceeds ``cap``."""
    return pair_subgroup(ctx, gens, cap).codes


def congruence_kernel_codes(q: int, d: int) -> np.ndarray:
    """Sorted codes (context (q, 1)) of {x in SL2(Z/q): x = 1 mod d}."""
    codes = sl2_codes(q)
    return codes[PairContext(q, 1).kernel_mask(codes, d, 1)]


def congruence_subgroup_codes(q1: int, q2: int, d1: int, d2: int) -> np.ndarray:
    """Sorted codes of Lambda(d1)/Lambda(q1) x Lambda(d2)/Lambda(q2): the
    Kronecker sum of sorted factor codes, in row-major order, is sorted."""
    left = congruence_kernel_codes(q1, d1)
    right = congruence_kernel_codes(q2, d2)
    return PairContext(q1, q2).join(left[:, None], right).ravel()


def mul_codes(ctx: PairContext, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All pairwise products a_i * b_j, deduplicated and sorted.

    The blocks of products and the set that dedupes them come from
    ``_table_route`` where it applies, and from ``_digit_route`` otherwise.
    Returns as soon as the distinct products number ``ctx.order``: products
    of SL2 pairs are SL2 pairs, so that set is the whole group and no later
    product can add to it.  The distinct products are counted once the
    products added since the last count number min(FLUSH, max(order -
    counted, counted)): a product that could fill the group is checked block
    by block, and a merge below FLUSH sorts at most twice what it adds.
    When the exit fires, ``a`` and ``b`` must be codes of SL2 pairs
    (``PairContext.check_codes``), or ValueError: one code outside the group
    makes the group the wrong answer, even when every product found so far
    lies in it.
    """
    if a.size == 0 or b.size == 0:
        return np.array([], dtype=np.int64)
    a_parts, b_parts, product, found = _table_route(ctx, a, b) or _digit_route(ctx, a, b)
    # numpy loops fastest along the last axis, so the longer set runs along
    # it, one chunk at a time; the parts of the shorter set are formed once
    a_last = a.size >= b.size
    long, long_parts, short, short_parts = (
        (a, a_parts, b, b_parts) if a_last else (b, b_parts, a, a_parts)
    )
    n_last = min(long.size, BLOCK)
    n_first = max(1, BLOCK // n_last)
    short_cols = [col[:, None] for col in short_parts(slice(None))]
    order = ctx.order
    counted = added = 0
    for i in range(0, long.size, n_last):
        x = [col[None, :] for col in long_parts(slice(i, i + n_last))]
        for j in range(0, short.size, n_first):
            y = [col[j : j + n_first] for col in short_cols]
            added += found.add((product(x, y) if a_last else product(y, x)).ravel())
            if added >= min(FLUSH, max(order - counted, counted)):
                counted = found.count()
                added = 0
                if counted == order:
                    ctx.check_codes(a)
                    ctx.check_codes(b)
                    return found.codes()
    return found.codes()


class _Merged:
    """The distinct codes of the blocks added: they wait in a buffer until
    ``count`` merges them into ``acc`` with ``unique_codes``.  ``add`` takes
    the only reference to a block and returns its size, so that a merge
    frees every block before the sorted copy exists."""

    def __init__(self):
        self.buf: list[np.ndarray] = []
        self.acc = np.array([], dtype=np.int64)

    def add(self, block: np.ndarray) -> int:
        self.buf.append(block)
        return block.size

    def count(self) -> int:
        if self.buf:
            merged = np.concatenate(self.buf + [self.acc])
            self.buf.clear()
            self.acc = unique_codes(merged)
        return self.acc.size

    def codes(self) -> np.ndarray:
        self.count()
        return self.acc


class _Marked:
    """The distinct ranks of the blocks added, marked in a mask of |u1| |u2|
    bytes; rank r is the pair of ``u1[r // |u2|]`` and ``u2[r % |u2|]``,
    the sorted distinct entries of the two factor tables."""

    def __init__(self, ctx: PairContext, u1: np.ndarray, u2: np.ndarray):
        self.ctx, self.u1, self.u2 = ctx, u1, u2
        self.mask = np.zeros(u1.size * u2.size, dtype=bool)

    def add(self, ranks: np.ndarray) -> int:
        self.mask[ranks] = True
        return ranks.size

    def count(self) -> int:
        return int(np.count_nonzero(self.mask))

    def codes(self) -> np.ndarray:
        r = np.flatnonzero(self.mask)
        return self.ctx.join(self.u1[r // self.u2.size], self.u2[r % self.u2.size])


def _digit_route(ctx: PairContext, a: np.ndarray, b: np.ndarray):
    """(a_parts, b_parts, product, found) for ``mul_codes``: parts(s)
    decodes the codes of a slice of one set, ``_product`` multiplies the
    digits, and ``_Merged`` dedupes the codes."""
    return (
        lambda s: ctx.decode(a[s]),
        lambda s: ctx.decode(b[s]),
        lambda x, y: _product(ctx, x, y),
        _Merged(),
    )


def _table_route(ctx: PairContext, a: np.ndarray, b: np.ndarray):
    """(a_parts, b_parts, product, found) for ``mul_codes`` from factor
    tables of ranks, or None where the tables would not pay or the mask
    would not fit.

    The table of factor i holds the products u v of the distinct parts u of
    ``a`` and v of ``b`` on that factor, in row-major order, formed by
    ``_edge_products`` in the factor context, as ranks: indices among the
    sorted distinct entries ui of that table, the left ones scaled by |u2|.
    No group is enumerated.  parts(s) gives the table offsets of a slice of
    one set, and the product of a_i and b_j is the rank
    r1[a1_i + b1_j] + r2[a2_i + b2_j] of its code among the pair codes of
    u1 x u2.  Pair codes sort by the left factor first, so rank order is
    code order, and ``_Marked`` dedupes the ranks in a mask of |u1| |u2|
    bytes.

    Codes of SL2 pairs have at most |Gi| distinct parts on factor i, so the
    tables hold at most sum_i min(|a|, |Gi|) min(|b|, |Gi|) entries.  They
    are built only when that bound is below the |a| |b| products they
    replace and at most ``FLUSH``, and only when the distinct parts keep to
    the bound, as only codes outside the group fail to.  The ranks are
    taken only when |u1| |u2| <= 8 FLUSH, the bytes of the products a merge
    may buffer.  Sets of distinct codes in a single-factor context never
    qualify: their left table alone would hold all |a| |b| products.
    """
    factors = [PairContext(ctx.q1, 1), PairContext(ctx.q2, 1)]
    orders = [f.order for f in factors]
    bound = sum(min(a.size, g) * min(b.size, g) for g in orders)
    if bound >= a.size * b.size or bound > FLUSH:
        return None
    parts = [(x, y, unique_codes(x), unique_codes(y)) for x, y in zip(ctx.split(a), ctx.split(b))]
    if sum(ux.size * uy.size for _, _, ux, uy in parts) > bound:
        return None
    tables = [_edge_products(f, ux, uy) for f, (_, _, ux, uy) in zip(factors, parts)]
    u1, u2 = (unique_codes(t) for t in tables)
    if u1.size * u2.size > 8 * FLUSH:
        return None
    # exact: every entry of a table is among its own distinct entries
    r1, r2 = (np.searchsorted(u, t) for u, t in zip((u1, u2), tables))
    r1 *= u2.size
    (a1, b1), (a2, b2) = (
        (np.searchsorted(ux, x) * uy.size, np.searchsorted(uy, y)) for x, y, ux, uy in parts
    )
    return (
        lambda s: (a1[s], a2[s]),
        lambda s: (b1[s], b2[s]),
        lambda x, y: r1[x[0] + y[0]] + r2[x[1] + y[1]],
        _Marked(ctx, u1, u2),
    )
