"""The Cayley averaging operator, its second eigenvalue, and Cheeger constants.

The operator acts matrix-free on a grid of shape rows x cols = N over the
sorted element codes: vertex i sits at (i // cols, i % cols).  Over a direct
H = A x N2 with |N2| > 1 (``packed.pair_subgroup``) the grid is (|A|, |N2|):
each generator moves a vertex by a row permutation of A and a column
permutation of N2, so the operator holds factor-sized arrays only.  Every
other operator (a single factor, a non-direct H, given codes) is one row,
(1, N), with the row permutation [0].  ``CayleyOperator.apply`` walks the
output in row blocks of about ``APPLY_BLOCK`` entries, so each block's sums
stay in cache.

``lambda2`` picks its route from N alone: the dense oracle route, through
the in-repo symmetric eigensolver in :mod:`sl2lab.eigen`, for
N <= ``DENSE_THRESHOLD``, and matrix-free Lanczos (``lanczos_lambda2``)
above.  ``lanczos_lambda2`` is also the one judge of convergence: an
unconverged run raises there, whoever called it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .eigen import inverse_iteration, lanczos_extreme, sturm_eigenvalue, tridiagonalize
from .packed import PairContext, _product, index_sorted, pair_subgroup
from .sl2 import IntPair, imat_inv, imat_mul, symmetrize

DENSE_THRESHOLD = 2048
GROUP_CAP = 10_000_000
EXACT_CHEEGER_MAX = 22  # largest N for the exhaustive Cheeger sweep (2^(N-1) subsets)
# largest ||Tx - lambda2 x|| accepted for a dense lambda2 and its inverse-iteration
# vector x; the value and x each err by about N ulps of ||T|| = 1, far inside it
RESIDUAL_DELTA = 1e-9
APPLY_BLOCK = 2**14  # entries of the output per row block of CayleyOperator.apply


@dataclass
class CayleyOperator:
    """Normalized adjacency operator of Cay(G, S): (Tv)(x) = mean_s v(s^{-1} x)."""

    ctx: PairContext
    codes: np.ndarray  # sorted element codes; index space of the operator
    gens: np.ndarray  # generator codes in the caller's order and multiplicity
    shape: tuple[int, int]  # grid (rows, cols), rows * cols = N; vertex i at (i // cols, i % cols)
    # gens[s]^{-1} x_i sits at (row_perms[s][i // cols], col_perms[s][i % cols])
    row_perms: list[np.ndarray]
    col_perms: list[np.ndarray]

    @property
    def n(self) -> int:
        return int(self.codes.size)

    @property
    def degree(self) -> int:
        return int(self.gens.size)

    @staticmethod
    def build(
        ctx: PairContext, gens: np.ndarray, codes: Optional[np.ndarray] = None
    ) -> "CayleyOperator":
        """Construct over the given vertex codes, or over <gens> if codes is None.

        ``gens`` is an array of codes of ``ctx``, used as given: order and
        duplicates are kept, and the operator is self-adjoint exactly when
        the multiset is closed under inverse (``lambda2`` checks it).  Over
        <gens> = A x N2 with |N2| > 1 (see ``packed.pair_subgroup``) vertex
        i is (A[i // |N2|], N2[i % |N2|]), and the grid is (|A|, |N2|).
        Otherwise the grid is one row, (1, N): the row permutations are [0]
        and the column permutations map all of the codes.  ValueError if
        ``gens`` are not codes of SL2 pairs (``PairContext.check_codes``).
        """
        gens = ctx.check_codes(gens)
        g_invs = ctx.inv(gens)
        if codes is None:
            sub = pair_subgroup(ctx, gens, GROUP_CAP)
            codes = sub.codes
            if sub.direct and sub.kernel.size > 1:
                c1, c2 = PairContext(ctx.q1, 1), PairContext(ctx.q2, 1)
                x1, x2 = c1.decode(sub.left), c2.decode(sub.kernel)
                inv1, inv2 = ctx.split(g_invs)
                rows = [index_sorted(_product(c1, c1.decode(g), x1), sub.left) for g in inv1]
                cols = [index_sorted(_product(c2, c2.decode(g), x2), sub.kernel) for g in inv2]
                shape = (sub.left.size, sub.kernel.size)
                return CayleyOperator(ctx, codes, gens, shape, rows, cols)
        x = ctx.decode(codes)
        cols = [index_sorted(_product(ctx, ctx.decode(g), x), codes) for g in g_invs]
        rows = [np.zeros(1, dtype=np.int64)] * len(cols)
        return CayleyOperator(ctx, codes, gens, (1, codes.size), rows, cols)

    def perm(self, s: int) -> np.ndarray:
        """The flat permutation of generator s: i -> index of gens[s]^{-1} * x_i."""
        return (self.row_perms[s][:, None] * self.shape[1] + self.col_perms[s]).ravel()

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Tv for a real vector v, as float64.  Each entry starts from 0.0,
        adds its neighbors in generator order and divides by the degree.

        The output goes in blocks of about APPLY_BLOCK entries, whole rows of
        the grid: per generator, the block's source rows are copied out of
        v, their columns permuted, and the result added to the block while
        it is in cache."""
        if v.shape != (self.n,):
            raise ValueError(f"vector length {v.shape} does not match N={self.n}")
        if v.dtype.kind not in "biuf":
            raise TypeError(f"apply needs a real vector, not dtype {v.dtype}")
        rows, cols = self.shape
        src = v.astype(np.float64, copy=False).reshape(rows, cols)
        out = np.zeros((rows, cols))
        b = max(1, APPLY_BLOCK // max(cols, 1))
        moved = np.empty((min(b, rows), cols))  # the block's source rows
        taken = np.empty_like(moved)  # ... with their columns permuted
        for r0 in range(0, rows, b):
            block = out[r0 : r0 + b]
            k = len(block)
            m, t = moved[:k], taken[:k]
            last = None
            for p1, p2 in zip(self.row_perms, self.col_perms):
                if p1 is not last:  # rows shared with the previous generator stay in m
                    src.take(p1[r0 : r0 + k], 0, m, "clip")
                    last = p1
                m.take(p2, 1, t, "clip")
                block += t
            block /= self.degree
        return out.ravel()

    def dense_matrix(self) -> np.ndarray:
        """The N x N operator matrix; oracle use only (N <= DENSE_THRESHOLD)."""
        if self.n > DENSE_THRESHOLD:
            raise ValueError(f"N={self.n} too large for the dense route")
        m = np.zeros((self.n, self.n))
        rows = np.arange(self.n)
        for s in range(self.degree):
            np.add.at(m, (rows, self.perm(s)), 1.0 / self.degree)
        return m

    def neighbor_table(self) -> list[list[int]]:
        """neighbors[i] = indices of s * x_i over the generator multiset."""
        # perm(s) maps i to the index of s^{-1} x_i, so its inverse maps i to s x_i
        moved = np.empty((self.degree, self.n), dtype=np.int64)
        for s in range(self.degree):
            moved[s, self.perm(s)] = np.arange(self.n)
        return moved.T.tolist()


def cayley_for_sl2_pair(gens: Sequence[IntPair], q1: int, q2: int) -> CayleyOperator:
    """Cayley operator for integral pair generators reduced mod (q1, q2), on
    the subgroup the reduced generators generate (connected by construction)."""
    ctx = PairContext(q1, q2)
    return CayleyOperator.build(ctx, ctx.encode_intpairs(symmetrize(list(gens))))


@dataclass
class SpectralReport:
    lambda2: float
    iterations: int
    residual: float
    cheeger_lower: float
    cheeger_upper: float

    def __post_init__(self):
        if self.cheeger_lower > self.cheeger_upper + 1e-12:
            raise ValueError("cheeger bounds are inverted")


def cheeger_bounds(lambda2: float, degree: int) -> tuple[float, float]:
    """Discrete Cheeger inequalities for a degree-regular multigraph."""
    if not -1 - 1e-9 <= lambda2 <= 1 + 1e-9:
        raise ValueError(f"lambda2={lambda2} outside [-1, 1]")
    gap = max(0.0, 1.0 - lambda2)
    return degree * gap / 2.0, degree * float(np.sqrt(2.0 * gap))


def _check_operator(op: CayleyOperator) -> None:
    """T is self-adjoint, and lambda2 defined, only when N >= 2 and the
    generator multiset is closed under inverse; otherwise ValueError."""
    if op.n < 2:
        raise ValueError("lambda2 needs N >= 2")
    if not np.array_equal(np.sort(op.gens), np.sort(op.ctx.inv(op.gens))):
        raise ValueError(
            "lambda2 needs a generator multiset closed under inverse: "
            "each generator must occur as often as its inverse"
        )


def _report(op: CayleyOperator, lam: float, iterations: int, residual: float) -> SpectralReport:
    """lambda2 clamped to [-1, 1], with its Cheeger bounds."""
    lam = min(1.0, max(-1.0, lam))
    lo, hi = cheeger_bounds(lam, op.degree)
    return SpectralReport(lam, iterations, residual, lo, hi)


def dense_lambda2(op: CayleyOperator) -> tuple[float, float]:
    """(lambda2, ||Tx - lambda2 x||) by the in-repo dense eigensolver (oracle route).

    Sturm multisection on the tridiagonal gives the value: the second largest
    eigenvalue, since the trivial 1 is the largest (a disconnected graph has 1
    twice, so lambda2 = 1).  Inverse iteration on the same tridiagonal then
    gives a vector x, and ||Tx - lambda2 x|| <= RESIDUAL_DELTA proves an
    eigenvalue within RESIDUAL_DELTA of lambda2, else ValueError."""
    _check_operator(op)
    d, e = tridiagonalize(op.dense_matrix())
    lam = sturm_eigenvalue(d, e, d.size - 2)
    x = inverse_iteration(d, e, lam)
    r = (d - lam) * x
    r[:-1] += e * x[1:]
    r[1:] += e * x[:-1]
    resid = float(np.sqrt(r @ r))
    if not resid <= RESIDUAL_DELTA:
        raise ValueError(
            f"dense lambda2={lam!r} at N={d.size} fails its eigenvector check: "
            f"||Tx - lambda2 x|| = {resid:.3g} for the inverse-iteration vector x "
            f"exceeds {RESIDUAL_DELTA:g}"
        )
    return lam, resid


def lanczos_lambda2(
    op: CayleyOperator, tol: float = 1e-10, max_iter: int = 4000, seed: int = 0
) -> SpectralReport:
    """lambda2 by matrix-free Lanczos at any N: the route ``lambda2`` takes
    above DENSE_THRESHOLD, and the one the dense oracle certifies below it.

    Lanczos runs on T restricted to the mean-zero functions, the orthogonal
    complement of the constants: its start is a Philox(seed) normal vector
    with its mean subtracted, each product has its mean subtracted, and it
    takes at most min(max_iter, N - 1) iterations, the dimension of that
    space.  A stored-basis run reports ||Tx - lambda2 x|| of its Ritz vector
    x.  This is the one place that judges convergence: a run that stops
    short of ``tol`` is a ValueError, so no caller receives its value.
    """
    _check_operator(op)
    v0 = np.random.Generator(np.random.Philox(key=seed)).standard_normal(op.n)
    v0 -= v0.mean()

    def matvec(v):
        w = op.apply(v)
        w -= w.mean()
        return w

    lam, iters, resid, converged, ritz = lanczos_extreme(
        matvec, v0, tol=tol, max_iter=min(max_iter, op.n - 1)
    )
    if ritz is not None:
        r = op.apply(ritz) - lam * ritz
        resid = float(np.sqrt(r @ r))
    if not converged:
        raise ValueError(
            f"lambda2 at N={op.n} did not converge in {iters} Lanczos iterations "
            f"(residual {resid:.3g} > tol {tol:g})"
        )
    return _report(op, lam, iters, resid)


def lambda2(
    op: CayleyOperator, tol: float = 1e-10, max_iter: int = 4000, seed: int = 0
) -> SpectralReport:
    """Largest eigenvalue of T on mean-zero functions, with Cheeger bounds.

    The route follows from N alone: ``dense_lambda2`` (0 iterations) for
    N <= DENSE_THRESHOLD, ``lanczos_lambda2`` above, which raises when its
    run stops short of ``tol``.  Either route raises ValueError when N < 2
    or the generator multiset is not closed under inverse.
    """
    if op.n > DENSE_THRESHOLD:
        return lanczos_lambda2(op, tol, max_iter, seed)
    lam, resid = dense_lambda2(op)
    return _report(op, lam, 0, resid)


def cheeger_exact(op: CayleyOperator) -> Fraction:
    """Exact min |boundary A| / |A| over 0 < |A| <= N/2, edges with multiplicity.

    Exhaustive sweep over subsets containing vertex 0 (valid by vertex
    transitivity of Cayley graphs), Gray-code incremental boundary updates.
    """
    n = op.n
    if n > EXACT_CHEEGER_MAX:
        raise ValueError(f"N={n} exceeds the exhaustive cap {EXACT_CHEEGER_MAX}")
    if n < 2:
        raise ValueError("need at least two vertices")
    nb = op.neighbor_table()
    in_a = [False] * n
    in_a[0] = True
    size = 1
    boundary = sum(1 for u in nb[0] if u != 0)
    best = Fraction(boundary, 1)

    for g in range(1, 1 << (n - 1)):
        # Gray code: toggle vertex v; v's edges into A leave the boundary as
        # v joins A and the rest join it, and removing v reverses both
        v = (g & -g).bit_length()
        delta = sum(-1 if in_a[u] else 1 for u in nb[v] if u != v)
        sign = -1 if in_a[v] else 1
        boundary += sign * delta
        size += sign
        in_a[v] = not in_a[v]
        if 0 < size * 2 <= n:
            ratio = Fraction(boundary, size)
            if ratio < best:
                best = ratio
    return best


def gap_sweep(
    gens: Sequence[IntPair],
    moduli: Sequence[int],
    pair: bool = True,
    tol: float = 1e-8,
    seed: int = 0,
) -> list[dict]:
    """lambda2 and Cheeger data per modulus; the table behind the CLI CSV.

    ``lambda2`` picks each row's route and raises on an unconverged run, so
    every row holds a converged value; the sweep adds the exact Cheeger
    constant for N <= EXACT_CHEEGER_MAX and the time per modulus."""
    rows = []
    for q in moduli:
        t0 = time.perf_counter()
        op = cayley_for_sl2_pair(gens, q, q if pair else 1)
        rep = lambda2(op, tol=tol, seed=seed)
        exact = None
        if op.n <= EXACT_CHEEGER_MAX:
            exact = cheeger_exact(op)
        rows.append(
            {
                "q": q,
                "N": op.n,
                "degree": op.degree,
                "lambda2": rep.lambda2,
                "residual": rep.residual,
                "h_lower": rep.cheeger_lower,
                "h_upper": rep.cheeger_upper,
                "h_exact": exact,
                "seconds": time.perf_counter() - t0,
            }
        )
    return rows


def standard_dense_pair_generators() -> list[IntPair]:
    """The lab's stock Zariski-dense symmetric generator set.

    Left factor: the unipotents [[1,2],[0,1]], [[1,0],[2,1]].  Right factor:
    conjugates of them by two inequivalent elements, chosen so the pair group
    reduces onto the full product SL2(Z/q) x SL2(Z/q) at the odd primes
    (verified for q in {5, 7, 11, 13}).
    """
    g1 = ((1, 2), (0, 1))
    g2 = ((1, 0), (2, 1))

    def conj(c, g):
        return imat_mul(imat_mul(c, g), imat_inv(c))

    h1 = conj(((1, 0), (1, 1)), g1)
    h2 = conj(((1, 2), (2, 5)), g2)
    base = [(g1, h1), (g2, h2)]
    return base + [(imat_inv(a), imat_inv(b)) for a, b in base]


def unit_dense_pair_generators() -> list[IntPair]:
    """A Zariski-dense symmetric pair set with large 2-power reductions.

    The left factor generates all of SL2(Z); the right factor uses mixed
    words, so the pair group reduces onto the full product at 2, 3 and 5
    and onto large subgroups of the 2-power quotients (18432 of the 147456
    elements mod 8), where the stock set above collapses.
    """
    u1 = ((1, 1), (0, 1))
    u2 = ((1, 0), (1, 1))
    base = [(u1, imat_mul(u2, u1)), (u2, imat_mul(u1, imat_mul(u1, u2)))]
    return base + [(imat_inv(a), imat_inv(b)) for a, b in base]
