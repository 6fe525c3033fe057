"""The Cayley averaging operator, its second eigenvalue, and Cheeger constants.

The operator acts matrix-free through per-generator permutation arrays over
an enumerated group; the dense oracle route goes through the in-repo
symmetric eigensolver in :mod:`sl2lab.eigen`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .eigen import inverse_iteration, lanczos_extreme, sturm_eigenvalue, tridiagonalize
from .packed import PairContext, _product, index_sorted, pair_subgroup
from .sl2 import IntPair, symmetrize

DENSE_THRESHOLD = 2048
GROUP_CAP = 10_000_000
EXACT_CHEEGER_MAX = 22  # largest N for the exhaustive Cheeger sweep (2^(N-1) subsets)
# largest ||Tx - lambda2 x|| accepted for a dense lambda2 and its inverse-iteration
# vector x; the value and x each err by about N ulps of ||T|| = 1, far inside it
RESIDUAL_DELTA = 1e-9


@dataclass
class CayleyOperator:
    """Normalized adjacency operator of Cay(G, S): (Tv)(x) = mean_s v(s^{-1} x)."""

    ctx: PairContext
    codes: np.ndarray  # sorted element codes; index space of the operator
    gens: np.ndarray  # generator codes in the caller's order and multiplicity
    perms: list[np.ndarray]  # perms[s][i] = index of gens[s]^{-1} * x_i

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
        <gens> = A x N2 (see ``packed.pair_subgroup``) vertex i is
        (A[i // |N2|], N2[i % |N2|]), so each permutation is the Kronecker
        sum of two factor permutations.  ValueError if ``gens`` are not
        codes of SL2 pairs (``PairContext.check_codes``).
        """
        gens = ctx.check_codes(gens)
        g_invs = ctx.inv(gens)
        if codes is None:
            sub = pair_subgroup(ctx, gens, GROUP_CAP)
            codes = sub.codes
            if sub.direct:
                c1, c2 = PairContext(ctx.q1, 1), PairContext(ctx.q2, 1)
                x1, x2 = c1.decode(sub.left), c2.decode(sub.kernel)
                m = ctx.q2**4
                perms = []
                for g1, g2 in zip(g_invs // m, g_invs % m):
                    p1 = index_sorted(_product(c1, c1.decode(g1), x1), sub.left)
                    p2 = index_sorted(_product(c2, c2.decode(g2), x2), sub.kernel)
                    perms.append((p1[:, None] * sub.kernel.size + p2).ravel())
                return CayleyOperator(ctx, codes, gens, perms)
        x = ctx.decode(codes)
        perms = [index_sorted(_product(ctx, ctx.decode(g), x), codes) for g in g_invs]
        return CayleyOperator(ctx, codes, gens, perms)

    def apply(self, v: np.ndarray) -> np.ndarray:
        if v.shape != (self.n,):
            raise ValueError(f"vector length {v.shape} does not match N={self.n}")
        out = np.zeros(self.n)
        for perm in self.perms:
            out += v[perm]
        out /= self.degree
        return out

    def dense_matrix(self) -> np.ndarray:
        """The N x N operator matrix; oracle use only (N <= DENSE_THRESHOLD)."""
        if self.n > DENSE_THRESHOLD:
            raise ValueError(f"N={self.n} too large for the dense route")
        m = np.zeros((self.n, self.n))
        rows = np.arange(self.n)
        for perm in self.perms:
            np.add.at(m, (rows, perm), 1.0 / self.degree)
        return m

    def neighbor_table(self) -> list[list[int]]:
        """neighbors[i] = indices of s * x_i over the generator multiset."""
        # perms[s] maps i to the index of s^{-1} x_i, so its inverse maps i to s x_i
        moved = np.empty((self.degree, self.n), dtype=np.int64)
        for s, perm in enumerate(self.perms):
            moved[s, perm] = np.arange(self.n)
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
    converged: bool = True

    def __post_init__(self):
        if self.cheeger_lower > self.cheeger_upper + 1e-12:
            raise ValueError("cheeger bounds are inverted")


def cheeger_bounds(lambda2: float, degree: int) -> tuple[float, float]:
    """Discrete Cheeger inequalities for a degree-regular multigraph."""
    if not -1 - 1e-9 <= lambda2 <= 1 + 1e-9:
        raise ValueError(f"lambda2={lambda2} outside [-1, 1]")
    gap = max(0.0, 1.0 - lambda2)
    return degree * gap / 2.0, degree * float(np.sqrt(2.0 * gap))


def dense_lambda2(op: CayleyOperator) -> float:
    """Second eigenvalue via the in-repo dense eigensolver (oracle route)."""
    return _checked_dense_lambda2(op)[0]


def _checked_dense_lambda2(op: CayleyOperator) -> tuple[float, float]:
    """(lambda2, ||Tx - lambda2 x||) on the dense route.

    Sturm multisection on the tridiagonal gives the value: the second largest
    eigenvalue, since the trivial 1 is the largest (a disconnected graph has 1
    twice, so lambda2 = 1).  Inverse iteration on the same tridiagonal then
    gives a vector x, and ||Tx - lambda2 x|| <= RESIDUAL_DELTA proves an
    eigenvalue within RESIDUAL_DELTA of lambda2, else ValueError."""
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


def lambda2(
    op: CayleyOperator,
    tol: float = 1e-10,
    max_iter: int = 4000,
    seed: int = 0,
    method: str = "auto",
) -> SpectralReport:
    """Largest eigenvalue of T on mean-zero functions, with Cheeger bounds.

    method='auto' uses the dense solver for N <= DENSE_THRESHOLD and Lanczos
    above; 'iterative' forces the matrix-free route (the path the dense
    oracle certifies), 'dense' forces the oracle route.  Lanczos runs on T
    restricted to the mean-zero functions, the orthogonal complement of the
    constants: its start is a Philox(seed) normal vector with its mean
    subtracted, each product has its mean subtracted, and it takes at most
    N - 1 iterations, the dimension of that space.  T is self-adjoint,
    and lambda2 defined, only when the generator multiset is closed under
    inverse; otherwise ValueError.
    """
    if op.n < 2:
        raise ValueError("lambda2 needs N >= 2")
    if not np.array_equal(np.sort(op.gens), np.sort(op.ctx.inv(op.gens))):
        raise ValueError(
            "lambda2 needs a generator multiset closed under inverse: "
            "each generator must occur as often as its inverse"
        )
    if method == "auto":
        method = "dense" if op.n <= DENSE_THRESHOLD else "iterative"
    if method == "dense":
        lam, resid = _checked_dense_lambda2(op)
        iters, conv = 0, True
    elif method == "iterative":
        v0 = np.random.Generator(np.random.Philox(key=seed)).standard_normal(op.n)
        v0 -= v0.mean()

        def matvec(v):
            w = op.apply(v)
            w -= w.mean()
            return w

        lam, iters, resid, conv, ritz = lanczos_extreme(
            matvec, v0, tol=tol, max_iter=min(max_iter, op.n - 1)
        )
        if ritz is not None:
            r = op.apply(ritz) - lam * ritz
            resid = float(np.sqrt(r @ r))
    else:
        raise ValueError(f"unknown method {method!r}")
    lam = min(1.0, max(-1.0, lam))
    lo, hi = cheeger_bounds(lam, op.degree)
    return SpectralReport(
        lambda2=lam,
        iterations=iters,
        residual=resid,
        cheeger_lower=lo,
        cheeger_upper=hi,
        converged=conv,
    )


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
    method: str = "auto",
) -> list[dict]:
    """lambda2 and Cheeger data per modulus; the table behind the CLI CSV.

    Raises ValueError when Lanczos stops short of ``tol`` at some modulus,
    so no unconverged lambda2 is reported."""
    rows = []
    for q in moduli:
        t0 = time.perf_counter()
        op = cayley_for_sl2_pair(gens, q, q if pair else 1)
        rep = lambda2(op, tol=tol, seed=seed, method=method)
        if not rep.converged:
            raise ValueError(
                f"lambda2 at q={q} did not converge in {rep.iterations} Lanczos iterations "
                f"(residual {rep.residual:.3g} > tol {tol:g})"
            )
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
    from .sl2 import imat_inv, imat_mul

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
    from .sl2 import imat_inv, imat_mul

    u1 = ((1, 1), (0, 1))
    u2 = ((1, 0), (1, 1))
    base = [(u1, imat_mul(u2, u1)), (u2, imat_mul(u1, imat_mul(u1, u2)))]
    return base + [(imat_inv(a), imat_inv(b)) for a, b in base]
