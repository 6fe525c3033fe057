import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2lab.eigen import (
    TRIDIAG_BLOCK,
    TRIDIAG_SLICE,
    inverse_iteration,
    lanczos_extreme,
    sturm_count,
    sturm_eigenvalue,
    tridiag_eigh,
    tridiag_eigvals,
    tridiagonalize,
)
from sl2lab import eigen, spectral
from sl2lab.cli import main
from sl2lab.packed import PairContext, generated_subgroup, sl2_codes
from sl2lab.sl2 import IMAT_ID, symmetrize
from sl2lab.spectral import (
    CayleyOperator,
    cayley_for_sl2_pair,
    cheeger_bounds,
    cheeger_exact,
    dense_lambda2,
    gap_sweep,
    lambda2,
    standard_dense_pair_generators,
    unit_dense_pair_generators,
)


def codes_of(ctx: PairContext, digits) -> np.ndarray:
    """Codes of 8-digit tuples (a1, b1, c1, d1, a2, b2, c2, d2), reduced first."""
    d = np.array(digits, dtype=np.int64).reshape(-1, 8) % ([ctx.q1] * 4 + [ctx.q2] * 4)
    return ctx.encode(d.T)


def cycle_operator(n: int) -> CayleyOperator:
    """C_n as the Cayley graph of the unipotent subgroup of SL2(Z/n)."""
    ctx = PairContext(n, 1)
    u, ui = (1, 1, 0, 1, 0, 0, 0, 0), (1, -1, 0, 1, 0, 0, 0, 0)
    return CayleyOperator.build(ctx, codes_of(ctx, [u, ui]))


def unipotent_k6() -> CayleyOperator:
    # complete graph on the 6-element unipotent subgroup mod 6: S = G \ {1}
    ctx = PairContext(6, 1)
    gens = codes_of(ctx, [(1, t, 0, 1, 0, 0, 0, 0) for t in range(1, 6)])
    return CayleyOperator.build(ctx, gens)


# ---------------------------------------------------------------------------
# eigen: the in-repo solvers against each other and against LAPACK (test-only)


def test_symmetric_eigenvalues_vs_lapack():
    rng = np.random.default_rng(0)
    for n in (3, 10, 40, 150):
        m = rng.standard_normal((n, n))
        m = (m + m.T) / 2
        mine = tridiag_eigvals(*tridiagonalize(m))
        ref = np.linalg.eigvalsh(m)
        assert np.abs(mine - ref).max() < 1e-10


def test_jacobi_cross_checks_primary_solver():
    # the reference is LAPACK's eigh (see lapack_eigenvalues for why not eigvalsh)
    rng = np.random.default_rng(1)
    for n in (5, 20, 60):
        m = rng.standard_normal((n, n))
        m = (m + m.T) / 2
        assert np.abs(np.linalg.eigh(m)[0] - tridiag_eigvals(*tridiagonalize(m))).max() < 1e-10


def test_tridiag_eigh_vectors():
    rng = np.random.default_rng(2)
    n = 30
    d = rng.standard_normal(n)
    e = rng.standard_normal(n - 1)
    vals, vecs = tridiag_eigh(d, e)
    m = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    assert np.abs(np.sort(np.linalg.eigvalsh(m)) - vals).max() < 1e-10
    for k in (0, n // 2, n - 1):
        r = m @ vecs[:, k] - vals[k] * vecs[:, k]
        assert np.sqrt(r @ r) < 1e-9


# diagonals drawn partly from a few values so they repeat; off-diagonals partly zero
DIAG = st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 2.0]), st.floats(-4, 4))
OFFDIAG = st.one_of(st.just(0.0), st.floats(-3, 3))
# mostly the top value 2, so the largest eigenvalues cluster
TOP_DIAG = st.one_of(st.just(2.0), st.sampled_from([-1.0, 0.0, 0.5]), st.floats(-4, 4))


def lapack_eigenvalues(d, e):
    """Reference eigenvalues of the tridiagonal (d, e), tests only.

    Through eigh, not eigvalsh: eigvalsh's eigenvalues-only LAPACK path is
    off by 4e-5 on d = (-1, 0, -1, -1, 0), e = (0, 1.9e-80, 1, 2), where
    eigh, the char polynomial and the Sturm counts agree."""
    return np.linalg.eigh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))[0]


@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(1, 40))
def test_single_ql_loop_paths_agree(data, n):
    d = np.array(data.draw(st.lists(DIAG, min_size=n, max_size=n)))
    e = np.array(data.draw(st.lists(OFFDIAG, min_size=n - 1, max_size=n - 1)))
    vals, vecs = tridiag_eigh(d, e)
    assert tridiag_eigvals(d, e).tobytes() == vals.tobytes()
    m = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    scale = max(np.abs(d).max(), np.abs(e).max(initial=0.0), 1.0)
    assert np.abs(lapack_eigenvalues(d, e) - vals).max() <= 1e-10 * scale


def symmetric_case(kind: str, n: int, seed: int) -> np.ndarray:
    """A symmetric test matrix of the given kind, drawn from a Philox seed."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    m = rng.standard_normal((n, n))
    m = (m + m.T) / 2
    if kind == "blocks":
        # contiguous diagonal blocks, and some rows and columns zeroed outright
        labels = np.sort(rng.integers(0, 4, size=n))
        m *= labels[:, None] == labels[None, :]
        zero = rng.random(n) < 0.2
        m[zero] = 0.0
        m[:, zero] = 0.0
    elif kind == "diagonal":
        m = np.diag(np.diag(m))
    elif kind == "tridiagonal":
        m = np.triu(np.tril(m, 1), -1)
    elif kind == "repeated":
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        m = (q * rng.choice([-1.0, 0.0, 0.5, 2.0], size=n)) @ q.T
        m = (m + m.T) / 2
    return m


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 2 * TRIDIAG_BLOCK + 5),
    kind=st.sampled_from(["dense", "blocks", "diagonal", "tridiagonal", "repeated"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_blocked_tridiagonalize_matches_lapack(n, kind, seed):
    # n runs past two panels, so first, middle and last panels of every width occur
    m = symmetric_case(kind, n, seed)
    d, e = tridiagonalize(m)
    assert d.shape == (n,) and e.shape == (n - 1,)
    scale = max(np.abs(m).max(), 1.0)
    assert np.abs(lapack_eigenvalues(d, e) - np.linalg.eigh(m)[0]).max() <= 1e-10 * scale
    # orthogonal similarity keeps the trace and the Frobenius norm
    assert abs(d.sum() - np.trace(m)) <= 1e-13 * n * scale
    fro2 = float((m * m).sum())
    assert abs((d * d).sum() + 2 * (e * e).sum() - fro2) <= 1e-13 * n * max(fro2, 1.0)


def test_tridiagonalize_holds_no_square_temporary():
    n = 512
    m = symmetric_case("dense", n, 7)
    tracemalloc.start()
    try:
        tridiagonalize(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    extra = peak - m.nbytes  # beyond the working copy of A
    # the panel [V W] and [W V], one slice of the update product and numpy's
    # copy of it for the in-place subtract into the strided trailing block
    assert extra <= 8 * n * (4 * TRIDIAG_BLOCK + 2 * TRIDIAG_SLICE) + 65536
    assert extra < m.nbytes / 2


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 40))
def test_sturm_count_matches_eigvalsh(data, n):
    d = np.array(data.draw(st.lists(DIAG, min_size=n, max_size=n)))
    e = np.array(data.draw(st.lists(OFFDIAG, min_size=n - 1, max_size=n - 1)))
    vals = lapack_eigenvalues(d, e)
    drawn = data.draw(st.lists(st.floats(-12, 12), max_size=6))
    # shifts just off each eigenvalue and between neighbours, where a count can slip
    near = np.concatenate([vals - 2e-8, vals + 2e-8, (vals[1:] + vals[:-1]) / 2])
    shifts = [s for s in [*drawn, *near] if np.abs(vals - s).min() > 1e-8]
    expect = [int((vals < s).sum()) for s in shifts]
    assert sturm_count(d, e, shifts).tolist() == expect


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 40))
def test_sturm_eigenvalue_matches_lapack(data, n):
    d = np.array(data.draw(st.lists(DIAG, min_size=n, max_size=n)))
    e = np.array(data.draw(st.lists(OFFDIAG, min_size=n - 1, max_size=n - 1)))
    vals = lapack_eigenvalues(d, e)
    scale = max(np.abs(d).max(), np.abs(e).max(initial=0.0), 1.0)
    j = data.draw(st.integers(1, n))  # the j-th largest
    assert abs(sturm_eigenvalue(d, e, n - j) - vals[n - j]) <= 1e-13 * scale


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(1, 40))
def test_inverse_iteration_residual(data, n):
    d = np.array(data.draw(st.lists(DIAG, min_size=n, max_size=n)))
    e = np.array(data.draw(st.lists(OFFDIAG, min_size=n - 1, max_size=n - 1)))
    m = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    scale = max(np.abs(d).max(), np.abs(e).max(initial=0.0), 1.0)
    j = data.draw(st.integers(1, n))
    for lam in [*lapack_eigenvalues(d, e), sturm_eigenvalue(d, e, n - j)]:
        x = inverse_iteration(d, e, lam)
        assert abs(x @ x - 1.0) <= 1e-14
        r = m @ x - lam * x
        assert np.sqrt(r @ r) <= 1e-12 * scale


def test_sturm_eigenvalue_of_zero_is_clean():
    # the bracket of a zero eigenvalue stops at an absolute width, not at pivmin
    for d, e in [([0.0, 0.0], [1.0]), ([0.0], []), ([1.0, 0.0, -1.0], [0.0, 0.0])]:
        vals = [sturm_eigenvalue(d, e, k) for k in range(len(d))]
        assert np.abs(vals - lapack_eigenvalues(d, e)).max() <= 1e-15
    lam = dense_lambda2(cycle_operator(4))
    assert abs(lam) <= 1e-15 and (lam == 0.0 or abs(lam) > 1e-300)
    with pytest.raises(ValueError):
        sturm_eigenvalue([0.0, 1.0], [0.5], 2)


def longdouble_top_eigenvalue(d, e) -> np.longdouble:
    """Largest eigenvalue of the tridiagonal (d, e) by Sturm bisection in
    np.longdouble, tests only.  It is finer than the double-precision results:
    over 4,000 draws like those of the test below, LAPACK was up to 8 eps ||T||
    from it, the implicit-shift QL this module once tested up to 10 and
    ``_top_ritz_pair`` up to 2.1; over 1,500 draws, ``sturm_eigenvalue`` up to 1.1."""
    ld = np.longdouble
    d = np.asarray(d, dtype=ld)
    e2 = np.asarray(e, dtype=ld) ** 2
    pivmin = np.finfo(ld).tiny * max(ld(1), e2.max(initial=ld(0)))
    reach = 2 * np.sqrt(e2.max(initial=ld(0))) + 1
    lo, hi = d.min() - reach, d.max() + reach
    while lo < (lo + hi) / 2 < hi:
        mid = (lo + hi) / 2
        below = 0
        q = ld(1)
        for i in range(d.size):
            q = d[i] - mid - (e2[i - 1] / q if i else 0)
            q = -pivmin if abs(q) <= pivmin else q
            below += q < 0
        lo, hi = (lo, mid) if below == d.size else (mid, hi)
    return (lo + hi) / 2


@settings(max_examples=80, deadline=None)
@given(data=st.data(), n=st.integers(1, 60))
def test_top_ritz_pair_matches_ql_and_lapack(data, n):
    # unreduced, as a Lanczos T_k is; diagonals drawn from a few values repeat,
    # so that with small off-diagonals the top eigenvalues cluster
    d = np.array(data.draw(st.lists(TOP_DIAG, min_size=n, max_size=n)))
    e = np.array(data.draw(st.lists(st.floats(1e-3, 3), min_size=n - 1, max_size=n - 1)))
    theta, y = eigen._top_ritz_pair(d.tolist(), e.tolist())
    m = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    lapack = lapack_eigenvalues(d, e)
    norm = np.abs(lapack).max()
    eps = np.finfo(float).eps
    floor = 2 * eigen._pivmin(e**2)  # the pivot floor moves theta off an exact 0
    if np.finfo(np.longdouble).nmant >= 63:  # long double finer than double
        assert abs(theta - longdouble_top_eigenvalue(d, e)) <= 4 * eps * norm + floor
    # the references' own error grows with n: up to 20 eps ||T|| from theta
    # at n <= 60 over 20,000 such draws (LAPACK and the former QL reference),
    # and at most 0.55 (4 + n) eps ||T||
    assert abs(theta - sturm_eigenvalue(d, e, n - 1)) <= (4 + n) * eps * norm + floor
    assert abs(theta - lapack[-1]) <= (4 + n) * eps * norm + floor
    r = m @ y - theta * y
    assert abs(y @ y - 1.0) <= 1e-14
    assert np.sqrt(r @ r) <= 1e-12 * norm + floor


def test_lanczos_on_explicit_matrix():
    rng = np.random.default_rng(3)
    n = 80
    m = rng.standard_normal((n, n))
    m = (m + m.T) / 2
    p = np.eye(n) - np.full((n, n), 1.0 / n)
    pmp = p @ m @ p  # the mean-zero operator P m P
    start = p @ rng.standard_normal(n)  # a mean-zero start: the subspace is the mean-zero one
    v0 = start.copy()
    lam, iters, resid, conv, ritz = lanczos_extreme(
        lambda v: pmp @ v, v0, tol=1e-11, max_iter=n - 1
    )
    assert not np.array_equal(v0, start)  # v0 is the run's workspace
    assert conv
    # reference: eigvalsh on the mean-zero subspace, through an orthonormal basis of it
    q = np.linalg.qr(np.column_stack([np.ones(n), rng.standard_normal((n, n - 1))]))[0][:, 1:]
    assert abs(lam - np.linalg.eigvalsh(q.T @ m @ q)[-1]) < 1e-9
    r = pmp @ ritz - lam * ritz
    assert abs(ritz.sum()) < 1e-12 and np.sqrt(r @ r) < 1e-9
    with pytest.raises(ValueError):
        lanczos_extreme(lambda v: pmp @ v, start, max_iter=0)
    with pytest.raises(ValueError, match="degenerate start vector"):
        lanczos_extreme(lambda v: pmp @ v, np.zeros(n))
    # v0 is the step buffer: a float32 one would round every step, an integer one fail late
    for bad in (start.astype(np.float32), np.ones(n, dtype=np.int64), start[:, None]):
        with pytest.raises(ValueError, match="1-d float64"):
            lanczos_extreme(lambda v: pmp @ v, bad)


def test_lanczos_without_projection():
    # no projection: a start with nonzero mean, and n iterations, reach the top of m
    rng = np.random.default_rng(5)
    n = 60
    m = rng.standard_normal((n, n))
    m = (m + m.T) / 2
    v0 = rng.standard_normal(n) + 1.0
    tol = 1e-11
    lam, iters, resid, conv, ritz = lanczos_extreme(lambda v: m @ v, v0, tol=tol, max_iter=n)
    assert conv and iters <= n
    assert abs(lam - np.linalg.eigvalsh(m)[-1]) <= tol
    r = m @ ritz - lam * ritz
    assert np.sqrt(r @ r) <= 1e-9


def test_lanczos_stays_in_the_callers_subspace():
    # block-diagonal m, v0 supported on one block: the Krylov space of v0 never
    # leaves that block, so the value is its top eigenvalue, not the global one
    rng = np.random.default_rng(6)
    sizes = (30, 40)
    blocks = [rng.standard_normal((k, k)) for k in sizes]
    blocks = [(b + b.T) / 2 for b in blocks]
    blocks[1] += 3.0 * np.eye(sizes[1])  # the global top lies in the other block
    n = sum(sizes)
    m = np.zeros((n, n))
    m[: sizes[0], : sizes[0]] = blocks[0]
    m[sizes[0] :, sizes[0] :] = blocks[1]
    v0 = np.zeros(n)
    v0[: sizes[0]] = rng.standard_normal(sizes[0])
    tol = 1e-11
    lam = lanczos_extreme(lambda v: m @ v, v0, tol=tol, max_iter=n)[0]
    top = np.linalg.eigvalsh(blocks[0])[-1]
    assert np.linalg.eigvalsh(m)[-1] > top + 1.0
    assert abs(lam - top) <= tol


def test_no_ql_on_the_lanczos_route(monkeypatch):
    # the whole-spectrum solvers are names for the benchmark tracer only:
    # stored-basis and three-term runs never call them
    def no_ql(*args, **kwargs):
        raise AssertionError("a whole-spectrum solver ran on the Lanczos route")

    monkeypatch.setattr(eigen, "tridiag_eigvals", no_ql)
    monkeypatch.setattr(eigen, "tridiag_eigh", no_ql)
    gens = standard_dense_pair_generators()
    rows = gap_sweep(gens, [13, 15], pair=False)
    assert [r["N"] for r in rows] == [2184, 2880]  # above DENSE_THRESHOLD: Lanczos
    monkeypatch.setattr(eigen, "STORE_BASIS_BUDGET", 0)
    (row,) = gap_sweep(gens, [13], pair=False)
    assert row["lambda2"] == pytest.approx(rows[0]["lambda2"], abs=1e-8)


def test_newton_cap_is_an_error(monkeypatch, tmp_path, capsys):
    # a top eigenvalue of T_k that Newton's method has not reached is never reported
    monkeypatch.setattr(eigen, "NEWTON_MAX_ITER", 1)
    with pytest.raises(ValueError, match=r"N=2184: Newton's method .* at k=5 "):
        gap_sweep(standard_dense_pair_generators(), [13], pair=False)
    assert main(["--out", str(tmp_path), "spectral", "--moduli", "13", "--no-pair"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: Lanczos at N=2184: Newton's method") and err.count("\n") == 1
    assert not list(tmp_path.glob("run-*"))


# ---------------------------------------------------------------------------
# Cayley operator basics


def test_apply_preserves_constants():
    op = cycle_operator(8)
    v = np.full(op.n, 3.7)
    assert np.abs(op.apply(v) - v).max() < 1e-14


def test_apply_is_local_average():
    op = cycle_operator(6)
    v = np.zeros(op.n)
    v[2] = 1.0
    w = op.apply(v)
    # mass 1/2 on each neighbor of vertex 2 under the cycle structure
    assert abs(w.sum() - 1.0) < 1e-14
    assert np.count_nonzero(w) == 2
    assert np.allclose(w[w > 0], 0.5)


def test_apply_dimension_mismatch():
    op = cycle_operator(5)
    with pytest.raises(ValueError):
        op.apply(np.zeros(4))


def test_self_adjointness():
    rng = np.random.default_rng(4)
    op = cayley_for_sl2_pair(standard_dense_pair_generators(), 5, 1)
    for _ in range(5):
        v = rng.standard_normal(op.n)
        w = rng.standard_normal(op.n)
        assert abs(op.apply(v) @ w - v @ op.apply(w)) < 1e-12


def test_coset_constant_functions_stay_coset_constant():
    # S-invariant subgroup: the cycle C_8 with S = {+-2} fixes the even/odd cosets
    ctx = PairContext(8, 1)
    gens = codes_of(ctx, [(1, 2, 0, 1, 0, 0, 0, 0), (1, 6, 0, 1, 0, 0, 0, 0)])
    full_cycle = CayleyOperator.build(
        ctx, gens, codes=cycle_operator(8).codes
    )
    b = full_cycle.ctx.decode(full_cycle.codes)[1] % 2  # coset labels
    v = np.where(b == 0, 2.0, -1.0)
    w = full_cycle.apply(v)
    assert np.allclose(w, v)


# ---------------------------------------------------------------------------
# lambda2: circulant closed form, dense oracle, disconnected case


@settings(max_examples=25, deadline=None)
@given(
    q=st.sampled_from([5, 7, 8, 9]),
    ks=st.lists(st.integers(-(2**70), 2**70), min_size=8, max_size=8),
)
def test_build_reduces_generator_entries(q, ks):
    # integral generators shifted by multiples of q, from small to far past
    # int64, encode to the same codes and build the same permutations
    ctx = PairContext(q, 1)
    gens = [(((1, 1), (0, 1)), IMAT_ID), (((1, -1), (0, 1)), IMAT_ID), (((1, 0), (1, 1)), IMAT_ID)]
    (a, b), (c, d) = gens[0][0]
    shift = [v + k * q for v, k in zip((a, b, c, d), ks)]
    shifted = [((tuple(shift[:2]), tuple(shift[2:])), IMAT_ID)] + gens[1:]
    codes = sl2_codes(q)
    ref = CayleyOperator.build(ctx, ctx.encode_intpairs(gens), codes=codes)
    op = CayleyOperator.build(ctx, ctx.encode_intpairs(shifted), codes=codes)
    assert op.gens.dtype == np.int64 and np.array_equal(op.gens, ref.gens)
    for p, r in zip(op.perms, ref.perms):
        assert p.dtype == r.dtype and np.array_equal(p, r)
    assert op.neighbor_table() == ref.neighbor_table()


def test_build_unreduced_overflow_regression():
    # congruent to (1,1,0,1) mod 7; unreduced it overflowed and raised KeyError
    ctx = PairContext(7, 1)
    g = ((1 + 7 * 2**60, 1 + 7 * 2**59), (7 * 2**60, 1 + 7 * 2**58))
    op = CayleyOperator.build(ctx, ctx.encode_intpairs([(g, IMAT_ID)]), codes=sl2_codes(7))
    ref = CayleyOperator.build(ctx, codes_of(ctx, [(1, 1, 0, 1, 0, 0, 0, 0)]), codes=sl2_codes(7))
    assert np.array_equal(op.gens, ref.gens)
    assert np.array_equal(op.perms[0], ref.perms[0])


@pytest.mark.parametrize(
    "name, q1, q2",
    [("stock", 5, 5), ("stock", 7, 1), ("stock", 4, 9), ("stock", 9, 9), ("stock", 16, 16),
     ("unit", 6, 6), ("unit", 8, 8), ("unit", 5, 7), ("unit", 1, 5)],
)
def test_kronecker_build_matches_index_sorted_build(name, q1, q2):
    # over <gens> the permutations are Kronecker sums of factor permutations
    # when <gens> = A x N2; given codes, they are index lookups in the codes
    base = standard_dense_pair_generators() if name == "stock" else unit_dense_pair_generators()
    ctx = PairContext(q1, q2)
    gens = ctx.encode_intpairs(symmetrize(base))
    op = CayleyOperator.build(ctx, gens)
    ref = CayleyOperator.build(ctx, gens, codes=generated_subgroup(ctx, gens))
    assert np.array_equal(op.codes, ref.codes)
    assert len(op.perms) == len(ref.perms) == len(gens)
    for got, want in zip(op.perms, ref.perms):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_lambda2_circulant_closed_form():
    for n in (4, 6, 9, 16, 33):
        op = cycle_operator(n)
        rep = lambda2(op, tol=1e-12, method="dense")
        assert abs(rep.lambda2 - math.cos(2 * math.pi / n)) < 1e-10
    rep6 = lambda2(cycle_operator(6), method="dense")
    assert abs(rep6.lambda2 - 0.5) < 1e-12


def test_lambda2_iterative_matches_dense():
    op = cayley_for_sl2_pair(standard_dense_pair_generators(), 5, 1)
    dense = lambda2(op, method="dense")
    it = lambda2(op, tol=1e-11, method="iterative", seed=3)
    assert abs(dense.lambda2 - it.lambda2) < 1e-8
    assert it.residual < 1e-9


def test_lambda2_sl2_f5_sanov_like():
    # S = {[[1,+-2],[0,1]], [[1,0],[+-2,1]]} on SL2(F5): matrix-free vs dense
    ctx = PairContext(5, 1)
    gens = codes_of(
        ctx,
        [
            (1, 2, 0, 1, 0, 0, 0, 0),
            (1, 3, 0, 1, 0, 0, 0, 0),
            (1, 0, 2, 1, 0, 0, 0, 0),
            (1, 0, 3, 1, 0, 0, 0, 0),
        ],
    )
    op = CayleyOperator.build(ctx, gens)
    assert op.n == 120
    dense = dense_lambda2(op)
    rep = lambda2(op, tol=1e-11, method="iterative", seed=1)
    assert abs(rep.lambda2 - dense) < 1e-8


@pytest.mark.parametrize("shift", [1e-6, -1e-6])
def test_dense_lambda2_off_its_eigenvector_check_is_an_error(monkeypatch, tmp_path, capsys, shift):
    op = cayley_for_sl2_pair(standard_dense_pair_generators(), 5, 1)
    assert abs(dense_lambda2(op) - (1 + math.sqrt(5)) / 4) < 1e-14

    def shifted(d, e, k):
        return eigen.sturm_eigenvalue(d, e, k) + shift

    monkeypatch.setattr(spectral, "sturm_eigenvalue", shifted)
    with pytest.raises(ValueError, match="fails its eigenvector check"):
        dense_lambda2(op)
    # the CLI reports it as an error and writes no run directory
    assert main(["--out", str(tmp_path), "spectral", "--moduli", "5", "--no-pair"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: dense lambda2=") and err.count("\n") == 1
    assert not list(tmp_path.glob("run-*"))


def test_dense_row_reports_its_checked_residual():
    # the residual of a dense row is the ||Tx - lambda2 x|| its eigenvector check accepted
    op = cayley_for_sl2_pair(standard_dense_pair_generators(), 5, 1)
    rep = lambda2(op, method="dense")
    lam, checked = spectral._checked_dense_lambda2(op)
    assert rep.lambda2 == lam and rep.residual == checked
    assert 0.0 < checked <= spectral.RESIDUAL_DELTA
    # the same norm, formed through the dense tridiagonal
    d, e = tridiagonalize(op.dense_matrix())
    x = inverse_iteration(d, e, lam)
    r = (np.diag(d) + np.diag(e, 1) + np.diag(e, -1)) @ x - lam * x
    assert abs(checked - np.sqrt(r @ r)) <= 1e-15
    (row,) = gap_sweep(standard_dense_pair_generators(), [5], pair=False)
    assert row["residual"] == checked


def test_lambda2_disconnected_is_one():
    # proper subgroup generators on the full group: eigenvalue 1 multiplies
    ctx = PairContext(5, 1)
    gens = codes_of(ctx, [(2, 0, 0, 3, 0, 0, 0, 0), (3, 0, 0, 2, 0, 0, 0, 0)])
    op = CayleyOperator.build(ctx, gens, codes=sl2_codes(5))
    rep = lambda2(op, method="dense")
    assert abs(rep.lambda2 - 1.0) < 1e-10


def test_lambda2_doubling_generators_invariant():
    op1 = cayley_for_sl2_pair(standard_dense_pair_generators(), 3, 3)
    doubled = standard_dense_pair_generators() * 2
    op2 = cayley_for_sl2_pair(doubled, 3, 3)
    a = lambda2(op1, method="dense").lambda2
    b = lambda2(op2, method="dense").lambda2
    assert abs(a - b) < 1e-12


def test_lambda2_quotient_monotonicity():
    # for q' | q the quotient eigenfunctions lift: lambda2(q') <= lambda2(q) + tol
    gens = standard_dense_pair_generators()
    lam = {}
    for q in (3, 6, 12):
        op = cayley_for_sl2_pair(gens, q, 1)
        lam[q] = lambda2(op, method="dense").lambda2
    assert lam[3] <= lam[6] + 1e-9
    assert lam[6] <= lam[12] + 1e-9
    assert lam[3] <= lam[12] + 1e-9


U, L = ((1, 1), (0, 1)), ((1, 0), (1, 1))
UI, LI = ((1, -1), (0, 1)), ((1, 0), (-1, 1))
# closed under inverse as a set, not as a multiset: (U, L) occurs twice, its inverse once
UNBALANCED = [(U, L), (U, L), (UI, LI), (L, U), (LI, UI)]


def test_lambda2_rejects_generators_not_closed_under_inverse():
    for q in (5, 7):
        op = cayley_for_sl2_pair(UNBALANCED, q, 1)
        assert op.degree == 5 and not np.array_equal(np.sort(op.gens), np.sort(op.ctx.inv(op.gens)))
        for method in ("dense", "iterative"):
            with pytest.raises(ValueError, match="closed under inverse"):
                lambda2(op, method=method)
    # the same set with the multiplicities balanced is accepted
    op = cayley_for_sl2_pair(UNBALANCED + [(UI, LI)], 5, 1)
    assert lambda2(op, method="dense").lambda2 < 1.0


def test_build_rejects_codes_not_sl2_pairs():
    # 2 is the singular [[0, 0], [0, 2]] mod 5; -1 and 625 lie outside [0, 5^4)
    ctx = PairContext(5, 1)
    for bad in (2, -1, 625):
        gens = np.array([ctx.identity_code(), bad])
        with pytest.raises(ValueError, match="not codes of SL2 pairs"):
            CayleyOperator.build(ctx, gens)
        with pytest.raises(ValueError, match="not codes of SL2 pairs"):
            CayleyOperator.build(ctx, gens, codes=sl2_codes(5))


def test_lambda2_rejects_trivial_group():
    op = cycle_operator(1)
    with pytest.raises(ValueError):
        lambda2(op)


# ---------------------------------------------------------------------------
# Cheeger


def test_cheeger_exact_cycle8():
    assert cheeger_exact(cycle_operator(8)) == Fraction(1, 2)


def test_cheeger_exact_complete6():
    # h = |S| - (|A| - 1) minimized at |A| = 3: frozen value 3
    assert cheeger_exact(unipotent_k6()) == Fraction(3, 1)


def test_cheeger_exact_two_vertices():
    ctx = PairContext(6, 1)
    op = CayleyOperator.build(ctx, codes_of(ctx, [(1, 3, 0, 1, 0, 0, 0, 0)]))
    assert op.n == 2
    assert cheeger_exact(op) == Fraction(1, 1)


def test_cheeger_exact_brute_force_cross_check():
    # independent oracle: direct enumeration over all subsets, no Gray code
    op = cycle_operator(7)
    nb = op.neighbor_table()
    n = op.n
    best = None
    for mask in range(1, 1 << n):
        size = mask.bit_count()
        if size * 2 > n:
            continue
        boundary = 0
        for x in range(n):
            if mask >> x & 1:
                boundary += sum(1 for u in nb[x] if not mask >> u & 1)
        r = Fraction(boundary, size)
        if best is None or r < best:
            best = r
    assert cheeger_exact(op) == best


def test_cheeger_exact_cap():
    with pytest.raises(ValueError):
        cheeger_exact(cycle_operator(40))


def test_cheeger_bounds_examples():
    lo, hi = cheeger_bounds(1.0, 4)
    assert lo == 0.0 and hi == 0.0
    lo, hi = cheeger_bounds(-1.0, 1)
    assert lo == 1.0
    lo, hi = cheeger_bounds(math.cos(2 * math.pi / 8), 2)
    assert lo <= 0.5 <= hi  # brackets cheeger_exact of C_8
    with pytest.raises(ValueError):
        cheeger_bounds(1.5, 2)


def test_cheeger_sandwich_on_small_instances():
    rng = random.Random(9)
    for n in (5, 8, 12):
        op = cycle_operator(n)
        rep = lambda2(op, method="dense")
        h = cheeger_exact(op)
        assert rep.cheeger_lower <= float(h) + 1e-12
        assert float(h) <= rep.cheeger_upper + 1e-12


# ---------------------------------------------------------------------------
# gap_sweep


def test_gap_sweep_single_modulus():
    rows = gap_sweep(standard_dense_pair_generators(), [5], pair=False)
    assert len(rows) == 1
    assert rows[0]["q"] == 5 and rows[0]["N"] == 120
    assert 0.0 < rows[0]["lambda2"] < 1.0


def test_gap_sweep_empty():
    assert gap_sweep(standard_dense_pair_generators(), []) == []


def test_gap_sweep_prime_columns():
    rows = gap_sweep(standard_dense_pair_generators(), [5, 7], pair=False, method="dense")
    assert [r["q"] for r in rows] == [5, 7]
    for r in rows:
        assert r["lambda2"] < 0.995


def test_gap_sweep_rejects_unconverged_lambda2(monkeypatch):
    # an unconverged Lanczos run is an error, never a row of the table
    def stalled(matvec, v0, **kwargs):
        return 0.5, 7, 1e-3, False, None

    monkeypatch.setattr(spectral, "lanczos_extreme", stalled)
    with pytest.raises(ValueError, match="did not converge"):
        gap_sweep(standard_dense_pair_generators(), [5], pair=False, method="iterative")
