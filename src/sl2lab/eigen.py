"""In-repo symmetric eigensolvers for the spectral routes.

Each question has one route, and no run path calls LAPACK:

- The dense lambda2.  A blocked Householder tridiagonalization
  (``tridiagonalize``, the dsytrd/dlatrd panel scheme, its matrix products
  through numpy ``@`` on BLAS), then Sturm multisection on the tridiagonal
  (``sturm_eigenvalue``): ``sturm_count`` counts the eigenvalues below given
  shifts by the inertia of an LDL^T factorization, and the counts alone
  locate the one eigenvalue asked for.  ``inverse_iteration`` gives a vector
  x for that value on the same tridiagonal, and a small residual
  ||Tx - lambda x|| proves an eigenvalue close by.
- Lanczos (``lanczos_extreme``).  The top eigenvalue theta of T_k by
  Newton's method from above and its vector y by ``inverse_iteration``
  (``_top_ritz_pair``), both in O(k).  theta is the value, beta_k |y_k| is
  the residual that decides every stop, and the Ritz vector is the basis
  times y.

Implicit-shift QL is gone.  ``tridiag_eigvals`` and ``tridiag_eigh`` remain
only as names the benchmark tracer wraps, rebuilt on ``sturm_eigenvalue``
and ``inverse_iteration``; no run path calls them.  The tests' reference is
LAPACK through numpy.
"""

from __future__ import annotations

import math

import numpy as np

STORE_BASIS_BUDGET = 30_000_000  # floats of Lanczos basis kept for reorthogonalization
TRIDIAG_BLOCK = 32  # Householder reflectors per panel of the blocked reduction
TRIDIAG_SLICE = 32  # trailing-block rows per product of the rank-2b panel update
NEWTON_MAX_ITER = 200  # Newton steps allowed for the top eigenvalue of a Lanczos tridiagonal
STURM_SHIFTS = 127  # shifts counted per multisection pass: the bracket shrinks 128-fold


def tridiagonalize(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Blocked Householder reduction of a symmetric matrix to (diag, offdiag).

    Dongarra, Hammarling and Sorensen (1989), the scheme of LAPACK
    dsytrd/dlatrd.  A panel of ``TRIDIAG_BLOCK`` reflectors H = I - tau v v^T
    is built against the trailing block as it stood before the panel, with
    H..H A H..H = A - V W^T - W V^T: column k is first brought up to date
    with the panel's earlier reflectors, and its reflector adds v to V and
    w = p - (tau / 2) (p^T v) v to W, where p = tau (A - V W^T - W V^T) v.
    The panel then leaves as one rank-2b update A -= [V W] [W V]^T of the
    trailing block, ``TRIDIAG_SLICE`` rows at a time, so besides the working
    copy of A only the panel (n x 4b) and one slice of the product are held.
    """
    A = np.array(A, dtype=float)
    n = A.shape[0]
    if n == 1:
        return np.diag(A).copy(), np.zeros(0)
    d = np.empty(n)
    e = np.empty(n - 1)
    b = TRIDIAG_BLOCK
    VW = np.empty((n, 2 * b))  # [V W]
    WV = np.empty((n, 2 * b))  # [W V]
    V, W = VW[:, :b], VW[:, b:]
    for j0 in range(0, n - 2, b):
        j1 = min(j0 + b, n - 2)
        VW[j0:] = 0.0
        WV[j0:] = 0.0
        for k in range(j0, j1):
            i = k - j0
            A[k:, k] -= V[k:, :i] @ W[k, :i] + W[k:, :i] @ V[k, :i]
            d[k] = A[k, k]
            x = A[k + 1 :, k]
            nx = float(np.sqrt(x @ x))
            if nx == 0.0:
                e[k] = 0.0
                continue
            alpha = -nx if x[0] >= 0 else nx
            e[k] = alpha
            v = x.copy()
            v[0] -= alpha
            vnorm2 = float(v @ v)
            if vnorm2 == 0.0:
                continue
            Vk, Wk = V[k + 1 :, :i], W[k + 1 :, :i]
            w = A[k + 1 :, k + 1 :] @ v
            w -= Vk @ (Wk.T @ v)
            w -= Wk @ (Vk.T @ v)
            w *= 2.0 / vnorm2
            w -= ((v @ w) / vnorm2) * v
            VW[k + 1 :, i] = WV[k + 1 :, b + i] = v
            VW[k + 1 :, b + i] = WV[k + 1 :, i] = w
        S, U, Z = A[j1:, j1:], VW[j1:], WV[j1:]
        for r in range(0, n - j1, TRIDIAG_SLICE):
            S[r : r + TRIDIAG_SLICE] -= U[r : r + TRIDIAG_SLICE] @ Z.T
    d[n - 2 :] = A[n - 2 :, n - 2 :].diagonal()
    e[n - 2] = A[n - 1, n - 2]
    return d, e


def _pivmin(e2) -> float:
    """Smallest pivot magnitude of an LDL^T recurrence with squared off-diagonals
    e2: scaled with max e^2 so that e^2 / pivmin cannot overflow (LAPACK dlaebz)."""
    return float(np.finfo(float).tiny * max(1.0, np.max(e2, initial=0.0)))


def _gershgorin(d, e) -> tuple[float, float]:
    """An interval holding every eigenvalue of the symmetric tridiagonal (d, e)."""
    d = np.asarray(d, dtype=float)
    e = np.abs(np.asarray(e, dtype=float))
    radius = np.zeros(d.size)
    radius[:-1] += e
    radius[1:] += e
    return float((d - radius).min()), float((d + radius).max())


def sturm_count(d: np.ndarray, e: np.ndarray, shifts) -> np.ndarray:
    """Number of eigenvalues of the symmetric tridiagonal (d, e) below each shift.

    Sylvester's inertia of T - s I = L D L^T: the count of negative pivots
    q_i = d_i - s - e_{i-1}^2 / q_{i-1}, run for all shifts at once.  A pivot
    with |q_i| <= pivmin becomes -pivmin (LAPACK dlaebz), which keeps every
    quotient finite.
    """
    d = np.asarray(d, dtype=float)
    e2 = np.square(np.asarray(e, dtype=float))
    shifts = np.asarray(shifts, dtype=float)
    pivmin = _pivmin(e2)
    count = np.zeros(shifts.shape, dtype=np.int64)
    for i in range(d.size):
        q = d[i] - shifts - (e2[i - 1] / q if i else 0.0)
        q = np.where(np.abs(q) <= pivmin, -pivmin, q)
        count += q < 0
    return count


def sturm_eigenvalue(d: np.ndarray, e: np.ndarray, k: int) -> float:
    """The k-th smallest eigenvalue (k = 0, 1, ...) of the symmetric tridiagonal (d, e).

    Multisection on ``sturm_count`` (LAPACK dstebz): the bracket [lo, hi)
    starts as the widened Gershgorin interval and always has at most k
    eigenvalues below lo and more than k below hi.  Each pass counts at
    ``STURM_SHIFTS`` evenly spaced shifts inside it and keeps the gap between
    the last shift with at most k below and the first with more, until the
    bracket is no wider than eps ||T|| + 2 pivmin.  That width is absolute,
    so the bracket of a zero eigenvalue stops within eps ||T|| of 0 and does
    not close in on a pivmin-sized endpoint.  Returns the bracket's midpoint.
    """
    d = np.asarray(d, dtype=float)
    e = np.asarray(e, dtype=float)
    n = d.size
    if not 0 <= k < n:
        raise ValueError(f"eigenvalue index {k} outside 0..{n - 1}")
    lo, hi = _gershgorin(d, e)
    eps = float(np.finfo(float).eps)
    tnorm = max(abs(lo), abs(hi))
    pivmin = _pivmin(np.square(e))
    pad = 2.0 * n * eps * tnorm + 4.0 * pivmin  # the counts' own error, as dstebz widens
    lo, hi = lo - pad, hi + pad
    width = eps * tnorm + 2.0 * pivmin
    fractions = np.arange(1, STURM_SHIFTS + 1) / (STURM_SHIFTS + 1)
    while hi - lo > width:
        shifts = lo + (hi - lo) * fractions
        above = sturm_count(d, e, shifts) > k
        i = int(np.argmax(above)) if above.any() else shifts.size  # first shift past it
        edges = (lo, *shifts.tolist(), hi)
        bracket = (edges[i], edges[i + 1])
        if bracket == (lo, hi):  # no float strictly inside: as narrow as it gets
            break
        lo, hi = bracket
    return 0.5 * (lo + hi)


def inverse_iteration(d, e, lam: float) -> np.ndarray:
    """Unit eigenvector estimate of the symmetric tridiagonal (d, e) for lam.

    Two solves of (T - lam I) x' = x from a fixed pseudo-random start, by
    Gaussian elimination with partial pivoting (LAPACK dgttrf/dgttrs) over
    Python floats, O(n) each.  A pivot below eps ||T|| is raised to that
    floor, so lam may be an eigenvalue to working precision.  By Weyl's
    bound, ||T x - lam x|| <= delta proves an eigenvalue within delta of lam.
    """
    d = np.asarray(d, dtype=float)
    e = np.asarray(e, dtype=float)
    a = (d - lam).tolist()
    c = e.tolist()  # subdiagonal, then the multipliers
    b = list(c)  # superdiagonal of U
    n = len(a)
    f = [0.0] * n  # second superdiagonal of U, filled by interchanges
    swap = [False] * n
    for i in range(n - 1):
        if abs(a[i]) >= abs(c[i]):
            c[i] = c[i] / a[i] if a[i] else 0.0
            a[i + 1] -= c[i] * b[i]
        else:
            m = a[i] / c[i]
            a[i], c[i] = c[i], m
            b[i], a[i + 1] = a[i + 1], b[i] - m * a[i + 1]
            if i < n - 2:
                f[i] = b[i + 1]
                b[i + 1] = -m * f[i]
            swap[i] = True
    tnorm = float(np.abs(d).max() + 2.0 * np.abs(e).max(initial=0.0))  # >= ||T||
    floor = max(float(np.finfo(float).eps) * tnorm, float(np.finfo(float).tiny))
    a = [v if abs(v) >= floor else math.copysign(floor, v) for v in a]
    x = np.random.Generator(np.random.Philox(key=0)).uniform(-1.0, 1.0, n).tolist()
    for _ in range(2):
        for i in range(n - 1):
            if swap[i]:
                x[i], x[i + 1] = x[i + 1], x[i] - c[i] * x[i + 1]
            else:
                x[i + 1] -= c[i] * x[i]
        x[n - 1] /= a[n - 1]
        if n > 1:
            x[n - 2] = (x[n - 2] - b[n - 2] * x[n - 1]) / a[n - 2]
        for i in range(n - 3, -1, -1):
            x[i] = (x[i] - b[i] * x[i + 1] - f[i] * x[i + 2]) / a[i]
        top = max(map(abs, x))
        x = [v / top for v in x]
    x = np.array(x)
    return x / np.sqrt(x @ x)


def tridiag_eigvals(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric tridiagonal matrix, ascending, each by
    ``sturm_eigenvalue``.  No run path calls it: it stays while the benchmark
    tracer names it, and goes with that span at the next change to the benchmark."""
    return np.array([sturm_eigenvalue(d, e, k) for k in range(np.size(d))])


def tridiag_eigh(d: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``tridiag_eigvals`` and one ``inverse_iteration`` vector per eigenvalue,
    as columns.  No run path calls it: it stays while the benchmark tracer
    names it, and goes with that span at the next change to the benchmark."""
    vals = tridiag_eigvals(d, e)
    return vals, np.column_stack([inverse_iteration(d, e, lam) for lam in vals])


def _top_ritz_pair(alphas, betas) -> tuple[float, np.ndarray]:
    """The largest eigenvalue theta of T_k = tridiag(alphas, betas) and a unit
    eigenvector y for it, in O(k).

    theta comes from Newton's method from above on det(T_k - theta I) =
    prod q_i, the pivots of T_k - theta I = L D L^T: from a Gershgorin bound,
    each step theta -= 1 / sum(q_i' / q_i) = 1 / sum_j 1 / (theta - theta_j)
    stays at or above the largest root and approaches it monotonically.
    ValueError if it takes more than ``NEWTON_MAX_ITER`` steps.  y is
    ``inverse_iteration`` at theta; the closed form y_k^2 = 1 / |q_k'(theta)|
    of its last entry loses every digit near convergence.
    """
    b2 = [b * b for b in betas]
    theta = _gershgorin(alphas, betas)[1]
    eps = float(np.finfo(float).eps)
    pivmin = _pivmin(b2)
    for _ in range(NEWTON_MAX_ITER):
        q = alphas[0] - theta
        dq = -1.0
        total = 0.0
        for i in range(len(alphas)):
            if i:
                t = b2[i - 1] / q
                dq = -1.0 + t * dq / q
                q = alphas[i] - theta - t
            if abs(q) <= pivmin:
                q = -pivmin
            total += dq / q
        step = 1.0 / total if total > 0.0 else 0.0  # total <= 0: rounding stepped below the root
        if not step > 2.0 * eps * abs(theta):
            break
        theta -= step
    else:
        raise ValueError(
            f"Newton's method did not reach the top eigenvalue of T_k at k={len(alphas)} "
            f"in {NEWTON_MAX_ITER} steps"
        )
    return theta, inverse_iteration(alphas, betas, theta)


def lanczos_extreme(matvec, v0: np.ndarray, tol: float = 1e-10, max_iter: int = 2000):
    """Largest (signed) eigenvalue of a symmetric operator on the Krylov space of v0.

    The caller supplies the subspace: the start vector ``v0``, and a
    ``matvec`` that keeps to the subspace, so that the Krylov space of ``v0``
    never leaves it (Parlett, *The Symmetric Eigenvalue Problem*, ch. 13).
    ``v0`` is overwritten: its storage is the run's scratch vector, so a run
    holds no vector beyond those it works with, even while the caller keeps
    ``v0``.  At most ``min(max_iter, v0.size)`` iterations.  Full
    reorthogonalization whenever the basis fits in ``STORE_BASIS_BUDGET``
    floats; otherwise plain three-term Lanczos, which still resolves the
    extreme eigenvalue of gapped operators.

    Returns (value, iterations, residual, converged, ritz_vector_or_None).
    """
    if v0.dtype != np.float64 or v0.ndim != 1:
        raise ValueError(f"v0 must be a 1-d float64 array; got {v0.dtype} {v0.shape}")
    n = v0.size
    nv = float(np.sqrt(v0 @ v0))
    if nv == 0.0:
        raise ValueError("degenerate start vector")
    v = v0 / nv

    max_basis = min(max_iter, n)
    if max_basis < 1:
        raise ValueError("Lanczos needs at least one iteration")
    keep_basis = n * max_basis <= STORE_BASIS_BUDGET
    if keep_basis:
        # rows are written as the basis grows; the pages of unwritten rows are never touched
        basis = np.empty((max_basis, n))
        basis[0] = v
    v_prev = np.zeros(n)
    # the three-term step runs through this buffer, v0's storage, and spends
    # v_prev, so an iteration allocates no vector beyond the one matvec returns
    step = v0
    alphas: list[float] = []
    betas: list[float] = []
    beta = 0.0
    check_every = 5

    for k in range(1, max_basis + 1):
        w = matvec(v)
        alpha = float(v @ w)
        alphas.append(alpha)
        np.multiply(alpha, v, out=step)
        np.multiply(beta, v_prev, out=v_prev)
        np.add(step, v_prev, out=step)
        w -= step  # w -= alpha * v + beta * v_prev
        if keep_basis:
            B = basis[:k].T
            w -= B @ (B.T @ w)
            w -= B @ (B.T @ w)
        beta = float(np.sqrt(w @ w))
        invariant = beta <= 1e-14
        if k % check_every == 0 or beta <= tol * 1e-3 or invariant or k == max_basis:
            try:
                theta, y = _top_ritz_pair(alphas, betas)
            except ValueError as exc:
                raise ValueError(f"Lanczos at N={n}: {exc}") from None
            # the Ritz vector x = V_k y has ||A x - theta x|| = beta_k |y_k|
            resid = abs(beta * float(y[-1]))
            converged = resid <= tol or invariant
            if converged or k == max_basis:
                break
        betas.append(beta)
        w /= beta
        v_prev, v = v, w
        if keep_basis:
            basis[k] = v

    ritz = None
    if keep_basis:
        ritz = basis[:k].T @ y
        rn = float(np.sqrt(ritz @ ritz))
        if rn > 0:
            ritz /= rn
    return theta, k, resid, converged, ritz
