"""In-repo symmetric eigensolvers used as the dense spectral oracle.

The primary dense path is a blocked Householder tridiagonalization
(``tridiagonalize``, the dsytrd/dlatrd panel scheme, its matrix products
through numpy ``@`` on BLAS) followed by implicit-shift QL on the
tridiagonal; a classical cyclic Jacobi sweep is kept as an independent
cross-check for small matrices.  No LAPACK calls anywhere on the oracle path.

One QL loop (``_ql``) serves every tridiagonal solve: the dense oracle
(eigenvalues only), the Lanczos convergence check (eigenvalues and the last
row of the eigenvector matrix, which gives the residual beta_k |s_k|) and
Ritz vectors (the full eigenvector matrix, built only when asked for).

``sturm_count`` counts the eigenvalues of a tridiagonal below given shifts
by the inertia of its LDL^T factorization (bisection's test, no iteration),
so the oracle checks the eigenvalue QL returns against the same tridiagonal
by a second route.
"""

from __future__ import annotations

import numpy as np

QL_MAX_ITER = 100  # QL sweeps allowed per eigenvalue
STORE_BASIS_BUDGET = 30_000_000  # floats of Lanczos basis kept for reorthogonalization
TRIDIAG_BLOCK = 32  # Householder reflectors per panel of the blocked reduction
TRIDIAG_SLICE = 32  # trailing-block rows per product of the rank-2b panel update


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


def sturm_count(d: np.ndarray, e: np.ndarray, shifts) -> np.ndarray:
    """Number of eigenvalues of the symmetric tridiagonal (d, e) below each shift.

    Sylvester's inertia of T - s I = L D L^T: the count of negative pivots
    q_i = d_i - s - e_{i-1}^2 / q_{i-1}, run for all shifts at once.  A pivot
    with |q_i| <= pivmin becomes -pivmin (LAPACK dlaebz), which keeps every
    quotient finite; pivmin scales with max e^2 so e^2 / pivmin cannot overflow.
    """
    d = np.asarray(d, dtype=float)
    e2 = np.square(np.asarray(e, dtype=float))
    shifts = np.asarray(shifts, dtype=float)
    pivmin = np.finfo(float).tiny * max(1.0, e2.max(initial=0.0))
    count = np.zeros(shifts.shape, dtype=np.int64)
    for i in range(d.size):
        q = d[i] - shifts - (e2[i - 1] / q if i else 0.0)
        q = np.where(np.abs(q) <= pivmin, -pivmin, q)
        count += q < 0
    return count


def _ql(d, e, z: np.ndarray | None = None):
    """Implicit-shift QL on the symmetric tridiagonal (d, e), over Python floats.

    Returns the eigenvalues in ascending order, the last row of the
    eigenvector matrix in the same order (carried through every rotation as
    two floats), and ``z`` with every rotation applied to its columns, or
    None when no ``z`` is passed (pass the identity for the eigenvectors).
    """
    d = np.array(d, dtype=float)
    n = d.size
    ee = np.zeros(n)
    ee[: n - 1] = e
    eps = np.finfo(float).eps
    # absolute deflation floor: clustered zero eigenvalues make the relative
    # test unreachable; dropping |e| <= eps*|A| perturbs eigenvalues by <= n*eps*|A|
    floor = eps * max(np.abs(d).max(initial=0.0), np.abs(ee).max(initial=0.0), 1e-300)
    d = d.tolist()
    ee = ee.tolist()
    last = [0.0] * n
    if n:
        last[-1] = 1.0
    for l in range(n):
        for _ in range(QL_MAX_ITER):
            m = l
            while m < n - 1:
                dd = abs(d[m]) + abs(d[m + 1])
                if abs(ee[m]) <= max(eps * dd, floor):
                    break
                m += 1
            if m == l:
                break
            g = (d[l + 1] - d[l]) / (2.0 * ee[l])
            r = float(np.hypot(g, 1.0))
            g = d[m] - d[l] + ee[l] / (g + (r if g >= 0 else -r))
            s = c = 1.0
            p = 0.0
            underflow = False
            for i in range(m - 1, l - 1, -1):
                f = s * ee[i]
                b = c * ee[i]
                r = float(np.hypot(f, g))
                ee[i + 1] = r
                if r == 0.0:
                    d[i + 1] -= p
                    ee[m] = 0.0
                    underflow = True
                    break
                s = f / r
                c = g / r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
                # accumulate the rotation into the eigenvector matrix
                zi, zi1 = last[i], last[i + 1]
                last[i + 1] = s * zi + c * zi1
                last[i] = c * zi - s * zi1
                if z is not None:
                    col_i = z[:, i].copy()
                    col_i1 = z[:, i + 1].copy()
                    z[:, i + 1] = s * col_i + c * col_i1
                    z[:, i] = c * col_i - s * col_i1
            if not underflow:
                d[l] -= p
                ee[l] = g
                ee[m] = 0.0
        else:
            raise RuntimeError("QL iteration failed to converge")
    d = np.array(d)
    order = np.argsort(d)
    return d[order], np.array(last)[order], None if z is None else z[:, order]


def tridiag_eigvals(d: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric tridiagonal matrix, sorted ascending."""
    return _ql(d, e)[0]


def tridiag_eigh(d: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvector columns of a symmetric tridiagonal."""
    vals, _, vecs = _ql(d, e, np.eye(np.size(d)))
    return vals, vecs


def symmetric_eigenvalues(A: np.ndarray) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, sorted ascending."""
    d, e = tridiagonalize(A)
    return tridiag_eigvals(d, e)


def jacobi_eigenvalues(A: np.ndarray, tol: float = 1e-13, max_sweeps: int = 60) -> np.ndarray:
    """Cyclic Jacobi with threshold; independent cross-check for small N."""
    A = np.array(A, dtype=float)
    n = A.shape[0]
    for sweep in range(max_sweeps):
        # summed directly: subtracting the diagonal's share of |A|^2 loses small off-diagonals
        off = float(np.sqrt(((A - np.diag(np.diag(A))) ** 2).sum()))
        if off <= tol:
            break
        thresh = off / n if sweep < 3 else 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[p, q]
                if abs(apq) <= thresh or apq == 0.0:
                    continue
                tau = (A[q, q] - A[p, p]) / (2.0 * apq)
                t = (1.0 if tau >= 0 else -1.0) / (abs(tau) + float(np.hypot(tau, 1.0)))
                c = 1.0 / float(np.hypot(t, 1.0))
                s = t * c
                rp = A[p, :].copy()
                rq = A[q, :].copy()
                A[p, :] = c * rp - s * rq
                A[q, :] = s * rp + c * rq
                cp = A[:, p].copy()
                cq = A[:, q].copy()
                A[:, p] = c * cp - s * cq
                A[:, q] = s * cp + c * cq
    return np.sort(np.diag(A))


def lanczos_extreme(
    matvec,
    n: int,
    seed: int = 0,
    tol: float = 1e-10,
    max_iter: int = 2000,
    deflate_constants: bool = True,
):
    """Largest (signed) eigenvalue of a symmetric operator on mean-zero vectors.

    Full reorthogonalization whenever the basis fits in ``STORE_BASIS_BUDGET``
    floats; otherwise plain three-term Lanczos, which still resolves the
    extreme eigenvalue of gapped operators.  Deterministic for a fixed seed.

    Returns (value, iterations, residual, converged, ritz_vector_or_None).
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    v = rng.standard_normal(n)
    if deflate_constants:
        v -= v.mean()
    nv = float(np.sqrt(v @ v))
    if nv == 0.0:
        raise ValueError("degenerate start vector")
    v /= nv

    max_basis = min(max_iter, n - 1 if deflate_constants else n)
    if max_basis < 1:
        raise ValueError("Lanczos needs at least one iteration")
    keep_basis = n * max_basis <= STORE_BASIS_BUDGET
    basis = [v.copy()] if keep_basis else None
    v_prev = np.zeros(n)
    # the three-term step runs through this buffer and spends v_prev, so an
    # iteration allocates no vector beyond the one matvec returns
    step = np.empty(n)
    alphas: list[float] = []
    betas: list[float] = []
    beta = 0.0
    check_every = 5

    for k in range(1, max_basis + 1):
        w = matvec(v)
        if deflate_constants:
            w -= w.mean()
        alpha = float(v @ w)
        alphas.append(alpha)
        np.multiply(alpha, v, out=step)
        np.multiply(beta, v_prev, out=v_prev)
        np.add(step, v_prev, out=step)
        w -= step  # w -= alpha * v + beta * v_prev
        if keep_basis:
            B = np.asarray(basis).T
            w -= B @ (B.T @ w)
            w -= B @ (B.T @ w)
        beta = float(np.sqrt(w @ w))
        invariant = beta <= 1e-14
        if k % check_every == 0 or beta <= tol * 1e-3 or invariant or k == max_basis:
            # ||T y - theta y|| = beta_k |s_k|: the last row is all the check needs
            vals, last, _ = _ql(alphas, betas)
            top = int(np.argmax(vals))
            resid = abs(beta * float(last[top]))
            converged = resid <= tol or invariant
            if converged or k == max_basis:
                break
        betas.append(beta)
        w /= beta
        v_prev, v = v, w
        if keep_basis:
            basis.append(v.copy())

    ritz = None
    if keep_basis:
        ritz = np.asarray(basis).T @ tridiag_eigh(alphas, betas)[1][:, top]
        rn = float(np.sqrt(ritz @ ritz))
        if rn > 0:
            ritz /= rn
    return float(vals[top]), k, resid, converged, ritz
