"""Correctness checks for the benchmark's outputs.

Every check compares an output of sl2lab with an independent computation or
a required property, never with a stored copy.  The references here use only
numpy, scipy and plain Python: the Cayley graphs are built from this file's
own enumeration of SL2(Z/q), and their second eigenvalue comes from LAPACK
(``numpy.linalg.eigvalsh``) or ARPACK (``scipy.sparse.linalg.eigsh``).
scipy serves these checks only; the sl2lab package itself stays numpy-only.

Each ``check_*`` function returns a list of problems; an empty list passes.
"""

from __future__ import annotations

import csv
import io
import math
from fractions import Fraction

import numpy as np

LAMBDA2_TOL = 1e-7
LAMBDA2_MAX = 0.995
LAMBDA2_SPREAD = 0.15
PLAIN_WORK_MAX = 40_000  # box instances small enough for the plain-Python recomputation


def prime_factors(n: int) -> list[int]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def sl2_order(q: int) -> int:
    """|SL2(Z/q)| = q^3 prod_{p | q} (1 - p^-2), the closed form."""
    order = Fraction(q**3)
    for p in prime_factors(q):
        order *= 1 - Fraction(1, p * p)
    return int(order)


# ---------------------------------------------------------------------------
# spectral


def _imat_mul(x, y):
    return (
        (x[0][0] * y[0][0] + x[0][1] * y[1][0], x[0][0] * y[0][1] + x[0][1] * y[1][1]),
        (x[1][0] * y[0][0] + x[1][1] * y[1][0], x[1][0] * y[0][1] + x[1][1] * y[1][1]),
    )


def _imat_inv(x):
    return ((x[1][1], -x[0][1]), (-x[1][0], x[0][0]))


def stock_dense_generators() -> list[tuple]:
    """The ``builtin:dense`` pairs as the README defines them: unipotents
    u=[[1,2],[0,1]], l=[[1,0],[2,1]] on the left, their conjugates by
    [[1,0],[1,1]] and [[1,2],[2,5]] on the right, and the inverses."""
    u, lo = ((1, 2), (0, 1)), ((1, 0), (2, 1))

    def conj(c, g):
        return _imat_mul(_imat_mul(c, g), _imat_inv(c))

    base = [(u, conj(((1, 0), (1, 1)), u)), (lo, conj(((1, 2), (2, 5)), lo))]
    return base + [(_imat_inv(a), _imat_inv(b)) for a, b in base]


def sl2_elements(q: int) -> np.ndarray:
    """All of SL2(Z/q) as a sorted array of codes ((a*q + b)*q + c)*q + d."""
    r = np.arange(q, dtype=np.int64)
    a, b, c, d = (x.ravel() for x in np.meshgrid(r, r, r, r, indexing="ij"))
    keep = (a * d - b * c) % q == 1 % q
    return np.sort((((a * q + b) * q + c) * q + d)[keep])


def left_mult_perm(codes: np.ndarray, g, q: int) -> np.ndarray:
    """perm[i] = index of g * x_i in ``codes``."""
    d = codes % q
    c = codes // q % q
    b = codes // q**2 % q
    a = codes // q**3
    (ga, gb), (gc, gd) = ((v % q for v in row) for row in g)
    na, nb = (ga * a + gb * c) % q, (ga * b + gb * d) % q
    nc, nd = (gc * a + gd * c) % q, (gc * b + gd * d) % q
    moved = ((na * q + nb) * q + nc) * q + nd
    perm = np.searchsorted(codes, moved)
    if not np.array_equal(codes[perm], moved):
        raise AssertionError("multiplication left SL2(Z/q)")
    return perm


def reference_lambda2(q: int, pair: bool) -> tuple[int, float]:
    """(N, second eigenvalue) of Cay(G, S) for the stock generators reduced
    mod q, with G = SL2(Z/q)^2 (pair) or SL2(Z/q); the graph is built here."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.linalg import eigsh

    codes = sl2_elements(q)
    m = codes.size
    cols = []
    for left, right in stock_dense_generators():
        p1 = left_mult_perm(codes, left, q)
        if pair:
            p2 = left_mult_perm(codes, right, q)
            cols.append((p1[:, None] * m + p2[None, :]).ravel())
        else:
            cols.append(p1)
    n = cols[0].size
    deg = len(cols)
    rows = np.repeat(np.arange(n), deg)
    col = np.stack(cols, axis=1).ravel()
    t = csr_matrix((np.full(n * deg, 1.0 / deg), (rows, col)), shape=(n, n))
    if n <= 2048:
        vals = np.linalg.eigvalsh(t.toarray())
    else:
        vals = eigsh(t, k=2, which="LA", tol=1e-13, ncv=24, return_eigenvectors=False)
    return n, float(np.sort(vals)[-2])


def _float(text: str) -> float:
    """A CSV float cell; tolerates the np.float64(...) spelling."""
    if text.startswith("np.float64(") and text.endswith(")"):
        text = text[len("np.float64(") : -1]
    return float(text)


def parse_gap_csv(body: str) -> list[dict]:
    rows = []
    for rec in csv.DictReader(io.StringIO(body)):
        rows.append(
            {
                "q": int(rec["q"]),
                "N": int(rec["N"]),
                "degree": int(rec["degree"]),
                "lambda2": _float(rec["lambda2"]),
                "h_lower": _float(rec["h_lower"]),
                "h_upper": _float(rec["h_upper"]),
            }
        )
    return rows


def check_spectral(
    rows: list[dict], moduli: list[int], pair: bool, reference_moduli: list[int], reference=None
) -> list[str]:
    """N from the closed form, the Cheeger columns from lambda2, and lambda2
    against an independent eigensolver at ``reference_moduli``; for pair
    groups also lambda2 < 0.995 everywhere with spread <= 0.15."""
    reference = reference or reference_lambda2
    problems = []
    if [r["q"] for r in rows] != list(moduli):
        return [f"rows for moduli {[r['q'] for r in rows]}, expected {list(moduli)}"]
    for r in rows:
        q, lam, deg = r["q"], r["lambda2"], r["degree"]
        n_expected = sl2_order(q) ** (2 if pair else 1)
        if r["N"] != n_expected:
            problems.append(f"q={q}: N={r['N']}, closed form gives {n_expected}")
        gap = 1.0 - lam
        lo, hi = deg * gap / 2.0, deg * math.sqrt(2.0 * max(gap, 0.0))
        if not (math.isclose(r["h_lower"], lo, rel_tol=1e-12, abs_tol=1e-15)
                and math.isclose(r["h_upper"], hi, rel_tol=1e-12, abs_tol=1e-15)):
            problems.append(f"q={q}: Cheeger columns {r['h_lower']}, {r['h_upper']} "
                            f"differ from d(1-l2)/2={lo}, d*sqrt(2(1-l2))={hi}")
        if pair and not lam < LAMBDA2_MAX:
            problems.append(f"q={q}: lambda2={lam} is not below {LAMBDA2_MAX}")
        if q in reference_moduli:
            n_ref, lam_ref = reference(q, pair)
            if n_ref != r["N"] or abs(lam_ref - lam) > LAMBDA2_TOL:
                problems.append(f"q={q}: (N, lambda2)=({r['N']}, {lam}) but the "
                                f"reference eigensolver gives ({n_ref}, {lam_ref})")
    if pair and rows:
        spread = max(r["lambda2"] for r in rows) - min(r["lambda2"] for r in rows)
        if spread > LAMBDA2_SPREAD:
            problems.append(f"lambda2 spread {spread} over moduli exceeds {LAMBDA2_SPREAD}")
    return problems


# ---------------------------------------------------------------------------
# box amplification


def lift_size(p: int, lo: int, hi: int, big: int, extra: int) -> int:
    """Number of canonical lifts of the box 1 + p^lo V (mod p^hi) to p^big."""
    return min(p ** (hi - lo + extra), p ** (big - lo)) ** 3


def plain_box(p: int, lo: int, hi: int, big: int, extra: int) -> set[tuple]:
    """Canonical lifts as tuples (a, b, c, d) mod p^big, in plain Python."""
    P = p**big
    r = round(lift_size(p, lo, hi, big, extra) ** (1 / 3))
    out = set()
    for h in range(r):
        a = (1 + p**lo * h) % P
        a_inv = pow(a, -1, P)
        for e in range(r):
            b = p**lo * e % P
            for f in range(r):
                c = p**lo * f % P
                out.add((a, b, c, (1 + b * c) * a_inv % P))
    return out


def plain_amplify(p: int, m1: int, m2: int, n1: int, n2: int) -> tuple[bool, int, int]:
    """(contained, |(H1 H2)^4|, |target|) recomputed with Python sets; the
    target is every x = 1 mod p^(m1+n1) in SL2(Z/p^(m2+n2))."""
    big = m2 + n2
    P = p**big
    extra = 1 if p == 2 else 0
    h1, h2 = plain_box(p, m1, m2, big, extra), plain_box(p, n1, n2, big, extra)
    layer = h1
    for step in range(1, 8):
        other = h2 if step % 2 else h1
        layer = {
            ((a * e + b * g) % P, (a * f + b * h) % P, (c * e + d * g) % P, (c * f + d * h) % P)
            for a, b, c, d in layer
            for e, f, g, h in other
        }
    k = p ** (m1 + n1)
    target = {
        (a, b, c, d)
        for a in range(1, P, k) for b in range(0, P, k) for c in range(0, P, k)
        for d in range(1, P, k) if (a * d - b * c) % P == 1
    }
    return target <= layer, len(layer), len(target)


def plain_work(p: int, m1: int, m2: int, n1: int, n2: int) -> int:
    """Bound on the products one layer of the exhaustive check forms: the
    saturated layer |1 + p^min(m1,n1) V mod p^big| times the larger lift."""
    big = m2 + n2
    extra = 1 if p == 2 else 0
    sat = p ** (3 * (big - min(m1, n1)))
    return sat * max(lift_size(p, m1, m2, big, extra), lift_size(p, n1, n2, big, extra))



def check_box(reports: list[dict], instances: list[list[int]]) -> list[str]:
    """Every instance contained, target_size = p^(3(m2+n2-m1-n1)), and the
    smallest instances (plain_work <= PLAIN_WORK_MAX) recomputed in Python."""
    problems = []
    if [r["instance"] for r in reports] != [list(i) for i in instances]:
        return ["box reports do not match the instances"]
    for rep in reports:
        p, m1, m2, n1, n2 = rep["instance"]
        info = rep["primes"].get(str(p), {})
        if not (info.get("checked") and info.get("contained") and rep["verified"]):
            problems.append(f"instance {rep['instance']}: not verified contained: {info}")
            continue
        target = p ** (3 * (m2 + n2 - m1 - n1))
        if info["target_size"] != target:
            problems.append(f"instance {rep['instance']}: target_size "
                            f"{info['target_size']} != p^(3(m2+n2-m1-n1)) = {target}")
        if plain_work(p, m1, m2, n1, n2) <= PLAIN_WORK_MAX:
            contained, size, tsize = plain_amplify(p, m1, m2, n1, n2)
            if not contained or size != info["product_size"] or tsize != target:
                problems.append(f"instance {rep['instance']}: plain recomputation gives "
                                f"contained={contained}, |(H1H2)^4|={size}, |target|={tsize}")
    return problems


# ---------------------------------------------------------------------------
# gluing


def check_glue(q: int, helper: str, rc: int, report: dict) -> list[str]:
    """Bare runs (helper 'none') exit 2 with no_expansion; dense runs exit 0
    with q3* > 1 dividing q3.  Every certificate is verified and every
    kernel-coverage certificate has subgroup_size = |SL2(Z/d)| / |SL2(Z/m)|."""
    problems = []
    tag = f"glue q={q} a={helper}"
    if helper == "none":
        if rc != 2 or not report["no_expansion"] or report["q3_star"] != 1:
            problems.append(f"{tag}: exit {rc}, no_expansion={report['no_expansion']}, "
                            f"q3*={report['q3_star']}; expected exit 2 with no expansion")
    else:
        q3s = report["q3_star"]
        if rc != 0 or report["no_expansion"] or not (q3s > 1 and q % q3s == 0):
            problems.append(f"{tag}: exit {rc}, q3*={q3s}; expected exit 0 with 1 < q3* | {q}")
    for cert in report["certificates"]:
        if cert["verified"] is not True:
            problems.append(f"{tag}: certificate {cert['kind']} not verified")
        if cert["kind"].endswith("kernel-coverage"):
            d, m = cert["params"]["q3_star"], cert["params"]["depth_modulus"]
            expected = sl2_order(d) // sl2_order(m)
            if cert["params"]["subgroup_size"] != expected:
                problems.append(f"{tag}: subgroup_size {cert['params']['subgroup_size']} "
                                f"!= |SL2(Z/{d})|/|SL2(Z/{m})| = {expected}")
    return problems
