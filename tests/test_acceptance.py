"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every criterion function returns (passed, canon) where canon is a canonical
string of all computed values; the determinism criterion reruns each suite
and compares canon strings byte for byte.  Run with ``pytest -s`` to see the
per-criterion lines.
"""

import math
import time
import warnings
from fractions import Fraction

import numpy as np

from sl2lab.factored import ONE, FactoredModulus
from sl2lab.sl2 import enumerate_group, group_order

RESULTS: dict[int, tuple[bool, str]] = {}


def _report(i: int, name: str, ok: bool, detail: str = ""):
    line = f"criterion {i:02d} [{name}]: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)


# ---------------------------------------------------------------------------
# 1. group-order oracle


def run_criterion_01():
    t0 = time.perf_counter()
    rows = []
    ok = True
    for qv in range(1, 31):
        q = FactoredModulus.of(qv)
        count = sum(1 for _ in enumerate_group(q))
        expect = group_order(q)
        ok &= count == expect
        rows.append(f"{qv}:{count}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 10.0
    return ok, "|".join(rows)


# ---------------------------------------------------------------------------
# 2. spectral correctness: matrix-free vs dense, circulant closed form


def _random_symmetric_genset(codes, ctx, rng, k=2):
    from sl2lab.packed import PairContext

    idx = np.sort(rng.choice(codes.size, size=k, replace=False))
    # each element followed by its inverse
    return np.stack([codes[idx], ctx.inv(codes[idx])], axis=1).ravel()


def run_criterion_02():
    from sl2lab.packed import PairContext, sl2_codes
    from sl2lab.spectral import CayleyOperator, dense_lambda2, lanczos_lambda2

    canon = []
    ok = True
    for qv in range(2, 11):  # the SL2 groups with N <= 1024
        codes = sl2_codes(qv)
        ctx = PairContext(qv, 1)
        rng = np.random.Generator(np.random.Philox(key=[202, qv]))
        for trial in range(5):
            gens = _random_symmetric_genset(codes, ctx, rng, k=2)
            op = CayleyOperator.build(ctx, gens, codes=codes)
            dense, _ = dense_lambda2(op)
            rep = lanczos_lambda2(op, tol=1e-11, max_iter=6000, seed=trial)
            diff = abs(rep.lambda2 - dense)
            ok &= diff < 1e-8
            canon.append(f"q{qv}t{trial}:{dense!r}:{rep.lambda2!r}")
    # circulant closed form on the unipotent cycles
    for n in range(4, 65):
        ctx = PairContext(n, 1)
        u = ctx.encode([1, 1 % n, 0, 1, 0, 0, 0, 0])
        ui = ctx.encode([1, (-1) % n, 0, 1, 0, 0, 0, 0])
        op = CayleyOperator.build(ctx, np.array([u, ui]))
        rep = lanczos_lambda2(op, tol=1e-13, max_iter=30000, seed=0)
        target = math.cos(2 * math.pi / n)
        ok &= abs(rep.lambda2 - target) < 1e-10
        canon.append(f"c{n}:{rep.lambda2!r}")
    return ok, "|".join(canon)


# ---------------------------------------------------------------------------
# 3. expander flatness across moduli


def run_criterion_03():
    from sl2lab.spectral import cayley_for_sl2_pair, lambda2, standard_dense_pair_generators

    t0 = time.perf_counter()
    gens = standard_dense_pair_generators()
    lams = {}
    canon = []
    for qv in (3, 4, 5, 7, 9, 11, 13):
        op = cayley_for_sl2_pair(gens, qv, qv)
        rep = lambda2(op, tol=1e-6, max_iter=1500, seed=0)
        lams[qv] = rep.lambda2
        canon.append(f"q{qv}:N{op.n}:{rep.lambda2!r}")
    last4 = [lams[q] for q in (7, 9, 11, 13)]
    elapsed = time.perf_counter() - t0
    ok = all(l < 0.995 for l in lams.values())
    ok &= max(last4) - min(last4) < 0.15
    ok &= elapsed < 600.0
    return ok, "|".join(canon)


# ---------------------------------------------------------------------------
# 4. Cheeger sandwich wherever the exact constant runs


def run_criterion_04():
    from sl2lab.packed import PairContext
    from sl2lab.spectral import CayleyOperator, cheeger_exact, lambda2

    ops = []
    for n in (4, 5, 8, 11, 16, 22):
        ctx = PairContext(n, 1)
        u = ctx.encode([1, 1 % n, 0, 1, 0, 0, 0, 0])
        ui = ctx.encode([1, (-1) % n, 0, 1, 0, 0, 0, 0])
        ops.append(CayleyOperator.build(ctx, np.array([u, ui])))
    ctx6 = PairContext(6, 1)
    ts = np.arange(1, 6)
    ops.append(CayleyOperator.build(ctx6, ctx6.encode([1, ts, 0, 1, 0, 0, 0, 0])))
    ctx2 = PairContext(6, 1)
    ops.append(CayleyOperator.build(ctx2, np.array([ctx2.encode([1, 3, 0, 1, 0, 0, 0, 0])])))
    rng = np.random.Generator(np.random.Philox(key=404))
    from sl2lab.packed import sl2_codes

    codes2 = sl2_codes(2)  # the 6-element group SL2(Z/2)
    pctx = PairContext(2, 1)
    for trial in range(3):
        gens = _random_symmetric_genset(codes2, pctx, rng, k=2)
        ops.append(CayleyOperator.build(pctx, gens, codes=codes2))
    ok = True
    canon = []
    for op in ops:
        rep = lambda2(op)
        h = cheeger_exact(op)
        lo, hi = rep.cheeger_lower, rep.cheeger_upper
        ok &= lo <= float(h) + 1e-12 and float(h) <= hi + 1e-12
        canon.append(f"N{op.n}d{op.degree}:{rep.lambda2!r}:{h}")
    return ok, "|".join(canon)


# ---------------------------------------------------------------------------
# 5. pushforward commutes with convolution, exactly


def run_criterion_05():
    from sl2lab.measure import (
        INTEGRAL_PAIR_LAW,
        convolve_power,
        pushforward_pair,
        uniform_on,
    )
    from sl2lab.sl2 import imat_inv, symmetrize

    pool = [
        (((1, 1), (0, 1)), ((1, 0), (1, 1))),
        (((1, 0), (1, 1)), ((1, 1), (0, 1))),
        (((1, 2), (0, 1)), ((1, 0), (2, 1))),
        (((1, 0), (2, 1)), ((1, 2), (0, 1))),
        (((0, 1), (-1, 0)), ((1, 1), (0, 1))),
        (((2, 1), (1, 1)), ((1, 0), (1, 1))),
    ]
    rng = np.random.Generator(np.random.Philox(key=505))
    ok = True
    canon = []
    for case in range(100):
        picks = rng.choice(len(pool), size=2, replace=False)
        base = [pool[int(i)] for i in picks]
        S = symmetrize(base + [ (imat_inv(a), imat_inv(b)) for a, b in base ])
        l = int(rng.integers(1, 9))
        q1 = FactoredModulus.of(int(rng.integers(2, 17)))
        q2 = FactoredModulus.of(int(rng.integers(2, 17)))
        f = uniform_on(S, INTEGRAL_PAIR_LAW)
        route_a = pushforward_pair(convolve_power(f, l), q1, q2)
        route_b = convolve_power(pushforward_pair(f, q1, q2), l)
        same = route_a.weights == route_b.weights
        ok &= same
        canon.append(f"{case}:{l}:{q1.value},{q2.value}:{int(same)}:{route_a.support_size}")
    return ok, "|".join(canon)


# ---------------------------------------------------------------------------
# 6. non-concentration decay profile


def run_criterion_06():
    from sl2lab.spectral import standard_dense_pair_generators
    from sl2lab.walks import LowerLeftEvent, decay_profile

    gens = standard_dense_pair_generators()
    ok = True
    canon = []
    for p in (5, 7, 11, 13):
        g_order = group_order(FactoredModulus.of(p))
        l = int(10 * math.log2(g_order))
        prof = decay_profile(gens, LowerLeftEvent(), FactoredModulus.of(p), [l])
        mass = prof["rows"][-1]["mass"]
        uniform = 1.0 / (p + 1)
        ok &= uniform / 2 <= mass <= uniform * 2
        ok &= prof["fitted_c"] > 0.5
        canon.append(f"p{p}l{l}:{mass!r}:{prof['fitted_c']!r}")
    return ok, "|".join(canon)


# ---------------------------------------------------------------------------
# 7. exhaustive commutator congruence sweep


def run_criterion_07():
    from sl2lab.commutator import commutator_sweep

    t0 = time.perf_counter()
    ok = True
    canon = []
    for p in (2, 3):
        rep = commutator_sweep(p, depth=4)
        ok &= rep["violations"] == []
        canon.append(f"p{p}:{rep['elements']}:{rep['pairs_checked']}:{len(rep['violations'])}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 300.0
    return ok, "|".join(canon)


# ---------------------------------------------------------------------------
# 8. bracket spanning and box amplification, 1000 certified instances each


def run_criterion_08():
    from sl2lab.commutator import (
        CongruenceBox,
        amplify_exhaustive_check,
        bracket_span_cover,
    )
    from sl2lab.sl2 import LieVector

    rng = np.random.Generator(np.random.Philox(key=808))
    ok = True
    canon = []
    moduli = [FactoredModulus.of(v) for v in (8, 15, 21, 35, 63, 105)]
    done = 0
    span_fail = 0
    while done < 1000:
        q = moduli[int(rng.integers(0, len(moduli)))]
        v = LieVector(q, *(int(x) for x in rng.integers(0, q.value, size=3)))
        w = LieVector(q, *(int(x) for x in rng.integers(0, q.value, size=3)))
        try:
            res = bracket_span_cover(v, w, q)
        except ValueError:
            continue
        done += 1
        if not res["covered"]:
            span_fail += 1
    ok &= span_fail == 0
    canon.append(f"span:{done}:{span_fail}")

    amp_fail = 0
    checked = 0
    for trial in range(1000):
        p = int(rng.choice([2, 3, 5]))
        # all windows within the spec's 2^7 bound; totals weighted downward
        # so the exhaustive product enumeration stays quick, with every
        # tenth/hundredth trial exercising the deeper windows
        if p == 2:
            max_total = 6 if trial % 100 == 0 else 5
        elif p == 3:
            max_total = 4 if trial % 10 == 0 else 3
        else:
            max_total = 3
        while True:
            m1 = int(rng.integers(1, 4))
            m2 = int(rng.integers(m1, 2 * m1 + 1))
            n1 = int(rng.integers(1, 4))
            n2 = int(rng.integers(n1, 2 * n1 + 1))
            if m2 + n2 <= max_total:
                break
        h1 = CongruenceBox(FactoredModulus.of(p**m1), FactoredModulus.of(p**m2))
        h2 = CongruenceBox(FactoredModulus.of(p**n1), FactoredModulus.of(p**n2))
        rep = amplify_exhaustive_check(h1, h2, cap=128)
        if rep["primes"][p]["checked"]:
            checked += 1
            if not rep["primes"][p]["contained"]:
                amp_fail += 1
    ok &= amp_fail == 0 and checked == 1000
    canon.append(f"amplify:{checked}:{amp_fail}")
    return ok, "|".join(canon)


# ---------------------------------------------------------------------------
# 9. sumset covering sweep


def run_criterion_09():
    from sl2lab.addcomb import (
        ResidueSet,
        difference_of_products,
        subgroup_cover_1d,
        sumset,
    )

    rng = np.random.Generator(np.random.Philox(key=909))
    ok = True
    canon = []
    gamma = 0.2
    for trial in range(200):
        q = int(rng.integers(6, 62))
        need = int(math.floor(q**0.8)) + 1
        size = int(rng.integers(need, q + 1))
        a = ResidueSet.of(q, (int(v) for v in rng.choice(q, size=size, replace=False)))
        b = ResidueSet.of(q, (int(v) for v in rng.choice(q, size=size, replace=False)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = subgroup_cover_1d(a, b, folds=24, gamma=gamma)
        qp = res["q_prime"]
        found = qp <= q  # a covering divisor exists at <= 24 folds
        bound_ok = (not res["hypothesis_ok"]) or qp <= q ** (12 * gamma * 12 / 5)
        # independent membership rescan by plain set arithmetic
        x = set(sumset(
            difference_of_products(a, b), ResidueSet.of(q, [0])
        ).members())
        acc = set(x)
        for _ in range(23):
            acc = {(u + v) % q for u in acc for v in x}
        rescan = all((qp * t) % q in acc for t in range(q // math.gcd(qp, q)))
        ok &= found and bound_ok and rescan
        canon.append(f"{trial}:q{q}:{qp}:{int(rescan)}")
    return ok, "|".join(canon)


# ---------------------------------------------------------------------------
# 10. dichotomy recovery trials


def run_criterion_10():
    from sl2lab.approxhom import FiniteGroupTable, dichotomy

    eps = Fraction(1, 1700)
    root = float(eps) ** 0.5
    ok = True
    canon = []
    tables: dict[int, FiniteGroupTable] = {}

    def cyclic(n):
        if n not in tables:
            tables[n] = FiniteGroupTable.cyclic(n)
        return tables[n]

    for rho in (0.0, 0.001, 0.01):
        rng = np.random.Generator(np.random.Philox(key=[1010, int(rho * 10000)]))
        wins = 0
        for trial in range(100):
            m = int(rng.choice([2, 3, 5, 7]))
            n = m * int(rng.integers(max(8, 50 // m), 500 // m + 1))
            g1, g2 = cyclic(n), cyclic(m)
            psi0 = np.array([x % m for x in range(n)], dtype=np.int64)
            psi = psi0.copy()
            corrupt = int(rho * n)
            if corrupt:
                idx = rng.choice(n, size=corrupt, replace=False)
                psi[idx] = (psi[idx] + 1 + rng.integers(0, m - 1, size=corrupt)) % m
            res = dichotomy(psi, g1, g2, eps)
            if res.branch == "STRUCTURED":
                agree = int((res.f == psi0).sum())
                if agree >= (1 - root) * n:
                    wins += 1
        ok &= wins >= 95
        canon.append(f"rho{rho}:{wins}")

    rng = np.random.Generator(np.random.Philox(key=[1010, 999]))
    defects = 0
    for trial in range(100):
        m = int(rng.choice([3, 5, 7]))
        n = int(rng.integers(50, 401))
        psi = rng.integers(0, m, size=n).astype(np.int64)
        res = dichotomy(psi, cyclic(n), cyclic(m), eps)
        if res.branch == "DEFECT":
            defects += 1
    ok &= defects == 100
    canon.append(f"random:{defects}")
    return ok, "|".join(canon)


# ---------------------------------------------------------------------------
# 11. bounded generation on near-full sets


def run_criterion_11():
    from sl2lab.growth import GroupSet, bounded_generation_search

    rng = np.random.Generator(np.random.Philox(key=1111))
    ok = True
    canon = []
    configs = [(5, 4), (7, 3), (8, 5), (9, 4), (13, 2), (4, 4)]
    for q1v, q2v in configs:
        q1, q2 = FactoredModulus.of(q1v), FactoredModulus.of(q2v)
        if q1v * q2v > 120 or group_order(q1) * group_order(q2) > 100_000:
            continue
        full = GroupSet.full_group(q1, q2)
        r = int(rng.integers(1, 6))
        ident = full.ctx.identity_code()
        removable = full.codes[full.codes != ident]
        drop = set(int(v) for v in rng.choice(removable, size=r, replace=False))
        a = GroupSet(q1, q2, np.array([c for c in full.codes if int(c) not in drop]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = bounded_generation_search(a, k_max=4)
        found = res.found and res.k <= 4 and res.q1p == ONE and res.q2p == ONE
        # independent exhaustive membership oracle for A*A = G: every g is
        # factored as g = probe * b with b checked against A; elements no
        # probe covers get their full factorization row scanned exactly
        exhaustive = False
        if found and res.k == 2:
            from sl2lab.packed import isin_sorted

            ctx = a.ctx
            uncovered = full.codes
            for j in range(16):
                if uncovered.size == 0:
                    break
                probe = np.array([a.codes[(37 * j) % a.codes.size]], dtype=np.int64)
                b_part = ctx.mul_const(uncovered, ctx.decode(ctx.inv(probe)[0]), "left")
                uncovered = uncovered[~isin_sorted(b_part, a.codes)]
            leftovers_ok = True
            ainv = np.sort(ctx.inv(a.codes))
            for g in uncovered:
                row = ctx.mul_const(ainv, ctx.decode(g), "right")
                if not bool(np.any(isin_sorted(row, a.codes))):
                    leftovers_ok = False
                    break
            exhaustive = leftovers_ok
        ok &= found and exhaustive
        canon.append(f"({q1v},{q2v})r{r}:k{res.k}:{int(exhaustive)}")
    return ok, "|".join(canon)


# ---------------------------------------------------------------------------
# 12. gluing smoke test


def run_criterion_12():
    from sl2lab.glue import GluingConfig, glue_pipeline, replay_certificates
    from sl2lab.growth import GroupSet
    from sl2lab.packed import PairContext, generated_subgroup
    from sl2lab.sl2 import PairElement
    from sl2lab.spectral import unit_dense_pair_generators

    ok = True
    canon = []
    for q3v in (5, 8):
        q = FactoredModulus.of(q3v)
        diag = GroupSet.from_elements(
            q, q, [PairElement(x, x) for x in enumerate_group(q)]
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cfg = GluingConfig(q1=ONE, q2=q, q3=q, theta=0.3, cap=500_000, seed=0)
            bare = glue_pipeline(diag, cfg, a=None)
            ok &= bare.no_expansion and replay_certificates(bare)
            ctx = PairContext(q3v, q3v)
            ball = generated_subgroup(ctx, ctx.encode_intpairs(unit_dense_pair_generators()))
            rng = np.random.Generator(np.random.Philox(key=[1212, q3v]))
            if ball.size > 4000:
                ball = ball[np.sort(rng.choice(ball.size, size=4000, replace=False))]
            a = GroupSet(q, q, ball)
            rich = glue_pipeline(diag, cfg, a=a)
            ok &= (not rich.no_expansion) and replay_certificates(rich)
            ok &= all(c["verified"] for c in rich.certificates)
        canon.append(
            f"q{q3v}:bare{int(bare.no_expansion)}:q3*{rich.q3_star}:"
            f"certs{len(rich.certificates)}"
        )
    return ok, "|".join(canon)


# ---------------------------------------------------------------------------

CRITERIA = {
    1: ("group-order oracle", run_criterion_01),
    2: ("spectral correctness", run_criterion_02),
    3: ("expander flatness", run_criterion_03),
    4: ("cheeger sandwich", run_criterion_04),
    5: ("pushforward-convolution commutation", run_criterion_05),
    6: ("non-concentration decay", run_criterion_06),
    7: ("commutator congruence sweep", run_criterion_07),
    8: ("bracket span and box amplification", run_criterion_08),
    9: ("sumset covering sweep", run_criterion_09),
    10: ("dichotomy recovery", run_criterion_10),
    11: ("bounded generation", run_criterion_11),
    12: ("gluing smoke test", run_criterion_12),
}


def _suite(i: int):
    if i not in RESULTS:
        RESULTS[i] = CRITERIA[i][1]()
    return RESULTS[i]


def _run(i: int):
    ok, canon = _suite(i)
    _report(i, CRITERIA[i][0], ok)
    assert ok, f"criterion {i} failed: {canon[:400]}"


def test_criterion_01():
    _run(1)


def test_criterion_02():
    _run(2)


def test_criterion_03():
    _run(3)


def test_criterion_04():
    _run(4)


def test_criterion_05():
    _run(5)


def test_criterion_06():
    _run(6)


def test_criterion_07():
    _run(7)


def test_criterion_08():
    _run(8)


def test_criterion_09():
    _run(9)


def test_criterion_10():
    _run(10)


def test_criterion_11():
    _run(11)


def test_criterion_12():
    _run(12)


def test_criterion_13_determinism():
    ok = True
    mismatches = []
    for i in range(1, 13):
        first = _suite(i)
        second = CRITERIA[i][1]()  # independent rerun, same seeds
        if first[1] != second[1]:
            ok = False
            mismatches.append(i)
    _report(13, "determinism", ok, f"mismatches={mismatches}" if mismatches else "")
    assert ok, f"non-deterministic suites: {mismatches}"
