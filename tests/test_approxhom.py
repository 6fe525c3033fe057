import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2lab import approxhom
from sl2lab.approxhom import (
    FiniteGroupTable,
    _attempt_structured,
    agreement_table,
    closure_in_product,
    dichotomy,
)
from sl2lab.packed import PairContext, generated_subgroup, index_sorted, sl2_codes

EPS = Fraction(1, 1700)


def cyclic_hom(n: int, m: int, k: int) -> np.ndarray:
    """x -> k*x mod m; a homomorphism Z/n -> Z/m iff n*k = 0 mod m."""
    assert (n * k) % m == 0
    return np.array([(k * x) % m for x in range(n)], dtype=np.int64)


def test_group_table_construction():
    g = FiniteGroupTable.cyclic(6)
    assert g.order == 6 and g.identity == 0
    assert g.inv[2] == 4
    h = FiniteGroupTable.from_sl2(3)
    assert h.order == 24


def test_group_table_rejects_bad():
    bad = np.array([[0, 1], [1, 1]])
    with pytest.raises(ValueError):
        FiniteGroupTable.from_mul_table(bad)


def test_agreement_exact_homomorphism():
    g1 = FiniteGroupTable.cyclic(31)
    g2 = FiniteGroupTable.cyclic(5)
    psi = np.zeros(31, dtype=np.int64)  # the trivial homomorphism
    assert agreement_table(psi, g1, g2).all()


def test_agreement_constant_map():
    # constant psi = c: psi(xy) = c, psi(x)psi(y) = c^2: agree iff c^2 = c
    g1 = FiniteGroupTable.cyclic(12)
    g2 = FiniteGroupTable.cyclic(5)
    psi = np.full(12, 2, dtype=np.int64)  # 2 + 2 = 4 != 2 mod 5
    assert not agreement_table(psi, g1, g2).any()
    psi0 = np.full(12, 0, dtype=np.int64)
    assert agreement_table(psi0, g1, g2).all()


def test_agreement_random_map_near_reciprocal():
    rng = random.Random(0)
    g1 = FiniteGroupTable.cyclic(60)
    g2 = FiniteGroupTable.cyclic(7)
    psi = np.array([rng.randrange(7) for _ in range(60)], dtype=np.int64)
    a = Fraction(int(agreement_table(psi, g1, g2).sum()), 60 * 60)
    # Monte-Carlo-free exactness: expected about 1/7, allow a wide band
    assert Fraction(1, 20) < a < Fraction(1, 3)


# (G1, G2, a homomorphism G1 -> G2) over cyclic and SL2(Z/3) tables
SL2_3 = FiniteGroupTable.from_sl2(3)
HOM_CASES = {
    "Z12->Z4": (FiniteGroupTable.cyclic(12), FiniteGroupTable.cyclic(4), cyclic_hom(12, 4, 1)),
    "Z9->Z3": (FiniteGroupTable.cyclic(9), FiniteGroupTable.cyclic(3), cyclic_hom(9, 3, 2)),
    "Z8->SL2(3)": (FiniteGroupTable.cyclic(8), SL2_3, np.full(8, SL2_3.identity)),
    "SL2(3)->Z5": (SL2_3, FiniteGroupTable.cyclic(5), np.zeros(24, dtype=np.int64)),
    "SL2(3)->SL2(3)": (SL2_3, SL2_3, np.arange(24, dtype=np.int64)),
}


def python_agreement(psi, g1, g2):
    """Plain double loop: agreeing pair count and the first failing pair, row-major."""
    psi, mul1, mul2 = list(map(int, psi)), g1.mul.tolist(), g2.mul.tolist()
    count, first = 0, None
    for x in range(g1.order):
        for y in range(g1.order):
            if psi[mul1[x][y]] == mul2[psi[x]][psi[y]]:
                count += 1
            elif first is None:
                first = (x, y)
    return count, first


@settings(max_examples=60, deadline=None)
@given(case=st.sampled_from(sorted(HOM_CASES)), data=st.data())
def test_agreement_table_and_dichotomy_match_double_loop(case, data):
    g1, g2, hom = HOM_CASES[case]
    n = g1.order
    if data.draw(st.booleans(), label="random map"):
        psi = np.array(data.draw(st.lists(st.integers(0, g2.order - 1), min_size=n, max_size=n)))
    else:
        psi = hom.copy()
        for x in data.draw(st.lists(st.integers(0, n - 1), max_size=3), label="corrupted"):
            psi[x] = data.draw(st.integers(0, g2.order - 1))
    count, first = python_agreement(psi, g1, g2)
    table = agreement_table(psi, g1, g2)
    assert table.shape == (n, n) and int(table.sum()) == count
    res = dichotomy(psi, g1, g2, EPS)
    assert res.agreement_fraction == Fraction(count, n * n)
    if res.branch == "DEFECT":
        assert res.witness == first
    else:
        assert python_agreement(res.f, g1, g2) == (n * n, None)


def test_exact_agreement_limit_enforced(monkeypatch):
    g1, g2 = FiniteGroupTable.cyclic(12), FiniteGroupTable.cyclic(3)
    psi = np.zeros(12, dtype=np.int64)
    monkeypatch.setattr(approxhom, "EXACT_AGREEMENT_LIMIT", 12)
    assert agreement_table(psi, g1, g2).all()
    assert dichotomy(psi, g1, g2, EPS).branch == "STRUCTURED"
    monkeypatch.setattr(approxhom, "EXACT_AGREEMENT_LIMIT", 11)
    with pytest.raises(ValueError, match="exact agreement limit 11"):
        agreement_table(psi, g1, g2)
    with pytest.raises(ValueError, match="exact agreement limit 11"):
        dichotomy(psi, g1, g2, EPS)


def test_dichotomy_exact_homomorphism():
    g1 = FiniteGroupTable.cyclic(20)
    g2 = FiniteGroupTable.cyclic(5)
    psi = cyclic_hom(20, 5, 1)
    # at eps = 1e-300 a float 1 - sqrt(eps) is 1, and a pruning in floats
    # dropped every row, full ones included
    for eps in (EPS, Fraction(1, 10**300)):
        res = dichotomy(psi, g1, g2, eps)
        assert res.branch == "STRUCTURED"
        assert res.s_indices.size == 20
        assert np.array_equal(res.f, psi)


def test_dichotomy_one_point_corruption_recovers():
    # the corrupted point is pruned and the closure rebuilds the original
    g1 = FiniteGroupTable.cyclic(31)
    g2 = FiniteGroupTable.cyclic(5)
    psi0 = np.zeros(31, dtype=np.int64)
    psi = psi0.copy()
    psi[7] = 3
    res = dichotomy(psi, g1, g2, EPS)
    assert res.branch == "STRUCTURED"
    assert np.array_equal(res.f, psi0)  # recovered the uncorrupted map
    assert res.s_indices.size > (1 - math.sqrt(float(res.epsilon_work))) * 31
    assert 7 not in set(res.s_indices.tolist())


def test_dichotomy_random_map_defect():
    rng = random.Random(1)
    g1 = FiniteGroupTable.cyclic(40)
    g2 = FiniteGroupTable.cyclic(7)
    psi = np.array([rng.randrange(7) for _ in range(40)], dtype=np.int64)
    res = dichotomy(psi, g1, g2, EPS)
    assert res.branch == "DEFECT"
    x, y = res.witness
    assert psi[g1.mul[x, y]] != g2.mul[psi[x], psi[y]]


def test_dichotomy_coprime_remark_asserted():
    g1 = FiniteGroupTable.cyclic(31)
    g2 = FiniteGroupTable.cyclic(5)
    psi = np.zeros(31, dtype=np.int64)
    psi[11] = 2
    res = dichotomy(psi, g1, g2, EPS)
    assert res.branch == "STRUCTURED"
    # one corrupted point: well inside the sqrt(eps)|G1| bound the remark asserts
    assert res.certificate["coprime_remark_nontrivial_count"] == 1


def test_dichotomy_epsilon_warning():
    g1 = FiniteGroupTable.cyclic(8)
    g2 = FiniteGroupTable.cyclic(2)
    psi = np.zeros(8, dtype=np.int64)
    with pytest.warns(UserWarning):
        dichotomy(psi, g1, g2, Fraction(1, 100))


def test_dichotomy_noncyclic_groups():
    # SL2(F3) -> SL2(F3): identity map is structured, a shuffled map is defect
    g = FiniteGroupTable.from_sl2(3)
    ident = np.arange(g.order, dtype=np.int64)
    res = dichotomy(ident, g, g, EPS)
    assert res.branch == "STRUCTURED" and np.array_equal(res.f, ident)
    rng = np.random.Generator(np.random.Philox(key=7))
    shuffled = rng.permutation(g.order)
    res2 = dichotomy(shuffled, g, g, EPS)
    assert res2.branch == "DEFECT"


def cyclic_closure(s, n: int, cap: int):
    """<s> in Z/n as a sorted list, or None above cap: closure_in_product
    with a trivial second factor, so pair codes are the elements of Z/n."""
    h = closure_in_product(
        np.array(s, dtype=np.int64), FiniteGroupTable.cyclic(n), FiniteGroupTable.cyclic(1), cap
    )
    return None if h is None else h.tolist()


def test_closure_basics():
    assert cyclic_closure([4], 12, cap=12) == [0, 4, 8]
    assert cyclic_closure([5], 12, cap=3) is None  # 5 generates everything, cap hit
    assert cyclic_closure([], 12, cap=1) == [0]


def test_closure_cap_counts_the_generators():
    # {1, 2, 3} is closed up to the identity, so no product is new; the
    # closure still has 4 > cap elements and must not be returned
    assert cyclic_closure([1, 2, 3], 4, cap=3) is None


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 60), data=st.data())
def test_closure_cyclic_closed_form(n, data):
    # <S> in Z/n is the multiples of gcd(S u {n}), of order n / gcd
    s = data.draw(st.lists(st.integers(0, n - 1), max_size=4))
    d = math.gcd(n, *s)
    assert cyclic_closure(s, n, cap=n) == list(range(0, n, d))
    assert cyclic_closure(s, n, cap=n // d) == list(range(0, n, d))
    assert cyclic_closure(s, n, cap=n // d - 1) is None


SL2_TABLES = {q: FiniteGroupTable.from_sl2(q) for q in (1, 2, 3, 4, 5)}


@settings(max_examples=40, deadline=None)
@given(
    moduli=st.sampled_from([(2, 1), (3, 2), (2, 3), (4, 2), (3, 3), (4, 3), (1, 4)]),
    data=st.data(),
)
def test_closure_in_product_matches_generated_subgroup(moduli, data):
    # the table route on G1 x G2 against the packed route on PairContext(q1, q2)
    q1, q2 = moduli
    g1, g2 = SL2_TABLES[q1], SL2_TABLES[q2]
    m2 = g2.order
    pairs = data.draw(st.lists(
        st.tuples(st.integers(0, g1.order - 1), st.integers(0, m2 - 1)), max_size=3,
    ))
    gen_codes = np.unique(np.array([i * m2 + j for i, j in pairs], dtype=np.int64))
    h = closure_in_product(gen_codes, g1, g2, cap=g1.order * m2)
    assert np.all(np.diff(h) > 0)
    # table labels are codes in the (q, 1) contexts; a (q1, q2) code is
    # the left code times q2^4 plus the right code
    ctx = PairContext(q1, q2)
    labels1, labels2 = sl2_codes(q1), sl2_codes(q2)
    assert np.array_equal(labels1, g1.codes) and np.array_equal(labels2, g2.codes)
    as_pair = labels1[h // m2] * q2**4 + labels2[h % m2]
    gens = np.array([labels1[i] * q2**4 + labels2[j] for i, j in pairs], dtype=np.int64)
    assert np.sort(as_pair).tolist() == generated_subgroup(ctx, gens).tolist()
    # cap boundary: None exactly when |H| > cap, on both routes
    assert np.array_equal(closure_in_product(gen_codes, g1, g2, cap=h.size), h)
    assert closure_in_product(gen_codes, g1, g2, cap=h.size - 1) is None
    assert generated_subgroup(ctx, gens, cap=h.size).size == h.size
    with pytest.raises(ValueError):
        generated_subgroup(ctx, gens, cap=h.size - 1)


def reduction(q1: int, q2: int):
    """(SL2(Z/q1), SL2(Z/q2), reduction mod q2), q2 | q1, through the tables' codes."""
    g1, g2 = SL2_TABLES[q1], SL2_TABLES[q2]
    red = PairContext(q1, 1).reduce_codes(g1.codes, PairContext(q2, 1))
    return g1, g2, index_sorted(red, g2.codes)


# (G1, G2, a homomorphism G1 -> G2) that drawn corruption turns into a map psi
GRAPH_CASES = {
    "Z12->Z4": (FiniteGroupTable.cyclic(12), FiniteGroupTable.cyclic(4), cyclic_hom(12, 4, 1)),
    "Z10->Z5": (FiniteGroupTable.cyclic(10), FiniteGroupTable.cyclic(5), cyclic_hom(10, 5, 2)),
    "Z7->Z7": (FiniteGroupTable.cyclic(7), FiniteGroupTable.cyclic(7), cyclic_hom(7, 7, 1)),
    "SL2(4)->SL2(2)": reduction(4, 2),
    "SL2(3)->SL2(1)": reduction(3, 1),
    "SL2(5)->SL2(5)": reduction(5, 5),
}


@settings(max_examples=60, deadline=None)
@given(
    case=st.sampled_from(sorted(GRAPH_CASES)),
    eps=st.sampled_from([Fraction(1, 10**300), EPS, Fraction(1, 50), Fraction(1, 8), Fraction(1, 4)]),
    data=st.data(),
)
def test_structured_closure_matches_the_a_prime_products(case, eps, data):
    # <A'A'^-1> = <A' a0^-1>, since x y^-1 = (x a0^-1)(y a0^-1)^-1.  The
    # closure _attempt_structured forms from its |A'| generators must equal
    # the closure of the |A'|^2 products x y^-1, the reference here, and be
    # None exactly when that exceeds 2|G1|.  The agreement table is either
    # psi's own or a drawn one, whose full rows are a drawn A'.
    g1, g2, hom = GRAPH_CASES[case]
    n, m2 = g1.order, g2.order
    psi = hom.copy()
    for x in data.draw(st.lists(st.integers(0, n - 1), max_size=4), label="corrupted"):
        psi[x] = data.draw(st.integers(0, m2 - 1))
    if data.draw(st.booleans(), label="psi's own table"):
        good = agreement_table(psi, g1, g2)
    else:
        rows = data.draw(st.lists(st.booleans(), min_size=n, max_size=n), label="full rows")
        good = np.repeat(np.array(rows)[:, None], n, axis=1)
    # A' from its definition: the rows that miss fewer than sqrt(eps) n pairs
    misses = n - good.sum(axis=1)
    a_prime = np.array([x for x in range(n) if int(misses[x]) ** 2 < eps * n * n], dtype=np.int64)
    closures = []

    def recorded(gens, *args, **kwargs):
        closures.append(closure_in_product(gens, *args, **kwargs))
        return closures[-1]

    approxhom.closure_in_product = recorded
    try:
        _, violated = _attempt_structured(psi, good, g1, g2, eps)
    finally:
        approxhom.closure_in_product = closure_in_product
    if (n - a_prime.size) ** 2 >= eps * n * n:  # |A'| <= (1 - sqrt(eps)) n
        assert closures == [] and violated.startswith(f"|A'| = {a_prime.size} <=")
        return
    x, y = a_prime[:, None], a_prime[None, :]
    products = g1.mul[x, g1.inv[y]] * m2 + g2.mul[psi[x], g2.inv[psi[y]]]
    reference = closure_in_product(np.unique(products), g1, g2, cap=2 * n)
    (h,) = closures
    if reference is None:
        assert h is None and violated.startswith("|<A'A'^-1>| > 2|G1|")
    else:
        assert h is not None and h.tolist() == reference.tolist()


def test_attempt_structured_fiber_message():
    # psi = [0, 0, 0, 1, 1] on Z/5 -> Z/2: pruning at working epsilon 1/5
    # keeps A' = {0, 1, 3}, and <A'A'^-1> is all of Z/5 x Z/2.
    # The fibers are cosets of K = {(1, j) in H}, so the identity's fiber
    # repeats whenever any does; the sorted pair codes name the smallest
    # repeated index, which is the identity 0 of the cyclic table.
    psi = np.array([0, 0, 0, 1, 1], dtype=np.int64)
    g1, g2 = FiniteGroupTable.cyclic(5), FiniteGroupTable.cyclic(2)
    res, violated = _attempt_structured(psi, agreement_table(psi, g1, g2), g1, g2, Fraction(1, 5))
    assert res is None
    assert violated == "fiber over element 0 is not unique"


def test_structured_construction_error_is_loud():
    # force a high-agreement map with broken structure: psi agrees heavily on a
    # cyclic group but the graph closure cannot be a homomorphism graph
    g1 = FiniteGroupTable.cyclic(4)
    g2 = FiniteGroupTable.cyclic(3)
    # agreement of the zero map corrupted at one point of a tiny group stays
    # high only on large groups; here defect > 1/4 so this lands in DEFECT
    psi = np.array([0, 2, 0, 0], dtype=np.int64)
    res = dichotomy(psi, g1, g2, EPS)
    assert res.branch == "DEFECT"
