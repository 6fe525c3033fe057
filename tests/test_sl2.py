import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2lab.factored import ONE, FactoredModulus
from sl2lab.sl2 import (
    LieVector,
    SL2Residue,
    bracket,
    congruence_depth,
    crt_join,
    crt_split,
    enumerate_group,
    group_order,
    identity,
    imat_det,
    imat_inv,
    in_congruence_coset,
    inverse,
    ipair_inv,
    lie_is_primitive,
    mul,
    pair_identity,
    pair_inverse,
    pair_mul,
    parse_generator_json,
    reduce_intmat,
    reduce_pair,
    reduce_residue,
    symmetrize,
    trace,
)

Q5 = FactoredModulus.of(5)
Q8 = FactoredModulus.of(8)


def brute_force_order(q: int) -> int:
    """Independent oracle: exhaustive loop over all 4-tuples mod q checking det."""
    count = 0
    for a in range(q):
        for b in range(q):
            for c in range(q):
                for d in range(q):
                    if (a * d - b * c) % q == 1 % q:
                        count += 1
    return count


def random_element(rng, q: FactoredModulus) -> SL2Residue:
    n = q.value
    while True:
        a, b, c = rng.randrange(n), rng.randrange(n), rng.randrange(n)
        # solve for d when a is invertible
        try:
            d = (1 + b * c) * pow(a, -1, n) % n
        except ValueError:
            continue
        return SL2Residue(q, a, b, c, d)


def test_mul_examples():
    x = SL2Residue(Q5, 1, 1, 0, 1)
    assert mul(identity(Q5), x) == x
    assert mul(x, x) == SL2Residue(Q5, 1, 2, 0, 1)
    assert mul(x, inverse(x)) == identity(Q5)


def test_mul_modulus_mismatch():
    with pytest.raises(ValueError):
        mul(identity(Q5), identity(Q8))


def test_inverse_examples():
    assert inverse(identity(Q5)) == identity(Q5)
    x = SL2Residue(Q5, 1, 1, 0, 1)
    assert inverse(x) == SL2Residue(Q5, 1, -1, 0, 1)
    rng = random.Random(1)
    for _ in range(30):
        y = random_element(rng, Q8)
        assert inverse(inverse(y)) == y


def test_det_validation():
    with pytest.raises(ValueError):
        SL2Residue(Q5, 1, 0, 0, 2)


def test_reduce_rational_entries():
    m = ((1, Fraction(1, 2)), (0, 1))
    r = reduce_intmat(m, Q5)
    assert (r.a, r.b, r.c, r.d) == (1, 3, 0, 1)
    with pytest.raises(ValueError):
        reduce_intmat(((1, Fraction(1, 2)), (0, 1)), Q8)


def test_reduce_pair_trivial_and_tower():
    g = (((1, 2), (0, 1)), ((1, 0), (2, 1)))
    triv = reduce_pair(g, ONE, ONE)
    assert triv == pair_identity(ONE, ONE)
    q40 = FactoredModulus.of(40)
    q10 = FactoredModulus.of(10)
    big = reduce_pair(g, q40, q40)
    assert reduce_pair(big, q10, q10) == reduce_pair(g, q10, q10)


def test_reduce_is_homomorphism():
    rng = random.Random(2)
    q = FactoredModulus.of(36)
    qt = FactoredModulus.of(12)
    for _ in range(100):
        x, y = random_element(rng, q), random_element(rng, q)
        assert reduce_residue(mul(x, y), qt) == mul(reduce_residue(x, qt), reduce_residue(y, qt))


def test_enumerate_group_counts():
    # q=5 -> 120 and q=4 -> 48, frozen from the brute-force oracle below
    assert brute_force_order(5) == 120
    assert brute_force_order(4) == 48
    assert sum(1 for _ in enumerate_group(Q5)) == 120
    assert sum(1 for _ in enumerate_group(FactoredModulus.of(4))) == 48
    assert sum(1 for _ in enumerate_group(ONE)) == 1


def test_enumerate_group_distinct_and_valid():
    for qv in (2, 3, 4, 5, 6, 8, 9, 12):
        q = FactoredModulus.of(qv)
        seen = set()
        for x in enumerate_group(q):
            assert x.entries not in seen
            seen.add(x.entries)
        assert len(seen) == group_order(q) == brute_force_order(qv)


def test_enumerate_group_cap():
    with pytest.raises(ValueError):
        list(enumerate_group(FactoredModulus.of(9973), cap=1000))


def test_congruence_depth_examples():
    q32 = FactoredModulus.of(32)
    assert congruence_depth(identity(q32), 2) == 5
    x = SL2Residue(Q8, 1, 4, 0, 1)
    assert congruence_depth(x, 2) == 2
    y = SL2Residue(Q8, 1, 1, 0, 1)
    assert congruence_depth(y, 2) == 0
    with pytest.raises(ValueError):
        congruence_depth(y, 3)


def test_congruence_depth_properties():
    rng = random.Random(3)
    q = FactoredModulus.of(16)
    for _ in range(100):
        x, y = random_element(rng, q), random_element(rng, q)
        dx, dy = congruence_depth(x, 2), congruence_depth(y, 2)
        assert congruence_depth(mul(x, y), 2) >= min(dx, dy)
        g = random_element(rng, q)
        assert congruence_depth(mul(mul(g, x), inverse(g)), 2) == dx


def test_in_congruence_coset():
    q4 = FactoredModulus.of(4)
    q2 = FactoredModulus.of(2)
    assert in_congruence_coset(identity(q4), q4)
    x = SL2Residue(q4, 1, 2, 0, 1)
    assert in_congruence_coset(x, q2)
    assert not in_congruence_coset(x, q4)


def test_bracket_sl2_relations():
    q = FactoredModulus.of(35)
    e = LieVector(q, 0, 1, 0)
    f = LieVector(q, 0, 0, 1)
    h = LieVector(q, 1, 0, 0)
    assert bracket(e, f) == h
    assert bracket(e, h).coords == (0, (-2) % 35, 0)
    u = LieVector(q, 3, 5, 7)
    assert bracket(u, u).coords == (0, 0, 0)


def test_bracket_jacobi():
    rng = random.Random(4)
    q = FactoredModulus.of(30)
    for _ in range(50):
        u = LieVector(q, rng.randrange(30), rng.randrange(30), rng.randrange(30))
        v = LieVector(q, rng.randrange(30), rng.randrange(30), rng.randrange(30))
        w = LieVector(q, rng.randrange(30), rng.randrange(30), rng.randrange(30))
        s = (
            bracket(u, bracket(v, w)).coords,
            bracket(v, bracket(w, u)).coords,
            bracket(w, bracket(u, v)).coords,
        )
        total = tuple(sum(c[i] for c in s) % 30 for i in range(3))
        assert total == (0, 0, 0)


def test_bracket_matches_matrix_commutator():
    # bracket in coordinates equals UV - VU on the represented matrices
    rng = random.Random(5)
    q = FactoredModulus.of(21)
    n = 21
    for _ in range(50):
        u = LieVector(q, rng.randrange(n), rng.randrange(n), rng.randrange(n))
        v = LieVector(q, rng.randrange(n), rng.randrange(n), rng.randrange(n))
        U = ((u.xh, u.xe), (u.xf, -u.xh))
        V = ((v.xh, v.xe), (v.xf, -v.xh))
        from sl2lab.sl2 import imat_mul

        C = imat_mul(U, V)
        D = imat_mul(V, U)
        w = bracket(u, v)
        assert w.xh == (C[0][0] - D[0][0]) % n
        assert w.xe == (C[0][1] - D[0][1]) % n
        assert w.xf == (C[1][0] - D[1][0]) % n


def test_lie_primitive():
    q = FactoredModulus.of(6)
    assert lie_is_primitive(LieVector(q, 1, 2, 3))
    assert not lie_is_primitive(LieVector(q, 2, 4, 0))


@settings(max_examples=80, deadline=None)
@given(n=st.sampled_from([6, 12, 30, 36, 100, 210, 360, 1001, 2 * 3**4 * 7]), seed=st.integers(0, 2**32))
def test_crt_split_join_roundtrip(n, seed):
    # each part is the entrywise reduction to its prime-power factor, and
    # the join inverts the split
    q = FactoredModulus.of(n)
    x = random_element(random.Random(seed), q)
    parts = crt_split(x)
    assert sorted(parts) == [p for p, _ in q.factors]
    for p, e in q.factors:
        assert parts[p].q.value == p**e
        assert parts[p].entries == tuple(v % p**e for v in x.entries)
    assert crt_join(parts) == x


def test_trace_and_conjugation():
    rng = random.Random(7)
    q = FactoredModulus.of(11)
    for _ in range(30):
        x, g = random_element(rng, q), random_element(rng, q)
        assert trace(mul(mul(g, x), inverse(g))) == trace(x)


def test_pair_ops():
    q3 = FactoredModulus.of(3)
    x = reduce_pair((((1, 2), (0, 1)), ((1, 0), (2, 1))), q3, Q5)
    assert pair_mul(x, pair_inverse(x)) == pair_identity(q3, Q5)
    assert x.left.q.value == 3 and x.right.q.value == 5


def test_generator_json_roundtrip():
    text = """
    [
      [[["1", "2"], ["0", "1"]], [["-1", "2"], ["-2", "3"]]],
      [[["1", "-2"], ["0", "1"]], [["3", "-2"], ["2", "-1"]]]
    ]
    """
    gens = parse_generator_json(text)
    assert len(gens) == 2
    assert imat_det(gens[0][0]) == 1
    assert ipair_inv(gens[0]) == gens[1]


def test_generator_json_rejects_bad():
    with pytest.raises(ValueError):
        parse_generator_json('[[[["1","0"],["0","2"]], [["1","0"],["0","1"]]]]')  # det 2
    with pytest.raises(ValueError):
        parse_generator_json('[[[["1","1"],["0","1"]], [["1","0"],["0","1"]]]]')  # no inverse


def test_generator_json_rational_entries():
    text = '[[[["1/2", "0"], ["0", "2"]], [["1", "0"], ["0", "1"]]], [[["2", "0"], ["0", "1/2"]], [["1", "0"], ["0", "1"]]]]'
    gens = parse_generator_json(text)
    assert gens[0][0][0][0] == Fraction(1, 2)
    r = reduce_intmat(gens[0][0], Q5)
    assert (r.a, r.d) == (3, 2)


def test_symmetrize():
    g = (((1, 2), (0, 1)), ((1, 0), (2, 1)))
    s = symmetrize([g])
    assert len(s) == 2 and ipair_inv(g) in s
    assert symmetrize(s) == s


def test_imat_inverse_requires_det_one():
    with pytest.raises(ValueError):
        imat_inv(((2, 0), (0, 1)))
