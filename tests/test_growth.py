import functools
import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sl2lab.factored import ONE, FactoredModulus
from sl2lab.growth import (
    GroupSet,
    bounded_generation_search,
    covers_congruence,
    product_set,
    tripling,
)
from sl2lab.sl2 import (
    PairElement,
    SL2Residue,
    enumerate_group,
    pair_identity,
    pair_mul,
    reduce_pair,
)

Q4 = FactoredModulus.of(4)
Q5 = FactoredModulus.of(5)
Q11 = FactoredModulus.of(11)


@functools.lru_cache(maxsize=None)
def group_elements(q: FactoredModulus) -> tuple:
    return tuple(enumerate_group(q))


def random_groupset(rng, q1, q2, size) -> GroupSet:
    # uniform draws from the whole group, non-unit corners included
    g1, g2 = group_elements(q1), group_elements(q2)
    elems = [PairElement(rng.choice(g1), rng.choice(g2)) for _ in range(size)]
    return GroupSet.from_elements(q1, q2, elems)


def brute_product(a: GroupSet, b: GroupSet) -> set:
    # independent O(|A||B|) oracle over element objects
    ea, eb = a.elements(), b.elements()
    return {pair_mul(x, y) for x in ea for y in eb}


@settings(max_examples=30, deadline=None)
@given(sizes=st.tuples(st.integers(0, 40), st.integers(0, 40)), seed=st.integers(0, 2**32))
def test_union_matches_np_union1d(sizes, seed):
    rng = random.Random(seed)
    a = random_groupset(rng, Q4, Q5, sizes[0])
    b = random_groupset(rng, Q4, Q5, sizes[1])
    got, ref = a.union(b).codes, np.union1d(a.codes, b.codes)
    assert got.dtype == ref.dtype and np.array_equal(got, ref)


def test_product_set_identity_and_subgroup():
    rng = random.Random(0)
    a = random_groupset(rng, Q5, ONE, 20)
    e = GroupSet.from_elements(Q5, ONE, [pair_identity(Q5, ONE)])
    assert product_set(a, e).codes.tolist() == a.codes.tolist()
    h = GroupSet.full_group(Q5, ONE)
    assert len(product_set(h, h)) == len(h)


@settings(max_examples=40, deadline=None)
@given(
    moduli=st.sampled_from([(2, 1), (3, 1), (4, 1), (5, 1), (2, 2), (2, 3), (3, 2)]),
    draws=st.tuples(st.integers(0, 60), st.integers(0, 60)),
    seed=st.integers(0, 2**32),
)
@example(moduli=(2, 1), draws=(40, 40), seed=0)  # |A| + |B| > |G|: the pigeonhole route
def test_product_set_matches_bruteforce(moduli, draws, seed):
    rng = random.Random(seed)
    q1, q2 = (FactoredModulus.of(v) for v in moduli)
    a = random_groupset(rng, q1, q2, draws[0])
    b = random_groupset(rng, q1, q2, draws[1])
    got = product_set(a, b)
    expect = brute_product(a, b)
    assert len(got) == len(expect)
    assert set(got.elements()) == expect


def test_product_set_modulus_mismatch():
    rng = random.Random(2)
    a = random_groupset(rng, Q5, ONE, 5)
    b = random_groupset(rng, Q4, ONE, 5)
    with pytest.raises(ValueError):
        product_set(a, b)


def test_product_set_associativity():
    rng = random.Random(3)
    a = random_groupset(rng, Q5, ONE, 8)
    b = random_groupset(rng, Q5, ONE, 8)
    c = random_groupset(rng, Q5, ONE, 8)
    left = product_set(product_set(a, b), c)
    right = product_set(a, product_set(b, c))
    assert left.codes.tolist() == right.codes.tolist()


def test_tripling_whole_group():
    g = GroupSet.full_group(Q5, ONE)
    rep = tripling(g)
    assert rep.size == rep.size_triple == 120
    assert abs(rep.exponent - 1.0) < 1e-12


def test_tripling_singleton():
    x = reduce_pair((((1, 2), (0, 1)), ((1, 0), (0, 1))), Q5, ONE)
    rep = tripling(GroupSet.from_elements(Q5, ONE, [x]))
    assert rep.size == 1 and rep.size_triple == 1
    assert math.isnan(rep.exponent)


def test_tripling_random_vs_oracle():
    rng = random.Random(5)
    q7 = FactoredModulus.of(7)
    a = random_groupset(rng, q7, ONE, 18)  # ~ |G|^{1/2} for SL2(F7)
    rep = tripling(a, delta=0.1)
    aa = brute_product(a, a)
    aaa = {pair_mul(x, y) for x in aa for y in a.elements()}
    assert rep.size_triple == len(aaa)
    assert rep.grows == (len(aaa) > len(a) ** 1.1)


def test_covers_congruence_examples():
    g = GroupSet.full_group(Q4, ONE)
    assert covers_congruence(g, ONE, ONE)
    e = GroupSet.from_elements(Q4, ONE, [pair_identity(Q4, ONE)])
    assert covers_congruence(e, Q4, ONE)
    assert not covers_congruence(e, ONE, ONE)


def test_covers_congruence_vs_exhaustive_oracle():
    # A^3 for A = SL2(Z/4) x {1} missing 3 elements, vs direct membership scan
    rng = random.Random(7)
    full = GroupSet.full_group(Q4, ONE)
    drop = set(rng.sample(range(len(full)), 3))
    keep = np.array([c for i, c in enumerate(full.codes) if i not in drop])
    a = GroupSet(Q4, ONE, keep)
    a3 = product_set(product_set(a, a), a)
    q2m = FactoredModulus.of(2)
    got = covers_congruence(a3, q2m, ONE)
    sub = {
        PairElement(x, SL2Residue(ONE, 0, 0, 0, 0))
        for x in enumerate_group(Q4)
        if x.a % 2 == 1 and x.b % 2 == 0 and x.c % 2 == 0 and x.d % 2 == 1
    }
    members = set(a3.elements())
    assert got == all(s in members for s in sub)


def test_bounded_generation_full_group():
    g = GroupSet.full_group(Q5, ONE)
    res = bounded_generation_search(g, k_max=4)
    assert res.found and res.k == 1
    assert res.q1p == ONE and res.q2p == ONE


def test_bounded_generation_near_full():
    # full group minus one non-identity element: k found, verified by oracle
    rng = random.Random(8)
    full = GroupSet.full_group(Q5, ONE)
    ident = full.ctx.identity_code()
    candidates = [c for c in full.codes if c != ident]
    removed = rng.choice(candidates)
    a = GroupSet(Q5, ONE, np.array([c for c in full.codes if c != removed]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = bounded_generation_search(a, k_max=4)
    assert res.found and res.k == 2 and res.q1p == ONE
    # oracle: recompute A^k by repeated brute product and check coverage
    cur = set(a.elements())
    for _ in range(res.k - 1):
        cur = {pair_mul(x, y) for x in cur for y in a.elements()}
    assert len(cur) == 120


def test_bounded_generation_proper_coset_failure():
    # A inside a proper congruence coset: products stay in the coset chain
    q8 = FactoredModulus.of(8)
    elems = [
        reduce_pair((((1, 2), (0, 1)), ((1, 0), (0, 1))), q8, ONE),
        reduce_pair((((1, -2), (0, 1)), ((1, 0), (0, 1))), q8, ONE),
    ]
    a = GroupSet.from_elements(q8, ONE, elems)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = bounded_generation_search(a, k_max=3)
    assert not res.found


def test_bounded_generation_size_warning():
    rng = random.Random(9)
    a = random_groupset(rng, Q5, ONE, 4)
    with pytest.warns(UserWarning):
        bounded_generation_search(a, k_max=1)
