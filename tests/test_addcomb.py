import random
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2lab.addcomb import (
    ResidueSet,
    difference_of_products,
    fold_sum,
    negate,
    productset,
    subgroup_cover_1d,
    sumset,
)


def brute_sumset(q, a, b):
    return {(x + y) % q for x in a for y in b}


def brute_fold(q, members, k):
    acc = {0 if k == 0 else None}
    acc = set(members)
    for _ in range(k - 1):
        acc = brute_sumset(q, acc, members)
    return acc


@settings(max_examples=40, deadline=None)
@given(
    q=st.one_of(st.integers(1, 300), st.sampled_from([2**16 + 1, 3 * 2**31, 2**62 + 9])),
    seed=st.integers(0, 2**32),
)
def test_productset_vs_bruteforce(q, seed):
    # bitset and hashed moduli, and moduli whose products exceed int64
    rng = random.Random(seed)
    a = {rng.randrange(q) for _ in range(rng.randrange(12))}
    b = {rng.randrange(q) for _ in range(rng.randrange(12))}
    got = productset(ResidueSet.of(q, a), ResidueSet.of(q, b))
    assert set(got.members()) == {x * y % q for x in a for y in b}


def test_sumset_examples():
    q = 11
    z = ResidueSet.of(q, [0])
    assert sumset(z, z).members() == [0]
    a = ResidueSet.of(q, [1, 5, 7])
    full = ResidueSet.full(q)
    assert len(sumset(a, full)) == q


def test_sumset_vs_bruteforce():
    rng = random.Random(0)
    for _ in range(40):
        q = rng.randrange(2, 80)
        a = ResidueSet.of(q, (rng.randrange(q) for _ in range(rng.randrange(1, q + 1))))
        b = ResidueSet.of(q, (rng.randrange(q) for _ in range(rng.randrange(1, q + 1))))
        got = set(sumset(a, b).members())
        assert got == brute_sumset(q, a.members(), b.members())


def test_hashed_fallback_large_q():
    q = (1 << 16) + 3
    a = ResidueSet.of(q, [1, q - 1, 12345])
    b = ResidueSet.of(q, [0, 2])
    assert a.members_set is not None  # hashed representation
    got = set(sumset(a, b).members())
    assert got == brute_sumset(q, a.members(), b.members())


def test_difference_of_products_example():
    # A = B = {1,2} mod 7: AB = {1,2,4}, AB - AB = all of Z/7Z
    a = ResidueSet.of(7, [1, 2])
    d = productset(a, a)
    assert sorted(d.members()) == [1, 2, 4]
    assert len(difference_of_products(a, a)) == 7


def test_fold_additivity():
    rng = random.Random(1)
    for _ in range(20):
        q = rng.randrange(3, 50)
        x = ResidueSet.of(q, (rng.randrange(q) for _ in range(rng.randrange(1, 6))))
        ka, kb = rng.randrange(1, 6), rng.randrange(1, 6)
        lhs = fold_sum(x, ka + kb)
        rhs = sumset(fold_sum(x, ka), fold_sum(x, kb))
        assert lhs.members() == rhs.members()


def test_fold_vs_bruteforce():
    rng = random.Random(2)
    for _ in range(15):
        q = rng.randrange(3, 40)
        members = [rng.randrange(q) for _ in range(rng.randrange(1, 5))]
        x = ResidueSet.of(q, members)
        k = rng.randrange(1, 7)
        assert set(fold_sum(x, k).members()) == brute_fold(q, set(x.members()), k)


def test_fold_monotone_in_folds():
    # more folds never increases the minimal covering divisor
    rng = random.Random(3)
    for _ in range(10):
        q = rng.randrange(6, 48)
        a = ResidueSet.of(q, (rng.randrange(q) for _ in range(max(2, q // 3))))
        b = ResidueSet.of(q, (rng.randrange(q) for _ in range(max(2, q // 3))))
        r1 = subgroup_cover_1d(a, b, folds=6)
        r2 = subgroup_cover_1d(a, b, folds=24)
        assert r2["q_prime"] <= r1["q_prime"]


def test_subgroup_cover_1d_full_sets():
    q = 12
    full = ResidueSet.full(q)
    res = subgroup_cover_1d(full, full, folds=24, gamma=0.2)
    assert res["q_prime"] == 1 and res["verified"]


def test_subgroup_cover_1d_multiples():
    # A = B = multiples of d: products are multiples of d^2, gcd-limited
    q = 36
    d = 3
    a = ResidueSet.of(q, range(0, q, d))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        res = subgroup_cover_1d(a, a, folds=24, gamma=0.2)
    assert res["q_prime"] == 9  # d^2 survives: frozen from exhaustive fold run
    assert res["hypothesis_ok"] is False


def test_subgroup_cover_1d_independent_rescan():
    # recheck the returned divisor by an independent brute-force fold
    rng = random.Random(4)
    q = 24
    a = ResidueSet.of(q, (rng.randrange(q) for _ in range(16)))
    b = ResidueSet.of(q, (rng.randrange(q) for _ in range(16)))
    res = subgroup_cover_1d(a, b, folds=24)
    d = productset(a, b)
    x = set(sumset(d, negate(d)).members())
    brute = brute_fold(q, x, 24)
    assert all((res["q_prime"] * t) % q in brute for t in range(q // res["q_prime"]))


def test_mismatch_errors():
    with pytest.raises(ValueError):
        sumset(ResidueSet.of(5, [1]), ResidueSet.of(7, [1]))
    with pytest.raises(ValueError):
        fold_sum(ResidueSet.of(5, [1]), 0)


def test_gamma_range_warning():
    a = ResidueSet.full(10)
    with pytest.warns(UserWarning):
        subgroup_cover_1d(a, a, folds=4, gamma=0.3)
