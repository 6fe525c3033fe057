import random
from fractions import Fraction

import pytest

from sl2lab.factored import (
    ONE,
    FactoredModulus,
    divides,
    divisors,
    exact_divides,
    exact_divisors,
    fgcd,
    frac_power,
    quotient_exact,
    radical,
    split_by_exponent,
)


def test_factorization_basic():
    q = FactoredModulus.of(360)
    assert q.factors == ((2, 3), (3, 2), (5, 1))
    assert FactoredModulus.of(1).factors == ()
    assert FactoredModulus.of(97).factors == ((97, 1),)


def test_factorization_rejects_bad_input():
    with pytest.raises(ValueError):
        FactoredModulus.of(0)
    with pytest.raises(ValueError):
        FactoredModulus.of(-6)
    with pytest.raises(ValueError):
        FactoredModulus(12, ((2, 1), (3, 1)))  # 2*3 != 12


def test_exact_divides_examples():
    assert exact_divides(FactoredModulus.of(40), FactoredModulus.of(360))
    assert not exact_divides(FactoredModulus.of(4), FactoredModulus.of(360))
    for n in (1, 2, 17, 360):
        assert exact_divides(ONE, FactoredModulus.of(n))


def test_exact_divides_order_properties():
    rng = random.Random(7)
    pool = [FactoredModulus.of(rng.randrange(1, 5000)) for _ in range(60)]
    for a in pool:
        assert exact_divides(a, a)
    for a in pool[:20]:
        for b in pool[:20]:
            if exact_divides(a, b) and exact_divides(b, a):
                assert a == b
            for c in pool[:20]:
                if exact_divides(a, b) and exact_divides(b, c):
                    assert exact_divides(a, c)


def test_frac_power_examples():
    q = FactoredModulus.of(360)
    assert frac_power(q, Fraction(1, 2)).value == 6
    assert frac_power(q, 1) == q
    assert frac_power(q, 0) == ONE


def test_frac_power_subadditive():
    rng = random.Random(11)
    for _ in range(200):
        q = FactoredModulus.of(rng.randrange(2, 10000))
        a = Fraction(rng.randrange(0, 8), rng.randrange(1, 8))
        b = Fraction(rng.randrange(0, 8), rng.randrange(1, 8))
        lhs = frac_power(q, a).value * frac_power(q, b).value
        rhs = frac_power(q, a + b).value
        assert rhs % lhs == 0
        if all((n * a).denominator == 1 and (n * b).denominator == 1 for _, n in q.factors):
            assert lhs == rhs


def test_split_by_exponent_examples():
    q = FactoredModulus.of(2**5 * 3**2 * 7)
    qs, ql = split_by_exponent(q, 2)
    assert qs.value == 3**2 * 7 and ql.value == 2**5
    sq = FactoredModulus.of(2 * 3 * 5 * 7)
    assert split_by_exponent(sq, 1) == (sq, ONE)
    big = FactoredModulus.of(2**5 * 3**5)
    assert split_by_exponent(big, 4) == (ONE, big)


def test_split_multiplies_back():
    rng = random.Random(3)
    for _ in range(100):
        q = FactoredModulus.of(rng.randrange(1, 100000))
        level = rng.randrange(1, 6)
        qs, ql = split_by_exponent(q, level)
        assert qs.value * ql.value == q.value
        assert exact_divides(qs, q) and exact_divides(ql, q)


def test_radical():
    assert radical(FactoredModulus.of(360)).value == 30
    assert radical(ONE) == ONE
    assert radical(FactoredModulus.of(7**4)).value == 7


def test_gcd_lcm():
    a = FactoredModulus.of(360)
    b = FactoredModulus.of(84)
    import math

    assert fgcd(a, b).value == math.gcd(360, 84)
    assert fgcd(a, ONE) == ONE


def test_divisor_enumeration():
    q = FactoredModulus.of(360)
    ds = [d.value for d in divisors(q)]
    assert len(ds) == 24 and len(set(ds)) == 24
    for d in ds:
        assert 360 % d == 0
    brute = [d for d in range(1, 361) if 360 % d == 0]
    assert sorted(ds) == brute

    eds = [d.value for d in exact_divisors(q)]
    assert sorted(eds) == [1, 5, 8, 9, 40, 45, 72, 360]
    for d in exact_divisors(q):
        assert exact_divides(d, q)


def test_quotient_exact():
    q = FactoredModulus.of(360)
    d = FactoredModulus.of(8)
    assert quotient_exact(q, d).value == 45
    with pytest.raises(ValueError):
        quotient_exact(q, FactoredModulus.of(4))


def test_divides_vs_integer_division():
    rng = random.Random(19)
    for _ in range(200):
        a = FactoredModulus.of(rng.randrange(1, 2000))
        b = FactoredModulus.of(rng.randrange(1, 2000))
        assert divides(a, b) == (b.value % a.value == 0)
