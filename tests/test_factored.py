import random

import pytest

from sl2lab.factored import (
    ONE,
    FactoredModulus,
    divides,
    divisors,
    exact_divides,
    exact_divisors,
    fgcd,
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


def test_divides_vs_integer_division():
    rng = random.Random(19)
    for _ in range(200):
        a = FactoredModulus.of(rng.randrange(1, 2000))
        b = FactoredModulus.of(rng.randrange(1, 2000))
        assert divides(a, b) == (b.value % a.value == 0)
