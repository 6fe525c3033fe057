import random
from fractions import Fraction

import pytest

from sl2lab.factored import ONE, FactoredModulus
from sl2lab.measure import (
    INTEGRAL_PAIR_LAW,
    convolve,
    convolve_power,
    delta,
    mass_on,
    pair_law,
    pushforward_pair,
    uniform_on,
)
from sl2lab.sl2 import (
    IMAT_ID,
    PairElement,
    SL2Residue,
    enumerate_group,
    pair_identity,
    reduce_pair,
)

Q3 = FactoredModulus.of(3)
Q5 = FactoredModulus.of(5)


def residue_pairs(q1, q2, elements):
    return [reduce_pair(g, q1, q2) for g in elements]


UNIPOTENT_S = [
    (((1, 1), (0, 1)), ((1, 0), (0, 1))),
    (((1, -1), (0, 1)), ((1, 0), (0, 1))),
    (((1, 0), (1, 1)), ((1, 0), (0, 1))),
    (((1, 0), (-1, 1)), ((1, 0), (0, 1))),
]


def test_uniform_on_examples():
    law = pair_law(Q3, ONE)
    e = pair_identity(Q3, ONE)
    m = uniform_on([e], law)
    assert m.weights == {e: Fraction(1)}
    m2 = uniform_on([e, e], law)
    assert m2.weights == {e: Fraction(1)}  # duplicates merge
    xs = residue_pairs(Q3, ONE, UNIPOTENT_S)
    m4 = uniform_on(xs, law)
    assert all(w == Fraction(1, 4) for w in m4.weights.values())
    with pytest.raises(ValueError):
        uniform_on([], law)


def test_convolution_order_convention():
    # delta_a * delta_b = delta_{ba}
    law = pair_law(Q5, ONE)
    a = reduce_pair((((1, 1), (0, 1)), IMAT_ID), Q5, ONE)
    b = reduce_pair((((1, 0), (1, 1)), IMAT_ID), Q5, ONE)
    from sl2lab.sl2 import pair_mul

    got = convolve(delta(a, law), delta(b, law))
    assert got.weights == {pair_mul(b, a): Fraction(1)}


def test_convolution_uniform_invariance():
    law = pair_law(Q3, ONE)
    full = [PairElement(x, SL2Residue(ONE, 0, 0, 0, 0)) for x in enumerate_group(Q3)]
    u = uniform_on(full, law)
    f = uniform_on(residue_pairs(Q3, ONE, UNIPOTENT_S), law)
    got = convolve(u, f)
    assert got.support_size == len(full)
    assert all(w == Fraction(1, len(full)) for w in got.weights.values())


def test_convolution_identity_mass():
    # chi_S * chi_S on SL2(Z/3), S the four unipotents: mass 1/4 at identity
    # oracle: enumerate all 16 products s*t and count s*t = 1
    law = pair_law(Q3, ONE)
    xs = residue_pairs(Q3, ONE, UNIPOTENT_S)
    from sl2lab.sl2 import pair_mul

    count = sum(1 for s in xs for t in xs if pair_mul(s, t) == pair_identity(Q3, ONE))
    assert count == 4  # frozen oracle value
    m = convolve(uniform_on(xs, law), uniform_on(xs, law))
    assert m(pair_identity(Q3, ONE)) == Fraction(count, 16) == Fraction(1, 4)


def test_convolve_power_examples():
    law = pair_law(Q5, ONE)
    xs = residue_pairs(Q5, ONE, UNIPOTENT_S)
    f = uniform_on(xs, law)
    assert convolve_power(f, 1).weights == f.weights
    e = pair_identity(Q5, ONE)
    assert convolve_power(delta(e, law), 7).weights == {e: Fraction(1)}
    # symmetry of S makes f^(2) symmetric under inversion
    from sl2lab.sl2 import pair_inverse

    f2 = convolve_power(f, 2)
    for x, w in f2.weights.items():
        assert f2(pair_inverse(x)) == w


def test_convolve_power_binary_vs_linear():
    rng = random.Random(0)
    law = pair_law(Q5, ONE)
    xs = residue_pairs(Q5, ONE, UNIPOTENT_S)
    f = uniform_on(xs, law)
    linear = f
    for _ in range(5):
        linear = convolve(linear, f)
    assert convolve_power(f, 6).weights == linear.weights


def test_mode_and_group_mismatch():
    f = uniform_on(residue_pairs(Q3, ONE, UNIPOTENT_S), pair_law(Q3, ONE))
    other = uniform_on(residue_pairs(Q5, ONE, UNIPOTENT_S), pair_law(Q5, ONE))
    with pytest.raises(ValueError):
        convolve(f, other)


def test_pushforward_examples():
    f = uniform_on(UNIPOTENT_S, INTEGRAL_PAIR_LAW)
    triv = pushforward_pair(f, ONE, ONE)
    assert triv.weights == {pair_identity(ONE, ONE): Fraction(1)}
    d = delta(UNIPOTENT_S[0], INTEGRAL_PAIR_LAW)
    pushed = pushforward_pair(d, Q3, Q3)
    assert pushed.weights == {reduce_pair(UNIPOTENT_S[0], Q3, Q3): Fraction(1)}


def test_pushforward_commutes_with_convolution():
    rng = random.Random(1)
    f = uniform_on(UNIPOTENT_S, INTEGRAL_PAIR_LAW)
    for l in (2, 3, 4):
        big = convolve_power(f, l)
        route_a = pushforward_pair(big, Q3, Q5)
        small = pushforward_pair(f, Q3, Q5)
        route_b = convolve_power(small, l)
        assert route_a.weights == route_b.weights  # exact equality


def test_mass_on_examples():
    law = pair_law(Q5, ONE)
    full = [PairElement(x, SL2Residue(ONE, 0, 0, 0, 0)) for x in enumerate_group(Q5)]
    u = uniform_on(full, law)
    assert mass_on(u, lambda x: True) == Fraction(1)
    assert mass_on(u, lambda x: False) == Fraction(0)
    # lower-left entry divisible by 5: exact count p(p-1) = 20 of 120
    assert mass_on(u, lambda x: x.left.c == 0) == Fraction(20, 120) == Fraction(1, 6)


def test_total_mass_preserved():
    f = uniform_on(UNIPOTENT_S, INTEGRAL_PAIR_LAW)
    for l in range(1, 5):
        assert sum(convolve_power(f, l).weights.values()) == Fraction(1)
