import functools
import itertools
import random
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sl2lab.commutator import (
    CongruenceBox,
    amplify,
    amplify_exhaustive_check,
    box_lift_codes,
    commutator_congruence,
    commutator_sweep,
    connecting_map,
    bracket_span_cover,
    solve_mod_prime_power,
    solve_mod_q,
)
from sl2lab.factored import ONE, FactoredModulus, exact_divisors
from sl2lab.growth import GroupSet
from sl2lab.packed import PairContext, full_pair_codes
from sl2lab.sl2 import (
    LieVector,
    SL2Residue,
    enumerate_group,
    identity,
    reduce_residue,
)


def test_commutator_congruence_example():
    # frozen oracle: both sides equal [[26,0],[0,101]] mod 125
    q = FactoredModulus.of(125)
    x = SL2Residue(q, 1, 5, 0, 1)
    y = SL2Residue(q, 1, 0, 5, 1)
    lhs, rhs, ok = commutator_congruence(x, y, 5, 1, 1)
    assert ok
    assert lhs.entries == (26, 0, 0, 101)
    assert rhs == (26, 0, 0, 101)


def test_commutator_congruence_trivial_cases():
    q = FactoredModulus.of(27)
    x = SL2Residue(q, 1, 3, 0, 1)
    e = identity(q)
    lhs, rhs, ok = commutator_congruence(x, e, 3, 1, 1)
    assert ok and lhs == e and rhs == (1, 0, 0, 1)
    lhs, rhs, ok = commutator_congruence(x, x, 3, 1, 1)
    assert ok and lhs == e


def test_commutator_congruence_preconditions():
    q = FactoredModulus.of(27)
    x = SL2Residue(q, 1, 3, 0, 1)
    y = SL2Residue(q, 1, 1, 0, 1)  # depth 0
    with pytest.raises(ValueError):
        commutator_congruence(x, y, 3, 1, 1)
    with pytest.raises(ValueError):
        commutator_congruence(x, x, 3, 2, 2)  # needs 3^6 > 27


def test_commutator_sweep_small():
    rep = commutator_sweep(2, depth=3)
    assert rep["elements"] == 2**6
    assert rep["violations"] == []
    rep3 = commutator_sweep(3, depth=2)
    assert rep3["elements"] == 27
    assert rep3["violations"] == []


def test_solve_mod_prime_power():
    rng = random.Random(0)
    for _ in range(80):
        p = rng.choice([2, 3, 5])
        k = rng.randrange(1, 4)
        pk = p**k
        rows, cols = rng.randrange(1, 4), rng.randrange(1, 5)
        m = [[rng.randrange(pk) for _ in range(cols)] for _ in range(rows)]
        z_true = [rng.randrange(pk) for _ in range(cols)]
        c = [sum(m[i][j] * z_true[j] for j in range(cols)) % pk for i in range(rows)]
        z = solve_mod_prime_power(m, c, p, k)
        assert z is not None
        for i in range(rows):
            assert sum(m[i][j] * z[j] for j in range(cols)) % pk == c[i]


def test_solve_mod_prime_power_inconsistent():
    # 2z = 1 mod 4 has no solution
    assert solve_mod_prime_power([[2]], [1], 2, 2) is None


@st.composite
def linear_systems(draw):
    """(n, M, c) with n composite and M of at most 2 x 2, entries unreduced."""
    n = draw(st.sampled_from([6, 12, 18, 20, 36, 45]))
    rows, cols = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    entries = st.integers(-n, 2 * n)
    m = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    return n, m, draw(st.lists(entries, min_size=rows, max_size=rows))


@settings(max_examples=150, deadline=None)
@given(system=linear_systems())
@example(system=(36, [[6, 0], [0, 4]], [1, 0]))  # 6 z0 = 1 has no solution mod 36
@example(system=(36, [[2, 3], [1, 1]], [5, 7]))
def test_solve_mod_q_crt(system):
    # brute force over (Z/n)^cols decides solvability; a returned solution
    # is substituted back into M z = c
    n, m, c = system

    def solves(z):
        return all((sum(a * b for a, b in zip(row, z)) - ci) % n == 0 for row, ci in zip(m, c))

    z = solve_mod_q(m, c, FactoredModulus.of(n))
    if z is None:
        assert not any(solves(w) for w in itertools.product(range(n), repeat=len(m[0])))
    else:
        assert len(z) == len(m[0]) and all(0 <= v < n for v in z)
        assert solves(z)


def test_bracket_span_standard_pair():
    q = FactoredModulus.of(35)
    e = LieVector(q, 0, 1, 0)
    f = LieVector(q, 0, 0, 1)
    res = bracket_span_cover(e, f, q)
    assert res["covered"]
    assert set(res["certificates"]) == {"h", "e", "f"}


def test_bracket_span_rejects_dependent():
    q = FactoredModulus.of(35)
    e = LieVector(q, 0, 1, 0)
    with pytest.raises(ValueError):
        bracket_span_cover(e, e, q)
    # dependent mod 5 only
    v = LieVector(q, 1, 2, 3)
    w = LieVector(q, 6, 12, 18)  # = 6*v mod 35, dependent mod both primes
    with pytest.raises(ValueError):
        bracket_span_cover(v, w, q)


def test_bracket_span_random_instances():
    rng = random.Random(1)
    q = FactoredModulus.of(105)
    done = 0
    while done < 50:
        v = LieVector(q, rng.randrange(105), rng.randrange(105), rng.randrange(105))
        w = LieVector(q, rng.randrange(105), rng.randrange(105), rng.randrange(105))
        try:
            res = bracket_span_cover(v, w, q)
        except ValueError:
            continue
        assert res["covered"]  # substitution check done inside
        done += 1


def test_congruence_box_windows():
    b = CongruenceBox(FactoredModulus.of(4), FactoredModulus.of(16))
    assert b.window(2) == (2, 4)
    assert b.window_valid()
    bad = CongruenceBox(FactoredModulus.of(2), FactoredModulus.of(16))
    assert not bad.window_valid()  # m2 = 4 > 2 m1
    with pytest.raises(ValueError):
        CongruenceBox(FactoredModulus.of(8), FactoredModulus.of(4))


def test_amplify_window_arithmetic():
    h1 = CongruenceBox(FactoredModulus.of(2), FactoredModulus.of(4))
    out = amplify(h1, h1)
    assert out.inner.value == 4 and out.outer.value == 16
    # iterated amplification doubles depth per step
    out2 = amplify(out, out)
    assert out2.inner.value == 16 and out2.outer.value == 256
    with pytest.raises(ValueError):
        amplify(h1, CongruenceBox(FactoredModulus.of(3), FactoredModulus.of(9)))
    with pytest.raises(ValueError):
        amplify(
            CongruenceBox(FactoredModulus.of(2), FactoredModulus.of(16)),
            h1,
        )


def test_amplify_exhaustive_example():
    # the worked case: p = 2, windows (1,2) x (1,2) -> box (4, 16) mod 16
    h1 = CongruenceBox(FactoredModulus.of(2), FactoredModulus.of(4))
    rep = amplify_exhaustive_check(h1, h1, cap=128)
    assert rep["verified"]
    assert rep["primes"][2]["contained"]
    assert rep["output"].inner.value == 4 and rep["output"].outer.value == 16


def test_amplify_exhaustive_degenerate_window():
    # trivial second window: the output box degenerates but still verifies
    h1 = CongruenceBox(FactoredModulus.of(2), FactoredModulus.of(4))
    h2 = CongruenceBox(FactoredModulus.of(4), FactoredModulus.of(4))
    rep = amplify_exhaustive_check(h1, h2, cap=128)
    assert rep["verified"]
    assert rep["output"].inner.value == 8 and rep["output"].outer.value == 16


def test_amplify_exhaustive_stops_at_kernel(monkeypatch):
    # p = 2, windows (1,1) x (1,2): the layers fill the 64-element kernel of
    # SL2(Z/8) -> SL2(Z/2) before the seventh product, and the loop stops there
    from sl2lab import commutator
    from sl2lab.packed import PairContext

    calls = []
    layer_fn = commutator._product_layer

    def counted(*args):
        calls.append(args)
        return layer_fn(*args)

    monkeypatch.setattr(commutator, "_product_layer", counted)
    h1 = CongruenceBox(FactoredModulus.of(2), FactoredModulus.of(2))
    h2 = CongruenceBox(FactoredModulus.of(2), FactoredModulus.of(4))
    rep = amplify_exhaustive_check(h1, h2, cap=128)
    assert rep["verified"] and rep["primes"][2]["contained"]
    assert rep["primes"][2]["product_size"] == 64
    assert 1 <= len(calls) < 7
    # plain-Python (H1 H2)^4 over SL2(Z/8) tuples
    ctx = PairContext(8, 1)

    def tuples(codes):
        return {tuple(int(v) for v in t) for t in zip(*ctx.decode(codes)[:4])}

    def prod(xs, ys):
        return {
            ((a * e + b * g) % 8, (a * f + b * h) % 8, (c * e + d * g) % 8, (c * f + d * h) % 8)
            for a, b, c, d in xs
            for e, f, g, h in ys
        }

    box1 = tuples(box_lift_codes(2, 1, 1, 3, extra=1))
    box2 = tuples(box_lift_codes(2, 1, 2, 3, extra=1))
    layer = box1
    for step in range(1, 8):
        layer = prod(layer, box2 if step % 2 == 1 else box1)
    assert len(layer) == rep["primes"][2]["product_size"]


def test_amplify_exhaustive_multi_prime():
    h1 = CongruenceBox(FactoredModulus.of(6), FactoredModulus.of(36))
    rep = amplify_exhaustive_check(h1, h1, cap=81)
    assert rep["primes"][2]["checked"] and rep["primes"][2]["contained"]
    assert rep["primes"][3]["checked"] and rep["primes"][3]["contained"]


def test_amplify_cap_skips():
    h1 = CongruenceBox(FactoredModulus.of(2**4), FactoredModulus.of(2**8))
    rep = amplify_exhaustive_check(h1, h1, cap=128)
    assert not rep["primes"][2]["checked"]
    assert rep["verified"]  # nothing checked, nothing violated


def test_box_lift_codes_shape():
    codes = box_lift_codes(2, 1, 2, 4)
    assert codes.size == 8  # (m2 - m1) = 1: 2^3 lifts
    from sl2lab.packed import PairContext

    ctx = PairContext(16, 1)
    a, b, c, d = ctx.decode(codes)[:4]
    assert np.all((a - 1) % 2 == 0) and np.all(b % 2 == 0)
    assert np.all((a * d - b * c) % 16 == 1)


def test_connecting_map_full_group():
    # B = the full group: the section exists at power 1 and is the identity lift
    q5 = FactoredModulus.of(5)
    b = GroupSet.full_group(q5, ONE)
    cm = connecting_map(b, q5, ONE, k_max=3)
    assert cm.power == 1
    assert cm.validate()
    # identity-lift: the smallest preimage of x reducing to x is x itself
    some = int(cm.domain_codes[7])
    assert cm.lifts[7] == some


def test_connecting_map_trivial_target():
    q5 = FactoredModulus.of(5)
    b = GroupSet.full_group(q5, ONE)
    cm = connecting_map(b, ONE, ONE, k_max=2)
    assert cm.domain_codes.size == 1
    assert cm.validate()  # constant map onto the trivial group


def test_connecting_map_proper_powers():
    # B = generators only: needs a genuine power k > 1 to cover
    q3 = FactoredModulus.of(3)
    gens = [
        (((1, 1), (0, 1)), ((1, 0), (0, 1))),
        (((1, -1), (0, 1)), ((1, 0), (0, 1))),
        (((1, 0), (1, 1)), ((1, 0), (0, 1))),
        (((1, 0), (-1, 1)), ((1, 0), (0, 1))),
    ]
    b = GroupSet.from_intpairs(q3, ONE, gens)
    cm = connecting_map(b, q3, ONE, k_max=8)
    assert cm.power > 1
    assert cm.validate()


@functools.lru_cache(maxsize=None)
def _congruence_subgroup(q1: FactoredModulus, q2: FactoredModulus, d1, d2) -> tuple:
    # sorted reduced codes of the x with x = 1 mod (d1, d2), by the object route
    ctx = PairContext(q1.value, q2.value)
    left = [x for x in enumerate_group(q1) if reduce_residue(x, d1) == identity(d1)]
    right = [y for y in enumerate_group(q2) if reduce_residue(y, d2) == identity(d2)]
    return tuple(sorted(ctx.encode([*x.entries, *y.entries]).item() for x in left for y in right))


def plain_section(b: GroupSet, q1: FactoredModulus, q2: FactoredModulus, k_max: int):
    """(power, d1, d2, domain, lifts) by a plain search, or None: B^k at the
    full modulus for k = 1..k_max, coverage re-tested at every k, the
    strongest divisor pair first and the smallest-code preimage."""
    full, red_ctx = b.ctx, PairContext(q1.value, q2.value)
    powers = [b.codes.tolist()]
    for _ in range(k_max - 1):
        prev = np.array(powers[-1], dtype=np.int64)
        powers.append(sorted(set(full.mul(prev[:, None], b.codes[None, :]).ravel().tolist())))
    pairs = [
        (d1, d2)
        for d1 in exact_divisors(q1)
        for d2 in exact_divisors(q2)
        if (d1, d2) != (q1, q2) or q1.value * q2.value == 1
    ]
    for d1, d2 in sorted(pairs, key=lambda p: (p[0].value * p[1].value, p[0].value)):
        domain = _congruence_subgroup(q1, q2, d1, d2)
        for k, power in enumerate(powers, 1):
            preimage = {}
            for code in power:  # ascending, so the first preimage is the smallest
                t = full.element_tuple(code)
                x = red_ctx.encode([v % q1.value for v in t[:4]] + [v % q2.value for v in t[4:]])
                preimage.setdefault(x.item(), code)
            if all(x in preimage for x in domain):
                return k, d1.value, d2.value, list(domain), [preimage[x] for x in domain]
    return None


SECTION_MODULI = [
    ((4, 1), (2, 1)),
    ((6, 1), (2, 1)),
    ((6, 1), (3, 1)),
    ((9, 1), (3, 1)),
    ((10, 1), (5, 1)),
    ((4, 3), (2, 3)),
    ((6, 2), (3, 2)),
    ((6, 2), (1, 1)),
    ((4, 4), (2, 2)),
]


@settings(max_examples=40, deadline=None)
@given(moduli=st.sampled_from(SECTION_MODULI), size=st.integers(1, 30), seed=st.integers(0, 2**32))
def test_connecting_map_matches_plain_search(moduli, size, seed):
    (a1, a2), (t1, t2) = moduli
    codes = full_pair_codes(a1, a2)
    pick = np.random.default_rng(seed).choice(codes.size, size=size, replace=False)
    b = GroupSet(FactoredModulus.of(a1), FactoredModulus.of(a2), np.sort(codes[pick]))
    q1, q2 = FactoredModulus.of(t1), FactoredModulus.of(t2)
    expect = plain_section(b, q1, q2, k_max=4)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the size hypothesis of bounded generation
        if expect is None:
            with pytest.raises(ValueError):
                connecting_map(b, q1, q2, k_max=4)
            return
        cm = connecting_map(b, q1, q2, k_max=4)
    got = (cm.power, cm.d1.value, cm.d2.value, cm.domain_codes.tolist(), cm.lifts.tolist())
    assert got == expect


def test_connecting_map_coverage_failure():
    q5 = FactoredModulus.of(5)
    # a single diagonal element generates a small cyclic subgroup: no coverage
    d = GroupSet.from_elements(
        q5,
        ONE,
        [
            __import__("sl2lab.sl2", fromlist=["PairElement"]).PairElement(
                SL2Residue(q5, 2, 0, 0, 3), SL2Residue(ONE, 0, 0, 0, 0)
            )
        ],
    )
    with pytest.raises(ValueError):
        connecting_map(d, q5, ONE, k_max=3)
