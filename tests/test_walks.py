import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sl2lab.factored import FactoredModulus
from sl2lab.measure import INTEGRAL_PAIR_LAW, convolve_power, mass_on, uniform_on
from sl2lab.packed import PairContext, sl2_codes
from sl2lab.sl2 import IMAT_ID, imat_mul, ipair_inv, symmetrize
from sl2lab.spectral import standard_dense_pair_generators
from sl2lab.walks import (
    IntegralLinearEvent,
    _batched_conj_trace,
    LinearForm8,
    LowerLeftEvent,
    ModLinearEvent,
    ModTraceEvent,
    SingularTraceEvent,
    TraceForm,
    TraceValueEvent,
    archimedean_decay,
    decay_profile,
    sample_walk,
)

SANOV = symmetrize(
    [
        (((1, 2), (0, 1)), ((1, 2), (0, 1))),
        (((1, 0), (2, 1)), ((1, 0), (2, 1))),
    ]
)


def test_linear_form_primitivity():
    LinearForm8((1, 0, 0, 0, 0, 0, 0, 0))
    with pytest.raises(ValueError):
        LinearForm8((2, 4, 0, 0, 0, 0, 2, 0))
    with pytest.raises(ValueError):
        LinearForm8((1, 1))


def test_trace_form_validation():
    tf = TraceForm(
        ((0, 1), (0, 0)), ((0, 0), (1, 0)), ((1, 0), (0, -1)), ((0, 1), (1, 0))
    )
    tf.validate_mod(FactoredModulus.of(6))
    with pytest.raises(ValueError):
        TraceForm(((1, 0), (0, 1)), ((0, 1), (0, 0)), ((0, 1), (0, 0)), ((0, 1), (0, 0)))
    degenerate = TraceForm(
        ((0, 3), (0, 0)), ((0, 0), (1, 0)), ((1, 0), (0, -1)), ((0, 1), (1, 0))
    )
    with pytest.raises(ValueError):
        degenerate.validate_mod(FactoredModulus.of(6))  # xi1 = 0 mod 3


def test_decay_profile_lower_left_limit():
    # E2(5) mass tends to the uniform count 1/(p+1) = 1/6 on SL2(F5)
    prof = decay_profile(
        standard_dense_pair_generators(),
        LowerLeftEvent(side=1),
        FactoredModulus.of(5),
        l_values=[1, 5, 20, 60],
    )
    assert prof["N"] == 120
    assert abs(prof["uniform_mass"] - 1 / 6) < 1e-12
    assert abs(prof["rows"][-1]["mass"] - 1 / 6) < 1e-9
    assert prof["fitted_c"] > 0.5


def test_decay_profile_unreachable_event():
    # Sanov-type generators are trivial mod 2, so a1 = 0 mod 4 is never hit
    form = LinearForm8((1, 0, 0, 0, 0, 0, 0, 0))
    prof = decay_profile(
        SANOV, ModLinearEvent(form, 0), FactoredModulus.of(4), l_values=[1, 2, 5, 8]
    )
    assert all(r["mass"] == 0.0 for r in prof["rows"])


def test_decay_profile_avoiding_at_l1():
    lowers = symmetrize([(((1, 0), (2, 1)), IMAT_ID)])
    prof = decay_profile(
        lowers, LowerLeftEvent(side=1), FactoredModulus.of(5), l_values=[1, 2]
    )
    assert prof["rows"][0]["mass"] == 0.0
    assert prof["rows"][1]["mass"] > 0.0  # s * s^{-1} hits the identity


def test_decay_profile_trace_events_run():
    q = FactoredModulus.of(5)
    prof = decay_profile(
        standard_dense_pair_generators(), SingularTraceEvent(side=1), q, [10]
    )
    # uniform count of tr^2 = 4 on SL2(F5): traces 2 and 3; frozen oracle below
    from sl2lab.sl2 import enumerate_group, trace

    count = sum(1 for x in enumerate_group(q) if (trace(x) ** 2 - 4) % 5 == 0)
    assert abs(prof["uniform_mass"] - count / 120) < 1e-12
    prof_w = decay_profile(
        standard_dense_pair_generators(), TraceValueEvent(n=2, side=1), q, [10]
    )
    count_w = sum(1 for x in enumerate_group(q) if trace(x) == 2)
    assert abs(prof_w["uniform_mass"] - count_w / 120) < 1e-12


def test_decay_profile_pair_trace_event():
    tf = TraceForm(
        ((0, 1), (0, 0)), ((0, 0), (1, 0)), ((0, 0), (1, 0)), ((0, 1), (0, 0))
    )
    prof = decay_profile(
        standard_dense_pair_generators(),
        ModTraceEvent(tf),
        FactoredModulus.of(3),
        l_values=[4, 12],
    )
    assert prof["N"] == 24  # pair group generated mod 3 (graph-like)
    assert 0.0 <= prof["rows"][-1]["mass"] <= 1.0


def test_decay_profile_rejects_bad_l():
    with pytest.raises(ValueError):
        decay_profile(SANOV, LowerLeftEvent(), FactoredModulus.of(5), [0, 3])


def test_sample_walk_l1_uniform():
    S = SANOV
    counts = {}
    for g in sample_walk(S, 1, 400, seed=5):
        counts[g] = counts.get(g, 0) + 1
    assert set(counts) == set(S)
    for c in counts.values():
        assert 60 <= c <= 140  # 400/4 = 100 expected


def test_sample_walk_identity_generator():
    S = [(IMAT_ID, IMAT_ID)]
    for g in sample_walk(S, 5, 10, seed=1):
        assert g == (IMAT_ID, IMAT_ID)


def test_sample_walk_deterministic_and_counter_based():
    a = list(sample_walk(SANOV, 6, 5, seed=9))
    b = list(sample_walk(SANOV, 6, 5, seed=9))
    assert a == b
    # sample index keys the stream: prefix independence of n_samples
    c = list(sample_walk(SANOV, 6, 3, seed=9))
    assert a[:3] == c


def test_sample_walk_rejects_l0():
    with pytest.raises(ValueError):
        list(sample_walk(SANOV, 0, 1))


def test_sampled_frequency_matches_exact_convolution():
    # dual route: Monte-Carlo frequency vs exact sparse convolution, 4 sigma
    S = SANOV
    l, n = 5, 3000
    form = LinearForm8((0, 1, 0, 0, 0, 0, 0, 0))
    event = IntegralLinearEvent(form, 0)
    exact = convolve_power(uniform_on(S, INTEGRAL_PAIR_LAW), l)
    p = float(mass_on(exact, lambda g: event.test(g)))
    hits = sum(1 for g in sample_walk(S, l, n, seed=11) if event.test(g))
    sigma = math.sqrt(p * (1 - p) / n)
    assert abs(hits / n - p) <= 4 * sigma + 1e-12


def test_archimedean_parity_obstruction():
    # diagonal-entry sum is always even on Sanov walks; odd target unreachable
    form = LinearForm8((1, 0, 0, 1, 0, 0, 0, 0))
    rep = archimedean_decay(SANOV, IntegralLinearEvent(form, 3), [2, 4, 6], 200, seed=3)
    assert all(r["hits"] == 0 for r in rep["rows"])
    assert rep["fitted_rate"] is None


def test_archimedean_positive_rate():
    form = LinearForm8((0, 1, 0, 0, 0, 0, 0, 0))
    rep = archimedean_decay(
        standard_dense_pair_generators(),
        IntegralLinearEvent(form, 0),
        l_values=[4, 8, 12, 16],
        n_samples=1500,
        seed=7,
    )
    assert rep["fitted_rate"] is not None and rep["fitted_rate"] > 0
    for r in rep["rows"]:
        assert r["ci_low"] <= r["p_hat"] <= r["ci_high"]


def test_archimedean_requires_integral_event():
    with pytest.raises(TypeError):
        archimedean_decay(SANOV, LowerLeftEvent(), [2], 10)


def test_mod_linear_event_reduces_large_coefficients():
    # 2^62 + 1 = 0 (mod 5), so L = 0*4 + 1*1 = 1; unreduced, 4(2^62 + 1) wraps int64
    form = LinearForm8((2**62 + 1, 0, 0, 0, 0, 0, 0, 1))
    digits = [np.array([v], dtype=np.int64) for v in (4, 0, 0, 0, 0, 0, 0, 1)]
    assert ModLinearEvent(form, 1).indicator(digits, 5).tolist() == [True]


def test_conj_trace_reduces_large_entries():
    big = 2**62 + 1  # = 0 (mod 5)
    g = [np.array([v], dtype=np.int64) for v in (2, 1, 1, 1)]
    xi, eta = ((1, big), (0, -1)), ((0, 1), (big + 1, 0))
    small_xi, small_eta = ((1, 0), (0, -1)), ((0, 1), (1, 0))
    assert _batched_conj_trace(g, xi, eta, 5).tolist() == _batched_conj_trace(
        g, small_xi, small_eta, 5
    ).tolist()


ENTRIES = st.lists(st.integers(-(2**70), 2**70), min_size=4, max_size=4)


@settings(max_examples=40, deadline=None)
@given(Q=st.sampled_from([2, 3, 4, 5, 7, 9, 12, 25]), xi=ENTRIES, eta=ENTRIES)
def test_conj_trace_matches_integer_arithmetic(Q, xi, eta):
    # dual route: Tr(g xi g^-1 eta) in Python integers, reduced mod Q at the end
    codes = sl2_codes(Q)
    g = PairContext(Q, 1).decode(codes[:: max(1, codes.size // 100)])[:4]
    xi = ((xi[0], xi[1]), (xi[2], xi[3]))
    eta = ((eta[0], eta[1]), (eta[2], eta[3]))
    got = _batched_conj_trace(g, xi, eta, Q).tolist()
    for i, value in enumerate(got):
        a, b, c, d = (int(v[i]) for v in g)
        k = imat_mul(imat_mul(((a, b), (c, d)), xi), ((d, -b), (-c, a)))
        (t00, _), (_, t11) = imat_mul(k, eta)
        assert value == (t00 + t11) % Q
