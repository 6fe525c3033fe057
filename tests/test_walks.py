import math

import numpy as np
import pytest

from sl2lab.factored import FactoredModulus
from sl2lab.measure import INTEGRAL_PAIR_LAW, convolve_power, mass_on, uniform_on
from sl2lab.sl2 import IMAT_ID, symmetrize
from sl2lab.spectral import standard_dense_pair_generators
from sl2lab.walks import (
    IntegralLinearEvent,
    LinearForm8,
    LowerLeftEvent,
    ModLinearEvent,
    SingularTraceEvent,
    TraceValueEvent,
    _walk_prefixes,
    archimedean_decay,
    decay_profile,
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


def test_decay_profile_lower_left_limit():
    # E2(5) mass tends to the uniform count 1/(p+1) = 1/6 on SL2(F5)
    prof = decay_profile(
        standard_dense_pair_generators(),
        LowerLeftEvent(),
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
        lowers, LowerLeftEvent(), FactoredModulus.of(5), l_values=[1, 2]
    )
    assert prof["rows"][0]["mass"] == 0.0
    assert prof["rows"][1]["mass"] > 0.0  # s * s^{-1} hits the identity


def test_decay_profile_trace_events_run():
    q = FactoredModulus.of(5)
    prof = decay_profile(
        standard_dense_pair_generators(), SingularTraceEvent(), q, [10]
    )
    # uniform count of tr^2 = 4 on SL2(F5): traces 2 and 3; frozen oracle below
    from sl2lab.sl2 import enumerate_group, trace

    count = sum(1 for x in enumerate_group(q) if (trace(x) ** 2 - 4) % 5 == 0)
    assert abs(prof["uniform_mass"] - count / 120) < 1e-12
    prof_w = decay_profile(
        standard_dense_pair_generators(), TraceValueEvent(n=2), q, [10]
    )
    count_w = sum(1 for x in enumerate_group(q) if trace(x) == 2)
    assert abs(prof_w["uniform_mass"] - count_w / 120) < 1e-12


def test_decay_profile_rejects_bad_l():
    with pytest.raises(ValueError):
        decay_profile(SANOV, LowerLeftEvent(), FactoredModulus.of(5), [0, 3])


def test_sample_walk_l1_uniform():
    S = SANOV
    counts = {}
    for _, g in _walk_prefixes(S, 1, 400, seed=5):
        counts[g] = counts.get(g, 0) + 1
    assert set(counts) == set(S)
    for c in counts.values():
        assert 60 <= c <= 140  # 400/4 = 100 expected


def test_sample_walk_identity_generator():
    S = [(IMAT_ID, IMAT_ID)]
    for _, g in _walk_prefixes(S, 5, 10, seed=1):
        assert g == (IMAT_ID, IMAT_ID)


def test_sample_walk_deterministic_and_counter_based():
    a = list(_walk_prefixes(SANOV, 6, 5, seed=9))
    b = list(_walk_prefixes(SANOV, 6, 5, seed=9))
    assert a == b
    # sample index keys the stream: prefix independence of n_samples
    c = list(_walk_prefixes(SANOV, 6, 3, seed=9))
    assert a[: 3 * 6] == c


def test_sampled_frequency_matches_exact_convolution():
    # dual route: Monte-Carlo frequency vs exact sparse convolution, 4 sigma
    S = SANOV
    l, n = 5, 3000
    form = LinearForm8((0, 1, 0, 0, 0, 0, 0, 0))
    event = IntegralLinearEvent(form, 0)
    exact = convolve_power(uniform_on(S, INTEGRAL_PAIR_LAW), l)
    p = float(mass_on(exact, lambda g: event.test(g)))
    hits = archimedean_decay(S, event, [l], n, seed=11)["rows"][0]["hits"]
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
