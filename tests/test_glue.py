import json
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from sl2lab import glue
from sl2lab.factored import ONE, FactoredModulus
from sl2lab.cli import main
from sl2lab.glue import GluingConfig, GluingReport, glue_pipeline, replay_certificates
from sl2lab.growth import GroupSet, product_set
from sl2lab.packed import PairContext, generated_subgroup, sl2_codes
from sl2lab.sl2 import PairElement, enumerate_group
from sl2lab.spectral import unit_dense_pair_generators

Q5 = FactoredModulus.of(5)


def diagonal_set(q: FactoredModulus) -> GroupSet:
    return GroupSet.from_elements(q, q, [PairElement(x, x) for x in enumerate_group(q)])


def test_diagonal_codes_from_sl2_codes():
    # glue --b diagonal builds B as x q^4 + x over the sorted codes x of SL2(Z/q)
    for qv in (1, 2, 3, 4, 5, 8, 9, 12):
        x = sl2_codes(qv)
        assert np.array_equal(x * np.int64(qv**4) + x, diagonal_set(FactoredModulus.of(qv)).codes)


def dense_ball(qv: int, size: int, seed: int = 0) -> GroupSet:
    ctx = PairContext(qv, qv)
    ball = generated_subgroup(ctx, ctx.encode_intpairs(unit_dense_pair_generators()))
    rng = np.random.default_rng(seed)
    q = FactoredModulus.of(qv)
    if ball.size <= size:
        return GroupSet(q, q, ball)
    pick = np.sort(rng.choice(ball.size, size=size, replace=False))
    return GroupSet(q, q, ball[pick])


def quiet_config(**kw) -> GluingConfig:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return GluingConfig(**kw)


def test_config_validation():
    with pytest.raises(ValueError):
        quiet_config(q1=Q5, q2=Q5, q3=Q5, theta=0.3)  # gcd(q1, q3) != 1
    with pytest.raises(ValueError):
        quiet_config(q1=ONE, q2=Q5, q3=Q5, theta=1.5)
    with pytest.warns(UserWarning):
        GluingConfig(q1=ONE, q2=Q5, q3=Q5, theta=0.3)  # above the asymptotic range


def test_moduli_validation():
    cfg = quiet_config(q1=ONE, q2=Q5, q3=Q5, theta=0.3)
    wrong = GroupSet.full_group(Q5, ONE)
    with pytest.raises(ValueError):
        glue_pipeline(wrong, cfg)


def test_full_group_trivial_success():
    cfg = quiet_config(q1=ONE, q2=Q5, q3=Q5, theta=0.3, cap=300_000)
    rep = glue_pipeline(GroupSet.full_group(Q5, Q5), cfg)
    assert rep.q3_star == 5
    assert not rep.no_expansion
    assert replay_certificates(rep)
    # the defect case: its stages and certificates, gamma's code included
    out = rep.as_dict()
    assert out["prime_table"] == [
        {"p": 5, "n": 1, "scenario": "DEFECT", "agreement": 0.0, "class_depth": 1}
    ]
    assert out["stages"] == [
        {"stage": "section", "power": 1, "d1": 1, "d2": 1, "domain_size": 120},
        {"stage": "defect-case", "closure_size": 120, "achieved": [5, 1]},
    ]
    assert out["certificates"] == [
        {"kind": "section-valid", "params": {"power": 1, "domain_size": 120}, "verified": True},
        {
            "kind": "defect-element-kernel",
            "params": {"pair": [117, 97], "gamma": 28251},
            "verified": True,
        },
        {
            "kind": "defect-element-depth",
            "params": {"p": 5, "class_depth": 1, "observed_depth": 0},
            "verified": True,
        },
        {
            "kind": "defect-kernel-coverage",
            "params": {
                "q3_star": 5, "depth_modulus": 1, "subgroup_size": 120, "achieved_size": 120
            },
            "verified": True,
        },
    ]
    assert out["incomplete"] == []


def congruence_kernel_case() -> tuple[GroupSet, GluingConfig]:
    # B: the elements of SL2(Z/12) x SL2(Z/2) whose left factor is 1 mod 4.
    # The q3 = 4 side is trivial, so the dichotomy finds a structured
    # homomorphism trivial at half depth and the iterated-commutator case runs.
    q1, q2, q3 = FactoredModulus.of(3), FactoredModulus.of(2), FactoredModulus.of(4)
    full = GroupSet.full_group(FactoredModulus.of(12), q2)
    a1, b1, c1, d1 = full.ctx.decode(full.codes)[:4]
    keep = (a1 % 4 == 1) & (b1 % 4 == 0) & (c1 % 4 == 0) & (d1 % 4 == 1)
    b = GroupSet(full.q1, full.q2, full.codes[keep])
    return b, quiet_config(q1=q1, q2=q2, q3=q3, theta=0.3, cap=500_000)


def test_commutator_case_on_congruence_kernel():
    b, cfg = congruence_kernel_case()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # |B| is below the growth size hypothesis
        rep = glue_pipeline(b, cfg)
    out = rep.as_dict()
    assert out["prime_table"] == [
        {
            "p": 2,
            "n": 2,
            "scenario": "STRUCTURED",
            "h_trivial_at_half_depth": True,
            "agreement": 1.0,
            "S_size": 144,
            "S_density_ok": True,
            "class_depth": 1,
            "half_depth": 1,
        }
    ]
    assert out["stages"] == [
        {"stage": "section", "power": 1, "d1": 1, "d2": 1, "domain_size": 144},
        {"stage": "commutator-case", "rounds": 1, "final_layer": 24, "achieved": [1, 1]},
    ]
    assert out["certificates"] == [
        {"kind": "section-valid", "params": {"power": 1, "domain_size": 144}, "verified": True},
        {
            "kind": "commutator-depth",
            "params": {"p": 2, "target": 2, "achieved": 2, "rounds": 1},
            "verified": True,
        },
    ]
    # the closure covers no congruence kernel, and the report says so
    assert out["incomplete"] == [
        {"stage": "commutator-case", "reason": "closure covers no congruence kernel", "target": [4]}
    ]
    assert rep.q3_star == 1 and rep.no_expansion
    assert replay_certificates(rep)


def test_commutator_depth_below_target_is_an_incomplete_row(monkeypatch):
    # layer depths that alternate 0, 1, 0, ... never stagnate and never reach
    # the target 2: after its rounds the case records the depths it reached,
    # and no certificate that would fail its replay
    calls = []

    def alternating(digits, p, n):
        calls.append(p)
        return np.array([(len(calls) - 1) % 2])

    monkeypatch.setattr(glue, "congruence_depths", alternating)
    b, cfg = congruence_kernel_case()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # |B| is below the growth size hypothesis
        rep = glue_pipeline(b, cfg)
    assert len(calls) == 8
    assert rep.incomplete == [
        {
            "stage": "commutator-case",
            "reason": "q3-side depth below target",
            "depths": {2: 1},
            "target": {2: 2},
        }
    ]
    assert [c["kind"] for c in rep.certificates] == ["section-valid"]
    assert replay_certificates(rep)
    assert rep.q3_star == 1 and rep.no_expansion


def test_commutator_depth_certificate_is_replayed(monkeypatch):
    # depths that overstate the commutators of random lifts stop the loop
    # after one round; the kernel test of the final layer refuses the claim
    cfg = quiet_config(q1=FactoredModulus.of(3), q2=FactoredModulus.of(2),
                       q3=FactoredModulus.of(4), theta=0.3, cap=500_000)
    b = GroupSet.full_group(FactoredModulus.of(12), FactoredModulus.of(2))
    rng = np.random.default_rng(0)
    psi = SimpleNamespace(lifts=rng.choice(b.codes, size=40, replace=False))
    monkeypatch.setattr(glue, "congruence_depths", lambda digits, p, n: np.full(np.shape(digits[0]), n))
    report = GluingReport(cfg)
    try:
        glue._run_commutator_case(b, None, cfg, psi, None, {}, [(2, 2)], set(range(40)), report)
    except glue._Incomplete:
        pass
    assert report.certificates == [
        {
            "kind": "commutator-depth",
            "params": {"p": 2, "target": 2, "achieved": 2, "rounds": 1},
            "verified": False,
        }
    ]
    assert not replay_certificates(report)


def test_refused_closure_reaches_the_caller(monkeypatch):
    # a cap that stops a scenario's closure is not a finding: its ValueError
    # leaves glue_pipeline from each of the three scenarios that close
    cfg5 = quiet_config(q1=ONE, q2=Q5, q3=Q5, theta=0.3, cap=300_000)
    cases = [
        (GroupSet.full_group(Q5, Q5), cfg5, None, "_run_defect_case"),
        (*congruence_kernel_case(), None, "_run_commutator_case"),
        (diagonal_set(Q5), cfg5, dense_ball(5, 4000), "_run_one_parameter_case"),
    ]
    callers = []

    def refuse(ctx, gens, cap):
        callers.append(sys._getframe(1).f_code.co_name)
        raise ValueError(f"generated subgroup exceeds cap {cap}")

    monkeypatch.setattr(glue, "generated_subgroup", refuse)
    for b, cfg, a, caller in cases:
        callers.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # |B| is below the growth size hypothesis
            with pytest.raises(ValueError, match=f"exceeds cap {cfg.cap}"):
                glue_pipeline(b, cfg, a=a)
        assert callers == [caller]


def test_diagonal_without_a_reports_no_expansion():
    cfg = quiet_config(q1=ONE, q2=Q5, q3=Q5, theta=0.3, cap=300_000)
    b = diagonal_set(Q5)
    rep = glue_pipeline(b, cfg, a=None)
    assert rep.no_expansion and rep.q3_star == 1
    assert any(i["stage"] == "one-parameter-case" for i in rep.incomplete)
    # the hypotheses themselves hold: the failure is structural, not size
    assert rep.hypotheses["ok_12"] and rep.hypotheses["ok_3"]
    # classification saw the structured scenario with a deep homomorphism
    row = rep.prime_table[0]
    assert row["scenario"] == "STRUCTURED" and not row["h_trivial_at_half_depth"]
    assert replay_certificates(rep)


def test_diagonal_with_dense_a_proceeds():
    cfg = quiet_config(q1=ONE, q2=Q5, q3=Q5, theta=0.3, cap=300_000)
    b = diagonal_set(Q5)
    a = dense_ball(5, 4000)
    rep = glue_pipeline(b, cfg, a=a)
    assert not rep.no_expansion
    assert rep.q3_star == 5
    assert replay_certificates(rep)
    assert rep.coverage["sizes_by_power"][-1] == 14400  # full coverage reached


def test_diagonal_q8_with_dense_a():
    q8 = FactoredModulus.of(8)
    cfg = quiet_config(q1=ONE, q2=q8, q3=q8, theta=0.3, cap=500_000)
    b = diagonal_set(q8)
    a = dense_ball(8, 4000)
    rep = glue_pipeline(b, cfg, a=a)
    assert not rep.no_expansion and rep.q3_star == 8
    assert replay_certificates(rep)
    kinds = [c["kind"] for c in rep.certificates]
    assert "one-parameter-kernel-coverage" in kinds


def test_final_assembly_forms_only_the_powers_it_measures(monkeypatch):
    # a product that never grows records U, U^2, U^3 and U^4: three products
    calls = []

    def stalled(a, b, cap):
        calls.append(len(a))
        return a

    monkeypatch.setattr(glue, "product_set", stalled)
    cfg = quiet_config(q1=ONE, q2=Q5, q3=Q5, theta=0.3, cap=300_000)
    rep = glue_pipeline(diagonal_set(Q5), cfg, a=dense_ball(5, 4000))
    assert rep.q3_star == 5
    sizes = rep.coverage["sizes_by_power"]
    assert sizes == [sizes[0]] * 4 and sizes[0] < 120**2
    assert len(calls) == 3


def test_kernel_coverage_goes_through_growth():
    # glue tests containment with growth.covers_congruence and reduces with
    # GroupSet.reduce_to; it builds no congruence subgroup or scan of its own
    text = Path(glue.__file__).read_text()
    assert "congruence_subgroup_codes" not in text and "isin_sorted" not in text


def test_report_serializes_to_json():
    cfg = quiet_config(q1=ONE, q2=Q5, q3=Q5, theta=0.3, cap=300_000)
    rep = glue_pipeline(diagonal_set(Q5), cfg, a=dense_ball(5, 2000))
    text = json.dumps(rep.as_dict(), indent=1, sort_keys=True)
    back = json.loads(text)
    assert back["q3_star"] == rep.q3_star
    assert back["certificates"][0]["kind"] == "section-valid"


def test_certificates_carry_replayed_claims():
    cfg = quiet_config(q1=ONE, q2=Q5, q3=Q5, theta=0.3, cap=300_000)
    rep = glue_pipeline(diagonal_set(Q5), cfg, a=dense_ball(5, 4000))
    cov = [c for c in rep.certificates if c["kind"].endswith("kernel-coverage")]
    assert cov and all(c["verified"] for c in cov)
    # independent replay: re-derive the claimed subgroup and rescan membership
    from sl2lab.packed import congruence_subgroup_codes

    claim = cov[0]["params"]
    sub = congruence_subgroup_codes(rep.q3_star, 1, claim["depth_modulus"], 1)
    assert sub.size == claim["subgroup_size"]


def test_deterministic_given_seed():
    cfg = quiet_config(q1=ONE, q2=Q5, q3=Q5, theta=0.3, cap=300_000, seed=3)
    b = diagonal_set(Q5)
    a = dense_ball(5, 3000)
    rep1 = glue_pipeline(b, cfg, a=a)
    rep2 = glue_pipeline(b, cfg, a=a)
    assert json.dumps(rep1.as_dict(), sort_keys=True) == json.dumps(
        rep2.as_dict(), sort_keys=True
    )


def test_glue_cli_dense_a_fills_the_group_in_two_powers(tmp_path):
    # the final assembly's (B u A)^2 fills SL2(Z/5)^2, and the product stops
    # there: the benchmark's dense q = 5 run, end to end
    argv = ["--out", str(tmp_path), "glue", "--q2", "5", "--q3", "5", "--b", "diagonal", "--a", "dense"]
    assert main(argv) == 0
    (run,) = tmp_path.glob("run-*")
    rep = json.loads((run / "glue.json").read_text())
    assert rep["coverage"]["sizes_by_power"] == [4092, 14400]


def test_final_assembly_forms_its_powers_at_the_target_modulus(monkeypatch):
    # q3* = 4, a proper divisor of q3 = 8, makes the target (4, 8) a proper
    # reduction, where U = B u A is not yet the whole group: each power is
    # formed there, and its size is that of the full-modulus power reduced
    q8, q4 = FactoredModulus.of(8), FactoredModulus.of(4)
    monkeypatch.setattr(glue, "_run_one_parameter_case", lambda *args: (4, 1))
    contexts = []

    def recorded(a, b, cap):
        contexts.append({(a.q1, a.q2), (b.q1, b.q2)})
        return product_set(a, b, cap)

    monkeypatch.setattr(glue, "product_set", recorded)
    cfg = quiet_config(q1=ONE, q2=q8, q3=q8, theta=0.3, cap=500_000)
    b, a = diagonal_set(q8), dense_ball(8, 4000)
    rep = glue_pipeline(b, cfg, a=a)
    assert rep.q3_star == 4 and rep.coverage["target_moduli"] == [4, 8]
    assert contexts and all(c == {(q4, q8)} for c in contexts)
    union = b.union(a)
    cur, sizes = union, []
    while True:
        sizes.append(len(cur.reduce_to(q4, q8)))
        if sizes[-1] == rep.coverage["group_order"] or len(sizes) == 4:
            break
        cur = product_set(cur, union, cfg.cap)
    assert sizes[0] < rep.coverage["group_order"]
    assert rep.coverage["sizes_by_power"] == sizes
