"""Fast tests of the benchmark itself: python3 -m pytest bench -q"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import spans


def spectral_rows(moduli, pair=False):
    rows = []
    for q in moduli:
        n, lam = checks.reference_lambda2(q, pair)
        gap = 1.0 - lam
        rows.append({"q": q, "N": n, "degree": 4, "lambda2": lam,
                     "h_lower": 4 * gap / 2.0, "h_upper": 4 * math.sqrt(2.0 * gap)})
    return rows


def with_lambda2(row, lam):
    gap = 1.0 - lam
    return dict(row, lambda2=lam, h_lower=4 * gap / 2.0, h_upper=4 * math.sqrt(2.0 * gap))


def test_sl2_order_closed_form_matches_enumeration():
    for q in (2, 3, 4, 6, 9, 10):
        assert checks.sl2_order(q) == checks.sl2_elements(q).size


def test_spectral_check_passes_reference_rows():
    rows = spectral_rows([3, 5])
    assert checks.check_spectral(rows, [3, 5], False, [3, 5]) == []


def test_spectral_check_rejects_lambda2_off_by_1e6():
    rows = spectral_rows([3, 5])
    rows[1] = with_lambda2(rows[1], rows[1]["lambda2"] + 1e-6)
    problems = checks.check_spectral(rows, [3, 5], False, [3, 5])
    assert len(problems) == 1 and "reference eigensolver" in problems[0]


def test_spectral_check_rejects_wrong_n():
    rows = spectral_rows([3, 5])
    rows[0]["N"] += 1
    assert any("closed form" in p for p in checks.check_spectral(rows, [3, 5], False, []))


def test_spectral_check_rejects_inconsistent_cheeger_column():
    rows = spectral_rows([3])
    rows[0]["h_upper"] *= 1 + 1e-9
    assert any("Cheeger" in p for p in checks.check_spectral(rows, [3], False, []))


def test_pair_check_rejects_spread_and_large_lambda2():
    rows = [{"q": q, "N": checks.sl2_order(q) ** 2, "degree": 4} for q in (7, 11)]
    rows = [with_lambda2(rows[0], 0.80), with_lambda2(rows[1], 0.996)]
    problems = checks.check_spectral(rows, [7, 11], True, [])
    assert any("not below" in p for p in problems)
    assert any("spread" in p for p in problems)


def test_gap_csv_parser_reads_numpy_scalar_spelling():
    body = ("q,N,degree,lambda2,residual,h_lower,h_upper,h_exact,seconds\n"
            "5,120,4,0.5,np.float64(1e-09),1.0,4.0,,\n")
    assert checks.parse_gap_csv(body)[0]["lambda2"] == 0.5


def box_report(instance, contained=True, product=64, target=8):
    p = instance[0]
    return {"instance": list(instance), "output": [0, 0], "verified": contained,
            "primes": {str(p): {"checked": True, "contained": contained,
                                "product_size": product, "target_size": target}}}


def test_box_check_passes_true_report():
    inst = [2, 1, 1, 1, 2]
    assert checks.check_box([box_report(inst)], [inst]) == []


def test_box_check_rejects_flipped_verdict():
    inst = [2, 1, 1, 1, 2]
    assert checks.check_box([box_report(inst, contained=False)], [inst])


def test_box_check_rejects_wrong_sizes():
    inst = [2, 1, 1, 1, 2]
    assert checks.check_box([box_report(inst, target=9)], [inst])
    assert checks.check_box([box_report(inst, product=63)], [inst])


def test_plain_amplify_small_instances():
    assert checks.plain_amplify(2, 1, 1, 1, 2) == (True, 64, 8)
    assert checks.plain_amplify(3, 1, 2, 1, 1) == (True, 729, 27)


def glue_report(no_expansion, q3_star, certs=()):
    return {"no_expansion": no_expansion, "q3_star": q3_star,
            "certificates": [{"kind": "section-valid", "params": {}, "verified": True}, *certs]}


def test_glue_check_bare_run():
    assert checks.check_glue(5, "none", 2, glue_report(True, 1)) == []
    assert checks.check_glue(5, "none", 0, glue_report(True, 1))
    assert checks.check_glue(5, "none", 0, glue_report(False, 5))


def test_glue_check_dense_run():
    cov = {"kind": "one-parameter-kernel-coverage", "verified": True,
           "params": {"q3_star": 8, "depth_modulus": 4, "subgroup_size": 8}}
    assert checks.check_glue(8, "dense", 0, glue_report(False, 8, [cov])) == []
    assert checks.check_glue(8, "dense", 2, glue_report(True, 1, [cov]))
    assert checks.check_glue(8, "dense", 0, glue_report(False, 3, [cov]))
    wrong = dict(cov, params=dict(cov["params"], subgroup_size=16))
    assert checks.check_glue(8, "dense", 0, glue_report(False, 8, [wrong]))
    unverified = dict(cov, verified=False)
    assert checks.check_glue(8, "dense", 0, glue_report(False, 8, [unverified]))


def synthetic_spans(rows):
    """rows of (name, parent index, start, end)."""
    ids = {name: i for i, name in enumerate(spans.SPAN_NAMES)}
    return {
        "name": np.array([ids[r[0]] for r in rows], dtype=np.int32),
        "parent": np.array([r[1] for r in rows], dtype=np.int64),
        "start": np.array([r[2] for r in rows], dtype=np.float64),
        "end": np.array([r[3] for r in rows], dtype=np.float64),
    }


def test_self_time_arithmetic_on_span_tree():
    tree = synthetic_spans([
        ("cli.main", -1, 0.0, 10.0),
        ("packed.mul_const", 0, 1.0, 4.0),
        ("packed.decode", 1, 1.5, 2.0),
        ("packed.mul_const", 0, 5.0, 9.0),
        ("packed.mul_const", 3, 6.0, 7.0),  # nested call of the same name
        ("packed.encode", -1, 11.0, 12.0),
    ])
    m = spans.layer_metrics([tree], {}, [15.0])
    assert m["cli.main.self_s"] == pytest.approx(10.0 - 3.0 - 4.0)
    assert m["packed.mul_const.self_s"] == pytest.approx(2.5 + 3.0 + 1.0)
    assert m["packed.mul_const.s"] == pytest.approx(3.0 + 4.0)
    assert m["packed.mul_const.calls"] == 3
    assert m["packed.decode.self_s"] == pytest.approx(0.5)
    assert m["trace.unattributed_s"] == pytest.approx(15.0 - 11.0)
    total_self = sum(v for k, v in m.items() if k.endswith(".self_s"))
    assert total_self + m["trace.unattributed_s"] == pytest.approx(m["trace.wall_s"])


def test_tracer_records_nesting_and_work():
    tracer = spans.Tracer()
    inner = tracer.span("packed.decode", lambda x: x + 1)
    outer = tracer.span("packed.mul_const", lambda x: inner(x) * 2,
                        lambda args, out: {"packed.mul_const.elements": out})
    assert outer(1) == 4
    arr = tracer.arrays()
    assert arr["parent"].tolist() == [-1, 0]
    assert tracer.counters["packed.mul_const.elements"] == 4
    assert np.all(arr["end"] >= arr["start"])


def test_box_instances_are_seeded_with_fixed_counts_per_stratum():
    a, b = run.box_instances(1), run.box_instances(1)
    assert a == b
    counts = {}
    strata = run.box_strata()
    for key, members in strata.items():
        counts[key] = sum(1 for inst in a if inst in members)
    for key, members in strata.items():
        assert counts[key] == (1 if checks.plain_work(*members[0]) > run.BOX_WORK_FEW else 3)
    assert all(run.BOX_CAP >= p ** (m2 + n2) for p, m1, m2, n1, n2 in a)


def test_benchmark_json_names_every_metric():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.per_layer_units()
