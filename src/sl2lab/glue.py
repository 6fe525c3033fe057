"""The modulus-gluing pipeline, desk scale.

Given a set B over the pair modulus (q1*q3, q2) whose reduction to (q1, q2)
is large, the pipeline builds a connecting-map section, classifies each
prime power of q3 through the approximate-homomorphism dichotomy of the
section's q3-side behavior, runs the matching construction per scenario
(defect-commutator conjugation, iterated commutators, or a one-parameter
set spanned by conjugation), and reports the exact congruence coverage it
achieved.  Every containment the report asserts is replayed through an
independent membership oracle before the report is returned; stages that
cannot complete say so, with the congruence target that failed.  A cap
that cuts the section search, a scenario's closure or the final assembly's
powers short is not such a finding: its ValueError reaches the caller.  The
pipeline is a guided experiment, not a proof engine.

Certificates are plain ``{"kind", "params", "verified"}`` records, made
JSON-ready once when ``GluingReport.add_certificate`` appends them, and
``replay_certificates`` reads their ``verified`` fields.  Sets go through the
set layer: kernel coverage reduces the closure with ``GroupSet.reduce_to``
and tests each Lambda(m)/Lambda(d) with ``growth.covers_congruence``, and
the final assembly reduces U = B u A to (q1*q3*, q2) once and forms the
powers of U there, since reduction is a homomorphism; its cap is an error
like the others.  The q3-side tables keep the packed codes they were built
from (``FiniteGroupTable.codes``), so the section's lifts index into them
directly.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .approxhom import (
    FiniteGroupTable,
    StructuredConstructionError,
    dichotomy,
)
from .commutator import ConnectingMap, congruence_depths, connecting_map
from .factored import ONE, FactoredModulus, divisors, exact_divisors, fgcd
from .growth import GroupSet, covers_congruence, product_set
from .packed import PairContext, generated_subgroup, index_sorted, unique_codes
from .sl2 import group_order

DEFECT_THRESHOLD = Fraction(1, 10_000)  # dichotomy threshold per prime of q3
STRUCTURED_DENSITY = Fraction(99, 100)  # share of the domain S must reach
K_MAX = 8  # largest power of B tried for the section
POOL_SIZE = 48  # conjugators sampled from B u A
PAIR_ATTEMPTS = 50_000  # random pairs drawn in search of a common defect


@dataclass
class GluingConfig:
    q1: FactoredModulus
    q2: FactoredModulus
    q3: FactoredModulus
    theta: float
    cap: int = 2_000_000
    seed: int = 0

    def __post_init__(self):
        if fgcd(self.q1, self.q3) != ONE:
            raise ValueError("q1 and q3 must be coprime")
        if not 0 < self.theta < 1:
            raise ValueError("theta must lie in (0, 1)")
        if self.theta > 1e-12:
            warnings.warn(
                f"theta = {self.theta} is above the asymptotic range (0, 1e-12]; "
                "desk runs use larger values deliberately",
                stacklevel=2,
            )


def _jsonable(obj):
    """``obj`` in JSON form: string keys, lists for tuples, moduli as integers.
    The report records Python numbers, strings and booleans only."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, FactoredModulus):
        return obj.value
    return obj


@dataclass
class GluingReport:
    config: GluingConfig
    hypotheses: dict = field(default_factory=dict)
    stages: list = field(default_factory=list)
    prime_table: list = field(default_factory=list)
    certificates: list = field(default_factory=list)
    incomplete: list = field(default_factory=list)
    q3_star: int = 1
    coverage: dict = field(default_factory=dict)
    no_expansion: bool = False

    def add_certificate(self, kind: str, params: dict, verified: bool):
        self.certificates.append({"kind": kind, "params": _jsonable(params), "verified": verified})

    def as_dict(self) -> dict:
        c = self.config
        config = {"q1": c.q1, "q2": c.q2, "q3": c.q3, "theta": c.theta, "seed": c.seed}
        return _jsonable({**vars(self), "config": config})


# ---------------------------------------------------------------------------
# helpers on packed kernels


class _Incomplete(Exception):
    """A scenario that cannot complete.  ``row`` holds its ``report.incomplete``
    fields; the scenario loop adds the stage name."""

    def __init__(self, **row):
        super().__init__(row["reason"])
        self.row = row


def _achieved_congruence(
    b: GroupSet,
    cfg: GluingConfig,
    k_codes: np.ndarray,
    report: GluingReport,
    label: str,
) -> tuple[int, int]:
    """Largest exact divisor d of q3 (with depth divisor m) whose kernel
    Lambda(m)/Lambda(d) embeds in the q3-part of the closure K, sorted codes
    ``k_codes`` over B's moduli.  The coverage certificate is recorded once
    its membership scan passes."""
    # q3-parts of kernel elements: the left component mod q3
    k3 = GroupSet(b.q1, b.q2, k_codes).reduce_to(cfg.q3, ONE)
    for d in sorted(exact_divisors(cfg.q3), key=lambda m: -m.value):
        if d.is_one():
            continue
        k3_red = k3.reduce_to(d, ONE)
        # depth moduli are arbitrary divisors (fractional powers), smallest first
        for m in sorted(divisors(d), key=lambda mm: mm.value):
            size = group_order(d) // group_order(m)
            # a kernel larger than the q3-part cannot lie in it, and below
            # that size cfg.cap, which bounds the closure, never fires
            if m == d or size > len(k3_red) or not covers_congruence(k3_red, m, ONE, cfg.cap):
                continue
            report.add_certificate(
                f"{label}-kernel-coverage",
                {
                    "q3_star": d.value,
                    "depth_modulus": m.value,
                    "subgroup_size": size,
                    "achieved_size": len(k3_red),
                },
                True,
            )
            return d.value, m.value
    return 1, 1


# ---------------------------------------------------------------------------


def glue_pipeline(
    b: GroupSet, cfg: GluingConfig, a: Optional[GroupSet] = None
) -> GluingReport:
    """Run the gluing experiment for B (and optionally A) over (q1*q3, q2)."""
    report = GluingReport(cfg)
    full_left = cfg.q1.value * cfg.q3.value
    if (b.q1.value, b.q2.value) != (full_left, cfg.q2.value):
        raise ValueError(
            f"B must live over ({full_left}, {cfg.q2.value}), got ({b.q1.value}, {b.q2.value})"
        )
    if a is not None and (a.q1, a.q2) != (b.q1, b.q2):
        raise ValueError("A must share B's moduli")
    full = b.ctx

    # --- hypotheses -------------------------------------------------------
    red12 = b.reduce_to(cfg.q1, cfg.q2)
    red3 = b.reduce_to(cfg.q3, ONE)
    need12 = (cfg.q1.value * cfg.q2.value) ** (3 - cfg.theta)
    need3 = cfg.q3.value ** (3 - cfg.theta)
    report.hypotheses = {
        "size_12": len(red12),
        "bound_12": need12,
        "ok_12": len(red12) > need12,
        "size_3": len(red3),
        "bound_3": need3,
        "ok_3": len(red3) > need3,
    }

    # --- stage: bounded generation and the section -------------------------
    psi = connecting_map(b, cfg.q1, cfg.q2, k_max=K_MAX, cap=cfg.cap)
    if psi is None:
        reason = f"B-powers do not cover a congruence subgroup within k_max={K_MAX}"
        report.incomplete.append({"stage": "section", "reason": reason})
        report.no_expansion = True
        return report
    report.stages.append(
        {
            "stage": "section",
            "power": psi.power,
            "d1": psi.d1.value,
            "d2": psi.d2.value,
            "domain_size": int(psi.domain_codes.size),
        }
    )
    report.add_certificate(
        "section-valid",
        {"power": psi.power, "domain_size": int(psi.domain_codes.size)},
        psi.validate(),
    )

    g_table = FiniteGroupTable.from_codes(psi.reduced_ctx, psi.domain_codes)

    # --- stage: per-prime classification -----------------------------------
    theta_q = cfg.theta ** 0.25
    # each scenario with the primes it runs on, in the order the scenarios run
    runners = {
        "defect-case": _run_defect_case,
        "commutator-case": _run_commutator_case,
        "one-parameter-case": _run_one_parameter_case,
    }
    buckets = {stage: [] for stage in runners}
    psi_tables = {}
    s_common: Optional[set] = None
    for p, n in cfg.q3.factors:
        d_class = max(1, int(n * theta_q))
        d_half = max(1, math.ceil(d_class / 2))
        g2 = FiniteGroupTable.from_sl2(p**d_class)
        small = PairContext(p**d_class, 1)
        psi_j = index_sorted(full.reduce_codes(psi.lifts, small), g2.codes)
        psi_tables[(p, n)] = (psi_j, d_class, d_half, g2)
        try:
            res = dichotomy(psi_j, g_table, g2, DEFECT_THRESHOLD)
        except StructuredConstructionError as exc:
            report.prime_table.append(
                {"p": p, "n": n, "scenario": "FAILED", "detail": str(exc)}
            )
            continue
        if res.branch == "DEFECT":
            buckets["defect-case"].append((p, n))
            report.prime_table.append(
                {
                    "p": p,
                    "n": n,
                    "scenario": "DEFECT",
                    "agreement": float(res.agreement_fraction),
                    "class_depth": d_class,
                }
            )
        else:
            # half-depth triviality of the recovered homomorphism h_j
            trivial = bool(np.all(small.kernel_mask(g2.codes[res.f], p**d_half, 1)))
            # h trivial at half depth: iterated commutators; deep h: a
            # one-parameter set spread by conjugation
            buckets["commutator-case" if trivial else "one-parameter-case"].append((p, n))
            s_set = set(int(v) for v in res.s_indices)
            s_common = s_set if s_common is None else (s_common & s_set)
            density_ok = Fraction(len(s_set), g_table.order) >= STRUCTURED_DENSITY
            report.prime_table.append(
                {
                    "p": p,
                    "n": n,
                    "scenario": "STRUCTURED",
                    "h_trivial_at_half_depth": trivial,
                    "agreement": float(res.agreement_fraction),
                    "S_size": len(s_set),
                    "S_density_ok": density_ok,
                    "class_depth": d_class,
                    "half_depth": d_half,
                }
            )

    # --- scenarios: each returns the (d, m) of the congruence kernel it
    # covers, or raises _Incomplete with its row
    q3_star = 1
    for stage, primes in buckets.items():
        if primes:
            run = runners[stage]
            try:
                q3_star *= run(b, a, cfg, psi, g_table, psi_tables, primes, s_common, report)[0]
            except _Incomplete as exc:
                report.incomplete.append({"stage": stage, **exc.row})
    report.q3_star = q3_star
    report.no_expansion = q3_star == 1

    # --- final assembly: coverage density of (B u A)-powers -----------------
    target_left = FactoredModulus.of(cfg.q1.value * q3_star)
    union = (b if a is None else b.union(a)).reduce_to(target_left, cfg.q2)
    order = group_order(target_left) * group_order(cfg.q2)
    cur = union
    sizes = []
    for power in range(1, 5):
        sizes.append(len(cur))
        if sizes[-1] == order or power == 4:
            break
        cur = product_set(cur, union, cfg.cap)
    denom = cfg.q1.value * cfg.q2.value * q3_star
    density_exp = (
        math.log(sizes[-1]) / math.log(denom) if denom > 1 and sizes[-1] > 1 else 0.0
    )
    report.coverage = {
        "target_moduli": [target_left.value, cfg.q2.value],
        "sizes_by_power": sizes,
        "group_order": order,
        "density_exponent": density_exp,
        "asymptotic_target_exponent": 3 - 300 * cfg.theta**0.25,
    }
    return report


def _pool_codes(b: GroupSet, a: Optional[GroupSet], cfg: GluingConfig) -> np.ndarray:
    """Deterministic conjugator pool: a seeded sample of (B u A) codes."""
    codes = b.codes if a is None else b.union(a).codes
    if codes.size <= POOL_SIZE:
        return codes
    rng = np.random.Generator(np.random.Philox(key=cfg.seed))
    pick = np.sort(rng.choice(codes.size, size=POOL_SIZE, replace=False))
    return codes[pick]


def _run_defect_case(
    b, a, cfg, psi: ConnectingMap, g_table, psi_tables, primes, s_common, report
) -> tuple[int, int]:
    """Find a common defect pair, form the associated kernel element, and
    close its conjugates; measure the congruence coverage achieved."""
    full = b.ctx
    target = [p**nn for p, nn in primes]
    rng = np.random.Generator(np.random.Philox(key=[cfg.seed, 1]))
    n = g_table.order
    for _ in range(PAIR_ATTEMPTS):
        x, y = int(rng.integers(0, n)), int(rng.integers(0, n))
        ok = True
        for (p, nn) in primes:
            psi_j, d_class, _, g2 = psi_tables[(p, nn)]
            if psi_j[g_table.mul[x, y]] == g2.mul[psi_j[x], psi_j[y]]:
                ok = False
                break
        if ok:
            break
    else:
        raise _Incomplete(reason="no common defect pair located", target=target)
    cx, cy, cxy = psi.lifts[[x, y, g_table.mul[x, y]]]
    gamma_code = int(full.mul(full.mul(cx, cy), full.inv(cxy)))
    # certificates: gamma is trivial at (q1, q2) and deep-nontrivial at the primes
    report.add_certificate(
        "defect-element-kernel",
        {"pair": [x, y], "gamma": gamma_code},
        bool(full.kernel_mask(gamma_code, cfg.q1.value, cfg.q2.value)),
    )
    for p, nn in primes:
        _, d_class, _, _ = psi_tables[(p, nn)]
        depth = int(congruence_depths(full.decode(gamma_code)[:4], p, nn))
        report.add_certificate(
            "defect-element-depth",
            {"p": p, "class_depth": d_class, "observed_depth": depth},
            depth < d_class,
        )
    pool = _pool_codes(b, a, cfg)
    gens = np.append(gamma_code, full.mul(full.mul(pool, gamma_code), full.inv(pool)))
    k = generated_subgroup(full, gens, cfg.cap)
    achieved = _achieved_congruence(b, cfg, k, report, "defect")
    report.stages.append(
        {"stage": "defect-case", "closure_size": int(k.size), "achieved": achieved}
    )
    if achieved == (1, 1):
        raise _Incomplete(reason="closure covers no congruence kernel", target=target)
    return achieved


def _run_commutator_case(
    b, a, cfg, psi: ConnectingMap, g_table, psi_tables, primes, s_common, report
) -> tuple[int, int]:
    """Iterated commutators of structured lifts: the q3-side deepens by the
    commutator congruence while the (q1, q2) side stays rich."""
    full = b.ctx
    if not s_common:
        raise _Incomplete(reason="common structured set is empty")
    rng = np.random.Generator(np.random.Philox(key=[cfg.seed, 2]))
    target = {p: nn for p, nn in primes}
    cur = psi.lifts[sorted(s_common)]
    depth_hist = []
    for _ in range(8):
        # sampled commutator layer, deduplicated
        m = cur.size
        take = min(m * m, 4096)
        xs = rng.integers(0, m, size=take)
        ys = rng.integers(0, m, size=take)
        u, v = cur[xs], cur[ys]
        cur = unique_codes(full.mul(full.mul(u, v), full.mul(full.inv(u), full.inv(v))))
        depths = {
            p: int(congruence_depths(full.decode(cur)[:4], p, nn).min())
            for (p, nn) in primes
        }
        depth_hist.append(depths)
        if all(depths[p] >= nn for p, nn in target.items()):
            break
        if len(depth_hist) >= 3 and depth_hist[-1] == depth_hist[-2] == depth_hist[-3]:
            raise _Incomplete(reason="q3-side depth stagnated", depths=depths, target=target)
    else:
        raise _Incomplete(reason="q3-side depth below target", depths=depths, target=target)
    # certificates: final layer is congruent to 1 at the full prime powers,
    # checked by the kernel test, not by the depths that stopped the loop
    for p, nn in primes:
        report.add_certificate(
            "commutator-depth",
            {"p": p, "target": nn, "achieved": depths[p], "rounds": len(depth_hist)},
            bool(np.all(full.kernel_mask(cur, p**nn, 1))),
        )
    k = generated_subgroup(full, cur[:64], cfg.cap)
    achieved = _achieved_congruence(b, cfg, k, report, "commutator")
    report.stages.append(
        {
            "stage": "commutator-case",
            "rounds": len(depth_hist),
            "final_layer": int(cur.size),
            "achieved": achieved,
        }
    )
    if achieved == (1, 1):
        raise _Incomplete(
            reason="closure covers no congruence kernel", target=[p**nn for p, nn in primes]
        )
    return achieved


def _run_one_parameter_case(
    b, a, cfg, psi: ConnectingMap, g_table, psi_tables, primes, s_common, report
) -> tuple[int, int]:
    """Powers of one structured lift conjugated around by the pool; the
    closure's kernel part measures the congruence coverage.  Without a
    Zariski-dense A the conjugates stay inside B's own structure and the
    construction honestly fails (the diagonal counterexample)."""
    full = b.ctx
    target = [p**nn for p, nn in primes]
    if not s_common:
        raise _Incomplete(reason="common structured set is empty")
    # pick g with a nontrivial q3-part of maximal order (deterministic)
    for i in sorted(s_common):
        best = int(psi.lifts[i])
        digits = full.decode(best)[:4]
        if all(int(congruence_depths(digits, p, nn)) < nn for (p, nn) in primes):
            break
    else:
        raise _Incomplete(reason="no structured lift with nontrivial q3-part")
    # the cyclic one-parameter set {psi(g)^m}
    powers = [full.identity_code()]
    cur = best
    for _ in range(4 * cfg.q3.value):
        powers.append(int(cur))
        cur = full.mul(cur, best)
        if int(cur) == full.identity_code():
            break
    p_codes = unique_codes(np.array(powers, dtype=np.int64))
    report.stages.append(
        {"stage": "one-parameter-set", "generator": best, "orbit_size": int(p_codes.size)}
    )
    pool = _pool_codes(b, a, cfg)
    # <g> lies in the closure of the conjugates, so conjugating the single
    # generator suffices and keeps the generating set small
    gens = np.append(best, full.mul(full.mul(pool, best), full.inv(pool)))
    k = generated_subgroup(full, gens, cfg.cap)
    # the kernel part of the closure is what covers new congruence classes
    k_kernel = k[full.kernel_mask(k, cfg.q1.value, cfg.q2.value)]
    report.stages.append(
        {
            "stage": "one-parameter-case",
            "closure_size": int(k.size),
            "kernel_part": int(k_kernel.size),
            "pool": int(pool.size),
            "with_A": a is not None,
        }
    )
    if k_kernel.size <= 1:
        raise _Incomplete(
            reason="conjugated one-parameter closure meets the kernel trivially"
            + ("" if a is not None else " (no A supplied)"),
            target=target,
        )
    achieved = _achieved_congruence(b, cfg, k_kernel, report, "one-parameter")
    if achieved == (1, 1):
        raise _Incomplete(reason="kernel part covers no congruence subgroup", target=target)
    return achieved


def replay_certificates(report: GluingReport) -> bool:
    """Every certificate in the report must hold; reports are built so this
    is true by construction, and acceptance replays it."""
    return all(c["verified"] for c in report.certificates)
