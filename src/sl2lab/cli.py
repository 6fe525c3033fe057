"""Experiment runner: subcommand dispatch, deterministic seeding, persistence.

Each run writes its CSV/JSON outputs plus a manifest into a timestamped
directory under the output root (flag --out, else $SL2LAB_OUT, else ./runs).
CSV bodies are byte-identical across reruns with the same config and seed;
wall-clock data lives only in the manifest (and in the optional --timings
column).  Exit codes: 0 success, 2 verified-hypothesis-failure report,
1 error, 64 usage.  The parser checks the domains of the options whose
out-of-range values would yield a wrong number, a vacuous run or a bare
traceback: --tol, --rho, --density, --epsilon, --moduli, --gamma, --delta,
the --trials of approxhom, addcomb and lemma-check, approxhom's --nmin and
--nmax, nonconc's --lmin, --lmax and --lstep, glue's --a-size and --cap,
growth's --kmax and addcomb's --q.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys
import time
import warnings
from datetime import datetime, timezone
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__

USAGE_EXIT = 64
HYPOTHESIS_EXIT = 2
TOL_MAX = 1e-6  # the loosest --tol; lambda2 at it agrees with tol 1e-12 runs to 6e-12


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _out_root(args) -> Path:
    if args.out:
        return Path(args.out)
    return Path(os.environ.get("SL2LAB_OUT", "runs"))


def _make_run_dir(root: Path) -> Path:
    stamp = datetime.now(timezone.utc).strftime("%Y%m%d-%H%M%S")
    for k in range(1000):
        cand = root / f"run-{stamp}-{k:03d}"
        try:
            cand.mkdir(parents=True, exist_ok=False)
            return cand
        except FileExistsError:
            continue
    raise RuntimeError("could not allocate a run directory")


def _write_atomic(path: Path, data: str):
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(data)
    tmp.replace(path)


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, Fraction):
        return str(value)
    if value is None:
        return ""
    return str(value)


def _csv(header: list[str], rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(row.get(col)) for col in header])
    return buf.getvalue()


def _emit(args, t0: float, files: dict[str, str]) -> Path:
    """Write ``files`` (name -> body) and the manifest into a new run
    directory; print and return the path of the first file."""
    run_dir = _make_run_dir(_out_root(args))
    paths = [run_dir / name for name in files]
    for path, body in zip(paths, files.values()):
        _write_atomic(path, body)
    manifest = {
        "version": __version__,
        "config": {k: v for k, v in vars(args).items() if k != "func"},
        "wall_seconds": time.perf_counter() - t0,
        "written_utc": datetime.now(timezone.utc).isoformat(),
        "outputs": {p.name: _digest(p) for p in paths},
    }
    _write_atomic(run_dir / "manifest.json", json.dumps(manifest, indent=1, sort_keys=True))
    print(paths[0])
    return paths[0]


# argparse ``type`` callables: each returns the parsed value, or raises with
# the domain; argparse names the callable in its message for unparsable text


def _in_domain(text: str, value, ok: bool, requirement: str):
    if not ok:
        raise argparse.ArgumentTypeError(f"{text!r}: {requirement}")
    return value


def tolerance(text: str) -> float:
    tol = float(text)
    return _in_domain(text, tol, 0 < tol <= TOL_MAX, f"must lie in (0, {TOL_MAX}]")  # nan fails


def rate(text: str) -> float:
    rho = float(text)
    return _in_domain(text, rho, 0 <= rho < 1, "must lie in [0, 1)")


def density(text: str) -> float:
    d = float(text)
    return _in_domain(text, d, 0 < d <= 1, "must lie in (0, 1]")


def fraction(text: str) -> str:
    """A fraction in (0, 1), kept as text so that the manifest records it."""
    try:
        ok = 0 < Fraction(text) < 1
    except ZeroDivisionError:
        ok = False
    return _in_domain(text, text, ok, "must be a fraction in (0, 1)")


def positive(text: str) -> int:
    n = int(text)
    return _in_domain(text, n, n >= 1, "must be at least 1")


def gamma(text: str) -> float:
    """The exponent of addcomb's size hypothesis |A| > q^(1-gamma); beyond
    [0, 1] the hypothesis says no more, and q^(12 gamma / 5) overflows."""
    g = float(text)
    return _in_domain(text, g, 0 <= g <= 1, "must lie in [0, 1]")


def delta(text: str) -> float:
    """The exponent of growth's |AAA| > |A|^(1+delta) and of its size
    hypothesis |A| > (q1 q2)^(3-delta); beyond [0, 3] both powers say no
    more, and they overflow."""
    d = float(text)
    return _in_domain(text, d, 0 <= d <= 3, "must lie in [0, 3]")


def moduli(text: str) -> str:
    """Comma-separated integers, at least one, kept as text for the manifest."""
    values = [int(v) for v in text.split(",") if v]
    return _in_domain(text, text, bool(values), "must name at least one modulus")


def _load_generators(spec: str):
    from .sl2 import load_generator_file
    from .spectral import standard_dense_pair_generators, unit_dense_pair_generators

    if spec == "builtin:dense":
        return standard_dense_pair_generators()
    if spec == "builtin:unit":
        return unit_dense_pair_generators()
    return load_generator_file(spec)


# ---------------------------------------------------------------------------
# subcommands


def cmd_spectral(args) -> int:
    t0 = time.perf_counter()
    from .spectral import gap_sweep

    gens = _load_generators(args.gens)
    moduli = [int(v) for v in args.moduli.split(",") if v]
    rows = gap_sweep(gens, moduli, pair=args.pair, tol=args.tol, seed=args.seed)
    header = ["q", "N", "degree", "lambda2", "residual", "h_lower", "h_upper", "h_exact", "seconds"]
    out_rows = []
    for r in rows:
        row = dict(r)
        if not args.timings:
            row["seconds"] = None
        out_rows.append(row)
    _emit(args, t0, {"gap_sweep.csv": _csv(header, out_rows)})
    return 0


def cmd_growth(args) -> int:
    t0 = time.perf_counter()
    from .factored import FactoredModulus
    from .growth import GroupSet, bounded_generation_search, tripling

    q1 = FactoredModulus.of(args.q1)
    q2 = FactoredModulus.of(args.q2)
    if args.set == "full":
        a = GroupSet.full_group(q1, q2)
    else:
        a = GroupSet.from_intpairs(q1, q2, _load_generators(args.set))
    trip = tripling(a, delta=args.delta)
    res = bounded_generation_search(a, k_max=args.kmax, delta=args.delta)
    report = {
        "q1": str(args.q1),
        "q2": str(args.q2),
        "size": str(len(a)),
        "size_triple": str(trip.size_triple),
        "exponent": trip.exponent,
        "grows": trip.grows,
        "bounded_generation_found": res.found,
        "k": str(res.k) if res.k else None,
        "q1_prime": str(res.q1p.value) if res.q1p else None,
        "q2_prime": str(res.q2p.value) if res.q2p else None,
        "power_sizes": [str(s) for s in res.sizes],
    }
    header = ["q1", "q2", "size", "size_triple", "exponent", "k", "q1_prime", "q2_prime"]
    files = {
        "growth.json": json.dumps(report, indent=1, sort_keys=True),
        "growth.csv": _csv(header, [report]),
    }
    _emit(args, t0, files)
    return 0 if res.found else HYPOTHESIS_EXIT


def _parse_event(text: str):
    from .walks import (
        IntegralLinearEvent,
        LinearForm8,
        LowerLeftEvent,
        SingularTraceEvent,
        TraceValueEvent,
    )

    kind, _, rest = text.partition(":")
    if kind == "lower-left":
        return LowerLeftEvent()
    if kind == "singular-trace":
        return SingularTraceEvent()
    if kind == "trace-value":
        return TraceValueEvent(n=int(rest))
    if kind == "linear":
        from .walks import ModLinearEvent

        coeffs, _, n = rest.rpartition(":")
        form = LinearForm8(tuple(int(v) for v in coeffs.split(",")))
        return ModLinearEvent(form, int(n))
    if kind == "integral-linear":
        coeffs, _, n = rest.rpartition(":")
        form = LinearForm8(tuple(int(v) for v in coeffs.split(",")))
        return IntegralLinearEvent(form, int(n))
    raise UsageError(f"unknown event {text!r}")


def cmd_nonconc(args) -> int:
    t0 = time.perf_counter()
    from .factored import FactoredModulus
    from .walks import IntegralLinearEvent, archimedean_decay, decay_profile

    if args.lmin > args.lmax:
        raise UsageError(
            f"argument --lmax: {args.lmax} is below --lmin {args.lmin}, so the range of l is empty"
        )
    gens = _load_generators(args.gens)
    event = _parse_event(args.event)
    l_values = list(range(args.lmin, args.lmax + 1, args.lstep))
    if isinstance(event, IntegralLinearEvent):
        rep = archimedean_decay(gens, event, l_values, args.samples, seed=args.seed)
        rows = rep["rows"]
        header = ["l", "hits", "samples", "p_hat", "ci_low", "ci_high"]
        extra = {"fitted_rate": rep["fitted_rate"]}
    else:
        prof = decay_profile(gens, event, FactoredModulus.of(args.Q), l_values)
        rows = prof["rows"]
        header = ["l", "mass"]
        extra = {
            "uniform_mass": prof["uniform_mass"],
            "fitted_c": prof["fitted_c"],
            "N": prof["N"],
        }
    files = {
        "nonconc.csv": _csv(header, rows),
        "nonconc.json": json.dumps(extra, indent=1, sort_keys=True),
    }
    _emit(args, t0, files)
    return 0


def cmd_addcomb(args) -> int:
    t0 = time.perf_counter()
    from .addcomb import ResidueSet, subgroup_cover_1d

    rng = np.random.Generator(np.random.Philox(key=args.seed))
    rows = []
    failures = 0
    for trial in range(args.trials):
        size = max(2, int(round(args.q**args.density)))
        a = ResidueSet.of(args.q, (int(v) for v in rng.integers(0, args.q, size=size)))
        b = ResidueSet.of(args.q, (int(v) for v in rng.integers(0, args.q, size=size)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = subgroup_cover_1d(a, b, folds=args.folds, gamma=args.gamma)
        rows.append(
            {
                "trial": trial,
                "q": args.q,
                "size_a": len(a),
                "size_b": len(b),
                "q_prime": res["q_prime"],
                "hypothesis_ok": res["hypothesis_ok"],
                "verified": res["verified"],
            }
        )
        if res["verified"] is False and res["hypothesis_ok"]:
            failures += 1
    header = ["trial", "q", "size_a", "size_b", "q_prime", "hypothesis_ok", "verified"]
    _emit(args, t0, {"addcomb.csv": _csv(header, rows)})
    return HYPOTHESIS_EXIT if failures else 0


def cmd_approxhom(args) -> int:
    t0 = time.perf_counter()
    from .approxhom import FiniteGroupTable, StructuredConstructionError, dichotomy

    if args.nmin > args.nmax:
        raise UsageError(f"argument --nmax: {args.nmax} is below --nmin {args.nmin}")
    rng = np.random.Generator(np.random.Philox(key=args.seed))
    eps = Fraction(args.epsilon)
    rows = []
    for trial in range(args.trials):
        n = int(rng.integers(args.nmin, args.nmax + 1))
        m = int(rng.choice([2, 3, 5, 7]))
        g1 = FiniteGroupTable.cyclic(n)
        g2 = FiniteGroupTable.cyclic(m)
        # a genuine homomorphism Z/n -> Z/m exists beyond the trivial one
        # only when m | n; otherwise start from the trivial map
        if n % m == 0:
            psi0 = np.array([(x * (n // m)) % m for x in range(n)], dtype=np.int64)
        else:
            psi0 = np.zeros(n, dtype=np.int64)
        psi = psi0.copy()
        corrupt = int(args.rho * n)
        if corrupt:
            idx = rng.choice(n, size=corrupt, replace=False)
            psi[idx] = (psi[idx] + 1 + rng.integers(0, m - 1, size=corrupt)) % m
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                res = dichotomy(psi, g1, g2, eps)
            except StructuredConstructionError as exc:
                raise ValueError(f"trial {trial}: {exc}") from None
        recovered = (
            res.branch == "STRUCTURED"
            and int((res.f == psi0).sum()) >= (1 - float(eps) ** 0.5) * n
        )
        rows.append(
            {
                "trial": trial,
                "n": n,
                "m": m,
                "corrupted": corrupt,
                "agreement": float(res.agreement_fraction),
                "branch": res.branch,
                "recovered": recovered,
            }
        )
    header = ["trial", "n", "m", "corrupted", "agreement", "branch", "recovered"]
    _emit(args, t0, {"approxhom.csv": _csv(header, rows)})
    ok = sum(1 for r in rows if r["recovered"] or r["branch"] == "DEFECT")
    return 0 if ok == len(rows) else HYPOTHESIS_EXIT


def cmd_glue(args) -> int:
    t0 = time.perf_counter()
    from .factored import FactoredModulus
    from .glue import GluingConfig, glue_pipeline, replay_certificates
    from .growth import GroupSet
    from .packed import PairContext, generated_subgroup, sl2_codes

    q1 = FactoredModulus.of(args.q1)
    q2 = FactoredModulus.of(args.q2)
    q3 = FactoredModulus.of(args.q3)
    left = FactoredModulus.of(args.q1 * args.q3)
    if args.b == "diagonal":
        if args.q1 != 1 or args.q2 != args.q3:
            raise UsageError("the diagonal example needs q1 = 1 and q2 = q3")
        # the pairs (x, x), x in SL2(Z/q3), sorted as x is
        x = sl2_codes(args.q3)
        b = GroupSet(left, q2, PairContext(left.value, q2.value).join(x, x))
    elif args.b == "full":
        b = GroupSet.full_group(left, q2)
    else:
        b = GroupSet.from_intpairs(left, q2, _load_generators(args.b))
    a = None
    if args.a == "dense":
        ctx = PairContext(left.value, q2.value)
        ball = generated_subgroup(ctx, ctx.encode_intpairs(_load_generators("builtin:unit")))
        rng = np.random.Generator(np.random.Philox(key=args.seed))
        if ball.size > args.a_size:
            pick = np.sort(rng.choice(ball.size, size=args.a_size, replace=False))
            ball = ball[pick]
        a = GroupSet(left, q2, ball)
    elif args.a != "none":
        a = GroupSet.from_intpairs(left, q2, _load_generators(args.a))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cfg = GluingConfig(q1=q1, q2=q2, q3=q3, theta=args.theta, seed=args.seed, cap=args.cap)
        report = glue_pipeline(b, cfg, a=a)
    _emit(args, t0, {"glue.json": json.dumps(report.as_dict(), indent=1, sort_keys=True)})
    if not replay_certificates(report):
        return 1
    return HYPOTHESIS_EXIT if report.no_expansion else 0


def _largest_exponent(cap: int, p: int) -> int:
    """The largest e with p^e <= cap, in integers."""
    e = 0
    while p ** (e + 1) <= cap:
        e += 1
    return e


def cmd_lemma_check(args) -> int:
    t0 = time.perf_counter()
    if args.lemma == "commutator-identity":
        from .commutator import commutator_sweep

        rep = commutator_sweep(args.p, depth=args.depth)
        ok = not rep["violations"]
        body = {
            "lemma": args.lemma,
            "p": args.p,
            "depth": args.depth,
            "elements": rep["elements"],
            "pairs_checked": rep["pairs_checked"],
            "violations": len(rep["violations"]),
        }
    elif args.lemma == "bracket-span":
        from .commutator import bracket_span_cover
        from .factored import FactoredModulus
        from .sl2 import LieVector

        q = FactoredModulus.of(args.q)
        rng = np.random.Generator(np.random.Philox(key=args.seed))
        done = bad = attempts = 0
        while done < args.trials and attempts < 100 * args.trials:
            attempts += 1
            v = LieVector(q, *(int(x) for x in rng.integers(0, args.q, size=3)))
            w = LieVector(q, *(int(x) for x in rng.integers(0, args.q, size=3)))
            try:
                res = bracket_span_cover(v, w, q)
            except ValueError:
                continue
            done += 1
            if not res["covered"]:
                bad += 1
        ok = bad == 0 and done == args.trials
        body = {"lemma": args.lemma, "q": args.q, "instances": done, "violations": bad}
    elif args.lemma == "box-amplify":
        from .commutator import CongruenceBox, amplify_exhaustive_check
        from .factored import FactoredModulus

        # the smallest window, m1 = m2 = n1 = n2 = 1, needs p^2 <= cap
        primes = [p for p in (2, 3, 5) if p * p <= args.window_cap]
        if not primes:
            raise UsageError(f"--window-cap {args.window_cap} fits no window: it needs 4 or more")
        rng = np.random.Generator(np.random.Philox(key=args.seed))
        bad = 0
        checked = 0
        for _ in range(args.trials):
            p = int(rng.choice(primes))
            max_total = _largest_exponent(args.window_cap, p)
            while True:
                m1 = int(rng.integers(1, 4))
                m2 = int(rng.integers(m1, 2 * m1 + 1))
                n1 = int(rng.integers(1, 4))
                n2 = int(rng.integers(n1, 2 * n1 + 1))
                if m2 + n2 <= max_total:
                    break
            h1 = CongruenceBox(FactoredModulus.of(p**m1), FactoredModulus.of(p**m2))
            h2 = CongruenceBox(FactoredModulus.of(p**n1), FactoredModulus.of(p**n2))
            rep = amplify_exhaustive_check(h1, h2, cap=args.window_cap)
            if rep["primes"][p]["checked"]:
                checked += 1
                if not rep["primes"][p]["contained"]:
                    bad += 1
        ok = bad == 0
        body = {
            "lemma": args.lemma,
            "trials": args.trials,
            "exhaustively_checked": checked,
            "violations": bad,
        }
    else:
        raise UsageError(f"unknown lemma {args.lemma!r}")
    _emit(args, t0, {"lemma_check.json": json.dumps(body, indent=1, sort_keys=True)})
    print(f"{args.lemma}: {'PASS' if ok else 'FAIL'} ({json.dumps(body, sort_keys=True)})")
    return 0 if ok else HYPOTHESIS_EXIT


# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="sl2lab", description=__doc__)
    parser.add_argument("--out", default=None, help="output root (default $SL2LAB_OUT or ./runs)")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectral", help="Cayley gap sweep")
    sp.add_argument("--gens", default="builtin:dense")
    sp.add_argument("--moduli", type=moduli, required=True, help="comma-separated")
    sp.add_argument("--pair", action=argparse.BooleanOptionalAction, default=True)
    sp.add_argument("--tol", type=tolerance, default=1e-8)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--timings", action="store_true")
    sp.set_defaults(func=cmd_spectral)

    gr = sub.add_parser("growth", help="product-set growth and bounded generation")
    gr.add_argument("--set", required=True, help="generator file, or 'full'")
    gr.add_argument("--q1", type=int, required=True)
    gr.add_argument("--q2", type=int, required=True)
    gr.add_argument("--delta", type=delta, default=0.04)
    gr.add_argument("--kmax", type=positive, default=12)
    gr.set_defaults(func=cmd_growth)

    nc = sub.add_parser("nonconc", help="random-walk non-concentration")
    nc.add_argument("--gens", default="builtin:dense")
    nc.add_argument("--event", required=True)
    nc.add_argument("--Q", type=int, default=5)
    nc.add_argument("--lmin", type=int, default=1)
    nc.add_argument("--lmax", type=int, default=20)
    nc.add_argument("--lstep", type=positive, default=1)
    nc.add_argument("--samples", type=int, default=2000)
    nc.add_argument("--seed", type=int, default=0)
    nc.set_defaults(func=cmd_nonconc)

    ac = sub.add_parser("addcomb", help="sumset covering trials")
    ac.add_argument("--q", type=positive, required=True)
    ac.add_argument("--density", type=density, default=0.8)
    ac.add_argument("--folds", type=int, default=24)
    ac.add_argument("--trials", type=positive, default=20)
    ac.add_argument("--gamma", type=gamma, default=0.2)
    ac.add_argument("--seed", type=int, default=0)
    ac.set_defaults(func=cmd_addcomb)

    ah = sub.add_parser("approxhom", help="dichotomy recovery trials")
    ah.add_argument("--trials", type=positive, default=50)
    ah.add_argument("--nmin", type=positive, default=40)
    ah.add_argument("--nmax", type=positive, default=400)
    ah.add_argument("--rho", type=rate, default=0.01)
    ah.add_argument("--epsilon", type=fraction, default="1/1700")
    ah.add_argument("--seed", type=int, default=0)
    ah.set_defaults(func=cmd_approxhom)

    gl = sub.add_parser("glue", help="modulus gluing pipeline")
    gl.add_argument("--q1", type=int, default=1)
    gl.add_argument("--q2", type=int, required=True)
    gl.add_argument("--q3", type=int, required=True)
    gl.add_argument("--theta", type=float, default=0.3)
    gl.add_argument("--b", default="diagonal", help="'diagonal', 'full' or a generator file")
    gl.add_argument("--a", default="none", help="'none', 'dense' or a generator file")
    gl.add_argument("--a-size", type=positive, default=4000)
    gl.add_argument("--cap", type=positive, default=500_000)
    gl.add_argument("--seed", type=int, default=0)
    gl.set_defaults(func=cmd_glue)

    lc = sub.add_parser("lemma-check", help="exhaustive lemma verification")
    lc.add_argument(
        "--lemma",
        required=True,
        choices=["commutator-identity", "bracket-span", "box-amplify"],
    )
    lc.add_argument("--p", type=int, default=3)
    lc.add_argument("--depth", type=int, default=4)
    lc.add_argument("--q", type=int, default=105)
    lc.add_argument("--trials", type=positive, default=100)
    lc.add_argument("--window-cap", type=int, default=128)
    lc.add_argument("--seed", type=int, default=0)
    lc.set_defaults(func=cmd_lemma_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
