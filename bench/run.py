"""The sl2lab benchmark: four workloads, end-to-end metrics, per-layer traces.

    python3 bench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

WORKLOAD is spectral-pair, spectral-single, box-amplify, glue, or ``all``.
Run it from anywhere inside a checkout; it reads sl2lab from ``src/`` and
writes only under ``.bench_out/``.  Every job of a round is a fresh,
single-threaded child process (``bench/child.py``); rounds repeat while the
next one still fits in S seconds, and at least one round runs.  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of one traced round with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
CHILD = HERE / "child.py"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import spans  # noqa: E402

SETUP_PROBES = 3
CHILD_TIMEOUT_S = 170
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "vertices_per_s": "vertices/s",
    "instances_per_s": "instances/s",
}


@dataclass
class Job:
    """One child process of a round: ``ops`` operations on groups whose
    orders sum to ``vertices``."""

    label: str
    kind: str  # "cli" or "box"
    ops: int
    vertices: int
    argv: list[str] = field(default_factory=list)
    instances: list[list[int]] = field(default_factory=list)
    meta: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# workloads


PAIR_MODULI = [7, 11]
SINGLE_MODULI = list(range(3, 30, 2))
GLUE_MODULI = [5, 8]
BOX_PRIMES = (2, 3, 5)
BOX_CAP = 128
BOX_WORK_MAX = 2**21  # larger strata take 4 s to 8 min per instance
BOX_WORK_FEW = 2**19  # strata above this get one draw per round, the rest three


def spectral_jobs(moduli: list[int], pair: bool, extra: list[str], seed: int) -> list[Job]:
    argv = ["spectral", "--gens", "builtin:dense", "--moduli", ",".join(map(str, moduli))]
    argv += extra + ["--seed", str(seed)]
    power = 2 if pair else 1
    vertices = sum(checks.sl2_order(q) ** power for q in moduli)
    return [Job("spectral", "cli", len(moduli), vertices, argv=argv)]


def box_strata() -> dict[tuple, list[list[int]]]:
    """Box windows (p, m1, m2, n1, n2) as the CLI draws them (m1, n1 in 1..3,
    windows m1 <= m2 <= 2 m1, p^(m2+n2) <= 128), grouped by what fixes their
    work: p, m2+n2, min(m1, n1) and the two lift sizes."""
    strata = defaultdict(list)
    for p in BOX_PRIMES:
        for m1 in range(1, 4):
            for m2 in range(m1, 2 * m1 + 1):
                for n1 in range(1, 4):
                    for n2 in range(n1, 2 * n1 + 1):
                        big = m2 + n2
                        if p**big > BOX_CAP or checks.plain_work(p, m1, m2, n1, n2) > BOX_WORK_MAX:
                            continue
                        extra = 1 if p == 2 else 0
                        lifts = sorted((checks.lift_size(p, m1, m2, big, extra),
                                        checks.lift_size(p, n1, n2, big, extra)))
                        strata[(p, big, min(m1, n1), *lifts)].append([p, m1, m2, n1, n2])
    return dict(sorted(strata.items()))


def box_instances(seed: int) -> list[list[int]]:
    """A fixed number of seeded draws from every stratum, in seeded order."""
    rng = random.Random(seed)
    picked = []
    for key, members in box_strata().items():
        p, m1, m2, n1, n2 = members[0]
        draws = 1 if checks.plain_work(p, m1, m2, n1, n2) > BOX_WORK_FEW else 3
        picked += [rng.choice(members) for _ in range(draws)]
    rng.shuffle(picked)
    return picked


def box_jobs(seed: int) -> list[Job]:
    inst = box_instances(seed)
    vertices = sum(checks.sl2_order(p ** (m2 + n2)) for p, m1, m2, n1, n2 in inst)
    return [Job("box", "box", len(inst), vertices, instances=inst)]


def glue_jobs(seed: int) -> list[Job]:
    jobs = []
    for q in GLUE_MODULI:
        for helper in ("none", "dense"):
            argv = ["glue", "--q2", str(q), "--q3", str(q), "--b", "diagonal",
                    "--a", helper, "--seed", str(seed)]
            jobs.append(Job(f"glue-q{q}-{helper}", "cli", 1, checks.sl2_order(q) ** 2,
                            argv=argv, meta={"q": q, "helper": helper}))
    return jobs


WORKLOADS = {
    "spectral-pair": lambda seed: spectral_jobs(PAIR_MODULI, True, [], seed),
    "spectral-single": lambda seed: spectral_jobs(
        SINGLE_MODULI, False, ["--no-pair", "--tol", "1e-10"], seed),
    "box-amplify": box_jobs,
    "glue": glue_jobs,
}


# ---------------------------------------------------------------------------
# child processes


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    env.pop("PYTHONPATH", None)
    return env


def spawn(spec: dict, work: Path, label: str) -> dict:
    """Run one child to completion; wall from spawn to exit, its max RSS."""
    spec = dict(spec, src=str(SRC))
    spec_path = work / f"{label}.spec.json"
    result_path = work / f"{label}.result.json"
    spec_path.write_text(json.dumps(spec))
    with open(work / f"{label}.log", "w") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), str(spec_path), str(result_path)],
            stdout=log, stderr=subprocess.STDOUT, env=child_env(), cwd=str(ROOT),
        )
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        t_exit = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    out = {"wall": t_exit - t_spawn, "rss_mb": usage.ru_maxrss / 1024.0,
           "exit": proc.returncode, "result": None}
    if proc.returncode == 0 and result_path.exists():
        out["result"] = json.loads(result_path.read_text())
        out["setup"] = out["result"]["ready"] - t_spawn
    return out


def job_body(job: Job, out_dir: Path) -> str | None:
    """The CSV/JSON body a job wrote, or None if it wrote none."""
    if job.kind == "box":
        path = out_dir / "body.json"
        return path.read_text() if path.exists() else None
    name = "gap_sweep.csv" if job.argv[0] == "spectral" else "glue.json"
    found = sorted(out_dir.glob(f"run-*/{name}"))
    return found[0].read_text() if len(found) == 1 else None


def run_round(jobs: list[Job], work: Path, index: int, trace: bool) -> dict:
    runs = []
    for job in jobs:
        label = f"r{index}-{job.label}"
        out_dir = work / label
        out_dir.mkdir()
        spec = {"kind": job.kind, "trace_path": None}
        if trace:
            spec["trace_path"] = str(work / f"{label}.trace.npz")
        if job.kind == "cli":
            spec["argv"] = ["--out", str(out_dir)] + job.argv
        else:
            spec["instances"] = job.instances
            spec["body_path"] = str(out_dir / "body.json")
        run = spawn(spec, work, label)
        run["body"] = job_body(job, out_dir) if run["result"] else None
        run["trace_path"] = spec["trace_path"]
        runs.append(run)
    return {"trace": trace, "runs": runs, "wall": sum(r["wall"] for r in runs)}


# ---------------------------------------------------------------------------
# correctness


def check_outputs(name: str, jobs: list[Job], rnds: list[dict], seed: int) -> list[str]:
    """Bodies identical across rounds and across earlier runs of this seed on
    the same sources; the first body of each job checked by content."""
    problems = []
    digests = {}
    for j, job in enumerate(jobs):
        done = [r["runs"][j] for r in rnds if r["runs"][j]["body"] is not None]
        if not done:
            continue
        body = done[0]["body"]
        if any(run["body"] != body for run in done):
            problems.append(f"{job.label}: output differs between rounds of one seed")
        digests[job.label] = hashlib.sha256(body.encode()).hexdigest()
        problems += check_body(name, job, body, done[0]["result"]["rc"])
    problems += compare_digests(f"{name}/seed{seed}/{source_digest()}", digests)
    return problems


def check_body(name: str, job: Job, body: str, rc: int) -> list[str]:
    if name == "spectral-pair":
        return checks.check_spectral(checks.parse_gap_csv(body), PAIR_MODULI, True,
                                     reference_moduli=[7])
    if name == "spectral-single":
        return checks.check_spectral(checks.parse_gap_csv(body), SINGLE_MODULI, False,
                                     reference_moduli=SINGLE_MODULI)
    if name == "box-amplify":
        return checks.check_box(json.loads(body), job.instances)
    return checks.check_glue(job.meta["q"], job.meta["helper"], rc, json.loads(body))


def compare_digests(key: str, digests: dict[str, str]) -> list[str]:
    store = OUT / "digests.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    problems = [f"{key} {label}: output differs from an earlier run of the same seed"
                for label, d in digests.items() if known.get(key, {}).get(label, d) != d]
    known.setdefault(key, {}).update(digests)
    tmp = store.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    tmp.replace(store)
    return problems


# ---------------------------------------------------------------------------
# environment


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.exists():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.exists():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas,
        "child_blas_threads": {var: child_env()[var] for var in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
        "source_digest": source_digest(),
    }


# ---------------------------------------------------------------------------
# one workload


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    jobs = WORKLOADS[name](seed)
    work = OUT / "work" / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    t0 = time.monotonic()
    setups = []

    def probe_setup(count: int) -> None:
        # set-up only: spread over the run, so the median sees its whole span
        for _ in range(count if not trace else 0):
            label = f"probe{len(setups)}"
            probe = spawn({"kind": "probe"}, work, label)
            if probe["result"] is None:
                raise RuntimeError(f"setup probe failed; see {work / label}.log")
            setups.append(probe["setup"])

    probe_setup(SETUP_PROBES)
    rounds = []
    while True:
        # a traced run alternates untraced and traced rounds, untraced first
        traced = trace and len(rounds) % 2 == 1
        rounds.append(run_round(jobs, work, len(rounds), traced))
        probe_setup(1)
        elapsed = time.monotonic() - t0
        if trace and len(rounds) < 2:
            continue
        if elapsed + rounds[-1]["wall"] > seconds:
            break

    attempted = failed = 0
    for rnd in rounds:
        for job, run in zip(jobs, rnd["runs"]):
            attempted += job.ops
            if run["body"] is None:
                failed += job.ops
    problems = check_outputs(name, jobs, rounds, seed)

    plain = [r for r in rounds if not r["trace"]]
    walls = [r["wall"] for r in plain]
    setups += [run["setup"] for r in plain for run in r["runs"] if "setup" in run]
    ops = sum(job.ops for job in jobs)
    vertices = sum(job.vertices for job in jobs)
    wall = statistics.median(walls)
    if trace:
        metrics = traced_metrics(rounds, wall)
        units = spans.per_layer_units()
    else:
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": max(run["rss_mb"] for r in plain for run in r["runs"]),
            "vertices_per_s": statistics.median(vertices / w for w in walls),
            "instances_per_s": statistics.median(ops / w for w in walls),
        }
        units = END_TO_END_UNITS
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    record = dict(result, workload=name, seed=seed, seconds=seconds, trace=trace,
                  problems=problems, environment=environment(),
                  rounds=[{"trace": r["trace"], "wall_s": r["wall"],
                           "children": [{k: run[k] for k in ("wall", "rss_mb", "exit")}
                                        for run in r["runs"]]} for r in rounds],
                  setup_samples=setups,
                  jobs=[{"label": j.label, "ops": j.ops, "vertices": j.vertices,
                         "argv": j.argv, "instances": j.instances} for j in jobs])
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))
    keep_traces(work, rounds, name, seed)
    shutil.rmtree(work)
    for problem in problems:
        print(f"{name}: CHECK FAILED: {problem}", file=sys.stderr)
    return result


def traced_metrics(rounds: list[dict], untraced_wall: float) -> dict[str, float]:
    """Per-layer metrics of the traced round with the median wall time; the
    overhead is that wall minus the median untraced round's."""
    traced = sorted((r for r in rounds if r["trace"]), key=lambda r: r["wall"])
    rnd = traced[(len(traced) - 1) // 2]
    import numpy as np

    loaded, counters = [], defaultdict(float)
    for run in rnd["runs"]:
        if run["result"] is None:
            continue
        with np.load(run["trace_path"]) as z:
            loaded.append({k: z[k] for k in z.files})
        for key, value in run["result"]["counters"].items():
            counters[key] += value
    metrics = spans.layer_metrics(loaded, counters, [run["wall"] for run in rnd["runs"]])
    metrics["trace.overhead_s"] = rnd["wall"] - untraced_wall
    rnd["kept"] = True
    return metrics


def keep_traces(work: Path, rounds: list[dict], name: str, seed: int) -> None:
    """Move the reported traced round's span files to .bench_out/traces."""
    dest = OUT / "traces"
    for rnd in rounds:
        if not rnd.get("kept"):
            continue
        dest.mkdir(parents=True, exist_ok=True)
        for run in rnd["runs"]:
            path = Path(run["trace_path"])
            if path.exists():
                shutil.move(str(path), dest / f"{name}-seed{seed}-{path.name}")


def print_result(name: str, result: dict) -> None:
    print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}")
    for key, m in result["metrics"].items():
        print(f"  {key:58s} {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sl2lab" / "__init__.py").exists():
        print(f"error: no sl2lab sources under {SRC}; run inside a checkout", file=sys.stderr)
        return 1
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_result(name, results[name])
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
