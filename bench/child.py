"""One child process of the benchmark: import sl2lab, run one job, report.

Usage: python3 bench/child.py SPEC.json RESULT.json

SPEC holds ``src`` (the directory that contains the sl2lab package), ``kind``
("probe", "cli" or "box"), the job's inputs, and ``trace_path`` (null for an
untraced run).  RESULT receives ``ready`` (CLOCK_MONOTONIC time at which
numpy and every sl2lab module are imported and the first call into sl2lab is
about to run), ``done``, the job's outcome and, for traced runs, the counters;
the spans go to ``trace_path`` as an .npz file.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from pathlib import Path

SL2LAB_MODULES = (
    "factored", "sl2", "packed", "measure", "eigen", "spectral", "walks",
    "growth", "addcomb", "approxhom", "commutator", "glue", "cli",
)


def run_box(instances: list[list[int]]) -> list[dict]:
    """amplify_exhaustive_check on each (p, m1, m2, n1, n2); JSON-ready reports."""
    from sl2lab import commutator
    from sl2lab.factored import FactoredModulus

    reports = []
    for p, m1, m2, n1, n2 in instances:
        h1 = commutator.CongruenceBox(FactoredModulus.of(p**m1), FactoredModulus.of(p**m2))
        h2 = commutator.CongruenceBox(FactoredModulus.of(p**n1), FactoredModulus.of(p**n2))
        rep = commutator.amplify_exhaustive_check(h1, h2, cap=128)
        out = rep["output"]
        reports.append(
            {
                "instance": [p, m1, m2, n1, n2],
                "output": [out.inner.value, out.outer.value],
                "primes": {str(q): info for q, info in rep["primes"].items()},
                "verified": rep["verified"],
            }
        )
    return reports


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[0]).read_text())
    sys.path.insert(0, spec["src"])
    import numpy as np

    for name in SL2LAB_MODULES:
        importlib.import_module(f"sl2lab.{name}")
    tracer = None
    if spec.get("trace_path"):
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    result: dict = {"ready": time.monotonic()}
    if spec["kind"] == "cli":
        from sl2lab import cli

        result["rc"] = cli.main(spec["argv"])
    elif spec["kind"] == "box":
        body = json.dumps(run_box(spec["instances"]), indent=1, sort_keys=True)
        Path(spec["body_path"]).write_text(body)
        result["rc"] = 0
    result["done"] = time.monotonic()
    if tracer is not None:
        np.savez(spec["trace_path"], **tracer.arrays())
        result["counters"] = dict(tracer.counters)
    Path(argv[1]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
