"""The benchmark's span tracer still wraps the layers it reports.

``bench/spans.py`` wraps library functions by name and reads operator
attributes, and ``bench/test_bench.py`` lies outside the tier-1 test paths;
this runs two traced CLI jobs in a child process and checks that every
wrapped layer they reach recorded calls.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import sl2lab

ROOT = Path(__file__).resolve().parents[1]

CHILD = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from sl2lab import cli, glue, spectral, walks  # noqa: F401  imported before install
import spans

tracer = spans.Tracer()
spans.install(tracer)
out = sys.argv[3]
rcs = [
    cli.main(["--out", out, "spectral", "--moduli", "3,13", "--no-pair"]),
    cli.main(["--out", out, "glue", "--q2", "5", "--q3", "5", "--b", "diagonal", "--a", "dense"]),
]
calls = {name: tracer.name.count(i) for i, name in enumerate(spans.SPAN_NAMES)}
print(json.dumps({"rcs": rcs, "calls": calls}))
"""


def test_traced_spectral_and_glue_runs_record_their_layers(tmp_path):
    src = str(Path(sl2lab.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, src, str(ROOT / "bench"), str(tmp_path)],
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1"),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    # q = 3 takes the dense route and q = 13 (N = 2184) runs Lanczos; the
    # diagonal glue job exits 0 with a dense A
    assert report["rcs"] == [0, 0]
    for name in (
        "spectral.CayleyOperator.build",
        "spectral.CayleyOperator.apply",
        "eigen.lanczos_extreme",
        "packed.generated_subgroup",
    ):
        assert report["calls"][name] > 0, name
