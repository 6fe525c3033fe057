import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sl2lab
from sl2lab.cli import main


def newest_run(root: Path) -> Path:
    runs = sorted(root.glob("run-*"))
    assert runs
    return runs[-1]


def test_spectral_single_modulus(tmp_path):
    code = main(["--out", str(tmp_path), "spectral", "--moduli", "5", "--no-pair"])
    assert code == 0
    run = newest_run(tmp_path)
    body = (run / "gap_sweep.csv").read_text()
    lines = body.strip().split("\n")
    assert lines[0].startswith("q,N,degree,lambda2")
    assert len(lines) == 2 and lines[1].startswith("5,120,4,")
    manifest = json.loads((run / "manifest.json").read_text())
    assert "gap_sweep.csv" in manifest["outputs"]
    assert manifest["config"]["moduli"] == "5"
    assert manifest["config"]["timings"] is False
    assert "func" not in manifest["config"]


def test_pair_spectral_csv_cells_are_plain(tmp_path):
    # Lanczos residuals are numpy floats; their cells must read as plain floats
    assert main(["--out", str(tmp_path), "spectral", "--moduli", "5"]) == 0
    run = newest_run(tmp_path)
    rows = (run / "gap_sweep.csv").read_text().strip().split("\n")
    assert len(rows) == 2 and rows[1].startswith("5,14400,")
    cells = [cell for row in rows for cell in row.split(",")]
    assert not [cell for cell in cells if cell.startswith("np.")]
    float(rows[1].split(",")[4])  # the residual cell
    manifest = json.loads((run / "manifest.json").read_text())
    assert "threads" not in manifest["config"] and "method" not in manifest["config"]


def test_unknown_flag_exits_64(tmp_path):
    assert main(["--out", str(tmp_path), "spectral", "--moduli", "5", "--bogus"]) == 64
    assert main(["--out", str(tmp_path), "--threads", "2", "spectral", "--moduli", "5"]) == 64
    # lambda2 picks its route from N, so there is no --method to set
    assert main(["--out", str(tmp_path), "spectral", "--moduli", "5", "--method", "dense"]) == 64
    growth = ["--out", str(tmp_path), "growth", "--set", "full", "--q1", "5", "--q2", "1"]
    assert main(growth + ["--seed", "1"]) == 64


def test_unknown_subcommand_exits_64(tmp_path):
    assert main(["--out", str(tmp_path), "frobnicate"]) == 64


def test_bad_event_exits_64(tmp_path):
    code = main(
        ["--out", str(tmp_path), "nonconc", "--event", "nope", "--Q", "5", "--lmax", "3"]
    )
    assert code == 64


def test_csv_bodies_byte_identical_across_reruns(tmp_path):
    argv = [
        "--out",
        str(tmp_path),
        "nonconc",
        "--event",
        "lower-left",
        "--Q",
        "5",
        "--lmin",
        "2",
        "--lmax",
        "8",
        "--lstep",
        "2",
        "--seed",
        "7",
    ]
    assert main(argv) == 0
    first = (newest_run(tmp_path) / "nonconc.csv").read_bytes()
    assert main(argv) == 0
    second = (newest_run(tmp_path) / "nonconc.csv").read_bytes()
    assert first == second


def test_spectral_timings_isolated(tmp_path):
    argv = ["--out", str(tmp_path), "spectral", "--moduli", "3,5", "--no-pair", "--seed", "1"]
    assert main(argv) == 0
    a = (newest_run(tmp_path) / "gap_sweep.csv").read_bytes()
    assert main(argv) == 0
    b = (newest_run(tmp_path) / "gap_sweep.csv").read_bytes()
    assert a == b  # seconds column empty by default


def test_growth_full_set(tmp_path):
    code = main(
        ["--out", str(tmp_path), "growth", "--set", "full", "--q1", "5", "--q2", "1", "--kmax", "2"]
    )
    assert code == 0
    run = newest_run(tmp_path)
    rep = json.loads((run / "growth.json").read_text())
    assert rep["k"] == "1" and rep["q1_prime"] == "1"
    # decimal-string integers in the JSON
    assert isinstance(rep["size"], str)


def test_addcomb_trials(tmp_path):
    code = main(
        [
            "--out",
            str(tmp_path),
            "addcomb",
            "--q",
            "24",
            "--trials",
            "5",
            "--density",
            "0.85",
            "--seed",
            "3",
        ]
    )
    assert code == 0
    run = newest_run(tmp_path)
    lines = (run / "addcomb.csv").read_text().strip().split("\n")
    assert len(lines) == 6


def test_approxhom_trials(tmp_path):
    code = main(
        [
            "--out",
            str(tmp_path),
            "approxhom",
            "--trials",
            "4",
            "--nmin",
            "30",
            "--nmax",
            "60",
            "--rho",
            "0.0",
            "--seed",
            "5",
        ]
    )
    assert code == 0


def test_glue_diagonal_counterexample_exits_2(tmp_path):
    code = main(
        ["--out", str(tmp_path), "glue", "--q2", "5", "--q3", "5", "--b", "diagonal", "--a", "none"]
    )
    assert code == 2  # verified no-expansion report
    rep = json.loads((newest_run(tmp_path) / "glue.json").read_text())
    assert rep["no_expansion"] is True


def test_glue_with_dense_a_exits_0(tmp_path):
    code = main(
        [
            "--out",
            str(tmp_path),
            "glue",
            "--q2",
            "5",
            "--q3",
            "5",
            "--b",
            "diagonal",
            "--a",
            "dense",
            "--a-size",
            "3000",
        ]
    )
    assert code == 0
    run = newest_run(tmp_path)
    rep = json.loads((run / "glue.json").read_text())
    assert rep["q3_star"] == 5
    config = json.loads((run / "manifest.json").read_text())["config"]
    assert config["a_size"] == 3000 and config["cap"] == 500_000


def test_lemma_check_commutator(tmp_path, capsys):
    code = main(
        ["--out", str(tmp_path), "lemma-check", "--lemma", "commutator-identity", "--p", "2", "--depth", "3"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    config = json.loads((newest_run(tmp_path) / "manifest.json").read_text())["config"]
    assert config["window_cap"] == 128 and config["depth"] == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["lemma-check", "--lemma", "commutator-identity", "--p", "0"],
        ["lemma-check", "--lemma", "commutator-identity", "--p", "1"],
        ["lemma-check", "--lemma", "commutator-identity", "--p", "-3"],
        ["lemma-check", "--lemma", "commutator-identity", "--depth", "0"],
        ["lemma-check", "--lemma", "commutator-identity", "--depth", "-1"],
        ["nonconc", "--event", "lower-left", "--Q", "0"],
        ["nonconc", "--event", "integral-linear:0,1,0,0,0,0,0,0:0", "--lmax", "4", "--samples", "0"],
        ["nonconc", "--event", "integral-linear:0,1,0,0,0,0,0,0:0", "--lmax", "4", "--samples", "-1"],
    ],
    ids=["p0", "p1", "p-3", "depth0", "depth-1", "nonconc-Q0", "samples0", "samples-1"],
)
def test_bad_input_exits_1_without_run_dir(tmp_path, capsys, argv):
    assert main(["--out", str(tmp_path), *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not list(tmp_path.glob("run-*"))


# values these options used to accept: a false lambda2 (--tol inf, 0.5), a
# header-only CSV (no modulus), a clamped set size (--density) or a traceback
@pytest.mark.parametrize(
    "argv",
    [
        ["spectral", "--moduli", "5", "--tol", "inf"],
        ["spectral", "--moduli", "5", "--tol", "0.5"],
        ["spectral", "--moduli", "5", "--tol", "0"],
        ["spectral", "--moduli", "5", "--tol", "nan"],
        ["spectral", "--moduli", ","],
        ["spectral", "--moduli", ""],
        ["approxhom", "--rho", "2"],
        ["approxhom", "--rho", "-0.5"],
        ["approxhom", "--rho", "inf"],
        ["approxhom", "--epsilon", "1/0"],
        ["addcomb", "--q", "12", "--density", "1.5"],
        ["addcomb", "--q", "12", "--density", "-1"],
        ["addcomb", "--q", "12", "--density", "1e300"],
        ["approxhom", "--trials", "0"],
        ["approxhom", "--trials", "-1"],
        ["approxhom", "--nmin", "0", "--nmax", "0"],
        ["approxhom", "--nmin", "5", "--nmax", "3"],
        ["glue", "--q2", "5", "--q3", "5", "--a", "dense", "--a-size", "-1"],
        ["glue", "--q2", "5", "--q3", "5", "--a-size", "0"],
        ["glue", "--q2", "5", "--q3", "5", "--cap", "0"],
        ["addcomb", "--q", "12", "--gamma", "nan"],
        ["addcomb", "--q", "12", "--gamma", "1000"],
        ["growth", "--set", "full", "--q1", "3", "--q2", "1", "--delta", "nan"],
        ["growth", "--set", "full", "--q1", "3", "--q2", "1", "--delta", "1e300"],
    ],
    ids=["tol-inf", "tol-0.5", "tol0", "tol-nan", "moduli-comma", "moduli-empty", "rho2",
         "rho-0.5", "rho-inf", "epsilon-1/0", "density1.5", "density-1", "density1e300",
         "trials0", "trials-1", "nmin0", "nmin-above-nmax", "a-size-1", "a-size0", "cap0",
         "gamma-nan", "gamma1000", "delta-nan", "delta1e300"],
)
def test_out_of_domain_option_exits_64_without_run_dir(tmp_path, capsys, argv):
    assert main(["--out", str(tmp_path), *argv]) == 64
    err = capsys.readouterr().err
    assert err.startswith("usage error: argument --") and err.count("\n") == 1
    assert not list(tmp_path.glob("run-*"))


EDGE_VALUES = ["0", "1", "-1", "-0.5", "nan", "inf", "-inf", "1e300", "1e-300", "", ",", "1/0"]
# each option the parser checks, with the rest of a small run around it
DOMAIN_OPTIONS = {
    "--tol": ["spectral", "--moduli", "3", "--no-pair"],
    "--moduli": ["spectral", "--no-pair"],
    "--rho": ["approxhom", "--trials", "2", "--nmin", "20", "--nmax", "30"],
    "--epsilon": ["approxhom", "--trials", "2", "--nmin", "20", "--nmax", "30"],
    "--density": ["addcomb", "--q", "12", "--trials", "2"],
    "--trials": ["approxhom", "--nmin", "20", "--nmax", "30"],
    "--nmin": ["approxhom", "--trials", "2", "--nmax", "30"],
    "--nmax": ["approxhom", "--trials", "2", "--nmin", "1"],
    "--a-size": ["glue", "--q2", "2", "--q3", "2", "--a", "dense"],
    "--cap": ["glue", "--q2", "2", "--q3", "2"],
    "--gamma": ["addcomb", "--q", "12", "--trials", "2"],
    "--delta": ["growth", "--set", "full", "--q1", "3", "--q2", "1", "--kmax", "2"],
}


@settings(max_examples=120, deadline=None)
@given(
    option=st.sampled_from(sorted(DOMAIN_OPTIONS)),
    value=st.one_of(st.sampled_from(EDGE_VALUES), st.floats().map(repr)),
)
def test_option_edge_values_exit_cleanly(option, value):
    with tempfile.TemporaryDirectory() as out:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["--out", out, *DOMAIN_OPTIONS[option], f"{option}={value}"])
        runs = list(Path(out).glob("run-*"))
    assert code in (0, 1, 2, 64)
    assert "Traceback" not in err.getvalue()
    if code in (1, 64):
        assert err.getvalue().count("\n") == 1 and not runs


def test_structured_construction_error_exits_1_without_run_dir(tmp_path, capsys, monkeypatch):
    from sl2lab import approxhom

    def broken(*args, **kwargs):
        raise approxhom.StructuredConstructionError("|A'| = 3 < (1 - sqrt(eps))|G1| = 4.0")

    monkeypatch.setattr(approxhom, "dichotomy", broken)
    assert main(["--out", str(tmp_path), "approxhom", "--trials", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: trial 0: |A'| = 3") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not list(tmp_path.glob("run-*"))


def test_glue_cap_that_skips_the_search_exits_1(tmp_path, capsys):
    # a cap of 1 skips every divisor pair of the section search: no power of
    # B was formed, so the run is an error, not a report of no expansion
    argv = ["glue", "--q2", "5", "--q3", "5", "--a", "dense", "--cap", "1"]
    assert main(["--out", str(tmp_path), *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cap 1 skipped 1 of 1 divisor pairs") and err.count("\n") == 1
    assert not list(tmp_path.glob("run-*"))


def test_unconverged_spectral_exits_1_without_run_dir(tmp_path, capsys, monkeypatch):
    from sl2lab import spectral

    monkeypatch.setattr(spectral, "lanczos_extreme", lambda *a, **k: (0.5, 7, 1e-3, False, None))
    # N = 2184 > DENSE_THRESHOLD: lambda2 takes the Lanczos route
    argv = ["spectral", "--moduli", "13", "--no-pair"]
    assert main(["--out", str(tmp_path), *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: lambda2 at N=2184 did not converge in 7 Lanczos iterations")
    assert err.count("\n") == 1
    assert not list(tmp_path.glob("run-*"))


def run_child(tmp_path: Path, argv: list[str]) -> subprocess.CompletedProcess:
    # a child process with a timeout turns a hang into a failure
    src = str(Path(sl2lab.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-m", "sl2lab.cli", "--out", str(tmp_path), *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_box_amplify_small_window_cap_terminates(tmp_path):
    # at cap 10, p = 5 has no window
    argv = ["lemma-check", "--lemma", "box-amplify", "--trials", "20", "--window-cap", "10"]
    proc = run_child(tmp_path, argv)
    assert proc.returncode == 0, proc.stderr
    assert "box-amplify: PASS" in proc.stdout


def test_box_amplify_window_cap_without_windows_exits_64(tmp_path):
    proc = run_child(tmp_path, ["lemma-check", "--lemma", "box-amplify", "--window-cap", "3"])
    assert proc.returncode == 64
    assert proc.stderr.startswith("usage error: ")
    assert not list(tmp_path.glob("run-*"))


def test_box_amplify_window_exponent_is_exact():
    from sl2lab.cli import _largest_exponent

    # int(log(243) / log(3)) is 4
    assert _largest_exponent(243, 3) == 5
    assert [_largest_exponent(128, p) for p in (2, 3, 5)] == [7, 4, 3]
    assert _largest_exponent(3, 2) == 1 and _largest_exponent(1, 5) == 0


def test_lemma_check_bracket_span(tmp_path):
    code = main(
        [
            "--out",
            str(tmp_path),
            "lemma-check",
            "--lemma",
            "bracket-span",
            "--q",
            "35",
            "--trials",
            "10",
        ]
    )
    assert code == 0


def test_generator_file_roundtrip(tmp_path):
    gens = """
    [
      [[["1", "2"], ["0", "1"]], [["-1", "2"], ["-2", "3"]]],
      [[["1", "-2"], ["0", "1"]], [["3", "-2"], ["2", "-1"]]]
    ]
    """
    path = tmp_path / "gens.json"
    path.write_text(gens)
    code = main(
        ["--out", str(tmp_path), "spectral", "--gens", str(path), "--moduli", "5", "--no-pair"]
    )
    assert code == 0


def test_out_root_from_env(tmp_path, monkeypatch):
    monkeypatch.setenv("SL2LAB_OUT", str(tmp_path / "envroot"))
    code = main(["spectral", "--moduli", "3", "--no-pair"])
    assert code == 0
    assert (tmp_path / "envroot").exists()


# (u, l) twice, its inverse once: closed under inverse as a set, not as a multiset
UNBALANCED_GENS = """
[
  [[["1", "1"], ["0", "1"]], [["1", "0"], ["1", "1"]]],
  [[["1", "1"], ["0", "1"]], [["1", "0"], ["1", "1"]]],
  [[["1", "-1"], ["0", "1"]], [["1", "0"], ["-1", "1"]]],
  [[["1", "0"], ["1", "1"]], [["1", "1"], ["0", "1"]]],
  [[["1", "0"], ["-1", "1"]], [["1", "-1"], ["0", "1"]]]
]
"""


def test_spectral_unbalanced_generators_exit_1_without_run_dir(tmp_path, capsys):
    path = tmp_path / "gens.json"
    path.write_text(UNBALANCED_GENS)
    out = tmp_path / "out"
    argv = ["spectral", "--gens", str(path), "--moduli", "5,7", "--no-pair"]
    assert main(["--out", str(out), *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: lambda2 needs a generator multiset closed under inverse")
    assert err.count("\n") == 1
    assert not list(out.glob("run-*"))
    # a walk on an unbalanced multiset is well defined: nonconc accepts it
    argv = ["nonconc", "--gens", str(path), "--event", "lower-left", "--Q", "5", "--lmax", "4"]
    assert main(["--out", str(out), *argv]) == 0
