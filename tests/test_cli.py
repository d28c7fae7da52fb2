"""End-to-end CLI runs in subprocesses: outputs, manifests, replay, exit codes."""

import contextlib
import hashlib
import io
import json
import shlex
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import first_accepted_draw

from lsvkit import cli, harness, structure
from lsvkit.ensembles import GAUSSIAN, RADEMACHER, SeedSpec, sample_array
from lsvkit.errors import SingularMatrix
from lsvkit.harness import MAX_WORKERS
from lsvkit.linalg import orthonormalize
from lsvkit.structure import (
    DEFAULT_GAMMA,
    DEFAULT_THETA_MAX,
    LCD_SAMPLE_BUDGET,
    LcdQuery,
    lcd_subspace_sampled,
    lcd_vector,
    small_ball_estimate,
)
from lsvkit.witness import audit


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "lsvkit", *map(str, args)],
                          capture_output=True, text=True, timeout=300)


# ---- tail -------------------------------------------------------------------

def test_tail_output_independent_of_worker_count(tmp_path):
    blobs = []
    for workers in (1, 2, 3, 8):
        out = tmp_path / f"tail_w{workers}.csv"
        r = run_cli("tail", "--ensemble", "gaussian", "--n", 4, "--n", 6,
                    "--k", 0.5, "--k", 2.0, "--trials", 40, "--seed", 7,
                    "--workers", workers, "--out", out)
        assert r.returncode == 0, r.stderr
        blobs.append(out.read_bytes())
    assert all(b == blobs[0] for b in blobs[1:])


def test_tail_manifest_and_warning_note(tmp_path):
    out = tmp_path / "tail.csv"
    r = run_cli("tail", "--ensemble", "gaussian", "--n", 4, "--k", 1.0,
                "--trials", 10, "--seed", 5, "--out", out)
    assert r.returncode == 0
    assert "outside the guaranteed range" in r.stderr  # K=1 < 2 on the upper tail
    manifest = json.loads((tmp_path / "tail.csv.manifest.json").read_text())
    assert manifest["command"] == "tail"
    assert manifest["master_seed"] == 5
    assert manifest["parameters"]["n_values"] == [4]
    assert manifest["outputs"] == [str(out)]
    assert isinstance(manifest["duration_seconds"], float)


def test_tail_lower_direction_holds_epsilon_in_k_column(tmp_path):
    out = tmp_path / "lower.csv"
    r = run_cli("tail", "--ensemble", "gaussian", "--n", 4, "--k", 0.05, "--k", 0.2,
                "--trials", 30, "--seed", 2, "--direction", "lower", "--out", out)
    assert r.returncode == 0
    assert "outside the guaranteed range" not in r.stderr
    rows = out.read_text().splitlines()[1:]
    assert [row.split(",")[2] for row in rows] == ["0.05", "0.2"]
    assert all(row.split(",")[3] == "lower" for row in rows)


def test_replay_reproduces_data_file_byte_for_byte(tmp_path):
    out = tmp_path / "tail.csv"
    r = run_cli("tail", "--ensemble", "rademacher", "--n", 4, "--k", 2.0,
                "--trials", 30, "--seed", 13, "--out", out)
    assert r.returncode == 0, r.stderr
    original = tmp_path / "tail.orig.csv"
    shutil.copy(out, original)
    out.unlink()
    r = run_cli("--replay", tmp_path / "tail.csv.manifest.json")
    assert r.returncode == 0, r.stderr
    assert out.read_bytes() == original.read_bytes()


@pytest.mark.parametrize("argv", [
    ["witness", "--ensemble", "rademacher", "--n", 3, "--trials", 5, "--seed", 2,
     "--column", 2, "--workers", 2],
    ["lcd", "--vector=-0.3,1.7", "--gamma", 0.3, "--theta-max", 40],
    ["lcd", "--subspace-dim", 2, "--n", 5, "--samples", 2, "--seed", 4, "--theta-max", 30],
    ["smallball", "--weights", "1,-2.5", "--ensemble", "uniform", "--epsilon", 0.3,
     "--trials", 500, "--seed", 8],
], ids=["witness", "lcd-vector", "lcd-subspace", "smallball"])
def test_replay_reproduces_every_command(tmp_path, argv):
    out = tmp_path / "data.json"
    r = run_cli(*argv, "--out", out)
    assert r.returncode == 0, r.stderr
    original = out.read_bytes()
    out.unlink()
    r = run_cli("--replay", tmp_path / "data.json.manifest.json")
    assert r.returncode == 0, r.stderr
    assert out.read_bytes() == original


@pytest.mark.parametrize("argv, names", [
    ("tail --ensemble gaussian --n 4 --k 1 --trials 5",
     {"ensemble", "n_values", "k_values", "trials", "seed", "direction", "workers", "out"}),
    ("witness --ensemble gaussian --n 4 --trials 5",
     {"ensemble", "n", "trials", "seed", "column", "workers", "out"}),
    ("lcd --vector 1,0",
     {"vector", "subspace_dim", "n", "samples", "seed", "alpha", "gamma", "theta_max",
      "grid_step", "out"}),
    ("smallball --weights 1,1 --ensemble gaussian --epsilon 0.5 --trials 5",
     {"weights", "ensemble", "epsilon", "trials", "seed", "out"}),
], ids=["tail", "witness", "lcd", "smallball"])
def test_each_command_records_its_parameter_names(argv, names):
    # the keys of a manifest's `parameters`, before any runner edits them
    args = vars(cli.build_parser().parse_args([*argv.split(), "--out", "data.out"]))
    assert set(args) - {"replay", "command"} == names


# golden digests: key order, float rendering and every value of each JSON
# data file are frozen, so these files must never change for fixed flags
@pytest.mark.parametrize("argv, sha256", [
    ("witness --ensemble rademacher --n 6 --trials 3 --seed 0",
     "354888752c1e1f3b15a71ee6a06c3917c6b053322ad70c03b3c018d79bc1cff9"),
    ("lcd --vector 1,0 --gamma 0.5",
     "18aba7c901c8f7449790fdcc5c8865956b729d7daf2c312a1e6a46e55ae92771"),
    ("lcd --subspace-dim 3 --n 6 --gamma 0.01 --alpha 0.01 --theta-max 5 --samples 4 --seed 3",
     "b63c4de6cd3d6516b9f57662b929a3f30029022ede356a4d4cb52bae265b1096"),
    ("lcd --subspace-dim 2 --n 4 --samples 3 --seed 9 --grid-step 0.001 --theta-max 50",
     "4c88e378544528dfdbf60247f1eb2f194714db6252f408eab4a487317b15090a"),
    ("smallball --weights 1,1 --ensemble rademacher --epsilon 0.5 --trials 1000 --seed 10",
     "d7f85ef2b3d610026d05d081059434a845e93e3853f23e35980e4f91bec0cc4a"),
], ids=["witness", "lcd-vector", "lcd-subspace-unbounded", "lcd-subspace-bounded", "smallball"])
def test_json_bytes_are_pinned(tmp_path, argv, sha256):
    out = tmp_path / "data.json"
    assert cli.main([*argv.split(), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256


# ---- witness ---------------------------------------------------------------

def test_witness_run_with_column_flag(tmp_path):
    out = tmp_path / "witness.json"
    r = run_cli("witness", "--ensemble", "gaussian", "--n", 5, "--trials", 6,
                "--seed", 1, "--column", 3, "--out", out)
    assert r.returncode == 0, r.stderr
    reports = json.loads(out.read_text())
    assert len(reports) == 6
    for rep in reports:
        assert rep["n"] == 5
        assert rep["column"] == 2  # report keeps the 0-based API index
        assert rep["violations"] == []
        assert rep["implied_bound"] >= rep["s_n"] - 1e-9
    manifest = json.loads((tmp_path / "witness.json.manifest.json").read_text())
    assert manifest["violations_total"] == 0
    assert manifest["singular_resamples"] == 0


def _audit_or_reject(m):
    try:
        return audit(m, 0).to_json_dict()
    except SingularMatrix:
        return None


@pytest.mark.parametrize("workers", [1, 3])
def test_witness_matches_per_trial_recomputation(tmp_path, monkeypatch, workers):
    # rademacher n=3 is singular about 5 draws in 8; blocks of 1, 5 and 1820 matrices
    draws = [first_accepted_draw(RADEMACHER, 3, 6, t, _audit_or_reject) for t in range(40)]
    expected = tmp_path / "per-stream.json"
    cli._write_data_json(expected, [rep for rep, _ in draws])
    resamples = sum(r for _, r in draws)
    assert resamples > 0
    for entries in (9, 45, harness.BLOCK_ENTRIES):
        monkeypatch.setattr(harness, "BLOCK_ENTRIES", entries)
        out = tmp_path / f"witness-{entries}.json"
        code = cli.main(["witness", "--ensemble", "rademacher", "--n", "3", "--trials", "40",
                         "--seed", "6", "--workers", str(workers), "--out", str(out)])
        assert code == 0
        assert out.read_bytes() == expected.read_bytes(), entries
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
        assert manifest["singular_resamples"] == resamples, entries


# ---- lcd -------------------------------------------------------------------

def test_lcd_vector_mode_json(tmp_path):
    out = tmp_path / "lcd.json"
    r = run_cli("lcd", "--vector", "1,0", "--alpha", 10, "--gamma", 0.5,
                "--theta-max", 100, "--out", out)
    assert r.returncode == 0, r.stderr
    doc = json.loads(out.read_text())
    assert doc["mode"] == "vector"
    assert doc["unbounded"] is False
    assert doc["theta_star"] == pytest.approx(2.0 / 3.0, abs=1e-6)
    assert doc["certificate"] == [1, 0]
    assert doc["achieved_dist"] < 0.5 * doc["theta_star"] + doc["slack"]


def test_lcd_defaults_are_the_library_defaults():
    args = cli.build_parser().parse_args(["lcd", "--vector", "1,0", "--out", "lcd.json"])
    assert (args.gamma, args.theta_max) == (DEFAULT_GAMMA, DEFAULT_THETA_MAX)
    assert args.alpha is None  # resolved to default_alpha(n) once n is known


def test_lcd_subspace_mode_json(tmp_path):
    out = tmp_path / "sub.json"
    r = run_cli("lcd", "--subspace-dim", 2, "--n", 4, "--samples", 3,
                "--seed", 9, "--theta-max", 50, "--out", out)
    assert r.returncode == 0, r.stderr
    doc = json.loads(out.read_text())
    assert doc["mode"] == "subspace"
    assert doc["n"] == 4 and doc["subspace_dim"] == 2 and doc["samples"] == 3
    assert doc["alpha"] == 1.0  # default sqrt(4)/2 resolved and recorded
    manifest = json.loads((tmp_path / "sub.json.manifest.json").read_text())
    assert manifest["parameters"]["alpha"] == 1.0
    if not doc["unbounded"]:
        assert len(doc["direction"]) == 4
        assert doc["theta_star"] > 0


def test_lcd_manifest_counts_grid_points_evaluated(tmp_path):
    # vector mode records its scan's count, subspace mode the sum over its directions
    out = tmp_path / "vec.json"
    assert cli.main(["lcd", "--vector", "1,0", "--alpha", "10", "--gamma", "0.5",
                     "--theta-max", "100", "--out", str(out)]) == 0
    manifest = json.loads(Path(f"{out}.manifest.json").read_text())
    res = lcd_vector(np.array([1.0, 0.0]), LcdQuery(alpha=10.0, gamma=0.5, theta_max=100.0))
    assert manifest["grid_points_evaluated"] == res.grid_points_evaluated > 0

    out = tmp_path / "sub.json"
    assert cli.main(["lcd", "--subspace-dim", "2", "--n", "4", "--samples", "3", "--seed", "9",
                     "--theta-max", "50", "--out", str(out)]) == 0
    manifest = json.loads(Path(f"{out}.manifest.json").read_text())
    basis = orthonormalize(sample_array(GAUSSIAN, (4, 2), SeedSpec(9, 0)))
    res = lcd_subspace_sampled(basis, LcdQuery(alpha=1.0, gamma=0.5, theta_max=50.0), 3,
                               SeedSpec(9, 1))
    assert manifest["grid_points_evaluated"] == res.grid_points_evaluated > 0


def test_main_reuses_one_parser(tmp_path, monkeypatch):
    # the parser is built once per process, so neither a run nor its replay builds one
    def no_parser():
        raise AssertionError("main built a parser")

    monkeypatch.setattr(cli, "build_parser", no_parser)
    out = tmp_path / "lcd.json"
    assert cli.main(["lcd", "--vector", "1,0", "--alpha", "10", "--gamma", "0.5",
                     "--theta-max", "100", "--out", str(out)]) == 0
    first = out.read_bytes()
    out.unlink()
    assert cli.main(["--replay", f"{out}.manifest.json"]) == 0
    assert out.read_bytes() == first


# ---- smallball -------------------------------------------------------------

def test_smallball_json_matches_library(tmp_path):
    out = tmp_path / "sb.json"
    r = run_cli("smallball", "--weights", "1,1", "--ensemble", "rademacher",
                "--epsilon", 0.5, "--trials", 2000, "--seed", 10, "--out", out)
    assert r.returncode == 0, r.stderr
    doc = json.loads(out.read_text())
    w = np.array([1.0, 1.0]) / np.sqrt(2.0)
    est = small_ball_estimate(w, RADEMACHER, 0.5, 2000, SeedSpec(10, 0))
    assert doc["hits"] == est.hits
    assert doc["p_hat"] == pytest.approx(est.p_hat, rel=1e-9)
    assert doc["trials"] == 2000
    assert doc["weights"] == pytest.approx([w[0], w[1]], rel=1e-9)
    assert 0.4 < doc["p_hat"] < 0.6


# ---- exit codes and cleanup ---------------------------------------------------

def test_usage_errors_exit_2(tmp_path, tmp_path_factory):
    manifests = tmp_path_factory.mktemp("manifests")
    missing_key = manifests / "missing_key.manifest.json"
    missing_key.write_text(json.dumps({"command": "tail", "parameters": {
        "ensemble": "gaussian", "n_values": [4], "k_values": [1.0], "seed": 0,
        "direction": "upper", "workers": 1, "out": str(tmp_path / "m.csv")}}))
    wrong_type = manifests / "wrong_type.manifest.json"
    wrong_type.write_text(json.dumps({"command": "witness", "parameters": {
        "ensemble": "gaussian", "n": [5], "trials": 2, "seed": 0, "column": 1,
        "workers": 1, "out": str(tmp_path / "n.json")}}))
    abbreviated_key = manifests / "abbreviated_key.manifest.json"
    abbreviated_key.write_text(json.dumps({"command": "witness", "parameters": {
        "ensemble": "gaussian", "n": 5, "trials": 2, "seed": 0, "colum": 1,
        "workers": 1, "out": str(tmp_path / "p.json")}}))
    cases = [
        # missing --out
        ["tail", "--ensemble", "gaussian", "--n", "4", "--k", "1", "--trials", "5"],
        # dimension below 2
        ["tail", "--ensemble", "gaussian", "--n", "1", "--k", "1",
         "--trials", "5", "--out", str(tmp_path / "a.csv")],
        # dimension that is not an integer
        ["tail", "--ensemble", "gaussian", "--n", "1e3", "--k", "1",
         "--trials", "5", "--out", str(tmp_path / "a.csv")],
        # gamma outside (0,1)
        ["lcd", "--vector", "1,0", "--gamma", "1.5", "--out", str(tmp_path / "b.json")],
        # zero weight vector
        ["smallball", "--weights", "0,0", "--ensemble", "gaussian",
         "--epsilon", "0.5", "--trials", "5", "--out", str(tmp_path / "c.json")],
        # both lcd modes at once
        ["lcd", "--vector", "1,0", "--subspace-dim", "2", "--n", "4",
         "--out", str(tmp_path / "d.json")],
        # subspace mode without ambient dimension
        ["lcd", "--subspace-dim", "2", "--out", str(tmp_path / "e.json")],
        # column index out of range
        ["witness", "--ensemble", "gaussian", "--n", "4", "--trials", "2",
         "--column", "7", "--out", str(tmp_path / "f.json")],
        # no command at all
        [],
        # replay of a nonexistent manifest
        ["--replay", str(tmp_path / "missing.manifest.json")],
        # replayed manifests are validated like flags
        ["--replay", str(missing_key)],
        ["--replay", str(wrong_type)],
        # flags and manifest keys must be spelled out, never abbreviated
        ["witness", "--ens", "rademacher", "--n", "5", "--tri", "3", "--col", "2",
         "--out", str(tmp_path / "q.json")],
        ["--replay", str(abbreviated_key)],
        # non-finite reals
        ["tail", "--ensemble", "gaussian", "--n", "4", "--k", "inf", "--trials", "5",
         "--out", str(tmp_path / "g.csv")],
        ["smallball", "--weights", "1,1", "--ensemble", "gaussian", "--epsilon", "inf",
         "--trials", "5", "--out", str(tmp_path / "h.json")],
        ["lcd", "--vector", "nan,1", "--out", str(tmp_path / "i.json")],
        ["lcd", "--vector", "1,0", "--theta-max", "inf", "--out", str(tmp_path / "j.json")],
        # direction norm overflows to inf
        ["lcd", "--vector", "1e300,1e300", "--out", str(tmp_path / "k.json")],
        # more sampled directions than the LCD sample budget
        ["lcd", "--subspace-dim", "2", "--n", "5", "--samples", str(LCD_SAMPLE_BUDGET + 1),
         "--out", str(tmp_path / "r.json")],
        # 1e15 grid points, over the LCD grid budget
        ["lcd", "--vector", "1,0", "--grid-step", "1e-9", "--theta-max", "1e6",
         "--out", str(tmp_path / "l.json")],
        # more trials than the resample stream layout holds
        ["witness", "--ensemble", "gaussian", "--n", "4", "--trials", str(2**32 + 1),
         "--out", str(tmp_path / "o.json")],
        # more worker threads than MAX_WORKERS
        ["tail", "--ensemble", "gaussian", "--n", "4", "--k", "1", "--trials", "5",
         "--workers", str(MAX_WORKERS + 1), "--out", str(tmp_path / "m.csv")],
    ]
    for argv in cases:
        r = run_cli(*argv)
        assert r.returncode == 2, (argv, r.stderr)
        assert "Traceback" not in r.stderr, (argv, r.stderr)
        assert "invalid _" not in r.stderr, (argv, r.stderr)  # no private type names
        assert not argv or "error:" in r.stderr, (argv, r.stderr)
    assert list(tmp_path.iterdir()) == []  # nothing may be left behind


@pytest.mark.parametrize("argv", [
    ["lcd"],
    ["lcd", "--vector", "1,0", "--subspace-dim", "2", "--n", "4"],
    ["lcd", "--vector=,"],
    ["smallball", "--weights=,", "--ensemble", "gaussian", "--epsilon", "0.5", "--trials", "5"],
], ids=["lcd-no-mode", "lcd-both-modes", "lcd-empty-vector", "smallball-empty-weights"])
def test_parser_rejects_lcd_modes_and_empty_lists(tmp_path, capsys, argv):
    # stated once, in argparse: exactly one lcd mode, and nonempty real lists
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--out", str(tmp_path / "data.json")])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_smallball_over_the_trial_budget_exits_2_before_drawing(tmp_path, monkeypatch, capsys):
    def no_draws(*args, **kwargs):
        raise AssertionError("drew samples before the trial budget was checked")

    monkeypatch.setattr(structure, "sample_array", no_draws)
    code = cli.main(["smallball", "--weights", "1,1", "--ensemble", "gaussian", "--epsilon", "0.5",
                     "--trials", str(structure.SMALL_BALL_TRIAL_BUDGET + 1),
                     "--out", str(tmp_path / "sb.json")])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_smallball_overflowing_weights_exit_2_naming_the_flag(tmp_path, capsys):
    # the CLI normalizes --weights itself, so only a zero or overflowing norm is refused
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["smallball", "--weights", "1e308,1e308", "--ensemble", "gaussian",
                         "--epsilon", "0.1", "--trials", "10", "--out", str(tmp_path / "o.json")])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: --weights must be nonzero with a finite norm, got norm inf"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    (["witness", "--ensemble", "gaussian", "--n", "4", "--trials", "2", "--column", "7"],
     "error: --column must be in [1, 4], got 7"),
    (["lcd", "--subspace-dim", "5", "--n", "4"],
     "error: --subspace-dim must be in [1, 4], got 5"),
], ids=["column", "subspace-dim"])
def test_range_errors_name_the_flag_and_its_bound(tmp_path, capsys, argv, message):
    assert cli.main(argv + ["--out", str(tmp_path / "data.json")]) == 2
    assert capsys.readouterr().err.splitlines() == [message]
    assert list(tmp_path.iterdir()) == []


def test_runtime_failure_exits_1_and_leaves_nothing(tmp_path):
    cases = [
        # output directory does not exist
        ["tail", "--ensemble", "gaussian", "--n", 4, "--k", 1.0,
         "--trials", 5, "--out", tmp_path / "no_such_dir" / "tail.csv"],
        # subspace block too large to allocate; the allocation is refused at once
        ["lcd", "--subspace-dim", 2, "--n", 10**15, "--samples", 2,
         "--out", tmp_path / "x.json"],
    ]
    for argv in cases:
        r = run_cli(*argv)
        assert r.returncode == 1, (argv, r.stderr)
        assert "error:" in r.stderr, (argv, r.stderr)
        assert "Traceback" not in r.stderr, (argv, r.stderr)
    assert list(tmp_path.iterdir()) == []


# ---- imports ---------------------------------------------------------------------

_LAZY_NDTRI_SCRIPT = """
import contextlib, io, json, sys
from lsvkit import cli

out = sys.argv[1]
loaded = []
with contextlib.redirect_stderr(io.StringIO()):
    for argv in (["witness", "--ensemble=rademacher", "--n=4", "--trials=3"],
                 ["tail", "--ensemble=uniform", "--n=4", "--k=2", "--trials=5"],
                 ["witness", "--ensemble=rademacher", "--n=4", "--trials=2", "--column=7"],
                 ["smallball", "--weights=1,1", "--ensemble=gaussian", "--epsilon=0.5",
                  "--trials=10"]):
        loaded.append((cli.main(argv + ["--out=" + out]), "scipy.special" in sys.modules))
print(json.dumps(loaded))
"""


def test_scipy_special_loads_only_for_normal_draws(tmp_path):
    # rademacher and uniform runs and usage errors never import ndtri's module
    r = subprocess.run([sys.executable, "-c", _LAZY_NDTRI_SCRIPT, str(tmp_path / "data.out")],
                       capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout) == [[0, False], [0, False], [2, False], [0, True]]


_NO_SCIPY_LINALG_SCRIPT = """
import contextlib, io, json, sys
from lsvkit import cli, harness

out = sys.argv[1]
loaded = []
with contextlib.redirect_stderr(io.StringIO()):
    for argv in (["tail", "--ensemble=rademacher", "--n=4", "--k=2", "--trials=20"],
                 ["tail", "--ensemble=gaussian", "--n=4", "--k=2", "--trials=5"],
                 ["witness", "--ensemble=rademacher", "--n=4", "--trials=3"],
                 ["lcd", "--subspace-dim=2", "--n=4", "--samples=3"],
                 ["smallball", "--weights=1,1", "--ensemble=gaussian", "--epsilon=0.5",
                  "--trials=10"],
                 ["witness", "--ensemble=rademacher", "--n=4", "--trials=2", "--column=7"]):
        loaded.append((cli.main(argv + ["--out=" + out]), "scipy.linalg" in sys.modules))
print(json.dumps({"loaded": loaded, "pinned": harness.PINNED_BLAS}))
"""


def test_scipy_linalg_never_loads(tmp_path):
    # LU goes through getrf/getrs bound from scipy's bundled OpenBLAS, which the pin covers
    r = subprocess.run([sys.executable, "-c", _NO_SCIPY_LINALG_SCRIPT, str(tmp_path / "data.out")],
                       capture_output=True, text=True, timeout=300)
    assert r.returncode == 0, r.stderr
    result = json.loads(r.stdout)
    assert result["loaded"] == [[0, False]] * 5 + [[2, False]]
    site = Path(np.__file__).resolve().parents[1]
    owners = [next((libs for libs in ("numpy.libs", "scipy.libs") if (site / libs / name).exists()),
                   None) for name in result["pinned"]]
    assert sorted(owners, key=str) == ["numpy.libs", "scipy.libs"]


# ---- fuzzed CLI contract -----------------------------------------------------
# Every argv and every replayed manifest exits 0, 1 or 2, raises nothing
# else, and leaves no file behind on a usage error.  Valid values are kept
# small so that each run is cheap.

JUNK = ("nan", "inf", "-1", "1e3", "[5]", "", "x")
# for flags whose default or "1e3" would mean more work than a fuzz run should do
BOUNDED_JUNK = tuple(v for v in JUNK if v != "1e3")


def _given(flag, *valid, junk=JUNK):
    return st.sampled_from(valid + junk).map(lambda v: [f"--{flag}={v}"])


def _maybe(flag, *valid):
    return st.one_of(st.just([]), _given(flag, *valid))


_ENSEMBLE = _maybe("ensemble", "gaussian", "rademacher")
_SEED = _maybe("seed", "0", "7")
_WORKERS = _maybe("workers", "1", "2")
_FUZZ_FLAGS = {
    "tail": [_ENSEMBLE, _maybe("n", "2", "5", "8"), _maybe("k", "0.5", "2"),
             _maybe("trials", "1", "50"), _SEED, _maybe("direction", "upper", "lower"),
             _WORKERS],
    "witness": [_ENSEMBLE, _maybe("n", "2", "5", "8"), _maybe("trials", "1", "50"), _SEED,
                _maybe("column", "1", "3", "9"), _WORKERS],
    "lcd": [_maybe("vector", "1,0", "-0.3,1.7"), _maybe("subspace-dim", "1", "2", "9"),
            _maybe("n", "2", "8"), _given("samples", "1", "3", junk=BOUNDED_JUNK), _SEED,
            _maybe("alpha", "0.5", "3"), _maybe("gamma", "0.3", "0.5"),
            _given("theta-max", "10", "100", junk=BOUNDED_JUNK), _maybe("grid-step", "0.01")],
    "smallball": [_maybe("weights", "1,1", "1,-2.5,0"), _ENSEMBLE,
                  _maybe("epsilon", "0.1", "0.5"), _maybe("trials", "1", "1000"), _SEED],
}


@st.composite
def _fuzz_argv(draw):
    command = draw(st.sampled_from(sorted(_FUZZ_FLAGS)))
    argv = [command]
    for flag in _FUZZ_FLAGS[command]:
        argv += draw(flag)
    return argv


def _main_in_process(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as e:  # argparse rejects with exit 2
            code = e.code
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    assert "invalid _" not in err.getvalue(), err.getvalue()  # no private type names
    return code


@settings(max_examples=150, deadline=None, database=None)
@given(argv=_fuzz_argv(), with_out=st.booleans())
def test_fuzzed_flags_exit_0_1_or_2(argv, with_out):
    with tempfile.TemporaryDirectory() as out_dir:
        if with_out:
            argv = argv + [f"--out={Path(out_dir) / 'data.out'}"]
        if _main_in_process(argv) == 2:
            assert list(Path(out_dir).iterdir()) == []


_RECORDED_RUNS = [
    ["tail", "--ensemble=gaussian", "--n=3", "--n=5", "--k=0.5", "--k=2", "--trials=20",
     "--workers=2"],
    ["witness", "--ensemble=rademacher", "--n=4", "--trials=5", "--column=2"],
    ["lcd", "--vector=-0.3,1.7", "--theta-max=40"],
    ["lcd", "--subspace-dim=2", "--n=5", "--samples=2", "--theta-max=30"],
    ["smallball", "--weights=1,-2.5", "--ensemble=uniform", "--epsilon=0.3", "--trials=500"],
]
# parameters whose default would mean more work than a fuzz run should do
_KEPT_PARAMS = ("theta_max", "samples")


@settings(max_examples=100, deadline=None, database=None)
@given(run=st.sampled_from(_RECORDED_RUNS), data=st.data())
def test_fuzzed_replay_exits_0_1_or_2(run, data):
    with tempfile.TemporaryDirectory() as manifest_dir, \
            tempfile.TemporaryDirectory() as out_dir:
        out = Path(out_dir) / "data.out"
        assert _main_in_process(run + [f"--out={out}"]) == 0
        manifest = json.loads(Path(f"{out}.manifest.json").read_text())
        for path in Path(out_dir).iterdir():
            path.unlink()
        params = manifest["parameters"]
        keys = sorted(set(params) - {"out"})  # a junk --out could write anywhere
        for key in data.draw(st.lists(st.sampled_from(keys), unique=True, max_size=3)):
            if key in _KEPT_PARAMS:
                params[key] = data.draw(st.sampled_from(BOUNDED_JUNK))
            elif data.draw(st.booleans()):
                params[key] = data.draw(st.sampled_from(JUNK + ([5],)))
            else:
                del params[key]
        replayed = Path(manifest_dir) / "replayed.manifest.json"
        replayed.write_text(json.dumps(manifest))
        if _main_in_process(["--replay", str(replayed)]) == 2:
            assert list(Path(out_dir).iterdir()) == []


# ---- docs ----------------------------------------------------------------------

def test_readme_cli_examples_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    examples = [shlex.split(line)[1:] for line in lines if line.startswith("lsvkit ")]
    assert len(examples) == 6
    for argv in examples:
        try:
            cli.build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README example does not parse: lsvkit {shlex.join(argv)}")
