import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pursuitlab import StoppingRule, exact_ric, make_instance, subspace_pursuit
from pursuitlab.cli import main
from pursuitlab.fileio import dump_json, read_matrix, read_vector, recovery_payload, ric_payload

DATA = Path(__file__).parent / "data"


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "pursuitlab", *args],
        capture_output=True, text=True, cwd=cwd,
    )


@pytest.fixture()
def fixture_files(tmp_path):
    out = run_cli(
        "gen", "--kind", "exact-sparse", "--m", "16", "--N", "32", "-s", "3",
        "--sigma", "0.0", "--seed", "11", "--out", str(tmp_path / "fix"),
    )
    assert out.returncode == 0, out.stderr
    return tmp_path


def test_gen_is_deterministic(tmp_path):
    for sub in ("a", "b"):
        out = run_cli(
            "gen", "--m", "10", "--N", "20", "-s", "2", "--seed", "3",
            "--out", str(tmp_path / sub / "fix"),
        )
        assert out.returncode == 0, out.stderr
    for name in ("fix_phi.csv", "fix_y.csv", "fix_x.csv", "fix_meta.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_gen_matches_golden_bytes(tmp_path):
    # The four files of one seeded gen call, as written by the repr-based
    # writer: a change in the float text fails here, not only between runs.
    out = run_cli(
        "gen", "--kind", "almost-sparse", "--m", "12", "--N", "24", "-s", "3",
        "--sigma", "0.01", "--seed", "2013", "--out", str(tmp_path / "gen_golden"),
    )
    assert out.returncode == 0, out.stderr
    for suffix in ("_phi.csv", "_y.csv", "_x.csv", "_meta.json"):
        name = "gen_golden" + suffix
        assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes(), name


def test_golden_files_read_back_bitwise():
    # The golden gen files parse to the arrays make_instance wrote them from.
    inst = make_instance("almost-sparse", 12, 24, 3, 0.01, 2013)
    for got, want in (
        (read_matrix(DATA / "gen_golden_phi.csv"), inst.phi),
        (read_vector(DATA / "gen_golden_y.csv"), inst.y),
        (read_vector(DATA / "gen_golden_x.csv"), inst.x),
    ):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_undecodable_file_names_path_and_line(fixture_files):
    # Byte 0xff on line 3 of the measurements: the error names the file and
    # the line, where it once printed only the codec's message.
    y_path = fixture_files / "fix_y.csv"
    lines = y_path.read_bytes().split(b"\n")
    y_path.write_bytes(b"\n".join(lines[:2] + [b"0.5\xff"] + lines[3:]))
    out = run_cli(
        "recover", "--matrix", str(fixture_files / "fix_phi.csv"),
        "--measurements", str(y_path), "-s", "3",
    )
    assert out.returncode == 1
    assert out.stderr == f"error: {y_path}: line 3: not UTF-8 text\n"


def test_gen_rejects_non_finite_sigma(tmp_path):
    # NaN once slipped through as a noiseless instance with NaN in its meta JSON.
    for sigma in ("nan", "inf"):
        out = run_cli(
            "gen", "--m", "10", "--N", "20", "-s", "2", "--sigma", sigma, "--seed", "3",
            "--out", str(tmp_path / "fix"),
        )
        assert out.returncode == 1
        assert "noise_sigma must be finite" in out.stderr
        assert not list(tmp_path.iterdir())


def test_gen_rejects_overflowing_perturbation(tmp_path):
    # sigma 1e308 overflows ||e'||: gen once wrote all four files, with
    # "Infinity" in the meta JSON, after a numpy overflow warning.
    out = run_cli(
        "gen", "--m", "8", "--N", "16", "-s", "2", "--sigma", "1e308", "--seed", "1",
        "--out", str(tmp_path / "sub" / "fix"),
    )
    assert out.returncode == 1
    assert out.stderr == "error: perturbation norm overflows at --sigma 1e+308\n"
    assert out.stdout == ""
    assert not list(tmp_path.iterdir())


def test_recover_matches_library_bit_for_bit(fixture_files):
    tmp = fixture_files
    out_path = tmp / "rec.json"
    out = run_cli(
        "recover", "--matrix", str(tmp / "fix_phi.csv"),
        "--measurements", str(tmp / "fix_y.csv"), "-s", "3",
        "--algorithm", "sp", "--truth", str(tmp / "fix_x.csv"),
        "--output", str(out_path),
    )
    assert out.returncode == 0, out.stderr

    phi = read_matrix(tmp / "fix_phi.csv")
    y = read_vector(tmp / "fix_y.csv")
    truth = read_vector(tmp / "fix_x.csv")
    result = subspace_pursuit(phi, y, 3, truth=truth)
    expected = dump_json(recovery_payload(result, trace="norms"))
    assert out_path.read_text() == expected


def test_recover_zero_measurements(fixture_files, tmp_path):
    from pursuitlab.fileio import write_vector

    tmp = fixture_files
    zeros = tmp_path / "zeros.csv"
    write_vector(zeros, np.zeros(16))
    out = run_cli(
        "recover", "--matrix", str(tmp / "fix_phi.csv"),
        "--measurements", str(zeros), "-s", "3",
    )
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["converged"] is True
    assert all(v == 0.0 for v in payload["estimate"])


def test_recover_exit_codes(fixture_files, tmp_path):
    tmp = fixture_files
    # Non-convergence: cap iterations to 1 with an unreachable threshold.
    out = run_cli(
        "recover", "--matrix", str(tmp / "fix_phi.csv"),
        "--measurements", str(tmp / "fix_y.csv"), "-s", "3",
        "--epsilon-abs", "0", "--n-max", "1",
    )
    assert out.returncode == 2
    # Malformed input names the offending line.
    bad = tmp_path / "bad.csv"
    bad.write_text("# dense 2 2\n1,2\n3,oops\n")
    out = run_cli(
        "recover", "--matrix", str(bad),
        "--measurements", str(tmp / "fix_y.csv"), "-s", "1",
    )
    assert out.returncode == 1
    assert "line 3" in out.stderr


@pytest.mark.parametrize("flag,value", [
    ("--epsilon-abs", "nan"),  # once ran all 100 iterations
    ("--epsilon-abs", "inf"),  # once "converged" after one iteration, exit 0
    ("--epsilon", "nan"),
    ("--e-prime-norm", "nan"),
    ("--e-prime-norm", "inf"),
])
def test_recover_rejects_non_finite_stopping_rule(fixture_files, flag, value):
    tmp = fixture_files
    out_path = tmp / "rec.json"
    out = run_cli(
        "recover", "--matrix", str(tmp / "fix_phi.csv"),
        "--measurements", str(tmp / "fix_y.csv"), "-s", "3",
        flag, value, "--output", str(out_path),
    )
    assert out.returncode == 1
    assert "must be finite and >= 0" in out.stderr
    assert out.stdout == "" and not out_path.exists()


def test_ric_matches_golden_fixture(tmp_path):
    out_path = tmp_path / "ric.json"
    out = run_cli(
        "ric", "--matrix", str(DATA / "ric_fixture_phi.csv"), "-s", "2",
        "--output", str(out_path),
    )
    assert out.returncode == 0, out.stderr
    got = json.loads(out_path.read_text())
    golden = json.loads((DATA / "ric_fixture_golden.json").read_text())
    assert got["mode"] == "exact"
    assert got["witness"] == golden["witness"]
    assert got["supports_examined"] == golden["supports_examined"]
    assert abs(got["value"] - golden["value"]) <= 1e-10


def test_ric_orthonormal_and_duplicate(tmp_path):
    from pursuitlab.fileio import write_matrix

    write_matrix(tmp_path / "eye.csv", np.eye(6)[:, :4])
    out = run_cli("ric", "--matrix", str(tmp_path / "eye.csv"), "-s", "3")
    assert out.returncode == 0
    assert json.loads(out.stdout)["value"] == 0.0

    dup = np.zeros((4, 2))
    dup[0, 0] = dup[0, 1] = 1.0
    write_matrix(tmp_path / "dup.csv", dup)
    out = run_cli("ric", "--matrix", str(tmp_path / "dup.csv"), "-s", "2")
    payload = json.loads(out.stdout)
    assert payload["value"] == pytest.approx(1.0, abs=1e-14)
    assert payload["rip_holds"] is False


def test_ric_budget_exit(tmp_path):
    from pursuitlab.fileio import write_matrix

    rng = np.random.Generator(np.random.PCG64(0))
    write_matrix(tmp_path / "big.csv", rng.normal(size=(10, 30)))
    out = run_cli(
        "ric", "--matrix", str(tmp_path / "big.csv"), "-s", "5", "--budget", "100"
    )
    assert out.returncode == 1
    assert "sampled_ric_lower_bound" in out.stderr


def test_bounds_outputs():
    out = run_cli("bounds", "--family", "sp", "--delta", "0.3063")
    assert out.returncode == 0
    assert "SP" in out.stdout and "13.130" in out.stdout

    out = run_cli("bounds", "--compare", "--delta", "0.3063", "--format", "csv")
    lines = out.stdout.strip().splitlines()
    assert lines[0].startswith("family,delta,rho,tau")
    assert len(lines) == 5  # header + four SP-style families

    out = run_cli("bounds", "--family", "cosamp", "--delta", "0", "--format", "json")
    report = json.loads(out.stdout)["reports"][0]
    assert report["rho"] == 0.0 and report["family"] == "CoSaMP"

    out = run_cli("bounds", "--solve", "rho=0.5", "--family", "sp-dm")
    payload = json.loads(out.stdout)
    assert payload["delta"] == pytest.approx(0.1397, abs=1e-4)

    out = run_cli("bounds", "--family", "sp", "--delta", "2.0")
    assert out.returncode == 1

    out = run_cli("bounds", "--family", "sp")
    assert out.returncode == 1


def test_bound_outputs_match_golden_bytes(tmp_path):
    # Recorded before `bounds` and `bounds-table` shared one row builder and
    # one CSV writer; both are plain float arithmetic, so the bytes do not
    # depend on the platform.
    compare = ("bounds", "--compare", "--delta", "0.3063")
    cases = {
        "bounds_compare_0.3063.txt": compare,
        "bounds_compare_0.3063.csv": (*compare, "--format", "csv"),
        "bounds_compare_0.3063.json": (*compare, "--format", "json"),
        # An invalid row: rho > 1, so tau is an empty field.
        "bounds_cosamp_0.55.csv": ("bounds", "--family", "cosamp", "--delta", "0.55", "--format", "csv"),
    }
    for name, argv in cases.items():
        out = run_cli(*argv, "--output", str(tmp_path / name))
        assert out.returncode == 0, out.stderr
        assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes(), name

    cfg = {
        "experiment": "bounds-table",
        "families": ["SP", "SP-tail-metric", "CoSaMP", "SP-LBJ-prior", "SP-DM-prior"],
        "deltas": [0, 0.2, 0.3063, 0.45, 0.9],
        "output_path": str(tmp_path / "bounds_table.csv"),
    }
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    out = run_cli("experiment", "--config", str(tmp_path / "cfg.json"))
    assert out.returncode == 0, out.stderr
    assert (tmp_path / "bounds_table.csv").read_bytes() == (DATA / "bounds_table.csv").read_bytes()


def test_experiment_cli_round_trip(tmp_path, capsys):
    cfg = {
        "experiment": "phase-transition",
        "algorithms": ["SP"],
        "grid": [{"m": 12, "N": 24, "s": 2, "noise_sigma": 0.0}],
        "trials_per_cell": 3,
        "master_seed": 21,
        "output_path": str(tmp_path / "res.csv"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = run_cli("experiment", "--config", str(cfg_path), "--per-trial")
    assert out.returncode == 0, out.stderr
    first = (tmp_path / "res.csv").read_bytes()
    trials_first = (tmp_path / "res.trials.csv").read_bytes()
    out = run_cli("experiment", "--config", str(cfg_path), "--per-trial")
    assert out.returncode == 0
    assert (tmp_path / "res.csv").read_bytes() == first
    assert (tmp_path / "res.trials.csv").read_bytes() == trials_first

    out = run_cli("experiment", "--config", str(tmp_path / "missing.json"))
    assert out.returncode == 1

    # Configs of the wrong JSON shape exit 1 with one error line naming the
    # mistake, not with a traceback; all but the last run in process.
    bad_shapes = {
        "config must be a JSON object": [cfg],
        "'algorithms' must be a list": {**cfg, "algorithms": "SP"},
        "'grid' must be a list": {**cfg, "grid": cfg["grid"][0]},
        "each 'grid' entry must be an object": {**cfg, "grid": [1]},
        "'deltas' must be a list": {"experiment": "bounds-table", "deltas": 0.2, "families": ["sp"]},
        "'trials_per_cell' must be an integer, got [1]": {**cfg, "trials_per_cell": [1]},
        "'m' must be an integer, got None": {**cfg, "grid": [{**cfg["grid"][0], "m": None}]},
        "'per_trial' must be a boolean, got 'false'": {**cfg, "per_trial": "false"},
        "missing required field 'experiment'": {k: v for k, v in cfg.items() if k != "experiment"},
        "missing required field 'm' in a 'grid' entry": {**cfg, "grid": [{"N": 24, "s": 2}]},
        "each 'families' entry must be a string":
            {"experiment": "bounds-table", "deltas": [0.2], "families": [1]},
    }
    bad_path = tmp_path / "bad.json"
    for message, bad in bad_shapes.items():
        bad_path.write_text(json.dumps(bad))
        assert main(["experiment", "--config", str(bad_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
    out = run_cli("experiment", "--config", str(bad_path))
    assert out.returncode == 1
    assert out.stderr == "error: each 'families' entry must be a string, got 1\n"

    # A cell whose perturbation norm overflows is skipped, without a warning.
    cfg["grid"].append({"m": 12, "N": 24, "s": 2, "noise_sigma": 1e300})
    cfg_path.write_text(json.dumps(cfg))
    out = run_cli("experiment", "--config", str(cfg_path), "--per-trial")
    assert out.returncode == 0, out.stderr
    assert out.stderr == ""
    assert "skipped 1 cell(s)" in out.stdout
    assert (tmp_path / "res.csv").read_bytes().startswith(first)
    assert (tmp_path / "res.trials.csv").read_bytes() == trials_first

    # Skipped for both algorithms, the overflowing cell still counts once.
    cfg["algorithms"] = ["SP", "CoSaMP"]
    cfg_path.write_text(json.dumps(cfg))
    out = run_cli("experiment", "--config", str(cfg_path))
    assert out.returncode == 0, out.stderr
    assert "skipped 1 cell(s)" in out.stdout


def test_stopping_flags_reach_library(fixture_files):
    tmp = fixture_files
    out = run_cli(
        "recover", "--matrix", str(tmp / "fix_phi.csv"),
        "--measurements", str(tmp / "fix_y.csv"), "-s", "3",
        "--epsilon", "0.5", "--e-prime-norm", "2.0", "--n-max", "7",
    )
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    phi = read_matrix(tmp / "fix_phi.csv")
    y = read_vector(tmp / "fix_y.csv")
    stop = StoppingRule(epsilon=0.5, e_prime_norm_hint=2.0, n_max=7)
    result = subspace_pursuit(phi, y, 3, stop=stop)
    assert payload["residual_history"] == result.residual_history
