import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from fkbench.cli import main
from fkbench.zoo import build


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_zoo_list(capsys):
    code, out, _ = run(capsys, "zoo", "list")
    assert code == 0
    for name in ("binary_hmm", "ring_walk", "path_genealogy"):
        assert name in out


def test_zoo_export_then_oracle(tmp_path, capsys):
    model_file = tmp_path / "m.json"
    fn_file = tmp_path / "f.json"
    code, _, _ = run(
        capsys, "zoo", "export", "--name", "plain_markov",
        "--out", str(model_file), "--function-out", str(fn_file),
    )
    assert code == 0
    report_file = tmp_path / "report.json"
    code, _, _ = run(
        capsys, "oracle", "--model", str(model_file), "--function", str(fn_file),
        "--out", str(report_file),
    )
    assert code == 0
    report = json.loads(report_file.read_text())
    assert report["tool"] == "fkbench"
    assert report["config"]["seed"] == 7

    # unit potentials: the flow is the bare chain law
    entry = build("plain_markov")
    law = entry.model.eta0.copy()
    for n, kernel in enumerate(entry.model.kernels, start=1):
        law = law @ kernel
        assert_allclose(report["etas"][n], law, atol=1e-12)
    assert report["sigma_sq"] > 0.0
    assert report["burkholder_d"]["2"] == 1.0
    assert report["burkholder_d"]["4"] == 3.0


def test_oracle_on_zoo_entry(capsys):
    code, out, _ = run(capsys, "oracle", "--zoo", "binary_hmm", "--horizon", "5")
    assert code == 0
    report = json.loads(out, parse_constant=_reject_nonstandard)
    assert report["sigma_sq"] > 0.0
    assert len(report["etas"]) == 6
    # unfilled table entries are nulls, never NaN tokens
    assert report["betas"][1][0] is None
    assert report["betas"][0][5] is not None


def _reject_nonstandard(token):
    raise AssertionError(f"nonstandard JSON constant {token!r} in report")


def test_horizon_zero_export_roundtrip(tmp_path, capsys):
    model_file = tmp_path / "h0.json"
    fn_file = tmp_path / "h0f.json"
    code, _, _ = run(
        capsys, "zoo", "export", "--name", "iid_reduction",
        "--out", str(model_file), "--function-out", str(fn_file),
    )
    assert code == 0
    code, out, _ = run(
        capsys, "oracle", "--model", str(model_file), "--function", str(fn_file)
    )
    assert code == 0
    report = json.loads(out)
    assert report["horizon"] == 0
    assert report["sigma_sq"] > 0.0


def test_missing_model_file(capsys):
    code, _, err = run(capsys, "oracle", "--model", "/nope/missing.json")
    assert code == 2
    assert "missing.json" in err


def test_no_inputs_is_config_error(capsys):
    code, _, err = run(capsys, "oracle")
    assert code == 2
    assert "config error" in err


def test_simulate_deterministic_csv(tmp_path, capsys):
    out = tmp_path / "a.csv"
    blobs = []
    for _ in range(2):
        code, _, _ = run(
            capsys, "simulate", "--zoo", "binary_hmm", "--N", "50",
            "--reps", "3", "--seed", "7", "--out", str(out),
        )
        assert code == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]
    header = [l for l in out.read_text().splitlines() if not l.startswith("#")][0]
    assert header.split(",") == ["replicate_id", "N", "n", "W", "L_terminal", "C_N"]


def test_simulate_doob_column(tmp_path, capsys):
    out = tmp_path / "doob.csv"
    code, _, _ = run(
        capsys, "simulate", "--zoo", "binary_hmm", "--N", "200", "--reps", "5",
        "--seed", "3", "--check-doob", "--out", str(out),
    )
    assert code == 0
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert rows[0].split(",")[-1] == "doob_residual"
    residuals = [float(r.split(",")[-1]) for r in rows[1:]]
    assert len(residuals) == 5
    assert max(residuals) <= 1e-10


def test_simulate_record_steps_columns(tmp_path, capsys):
    out = tmp_path / "steps.csv"
    code, _, _ = run(
        capsys, "simulate", "--zoo", "plain_markov", "--N", "100", "--reps", "2",
        "--seed", "9", "--record-steps", "--out", str(out),
    )
    assert code == 0
    rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    header = rows[0].split(",")
    assert "W_0" in header and "W_5" in header and "C_5" in header
    # terminal per-step entries agree with the summary columns
    for line in rows[1:]:
        record = dict(zip(header, line.split(",")))
        assert float(record["W_5"]) == float(record["W"])
        assert float(record["C_5"]) == float(record["C_N"])


def test_simulate_single_particle_smoke(capsys):
    code, out, _ = run(
        capsys, "simulate", "--zoo", "plain_markov", "--N", "1", "--reps", "1",
    )
    assert code == 0
    assert "replicate_id" in out


def test_verify_clt_degenerate_function(tmp_path, capsys):
    fn_file = tmp_path / "const.json"
    fn_file.write_text(json.dumps({"values": [[1.0, 1.0]] * 6}))
    code, _, err = run(
        capsys, "verify", "clt", "--zoo", "binary_hmm",
        "--function", str(fn_file), "--reps", "50", "--N-grid", "50,100",
    )
    assert code == 1
    assert "DegenerateFunction" in err


def test_verify_moments_small_run(tmp_path, capsys):
    report_file = tmp_path / "moments.json"
    code, _, _ = run(
        capsys, "verify", "moments", "--zoo", "binary_hmm", "--N", "100",
        "--reps", "300", "--p-max", "3", "--seed", "5",
        "--out", str(report_file),
    )
    assert code == 0
    report = json.loads(report_file.read_text())
    assert report["passed"] is True
    assert report["orders"] == [1, 2, 3]


def test_verify_stein_small_run(capsys):
    code, out, _ = run(
        capsys, "verify", "stein", "--zoo", "binary_hmm", "--N", "100",
        "--reps", "400", "--seed", "5",
    )
    assert code == 0
    report = json.loads(out)
    assert report["lhs"] <= report["rhs"] + report["allowance"]


def test_verify_concentration_overflowing_bounds_are_null(capsys):
    code, out, _ = run(
        capsys, "verify", "concentration", "--zoo", "binary_hmm", "--N", "1000",
        "--reps", "200",
    )
    assert code == 0
    report = json.loads(out, parse_constant=_reject_nonstandard)
    assert None in report["bounds"]
    assert all(np.isfinite(report["log_bounds"]))


def test_verify_concentration_small_run(capsys):
    code, out, _ = run(
        capsys, "verify", "concentration", "--zoo", "ring_walk", "--N", "100",
        "--reps", "400", "--seed", "5", "--eps-grid", "0.0,0.05,0.2",
    )
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True


def test_function_shorter_than_horizon(tmp_path, capsys):
    fn_file = tmp_path / "short.json"
    fn_file.write_text(json.dumps({"values": [[0.0, 1.0]]}))
    code, _, err = run(
        capsys, "oracle", "--zoo", "binary_hmm", "--function", str(fn_file)
    )
    assert code == 2
    assert "horizon" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--zoo", "binary_hmm", "--N", "0"],
        ["simulate", "--zoo", "binary_hmm", "--reps", "0"],
        ["verify", "clt", "--zoo", "binary_hmm", "--reps", "0"],
        ["verify", "moments", "--zoo", "binary_hmm", "--p-max", "9"],
        ["oracle", "--zoo", "binary_hmm", "--zoo-params", "{bad"],
        ["oracle", "--zoo", "binary_hmm", "--zoo-params", '{"nope": 1}'],
        ["verify", "concentration", "--zoo", "binary_hmm", "--eps-grid", "5"],
        ["zoo", "export", "--name", "binary_hmm", "--zoo-params", "{bad",
         "--out", "m.json"],
        ["verify", "clt", "--zoo", "binary_hmm", "--N-grid", ","],
        ["verify", "clt", "--zoo", "binary_hmm", "--N-grid", "100"],
        ["verify", "clt", "--zoo", "binary_hmm", "--N-grid", "100,100"],
        ["verify", "concentration", "--zoo", "binary_hmm", "--eps-grid", ","],
        ["verify", "moments", "--zoo", "binary_hmm", "--p-max", "0"],
        ["verify", "concentration", "--zoo", "binary_hmm", "--N", "0"],
    ],
)
def test_bad_input_is_config_error(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "config error" in err
    assert "Traceback" not in err
