import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import fkbench
import fkbench.cli
from fkbench.cli import build_parser, main
from fkbench.model import write_json
from fkbench.zoo import build

from .test_output_ledger import LEDGER


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
    assert "seed" not in report["config"]  # the oracle draws nothing

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


@pytest.mark.parametrize(
    "name, params", [("ring_walk", '{"eps_scale": 1.0}'), ("path_genealogy", '{"horizon": 8}')]
)
def test_simulate_row_does_not_depend_on_reps(name, params, capsys):
    # W, L, C and every residual and per-step column of a replicate are its
    # own: the same bytes whatever batch it was run and evaluated in
    rows = {}
    for reps in (1, 2, 40):
        code, out, _ = run(
            capsys, "simulate", "--zoo", name, "--zoo-params", params, "--N", "500",
            "--reps", str(reps), "--seed", "7", "--check-doob", "--record-steps",
        )
        assert code == 0
        rows[reps] = [l for l in out.splitlines() if not l.startswith("#")][1:]
        assert len(rows[reps]) == reps
    assert rows[40][:2] == rows[2]
    assert rows[2][:1] == rows[1]


def leave_early(argv, lines):
    """Run fkbench argv, close its stdout after `lines` lines; return the first line."""
    env = {**os.environ, "PYTHONPATH": str(Path(fkbench.__file__).parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "fkbench.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    first = proc.stdout.readline()
    for _ in range(lines - 1):
        proc.stdout.readline()
    proc.stdout.close()
    assert proc.wait(timeout=120) == 1
    assert b"Traceback" not in proc.stderr.read()
    proc.stderr.close()
    return first


def test_closed_pipe_exits_quietly():
    # `fkbench simulate ... | head -3`: the reader leaves long before the end
    argv = ["simulate", "--zoo", "binary_hmm", "--N", "500", "--reps", "2000"]
    assert leave_early(argv, 1).startswith(b"# tool = fkbench")


def test_closed_pipe_exits_quietly_while_the_oracle_writes():
    # `fkbench oracle ... | head -5`: the 3.7 MB report is still being written
    argv = ["oracle", "--zoo", "ring_walk", "--zoo-params", '{"d": 16, "horizon": 300}']
    assert leave_early(argv, 5) == b"{\n"


def test_oracle_report_is_written_in_constant_memory(monkeypatch):
    # the d = 16, H = 300 ring's 3.7 MB report: 181,202 table entries
    peaks = []

    def traced(out, report):
        with open(os.devnull, "w") as sink:
            tracemalloc.start()
            try:
                write_json(sink, report)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()

    monkeypatch.setattr(fkbench.cli, "write_json", traced)
    assert main(["oracle", "--zoo", "ring_walk", "--zoo-params", '{"d": 16, "horizon": 300}']) == 0
    assert len(peaks) == 1 and peaks[0] < 2**20


def test_commands_load_no_scipy():
    # only lab.smoothing_bound needs scipy, and no command calls it: no
    # command of the output ledger (each verify, oracle, simulate) loads any
    argvs = [argv for argv, _ in LEDGER.values()]
    code = (
        "import contextlib, io, sys\n"
        "import fkbench.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert [fkbench.cli.main(argv) for argv in {argvs!r}] == {[0] * len(argvs)}\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(fkbench.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout == "[]\n"


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
        "--function", str(fn_file), "--reps", "50",
    )
    assert code == 1
    assert "DegenerateFunction" in err


@pytest.mark.parametrize("which", ["concentration", "moments"])
def test_verify_constant_function_is_degenerate(which, tmp_path, capsys):
    # every empirical MGF would be 1 and every moment 0: a vacuous pass
    fn_file = tmp_path / "ones.json"
    fn_file.write_text(json.dumps({"values": [[1.0, 1.0]] * 6}))
    code, out, err = run(
        capsys, "verify", which, "--zoo", "binary_hmm", "--function", str(fn_file),
        "--N", "100", "--reps", "50",
    )
    assert code == 1
    assert out == ""
    assert "DegenerateFunction" in err


def test_verify_moments_small_run(tmp_path, capsys):
    report_file = tmp_path / "moments.json"
    code, _, _ = run(
        capsys, "verify", "moments", "--zoo", "binary_hmm", "--N", "100",
        "--reps", "300", "--seed", "5",
        "--out", str(report_file),
    )
    assert code == 0
    report = json.loads(report_file.read_text())
    assert report["passed"] is True
    assert report["orders"] == [1, 2, 3, 4, 5, 6]


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
        "--reps", "400", "--seed", "5",
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
        ["oracle", "--zoo", "binary_hmm", "--zoo-params", "{bad"],
        ["oracle", "--zoo", "binary_hmm", "--zoo-params", '{"nope": 1}'],
        ["zoo", "export", "--name", "binary_hmm", "--zoo-params", "{bad",
         "--out", "m.json"],
        ["verify", "concentration", "--zoo", "binary_hmm", "--N", "0"],
        ["oracle", "--zoo", "ring_walk", "--zoo-params", '{"d": -3}'],
        ["oracle", "--zoo", "ring_walk", "--zoo-params", '{"d": 0}'],
        ["oracle", "--zoo", "ring_walk", "--zoo-params", '{"horizon": -1}'],
        ["oracle", "--zoo", "binary_hmm", "--zoo-params", '{"horizon": -1}'],
        ["oracle", "--zoo", "path_genealogy", "--zoo-params", '{"horizon": -1}'],
        ["oracle", "--zoo", "plain_markov", "--zoo-params", '{"horizon": -1}'],
        ["oracle", "--zoo", "ring_walk", "--zoo-params", '{"holding": [1]}'],
        ["oracle", "--zoo", "ring_walk", "--zoo-params", '{"ratio": 0}'],
        ["oracle", "--zoo", "binary_hmm", "--zoo-params", '{"obs_seed": 1.5}'],
        ["oracle", "--zoo", "binary_hmm", "--function", "three_states.json"],
        ["verify", "stein", "--zoo", "binary_hmm", "--function", "three_states.json"],
        ["oracle", "--zoo", "binary_hmm", "--out", "missing/report.json"],
        ["simulate", "--zoo", "binary_hmm", "--out", "missing/runs.csv"],
        ["verify", "stein", "--zoo", "binary_hmm", "--N", "50", "--reps", "20",
         "--out", "missing/report.json"],
        ["zoo", "export", "--name", "binary_hmm", "--out", "missing/m.json"],
    ],
)
def test_bad_input_is_config_error(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    # the right number of times for binary_hmm, but vectors over three states
    (tmp_path / "three_states.json").write_text(json.dumps({"values": [[0.0, 0.5, 1.0]] * 6}))
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert "config error" in err
    assert "Traceback" not in err


def test_oracle_takes_no_seed(capsys):
    # the oracle draws nothing: --seed is a usage error, exit 2
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--zoo", "binary_hmm", "--seed", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def _documented_commands():
    """Every `fkbench ...` line of the command blocks in README.md and PAPER.md."""
    root = Path(__file__).resolve().parent.parent
    for doc in ("README.md", "PAPER.md"):
        for block in re.findall(r"```bash\n(.*?)```", (root / doc).read_text(), re.S):
            for line in block.replace("\\\n", " ").splitlines():
                argv = shlex.split(line, comments=True)
                if argv[:1] == ["fkbench"]:
                    yield pytest.param(argv[1:], id=f"{doc}: {' '.join(argv[1:3])}")


@pytest.mark.parametrize("argv", list(_documented_commands()))
def test_documented_command_parses(argv):
    # parses only: a documented flag that the parser no longer has exits 2
    build_parser().parse_args(argv)
