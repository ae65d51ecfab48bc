"""End-to-end tests of the job-file CLI: artifacts, determinism, exit codes."""
from __future__ import annotations

import csv
import json
import math

import pytest

from slrestore import cli
from slrestore.errors import OdeStepFailure
from slrestore.measure import measure_from_json

PAPER_MEASURE = {
    "pieces": [{"lo": 0.0, "hi": 1.0, "kind": "power_law",
                "coeff": 1.0 / math.pi, "exponent": -0.5}],
    "tail": {"T": 1.0, "coeff": 1.0 / math.pi, "exponent": 0.5},
    "infinite_mass": True,
}
ZERO_POTENTIAL = {"a": 0.0, "q": {"kind": "zero"}}


def _write_job(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _run(command, job_path, out_path):
    return cli.main([command, "--job", job_path, "--out", str(out_path), "--quiet"])


# -- happy paths --------------------------------------------------------------

def test_classify_job(tmp_path):
    job = _write_job(tmp_path, "job.json",
                     {"command": "classify", "measure": PAPER_MEASURE, "gamma": 0.0})
    out = tmp_path / "classify.json"
    assert _run("classify", job, out) == 0
    payload = json.loads(out.read_text())
    assert payload["class"] == "SL0K" and payload["stieltjes"] is True
    assert payload["b"] == "inf"


def test_moments_job(tmp_path):
    job = _write_job(tmp_path, "job.json", {"measure": PAPER_MEASURE})
    out = tmp_path / "moments.json"
    assert _run("moments", job, out) == 0
    payload = json.loads(out.read_text())
    assert abs(payload["i2"] - 1.0 / math.sqrt(2.0)) < 1e-8
    assert payload["b"] == "inf"


def test_restore_job_paper_example(tmp_path):
    job = _write_job(tmp_path, "job.json",
                     {"measure": PAPER_MEASURE, "gamma": 0.0,
                      "potential": ZERO_POTENTIAL})
    out = tmp_path / "restore.json"
    assert _run("restore", job, out) == 0
    payload = json.loads(out.read_text())
    assert abs(payload["h_re"]) < 1e-4
    assert abs(payload["h_im"] - 1.0) < 1e-4
    assert payload["mu"] == "inf"
    assert payload["extremal"] is True and payload["accretive"] is True
    assert payload["class"] == "SL0K"


def test_sweep_job_circle(tmp_path):
    job = _write_job(tmp_path, "job.json",
                     {"measure": PAPER_MEASURE,
                      "gamma_range": [0.1, 10.0, 100],
                      "operator": {"theta": 0.0, "m": 0.0,
                                   "c": 1.0 / math.sqrt(2.0)}})
    out = tmp_path / "sweep.csv"
    assert _run("sweep", job, out) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 100
    assert list(rows[0]) == ["gamma", "h_re", "h_im", "mu", "alpha_rad",
                             "accretive", "circle_residual", "eta_residual"]
    for row in rows:
        x, y = float(row["h_re"]), float(row["h_im"])
        assert abs(x * x + (y - 0.5) ** 2 - 0.25) < 1e-10
        assert row["accretive"] == "1"


def test_weyl_job(tmp_path):
    job = _write_job(tmp_path, "job.json",
                     {"potential": ZERO_POTENTIAL,
                      "lambdas": [[-4.0, 0.0], [0.0, 1.0]]})
    out = tmp_path / "weyl.csv"
    assert _run("weyl", job, out) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["lambda_re", "lambda_im", "m_re", "m_im", "err_est"]
    assert abs(float(rows[0]["m_re"]) - 2.0) < 1e-6
    assert abs(float(rows[1]["m_re"]) - math.cos(math.pi / 4)) < 1e-6


def test_verify_job_passes(tmp_path):
    job = _write_job(tmp_path, "job.json",
                     {"measure": PAPER_MEASURE, "gamma": 0.0,
                      "potential": ZERO_POTENTIAL})
    out = tmp_path / "verify.json"
    assert _run("verify", job, out) == 0
    payload = json.loads(out.read_text())
    assert payload["pass"] is True and payload["max_residual"] < 1e-6
    assert len(payload["samples"]) == 20


# -- determinism & schema -----------------------------------------------------

def test_byte_identical_reruns(tmp_path):
    job = _write_job(tmp_path, "job.json",
                     {"measure": PAPER_MEASURE,
                      "gamma_range": [0.25, 4.0, 40],
                      "operator": {"theta": 0.0, "m": 0.0,
                                   "c": 1.0 / math.sqrt(2.0)}})
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert _run("sweep", job, out1) == 0
    assert _run("sweep", job, out2) == 0
    assert out1.read_bytes() == out2.read_bytes()

    mjob = _write_job(tmp_path, "mjob.json", {"measure": PAPER_MEASURE})
    m1, m2 = tmp_path / "m1.json", tmp_path / "m2.json"
    assert _run("moments", mjob, m1) == 0
    assert _run("moments", mjob, m2) == 0
    assert m1.read_bytes() == m2.read_bytes()


def test_measure_schema_round_trips_through_own_reader():
    sigma = measure_from_json(PAPER_MEASURE)
    assert sigma.tail.exponent == 0.5 and sigma.declared_infinite_mass


# -- exit codes ---------------------------------------------------------------

def test_malformed_json_exit_2_no_output(tmp_path):
    job = tmp_path / "bad.json"
    job.write_text("{not json")
    out = tmp_path / "out.json"
    assert _run("classify", str(job), out) == 2
    assert not out.exists()


@pytest.mark.parametrize("text", [
    b'{"gamma": 1' + b"0" * 5000 + b"}",  # int beyond the 4300-digit str limit
    b'{"gamma": "\xff"}',  # not UTF-8
], ids=["int-5001-digits", "not-utf8"])
def test_unreadable_job_json_exit_2(tmp_path, capsys, text):
    job = tmp_path / "bad.json"
    job.write_bytes(text)
    out = tmp_path / "out.json"
    assert _run("classify", str(job), out) == 2
    assert not out.exists()
    assert "malformed job JSON" in capsys.readouterr().err


def test_command_mismatch_exit_2(tmp_path):
    job = _write_job(tmp_path, "job.json",
                     {"command": "moments", "measure": PAPER_MEASURE, "gamma": 0.0})
    assert _run("classify", job, tmp_path / "out.json") == 2


def test_gamma_xor_gamma_range(tmp_path):
    job = _write_job(tmp_path, "job.json",
                     {"measure": PAPER_MEASURE, "gamma": 0.0,
                      "gamma_range": [0.0, 1.0, 5]})
    assert _run("classify", job, tmp_path / "out.json") == 2
    job2 = _write_job(tmp_path, "job2.json", {"measure": PAPER_MEASURE})
    assert _run("classify", job2, tmp_path / "out2.json") == 2


def test_missing_output_path_exit_2(tmp_path):
    job = _write_job(tmp_path, "job.json",
                     {"measure": PAPER_MEASURE, "gamma": 0.0})
    assert cli.main(["classify", "--job", job, "--quiet"]) == 2


def test_numerical_failure_exit_3(tmp_path, monkeypatch):
    def explode(*args, **kwargs):
        raise OdeStepFailure("step size underflow")

    monkeypatch.setattr(cli, "run_restore", explode)
    job = _write_job(tmp_path, "job.json",
                     {"measure": PAPER_MEASURE, "gamma": 0.0,
                      "potential": ZERO_POTENTIAL})
    assert _run("restore", job, tmp_path / "out.json") == 3


def test_verification_failure_exit_4(tmp_path):
    # wrong m(-0) in the operator data drives the forward model off V
    job = _write_job(tmp_path, "job.json",
                     {"measure": PAPER_MEASURE, "gamma": 0.0,
                      "potential": ZERO_POTENTIAL,
                      "operator": {"m": 0.5, "xi": 1.0}})
    out = tmp_path / "verify.json"
    assert _run("verify", job, out) == 4
    payload = json.loads(out.read_text())  # report is still written
    assert payload["pass"] is False and payload["max_residual"] > 1e-2


SWEEP_OPERATOR = {"theta": 0.0, "m": 0.0, "c": 1.0 / math.sqrt(2.0)}


@pytest.mark.parametrize("command, job, message", [
    ("classify", {"measure": PAPER_MEASURE, "gamma": math.nan}, "gamma: non-finite"),
    ("classify", {"measure": PAPER_MEASURE, "gamma": "abc"}, "gamma:"),
    ("classify", {"measure": {"pieces": [{"lo": 0.0, "coeff": 1.0, "exponent": -0.5}]},
                  "gamma": 0.0}, "measure: missing key 'hi'"),
    ("sweep", {"measure": PAPER_MEASURE, "gamma_range": [0.0, 1.0],
               "operator": SWEEP_OPERATOR}, "gamma_range:"),
    ("sweep", {"measure": PAPER_MEASURE, "gamma_range": [0.0, 1.0, -3],
               "operator": SWEEP_OPERATOR}, "gamma_range:"),
    ("restore", {"measure": PAPER_MEASURE, "gamma": 0.0, "operator": {"m": "x"}},
     "operator:"),
    # Im h = xi/(1 + gamma^2) underflows to 0
    ("restore", {"measure": PAPER_MEASURE, "gamma": 1e308, "operator": SWEEP_OPERATOR},
     "gamma=1e+308"),
    ("classify", {"measure": PAPER_MEASURE, "gamma": 0.0, "output": "b.json"}, "output:"),
    ("classify", {"measure": PAPER_MEASURE, "gamma": 0.0,
                  "output": {"path": "no_such_dir/c.json"}}, "output:"),
    ("classify", {"measure": PAPER_MEASURE, "gamma": True}, "gamma: expected a number"),
    ("classify", {"measure": PAPER_MEASURE, "gamma": "nan"}, "gamma: expected a number"),
    ("classify", {"measure": {"pieces": [{"lo": 0.0, "hi": 1.0, "coeff": True,
                                          "exponent": -0.5}]}, "gamma": 0.0},
     "measure: expected a number"),
    ("restore", {"measure": PAPER_MEASURE, "gamma": 0.0, "operator": {"m": False}},
     "operator: expected a number"),
    ("sweep", {"measure": PAPER_MEASURE, "gamma_range": [0.0, 1.0, 2.7],
               "operator": SWEEP_OPERATOR}, "gamma_range:"),
    ("sweep", {"measure": PAPER_MEASURE, "gamma_range": [0.0, 1.0, True],
               "operator": SWEEP_OPERATOR}, "gamma_range:"),
    ("sweep", {"measure": PAPER_MEASURE, "gamma_range": [0.0, 1.0, 0],
               "operator": SWEEP_OPERATOR}, "gamma_range:"),
    # rejected before np.linspace allocates the rows
    ("sweep", {"measure": PAPER_MEASURE, "gamma_range": [0.0, 1.0, cli.MAX_GAMMA_ROWS + 1],
               "operator": SWEEP_OPERATOR}, "gamma_range:"),
    ("sweep", {"measure": PAPER_MEASURE, "gamma_range": [False, 1.0, 5],
               "operator": SWEEP_OPERATOR}, "gamma_range: expected a number"),
    ("classify", {"measure": PAPER_MEASURE, "gamma": 10**400},
     "gamma: int too large to convert to float"),
    ("classify", {"measure": {"pieces": [{"kind": "table", "knots": [], "values": []}]},
                  "gamma": 0.0}, "piece 0: knots/values size mismatch"),
], ids=["gamma-nan", "gamma-str", "piece-no-hi", "range-2", "range-neg-n",
        "operator-m-str", "gamma-huge", "output-str", "output-no-dir", "gamma-bool",
        "gamma-nan-str", "measure-bool", "operator-bool", "range-frac-n",
        "range-bool-n", "range-zero-n", "range-over-limit", "range-bool-lo",
        "gamma-int-overflow", "table-no-knots"])
def test_bad_job_field_exit_2_names_field(tmp_path, monkeypatch, capsys, command, job,
                                          message):
    monkeypatch.chdir(tmp_path)  # a relative output path lands here
    argv = [command, "--job", _write_job(tmp_path, "job.json", job), "--quiet"]
    if "output" not in job:
        argv += ["--out", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    assert [p.name for p in tmp_path.iterdir()] == ["job.json"]  # no artifact
    assert message in capsys.readouterr().err
