"""End-to-end tests of the job-file CLI: artifacts, determinism, exit codes."""
from __future__ import annotations

import contextlib
import copy
import csv
import hashlib
import importlib.util
import io
import json
import math
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from slrestore import cli, weyl
from slrestore.errors import OdeStepFailure
from slrestore.measure import JsonField, measure_from_json
from slrestore.weyl import HalfLinePotential

PAPER_MEASURE = {
    "pieces": [{"lo": 0.0, "hi": 1.0, "kind": "power_law",
                "coeff": 1.0 / math.pi, "exponent": -0.5}],
    "tail": {"T": 1.0, "coeff": 1.0 / math.pi, "exponent": 0.5},
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
    # no infinite_mass field: a tail with exponent <= 1 is infinite mass
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


def test_restore_theta_left_out_at_b_inf_is_minus_m(tmp_path):
    # the same artifact as with theta given as -m
    artifacts = []
    for name, operator in (("absent", {"m": 0.3, "c": 0.7}),
                           ("given", {"theta": -0.3, "m": 0.3, "c": 0.7})):
        job = _write_job(tmp_path, f"{name}.json",
                         {"measure": PAPER_MEASURE, "gamma": 0.5, "operator": operator})
        out = tmp_path / f"{name}.out"
        assert _run("restore", job, out) == 0
        artifacts.append(out.read_bytes())
    assert artifacts[0] == artifacts[1]
    assert json.loads(artifacts[0])["theta"] == -0.3


def test_restore_re_h_near_the_float_range(tmp_path):
    # Re h = 1e160 + 4e6: gamma * (theta + m) b = 4e314 is never formed
    job = _write_job(tmp_path, "job.json",
                     {"measure": FINITE_B_MEASURE, "gamma": 1e154,
                      "operator": {"theta": 1e160, "m": 0.0}})
    out = tmp_path / "restore.json"
    assert _run("restore", job, out) == 0
    payload = json.loads(out.read_text())
    assert payload["h_re"] == 1e160 and payload["theta"] == 1e160


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


def test_sweep_residuals_past_the_float_range(tmp_path):
    # xi = i2/c ~ 7e299: the squares of both identities overflow, so the circle residual
    # reads inf (not inf - inf = nan) and eta, defined there, is no empty cell
    job = _write_job(tmp_path, "job.json",
                     {"measure": PAPER_MEASURE, "gamma_range": [1.0, 2.0, 2],
                      "operator": {"m": 0.0, "c": 1e-300}})
    out = tmp_path / "sweep.csv"
    assert _run("sweep", job, out) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["circle_residual"] for row in rows] == ["inf", "inf"]
    assert all(float(row["eta_residual"]) >= 0.0 for row in rows)
    assert not any(cell in ("", "nan") for row in rows for cell in row.values())


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
    # a constant q = 0 is q = 0: the same artifact as the zero potential
    outs = []
    for i, q in enumerate([{"kind": "zero"}, {"kind": "constant", "value": 0}]):
        job = _write_job(tmp_path, f"job{i}.json", {"measure": PAPER_MEASURE, "gamma": 0.0,
                                                    "potential": {"a": 0.0, "q": q}})
        outs.append(tmp_path / f"verify{i}.json")
        assert _run("verify", job, outs[-1]) == 0
    payload = json.loads(outs[0].read_text())
    assert payload["pass"] is True and payload["max_residual"] < 1e-6
    assert len(payload["samples"]) == 20
    assert outs[1].read_bytes() == outs[0].read_bytes()


def test_json_zero_and_constant_potentials_are_one_type():
    # both JSON spellings of q = 0 read as the library's default potential, the constant 0
    # (the zero_potential fixture, whose m_inf the weyl tests check)
    spellings = [{"kind": "zero"}, {"kind": "constant", "value": 0}]
    read = [cli._potential(JsonField({"potential": {"a": 0.0, "q": q}})) for q in spellings]
    assert read[0] == read[1] == HalfLinePotential(a=0.0)
    assert cli._potential(JsonField({"potential": {"a": 2.0, "q": {
        "kind": "constant", "value": 1.5}}})) == HalfLinePotential(a=2.0, q_inf=1.5)


def test_verify_artifact_of_the_worked_example_is_pinned(tmp_path):
    # the gamma = 0 artifact, byte for byte: a change to the quadrature or to the verify
    # path that moves any value, err or sample moves this digest
    job = _write_job(tmp_path, "job.json", {"measure": PAPER_MEASURE, "gamma": 0.0,
                                            "potential": ZERO_POTENTIAL})
    out = tmp_path / "verify.json"
    assert _run("verify", job, out) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "dd13206498f3600da457ac9cd5e6828e3dea12d1754d10a2906ddade126aa4d1"


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


def _reference_csv(header, rows) -> bytes:
    """CSV text written row by row, every cell by str."""
    return "".join(",".join(map(str, row)) + "\n" for row in [header, *rows]).encode()


def _spy(monkeypatch, name):
    """Patch cli.<name> to record each result; returns the list of results."""
    results, real = [], getattr(cli, name)
    monkeypatch.setattr(cli, name, lambda *args: results.append(real(*args)) or results[-1])
    return results


_SWEEP_HEADER = ["gamma", "h_re", "h_im", "mu", "alpha_rad", "accretive",
                 "circle_residual", "eta_residual"]
_LABELS = {"non_accretive": "none", "extremal": "extremal"}
_CHUNK = cli.CSV_CHUNK_ROWS


@pytest.mark.parametrize("gamma_range, shows", [
    ([0.0, 0.0, 1], [",inf,extremal,1,"]),  # gamma = 0: mu = inf
    ([-1.0, -0.0, _CHUNK - 1], [",none,0,", "\n-0.0,"]),  # non-accretive, then -0.0
    ([1.0, 1e4, _CHUNK], [",1,0.0,0.0\n"]),  # sectorial; eta is a number at every gamma
    ([-2.0, 2.0, _CHUNK + 1], [",none,0,", ",inf,extremal,", ",1,"]),  # all three kinds
], ids=["1-row", "chunk-1", "chunk", "chunk+1"])
def test_sweep_csv_equals_a_row_by_row_formatter(tmp_path, monkeypatch, gamma_range, shows):
    swept = _spy(monkeypatch, "sweep")
    job = _write_job(tmp_path, "job.json", {"measure": PAPER_MEASURE, "gamma_range": gamma_range,
                                            "operator": SWEEP_OPERATOR})
    out = tmp_path / "sweep.csv"
    assert _run("sweep", job, out) == 0
    s = swept[0]
    rows = [[r.gamma, r.h.real, r.h.imag, r.mu,
             _LABELS.get(r.sectoriality.kind, r.sectoriality.alpha), int(r.sectoriality.accretive),
             c, e]
            for r, c, e in zip(s, s.circle_residual.tolist(), s.eta_residual.tolist())]
    assert len(rows) == gamma_range[2]
    text = out.read_bytes()
    assert text == _reference_csv(_SWEEP_HEADER, rows)
    assert all(s.encode() in text for s in shows)


def test_weyl_csv_equals_a_row_by_row_formatter(tmp_path, monkeypatch):
    computed = _spy(monkeypatch, "weyl_m")
    # -0.0 and 0.0 share a column, and are distinct values to the formatter
    lambdas = [[-4.0, -0.0], [-4.0, 0.0], [-0.0, 1.0]] + [[x, 1.0] for x in range(_CHUNK - 2)]
    job = _write_job(tmp_path, "job.json", {"potential": ZERO_POTENTIAL, "lambdas": lambdas})
    out = tmp_path / "weyl.csv"
    assert _run("weyl", job, out) == 0
    rows = [[float(x), float(y), m.real, m.imag,
             10.0 * weyl.ODE_TOL * (1.0 + math.hypot(m.real, m.imag))]
            for (x, y), m in zip(lambdas, computed)]
    assert len(rows) == _CHUNK + 1
    text = out.read_bytes()
    assert text == _reference_csv(["lambda_re", "lambda_im", "m_re", "m_im", "err_est"], rows)
    assert b"\n-4.0,-0.0," in text and b"\n-4.0,0.0," in text and b"\n-0.0,1.0," in text


def test_a_sweep_job_peaks_at_a_few_times_its_columns(tmp_path, monkeypatch):
    # the CSV is formatted a chunk of rows at a time; formatted whole (a str per cell, the
    # text and its bytes at once) these 50 000 rows peaked at 9x the columns
    swept = _spy(monkeypatch, "sweep")
    job = {"measure": PAPER_MEASURE, "gamma_range": [-3.0, 3.0, 50_000],
           "operator": SWEEP_OPERATOR}
    warm = _write_job(tmp_path, "warm.json", dict(job, gamma_range=[-3.0, 3.0, 1]))
    assert _run("sweep", warm, tmp_path / "warm.csv") == 0  # imports, the quadrature workspace
    path = _write_job(tmp_path, "job.json", job)
    tracemalloc.start()
    try:
        assert _run("sweep", path, tmp_path / "sweep.csv") == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    columns = sum(col.nbytes for col in vars(swept[-1]).values())
    assert columns == 8 * 8 * 50_000
    assert peak <= 4 * columns


def test_a_failing_sweep_writes_no_file(tmp_path, monkeypatch):
    # the CSV is written lazily, but the sweep runs before the output file is opened
    def explode(*args):
        raise OdeStepFailure("no sweep")

    monkeypatch.setattr(cli, "sweep", explode)
    job = _write_job(tmp_path, "job.json", {"measure": PAPER_MEASURE,
                                            "gamma_range": [-2.0, 2.0, 9],
                                            "operator": SWEEP_OPERATOR})
    out = tmp_path / "sweep.csv"
    assert _run("sweep", job, out) == 3
    assert not out.exists()


def test_measure_schema_round_trips_through_own_reader():
    sigma = measure_from_json(PAPER_MEASURE)
    assert sigma.tail.exponent == 0.5 and sigma.infinite_mass


def _workload_jobs(seed):
    """The benchmark's jobs of both workloads at seed (perfbench/workloads.py)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [job for name in ("verify-paper", "quad-sweep")
            for job in workloads.make_jobs(name, seed)]


def test_an_infinite_mass_field_changes_no_byte(tmp_path):
    # the field of the old schema is not read: every benchmark job carries
    # "infinite_mass": true, and gives the same bytes without it
    jobs = _workload_jobs(1)
    assert {job["command"] for job in jobs} >= {"verify", "moments", "restore", "sweep"}
    for i, job in enumerate(jobs):
        assert job["measure"]["infinite_mass"] is True
        bare = copy.deepcopy(job)
        del bare["measure"]["infinite_mass"]
        outs = [tmp_path / f"{i}.{name}" for name in ("with", "without")]
        for name, payload, out in zip(("with", "without"), (job, bare), outs):
            assert _run(job["command"], _write_job(tmp_path, f"{i}.{name}.json", payload),
                        out) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()


# -- exit codes ---------------------------------------------------------------

@pytest.mark.parametrize("argv", [[], ["nope", "--job", "job.json"], ["verify"]],
                         ids=["no-arguments", "unknown-command", "no-job"])
def test_usage_errors_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 2
    assert capsys.readouterr().err.startswith("usage: slrestore")


def test_one_grammar_for_every_command(capsys):
    parse = cli._build_parser().parse_args
    assert vars(parse(["verify", "--job", "J", "--out", "O", "--quiet"])) == {
        "command": "verify", "job": "J", "out": "O", "quiet": True}
    for command in cli.COMMANDS:
        assert vars(parse([command, "--job", "J"])) == {
            "command": command, "job": "J", "out": None, "quiet": False}
    with pytest.raises(SystemExit) as info:
        cli.main(["--help"])
    assert info.value.code == 0
    assert "{" + ",".join(cli.COMMANDS) + "}" in capsys.readouterr().out


def test_malformed_json_exit_2_no_output(tmp_path):
    job = tmp_path / "bad.json"
    job.write_text("{not json")
    out = tmp_path / "out.json"
    assert _run("classify", str(job), out) == 2
    assert not out.exists()


@pytest.mark.parametrize("text, message", [
    (b'{"gamma": 1' + b"0" * 5000 + b"}", "malformed job JSON"),  # int past 4300 digits
    (b'{"gamma": "\xff"}', "malformed job JSON"),  # not UTF-8
    (None, "cannot read job file"),  # no such file
    (b"[1, 2]", "job file must contain a JSON object"),
], ids=["int-5001-digits", "not-utf8", "no-file", "json-array"])
def test_unreadable_job_json_exit_2(tmp_path, capsys, text, message):
    job = tmp_path / "bad.json"
    if text is not None:
        job.write_bytes(text)
    out = tmp_path / "out.json"
    assert _run("classify", str(job), out) == 2
    assert not out.exists()
    assert message in capsys.readouterr().err


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


def test_impedance_pole_exit_3(tmp_path, capsys):
    # c = 1e-300 gives xi = i2/c ~ 7e299, so Re h ~ 3e299 and the impedance's denominator
    # m + Re h - gamma Im h (|m| <= 32) is lost in the round-off of its terms: a pole
    job = _write_job(tmp_path, "job.json",
                     {"measure": PAPER_MEASURE, "gamma": 0.5, "potential": ZERO_POTENTIAL,
                      "operator": {"m": 0.0, "c": 1e-300}})
    out = tmp_path / "verify.json"
    assert _run("verify", job, out) == 3
    assert not out.exists()
    assert "PoleOfV" in capsys.readouterr().err


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
# b = 4: 2 from the piece, 2 from the tail
FINITE_B_MEASURE = {
    "pieces": [{"lo": 0.0, "hi": 1.0, "kind": "power_law", "coeff": 1.0, "exponent": 0.5}],
    "tail": {"T": 1.0, "coeff": 1.0, "exponent": 0.5}}
HUGE_OPERATOR = {"theta": 1e308, "m": 1e308}
# finite mass (a tail of exponent 2), and a power law u**1201 in u = sqrt(t) that no
# Gauss-Jacobi rule in float range integrates: classify's NotSL0 comes before any quadrature
# error (verify's resolvent pass, integrated on entry, keeps none)
STEEP_FINITE_MASS_MEASURE = {
    "pieces": [{"lo": 0.0, "hi": 1.0, "kind": "power_law", "coeff": 1.0, "exponent": 600.0}],
    "tail": {"T": 1.0, "coeff": 1.0, "exponent": 2.0}}
FINITE_MASS_NOT_SL0 = "NotSL0: finite total mass (tail exponent 2.0 > 1)"


@pytest.mark.parametrize("command, job, message", [
    ("classify", {"measure": PAPER_MEASURE, "gamma": math.nan}, "gamma: non-finite"),
    ("classify", {"measure": PAPER_MEASURE, "gamma": "abc"}, "gamma: expected a number"),
    ("classify", {"measure": {"pieces": [{"lo": 0.0, "coeff": 1.0, "exponent": -0.5}]},
                  "gamma": 0.0}, "measure.pieces[0].hi: missing"),
    ("sweep", {"measure": PAPER_MEASURE, "gamma_range": [0.0, 1.0],
               "operator": SWEEP_OPERATOR}, "gamma_range: expected a list of 3"),
    ("sweep", {"measure": PAPER_MEASURE, "gamma_range": [0.0, 1.0, -3],
               "operator": SWEEP_OPERATOR}, "gamma_range[2]: expected a row count"),
    ("restore", {"measure": PAPER_MEASURE, "gamma": 0.0, "operator": {"m": "x"}},
     "operator.m: expected a number"),
    # Im h = xi/(1 + gamma^2) underflows to 0
    ("restore", {"measure": PAPER_MEASURE, "gamma": 1e308, "operator": SWEEP_OPERATOR},
     "gamma=1e+308"),
    ("classify", {"measure": PAPER_MEASURE, "gamma": 0.0, "output": "b.json"},
     "output: expected an object"),
    ("classify", {"measure": PAPER_MEASURE, "gamma": 0.0,
                  "output": {"path": "no_such_dir/c.json"}}, "output: cannot write"),
    ("classify", {"measure": PAPER_MEASURE, "gamma": True}, "gamma: expected a number"),
    ("classify", {"measure": PAPER_MEASURE, "gamma": "nan"}, "gamma: expected a number"),
    ("classify", {"measure": {"pieces": [{"lo": 0.0, "hi": 1.0, "coeff": True,
                                          "exponent": -0.5}]}, "gamma": 0.0},
     "measure.pieces[0].coeff: expected a number"),
    ("restore", {"measure": PAPER_MEASURE, "gamma": 0.0, "operator": {"m": False}},
     "operator.m: expected a number"),
    ("sweep", {"measure": PAPER_MEASURE, "gamma_range": [0.0, 1.0, 2.7],
               "operator": SWEEP_OPERATOR}, "gamma_range[2]: expected a row count"),
    ("sweep", {"measure": PAPER_MEASURE, "gamma_range": [0.0, 1.0, True],
               "operator": SWEEP_OPERATOR}, "gamma_range[2]: expected a row count"),
    ("sweep", {"measure": PAPER_MEASURE, "gamma_range": [0.0, 1.0, 0],
               "operator": SWEEP_OPERATOR}, "gamma_range[2]: expected a row count"),
    # rejected before np.linspace allocates the rows
    ("sweep", {"measure": PAPER_MEASURE, "gamma_range": [0.0, 1.0, cli.MAX_GAMMA_ROWS + 1],
               "operator": SWEEP_OPERATOR}, "gamma_range[2]: expected a row count"),
    ("sweep", {"measure": PAPER_MEASURE, "gamma_range": [False, 1.0, 5],
               "operator": SWEEP_OPERATOR}, "gamma_range[0]: expected a number"),
    ("classify", {"measure": PAPER_MEASURE, "gamma": 10**400},
     "gamma: int too large to convert to float"),
    ("classify", {"measure": {"pieces": [{"kind": "table", "knots": [], "values": []}]},
                  "gamma": 0.0}, "piece 0: knots/values size mismatch"),
    ("weyl", {"potential": ZERO_POTENTIAL, "lambdas": []},
     "lambdas: expected a non-empty list"),
    # the tolerances are fixed constants: a job that sets one is refused, not ignored
    ("verify", {"measure": PAPER_MEASURE, "gamma": 0.0, "potential": ZERO_POTENTIAL,
                "tolerances": {"ode": 1e-10, "verify": 1e-6}}, "tolerances: not a job field"),
    ("weyl", {"potential": ZERO_POTENTIAL, "tolerances": 1e-6}, "tolerances: not a job field"),
    ("classify", {"measure": PAPER_MEASURE, "gamma": 0.0, "tolerances": None},
     "tolerances: not a job field"),
    # a non-finite number is refused where the field is read, by its full path
    ("classify", {"measure": dict(PAPER_MEASURE, tail={"T": math.nan, "coeff": 1.0,
                                                       "exponent": 0.5}), "gamma": 0.0},
     "measure.tail.T: non-finite number nan"),
    ("moments", {"measure": {"pieces": [{"kind": "table", "knots": [0.0, math.nan, 1.0],
                                         "values": [1.0, 1.0, 1.0]}]}},
     "measure.pieces[0].knots[1]: non-finite number nan"),
    ("weyl", {"potential": {"a": 0.0, "q": {"kind": "table", "grid": [0.0, 0.5, 1.0],
                                            "values": [1.0, math.nan, 0.5], "cutoff": 1.5}}},
     "potential.q.values[1]: non-finite number nan"),
    ("restore", {"measure": PAPER_MEASURE, "gamma": 0.0,
                 "operator": dict(SWEEP_OPERATOR, xi=math.nan)},
     "operator.xi: non-finite number nan"),
    ("sweep", {"measure": PAPER_MEASURE, "gamma_range": [0.0, math.nan, 5],
               "operator": SWEEP_OPERATOR}, "gamma_range[1]: non-finite number nan"),
    # hi - lo out of float range: refused before np.linspace steps by inf (NaN rows)
    ("sweep", {"measure": PAPER_MEASURE, "gamma_range": [-1e308, 1e308, 5],
               "operator": SWEEP_OPERATOR},
     "gamma_range: width 1e+308 - -1e+308 is out of float range"),
    # sweep classifies its measure as restore does
    ("sweep", {"measure": STEEP_FINITE_MASS_MEASURE, "gamma_range": [0.0, 1.0, 3],
               "operator": SWEEP_OPERATOR}, FINITE_MASS_NOT_SL0),
    # (theta + m) b, Re h or mu overflows: no NaN or inf reaches an artifact
    ("restore", {"measure": FINITE_B_MEASURE, "gamma": 0.5, "operator": HUGE_OPERATOR},
     "RestorationOverflow: (theta + m) * b = inf"),
    ("restore", {"measure": FINITE_B_MEASURE, "gamma": 1.0,
                 "operator": {"theta": 1.7e308, "m": -1.6e308}},
     "RestorationOverflow: Re h is out of float range at gamma=1.0"),
    ("sweep", {"measure": FINITE_B_MEASURE, "gamma_range": [-1.0, 1.0, 3],
               "operator": HUGE_OPERATOR}, "RestorationOverflow: (theta + m) * b = inf"),
    ("verify", {"measure": FINITE_B_MEASURE, "gamma": 0.5, "potential": ZERO_POTENTIAL,
                "operator": HUGE_OPERATOR}, "RestorationOverflow: (theta + m) * b = inf"),
    # mu = inf only at gamma = 0
    ("restore", {"measure": PAPER_MEASURE, "gamma": 1e-310, "potential": ZERO_POTENTIAL},
     "RestorationOverflow: mu is out of float range at gamma=1e-310"),
    ("sweep", {"measure": PAPER_MEASURE, "gamma_range": [-1e-310, 1e-310, 3],
               "potential": ZERO_POTENTIAL},
     "RestorationOverflow: mu is out of float range at gamma=-1e-310"),
    # a given theta is never overwritten: at b = inf it must equal -m
    ("restore", {"measure": PAPER_MEASURE, "gamma": 0.0,
                 "operator": {"theta": 5.0, "m": 0.0, "c": 0.7}}, "ThetaMismatch"),
    ("restore", {"measure": FINITE_B_MEASURE, "gamma": 0.5, "operator": {"m": 0.0}},
     "finite 1/t moment: theta must be given explicitly"),
    ("restore", {"measure": PAPER_MEASURE, "gamma": 0.0, "operator": {"m": 0.0}},
     "b = inf needs xi or c"),
    ("verify", {"measure": PAPER_MEASURE, "gamma": 0.0}, "cli: verify requires a potential"),
    ("weyl", {}, "cli: weyl requires a potential"),
    ("verify", {"measure": STEEP_FINITE_MASS_MEASURE, "gamma": 0.0,
                "potential": ZERO_POTENTIAL}, FINITE_MASS_NOT_SL0),
], ids=["gamma-nan", "gamma-str", "piece-no-hi", "range-2", "range-neg-n",
        "operator-m-str", "gamma-huge", "output-str", "output-no-dir", "gamma-bool",
        "gamma-nan-str", "measure-bool", "operator-bool", "range-frac-n",
        "range-bool-n", "range-zero-n", "range-over-limit", "range-bool-lo",
        "gamma-int-overflow", "table-no-knots", "weyl-lambdas-empty",
        "tolerances-object", "tolerances-number", "tolerances-null", "tail-T-nan",
        "table-knot-nan", "potential-value-nan", "operator-xi-nan", "range-hi-nan",
        "range-width-overflow", "sweep-not-sl0", "restore-numerator-overflow", "restore-re-h-overflow",
        "sweep-numerator-overflow", "verify-numerator-overflow", "restore-mu-overflow",
        "sweep-mu-overflow", "restore-theta-mismatch", "restore-finite-b-no-theta",
        "restore-b-inf-no-c", "verify-no-potential", "weyl-no-potential",
        "verify-not-sl0-before-quadrature"])
def test_bad_job_field_exit_2_names_field(tmp_path, monkeypatch, capsys, command, job,
                                          message):
    monkeypatch.chdir(tmp_path)  # a relative output path lands here
    argv = [command, "--job", _write_job(tmp_path, "job.json", job), "--quiet"]
    if "output" not in job:
        argv += ["--out", str(tmp_path / "out")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(argv) == 2
    assert [p.name for p in tmp_path.iterdir()] == ["job.json"]  # no artifact
    err = capsys.readouterr().err
    assert message in err
    # no numpy warning leaks from the refused job
    assert "RuntimeWarning" not in err
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []


@pytest.mark.parametrize("command, job", [
    ("moments", {"measure": PAPER_MEASURE, "gamma": math.nan}),
    ("classify", {"measure": PAPER_MEASURE, "gamma": 0.0, "lambdas": [[math.inf, 0.0]]}),
], ids=["moments-gamma-nan", "classify-lambdas-inf"])
def test_fields_a_command_does_not_read_are_ignored(tmp_path, command, job):
    # a NaN is refused only where its field is read
    assert _run(command, _write_job(tmp_path, "job.json", job), tmp_path / "out") == 0


@pytest.mark.parametrize("command, job, field", [
    ("weyl", {"potential": ZERO_POTENTIAL, "lambdas": None}, ("lambdas",)),
    ("classify", {"measure": PAPER_MEASURE, "gamma": 0.0, "output": None}, ("output",)),
    ("moments", {"measure": dict(PAPER_MEASURE, atoms=None)}, ("measure", "atoms")),
    ("verify", {"measure": PAPER_MEASURE, "gamma": 0.0,
                "potential": {"a": None, "q": {"kind": "zero"}}}, ("potential", "a")),
], ids=["lambdas", "output", "measure-atoms", "potential-a"])
def test_null_field_reads_as_left_out(tmp_path, command, job, field):
    # null is absent for every job field: the same artifact as the job without it
    absent = copy.deepcopy(job)
    *parents, last = field
    target = absent
    for key in parents:
        target = target[key]
    del target[last]
    outs = [tmp_path / "null.out", tmp_path / "absent.out"]
    for name, payload, out in zip(("null.json", "absent.json"), (job, absent), outs):
        assert _run(command, _write_job(tmp_path, name, payload), out) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def _no_propagation(*args, **kwargs):
    raise AssertionError("solve_ivp called: a job that cannot succeed propagated an ODE")


@pytest.mark.parametrize("measure, values, cutoff, code, message", [
    # finite b: theta is missing, whatever m_inf(-0) would be
    ({"pieces": [{"lo": 0.0, "hi": 1.0, "kind": "power_law", "coeff": 1.0, "exponent": 0.5}],
      "tail": {"T": 1.0, "coeff": 1.0, "exponent": 0.5}},
     [1.0, 0.2, 400.0], 1e6, 2, "ValidationError: finite 1/t moment: theta"),
    # b = inf: c has no closed form for a table
    (PAPER_MEASURE, [1.0, 0.2, 0.5], 3.0, 3, "Unsupported: boundary-trace constant"),
], ids=["finite-b-theta", "infinite-b-c"])
def test_restore_settles_theta_and_c_before_any_propagation(tmp_path, monkeypatch, capsys,
                                                            measure, values, cutoff, code,
                                                            message):
    monkeypatch.setattr(weyl, "solve_ivp", _no_propagation)
    job = {"measure": measure, "gamma": 0.5,
           "potential": {"a": 0.0, "q": {"kind": "table", "grid": [0.0, 1.0, 2.0],
                                         "values": values, "cutoff": cutoff}}}
    out = tmp_path / "out"
    assert _run("restore", _write_job(tmp_path, "job.json", job), out) == code
    assert not out.exists()
    assert message in capsys.readouterr().err


# -- fuzzed jobs: the exit contract holds on every input -----------------------

TABLE_POTENTIAL = {"a": 0.0, "q": {"kind": "table", "grid": [0.0, 0.5, 1.0],
                                   "values": [1.0, 0.2, 0.5], "cutoff": 1.5, "q_inf": 0.5}}
RICH_MEASURE = {
    "atoms": [{"t": 2.0, "w": 0.5}],
    "pieces": [{"lo": 0.0, "hi": 1.0, "kind": "power_law", "coeff": 1.0, "exponent": 0.5},
               {"kind": "table", "knots": [1.0, 1.5, 2.0], "values": [0.2, 0.3, 0.1]}],
    "tail": {"T": 2.0, "coeff": 0.3, "exponent": 1.5},
}


def test_table_weyl_job(tmp_path):
    job = {"potential": TABLE_POTENTIAL, "lambdas": [[-1.0, 0.5]]}
    out = tmp_path / "m.csv"
    assert _run("weyl", _write_job(tmp_path, "job.json", job), out) == 0
    m = complex(*map(float, out.read_text().splitlines()[1].split(",")[2:4]))
    assert abs(m - (1.278 - 0.205j)) < 1e-3


VALID_JOBS = [
    ("classify", {"measure": PAPER_MEASURE, "gamma": 0.5}),
    ("moments", {"measure": RICH_MEASURE}),
    ("restore", {"measure": PAPER_MEASURE, "gamma": -0.5,
                 "operator": {"theta": 0.0, "m": 0.0, "c": 0.7, "xi": 1.0}}),
    ("restore", {"measure": RICH_MEASURE, "gamma": 1.0, "operator": {"theta": 0.5, "m": 0.0}}),
    ("sweep", {"measure": PAPER_MEASURE, "gamma_range": [-2.0, 2.0, 9],
               "operator": SWEEP_OPERATOR}),
    ("verify", {"measure": PAPER_MEASURE, "gamma": 0.5, "potential": ZERO_POTENTIAL}),
    ("weyl", {"potential": {"a": 0.0, "q": {"kind": "constant", "value": 1.0}},
              "lambdas": [[-4.0, 0.0], [0.0, 1.0]]}),
    ("weyl", {"potential": TABLE_POTENTIAL, "lambdas": [[-1.0, 0.5]]}),
]
EDGE_VALUES = [0, 1, -1, 400, -400, 2000, -2000, 1e300, -1e300, 1e-300, 10**30,
               -0.0, 5e-324, 1e-310, 1e154, 1e160, 1.7e308, "x", None, [], {}, True]


def _paths(obj, prefix=()):
    """The path of every value below the root of a JSON object."""
    items = obj.items() if isinstance(obj, dict) else (
        enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


@st.composite
def mutated_jobs(draw):
    command, job = draw(st.sampled_from(VALID_JOBS))
    job = copy.deepcopy(job)
    for _ in range(draw(st.integers(1, 2))):
        *parents, last = draw(st.sampled_from(list(_paths(job))))
        target = job
        for key in parents:
            target = target[key]
        target[last] = copy.deepcopy(draw(st.sampled_from(EDGE_VALUES)))
    return command, job


def _measure_job(command, **measure):
    job = {"measure": dict(PAPER_MEASURE, **measure), "gamma": 0.0,
           "potential": ZERO_POTENTIAL}
    return command, job


@settings(derandomize=True, deadline=None, max_examples=300)
@given(mutated_jobs())
# moments of a tail that overflow the float range (tail: no longer a traceback)
@example(("moments", {"measure": {"tail": {"T": 0.01, "coeff": 1, "exponent": 400}}}))
@example(("moments", {"measure": {"pieces": [{"lo": 0.5, "hi": 2.0, "coeff": 1,
                                              "exponent": -2000}]}}))
# Gauss-Jacobi rules out of float range or singular (p -> -1)
@example(_measure_job("verify", pieces=[{"lo": 0, "hi": 1, "coeff": 1, "exponent": 2000}]))
@example(_measure_job("verify", pieces=[{"lo": 0, "hi": 1, "coeff": 1, "exponent": 1e300}]))
@example(_measure_job("verify", tail={"T": 1.0, "coeff": 1.0, "exponent": 1e-300}))
# a table propagation of about 1e150 chunks
@example(("weyl", {"potential": {"a": 0.0, "q": dict(TABLE_POTENTIAL["q"], q_inf=1e300)},
                   "lambdas": [[-1.0, 0.5]]}))
# restorations for the (h, mu) oracle: mu cancelling near the hyperbola's zero crossing,
# a subnormal Re h, a large |gamma| at finite b and Im h small beside Re h = 1e300
@example(("restore", {"measure": PAPER_MEASURE, "gamma": 1e-8,
                      "operator": {"theta": -1e8, "m": 1e8, "xi": 1.0}}))
@example(("restore", {"measure": PAPER_MEASURE, "gamma": 1e-305,
                      "operator": {"m": 0.0, "xi": 1e-5}}))
@example(("restore", {"measure": FINITE_B_MEASURE, "gamma": -2000.0,
                      "operator": {"theta": 0.5, "m": 0.0}}))
@example(("restore", {"measure": FINITE_B_MEASURE, "gamma": 1e150,
                      "operator": {"theta": 1e300, "m": -1e300 + 1e285}}))
# the class at its edges: exponent 0 from lo = -0.0, a table from 0 whose first value is
# the smallest subnormal or 0, an exponent of 1e-300 (b = 1e300); gamma = -0.0 is Stieltjes
@example(("classify", {"measure": dict(PAPER_MEASURE, pieces=[
    {"lo": -0.0, "hi": 1.0, "coeff": 1.0, "exponent": 0}]), "gamma": -0.0}))
@example(("classify", {"measure": dict(PAPER_MEASURE, pieces=[
    {"kind": "table", "knots": [0.0, 1.0], "values": [5e-324, 1.0]}]), "gamma": -5e-324}))
@example(("classify", {"measure": dict(PAPER_MEASURE, pieces=[
    {"kind": "table", "knots": [0.0, 1.0], "values": [0.0, 1.0]}]), "gamma": 1e-310}))
@example(("classify", {"measure": dict(PAPER_MEASURE, pieces=[
    {"lo": 0.0, "hi": 1.0, "coeff": 1.0, "exponent": 1e-300}]), "gamma": 0.0}))
def test_fuzzed_jobs_keep_the_exit_contract(case):
    command, job = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        job_path = tmp / "job.json"
        job_path.write_text(json.dumps(job))
        outs = [tmp / "a.out", tmp / "b.out"]
        codes = [cli.main([command, "--job", str(job_path), "--out", str(out), "--quiet"])
                 for out in outs]
        assert codes[0] == codes[1] and codes[0] in (0, 2, 3, 4)
        if codes[0] in (2, 3):
            assert not any(out.exists() for out in outs)
        else:
            assert outs[0].read_bytes() == outs[1].read_bytes()
        if codes[0] == 0:
            artifact = _parsed_artifact(outs[0].read_text(), command)
            if command in ("classify", "restore"):
                _check_class(job, artifact)
            if command == "restore":
                _check_restored_pair(artifact)


def _parsed_artifact(text: str, command: str):
    """The parsed artifact (the rows of a CSV); a NaN, in JSON or in a cell, or an empty
    CSV cell fails."""
    if command not in ("sweep", "weyl"):
        return json.loads(text, parse_constant=lambda c: pytest.fail(f"{c} in {text}"))
    rows = list(csv.reader(io.StringIO(text)))
    assert all(cell and cell != "nan" for row in rows for cell in row), text
    return rows


def _check_class(job, artifact):
    """The class from the job's own schema: SL0K (b = inf) exactly when a piece from 0 is
    a power law of exponent <= 0 or a table whose first value is > 0."""
    b_inf = any(p["knots"][0] == 0 and p["values"][0] > 0 if p.get("kind") == "table" else
                p["lo"] == 0 and (-0.5 if p.get("kind") == "inverse_sqrt" else p["exponent"]) <= 0
                for p in job["measure"].get("pieces") or [])
    assert artifact["class"] == ("SL0K" if b_inf else "SL01K"), (job, artifact)
    assert artifact["stieltjes"] is (job["gamma"] >= 0), (job, artifact)
    assert (artifact["b"] == "inf") is b_inf, (job, artifact)


def _check_restored_pair(artifact):
    """h and mu of a restore artifact against the pair formulas in 50 digits, at the
    artifact's own b, theta, m, xi and gamma: (offset, N) = (theta, (theta + m) b), or
    (-m, xi) for b = inf; Im h = N/(1 + gamma^2), Re h = offset + gamma Im h and
    mu = Re h + Im h/gamma.  Each float lies within 8 eps of the sizes of its terms (and
    a few subnormal steps of the exact value, where gamma Im h underflows)."""
    eps, tiny = mpmath.mpf(sys.float_info.epsilon), 4 * mpmath.mpf(2) ** -1074
    with mpmath.workdps(50):
        b, theta, m, gamma = (mpmath.mpf(float(artifact[key]))  # b may be "inf"
                              for key in ("b", "theta", "m", "gamma"))
        offset, numerator = (-m, mpmath.mpf(artifact["xi"])) if mpmath.isinf(b) else (
            theta, (theta + m) * b)
        y = numerator / (1 + gamma ** 2)
        x = offset + gamma * y
        assert abs(artifact["h_im"] - y) <= 8 * eps * y + tiny, artifact
        terms = abs(offset) + abs(gamma * y)
        assert abs(artifact["h_re"] - x) <= 8 * eps * terms + tiny, artifact
        if gamma == 0:
            assert artifact["mu"] == "inf", artifact
        else:
            mu, terms = x + y / gamma, terms + abs(y / gamma)
            assert abs(artifact["mu"] - mu) <= 8 * eps * terms + tiny, artifact


#: The named refusals a verify of the worked example may end in: Im h below the normal
#: float range, mu past it, |V| whose round-off passes VERIFY_TOL, moments past it.
_VERIFY_REFUSALS = ("DegenerateImaginaryPart", "RestorationOverflow", "Unverifiable",
                    "UnrepresentableMeasure")


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.sampled_from((1.0, -1.0)), st.floats(-300.0, 300.0), st.floats(-300.0, 300.0))
# the parent's wrong verdicts: exit 4 from |gamma| = 3000, a false PoleOfV from 1e4
@example(1.0, math.log10(3000.0), 0.0)
@example(-1.0, math.log10(5000.0), 0.0)
@example(1.0, 4.0, 0.0)
@example(-1.0, 154.0, 0.0)
@example(1.0, 200.0, 0.0)
@example(1.0, -300.0, 0.0)
def test_the_worked_example_verifies_or_is_refused_by_name(sign, log_gamma, log_scale):
    # V = gamma + c (-z)**-1/2 is realizable at every gamma and scale c: the job passes or
    # ends in a named refusal, never in exit 4 nor in PoleOfV
    gamma, c = sign * 10.0 ** log_gamma, 10.0 ** log_scale
    measure = {"pieces": [dict(PAPER_MEASURE["pieces"][0], coeff=c / math.pi)],
               "tail": dict(PAPER_MEASURE["tail"], coeff=c / math.pi)}
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stderr(io.StringIO()) as stderr:
        job = Path(tmp) / "job.json"
        job.write_text(json.dumps({"measure": measure, "gamma": gamma,
                                   "potential": ZERO_POTENTIAL}))
        code = cli.main(["verify", "--job", str(job), "--out", str(Path(tmp) / "out"),
                         "--quiet"])
    if code:
        assert code in (2, 3)
        assert stderr.getvalue().split(":")[1].strip() in _VERIFY_REFUSALS, stderr.getvalue()


@pytest.mark.parametrize("command, job, code, message", [
    ("moments", {"measure": {"tail": {"T": 0.01, "coeff": 1, "exponent": 400}}}, 2,
     "UnrepresentableMeasure: tail:"),
    ("moments", {"measure": {"pieces": [{"lo": 0.5, "hi": 2.0, "coeff": 1,
                                         "exponent": -2000}]}}, 2,
     "UnrepresentableMeasure: piece 0:"),
    (*_measure_job("verify", pieces=[{"lo": 0, "hi": 1, "coeff": 1, "exponent": 2000}]), 2,
     "UnrepresentableMeasure: piece 0:"),
    (*_measure_job("verify", pieces=[{"lo": 0, "hi": 1, "coeff": 1, "exponent": 1e300}]), 2,
     "UnrepresentableMeasure: piece 0:"),
    (*_measure_job("verify", tail={"T": 1.0, "coeff": 1.0, "exponent": 1e-300}), 2,
     "UnrepresentableMeasure: tail:"),
    ("weyl", {"potential": {"a": 0.0, "q": dict(TABLE_POTENTIAL["q"], q_inf=1e300)}}, 3,
     "PropagationTooLong: table propagation"),
    ("moments", {"measure": {"pieces": [{"kind": "table", "knots": [0.5, 1e10],
                                         "values": [1e308, 1e308]}]}}, 2,
     "UnrepresentableMeasure: piece 0:"),
], ids=["tail-overflow", "piece-overflow", "jacobi-overflow", "jacobi-nan",
        "jacobi-singular", "table-too-long", "table-overflow"])
def test_out_of_range_jobs_end_in_named_errors(tmp_path, capsys, command, job, code,
                                               message):
    out = tmp_path / "out"
    assert _run(command, _write_job(tmp_path, "job.json", job), out) == code
    assert not out.exists()
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("job, message", [
    ({"potential": {"a": 0.0, "q": dict(TABLE_POTENTIAL["q"], grid=[0.0, "x", 1.0])}},
     "potential.q.grid[1]: expected a number"),
    ({"potential": ZERO_POTENTIAL, "lambdas": [[0.0, 1.0], [2.0]]},
     "lambdas[1]: expected a list of 2"),
    ({"potential": {"a": 0.0, "q": {"kind": "cubic"}}}, "potential.q.kind: unknown"),
    ({"potential": ZERO_POTENTIAL, "lambdas": [[0.0, math.inf]]},
     "lambdas[0][1]: non-finite number"),
    # inside the essential spectrum [q_inf, inf) of q = 0
    ({"potential": ZERO_POTENTIAL, "lambdas": [[-1.0, 0.0], [1.0, 0.0]]},
     "lambdas[1]: lambda=(1+0j) admits no decaying solution"),
    # lambda - q_inf out of float range: no NaN row, no wrong "no decaying solution"
    ({"potential": {"a": 0.0, "q": {"kind": "constant", "value": 1e308}},
      "lambdas": [[-1e308, 0.0]]}, "lambdas[0]: lambda - q_inf = (-inf+0j) is out of float range"),
    ({"potential": {"a": 0.0, "q": {"kind": "constant", "value": -1e308}},
      "lambdas": [[1e308, 1e308]]}, "lambdas[0]: lambda - q_inf = (inf+1e+308j) is out of float"),
], ids=["table-grid-str", "lambda-short", "kind-unknown", "lambda-inf", "lambda-no-decay",
        "lambda-minus-q-inf-overflow", "lambda-minus-q-inf-overflow-complex"])
def test_weyl_field_errors_name_the_full_path(tmp_path, capsys, job, message):
    assert _run("weyl", _write_job(tmp_path, "job.json", job), tmp_path / "out") == 2
    assert message in capsys.readouterr().err



# -- import footprint ---------------------------------------------------------

_FOOTPRINT_SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

from slrestore import cli, measure
steps = [("import", 0, scipy_modules())]
for cmd, job, out in zip(sys.argv[2::3], sys.argv[3::3], sys.argv[4::3]):
    steps.append((cmd, cli.main([cmd, "--job", job, "--out", out, "--quiet"]), scipy_modules()))
print(json.dumps({"steps": steps, "jacobi_rules": measure._jacobi_rule.cache_info().currsize}))
"""


def test_only_a_table_potential_loads_scipy(tmp_path):
    """scipy modules after import and after each job, in a fresh interpreter
    (pytest itself imports scipy): the Gauss-Jacobi rules come from numpy and
    only a table propagation reaches scipy.integrate."""
    jobs = [("verify", {"measure": PAPER_MEASURE, "gamma": 0.5, "potential": ZERO_POTENTIAL}),
            ("moments", {"measure": RICH_MEASURE}),  # exponents 0.5 and 1.5: Jacobi panels
            ("weyl", {"potential": TABLE_POTENTIAL, "lambdas": [[-1.0, 0.5]]})]
    argv = []
    for i, (command, job) in enumerate(jobs):
        argv += [command, _write_job(tmp_path, f"job{i}.json", job), str(tmp_path / f"out{i}")]
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _FOOTPRINT_SCRIPT, src, *argv],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    steps = {name: (code, modules) for name, code, modules in result["steps"]}
    assert [code for code, _ in steps.values()] == [0, 0, 0, 0]
    assert steps["import"][1] == steps["verify"][1] == steps["moments"][1] == []
    assert result["jacobi_rules"] > 0
    assert "scipy.integrate" in steps["weyl"][1]
