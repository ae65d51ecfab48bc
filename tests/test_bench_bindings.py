"""The package bindings that the benchmark tracer patches must all exist,
and the spans it expects of each workload must fire.

``perfbench/tracer.py`` wraps each function at every module namespace that
binds it, listed in ``SPEC``, and ``EXPECTED`` names the spans a traced run
of each workload must produce.  A refactor that drops or moves one of those
bindings, or stops calling it, would only fail a traced benchmark run; these
tests fail first.
"""
from __future__ import annotations

import importlib
import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

from slrestore import cli
from slrestore.weyl import HalfLinePotential, WeylEvaluator, weyl_m_at_minus_zero

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
SELFTEST = TRACER.with_name("selftest.py")


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_bindings_resolve():
    spec = _tracer_module().SPEC
    assert spec
    missing = [f"slrestore.{mod}.{attr}" for mod, attr, _ in spec
               if not callable(getattr(importlib.import_module(f"slrestore.{mod}"),
                                       attr, None))]
    assert missing == []


PAPER_MEASURE = {
    "pieces": [{"lo": 0.0, "hi": 1.0, "kind": "power_law",
                "coeff": 1.0 / math.pi, "exponent": -0.5}],
    "tail": {"T": 1.0, "coeff": 1.0 / math.pi, "exponent": 0.5},
}
OPERATOR = {"theta": 0.0, "m": 0.0, "c": 1.0 / math.sqrt(2.0)}


def _fired_spans(tmp_path, jobs, table_probe=False):
    """Span names of traced cli.main jobs (and of one table m_inf(-0) probe)."""
    tracer_mod = _tracer_module()
    tracer = tracer_mod.Tracer()
    for i, (command, job) in enumerate(jobs):
        path = tmp_path / f"job{i}.json"
        path.write_text(json.dumps(job))
        with tracer.installed(), tracer.job(f"j{i}"):
            code = cli.main([command, "--job", str(path),
                             "--out", str(tmp_path / f"out{i}"), "--quiet"])
        assert code == 0
    if table_probe:
        ev = WeylEvaluator(potential=HalfLinePotential(
            kind="table", grid=(0.0, 1.0, 2.0), values=(0.5, 1.5, 0.0), cutoff=3.0))
        with tracer.installed(), tracer.job("probe", "weyl.m0_table_probe"):
            weyl_m_at_minus_zero(ev)
    return tracer_mod.EXPECTED, set().union(*tracer.names_by_job().values())


def test_tracer_expected_spans_fire_verify_paper(tmp_path):
    job = {"command": "verify", "measure": PAPER_MEASURE, "gamma": 0.5,
           "potential": {"a": 0.0, "q": {"kind": "zero"}}}
    expected, fired = _fired_spans(tmp_path, [("verify", job)], table_probe=True)
    assert expected["verify-paper"] - fired == set()


def test_tracer_expected_spans_fire_quad_sweep(tmp_path):
    jobs = [("sweep", {"command": "sweep", "measure": PAPER_MEASURE,
                       "gamma_range": [-2.0, 3.0, 50], "operator": OPERATOR}),
            ("restore", {"command": "restore", "measure": PAPER_MEASURE,
                         "gamma": 0.5, "operator": OPERATOR})]
    expected, fired = _fired_spans(tmp_path, jobs)
    assert expected["quad-sweep"] - fired == set()
    # a sweep alone classifies its measure, as restore does
    _, fired = _fired_spans(tmp_path, jobs[:1])
    assert {"measure.classify", "pipeline.resolve_operator_data", "restore.sweep"} <= fired


def test_benchmark_selftest_passes_but_for_the_verify_ode_span():
    """perfbench/selftest.py with one expectation dropped, in a fresh process.

    ``EXPECTED["verify-paper"]`` asks for ``weyl.solve_ivp``, but the worked
    example (q = 0) has a closed-form m_inf, so its verify jobs integrate no
    ODE; a traced run.py fires the span through its table m_inf(-0) probe,
    the self-test has no such probe.  The test above fires it the same way.
    Every other self-test check (both workloads' spans and oracles, no weyl
    work on quad-sweep, repeatable counts, Airy oracle stability, a missing
    binding and an uncheckable capture) runs unchanged.
    """
    code = ("import runpy, sys; sys.path.insert(0, sys.argv[1]); import tracer; "
            "tracer.EXPECTED['verify-paper'].discard('weyl.solve_ivp'); "
            "runpy.run_path(sys.argv[2], run_name='__main__')")
    proc = subprocess.run([sys.executable, "-c", code, str(SELFTEST.parent), str(SELFTEST)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "selftest: ok"
