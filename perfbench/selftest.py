#!/usr/bin/env python3
"""Self-test of the benchmark's tracing and oracles.

Usage (from the repository root):  python3 perfbench/selftest.py

Traces the first four jobs of every workload twice and checks that
  * every span listed in ``tracer.EXPECTED`` fires on its workload,
  * every weyl.* span and count is exactly 0 on quad-sweep,
  * span calls and work counts repeat exactly between the two passes,
  * artifacts pass their oracles and repeats are byte-identical,
  * the Airy oracle for m_inf agrees with itself at a higher precision,
  * a missing traced binding and an uncheckable captured value are errors.
Exits 1 on the first failed check.
"""
from __future__ import annotations

import shutil
import sys

import run  # pins BLAS threads before numpy is imported

sys.path.insert(0, str(run.SRC))

import checks  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402
from tracer import EXPECTED, SPEC, Tracer  # noqa: E402

N_JOBS = 4


def fail(msg):
    print(f"selftest: FAIL: {msg}")
    sys.exit(1)


def traced_pass(runner, tracer, tag):
    ids = []
    for i in range(len(runner.jobs)):
        ids.append(f"{tag}-{i}")
        with tracer.installed(), tracer.job(ids[-1]):
            runner.run(i)
    return ids


def main():
    import slrestore.cli

    for workload in workloads.WORKLOADS:
        jobs = workloads.make_jobs(workload, 0)[:N_JOBS]
        workdir = run.WORK / f"selftest-{workload}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        runner = run.Runner(slrestore.cli.main, jobs, workdir)
        tracer = Tracer()
        first = traced_pass(runner, tracer, "a")
        second = traced_pass(runner, tracer, "b")
        shutil.rmtree(workdir, ignore_errors=True)
        if runner.failed_runs:
            fail(f"{workload}: {runner.failed_runs}")
        _, bad = checks.check_artifacts(runner)
        if bad:
            fail(f"{workload}: oracle: {bad}")
        fired = set().union(*tracer.names_by_job().values())
        missing = EXPECTED[workload] - fired
        if missing:
            fail(f"{workload}: spans never fired: {sorted(missing)}")
        _, _, calls_a, counts_a = tracer.layer_totals(first)
        _, _, calls_b, counts_b = tracer.layer_totals(second)
        if (calls_a, counts_a) != (calls_b, counts_b):
            fail(f"{workload}: calls or counts differ between passes")
        if workload == "quad-sweep":
            weyl = {k: v for k, v in calls_a.items() if k.startswith("weyl.")}
            if weyl or counts_a.get("rhs_evals", 0):
                fail(f"{workload}: weyl layer did work: {weyl}")
        print(f"selftest: {workload}: {len(fired)} span kinds, "
              f"{sum(calls_a.values())} spans per pass, counts {dict(counts_a)}")

    potential = workloads.table_potentials(0, 1)[0]
    for lam in (complex(0.3, 0.4), complex(-1.0, 0.0), 0.0):
        lo = oracles.weyl_m(potential, lam)
        saved = oracles.DPS
        oracles.DPS = 45
        try:
            hi = oracles.weyl_m(potential, lam)
        finally:
            oracles.DPS = saved
        if oracles.rel_err(lo, hi) > 1e-14:
            fail(f"Airy oracle unstable at lambda={lam}: {lo} vs {hi}")
    SPEC.append(("cli", "no_such_function", "cli.no_such_function"))
    try:
        with Tracer().installed():
            fail("a missing traced binding was skipped")
    except AttributeError:
        pass
    finally:
        SPEC.pop()
    _, problems = checks.layer_errors([("j", "measure.moments", (), None)],
                                      {"j": {"measure": workloads.PAPER_MEASURE}})
    if not problems:
        fail("an uncheckable captured value was not reported")
    print("selftest: ok")


if __name__ == "__main__":
    main()
