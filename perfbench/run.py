#!/usr/bin/env python3
"""Benchmark for slrestore: CLI jobs in a closed loop, checked by oracles.

Usage (from the repository root):

    python3 perfbench/run.py --workload verify-paper --seed 1 --seconds 20 --trace 0

One client in one process calls ``slrestore.cli.main`` in-process on
seeded job files, one job after the previous one finished, with BLAS
pools pinned to one thread.  Every artifact is hashed (repeats of a job
must be byte-identical) and checked against an oracle in ``oracles.py``
outside the timed region.

The measuring host's speed drifts in phases longer than a run, so job
times are scaled by a fixed reference kernel sampled before, during
(SIGALRM) and after each job (``SpeedProbe``); the wall times are kept in
the metadata line and the result file.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each job
untraced and then traced (wrappers from ``tracer.py``), and prints the
per-layer metrics.  The last line of stdout is the result object; the line
before it carries run metadata.  Spans and the full result go to
``perfbench/_work/``.
"""
from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import workloads  # noqa: E402
from tracer import EXPECTED, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

#: Cold interpreter starts per run, spread evenly over the job loop, so that
#: one slow phase of the host does not decide setup_s (their median).
SETUP_REPEATS = 11
#: The loop runs past --seconds until this many jobs are done, so that
#: job_tail_ms (needs 10 samples beyond it) exists on the slowest workload.
MIN_JOBS = 11
#: Seeded table potentials whose m_inf(-0) the traced verify-paper run probes.
M0_PROBES = 2
#: Rounds of the speed reference kernel (about 0.2 ms), how often it samples
#: the host's speed during a job, and the kernel time that job times are
#: scaled to.
REF_ROUNDS = 30
REF_PERIOD_S = 0.025
REF_S = 200e-6
_REF_VECTOR = np.array([1.0, 0.5, 0.25, 0.125])


def _reference_kernel():
    """Fixed work independent of slrestore: interpreter arithmetic and
    small-array numpy calls, the two kinds of work the jobs are made of.
    It allocates no container the collector tracks, so the program's heap
    cannot slow it."""
    s = 0
    y = _REF_VECTOR
    for i in range(REF_ROUNDS):
        for j in range(25):
            s += i * j % 7
        y = np.sqrt(y * 0.5 + 1.0) - 0.1 * y
    return s + float(y[0])


class SpeedProbe:
    """Host speed during each job, from the reference kernel's time.

    The measuring host's speed changes by up to 1.7x in phases of seconds to
    minutes, alike for the kernel and for the jobs.  The kernel runs right
    before and after each job and, from SIGALRM, every ``REF_PERIOD_S``
    during it.  ``scaled`` gives the job's own time (handler time removed)
    times the mean of ``REF_S / kernel time`` over those samples: the job's
    time at the speed where the kernel takes ``REF_S``.
    """

    def __init__(self):
        self.samples = []  # kernel times of the current job
        self.handled = []  # (start, duration) of each handler run
        self.kernel_s = []  # every kernel time of the run

    def sample(self):
        t0 = time.perf_counter()
        _reference_kernel()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.kernel_s.append(dt)

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        self.sample()
        self.handled.append((t0, time.perf_counter() - t0))

    def scaled(self, runner, i):
        """Run job i of ``runner``; return (own wall time, scaled time) in s."""
        self.samples, self.handled = [], []
        self.sample()
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)
        try:
            runner.run(i)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self.sample()
        t0, t1 = runner.last_span
        own = t1 - t0 - sum(d for start, d in self.handled if t0 <= start < t1)
        return own, own * statistics.fmean(REF_S / r for r in self.samples)


def cold_start():
    """Wall time of a fresh interpreter, from spawn to ``import slrestore.cli``
    returning.  Not scaled: it is mostly process start, file reads and page
    faults, which the reference kernel does not follow."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import slrestore.cli, time; print(time.monotonic())"
    t0 = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, check=True)
    return float(proc.stdout.strip()) - t0


def _tail(times):
    """Highest percentile with at least 10 samples beyond it: (value, pct, n)."""
    xs = sorted(times)
    n = len(xs)
    idx = n - 11  # xs[idx] has exactly 10 samples above it
    return xs[idx], 100.0 * (idx + 1) / n, n


def _metadata(seed):
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    return {"seed": seed, "git_commit": commit, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "mpmath": importlib.metadata.version("mpmath"), "nproc": os.cpu_count(), "cpu": cpu}


class Runner:
    """Runs CLI jobs in-process and keeps one artifact per distinct job."""

    def __init__(self, cli_main, jobs, workdir):
        self.cli_main = cli_main
        self.jobs = jobs
        self.out = workdir / "artifact.out"
        self.paths = []
        for i, job in enumerate(jobs):
            path = workdir / f"job-{i}.json"
            path.write_text(json.dumps(job, sort_keys=True), encoding="utf-8")
            self.paths.append(path)
        self.artifacts = {}  # job index -> bytes of its first artifact
        self.digests = {}  # job index -> sha256 of its first artifact
        self.failed_runs = []  # (job index, reason)
        self.executions = []  # job index per execution
        self.last_span = (0.0, 0.0)  # perf_counter at start and end of the last cli call

    def run(self, i):
        """Run job i once; return its wall time in seconds."""
        if self.out.exists():
            self.out.unlink()
        argv = [self.jobs[i]["command"], "--job", str(self.paths[i]),
                "--out", str(self.out), "--quiet"]
        t0 = time.perf_counter()
        try:
            rc = self.cli_main(argv)
        except Exception as exc:  # a traceback is a CLI contract breach
            rc = f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        self.last_span = (t0, t1)
        dt = t1 - t0
        self.executions.append(i)
        if rc != 0:
            self.failed_runs.append((i, f"exit {rc}"))
        elif not self.out.exists():
            self.failed_runs.append((i, "missing artifact"))
        else:
            data = self.out.read_bytes()
            digest = hashlib.sha256(data).hexdigest()
            if self.digests.setdefault(i, digest) != digest:
                self.failed_runs.append((i, "artifact differs from the job's first run"))
            self.artifacts.setdefault(i, data)
        return dt


def run_plain(runner, probe, seconds):
    """Closed loop over the jobs, round robin, for at least `seconds`.

    Between jobs, cold start k runs once the loop is k / SETUP_REPEATS of
    the way through `seconds`; any left run after the loop.  Returns (own
    wall times, times scaled by ``probe``, cold start times).
    """
    own, scaled, setup = [], [], []
    start = time.perf_counter()
    i = 0
    while True:
        t_own, t_scaled = probe.scaled(runner, i % len(runner.jobs))
        own.append(t_own)
        scaled.append(t_scaled)
        i += 1
        elapsed = time.perf_counter() - start
        if len(setup) < SETUP_REPEATS and elapsed >= seconds * len(setup) / SETUP_REPEATS:
            setup.append(cold_start())
        if elapsed >= seconds and i >= MIN_JOBS:
            setup += [cold_start() for _ in range(SETUP_REPEATS - len(setup))]
            return own, scaled, setup


def run_traced(runner, tracer, seconds, probe_potentials):
    """Passes over the jobs, each job untraced then traced, for `seconds`.

    Then m_inf(-0) of each probe potential, traced under job id probe-<i>.
    Returns (untraced times, traced times, job ids per pass).
    """
    plain, traced, pass_jobs = [], [], []
    start = time.perf_counter()
    while not pass_jobs or time.perf_counter() - start < seconds:
        ids = [f"p{len(pass_jobs)}-j{i}" for i in range(len(runner.jobs))]
        for i, job_id in enumerate(ids):
            plain.append(runner.run(i))
            with tracer.installed(), tracer.job(job_id):
                traced.append(runner.run(i))
        pass_jobs.append(ids)
    from slrestore.weyl import HalfLinePotential, WeylEvaluator, weyl_m_at_minus_zero

    for i, pot in enumerate(probe_potentials):
        q = pot["q"]
        ev = WeylEvaluator(potential=HalfLinePotential(
            a=pot["a"], kind="table", grid=tuple(q["grid"]), values=tuple(q["values"]),
            cutoff=q["cutoff"], q_inf=q["q_inf"]))
        with tracer.installed(), tracer.job(f"probe-{i}", "weyl.m0_table_probe"):
            m0 = weyl_m_at_minus_zero(ev)
        tracer.captured.append((f"probe-{i}", "weyl.weyl_m_at_minus_zero", (ev,), m0))
    return plain, traced, pass_jobs


def layer_metrics(tracer, plain, traced, pass_jobs, runner, errs):
    """Per-layer metrics: times per traced job over all passes, counts from
    the first pass (so they repeat exactly for one seed), errors (``errs``,
    from ``checks.layer_errors``) as maxima."""
    all_ids = [j for ids in pass_jobs for j in ids]
    first = pass_jobs[0]
    self_s, incl_s, _, _ = tracer.layer_totals(all_ids)
    _, _, calls, counts = tracer.layer_totals(first)

    def ms(x):
        return 1e3 * x / len(all_ids)

    def per_job(x):
        return x / len(first)

    probe_ms = [1e3 * (t1 - t0) for _, _, _, name, t0, t1 in tracer.spans
                if name == "weyl.m0_table_probe"]
    first_ids = set(first)
    sweep_rows = sum(len(result) for job, name, _, result in tracer.captured
                     if name == "restore.sweep" and job in first_ids)
    sizes = [len(data) for data in runner.artifacts.values()]
    values = {
        "cli.self_ms": (ms(self_s["cli"]), "ms"),
        "cli.artifact_bytes": (statistics.fmean(sizes) if sizes else 0.0, "bytes"),
        "pipeline.self_ms": (ms(self_s["pipeline"]), "ms"),
        "measure.quad_ms": (ms(incl_s["measure.adaptive_gauss_legendre"]), "ms"),
        "measure.quad_calls": (per_job(calls["measure.adaptive_gauss_legendre"]), "count"),
        "measure.kernel_evals": (per_job(counts["kernel_evals"]), "count"),
        "measure.integrals": (per_job(calls["measure.integrate_weighted"]), "count"),
        "measure.moment_err": (errs["measure.moment_err"], "rel"),
        "stieltjes.eval_V_ms": (ms(incl_s["stieltjes.eval_V"]), "ms"),
        "stieltjes.eval_V_calls": (per_job(calls["stieltjes.eval_V"]), "count"),
        "weyl.m_ms": (ms(incl_s["weyl.weyl_m"]), "ms"),
        "weyl.m_calls": (per_job(calls["weyl.weyl_m"]), "count"),
        "weyl.m0_ms": (ms(incl_s["weyl.weyl_m_at_minus_zero"]), "ms"),
        "weyl.m0_m_calls": (per_job(calls["weyl.weyl_m@m0"]), "count"),
        "weyl.ivp_calls": (per_job(calls["weyl.solve_ivp"]), "count"),
        "weyl.rhs_evals": (per_job(counts["rhs_evals"]), "count"),
        "weyl.oracle_err": (errs["weyl.oracle_err"], "rel"),
        "weyl.m0_table_ms": (statistics.fmean(probe_ms) if probe_ms else 0.0, "ms"),
        "weyl.m0_err": (errs["weyl.m0_err"], "rel"),
        "restore.ms": (ms(sum(v for k, v in incl_s.items() if k.startswith("restore."))), "ms"),
        "restore.rows": (per_job(calls["restore.restore_system"] + sweep_rows), "count"),
        "restore.h_err": (errs["restore.h_err"], "rel"),
        "system.ms": (ms(self_s["system"]), "ms"),
        "system.impedance_calls": (per_job(calls["system.impedance_V"]), "count"),
        "trace.overhead_ms": (1e3 * (statistics.median(traced) - statistics.median(plain)), "ms"),
    }
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "slrestore" / "cli.py").is_file():
        print(f"error: no slrestore sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import slrestore.cli
    if Path(slrestore.cli.__file__).resolve().parent != SRC / "slrestore":
        print("error: slrestore imported from outside this checkout", file=sys.stderr)
        return 2

    rss_at_import_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    jobs = workloads.make_jobs(args.workload, args.seed)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = WORK / tag
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    runner = Runner(slrestore.cli.main, jobs, workdir)
    runner.run(0)  # warm-up: lazy imports and first-call costs; checked but not timed

    detail = {"workload": args.workload, "metadata": _metadata(args.seed),
              "rss_at_import_mb": rss_at_import_mb}
    times, wall = [], []
    trace_problems = []
    if args.trace:
        tracer = Tracer()
        # m_inf(-0) of a table potential has no CLI path; probe it where weyl runs
        pots = workloads.table_potentials(args.seed, M0_PROBES) \
            if args.workload == "verify-paper" else []
        plain, traced, pass_jobs = run_traced(runner, tracer, args.seconds, pots)
        fired = set().union(*tracer.names_by_job().values())
        trace_problems = [f"span never fired: {name}"
                          for name in sorted(EXPECTED[args.workload] - fired)]
    else:
        probe = SpeedProbe()
        wall, times, setup = run_plain(runner, probe, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        tail, pct, n = _tail(times)
        detail.update(tail_percentile=pct, samples=n,
                      wall_job_p50_ms=1e3 * statistics.median(wall),
                      wall_jobs_per_s=n / math.fsum(wall),
                      ref_kernel_us=1e6 * statistics.median(probe.kernel_s),
                      ref_samples=len(probe.kernel_s))
    import checks  # mpmath and the oracles load only after the RSS reading

    if args.trace:
        jobs_by_id = {job_id: jobs[i] for ids in pass_jobs for i, job_id in enumerate(ids)}
        jobs_by_id.update({f"probe-{i}": {"potential": pot} for i, pot in enumerate(pots)})
        errs, capture_problems = checks.layer_errors(tracer.captured, jobs_by_id)
        trace_problems += capture_problems
        metrics = layer_metrics(tracer, plain, traced, pass_jobs, runner, errs)
        detail.update(passes=len(pass_jobs), trace_problems=trace_problems[:20])
        tracer.dump(WORK / f"{tag}.spans.jsonl")
    errors, bad = checks.check_artifacts(runner)
    max_err = max(errors.values()) if errors else None
    if not args.trace:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "job_p50_ms": (1e3 * statistics.median(times), "ms"),
            "job_tail_ms": (1e3 * tail, "ms"),
            "jobs_per_s": (n / math.fsum(times), "1/s"),
            # no artifact to check leaves nothing to measure; correct is false then
            "err_digits": (-math.log10(max(max_err, 5e-324)) if errors else 0.0, "digits"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    failed = sum(1 for i in runner.executions if i in bad) + sum(
        1 for i, _ in runner.failed_runs if i not in bad)
    detail.update(max_err=max_err, errors=errors,
                  oracle_failures={str(k): v for k, v in bad.items()},
                  run_failures=runner.failed_runs[:20])
    final = {"correct": failed == 0 and bool(errors) and not trace_problems,
             "attempted": len(runner.executions), "failed": failed,
             "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = dict(detail, job_times_s=times, job_wall_s=wall, job_order=runner.executions,
                  artifact_sha256=runner.digests, **final)
    (WORK / f"{tag}.result.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
