"""Outside-in tracing of slrestore: wrappers installed from the benchmark.

The package modules import each other with ``from .x import y``, so a
function is reachable under several module namespaces.  ``SPEC`` lists
every binding a traced job goes through; ``Tracer.installed()`` replaces
each with a wrapper that records a span (job id, parent span, name, start,
end) and restores the originals on exit.  Nothing inside ``src/`` changes.

Per-row helpers inside ``restore`` (``restore_h``, ``accretivity``, ...)
are deliberately not wrapped: ``sweep`` calls them once per row, and a span
per call would cost more than the row itself.
"""
from __future__ import annotations

import contextlib
import importlib
import json
import time
from collections import defaultdict

import numpy as np

#: (module whose namespace is patched, attribute, span name).  A span's
#: layer is the part of its name before the dot.
SPEC = [
    # measure
    ("cli", "classify", "measure.classify"),
    ("cli", "moments", "measure.moments"),
    ("cli", "measure_from_json", "measure.measure_from_json"),
    ("pipeline", "classify", "measure.classify"),
    ("pipeline", "moments", "measure.moments"),
    ("stieltjes", "moments", "measure.moments"),
    ("stieltjes", "integrate_weighted", "measure.integrate_weighted"),
    ("measure", "integrate_weighted", "measure.integrate_weighted"),
    ("measure", "adaptive_gauss_legendre", "measure.adaptive_gauss_legendre"),
    # pipeline
    ("cli", "run_restore", "pipeline.run_restore"),
    ("cli", "run_verify", "pipeline.run_verify"),
    ("pipeline", "run_restore", "pipeline.run_restore"),
    ("pipeline", "resolve_operator_data", "pipeline.resolve_operator_data"),
    # stieltjes
    ("cli", "log_polar_grid", "stieltjes.log_polar_grid"),
    ("pipeline", "log_polar_grid", "stieltjes.log_polar_grid"),
    ("system", "eval_V", "stieltjes.eval_V"),
    ("stieltjes", "eval_V", "stieltjes.eval_V"),
    # weyl
    ("cli", "weyl_m", "weyl.weyl_m"),
    ("system", "weyl_m", "weyl.weyl_m"),
    ("weyl", "weyl_m", "weyl.weyl_m"),
    ("pipeline", "weyl_m_at_minus_zero", "weyl.weyl_m_at_minus_zero"),
    ("pipeline", "boundary_trace_constant", "weyl.boundary_trace_constant"),
    ("weyl", "solve_ivp", "weyl.solve_ivp"),
    # restore
    ("cli", "sweep", "restore.sweep"),
    ("pipeline", "restore_system", "restore.restore_system"),
    ("system", "quasi_kernel_eta", "restore.quasi_kernel_eta"),
    # system
    ("pipeline", "verify_realization", "system.verify_realization"),
    ("pipeline", "weyl_m_fn", "system.weyl_m_fn"),
    ("system", "impedance_V", "system.impedance_V"),
]

#: Span names whose arguments and results are kept for the layer oracles.
CAPTURED = {"measure.moments", "weyl.weyl_m", "weyl.weyl_m_at_minus_zero",
            "restore.restore_system", "restore.sweep"}

#: Spans each workload must produce (checked by run.py and selftest.py).
EXPECTED = {
    "verify-paper": {"cli.main", "pipeline.run_verify", "pipeline.run_restore",
                     "pipeline.resolve_operator_data", "measure.classify",
                     "measure.moments", "measure.integrate_weighted",
                     "measure.adaptive_gauss_legendre", "stieltjes.eval_V",
                     "weyl.weyl_m", "weyl.weyl_m_at_minus_zero", "weyl.solve_ivp",
                     "weyl.boundary_trace_constant", "restore.restore_system",
                     "system.verify_realization", "system.impedance_V"},
    "quad-sweep": {"cli.main", "measure.measure_from_json", "measure.classify",
                   "measure.moments", "measure.integrate_weighted",
                   "measure.adaptive_gauss_legendre", "pipeline.run_restore",
                   "pipeline.resolve_operator_data", "restore.restore_system",
                   "restore.sweep"},
}


class Tracer:
    """Spans and counters of traced jobs, kept in memory until ``dump``."""

    def __init__(self):
        self.spans = []  # (span id, parent id, job, name, t0, t1)
        self.captured = []  # (job, name, args, result)
        self.counts = defaultdict(lambda: defaultdict(int))  # job -> counter -> n
        self._stack = []
        self._job = None
        self._next_id = 0

    # -- recording ---------------------------------------------------------

    def _open(self):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, t0):
        t1 = time.perf_counter()
        self._stack.pop()
        self.spans.append((sid, parent, self._job, name, t0, t1))

    @contextlib.contextmanager
    def job(self, job_id, name="cli.main"):
        """Root span of one job; every span opened inside carries job_id."""
        self._job = job_id
        sid, parent = self._open()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._close(sid, parent, name, t0)
            self._job = None

    def _wrap(self, fn, name):
        tracer = self

        def counted(f):
            def g(t):
                tracer.counts[tracer._job]["kernel_evals"] += np.size(t)
                return f(t)
            return g

        def wrapper(*args, **kwargs):
            if name == "measure.adaptive_gauss_legendre" and args and callable(args[0]):
                args = (counted(args[0]),) + args[1:]
            sid, parent = tracer._open()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid, parent, name, t0)
            if name == "weyl.solve_ivp":
                tracer.counts[tracer._job]["rhs_evals"] += result.nfev
            if name in CAPTURED:
                tracer.captured.append((tracer._job, name, args, result))
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every SPEC binding; restore all on exit.

        A binding that no longer exists raises AttributeError: a layer that
        went untraced would report zero work and zero error.
        """
        saved = []
        try:
            for mod_name, attr, span in SPEC:
                mod = importlib.import_module(f"slrestore.{mod_name}")
                original = getattr(mod, attr)
                saved.append((mod, attr, original))
                setattr(mod, attr, self._wrap(original, span))
            yield
        finally:
            for mod, attr, original in reversed(saved):
                setattr(mod, attr, original)

    # -- reporting ---------------------------------------------------------

    def names_by_job(self):
        out = defaultdict(set)
        for _, _, job, name, _, _ in self.spans:
            out[job].add(name)
        return out

    def layer_totals(self, jobs):
        """Sums over the spans of ``jobs``.

        Returns (self time per layer, inclusive time per span name, calls
        per span name, work counters).  ``weyl_m`` calls made inside
        ``weyl_m_at_minus_zero`` are counted as ``weyl.weyl_m@m0``.
        """
        jobs = set(jobs)
        spans = [s for s in self.spans if s[2] in jobs]
        by_id = {s[0]: s for s in spans}
        child = defaultdict(float)
        for sid, parent, _, _, t0, t1 in spans:
            if parent is not None:
                child[parent] += t1 - t0
        self_s = defaultdict(float)
        incl_s = defaultdict(float)
        calls = defaultdict(int)
        for sid, parent, _, name, t0, t1 in spans:
            if name == "weyl.weyl_m" and self._under(by_id, parent, "weyl.weyl_m_at_minus_zero"):
                name = "weyl.weyl_m@m0"
            self_s[name.split(".")[0]] += (t1 - t0) - child[sid]
            incl_s[name] += t1 - t0
            calls[name] += 1
        counts = defaultdict(int)
        for job in jobs:
            for key, n in self.counts[job].items():
                counts[key] += n
        return self_s, incl_s, calls, counts

    @staticmethod
    def _under(by_id, parent, name):
        while parent is not None:
            span = by_id[parent]
            if span[3] == name:
                return True
            parent = span[1]
        return False

    def dump(self, path):
        """Write spans as JSON lines (times relative to the first span)."""
        base = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, job, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "job": job,
                                     "name": name, "start_s": t0 - base,
                                     "end_s": t1 - base}) + "\n")
