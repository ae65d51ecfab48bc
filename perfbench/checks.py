"""Oracle checks of a run's artifacts and of values captured by the tracer.

Kept apart from ``run.py`` so that mpmath and the oracles are imported only
after the run has read its peak resident memory.
"""
from __future__ import annotations

import functools
import json
import math

import numpy as np

import oracles


@functools.lru_cache(maxsize=None)
def _moments_ref(measure_json: str) -> dict:
    return oracles.moments(json.loads(measure_json))


@functools.lru_cache(maxsize=None)
def _m_ref(potential_json: str, lam: complex) -> complex:
    return oracles.weyl_m(json.loads(potential_json), lam)


def _key(obj) -> str:
    return json.dumps(obj, sort_keys=True)


#: Artifact checks of the commands whose oracle needs the exact moments.
MOMENT_CHECKS = {"moments": oracles.check_moments, "classify": oracles.check_classify,
                 "restore": oracles.check_restore, "sweep": oracles.check_sweep}


def check_artifacts(runner):
    """Oracle errors per distinct job; returns (max error per quantity, bad jobs)."""
    errors = {}
    bad = {}
    for i, data in sorted(runner.artifacts.items()):
        job = runner.jobs[i]
        cmd = job["command"]
        try:
            if cmd == "verify":
                errs, problems = oracles.check_verify(job, data)
            else:
                errs, problems = MOMENT_CHECKS[cmd](job, data, _moments_ref(_key(job["measure"])))
        except (KeyError, ValueError, TypeError, IndexError) as exc:
            errs, problems = {}, [f"malformed artifact: {type(exc).__name__}: {exc}"]
        for name, err in errs.items():
            errors[name] = max(errors.get(name, 0.0), err)
            if not err <= oracles.TOLERANCE[name]:
                problems.append(f"{name} error {err:.3e} over {oracles.TOLERANCE[name]:.0e}")
        if problems:
            bad[i] = problems
    return errors, bad


def _capture_error(job, name, args, result):
    """(metric, relative error) of one value captured at a layer boundary."""
    if name == "measure.moments":
        ref = _moments_ref(_key(job["measure"]))
        b = "inf" if math.isinf(result.b) else result.b
        return "measure.moment_err", max(oracles.rel_err(result.a, ref["a"]),
                                         oracles.rel_err(result.i2, ref["i2"]),
                                         oracles.b_err(b, ref["b"]))
    if name == "weyl.weyl_m":
        ref = _m_ref(_key(job["potential"]), complex(args[1]))
        return "weyl.oracle_err", oracles.rel_err(result, ref)
    if name == "weyl.weyl_m_at_minus_zero":
        ref = _m_ref(_key(job["potential"]), 0j).real
        return "weyl.m0_err", abs(result - ref) / max(abs(ref), 1.0)
    if name == "restore.sweep":  # sweep(b, theta, m, xi, gammas) -> rows
        b, theta, m, xi = args[:4]
        gammas = [row.gamma for row in result]
        hs = [row.h for row in result]
        mus = [row.mu for row in result]
    else:  # restore_system(b, gamma, theta, m, xi, class_tag)
        b, gamma, theta, m, xi = args[:5]
        gammas, hs, mus = [gamma], [result.h], [result.mu]
    g = np.array(gammas)
    errs = oracles.h_errors([h.real for h in hs], [h.imag for h in hs], mus,
                            *oracles.h_exact(b, g, theta, m, xi), g)
    return "restore.h_err", max(errs["h"], errs["mu"])


def layer_errors(captured, jobs_by_id):
    """Largest oracle error per layer over the values captured in traced jobs.

    Returns (errors, problems).  A captured value that cannot be checked
    (the layer's interface changed) is a problem, which fails the run: its
    error would otherwise read as 0.
    """
    out = {"measure.moment_err": 0.0, "weyl.oracle_err": 0.0,
           "weyl.m0_err": 0.0, "restore.h_err": 0.0}
    problems = []
    for job_id, name, args, result in captured:
        try:
            metric, err = _capture_error(jobs_by_id[job_id], name, args, result)
        except (AttributeError, TypeError, ValueError, IndexError, KeyError) as exc:
            problems.append(f"{job_id} {name}: cannot check: {type(exc).__name__}: {exc}")
            continue
        out[metric] = max(out[metric], err)
    return out, problems
