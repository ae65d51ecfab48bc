"""Batch front-end: JSON job files in, JSON/CSV artifacts out.

One job per invocation; all configuration lives in the job file so that
runs are reproducible byte for byte.  Exit codes: 0 success, 2 validation
error, 3 numerical failure, 4 verification failure.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import SlrestoreError, ValidationError
from .measure import classify, json_number, measure_from_json, moments
from .pipeline import run_restore, run_verify
from .restore import sweep
from .stieltjes import log_polar_grid
from .weyl import HalfLinePotential, OperatorData, WeylEvaluator, weyl_m

COMMANDS = ("classify", "moments", "restore", "sweep", "verify", "weyl")

#: Largest row count a gamma_range may ask for; checked before any allocation.
MAX_GAMMA_ROWS = 1_000_000


def _fmt(x: float):
    """Shortest round-trip decimal; infinities become the string 'inf'."""
    if isinstance(x, float) and math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n").encode()


def _csv_bytes(header, rows) -> bytes:
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    return buf.getvalue().encode()


def _load_job(path: str, command: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            job = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cli: cannot read job file: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, bad UTF-8, an int of > 4300 digits
        raise ValidationError(f"cli: malformed job JSON: {exc}") from exc
    if not isinstance(job, dict):
        raise ValidationError("cli: job file must contain a JSON object")
    _check_finite(job, "job")
    if "gamma" in job and "gamma_range" in job:
        raise ValidationError("cli: exactly one of gamma / gamma_range is required")
    declared = job.get("command")
    if declared is not None and declared != command:
        raise ValidationError(
            f"cli: job declares command {declared!r} but {command!r} was invoked"
        )
    return job


def _check_finite(obj, path: str) -> None:
    """Reject NaN and infinite numbers (json reads NaN, Infinity and 1e999)."""
    if isinstance(obj, float) and not math.isfinite(obj):
        raise ValidationError(f"cli: {path}: non-finite number {obj!r}")
    items = obj.items() if isinstance(obj, dict) else (
        enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        _check_finite(value, f"{path}.{key}")


@contextlib.contextmanager
def _field(name: str):
    """Report a missing key or a value of the wrong type in job[name] as exit 2."""
    try:
        yield
    except KeyError as exc:
        raise ValidationError(f"cli: {name}: missing key {exc}") from exc
    except (AttributeError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"cli: {name}: {exc}") from exc


def _job_gamma(job: dict) -> float:
    with _field("gamma"):
        return json_number(job["gamma"])


def _job_gammas(job: dict) -> list:
    with _field("gamma_range"):
        lo, hi, n = job["gamma_range"]
        if isinstance(n, bool) or not isinstance(n, int) or not 0 < n <= MAX_GAMMA_ROWS:
            raise ValueError(f"row count must be an integer in [1, {MAX_GAMMA_ROWS}], "
                             f"got {n!r}")
        return [float(g) for g in np.linspace(json_number(lo), json_number(hi), n)]


def _job_measure(job: dict):
    with _field("measure"):
        return measure_from_json(job["measure"])


def _job_potential(job: dict) -> Optional[HalfLinePotential]:
    obj = job.get("potential")
    if obj is None:
        return None
    with _field("potential"):
        q = obj["q"]
        kind = q["kind"]
        a = json_number(obj.get("a", 0.0))
        if kind == "zero":
            return HalfLinePotential(a=a, kind="zero")
        if kind == "constant":
            return HalfLinePotential(a=a, kind="constant", value=json_number(q["value"]))
        if kind == "table":
            return HalfLinePotential(
                a=a, kind="table",
                grid=tuple(json_number(x) for x in q["grid"]),
                values=tuple(json_number(x) for x in q["values"]),
                cutoff=json_number(q["cutoff"]),
                q_inf=json_number(q.get("q_inf", 0.0)))
        raise ValidationError(f"cli: unknown potential kind {kind!r}")


def _job_operator(job: dict) -> Optional[OperatorData]:
    obj = job.get("operator")
    if obj is None:
        return None
    with _field("operator"):  # m is required; the rest may be derived
        m = json_number(obj["m"])
        return OperatorData(theta=json_number(obj.get("theta", -m)), m=m,
                            c=(None if obj.get("c") is None else json_number(obj["c"])),
                            xi=(None if obj.get("xi") is None else json_number(obj["xi"])))


def _job_evaluator(job: dict, potential) -> Optional[WeylEvaluator]:
    if potential is None:
        return None
    with _field("tolerances"):
        ode_tol = json_number(job.get("tolerances", {}).get("ode", 1e-10))
    return WeylEvaluator(potential=potential, ode_tol=ode_tol)


def _job_output(job: dict) -> Optional[str]:
    obj = job.get("output", {})
    if not isinstance(obj, dict) or not isinstance(obj.get("path", ""), str):
        raise ValidationError(f'cli: output: expected {{"path": <string>}}, got {obj!r}')
    return obj.get("path")


def _sectoriality_cell(sect):
    if sect.kind == "sectorial":
        return repr(sect.alpha)
    return "extremal" if sect.kind == "extremal" else "none"


# -- command implementations -------------------------------------------------

def _cmd_classify(job: dict) -> bytes:
    sigma = _job_measure(job)
    gamma = _job_gamma(job)
    tag = classify(sigma, gamma)
    mom = moments(sigma)
    return _json_bytes({"class": tag.kind, "stieltjes": tag.stieltjes,
                        "gamma": gamma, "b": _fmt(mom.b)})


def _cmd_moments(job: dict) -> bytes:
    mom = moments(_job_measure(job))
    return _json_bytes({"a": mom.a, "b": _fmt(mom.b), "i2": mom.i2,
                        "err_a": mom.err_a, "err_b": _fmt(mom.err_b),
                        "err_i2": mom.err_i2})


def _cmd_restore(job: dict) -> bytes:
    sigma = _job_measure(job)
    gamma = _job_gamma(job)
    potential = _job_potential(job)
    result = run_restore(sigma, gamma, operator=_job_operator(job),
                         potential=potential,
                         evaluator=_job_evaluator(job, potential))
    r = result.restored
    return _json_bytes({
        "h_re": r.h.real, "h_im": r.h.imag, "mu": _fmt(r.mu),
        "gamma": r.gamma,
        "alpha_rad": r.alpha if r.alpha is not None else None,
        "accretive": r.accretive, "strict": r.strict,
        "sectorial": r.sectorial, "extremal": r.extremal,
        "class": result.class_tag.kind, "stieltjes": result.class_tag.stieltjes,
        "b": _fmt(result.moments.b),
        "theta": result.operator.theta, "m": result.operator.m,
        "c": result.operator.c, "xi": result.operator.xi,
    })


def _cmd_sweep(job: dict) -> bytes:
    sigma = _job_measure(job)
    gammas = _job_gammas(job)
    potential = _job_potential(job)
    mom = moments(sigma)
    from .pipeline import resolve_operator_data

    od = resolve_operator_data(mom, _job_operator(job), potential,
                               _job_evaluator(job, potential))
    rows = sweep(mom.b, od.theta, od.m, od.xi, gammas)
    header = ["gamma", "h_re", "h_im", "mu", "alpha_rad", "accretive",
              "circle_residual", "eta_residual"]
    out = []
    for row in rows:
        out.append([repr(row.gamma), repr(row.h.real), repr(row.h.imag),
                    "inf" if math.isinf(row.mu) else repr(row.mu),
                    _sectoriality_cell(row.sectoriality),
                    1 if row.accretive else 0,
                    repr(row.circle_residual),
                    "" if math.isnan(row.eta_residual) else repr(row.eta_residual)])
    return _csv_bytes(header, out)


def _cmd_verify(job: dict) -> bytes:
    sigma = _job_measure(job)
    gamma = _job_gamma(job)
    potential = _job_potential(job)
    if potential is None:
        raise ValidationError("cli: verify requires a potential for the forward model")
    with _field("tolerances"):
        tol = json_number(job.get("tolerances", {}).get("verify", 1e-6))
    report = run_verify(sigma, gamma, potential, operator=_job_operator(job),
                        evaluator=_job_evaluator(job, potential), tol=tol)
    return _json_bytes(report.to_json())


def _cmd_weyl(job: dict) -> bytes:
    potential = _job_potential(job)
    if potential is None:
        raise ValidationError("cli: weyl requires a potential")
    ev = _job_evaluator(job, potential)
    if "lambdas" in job:
        with _field("lambdas"):
            lams = [complex(json_number(p[0]), json_number(p[1])) for p in job["lambdas"]]
    else:
        lams = log_polar_grid(n_radius=5, n_angle=4)
    rows = []
    for lam in lams:
        m = weyl_m(ev, lam)
        err = 10.0 * ev.ode_tol * (1.0 + abs(m))
        rows.append([repr(lam.real), repr(lam.imag), repr(m.real), repr(m.imag),
                     repr(err)])
    return _csv_bytes(["lambda_re", "lambda_im", "m_re", "m_im", "err_est"], rows)


_IMPL = {
    "classify": _cmd_classify,
    "moments": _cmd_moments,
    "restore": _cmd_restore,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
    "weyl": _cmd_weyl,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slrestore",
        description="Classify Stieltjes-like functions and restore the "
                    "boundary parameters of their realizing systems.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--job", required=True, help="path to the job JSON file")
        p.add_argument("--out", default=None, help="override the output path")
        p.add_argument("--quiet", action="store_true", help="suppress the summary line")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        job = _load_job(args.job, args.command)
        job_out = _job_output(job)  # checked even when --out overrides it
        out_path = args.out or job_out
        if out_path is None:
            raise ValidationError("cli: no output path (job 'output.path' or --out)")
        payload = _IMPL[args.command](job)
        try:
            Path(out_path).write_bytes(payload)
        except OSError as exc:
            raise ValidationError(f"cli: output: cannot write {out_path}: {exc}") from exc
    except ValidationError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except SlrestoreError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    if args.command == "verify":
        report = json.loads(payload)
        if not report["pass"]:
            if not args.quiet:
                print(f"verify: FAIL (max residual {report['max_residual']:.3e}) "
                      f"-> {out_path}")
            return 4
    if not args.quiet:
        print(f"{args.command}: ok -> {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
