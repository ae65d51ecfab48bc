"""Batch front-end: JSON job files in, JSON/CSV artifacts out.

One job per invocation; all configuration lives in the job file so that
runs are reproducible byte for byte.  Exit codes: 0 success, 2 validation
error, 3 numerical failure, 4 verification failure.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import Iterator, Optional

import numpy as np

from .errors import SlrestoreError, ValidationError
from .measure import JsonField, classify, measure_from_json, moments
from .pipeline import restoration_data, run_restore, run_verify
from .restore import sweep
from .stieltjes import log_polar_grid
from .weyl import ODE_TOL, HalfLinePotential, OperatorData, WeylEvaluator, weyl_m

COMMANDS = ("classify", "moments", "restore", "sweep", "verify", "weyl")

#: Largest row count a gamma_range may ask for; checked before any allocation.
MAX_GAMMA_ROWS = 1_000_000


def _fmt(x: float):
    """Shortest round-trip decimal; infinities become the strings 'inf' and '-inf'."""
    return repr(x) if isinstance(x, float) and math.isinf(x) else x


def _json_artifact(obj) -> list:
    """A JSON artifact: one chunk, one line with sorted keys."""
    return [(json.dumps(obj, sort_keys=True, allow_nan=False) + "\n").encode()]


#: Rows per CSV chunk.  A row is at most 177 bytes (seven 24-character floats), so a
#: chunk's text and its bytes stay under glibc's 128 kB mmap threshold (50-72 kB on the
#: quad-sweep sweeps; 1024 rows reach 143 kB) and each chunk reuses the heap that the one
#: before freed: a warm 4000-row sweep job takes no minor page fault, against about 300
#: with the whole CSV built at once.
CSV_CHUNK_ROWS = 512


def _cells(values: np.ndarray, labels) -> list:
    """The text of one chunk of a column.  Each (mask, label) pair fills its cells; every
    distinct bit pattern among the other values is formatted once with repr (= str, so
    -0.0, inf and nan keep their text)."""
    cells, shown = np.empty(values.size, object), np.ones(values.size, bool)
    for mask, label in labels:
        cells[mask], shown[mask] = label, False
    keys, inverse = np.unique(values[shown].view(f"i{values.itemsize}"), return_inverse=True)
    cells[shown] = np.array([*map(repr, keys.view(values.dtype).tolist())], object)[inverse]
    return cells.tolist()


def _csv_artifact(header, columns) -> Iterator[bytes]:
    """A CSV artifact: the header line, then the rows in chunks of CSV_CHUNK_ROWS lines.  A
    column is a numpy array, or (array, [(mask, label), ...]) where boolean masks over the
    rows put labels in place of values."""
    yield (",".join(header) + "\n").encode()
    columns = [col if isinstance(col, tuple) else (col, ()) for col in columns]
    for i in range(0, columns[0][0].size, CSV_CHUNK_ROWS):
        rows = slice(i, i + CSV_CHUNK_ROWS)
        cells = [_cells(values[rows], [(mask[rows], label) for mask, label in labels])
                 for values, labels in columns]
        yield "\n".join([*map(",".join, zip(*cells)), ""]).encode()


def _load_job(path: str, command: str) -> JsonField:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            job = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cli: cannot read job file: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, bad UTF-8, an int of > 4300 digits
        raise ValidationError(f"cli: malformed job JSON: {exc}") from exc
    if not isinstance(job, dict):
        raise ValidationError("cli: job file must contain a JSON object")
    if job.get("gamma") is not None and job.get("gamma_range") is not None:
        raise ValidationError("cli: exactly one of gamma / gamma_range is required")
    if "tolerances" in job:  # refused, not ignored: the tolerances are fixed constants
        raise ValidationError("tolerances: not a job field; the tolerances are fixed "
                              "(weyl.ODE_TOL, system.VERIFY_TOL)")
    declared = job.get("command")
    if declared is not None and declared != command:
        raise ValidationError(
            f"cli: job declares command {declared!r} but {command!r} was invoked"
        )
    return JsonField(job)


def _gammas(job: JsonField) -> np.ndarray:
    lo, hi, n = job["gamma_range"].items(3)
    n.expect(type(n.value) is int and 0 < n.value <= MAX_GAMMA_ROWS,
             f"a row count in [1, {MAX_GAMMA_ROWS}]")
    return np.linspace(lo.number(), hi.number(), n.value)


def _potential(job: JsonField, needed_by: str = "") -> Optional[HalfLinePotential]:
    """The job's potential; None if absent, unless needed_by names a use."""
    node = job.get("potential")
    if node.value is None:
        if needed_by:
            raise ValidationError(f"cli: {needed_by} requires a potential")
        return None
    q = node["q"]
    kind = q["kind"].value
    a = node.get("a", 0.0).number()
    if kind == "zero":
        return HalfLinePotential(a=a, kind="zero")
    if kind == "constant":
        return HalfLinePotential(a=a, kind="constant", value=q["value"].number())
    if kind == "table":
        return HalfLinePotential(
            a=a, kind="table", grid=q["grid"].numbers(), values=q["values"].numbers(),
            cutoff=q["cutoff"].number(), q_inf=q.get("q_inf", 0.0).number())
    raise ValidationError(f"{q.path}.kind: unknown potential kind {kind!r}")


def _operator(job: JsonField) -> Optional[OperatorData]:
    node = job.get("operator")
    if node.value is None:
        return None
    m = node["m"].number()  # the rest may be derived
    return OperatorData(theta=node.get("theta", -m).number(), m=m,
                        c=node.get("c").number(optional=True),
                        xi=node.get("xi").number(optional=True))


def _output(job: JsonField) -> Optional[str]:
    path = job.get("output", {}).get("path")
    path.expect(isinstance(path.value, (str, type(None))), "a string")
    return path.value


# -- command implementations -------------------------------------------------

def _cmd_classify(job: JsonField) -> list:
    # looked up per call, so that a wrapper on measure.integrate_weighted applies
    from .measure import integrate_weighted

    sigma = measure_from_json(job["measure"])
    gamma = job["gamma"].number()
    tag = classify(sigma, gamma)
    b, _ = integrate_weighted(sigma, 0.0)  # R(0) = b
    return _json_artifact({"class": tag.kind, "stieltjes": tag.stieltjes,
                           "gamma": gamma, "b": _fmt(b.real)})


def _cmd_moments(job: JsonField) -> list:
    mom = moments(measure_from_json(job["measure"]))
    return _json_artifact({"a": mom.a, "b": _fmt(mom.b), "i2": mom.i2,
                           "err_a": mom.err_a, "err_b": _fmt(mom.err_b),
                           "err_i2": mom.err_i2})


def _cmd_restore(job: JsonField) -> list:
    sigma = measure_from_json(job["measure"])
    gamma = job["gamma"].number()
    result = run_restore(sigma, gamma, operator=_operator(job), potential=_potential(job))
    r, s = result.restored, result.restored.sectoriality
    return _json_artifact({
        "h_re": r.h.real, "h_im": r.h.imag, "mu": _fmt(r.mu),
        "gamma": r.gamma, "alpha_rad": s.alpha, "accretive": s.accretive, "strict": s.strict,
        "sectorial": s.kind == "sectorial", "extremal": s.kind == "extremal",
        "class": result.class_tag.kind, "stieltjes": result.class_tag.stieltjes,
        "b": _fmt(result.moments.b),
        "theta": result.operator.theta, "m": result.operator.m,
        "c": result.operator.c, "xi": result.operator.xi,
    })


def _cmd_sweep(job: JsonField) -> Iterator[bytes]:
    sigma = measure_from_json(job["measure"])
    gammas = _gammas(job)
    # classified as for restore; the tag itself has no column (its Stieltjes flag is per gamma)
    _, mom, od = restoration_data(sigma, gammas[0], _operator(job), _potential(job))
    s = sweep(mom.b, od.theta, od.m, od.xi, gammas)
    # the angle, or the label where none exists; no eta where it is undefined
    alpha = (s.alpha, [(s.sector == 1, "extremal"), (s.sector == 0, "none")])
    eta = (s.eta_residual, [(np.isnan(s.eta_residual), "")])
    header = ["gamma", "h_re", "h_im", "mu", "alpha_rad", "accretive",
              "circle_residual", "eta_residual"]
    return _csv_artifact(header, [s.gamma, s.h_re, s.h_im, s.mu, alpha,
                                  (s.sector > 0).view(np.int8), s.circle_residual, eta])


def _cmd_verify(job: JsonField):
    sigma = measure_from_json(job["measure"])
    gamma = job["gamma"].number()
    return run_verify(sigma, gamma, _potential(job, needed_by="verify"), operator=_operator(job))


def _cmd_weyl(job: JsonField) -> Iterator[bytes]:
    ev = WeylEvaluator(potential=_potential(job, needed_by="weyl"))
    if (node := job.get("lambdas")).value is not None:
        points = node.items()
        node.expect(bool(points), "a non-empty list")
        lams = [complex(*p.numbers(2)) for p in points]
    else:
        lams = log_polar_grid(n_radius=5, n_angle=4)
    m = []
    for i, x in enumerate(lams):
        try:
            m.append(weyl_m(ev, x))
        except ValidationError as exc:  # only a lambda without a decaying solution
            raise ValidationError(f"lambdas[{i}]: {exc}") from exc
    lam, m = np.array(lams, dtype=complex), np.array(m, dtype=complex)
    err = 10.0 * ODE_TOL * (1.0 + np.hypot(m.real, m.imag))  # hypot: abs of a complex
    return _csv_artifact(["lambda_re", "lambda_im", "m_re", "m_im", "err_est"],
                         [lam.real, lam.imag, m.real, m.imag, err])


_IMPL = {name: globals()[f"_cmd_{name}"] for name in COMMANDS}


@functools.cache
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
        job_out = _output(job)  # checked even when --out overrides it
        out_path = args.out or job_out
        if out_path is None:
            raise ValidationError("cli: no output path (job 'output.path' or --out)")
        report = _IMPL[args.command](job)  # a VerifyReport for verify, else the artifact
        chunks = _json_artifact(report.to_json()) if args.command == "verify" else report
        try:  # the one write path: every artifact is an iterable of byte chunks
            with open(out_path, "wb") as fh:
                fh.writelines(chunks)
        except OSError as exc:
            raise ValidationError(f"output: cannot write {out_path}: {exc}") from exc
    except ValidationError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except SlrestoreError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    if args.command == "verify" and not report.passed:
        if not args.quiet:
            print(f"verify: FAIL (max residual {report.max_residual:.3e}) -> {out_path}")
        return 4
    if not args.quiet:
        print(f"{args.command}: ok -> {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
