"""Independent oracles for the benchmark's correctness checks.

Nothing here imports slrestore: moments come from closed forms (elementary
per table segment, Gauss hypergeometric for power laws and tails), m_inf
from exact Airy transfer matrices, V(z) of the worked example from
gamma + (-z)^(-1/2), and (h, mu) from the restoration formulas evaluated in
extended precision.  Errors are relative, so one tolerance per quantity
serves every seed.

Each ``check_*`` takes a job and its artifact bytes and returns
``(errors, problems)``: the largest relative error per quantity and a list
of contract violations (wrong flags, missing rows, malformed output).
"""
from __future__ import annotations

import csv
import io
import json
import math

import mpmath as mp
import numpy as np

DPS = 30

#: Largest relative error accepted per quantity before a job counts as failed.
TOLERANCE = {"V": 1e-9, "moments": 1e-10, "h": 1e-10, "mu": 1e-10, "alpha": 1e-10}


def rel_err(x, ref) -> float:
    ref_abs = abs(ref)
    return float(abs(x - ref) / (ref_abs if ref_abs > 0 else 1))


# -- moments ----------------------------------------------------------------

def _pow_integral(e, x, kernel):
    """integral_0^x t**e K(t) dt for e > -1; kernel 'a' = 1/(1+t), 'i2' = 1/(1+t^2)."""
    if x == 0:
        return mp.mpf(0)
    lead = x ** (e + 1) / (e + 1)
    if kernel == "a":
        return lead * mp.hyp2f1(1, e + 1, e + 2, -x)
    half = (e + 1) / 2
    return lead * mp.hyp2f1(1, half, half + 1, -x * x)


def moments(measure: dict) -> dict:
    """Exact a = int 1/(1+t), b = int 1/t, i2 = int 1/(1+t^2) against sigma."""
    with mp.workdps(DPS):
        a = b = i2 = mp.mpf(0)
        for atom in measure.get("atoms", ()):
            t, w = mp.mpf(atom["t"]), mp.mpf(atom["w"])
            a += w / (1 + t)
            b += w / t
            i2 += w / (1 + t * t)
        for p in measure.get("pieces", ()):
            if p.get("kind") == "table":
                knots = [mp.mpf(x) for x in p["knots"]]
                vals = [mp.mpf(x) for x in p["values"]]
                for t0, t1, v0, v1 in zip(knots, knots[1:], vals, vals[1:]):
                    q = (v1 - v0) / (t1 - t0)
                    c = v0 - q * t0  # density c + q t on [t0, t1]
                    a += q * (t1 - t0) + (c - q) * mp.log((1 + t1) / (1 + t0))
                    i2 += c * (mp.atan(t1) - mp.atan(t0)) + q / 2 * mp.log((1 + t1 ** 2) / (1 + t0 ** 2))
                    if t0 == 0 and c > 0:
                        b = mp.inf
                    else:
                        b += q * (t1 - t0) + (c * mp.log(t1 / t0) if c != 0 else 0)
                continue
            c, e = mp.mpf(p["coeff"]), mp.mpf(-0.5 if p["kind"] == "inverse_sqrt" else p["exponent"])
            lo, hi = mp.mpf(p["lo"]), mp.mpf(p["hi"])
            a += c * (_pow_integral(e, hi, "a") - _pow_integral(e, lo, "a"))
            i2 += c * (_pow_integral(e, hi, "i2") - _pow_integral(e, lo, "i2"))
            if lo == 0 and e <= 0:
                b = mp.inf
            elif e == 0:
                b += c * mp.log(hi / lo)
            else:
                b += c * (hi ** e - lo ** e) / e
        tail = measure.get("tail")
        if tail is not None:
            # u = 1/t maps [T, inf) onto (0, 1/T]: t^-s dt/(1+t) = u^(s-1) du/(1+u)
            T, c, s = mp.mpf(tail["T"]), mp.mpf(tail["coeff"]), mp.mpf(tail["exponent"])
            a += c * _pow_integral(s - 1, 1 / T, "a")
            i2 += c * _pow_integral(s, 1 / T, "i2")
            b += c * T ** (-s) / s
        return {"a": a, "b": b, "i2": i2}


# -- Weyl function ----------------------------------------------------------

def _decay_root(z):
    k = mp.sqrt(z)
    return -k if (k.imag < 0 or (k.imag == 0 and k.real < 0)) else k


def _const_step(y, dy, q, lam, d):
    """Exact propagation over a step d of -y'' + q y = lam y with constant q."""
    kappa = mp.sqrt(q - lam)
    if kappa == 0:
        return y + dy * d, dy
    ch, sh = mp.cosh(kappa * d), mp.sinh(kappa * d)
    return y * ch + dy * sh / kappa, y * kappa * sh + dy * ch


def _airy_step(y1, dy1, x0, x1, q0, q1, lam):
    """Exact propagation from x1 back to x0 with q linear from q0 to q1."""
    s = (q1 - q0) / (x1 - x0)
    c = mp.cbrt(s) if s > 0 else -mp.cbrt(-s)
    xi0 = (q0 - lam) / c ** 2
    xi1 = xi0 + c * (x1 - x0)

    def fund(xi):
        return (mp.airyai(xi), mp.airybi(xi),
                c * mp.airyai(xi, derivative=1), c * mp.airybi(xi, derivative=1))

    ai1, bi1, dai1, dbi1 = fund(xi1)
    # inverse of [[Ai, Bi], [c Ai', c Bi']] uses the Wronskian Ai Bi' - Ai' Bi = 1/pi
    A = mp.pi / c * (dbi1 * y1 - bi1 * dy1)
    B = mp.pi / c * (-dai1 * y1 + ai1 * dy1)
    ai0, bi0, dai0, dbi0 = fund(xi0)
    return A * ai0 + B * bi0, A * dai0 + B * dbi0


def weyl_m(potential: dict, lam) -> complex:
    """m_inf(lambda) = -y'(a)/y(a) for the decaying solution, to DPS digits.

    Beyond the cutoff q = q_inf, so y = e^{ik(x - cutoff)} there exactly;
    [grid[-1], cutoff] carries the constant value values[-1] and every grid
    cell a linear q, each propagated by its exact transfer matrix.  At
    lambda = 0 with q_inf = 0 this is the zero-energy solution (1, 0), whose
    log-derivative is m_inf(-0).
    """
    with mp.workdps(DPS):
        lam = mp.mpc(lam)
        q = potential["q"]
        kind = q["kind"]
        q_inf = mp.mpf(q.get("q_inf", 0.0) if kind == "table" else q.get("value", 0.0))
        k = _decay_root(lam - q_inf)
        y, dy = mp.mpc(1), 1j * k
        if kind == "table":
            grid = [mp.mpf(x) for x in q["grid"]]
            vals = [mp.mpf(x) for x in q["values"]]
            y, dy = _const_step(y, dy, vals[-1], lam, grid[-1] - mp.mpf(q["cutoff"]))
            for i in range(len(grid) - 2, -1, -1):
                if vals[i] == vals[i + 1]:
                    y, dy = _const_step(y, dy, vals[i], lam, grid[i] - grid[i + 1])
                else:
                    y, dy = _airy_step(y, dy, grid[i], grid[i + 1], vals[i], vals[i + 1], lam)
        return complex(-dy / y)


# -- restoration algebra ----------------------------------------------------

def h_exact(b, gamma, theta, m, xi):
    """(h, mu) from the restoration formulas in extended precision (numpy arrays)."""
    ld = np.longdouble
    g = np.asarray(gamma, dtype=ld)
    s = 1 + g * g
    if math.isinf(float(b)):
        re0, num = -ld(m), ld(xi)
    else:
        re0, num = ld(theta), (ld(theta) + ld(m)) * ld(b)
    h_re, h_im = re0 + g * num / s, num / s
    with np.errstate(divide="ignore"):
        mu = np.where(g == 0, np.inf, h_re + h_im / np.where(g == 0, 1, g))
    return h_re, h_im, mu


def h_errors(h_re, h_im, mu, ref_re, ref_im, ref_mu, gamma) -> dict:
    """Largest relative errors of h and mu; mu is scaled by |Re h| + |Im h / gamma|."""
    ld = np.longdouble
    h_re, h_im = np.asarray(h_re, dtype=ld), np.asarray(h_im, dtype=ld)
    g = np.asarray(gamma, dtype=ld)
    h_err = np.hypot(h_re - ref_re, h_im - ref_im) / np.hypot(ref_re, ref_im)
    mu = np.asarray(mu, dtype=ld)
    finite = g != 0
    bad_inf = int(np.sum(np.isinf(mu) != ~finite))
    gf = g[finite]
    scale = np.abs(ref_re[finite]) + np.abs(ref_im[finite] / gf)
    mu_err = np.abs(mu[finite] - ref_mu[finite]) / scale
    return {"h": float(np.max(h_err)),
            "mu": float(np.max(mu_err)) if mu_err.size else 0.0,
            "mu_inf_mismatch": bad_inf}


def _ld(x):
    return np.longdouble(mp.nstr(x, DPS + 5)) if not mp.isinf(x) else np.longdouble("inf")


def _operator_exact(job: dict, mom: dict):
    op = job["operator"]
    m = op["m"]
    if mp.isinf(mom["b"]):
        return math.inf, -m, m, _ld(mom["i2"] / mp.mpf(op["c"]))
    return _ld(mom["b"]), op["theta"], m, None


# -- per-command artifact checks ----------------------------------------------

def check_verify(job: dict, artifact: bytes):
    """V_in and V_model against gamma + (-z)^(-1/2) (worked example only)."""
    rep = json.loads(artifact)
    problems = []
    if rep.get("pass") is not True:
        problems.append("verify report does not pass")
    if not rep.get("samples"):
        problems.append("verify report has no samples")
    gamma = job["gamma"]
    err = 0.0
    with mp.workdps(DPS):
        for smp in rep.get("samples", ()):
            z = mp.mpc(smp["z_re"], smp["z_im"])
            ref = gamma + 1 / mp.sqrt(-z)
            for key in ("V_in", "V_model"):
                err = max(err, rel_err(mp.mpc(*smp[key]), ref))
    return {"V": err}, problems


def check_moments(job: dict, artifact: bytes, mom: dict):
    out = json.loads(artifact)
    errs = {"moments": max(rel_err(mp.mpf(out["a"]), mom["a"]),
                           rel_err(mp.mpf(out["i2"]), mom["i2"]),
                           b_err(out["b"], mom["b"]))}
    return errs, []


def b_err(cell, ref) -> float:
    if mp.isinf(ref) or cell == "inf":
        return 0.0 if (cell == "inf") == bool(mp.isinf(ref)) else math.inf
    return rel_err(mp.mpf(cell), ref)


def check_classify(job: dict, artifact: bytes, mom: dict):
    out = json.loads(artifact)
    problems = []
    kind = "SL0K" if mp.isinf(mom["b"]) else "SL01K"
    if out["class"] != kind:
        problems.append(f"classify: class {out['class']} != {kind}")
    if out["stieltjes"] != (job["gamma"] >= 0):
        problems.append("classify: wrong Stieltjes flag")
    return {"moments": b_err(out["b"], mom["b"])}, problems


def _sector(b, gamma, q):
    """(accretive, alpha or label) per gamma from the closed forms."""
    if q is None:
        acc = gamma >= 0
        alpha = np.where(gamma > 0, np.arctan(1 / np.where(gamma > 0, gamma, 1)), np.nan)
        label = np.where(gamma > 0, "", np.where(gamma == 0, "extremal", "none"))
    else:
        acc = q >= 0
        alpha = np.where(q > 0, np.arctan(b / np.where(q > 0, q, 1)), np.nan)
        label = np.where(q > 0, "", np.where(q == 0, "extremal", "none"))
    return acc, alpha, label


def _quadratic(b, gamma):
    """gamma^2 + b gamma + 1 in extended precision; None when b = inf."""
    if math.isinf(float(b)):
        return None
    g = np.asarray(gamma, dtype=np.longdouble)
    return g * g + g * b + 1


def check_restore(job: dict, artifact: bytes, mom: dict):
    out = json.loads(artifact)
    b, theta, m, xi = _operator_exact(job, mom)
    gamma = np.array([job["gamma"]])
    ref_re, ref_im, ref_mu = h_exact(b, gamma, theta, m, xi)
    mu = math.inf if out["mu"] == "inf" else out["mu"]
    errs = h_errors([out["h_re"]], [out["h_im"]], [mu], ref_re, ref_im, ref_mu, gamma)
    problems = []
    if errs.pop("mu_inf_mismatch"):
        problems.append("restore: mu infinite iff gamma = 0 violated")
    errs["moments"] = b_err(out["b"], mom["b"])
    acc, _, _ = _sector(b, gamma, _quadratic(b, gamma))
    if out["accretive"] != bool(acc[0]):
        problems.append("restore: wrong accretivity flag")
    return errs, problems


def check_sweep(job: dict, artifact: bytes, mom: dict):
    text = artifact.decode()
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    cols = list(zip(*reader))
    problems = []
    lo, hi, n = job["gamma_range"]
    if not cols or len(cols[0]) != n:
        return {}, [f"sweep: expected {n} rows"]
    c = dict(zip(header, cols))
    gamma = np.array([float(x) for x in c["gamma"]])
    if gamma[0] != min(lo, hi) or gamma[-1] != max(lo, hi) or np.any(np.diff(gamma) < 0):
        problems.append("sweep: gamma column is not the sorted requested range")
    b, theta, m, xi = _operator_exact(job, mom)
    ref_re, ref_im, ref_mu = h_exact(b, gamma, theta, m, xi)
    errs = h_errors([float(x) for x in c["h_re"]], [float(x) for x in c["h_im"]],
                    [float(x) for x in c["mu"]], ref_re, ref_im, ref_mu, gamma)
    if errs.pop("mu_inf_mismatch"):
        problems.append("sweep: mu infinite iff gamma = 0 violated")
    q = _quadratic(b, gamma)
    acc, alpha, label = _sector(b, gamma, q)
    # flags are decided by a sign test; skip rows within rounding of a root
    clear = np.ones_like(gamma, dtype=bool) if q is None else np.abs(q) > 1e-9
    got_acc = np.array([x == "1" for x in c["accretive"]])
    if np.any((got_acc != acc) & clear):
        problems.append("sweep: wrong accretivity flag")
    cell = np.array(c["alpha_rad"])
    numeric = (label == "") & clear
    labelled = (label != "") & clear
    if np.any(cell[labelled] != label[labelled]):
        problems.append("sweep: wrong sectoriality label")
    try:
        got = cell[numeric].astype(float)
    except ValueError:
        return errs, problems + ["sweep: sectoriality angle missing"]
    ref = alpha[numeric]
    errs["alpha"] = float(np.max(np.abs(got - ref) / ref)) if ref.size else 0.0
    return errs, problems
