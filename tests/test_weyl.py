"""Tests for the Weyl-Titchmarsh solver.

Oracles: closed forms m(lambda) = -i sqrt(lambda - v) for zero/constant
potentials (branch Im sqrt > 0), sin/cos and piecewise cosh/sinh solutions
of the Cauchy problems, and, for a tabulated potential, an mpmath
Airy-function solution of a linear ramp plus its constant tail.
"""
from __future__ import annotations

import cmath
import json
import math
import types
import warnings

import mpmath
import numpy as np
import pytest

from slrestore import cli, weyl
from slrestore.errors import (
    NegativeQInf,
    NodeAtEndpoint,
    OdeStepFailure,
    Unsupported,
    ValidationError,
)
from slrestore.measure import Moments, measure_to_json
from slrestore.pipeline import resolve_operator_data
from slrestore.stieltjes import log_polar_grid
from slrestore.weyl import (
    HalfLinePotential,
    OperatorData,
    WeylEvaluator,
    boundary_trace_constant,
    solve_cauchy,
    weyl_m,
    weyl_m_at_minus_zero,
)


def _m_closed(lam: complex, v: float = 0.0) -> complex:
    k = cmath.sqrt(complex(lam) - v)
    if k.imag < 0:
        k = -k
    return -1j * k


@pytest.fixture(scope="module")
def const1_evaluator():
    return WeylEvaluator(potential=HalfLinePotential(kind="constant", value=1.0))


@pytest.fixture(scope="module")
def const4_evaluator():
    return WeylEvaluator(potential=HalfLinePotential(kind="constant", value=4.0))


# -- Cauchy problems ----------------------------------------------------------

def test_cauchy_lambda_zero(zero_potential):
    sol = solve_cauchy(zero_potential, 0.0, 1.0)
    assert abs(sol.phi1 - 1.0) < 1e-8
    assert abs(sol.dphi1 - 1.0) < 1e-8
    assert abs(sol.phi2 + 1.0) < 1e-8
    assert abs(sol.dphi2) < 1e-8
    assert abs(sol.wronskian - 1.0) < 1e-9


def test_cauchy_sin_cos_oracle(zero_potential):
    sol = solve_cauchy(zero_potential, 1.0, math.pi)
    assert abs(sol.phi1 - math.sin(math.pi)) < 1e-8
    assert abs(sol.dphi1 - math.cos(math.pi)) < 1e-8
    assert abs(sol.phi2 + math.cos(math.pi)) < 1e-8
    assert abs(sol.dphi2 - math.sin(math.pi)) < 1e-8


def test_cauchy_shift_invariance():
    p = HalfLinePotential(kind="constant", value=2.0)
    sol = solve_cauchy(p, 2.0, 1.0)  # l - q cancels: same as q=0, lambda=0
    assert abs(sol.phi1 - 1.0) < 1e-8
    assert abs(sol.phi2 + 1.0) < 1e-8


def test_cauchy_rejects_bad_endpoint(zero_potential):
    with pytest.raises(ValidationError):
        solve_cauchy(zero_potential, 1.0, 0.0)


def _constant_step(y, dy, q, lam, d):
    """(y, y') after a step d of -y'' + q y = lam y with constant q: cosh and sinh."""
    kappa = cmath.sqrt(q - lam)
    ch, sh = cmath.cosh(kappa * d), cmath.sinh(kappa * d)
    return y * ch + dy * sh / kappa, y * kappa * sh + dy * ch


@pytest.mark.parametrize("lam", [-1.0, 0.5 + 1.0j])
@pytest.mark.parametrize("x_end", [1.0, 2.0, 3.5], ids=["before", "at", "past"])
def test_cauchy_on_a_table_oracle(lam, x_end):
    # q = 0.75 on [0, 2], the cutoff, and q_inf = 2 beyond it
    p = HalfLinePotential(kind="table", grid=(0.0, 2.0), values=(0.75, 0.75),
                          cutoff=2.0, q_inf=2.0)
    sol = solve_cauchy(p, lam, x_end)
    got = (sol.phi1, sol.dphi1, sol.phi2, sol.dphi2)
    oracle = []
    for start in ((0.0, 1.0), (-1.0, 0.0)):
        y = _constant_step(*start, 0.75, lam, min(x_end, 2.0))
        oracle += _constant_step(*y, 2.0, lam, max(x_end - 2.0, 0.0))
    for g, o in zip(got, oracle):
        assert abs(g - o) <= 1e-8 * max(1.0, abs(o))


@pytest.mark.parametrize("x_end", [300.0, 600.0])
def test_cauchy_out_of_float_range_raises(x_end):
    # solutions grow like e^{sqrt(2) x}: at x = 300 they are finite but the
    # Wronskian's products overflow (a NaN drift), at x = 600 they overflow
    p = HalfLinePotential(kind="constant", value=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OdeStepFailure):
            solve_cauchy(p, -1.0, x_end)


def test_a_solution_out_of_float_range_is_refused(monkeypatch):
    # DOP853 accepts no step to a state that is not finite (the step's error estimate is
    # then NaN), so a real propagation fails with its step-size message first; a stub that
    # reports success with an overflowed state stands in for a solver that would accept one
    def overflowed(rhs, span, y, **kwargs):
        return types.SimpleNamespace(success=True, message="",
                                     y=np.array([[y[0], math.inf], [y[1], 1.0]]))

    monkeypatch.setattr(weyl, "solve_ivp", overflowed)
    with pytest.raises(OdeStepFailure, match="solution out of float range at x=8.0"):
        solve_cauchy(HalfLinePotential(kind="constant", value=1e4), -1.0, 8.0)


def test_wronskian_conservation(zero_potential, const1_evaluator):
    for p, lam in ((zero_potential, 2.0 + 1.0j),
                   (const1_evaluator.potential, -3.0),
                   (zero_potential, -0.25)):
        sol = solve_cauchy(p, lam, 20.0)
        scale = max(1.0, abs(sol.phi1 * sol.dphi2) + abs(sol.dphi1 * sol.phi2))
        assert abs(sol.wronskian - 1.0) <= 1e-9 * scale


# -- m function ---------------------------------------------------------------

def test_m_at_minus_four(zero_evaluator):
    assert abs(weyl_m(zero_evaluator, -4.0) - 2.0) < 1e-12


def test_m_at_minus_hundredth(zero_evaluator):
    assert abs(weyl_m(zero_evaluator, -0.01) - 0.1) < 1e-12


def test_m_at_i(zero_evaluator):
    expected = cmath.exp(-1j * math.pi / 4)
    assert abs(weyl_m(zero_evaluator, 1j) - expected) < 1e-12


def test_m_closed_form_grid(zero_evaluator, const1_evaluator, const4_evaluator):
    rng = np.random.default_rng(5)
    grid = [complex(rng.uniform(-5, 5), rng.uniform(0.1, 10)) for _ in range(20)]
    for ev, v in ((zero_evaluator, 0.0), (const1_evaluator, 1.0),
                  (const4_evaluator, 4.0)):
        for lam in grid:
            oracle = _m_closed(lam, v)
            assert abs(weyl_m(ev, lam) - oracle) / abs(oracle) < 1e-12


def test_m_rejects_points_without_decay(zero_evaluator):
    with pytest.raises(ValidationError):
        weyl_m(zero_evaluator, 4.0)  # inside the essential spectrum
    with pytest.raises(ValidationError):
        weyl_m(zero_evaluator, complex(math.nan, 1.0))


@pytest.mark.parametrize("q_inf, lam", [(1e308, -1e308), (-1e308, complex(1e308, 1e308))])
def test_m_rejects_lambda_minus_q_inf_out_of_float_range(q_inf, lam):
    # lambda - q_inf = -inf has the root inf*i, which passed for a decaying one (m = NaN);
    # inf + 1e308i read as having no decaying solution
    ev = WeylEvaluator(potential=HalfLinePotential(kind="constant", value=q_inf))
    with pytest.raises(ValidationError, match="out of float range"):
        weyl_m(ev, lam)


def test_reciprocal_m_herglotz_property(zero_evaluator, const1_evaluator):
    # With the sign convention pinned by m = -i sqrt(lambda) it is 1/m (the
    # impedance of the mu = inf system) that maps the upper half-plane into
    # itself, not m; this is what realizability of V(z) requires.
    rng = np.random.default_rng(11)
    grid = [complex(rng.uniform(-5, 5), rng.uniform(0.2, 8)) for _ in range(20)]
    for ev in (zero_evaluator, const1_evaluator):
        assert all((1.0 / weyl_m(ev, lam)).imag > 0 for lam in grid)


def test_m_conjugate_symmetry(zero_evaluator, const1_evaluator):
    for ev in (zero_evaluator, const1_evaluator):
        for lam in (1.0 + 2.0j, -2.0 + 0.5j):
            m_up = weyl_m(ev, lam)
            m_dn = weyl_m(ev, lam.conjugate())
            assert abs(m_dn - m_up.conjugate()) < 1e-8


@pytest.mark.parametrize("cutoff", [2.0, 7.0])
def test_m_independent_of_cutoff(cutoff):
    # a table that equals v everywhere is the constant potential v, wherever
    # its cutoff sits
    v = 0.75
    ev = WeylEvaluator(potential=HalfLinePotential(
        kind="table", grid=(0.0, 0.5, 2.0), values=(v, v, v), cutoff=cutoff, q_inf=v))
    for lam in (0.5j, 1.0 + 1.0j, -1.0 + 2.0j, 3.0 + 0.5j, -2.0):
        oracle = _m_closed(lam, v)
        assert abs(weyl_m(ev, lam) - oracle) / abs(oracle) < 1e-9
    assert abs(weyl_m_at_minus_zero(ev) - math.sqrt(v)) < 1e-9


# -- tabulated potential: Airy oracle ----------------------------------------

RAMP_X1 = 2.0
RAMP_CUTOFF = 3.0


def _ramp_potential(q0: float, q1: float, q_inf: float) -> HalfLinePotential:
    return HalfLinePotential(kind="table", grid=(0.0, RAMP_X1), values=(q0, q1),
                             cutoff=RAMP_CUTOFF, q_inf=q_inf)


def _airy_ramp_m(q0: float, q1: float, q_inf: float, lam: complex) -> complex:
    """-y'(0)/y(0) for q = q0 + s x on [0, x1], q1 on [x1, cutoff), q_inf beyond.

    y = e^{ik(x - cutoff)} beyond the cutoff (at k = 0 the zero-energy
    solution y = 1), trigonometric on the flat piece, and a_j u_j + a_l u_l on
    the ramp, where u_j(t) = Ai(w^j t), w = e^{2 pi i/3} (DLMF 9.2(iv)), t =
    c x + (q0 - lam)/c^2 and c^3 = s.  Of the three pairs (j, l) the one best
    conditioned at both ends of the ramp is used: with Ai and Bi, or a poor
    pair, the combination cancels by more digits than any fixed precision
    holds once |lam| is large.  The Wronskian of a pair is constant, read at
    t = 0: Ai(0) Ai'(0) (w^l - w^j); (a_j, a_l) come from Cramer's rule with it.
    """
    with mpmath.workdps(50):
        lam = mpmath.mpc(lam)
        k = mpmath.sqrt(lam - q_inf)
        if k.imag < 0:
            k = -k
        y, dy = mpmath.mpc(1), 1j * k
        w = mpmath.sqrt(lam - q1)
        d = mpmath.mpf(RAMP_X1) - RAMP_CUTOFF
        y, dy = (y * mpmath.cos(w * d) + dy * mpmath.sin(w * d) / w,
                 -y * w * mpmath.sin(w * d) + dy * mpmath.cos(w * d))
        s = (mpmath.mpf(q1) - q0) / RAMP_X1
        c = mpmath.cbrt(s) if s > 0 else -mpmath.cbrt(-s)
        t0 = (q0 - lam) / c ** 2
        t1 = t0 + c * RAMP_X1
        rot = [mpmath.expjpi(mpmath.mpf(2 * j) / 3) for j in range(3)]

        def u(j, t):  # u_j and its t-derivative
            return mpmath.airyai(rot[j] * t), rot[j] * mpmath.airyai(rot[j] * t, 1)

        def wronskian(j, l):
            return mpmath.airyai(0) * mpmath.airyai(0, 1) * (rot[l] - rot[j])

        def condition(j, l, t):
            (f, df), (g, dg) = u(j, t), u(l, t)
            return (abs(f * dg) + abs(df * g)) / abs(wronskian(j, l))

        j, l = min([(0, 1), (0, 2), (1, 2)],
                   key=lambda p: max(condition(*p, t0), condition(*p, t1)))
        (f, df), (g, dg) = u(j, t1), u(l, t1)
        dy = dy / c  # d/dt = (d/dx) / c
        a_j = (y * dg - dy * g) / wronskian(j, l)
        a_l = (f * dy - df * y) / wronskian(j, l)
        (f, df), (g, dg) = u(j, t0), u(l, t0)
        return complex(-c * (a_j * df + a_l * dg) / (a_j * f + a_l * g))


RAMPS = [(1.5, 0.5, 0.0), (0.2, 1.2, 0.8)]


@pytest.mark.parametrize("q0, q1, q_inf", RAMPS)
def test_table_m_airy_oracle(q0, q1, q_inf):
    # the default weyl grid reaches |lambda| = 1000, where Ai and Bi cancel
    ev = WeylEvaluator(potential=_ramp_potential(q0, q1, q_inf))
    lams = [0.3 + 0.4j, -2.0 + 0.5j, 1j, 3.0 + 2.0j, -1.0, 10.0 + 1.0j, *log_polar_grid(5, 4)]
    for lam in lams:
        oracle = _airy_ramp_m(q0, q1, q_inf, lam)
        assert abs(weyl_m(ev, lam) - oracle) / abs(oracle) < 1e-8


@pytest.mark.parametrize("q0, q1, q_inf", RAMPS)
def test_table_m_minus_zero_airy_oracle(q0, q1, q_inf):
    oracle = _airy_ramp_m(q0, q1, q_inf, 0.0).real
    m0 = weyl_m_at_minus_zero(WeylEvaluator(potential=_ramp_potential(q0, q1, q_inf)))
    assert abs(m0 - oracle) / abs(oracle) < 1e-8


def test_verify_job_on_a_table_airy_oracle(tmp_path, paper_measure):
    """A verify job sends the table m_inf through the forward model (DOP853 m_inf).

    At b = inf and gamma = 0 the explicit data theta = m = 0, c = 1/sqrt 2 give
    h = i i2/c = i (i2 = 1/sqrt 2) and mu = inf, so V_model = Im h/(m_inf + Re h).
    m = 0 is not the ramp's m_inf(-0), which keeps m_inf + Re h clear of the
    cancellation m_inf(z) - m_inf(-0) at small |z|.  The ramp's V is not the
    paper's 1/sqrt(-z): the job exits 4 and writes the report.
    """
    p = _ramp_potential(*RAMPS[1])
    job = {"measure": measure_to_json(paper_measure), "gamma": 0.0,
           "potential": {"a": p.a, "q": {"kind": "table", "grid": list(p.grid),
                                         "values": list(p.values), "cutoff": p.cutoff,
                                         "q_inf": p.q_inf}},
           "operator": {"theta": 0.0, "m": 0.0, "c": 1.0 / math.sqrt(2.0)}}
    job_path, out = tmp_path / "job.json", tmp_path / "verify.json"
    job_path.write_text(json.dumps(job))
    assert cli.main(["verify", "--job", str(job_path), "--out", str(out), "--quiet"]) == 4
    report = json.loads(out.read_text())
    assert report["pass"] is False and len(report["samples"]) == 20
    h = 1j
    for s in report["samples"]:
        m = _airy_ramp_m(*RAMPS[1], complex(s["z_re"], s["z_im"]))
        expected = h.imag / (m + h.real)
        assert abs(complex(*s["V_model"]) - expected) / abs(expected) < 1e-8


def test_m_minus_zero_negative_q_inf():
    for p in (HalfLinePotential(kind="constant", value=-1.0),
              _ramp_potential(1.5, 0.5, -0.25)):
        with pytest.raises(NegativeQInf, match="q_inf=.* < 0"):
            weyl_m_at_minus_zero(WeylEvaluator(potential=p))


def test_m_minus_zero_resonance_node():
    # q = -(pi/2)^2 on [0, 1), 0 beyond: the zero-energy solution cos(pi/2 (x - 1))
    # vanishes at a = 0
    w2 = (math.pi / 2) ** 2
    p = HalfLinePotential(kind="table", grid=(0.0, 1.0), values=(-w2, -w2), cutoff=1.0)
    with pytest.raises(NodeAtEndpoint):
        weyl_m_at_minus_zero(WeylEvaluator(potential=p))


# -- boundary limit m(-0) -----------------------------------------------------

def test_m_minus_zero_free(zero_evaluator):
    assert abs(weyl_m_at_minus_zero(zero_evaluator)) < 1e-12


def test_m_minus_zero_constant(const1_evaluator, const4_evaluator):
    assert abs(weyl_m_at_minus_zero(const1_evaluator) - 1.0) < 1e-12
    assert abs(weyl_m_at_minus_zero(const4_evaluator) - 2.0) < 1e-12


def test_m_monotone_near_zero(zero_evaluator):
    values = [weyl_m(zero_evaluator, -s).real for s in (1.0, 0.5, 0.25, 0.125)]
    assert all(b < a for a, b in zip(values, values[1:]))  # m(-s) ~ sqrt(s)


# -- boundary-trace constant --------------------------------------------------

def test_boundary_trace_free(zero_potential):
    assert boundary_trace_constant(zero_potential) == 1.0 / math.sqrt(2.0)


def test_boundary_trace_translation_invariant():
    assert boundary_trace_constant(HalfLinePotential(a=5.0)) == 1.0 / math.sqrt(2.0)


def test_boundary_trace_unsupported():
    p = HalfLinePotential(kind="table", grid=(0.0, 1.0), values=(0.5, 0.0),
                          cutoff=1.0)
    with pytest.raises(Unsupported):
        boundary_trace_constant(p)


# -- data validation ----------------------------------------------------------

def test_operator_data_validation():
    OperatorData(theta=0.0, m=0.0, c=1.0, xi=1.0)
    with pytest.raises(ValidationError):
        OperatorData(theta=-1.0, m=0.5)
    with pytest.raises(ValidationError):
        OperatorData(theta=0.0, m=0.0, c=-1.0)
    with pytest.raises(ValidationError):
        OperatorData(theta=0.0, m=0.0, xi=0.0)
    for bad in (dict(theta=0.0, m=math.nan), dict(theta=math.inf, m=0.0),
                dict(theta=0.0, m=0.0, c=math.nan), dict(theta=0.0, m=0.0, xi=math.nan),
                dict(theta=0.0, m=0.0, c=1.0, xi=math.inf)):
        name = next(k for k, v in bad.items() if not math.isfinite(v))
        with pytest.raises(ValidationError, match=f"{name} must be finite"):
            OperatorData(**bad)
    # m is required: None is refused as a non-finite m is, before any arithmetic on it
    mom = Moments(a=1.0, b=math.inf, i2=0.7, err_a=0.0, err_b=0.0, err_i2=0.0)
    with pytest.raises(ValidationError, match="m must be finite, got None"):
        OperatorData(theta=1.0, m=None)
    with pytest.raises(ValidationError, match="m must be finite, got None"):
        resolve_operator_data(mom, OperatorData(theta=None, m=None, c=0.7), None)


def test_potential_validation():
    with pytest.raises(ValidationError):
        HalfLinePotential(kind="mystery")
    with pytest.raises(ValidationError, match="zero potential must have q_inf = 0"):
        HalfLinePotential(kind="zero", q_inf=1.0)
    with pytest.raises(ValidationError, match="table grid/values size mismatch"):
        HalfLinePotential(kind="table", grid=(0.0, 1.0), values=(1.0, 0.0, 2.0), cutoff=1.0)
    with pytest.raises(ValidationError):
        HalfLinePotential(kind="constant", value=math.nan)
    with pytest.raises(ValidationError):
        HalfLinePotential(kind="table", grid=(0.0, 1.0), values=(math.inf, 0.0),
                          cutoff=1.0)
    with pytest.raises(ValidationError):
        HalfLinePotential(kind="table", grid=(0.0,), values=(1.0,), cutoff=1.0)
    with pytest.raises(ValidationError):
        HalfLinePotential(kind="table", grid=(0.0, 1.0), values=(1.0, 0.0),
                          cutoff=0.5)
