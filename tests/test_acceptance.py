"""Acceptance suite: one test per top-level criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the summary lines.
"""
from __future__ import annotations

import cmath
import math
import time

import numpy as np
import pytest

from slrestore.measure import moments
from slrestore.pipeline import resolve_operator_data, run_restore, run_verify
from slrestore.restore import (
    gamma_admissible,
    h_locus,
    quasi_kernel_eta,
    restore_h,
    restore_mu,
    sectoriality_angle,
    sweep,
)
from slrestore.system import SystemParams, cayley_V_from_W, impedance_V, transfer_W
from slrestore.weyl import (
    HalfLinePotential,
    OperatorData,
    WeylEvaluator,
    boundary_trace_constant,
    weyl_m,
)

INF = math.inf
SQRT2 = math.sqrt(2.0)


def _report(n: int, label: str, ok: bool):
    print(f"criterion {n} ({label}): {'PASS' if ok else 'FAIL'}", flush=True)
    assert ok


def _m_closed(lam: complex, v: float = 0.0) -> complex:
    k = cmath.sqrt(complex(lam) - v)
    if k.imag < 0:
        k = -k
    return -1j * k


def test_criterion_1_paper_example_end_to_end(paper_measure, zero_potential):
    start = time.perf_counter()
    result = run_restore(paper_measure, 0.0, potential=zero_potential)
    elapsed = time.perf_counter() - start
    ok = (abs(result.restored.h - 1j) < 1e-4
          and result.restored.mu == INF
          and result.restored.sectoriality.kind == "extremal"
          and abs(result.moments.i2 - 1.0 / SQRT2) < 1e-8
          and result.operator.c == 1.0 / SQRT2
          and abs(result.operator.xi - 1.0) < 1e-8
          and elapsed < 5.0)
    _report(1, "paper example end-to-end", ok)


def test_criterion_2_remark_family(paper_measure, zero_potential):
    mom = moments(paper_measure)
    od = resolve_operator_data(mom, potential=zero_potential)
    ok = True
    for gamma in (0.25, 0.5, 1.0, 2.0):
        h = restore_h(mom.b, gamma, od.theta, od.m, od.xi)
        mu = restore_mu(h, gamma)
        expected_h = complex(gamma, 1.0) / (1.0 + gamma * gamma)
        ok = ok and abs(h - expected_h) < 1e-8 and abs(mu - 1.0 / gamma) < 1e-8

    # the h-locus circle, swept with exact boundary data over 100 points
    exact = resolve_operator_data(
        mom, operator=OperatorData(theta=0.0, m=0.0,
                                   c=boundary_trace_constant(zero_potential)))
    circle = h_locus(mom.b, exact.theta, exact.m, exact.xi)
    ok = ok and abs(circle.center - 0.5j) < 1e-8 and abs(circle.radius - 0.5) < 1e-8
    rows = sweep(mom.b, exact.theta, exact.m, exact.xi,
                 np.linspace(0.1, 10.0, 100))
    ideal = max(abs(r.h.real ** 2 + (r.h.imag - 0.5) ** 2 - 0.25) for r in rows)
    ok = ok and ideal < 1e-12
    _report(2, "remark family h, mu and circle", ok)


def test_criterion_3_forward_inverse_consistency(paper_measure, zero_potential):
    ok = True
    for gamma in (0.0, 0.5):
        report = run_verify(paper_measure, gamma, zero_potential)
        ok = ok and report.passed and len(report.samples) == 20
        ok = ok and report.max_residual < 1e-6
    _report(3, "forward-inverse consistency < 1e-6 on 20 z", ok)


def test_criterion_4_accretivity_boundary(b2_oracle_measure):
    mom = moments(b2_oracle_measure)
    ok = abs(mom.b - 2.0) < 1e-9
    quad = 1.0 + (-1.0) * mom.b + 1.0
    ok = ok and abs(quad) < 1e-12
    ok = ok and sectoriality_angle(mom.b, -1.0).kind == "extremal"
    ok = ok and gamma_admissible(2.0) == [(-INF, -1.0), (-1.0, INF)]
    strict_flags = [sectoriality_angle(mom.b, g).strict for g in (-0.99, -1.0, -1.01)]
    acc_flags = [sectoriality_angle(mom.b, g).accretive for g in (-0.99, -1.0, -1.01)]
    ok = ok and strict_flags == [True, False, True] and acc_flags == [True] * 3
    _report(4, "accretivity boundary at gamma = -1, b = 2", ok)


def test_criterion_5_weyl_oracle(zero_evaluator):
    start = time.perf_counter()
    rng = np.random.default_rng(2026)
    grid = [complex(rng.uniform(-5, 5), rng.uniform(0.1, 10)) for _ in range(20)]
    ok = True
    for v, m_limit in ((0.0, 0.0), (1.0, 1.0), (4.0, 2.0)):
        if v == 0.0:
            ev = zero_evaluator
        else:
            ev = WeylEvaluator(potential=HalfLinePotential(q_inf=v))
        for lam in grid:
            oracle = _m_closed(lam, v)
            ok = ok and abs(weyl_m(ev, lam) - oracle) / abs(oracle) < 1e-6
        from slrestore.weyl import weyl_m_at_minus_zero
        ok = ok and abs(weyl_m_at_minus_zero(ev) - m_limit) < 1e-4
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    _report(5, f"Weyl oracle grid + m(-0), {elapsed:.1f}s", ok)


def test_criterion_6_algebraic_identity_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(88)
    worst = 0.0
    for _ in range(5000):  # finite-b draws
        b = rng.uniform(0.2, 5.0)
        theta = rng.uniform(-1.8, 1.8)
        m = rng.uniform(-theta + 0.1, 2.0)
        gamma = rng.uniform(0.05, 2.0) * rng.choice([-1.0, 1.0])
        h = restore_h(b, gamma, theta, m)
        mu = restore_mu(h, gamma)
        circle = h_locus(b, theta, m)
        worst = max(worst, abs((h.real - circle.center.real) ** 2
                               + (h.imag - circle.center.imag) ** 2
                               - circle.radius ** 2))
        worst = max(worst, abs(h.real - gamma * h.imag - theta))
        worst = max(worst, abs(mu - (theta + (theta + m) * b / gamma)))
        eta = quasi_kernel_eta(h, mu)
        if eta is not None:
            worst = max(worst, abs(eta - theta))
        sect = sectoriality_angle(b, gamma)
        q = gamma * gamma + gamma * b + 1.0
        if sect.kind == "sectorial" and q >= 0.01:
            # compare in the natural scale: tan(alpha) blows up near the
            # extremal boundary and so does its rounding error
            tan_alpha = b / q
            worst = max(worst, abs(h.imag / (h.real + m) - tan_alpha)
                        / (1.0 + abs(tan_alpha)))
    for _ in range(5000):  # divergent-moment draws
        m = rng.uniform(-2.0, 2.0)
        xi = rng.uniform(0.1, 5.0)
        gamma = rng.uniform(0.05, 2.0) * rng.choice([-1.0, 1.0])
        h = restore_h(INF, gamma, -m, m, xi)
        mu = restore_mu(h, gamma)
        circle = h_locus(INF, -m, m, xi)
        worst = max(worst, abs((h.real - circle.center.real) ** 2
                               + (h.imag - circle.center.imag) ** 2
                               - circle.radius ** 2))
        worst = max(worst, abs(h.real - gamma * h.imag + m))
        worst = max(worst, abs(mu - (-m + xi / gamma)))
        sect = sectoriality_angle(INF, gamma)
        if sect.kind == "sectorial":
            worst = max(worst, abs(h.imag / (h.real + m) - 1.0 / gamma))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-10 and elapsed < 5.0
    _report(6, f"identity suite, 1e4 draws, worst {worst:.2e}, {elapsed:.1f}s", ok)


def test_criterion_7_cayley_transfer_consistency():
    rng = np.random.default_rng(7)
    worst_square = 0.0
    worst_round = 0.0
    for _ in range(50):
        h = complex(rng.uniform(-1, 1), rng.uniform(0.5, 2.0))
        mu = rng.uniform(2.0, 8.0)
        lam = complex(rng.uniform(-5, 5), rng.uniform(0.1, 5) * rng.choice([-1, 1]))
        p = SystemParams(h=h, mu=mu, m_fn=_m_closed)
        w = transfer_W(p, lam)
        v = cayley_V_from_W(w)
        worst_square = max(worst_square, abs(v - impedance_V(p, lam)))
        from slrestore.system import cayley_W_from_V
        worst_round = max(worst_round, abs(cayley_W_from_V(v) - w))
    ok = worst_square < 1e-12 and worst_round < 1e-14
    _report(7, f"Cayley/transfer consistency, residual {worst_square:.2e}", ok)
