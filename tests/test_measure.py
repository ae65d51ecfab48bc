"""Tests for spectral measures and weighted integrals.

Independent oracle: scipy.integrate.quad on explicitly substituted
integrands, plus closed-form antiderivatives where they exist (evaluated in
mpmath for the 200-knot tables, and as Gauss hypergeometric functions for
power-law pieces and tails); the Gauss-Jacobi origin rules against a
40-digit Golub-Welsch in mpmath.
"""
from __future__ import annotations

import cmath
import importlib.util
import json
import math
import sys
import threading
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

import slrestore.measure as measure_module
from slrestore import cli
from slrestore.errors import (
    DivergentAtOrigin,
    NonIntegrable,
    NotSL0,
    PoleOnSupport,
    UnrepresentableMeasure,
    ValidationError,
)
from slrestore.measure import (
    Atom,
    PowerLawPiece,
    SpectralMeasure,
    TablePiece,
    Tail,
    adaptive_gauss_legendre,
    classify,
    integrate_weighted,
    measure_from_json,
    measure_to_json,
    moments,
    resolvent_pass,
)
from slrestore.pipeline import run_restore, run_verify
from slrestore.stieltjes import StieltjesLikeFunction, eval_V, log_polar_grid
from slrestore.system import SystemParams, verify_realization, weyl_m_fn
from slrestore.weyl import WeylEvaluator


# -- quadrature core ----------------------------------------------------------

#: t itself as a root's chart: no weight, factor 1, the scale of a point its |z|
_IDENTITY = (0.0, lambda u: (u, 1.0), lambda r: r)


def _quad(f, lo, hi, z=0.0):
    """adaptive_gauss_legendre of f(t - z) over roots [lo, hi] in the identity chart, each
    from lo > 0 (no graded start), at each point of z: (value, err) of shape (points, roots)."""
    lo = np.atleast_1d(lo)
    return adaptive_gauss_legendre(f, lo, hi, [_IDENTITY] * lo.size, z)


def _real(f):
    """f of the real part of s = t - z: of t itself at z = 0."""
    return lambda s: f(s.real)


def test_quadrature_polynomial_exact():
    value, err = _quad(_real(lambda t: 3.0 * t * t), 1.0, 2.0)
    assert value.shape == err.shape == (1, 1)
    assert abs(value[0, 0] - 7.0) < 1e-13
    assert err[0, 0] >= 0.0


def test_quadrature_oscillatory_oracle():
    value, _ = _quad(_real(np.cos), 1.0, 31.0)
    oracle, _ = quad(math.cos, 1.0, 31.0)
    assert abs(value[0, 0] - oracle) < 1e-10


def test_quadrature_empty_interval():
    value, err = _quad(_real(np.cos), 1.0, 1.0)
    assert value.tolist() == err.tolist() == [[0.0]]


def _golub_welsch_oracle(n, beta):
    """n-point Gauss rule for (1 + x)**beta on [-1, 1] in mpmath (caller sets the
    precision): the textbook Jacobi matrix for (1 - x)**a (1 + x)**b at a = 0,
    mp.eigsy, and the mass from Gamma functions.  Returns (nodes, weights, mass),
    nodes ascending."""
    a, b = mpmath.mpf(0), mpmath.mpf(beta)
    jacobi = mpmath.zeros(n, n)
    for k in range(n):
        s = 2 * k + a + b
        jacobi[k, k] = (b - a) / (a + b + 2) if k == 0 else (b * b - a * a) / (s * (s + 2))
        if k:
            jacobi[k, k - 1] = jacobi[k - 1, k] = mpmath.sqrt(
                4 * k * (k + a) * (k + b) * (k + a + b) / (s * s * (s + 1) * (s - 1)))
    nodes, vectors = mpmath.eigsy(jacobi)
    mass = 2 ** (a + b + 1) * mpmath.gamma(a + 1) * mpmath.gamma(b + 1) / mpmath.gamma(a + b + 2)
    rule = sorted((nodes[i], vectors[0, i] ** 2 * mass) for i in range(n))
    return (np.array([float(x) for x, _ in rule]), np.array([float(w) for _, w in rule]),
            float(mass))


@pytest.mark.parametrize("p, weight_tol", [(-0.999, 5e-15), (-0.5, 5e-15), (0.5, 5e-15),
                                           (3.0, 5e-15), (40.0, 1e-13), (1000.0, 1e-13)])
def test_jacobi_rule_golub_welsch_oracle(p, weight_tol):
    # weight errors are measured against the rule's mass: for large p the
    # outer weights are tiny next to it and carry little relative accuracy
    nodes, weights = measure_module._jacobi_rule(p)
    with mpmath.workdps(40):
        for rule, n in ((slice(0, 21), 21), (slice(21, None), 10)):
            x, w, mass = _golub_welsch_oracle(n, p)
            order = np.argsort(nodes[rule])
            assert np.max(np.abs(nodes[rule][order] - x)) <= 2e-15
            assert np.max(np.abs(weights[rule][order] - w)) <= weight_tol * mass


def _reference_dfs(f, lo, hi, z=0.0, tol=1e-11, max_depth=52):
    """The scalar depth-first loop that the panel-set quadrature replaced, on f(t - z); err
    adds the round-off of the accepted panels (measure._roundoff)."""
    nodes_lo, weights_lo = np.polynomial.legendre.leggauss(10)
    nodes_hi, weights_hi = np.polynomial.legendre.leggauss(21)
    width0 = hi - lo
    if width0 <= 0:
        return 0.0, 0.0
    stack = [(lo, hi, 0)]
    value = 0.0
    err = size = 0.0
    n = 0
    while stack:
        a, b, depth = stack.pop()
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        i_hi = half * np.sum(weights_hi * f(mid + half * nodes_hi - z))
        i_lo = half * np.sum(weights_lo * f(mid + half * nodes_lo - z))
        e = abs(i_hi - i_lo)
        if e <= tol * ((b - a) / width0) or depth >= max_depth:
            value = value + i_hi
            err += e
            size += np.abs([i_hi])[0]  # an array's abs, which rounds unlike abs(i_hi)
            n += 1
        else:
            stack.append((a, mid, depth + 1))
            stack.append((mid, b, depth + 1))
    return value, err + measure_module._roundoff(size, n)


def _jittered_table(seed, lo, hi, n_knots, v0):
    """Knots and values shaped like the benchmark's 200-knot tables."""
    rng = np.random.default_rng(seed)
    step = (hi - lo) / (n_knots - 1)
    knots = lo + step * np.arange(n_knots)
    knots[1:-1] += rng.uniform(-0.3, 0.3, n_knots - 2) * step
    values = np.concatenate([[v0], rng.uniform(0.05, 1.0, n_knots - 1)])
    return TablePiece(tuple(knots.tolist()), tuple(values.tolist()))


_PANEL_SET_CASES = {  # integrands of t = s at z = 0
    "table-inv-1plus-t": lambda p: _real(lambda t: np.interp(t, p.knots, p.values) / (1.0 + t)),
    "table-inv-t": lambda p: _real(lambda t: np.interp(t, p.knots, p.values) / t),
    "table-resolvent": lambda p: _real(
        lambda t: np.interp(t, p.knots, p.values) / (t - (0.4 + 0.05j))),
    "power-0.3": lambda p: _real(lambda t: np.power(t, 0.3)),
}


@pytest.mark.parametrize("case", sorted(_PANEL_SET_CASES))
def test_panel_set_equals_per_segment_reference(case):
    piece = _jittered_table(11, 0.25, 3.0, 40, 0.0)
    f = _PANEL_SET_CASES[case](piece)
    knots = np.asarray(piece.knots)
    value, err = _quad(f, knots[:-1], knots[1:])
    for k in range(knots.size - 1):
        assert (value[0, k], err[0, k]) == _reference_dfs(f, knots[k], knots[k + 1])


def test_panel_set_zero_width_segments_add_nothing():
    lo = np.array([0.5, 1.0, 1.0, 2.5, 3.0])
    hi = np.array([1.0, 1.0, 2.5, 2.5, 2.0])  # two empty pairs, one reversed
    f = _real(np.sqrt)
    value, err = _quad(f, lo, hi)
    for k in (0, 2):
        assert (value[0, k], err[0, k]) == _reference_dfs(f, lo[k], hi[k])
    assert value[0, [1, 3, 4]].tolist() == err[0, [1, 3, 4]].tolist() == [0.0] * 3
    value, err = _quad(f, [1.0, 2.0], [1.0, 2.0])
    assert value.tolist() == err.tolist() == [[0.0, 0.0]]


# kinks sit at t = 1 or t = 1.37 (or at Re z + Im z for a point z), not at s = 0: next to
# s = 0 the round-off floor of t - z (eps (t + |z|) / |s| of each term) would end the
# refinement that the scalar loop without a floor carries on

def test_depth_cap_one_integrand_call_per_level():
    calls = []

    def f(s):
        calls.append(s.size)
        return np.abs(s.real - 1.0) ** 0.2

    value, err = _quad(f, 1.0, 2.0)
    assert len(calls) == 53  # depths 0..52: the cap is reached, silently
    assert abs(value[0, 0] - 1.0 / 1.2) < 1e-10
    assert (value[0, 0], err[0, 0]) == _reference_dfs(f, 1.0, 2.0)


@pytest.mark.parametrize("f, z", [(lambda s: np.abs(s.real - 1.37) ** 0.5, 0.0),
                                  (lambda s: 1.0 / s, 1.3 + 0.01j)], ids=["kink", "pole"])
def test_panel_sums_in_depth_first_order(f, z):
    # refinement on both sides of an interior point: panels must be added
    # right to left, as the depth-first stack popped them, to match it exactly
    value, err = _quad(f, 1.0, 2.0, z)
    assert (value[0, 0], err[0, 0]) == _reference_dfs(f, 1.0, 2.0, z)


_ROW_PARAMS = np.array([0.13, 0.37, 0.81, 1.7])


def _hidden_bump(t):
    """A hat on [0.5167, 0.5567]: no depth-0 node of [0, 1] sees it, some depth-1 node does."""
    return np.maximum(0.0, 1.0 - np.abs(t - 0.5367) / 0.02)


@pytest.mark.parametrize("f, z", [
    (lambda s: np.abs(s.real - s.imag) ** 0.5, -1j * (1.0 + _ROW_PARAMS)),  # at 1 + p
    (lambda s: 1.0 / s, 1.0 + _ROW_PARAMS + 0.01j),
    (lambda s: np.abs(s.real) ** s.imag, 1.0 - 1j * _ROW_PARAMS),  # t - 1 to the power p
    (lambda s: np.where(s.imag == 0.0, _hidden_bump(s.real), 1.0 / s),
     np.array([1.0, 1.53 + 0.01j])),
], ids=["kinks", "poles", "powers", "accepted-row-stays-accepted"])
def test_vector_rows_equal_scalar_reference(f, z):
    # each point refines around its own kink or pole (or to the depth cap at s = 0), so its
    # panels differ from the others'; every point must get the scalar loop's value and
    # error exactly.  In the last case the bump point accepts [1, 2] at once, and must not
    # take up the panels the pole point refines.
    value, err = _quad(f, 1.0, 2.0, z)
    assert value.shape == err.shape == (z.size, 1)
    for j, zj in enumerate(z.tolist()):
        assert (value[j, 0], err[j, 0]) == _reference_dfs(f, 1.0, 2.0, complex(zj))


def test_vector_rows_on_root_panels_equal_the_scalar_calls():
    # the points of one call each get what they get alone, on every knot segment's root
    knots = np.asarray(_jittered_table(11, 0.25, 3.0, 40, 0.0).knots)
    z = np.array([0.4 + 0.05j, 1.9 + 0.02j, -1.0 + 0.5j])
    f = lambda s: np.divide(1.0, s, out=s)
    value, err = _quad(f, knots[:-1], knots[1:], z)
    for j, zj in enumerate(z):
        one, one_err = _quad(f, knots[:-1], knots[1:], zj)
        assert value[j].tolist() == one[0].tolist() and err[j].tolist() == one_err[0].tolist()


class _Calls(list):
    """Sizes of integrand calls; ``passes`` counts the quadrature calls that made them, and
    ``roots`` their root panels."""

    passes = roots = 0


@pytest.fixture
def integrand_calls(monkeypatch):
    """Sizes of the integrand calls that integrate_weighted's quadrature makes."""
    sizes = _Calls()
    quadrature = measure_module.adaptive_gauss_legendre

    def counting(f, lo, *args, **kwargs):
        sizes.passes += 1
        sizes.roots += np.size(lo)

        def g(t):
            sizes.append(np.size(t))
            # fail fast where a missing breadth cap would run away
            assert sizes[-1] <= 31 * measure_module._MAX_PANELS
            return f(t)
        return quadrature(g, lo, *args, **kwargs)

    monkeypatch.setattr(measure_module, "adaptive_gauss_legendre", counting)
    return sizes


def test_the_round_off_floor_ends_refinement_when_tol_is_below_it(integrand_calls):
    # an integral of about 1e6 in the quadrature's own units (t/(1+t) up to t = 1e6; the
    # coefficient scales its sum, not its nodes) puts the rule difference (round-off)
    # above the absolute tol on every panel; each panel is accepted once its rule
    # difference is within its own round-off, and the error estimate still reports it
    value, err = integrate_weighted(SpectralMeasure(pieces=(PowerLawPiece(1.0, 1e6, 1.0, 1.0),)),
                                    -1.0)
    with mpmath.workdps(40):
        oracle = float((_hyp2f1_kernel_integral(-1.0, 1.0, 1e6)
                        - _hyp2f1_kernel_integral(-1.0, 1.0, 1.0)).real)
    assert abs(value - oracle) <= 1e-13 * abs(oracle)
    assert abs(value - oracle) <= err and err > 1e-11
    # neither cap: not the depth cap's 53 levels, no level past half the breadth cap
    assert integrand_calls == [31] + [62] * 10
    assert 2 * max(integrand_calls) <= 31 * measure_module._MAX_PANELS


def test_breadth_cap_accepts_a_level_of_noise(integrand_calls):
    # seeded noise never meets its tolerance or its round-off floor: the point doubles its
    # panels every level until the next level would pass the breadth cap, which then
    # accepts the whole level; no integrand call holds more than the cap's nodes
    rng = np.random.default_rng(20261020)
    chart = (0.0, lambda u: (u, 1.0), lambda r: r)
    value, err = measure_module.adaptive_gauss_legendre(
        lambda s: rng.standard_normal(s.shape), [1.0], [2.0], [chart], [1j])
    cap = 31 * measure_module._MAX_PANELS
    assert integrand_calls.passes == 1 and len(integrand_calls) < 53
    assert integrand_calls == [31 << k for k in range(len(integrand_calls))]
    assert integrand_calls[-1] == cap
    assert value.shape == err.shape == (1, 1) and np.isfinite(value[0, 0]) and err[0, 0] > 0


def test_the_breadth_cap_is_counted_per_point(monkeypatch):
    # noise that is a function of s (never within tol or floor) at three points, and a
    # cosine that one level accepts at a fourth: each noise point meets the cap alone, so
    # every point gets what its scalar call gets, however many share the call
    monkeypatch.setattr(measure_module, "_MAX_PANELS", 256)
    f = lambda s: np.where(s.imag == 0.0, np.cos(s.real), np.sin(1e9 * s.real))
    z = np.array([1j, -1.0 + 0.5j, -1.0, -2.0 + 1j])
    value, err = _quad(f, 1.0, 2.0, z)
    for j, zj in enumerate(z.tolist()):
        one, one_err = _quad(f, 1.0, 2.0, zj)
        assert value[j].tolist() == one[0].tolist() and err[j].tolist() == one_err[0].tolist()
    assert err[2, 0] < 1e-13 < err[[0, 1, 3], 0].min()


# -- weighted integrals -------------------------------------------------------

#: The moments as the part of R they are at their point: 1/(1+t) is Re R(-1), 1/t is
#: Re R(0) and 1/(1+t^2) is Im R(i), named by their kernels in the test ids
_MOMENT_POINTS = {"inv_1plus_t": (-1.0, "real"), "inv_t": (0.0, "real"),
                  "inv_1plus_t2": (1j, "imag")}


def _kernels(*kernels):
    """Parameters (z, part): a moment's name reads its part of R at its point, a point z
    all of R(z) (part None, id "Resolvent(z=...)")."""
    return [pytest.param(*_MOMENT_POINTS[k], id=k) if isinstance(k, str)
            else pytest.param(k, None, id=f"Resolvent(z={k!r})") for k in kernels]


def _part(value, part):
    return value if part is None else getattr(value, part)


def test_i2_closed_form(paper_measure):
    # integral of 1/(pi sqrt(t) (1+t^2)) over (0, inf) equals 1/sqrt(2)
    value, err = integrate_weighted(paper_measure, 1j)
    assert abs(value.imag - 1.0 / math.sqrt(2.0)) < 1e-10
    assert err < 1e-9


def test_atom_inv_t():
    # an atom's error is its round-off: it covers the (here zero) error, within a few ulp
    sigma = SpectralMeasure(atoms=(Atom(1.0, 1.0),))
    value, err = integrate_weighted(sigma, 0.0)
    assert value == 1.0 and 0.0 < err <= 10 * math.ulp(1.0)


def test_resolvent_at_minus_one(paper_measure):
    # substitution t = u^2: integral dt/(pi sqrt(t)(t+1)) = 2/pi * arctan(u)| = 1
    value, _ = integrate_weighted(paper_measure, -1.0)
    assert abs(value - 1.0) < 1e-8


def test_resolvent_complex_quad_oracle():
    piece = PowerLawPiece(0.2, 1.0, 0.4, 1.0)
    tail = Tail(1.0, 3.0, 1.5)
    sigma = SpectralMeasure(pieces=(piece,), tail=tail)
    z = 0.3 + 1.1j

    def density(t):
        return 0.4 * t if t <= 1.0 else 3.0 * t ** -1.5

    def _oracle(part):
        head, _ = quad(lambda t: getattr(density(t) / (t - z), part), 0.2, 1.0)
        rest, _ = quad(lambda t: getattr(density(t) / (t - z), part), 1.0, np.inf,
                       limit=200)
        return head + rest

    re, im = _oracle("real"), _oracle("imag")
    value, _ = integrate_weighted(sigma, z)
    assert abs(value - complex(re, im)) < 1e-8


@pytest.mark.parametrize("z", [3.0 + 1e-3j, 0.5 + 1e-4j])
def test_resolvent_near_support_closed_form(paper_measure, z, integrand_calls):
    # integral dt / (pi sqrt(t) (t - z)) = (-z)**(-1/2); next to the pole the
    # panels refine down to their round-off floor
    value, _ = integrate_weighted(paper_measure, z)
    oracle = (-z) ** -0.5
    assert abs(value - oracle) <= 1e-12 * abs(oracle)


def test_b_divergence_is_analytic(paper_measure):
    value, err = integrate_weighted(paper_measure, 0.0)
    assert math.isinf(value.real) and value.real > 0
    assert err == 0.0


def test_b2_antiderivative_oracle(b2_oracle_measure):
    # integral of 3 t^(-5/2) on [1, inf) has antiderivative -2 t^(-3/2)
    value, err = integrate_weighted(b2_oracle_measure, 0.0)
    oracle = 0.0 - (-2.0 * 1.0 ** -1.5)
    assert abs(value - oracle) <= err <= 10 * math.ulp(oracle)


def test_table_piece_quad_oracle():
    piece = TablePiece(knots=(0.5, 1.0, 2.0), values=(0.0, 1.0, 0.5))
    sigma = SpectralMeasure(pieces=(piece,))
    value, _ = integrate_weighted(sigma, -1.0)
    oracle, _ = quad(lambda t: np.interp(t, piece.knots, piece.values) / (1.0 + t),
                     0.5, 2.0, points=[1.0])
    assert abs(value - oracle) < 1e-10


def _table_oracle(piece, z):
    """R(z) of a table: per segment, the closed form of (alpha + beta t) / (t - z) in mpmath."""
    with mpmath.workdps(40):
        z, total = mpmath.mpc(z), mpmath.mpc(0)
        pts = list(zip(piece.knots, piece.values))
        for (t0, v0), (t1, v1) in zip(pts[:-1], pts[1:]):
            t0, v0, t1, v1 = (mpmath.mpf(x) for x in (t0, v0, t1, v1))
            beta = (v1 - v0) / (t1 - t0)
            at_z = v0 + beta * (z - t0)  # the segment's line at z: 0 leaves no log
            if at_z != 0:
                total += at_z * (mpmath.log(t1 - z) - mpmath.log(t0 - z))
            total += beta * (t1 - t0)
        return complex(total)


_TABLE_KERNELS = ["inv_t", "inv_1plus_t", "inv_1plus_t2", -0.7 + 1.3j, 1j, 3.0 + 1e-3j,
                  0.5 + 1e-4j, -1e6 + 1j, cmath.rect(1e6, 3.0), cmath.rect(1e-3, 2.5)]


@pytest.mark.parametrize("start, v0", [(0.6, 0.4), (0.0, 0.0)])
@pytest.mark.parametrize("z, part", _kernels(*_TABLE_KERNELS))
def test_200_knot_table_mpmath_oracle(start, v0, z, part):
    # the closed form per knot segment, next to the support and far from it
    piece = _jittered_table(20261018, start, 6.5, 200, v0)
    value, err = integrate_weighted(SpectralMeasure(pieces=(piece,)), z)
    value, oracle = _part(value, part), _part(_table_oracle(piece, z), part)
    assert abs(value - oracle) <= 1e-14 * abs(oracle)
    assert abs(value - oracle) <= err


@pytest.mark.parametrize("z, part", _kernels(*_TABLE_KERNELS[:4]))
def test_a_table_only_measure_makes_no_integrand_call(z, part, integrand_calls):
    # tables are closed forms: no root of theirs reaches the quadrature
    piece = _jittered_table(20261018, 0.0, 6.5, 200, 0.0)
    integrate_weighted(SpectralMeasure(atoms=(Atom(2.0, 0.5),), pieces=(piece,)), z)
    assert integrand_calls == [] and integrand_calls.passes == 0


@pytest.mark.parametrize("t0", [1e-310, 1e-320])
def test_subnormal_table_knot(t0):
    # x = h / (t0 - z) overflows at z = 0: b = log(1 / t0) from the difference of logs
    mom = moments(SpectralMeasure(pieces=(TablePiece((t0, 1.0), (1.0, 1.0)),)))
    b = -math.log(t0)
    assert abs(mom.b - b) <= 1e-15 * b and abs(mom.b - b) <= mom.err_b
    assert abs(mom.a - math.log(2.0)) <= 1e-15 and abs(mom.i2 - math.pi / 4) <= 1e-15


def _hyp2f1_kernel_integral(z, e, h):
    """Antiderivative of t**e / (t - z) at h, as a 2F1 in mpmath (e != -1, z != 0)."""
    e, h, z = mpmath.mpf(e), mpmath.mpf(h), mpmath.mpc(z)
    return -h ** (e + 1) / (z * (e + 1)) * mpmath.hyp2f1(1, e + 1, e + 2, h / z)


def _hyp2f1_tail_integral(z, s, T):
    """Integral of t**-s / (t - z) over [T, inf), as a 2F1 in mpmath."""
    s, T = mpmath.mpf(s), mpmath.mpf(T)
    return T ** -s / s * mpmath.hyp2f1(1, s, s + 1, mpmath.mpc(z) / T)


_ORACLE_KERNELS = _kernels("inv_1plus_t", "inv_1plus_t2", -0.7 + 1.3j, cmath.rect(1e-3, 2.5),
                           cmath.rect(1e3, 0.6))


@pytest.mark.parametrize("z, part", _ORACLE_KERNELS)
@pytest.mark.parametrize("lo, hi, e", [(0.0, 0.7, -0.985), (0.0, 0.7, -0.8), (0.0, 0.7, -0.5),
                                       (0.0, 0.7, 0.2), (0.0, 0.7, 0.5), (0.0, 0.7, 1.5),
                                       (0.3, 0.9, -1.7), (0.3, 0.9, 0.35)])
def test_power_law_piece_hypergeometric_oracle(z, part, lo, hi, e):
    sigma = SpectralMeasure(pieces=(PowerLawPiece(lo, hi, 1.7, e),))
    value, _ = integrate_weighted(sigma, z)
    with mpmath.workdps(40):
        oracle = 1.7 * (_hyp2f1_kernel_integral(z, e, hi)
                        - (_hyp2f1_kernel_integral(z, e, lo) if lo else 0))
        value, oracle = _part(value, part), _part(complex(oracle), part)
    assert abs(value - oracle) <= 1e-13 * abs(oracle)


@pytest.mark.parametrize("z, part", _ORACLE_KERNELS)
@pytest.mark.parametrize("s", [0.015, 0.2, 0.5, 1.0, 1.5])
def test_tail_hypergeometric_oracle(z, part, s):
    sigma = SpectralMeasure(tail=Tail(1.3, 0.8, s))
    value, _ = integrate_weighted(sigma, z)
    with mpmath.workdps(40):
        oracle = complex(0.8 * _hyp2f1_tail_integral(z, s, 1.3))
    value, oracle = _part(value, part), _part(oracle, part)
    assert abs(value - oracle) <= 1e-13 * abs(oracle)


@pytest.mark.parametrize("z, part", _kernels("inv_1plus_t", "inv_1plus_t2"))
def test_power_law_from_the_origin_takes_a_few_integrand_calls(z, part, integrand_calls):
    # t**0.2 at 0 is a smooth function times u**1.4 in u = sqrt(t); the
    # Gauss-Jacobi origin panel integrates it without refining towards 0
    sigma = SpectralMeasure(pieces=(PowerLawPiece(0.0, 0.7, 1.0, 0.2),))
    integrate_weighted(sigma, z)
    assert 1 <= len(integrand_calls) <= 3


# -- graded start: near-poles past the graded depth, in both charts ------------

@pytest.mark.parametrize("angle", [0.1, math.pi - 0.1, math.pi - 1e-3])
def test_graded_start_worked_example_closed_form(paper_measure, angle):
    # the near-pole sits at u = sqrt(r) in the piece chart and sqrt(1/r) in the
    # tail chart: from r = 1e-8 to 1e8 it reaches u = 1e-4, past 2**-6 in both
    z = np.logspace(-8.0, 8.0, 17) * cmath.exp(1j * angle)
    value, err = integrate_weighted(paper_measure, z)
    oracle = (-z) ** -0.5
    assert np.all(np.abs(value - oracle) <= 1e-13 * np.abs(oracle))
    assert np.all(np.abs(value - oracle) <= err)


@pytest.mark.parametrize("angle", [0.1, 0.3])
def test_a_wide_resolvent_array_is_one_quadrature_call(paper_measure, angle, integrand_calls):
    # 400 points, each refining its own panels: when points shared panels, counted over
    # (panel, point) pairs under the breadth cap, one call of them all read relative error
    # 5.96 at angle 0.1 and 1.54 at 0.3, err short of it
    z = np.logspace(-8.0, 8.0, 400) * cmath.exp(1j * angle)
    value, err = integrate_weighted(paper_measure, z)
    oracle = (-z) ** -0.5
    assert np.all(np.abs(value - oracle) <= 1e-13 * np.abs(oracle))
    assert np.all(np.abs(value - oracle) <= err)
    assert integrand_calls.passes == 1


_GRADED_Z = _kernels(cmath.rect(1e-4, 2.5), cmath.rect(1e-4, 0.6), cmath.rect(1e4, 0.6),
                     cmath.rect(1e4, 2.5))


@pytest.mark.parametrize("z, part", _GRADED_Z)
@pytest.mark.parametrize("e", [0.2, -0.8])
def test_graded_start_power_law_hypergeometric_oracle(z, part, e):
    # e = 0.2 and -0.8 put a Gauss-Jacobi rule (u**1.4, u**-0.6) on the smallest graded panel
    value, err = integrate_weighted(SpectralMeasure(pieces=(PowerLawPiece(0.0, 0.7, 1.7, e),)), z)
    with mpmath.workdps(40):
        oracle = complex(1.7 * _hyp2f1_kernel_integral(z, e, 0.7))
    assert abs(value - oracle) <= 1e-13 * abs(oracle)
    assert abs(value - oracle) <= err


@pytest.mark.parametrize("z, part", _GRADED_Z)
def test_graded_start_tail_hypergeometric_oracle(z, part):
    value, err = integrate_weighted(SpectralMeasure(tail=Tail(1.3, 0.8, 0.3)), z)
    with mpmath.workdps(40):
        oracle = complex(0.8 * _hyp2f1_tail_integral(z, 0.3, 1.3))
    assert abs(value - oracle) <= 1e-13 * abs(oracle)
    assert abs(value - oracle) <= err


def _benchmark_jobs(workload, seed):
    """The benchmark's seeded jobs, from perfbench/workloads.py."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.make_jobs(workload, seed)


def _moment_oracle(sigma, z):
    """R(z) of sigma from closed forms in mpmath: 2F1s, table antiderivatives, and at z = 0
    those of t**(e-1)."""
    with mpmath.workdps(40):
        total = mpmath.mpc(0)
        for atom in sigma.atoms:
            total += atom.w / (mpmath.mpf(atom.t) - mpmath.mpc(z))
        for p in sigma.pieces:
            if isinstance(p, TablePiece):
                total += _table_oracle(p, z)
            elif z == 0:
                e = mpmath.mpf(p.exponent)
                total += p.coeff * (mpmath.mpf(p.hi) ** e - mpmath.mpf(p.lo) ** e) / e
            else:
                total += p.coeff * (_hyp2f1_kernel_integral(z, p.exponent, p.hi)
                                    - _hyp2f1_kernel_integral(z, p.exponent, p.lo))
        tail = sigma.tail
        if z == 0:
            total += tail.coeff * mpmath.mpf(tail.threshold) ** -tail.exponent / tail.exponent
        else:
            total += tail.coeff * _hyp2f1_tail_integral(z, tail.exponent, tail.threshold)
        return total


def test_moment_errors_cover_the_exact_error():
    # without a round-off floor err is the rule difference alone, below the exact
    # error on half of the 200-knot measures (err_b 8.6e-16 against 3.9e-15 on the
    # fourth of seed 1); the sweep measures' b is closed forms only, whose err was 0
    # against an exact error of up to 3.9e-16
    jobs = [job for seed in (1, 2, 3) for job in _benchmark_jobs("quad-sweep", seed)]
    for job in jobs:
        if job["command"] not in ("moments", "sweep"):
            continue
        sigma = measure_from_json(job["measure"])
        mom = moments(sigma)
        for (z, part), value, err in zip(_MOMENT_POINTS.values(), (mom.a, mom.b, mom.i2),
                                         (mom.err_a, mom.err_b, mom.err_i2)):
            if not math.isinf(value):
                with mpmath.workdps(40):
                    oracle = getattr(_moment_oracle(sigma, z), part)
                    assert abs(mpmath.mpf(value) - oracle) <= err


# -- moments ------------------------------------------------------------------

def test_moments_paper(paper_measure):
    mom = moments(paper_measure)
    assert abs(mom.a - 1.0) < 1e-8  # closed form: 2/pi * arctan(u) | 0..inf
    assert math.isinf(mom.b)
    assert abs(mom.i2 - 1.0 / math.sqrt(2.0)) < 1e-10
    assert mom.err_a >= 0.0 and mom.err_i2 >= 0.0


def test_moments_empty():
    mom = moments(SpectralMeasure())
    assert mom.a == 0.0 and mom.b == 0.0 and mom.i2 == 0.0


def test_moments_b2(b2_oracle_measure):
    mom = moments(b2_oracle_measure)
    assert abs(mom.b - 2.0) < 1e-9
    assert mom.a <= mom.b + mom.err_a + mom.err_b  # kernel dominance


def test_a_le_b_when_finite(b2_sl01k_measure):
    mom = moments(b2_sl01k_measure)
    assert not math.isinf(mom.b)
    assert mom.a <= mom.b + mom.err_a + mom.err_b


# -- classification -----------------------------------------------------------

def test_classify_paper(paper_measure):
    tag = classify(paper_measure, 0.0)
    assert tag.kind == "SL0K" and tag.stieltjes


def test_classify_sl01k(b2_sl01k_measure):
    tag = classify(b2_sl01k_measure, -1.0)
    assert tag.kind == "SL01K" and not tag.stieltjes


def test_classify_finite_mass_rejected():
    # infinite mass is read off the tail: none, or one of exponent 2, is finite mass
    piece = PowerLawPiece(0.0, 1.0, 1.0, -0.5)
    for sigma, why in [(SpectralMeasure(atoms=(Atom(1.0, 1.0),), pieces=(piece,)), "no tail"),
                       (SpectralMeasure(pieces=(piece,), tail=Tail(1.0, 1.0, 2.0)),
                        "tail exponent 2.0 > 1")]:
        assert not sigma.infinite_mass
        with pytest.raises(NotSL0, match=rf"^finite total mass \({why}\): the SL0 classes "
                                         r"require integral d\(sigma\) = inf"):
            classify(sigma, 0.0)


def test_classify_atom_at_origin_rejected():
    sigma = SpectralMeasure(atoms=(Atom(0.0, 1.0),),
                            tail=Tail(1.0, 1.0, 1.0))
    with pytest.raises(DivergentAtOrigin):
        classify(sigma, 0.0)


# -- error contract -----------------------------------------------------------

def test_atom_at_origin_inv_t():
    sigma = SpectralMeasure(atoms=(Atom(0.0, 1.0),))
    with pytest.raises(DivergentAtOrigin):
        integrate_weighted(sigma, 0.0)


def test_pole_on_support(paper_measure, b2_oracle_measure):
    with pytest.raises(PoleOnSupport):
        integrate_weighted(paper_measure, 2.0)
    with pytest.raises(PoleOnSupport, match=r"z=\(2\+0j\)"):
        integrate_weighted(paper_measure, np.array([1j, -1.0, 2.0, 3j]))
    # z = 0 is no pole: R(0) = b, and V(0) = V(0-) = gamma + b (+inf when b diverges)
    b, _ = integrate_weighted(b2_oracle_measure, 0.0)
    assert b == moments(b2_oracle_measure).b
    assert eval_V(StieltjesLikeFunction(b2_oracle_measure, 0.5), 0.0) == 0.5 + b
    values, errs = integrate_weighted(paper_measure, np.array([-1.0, 0.0, 1j]))
    assert math.isinf(values[1].real) and errs[1] == 0.0
    assert math.isinf(eval_V(StieltjesLikeFunction(paper_measure, 0.5), 0.0).real)


@pytest.mark.parametrize("bad", [complex(math.nan, 1.0), complex(math.inf, 1.0),
                                 complex(-1.0, math.nan)], ids=str)
def test_non_finite_z_is_rejected_before_any_quadrature(paper_measure, bad,
                                                        integrand_calls):
    for z in (bad, np.array([1j, -2.0 + 0.5j, bad])):
        with pytest.raises(ValidationError, match="not finite") as info:
            integrate_weighted(paper_measure, z)
        assert str(bad) in str(info.value)
    assert integrand_calls == []


def test_resolvent_array_near_support_is_bounded(paper_measure, integrand_calls):
    # 20 poles 1e-3 above the support: every point refines to its round-off floor, far
    # inside the breadth cap, and no level of the 20 together holds the cap's nodes
    z = np.linspace(0.2, 5.0, 20) + 1e-3j
    value, err = integrate_weighted(paper_measure, z)
    oracle = (-z) ** -0.5
    assert np.all(np.abs(value - oracle) <= 1e-12 * np.abs(oracle))
    assert max(integrand_calls) <= 31 * measure_module._MAX_PANELS


def test_scalar_calls_near_the_support_stop_at_their_floor(paper_measure, integrand_calls):
    # one point 1e-3 above the support refined to the breadth cap when only tol could
    # accept a panel: up to 478 454 nodes in one level, 850 ms for these 20 calls
    for x in np.linspace(0.2, 5.0, 20).tolist():
        z = complex(x, 1e-3)
        v = eval_V(StieltjesLikeFunction(paper_measure, 0.0), z)
        assert abs(v - (-z) ** -0.5) <= 1e-12 * abs(v)
    assert integrand_calls.passes == 20 and max(integrand_calls) <= 1000


def test_a_near_support_array_is_covered_by_its_err(paper_measure):
    # 51 points at angle 1e-3: with shared panels the breadth cap cut refinement short,
    # relative error 1.15 with err short of it
    z = np.logspace(-8.0, 8.0, 51) * cmath.exp(1e-3j)
    value, err = integrate_weighted(paper_measure, z)
    oracle = (-z) ** -0.5
    assert np.all(np.abs(value - oracle) <= 1e-13 * np.abs(oracle))
    assert np.all(np.abs(value - oracle) <= err)


def test_err_covers_panels_the_round_off_floor_accepts():
    # a root away from 0 (no graded start), points 1e-9 to 1e-5 above it: a panel that the
    # floor accepted charged only its rule difference, and 30 of these 120 points read
    # |error| > err, up to 5.8x; it now charges the floor
    sigma = SpectralMeasure(pieces=(PowerLawPiece(0.5, 3.0, 1.0, -0.5),))
    z = (np.linspace(0.55, 2.95, 40)[:, None] + 1j * np.array([1e-9, 1e-7, 1e-5])).ravel()
    value, err = integrate_weighted(sigma, z)
    with mpmath.workdps(50):  # int t**-0.5 / (t - z) dt = (log(u - s) - log(u + s)) / s
        def antiderivative(t, s):
            u = mpmath.sqrt(t)
            return (mpmath.log(u - s) - mpmath.log(u + s)) / s

        for zk, vk, ek in zip(z.tolist(), value.tolist(), err.tolist()):
            s = mpmath.sqrt(mpmath.mpc(zk))
            exact = complex(antiderivative(mpmath.mpf(3), s) - antiderivative(mpmath.mpf(0.5), s))
            assert abs(vk - exact) <= ek, zk


def test_a_wide_near_support_array_equals_its_scalar_calls(paper_measure):
    # 4000 points at angle 1e-3 keep about 12 000 panels open at depth 0: with the breadth
    # cap counted over all points that level was accepted unrefined (relative error 9.3,
    # err short of it at 1086 points); counted per point, each point refines as alone
    z = np.geomspace(0.05, 20.0, 4000) * cmath.exp(1e-3j)
    value, err = integrate_weighted(paper_measure, z)
    oracle = (-z) ** -0.5
    assert np.all(np.abs(value - oracle) <= 1e-13 * np.abs(oracle))
    assert np.all(np.abs(value - oracle) <= err)
    for j in range(0, z.size, 40):
        assert (value[j], err[j]) == integrate_weighted(paper_measure, complex(z[j]))


def test_a_wide_array_refines_in_bounded_memory(paper_measure, integrand_calls):
    # the points refine in chunks whose depth-0 nodes fit the workspace; all at once these
    # 5000 points peaked at 14 workspaces (115 MB), the 4000 of the test above at 8
    z = np.logspace(-8.0, 8.0, 5000) * cmath.exp(0.5j)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        value, err = integrate_weighted(paper_measure, z)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= 4 * 16 * measure_module._WORKSPACE  # complex values of 16 bytes
    assert integrand_calls.passes == 1
    oracle = (-z) ** -0.5
    assert np.all(np.abs(value - oracle) <= 1e-13 * np.abs(oracle))
    assert np.all(np.abs(value - oracle) <= err)


def test_an_array_equals_its_scalar_calls_bit_for_bit(paper_measure):
    # points of every grading (radii 1e-8 to 1e8), next to the support, on the negative
    # axis and at 0 (b, +inf here) and 1j: each gets what it gets alone
    z = np.concatenate([np.logspace(-8.0, 8.0, 9) * cmath.exp(0.01j), [0.0, -1.0, 1j]])
    for sigma in (paper_measure, _SHAPES["vanishing-power-law-and-table"]):
        value, err = integrate_weighted(sigma, z)
        one = np.array([integrate_weighted(sigma, zj) for zj in z.tolist()])
        assert value.tolist() == one[:, 0].tolist() and err.tolist() == one[:, 1].real.tolist()


@pytest.mark.parametrize("sigma, a", [
    (SpectralMeasure(tail=Tail(1e-20, 1.0, 0.5)), math.pi - 2.0 * math.atan(1e-10)),
    (SpectralMeasure(pieces=(PowerLawPiece(0.0, 1e40, 1.0, -0.5),)), math.pi),
], ids=["tail-from-1e-20", "power-law-to-1e40"])
def test_graded_start_reaches_the_point_scale(sigma, a):
    # the kernel 1/(1+t) has its scale at u = 1e-10 of the root's width in both charts;
    # graded only to 2**-6 of it, a read 0.194 (tail) and 1.2e-15 (power law), err short
    mom = moments(sigma)
    assert abs(mom.a - a) <= 1e-13 * a and abs(mom.a - a) <= mom.err_a


def test_non_integrable_at_construction():
    with pytest.raises(NonIntegrable):
        SpectralMeasure(pieces=(PowerLawPiece(0.0, 1.0, 1.0, -1.5),))


def test_validation_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        SpectralMeasure(atoms=(Atom(1.0, -1.0),))
    with pytest.raises(ValidationError):
        SpectralMeasure(pieces=(PowerLawPiece(0.0, 2.0, 1.0, 0.0),
                                PowerLawPiece(1.0, 3.0, 1.0, 0.0)))
    with pytest.raises(ValidationError):
        SpectralMeasure(pieces=(TablePiece((0.0, 1.0), (1.0, -0.5)),))
    for knots, values in [((), ()), ((0.5,), (1.0,)), ((0.0, 1.0), (1.0,))]:
        with pytest.raises(ValidationError, match="size mismatch"):
            SpectralMeasure(pieces=(TablePiece(knots, values),))
    with pytest.raises(ValidationError):
        SpectralMeasure(tail=Tail(1.0, 1.0, -0.5))
    with pytest.raises(ValidationError, match=r"atom location -1\.0 < 0"):
        SpectralMeasure(atoms=(Atom(-1.0, 1.0),))
    with pytest.raises(ValidationError, match="piece 0: unknown piece type"):
        SpectralMeasure(pieces=(Atom(0.5, 1.0),))
    for knots in ((0.0, 2.0, 1.0), (0.0, 1.0, 1.0, 2.0)):  # ends in order, inside not
        with pytest.raises(ValidationError, match="piece 0: knots not strictly increasing"):
            SpectralMeasure(pieces=(TablePiece(knots, (1.0,) * len(knots)),))
    nan, inf = math.nan, math.inf
    for bad, field in [(dict(atoms=(Atom(nan, 1.0),)), "atom 0: t"),
                       (dict(atoms=(Atom(1.0, 1.0), Atom(2.0, inf))), "atom 1: w"),
                       (dict(pieces=(PowerLawPiece(0.0, inf, 1.0, 0.5),)), "piece 0: hi"),
                       (dict(pieces=(PowerLawPiece(nan, 1.0, 1.0, 0.5),)), "piece 0: lo"),
                       (dict(pieces=(PowerLawPiece(0.0, 1.0, nan, 0.5),)), "piece 0: coeff"),
                       (dict(pieces=(PowerLawPiece(0.0, 1.0, 1.0, nan),)), "piece 0: exponent"),
                       (dict(pieces=(TablePiece((0.0, nan, 1.0), (1.0, 1.0, 1.0)),)),
                        "piece 0: knots"),
                       (dict(pieces=(TablePiece((0.0, 1.0), (1.0, inf)),)), "piece 0: values"),
                       (dict(tail=Tail(inf, 1.0, 0.5)), "tail: threshold"),
                       (dict(tail=Tail(1.0, nan, 0.5)), "tail: coeff"),
                       (dict(tail=Tail(1.0, 1.0, nan)), "tail: exponent")]:
        with pytest.raises(ValidationError, match=f"{field} must be finite"):
            SpectralMeasure(**bad)


# -- invariants ---------------------------------------------------------------

def test_additivity(b2_oracle_measure):
    atoms = (Atom(0.5, 0.3), Atom(2.0, 1.0))
    piece = PowerLawPiece(0.2, 1.0, 0.4, 1.0)
    part1 = SpectralMeasure(atoms=atoms)
    part2 = SpectralMeasure(pieces=(piece,), tail=b2_oracle_measure.tail)
    combined = SpectralMeasure(atoms=atoms, pieces=(piece,),
                               tail=b2_oracle_measure.tail)
    for z in (0.0, -1.0, 1j, -2.0 + 0.7j):
        v1, e1 = integrate_weighted(part1, z)
        v2, e2 = integrate_weighted(part2, z)
        v, e = integrate_weighted(combined, z)
        assert abs(v - (v1 + v2)) <= e + e1 + e2 + 1e-10


def test_tail_consistency_random_z():
    tail = Tail(1.0, 3.0, 1.5)
    sigma = SpectralMeasure(tail=tail)
    rng = np.random.default_rng(20260823)
    for _ in range(10):
        z = complex(rng.uniform(-10, 10), rng.uniform(0.2, 10))

        # brute-force oracle via t = T/u, u in (0, 1]
        def g(u):
            t = tail.threshold / u
            return tail.coeff * t ** -tail.exponent / (t - z) * tail.threshold / u ** 2

        re, _ = quad(lambda u: g(u).real, 0.0, 1.0, limit=200)
        im, _ = quad(lambda u: g(u).imag, 0.0, 1.0, limit=200)
        value, err = integrate_weighted(sigma, z)
        assert abs(value - complex(re, im)) <= err + 1e-8


def test_conjugate_symmetry(paper_measure):
    rng = np.random.default_rng(7)
    for _ in range(10):
        z = complex(rng.uniform(-5, 5), rng.uniform(0.1, 5))
        v_up, _ = integrate_weighted(paper_measure, z)
        v_dn, _ = integrate_weighted(paper_measure, z.conjugate())
        assert abs(v_dn - v_up.conjugate()) <= 1e-14 * (1.0 + abs(v_up))


# -- JSON schema --------------------------------------------------------------

def test_json_roundtrip(paper_measure, b2_oracle_measure):
    table_measure = SpectralMeasure(
        atoms=(Atom(0.5, 0.3),),
        pieces=(TablePiece((0.5, 1.0), (0.0, 1.0)),))
    for sigma in (paper_measure, b2_oracle_measure, table_measure):
        assert measure_from_json(measure_to_json(sigma)) == sigma


def test_json_inverse_sqrt_alias():
    obj = {"pieces": [{"lo": 0.0, "hi": 1.0, "kind": "inverse_sqrt",
                       "coeff": 1.0 / math.pi}],
           "tail": {"T": 1.0, "coeff": 1.0 / math.pi, "exponent": 0.5}}
    sigma = measure_from_json(obj)
    assert sigma.pieces[0] == PowerLawPiece(0.0, 1.0, 1.0 / math.pi, -0.5)


def test_json_rejects_garbage():
    with pytest.raises(ValidationError, match="measure: expected an object"):
        measure_from_json([1, 2, 3])
    with pytest.raises(ValidationError, match=r"measure\.pieces\[0\]\.kind: unknown piece kind"):
        measure_from_json({"pieces": [{"kind": "mystery"}]})


@pytest.mark.parametrize("obj, path", [
    ({"pieces": [{"kind": "table", "knots": [0, 1, "x"], "values": [1, 1, 1]}]},
     "measure.pieces[0].knots[2]: expected a number"),
    ({"atoms": [{"t": 1.0, "w": 1.0}, {"t": 1.0}]}, "measure.atoms[1].w: missing"),
    ({"tail": {"T": 1.0, "coeff": 1.0, "exponent": None}},
     "measure.tail.exponent: expected a number"),
    ({"pieces": {"lo": 0.0}}, "measure.pieces: expected a list"),
])
def test_json_field_errors_name_the_path(obj, path):
    with pytest.raises(ValidationError) as info:
        measure_from_json(obj)
    assert str(info.value).startswith(path)


# -- one pass per measure: values pinned, calls counted ----------------------------

# one inline measure per quad-sweep shape, with atoms and a tail; the worked
# example is the paper_measure fixture
_SHAPES = {
    "power-law-and-table": SpectralMeasure(
        atoms=(Atom(0.7, 0.3), Atom(3.1, 0.12)),
        pieces=(PowerLawPiece(0.0, 0.55, 0.9, -0.45),
                TablePiece((0.55, 1.2, 2.0, 3.3, 4.1, 5.5), (0.4, 0.8, 0.25, 0.6, 0.9, 0.3))),
        tail=Tail(5.5, 0.45, 0.65)),
    "table-positive-at-0": SpectralMeasure(
        atoms=(Atom(1.9, 0.2), Atom(5.0, 0.4)),
        pieces=(TablePiece((0.0, 0.6, 1.3, 2.7, 4.0, 6.2), (0.5, 0.2, 0.9, 0.35, 0.7, 0.15)),),
        tail=Tail(6.2, 0.3, 0.4)),
    "vanishing-power-law-and-table": SpectralMeasure(
        atoms=(Atom(0.25, 0.08), Atom(6.1, 0.33)),
        pieces=(PowerLawPiece(0.0, 0.8, 0.7, 0.85),
                TablePiece((0.8, 1.5, 2.9, 4.4, 7.0), (0.3, 0.95, 0.5, 0.2, 0.6))),
        tail=Tail(7.0, 0.6, 0.9)),
    "table-vanishing-at-0": SpectralMeasure(
        atoms=(Atom(0.9, 0.15), Atom(4.2, 0.05)),
        pieces=(TablePiece((0.0, 0.4, 1.1, 2.5, 3.6, 4.8), (0.0, 0.55, 0.3, 0.85, 0.4, 0.65)),),
        tail=Tail(4.8, 0.2, 0.3)),
}

# float.hex of moments (a, b, i2, err_a, err_b, err_i2), of eval_V on
# log_polar_grid(5, 4) (real, imaginary) and of integrate_weighted's err on that grid,
# as the closed forms (atoms, tables, 1/t) and one quadrature pass with graded origin
# panels compute them; every value is within 5e-16 (relative) of the mpmath table and
# hypergeometric oracles above, and each err covers that error
_PINNED = {
    "paper": (
        "0x1.0000000000001p+0 inf 0x1.6a09e667f3bcep-1 "
        "0x1.85af0b2f796e3p-49 0x0.0p+0 0x1.e2125ad32465bp-49",
        "0x1.38b405b5e545fp+3 0x1.e133654518242p+4 0x1.2965ff595f04dp+4 0x1.995575277a344p+4 "
        "0x1.995575277a343p+4 0x1.2965ff595f04ep+4 0x1.e133654518242p+4 0x1.38b405b5e545ep+3 "
        "0x1.bcdbe3f142390p+0 0x1.5648a4c6cca50p+2 0x1.a716041ce72d1p+1 0x1.2329f9556abf8p+2 "
        "0x1.2329f9556abf8p+2 0x1.a716041ce72d1p+1 0x1.5648a4c6cca51p+2 0x1.bcdbe3f142392p+0 "
        "0x1.3c6ef372fe951p-2 0x1.e6f0e13445502p-1 0x1.2cf2304755a60p-1 0x1.9e3779b97f4abp-1 "
        "0x1.9e3779b97f4a9p-1 0x1.2cf2304755a5fp-1 0x1.e6f0e13445500p-1 0x1.3c6ef372fe953p-2 "
        "0x1.c22a64f6ab1c6p-5 0x1.5a5de7ae00948p-3 0x1.ac2207b70ea9ap-4 0x1.26a320595fc12p-3 "
        "0x1.26a320595fc11p-3 0x1.ac2207b70ea9cp-4 0x1.5a5de7ae00948p-3 0x1.c22a64f6ab1c5p-5 "
        "0x1.40354555e8ba7p-7 0x1.ecbfe4a0dd541p-6 0x1.308936a125e85p-6 0x1.a3286794f8043p-6 "
        "0x1.a3286794f8044p-6 0x1.308936a125e84p-6 0x1.ecbfe4a0dd542p-6 0x1.40354555e8ba5p-7",
        "0x1.092847befbcdbp-41 0x1.2b0cfe725ba22p-42 0x1.7a60bc4b2cb5ep-42 0x1.23d64d6359100p-43 "
        "0x1.d6afaa40ee169p-42 0x1.adf2c02535c35p-44 0x1.926456d3b63eap-44 0x1.4fe7ecdd3153bp-46 "
        "0x1.fbd2def61626ep-48 0x1.04aa53a35ae40p-46 0x1.9d7a1e5f89b21p-49 0x1.89d5aca81557ap-49 "
        "0x1.ac7571727c67ep-43 0x1.7f7596768e285p-42 0x1.991748ebf6fe5p-49 0x1.54e88472ea770p-51 "
        "0x1.e79776f467de6p-46 0x1.1469ee2856881p-43 0x1.3e8df6fc44b0ap-51 0x1.287b34dbb43b0p-53"),
    "power-law-and-table": (
        "0x1.1c52b3e366318p+1 inf 0x1.d4d05cd6b0416p+0 "
        "0x1.b7b84450b7fe3p-48 0x0.0p+0 0x1.0adae296758cfp-47",
        "0x1.aa435fcd75b51p+4 0x1.cfe7770923b12p+5 0x1.4de37ff6ed829p+5 0x1.8094e3a12c982p+5 "
        "0x1.abb8753698f43p+5 0x1.12b7e096471ebp+5 0x1.e72d03e513499p+5 0x1.1e13d268b581fp+4 "
        "0x1.47ddaf67d6808p+2 0x1.8838880922586p+3 0x1.09fc85fb333c7p+3 0x1.452e1f7a3b5a9p+3 "
        "0x1.5946e587ead80p+3 0x1.d097a50007684p+2 0x1.8b847f80351c8p+3 0x1.e3cfb16e3eacbp+1 "
        "0x1.665d4224a2e0ep-2 0x1.498027c3cfb52p+1 0x1.2dd28b0248136p+0 0x1.0f42097cf2733p+1 "
        "0x1.bfd7b8e855615p+0 0x1.824b43b77060ep+0 0x1.0cff3f12e8d63p+1 0x1.91ad73c5a9b29p-1 "
        "-0x1.0a2547e57e970p-4 0x1.b3b37f0750f62p-3 0x1.5a6bd21fb3d17p-5 0x1.c96a4b7699678p-3 "
        "0x1.1de934f272a0bp-3 0x1.7200f7c059350p-3 0x1.a3e0355f940a2p-3 0x1.99474419436d5p-4 "
        "-0x1.6dc77be48d998p-9 0x1.37167796c175ap-6 0x1.61b52421bb448p-8 0x1.32ace0716f624p-6 "
        "0x1.a468cecadba59p-7 0x1.e97e5b70013fap-7 0x1.27086e321ae48p-6 0x1.0f44511f1ec42p-7",
        "0x1.d45d36b99ba57p-41 0x1.284ca698adce4p-40 0x1.2b6a8eb6cc2a2p-40 0x1.1eb270f59be42p-42 "
        "0x1.dc37ba1dbd493p-38 0x1.289dbb235287cp-40 0x1.e158794d0e7a5p-43 0x1.7bd2080d63caep-45 "
        "0x1.d9a2854ba5025p-47 0x1.2a24979abce2fp-47 0x1.f50b9826fe160p-48 0x1.d21a42fc61daep-48 "
        "0x1.bc160fe17a4e3p-45 0x1.57ed8b4be4025p-42 0x1.3ff408e91d52bp-49 0x1.87d0dfd29d3b1p-51 "
        "0x1.b73e9fbe5bc90p-42 0x1.0ad989a5957a6p-44 0x1.3324ce2b2bd50p-52 0x1.3d7c2a0e3956bp-54"),
    "table-positive-at-0": (
        "0x1.77bfb94ee31ecp+0 inf 0x1.841994d1960aep-1 "
        "0x1.512b389b3bd10p-48 0x0.0p+0 0x1.9f54b3b43236fp-48",
        "0x1.2d9301bd4f764p+2 0x1.40f6f635594a6p+0 0x1.2daf66360fc31p+2 0x1.e0dd62a018a09p-1 "
        "0x1.2dca6c74d6c31p+2 0x1.404365d30fa0ep-1 0x1.2ddd7f482d4adp+2 0x1.400fab66b504ep-2 "
        "0x1.7cafabd4988e0p+1 0x1.32e44ee3698a3p+0 0x1.80171bfe63844p+1 0x1.c8209458d3e19p-1 "
        "0x1.82734ca4f8a0ap+1 0x1.2ea42be45075cp-1 0x1.83c7caf20f80bp+1 0x1.2e03d22f5afebp-2 "
        "0x1.b84b431bd29c5p+0 0x1.57ebbb664e278p+0 0x1.852ce6d7a1a45p+0 0x1.dda044b35e60ap-1 "
        "0x1.799c89afd9e71p+0 0x1.30a042be3643fp-1 0x1.77c4c175bfcadp+0 0x1.298f84a4e9f7fp-2 "
        "0x1.3451a19b70916p-4 0x1.09b641b645dccp-2 0x1.5657bdf2fbb57p-3 0x1.ec1b00fe5252ap-3 "
        "0x1.f6011df0f1890p-3 0x1.723e46d0d6284p-3 0x1.2da10c0b055b1p-2 0x1.895c14d7a792cp-4 "
        "0x1.03e77016af34ap-5 0x1.bb1a4d79cdb3cp-5 0x1.6fe419f424ea7p-5 0x1.6fc36c0cdd64fp-5 "
        "0x1.c676e207a10fep-5 0x1.07d019fb1a392p-5 0x1.fea4442402625p-5 0x1.13c4371332f74p-6",
        "0x1.fb1b513dd9781p-47 0x1.f0af91e66f512p-47 0x1.eb23daeaccbdbp-47 0x1.e6ca719887af0p-47 "
        "0x1.8084bf0725b1dp-47 0x1.6e6cc322e94edp-47 0x1.5fd2f63bbfe47p-47 0x1.578ca22459b55p-47 "
        "0x1.3464d238eaa81p-47 0x1.ce88abbf64878p-48 0x1.83e4b60c2ee10p-48 0x1.5d794a6cd5e1bp-48 "
        "0x1.0a059313e9c64p-42 0x1.5537e1dd5128ap-41 0x1.d6011c02ae21dp-49 0x1.12df9bccd766bp-50 "
        "0x1.7aeee95c72567p-41 0x1.a0f569319954ap-43 0x1.1a76f543c498dp-50 0x1.138f895cf0ea6p-52"),
    "vanishing-power-law-and-table": (
        "0x1.2f49ba916ba72p+0 0x1.2ecc021dc8563p+1 0x1.77f9cdad7d629p-1 "
        "0x1.e214954a71238p-49 0x1.ac6ec949afc36p-48 0x1.2e95dc6d393d7p-48",
        "0x1.2f6f6bc4ea0d5p+1 0x1.4266199e40401p-7 0x1.2ebcc60f4b0d4p+1 0x1.657b6887ceab1p-7 "
        "0x1.2e1186e77e995p+1 0x1.2e2f2182c292ap-7 0x1.2d97571b60c45p+1 0x1.5837ffa617e92p-8 "
        "0x1.3728747b9cec9p+1 0x1.59b4ef4bbf276p-3 0x1.2bac1ad078626p+1 0x1.61da77d7aee19p-3 "
        "0x1.221d71395619dp+1 0x1.15c7b6825f164p-3 0x1.1c19fcc00d788p+1 0x1.2ca3c6af8c1c0p-4 "
        "0x1.532191b0a6fc8p+0 0x1.55fdb7580596dp+0 0x1.37430b13c7896p+0 0x1.d4cf5b14044fcp-1 "
        "0x1.31455ddab038dp+0 0x1.2368f5b1c770bp-1 0x1.2fa7ab8c31489p+0 0x1.175f7650eaa94p-2 "
        "-0x1.548e760361934p-4 0x1.378d44f57e3f4p-3 0x1.205c6512aef76p-7 0x1.52f11c3e5e152p-3 "
        "0x1.611f2eb6fc3a6p-4 0x1.0f625f9861e77p-3 0x1.14327564c5d61p-3 0x1.27e80bd280d86p-4 "
        "-0x1.3d2343b28dfc4p-8 0x1.dbff496befbc6p-8 -0x1.a66d8e93945dcp-12 0x1.1b4abb7a04598p-7 "
        "0x1.0aeada0a63a75p-8 0x1.f053c6032b0cbp-8 0x1.e1d616353ae47p-8 0x1.1fc7a5da919c4p-8",
        "0x1.68ea59cad637bp-43 0x1.1ba6f6874c269p-45 0x1.d0a2463dd89a0p-48 0x1.c4e8feaed606fp-48 "
        "0x1.537188b863282p-45 0x1.e547b0f913a4ap-43 0x1.145a2a9d53818p-47 0x1.b18580cd8d63ap-48 "
        "0x1.ba4f33a6eaa91p-39 0x1.9bd742d8c9b0fp-48 0x1.19206d9326ba9p-48 0x1.f11096b4cc841p-49 "
        "0x1.24e8ae411d778p-42 0x1.2d2a86715aef6p-42 0x1.51689cab69312p-50 0x1.f3930d4cee13ep-52 "
        "0x1.06c2333eb6fadp-43 0x1.49fc212f245b4p-47 0x1.542204adb4e9bp-54 0x1.ee93113f69257p-56"),
    "table-vanishing-at-0": (
        "0x1.537c729c6c69dp+0 0x1.35b535d9e7c12p+1 0x1.64afe5cfc6d85p-1 "
        "0x1.08496342a477bp-48 0x1.c03f1c0e3562ap-48 0x1.4407215e0d8c6p-48",
        "0x1.367002fbb2574p+1 0x1.13a5dcf213cbcp-7 0x1.35c5442835c4cp+1 0x1.44134b17ccfa5p-7 "
        "0x1.351ea04faac24p+1 0x1.1866b75aea4fap-7 0x1.34a72cad0e91fp+1 0x1.427b6cb5ce214p-8 "
        "0x1.3d2ac39de1836p+1 0x1.68aa14aa4d0a0p-3 0x1.31edc741b3462p+1 0x1.5a0b8f7f8ea79p-3 "
        "0x1.29370f42bc58ap+1 0x1.07be2aee50756p-3 0x1.23d5ce4471f08p+1 0x1.1a207e65e4ee1p-4 "
        "0x1.5e41030cee1a4p+0 0x1.4f23c75e2bb8bp+0 0x1.5a1b4e627fad0p+0 0x1.bf5ae76f1b072p-1 "
        "0x1.55e8eb591a0e9p+0 0x1.135f95665a717p-1 0x1.540502ac3617ep+0 0x1.06e7cf5268c4cp-2 "
        "0x1.366dda6bb34b2p-3 0x1.d4cb7be87fb7dp-3 0x1.c062192c26cdep-3 0x1.a73dee1a5ba73p-3 "
        "0x1.1cee9083bed2dp-2 0x1.3c67ef005818ep-3 0x1.447fb781420c2p-2 0x1.4ff13c392c540p-4 "
        "0x1.1db95488b227cp-4 0x1.16adbd43813b3p-4 0x1.4fc891ff809d8p-4 0x1.bbcc1e0913cdfp-5 "
        "0x1.76bf0a29c34bdp-4 0x1.356ca7ccd5e06p-5 0x1.8f96bf6f271eap-4 0x1.3e21aeca6721fp-6",
        "0x1.d3eda21c005ddp-48 0x1.d00deb8a0a4a6p-48 0x1.d1495ede01e46p-48 0x1.d24ef68279d06p-48 "
        "0x1.e122c5bffaba9p-48 0x1.d25a14c7eac17p-48 0x1.c2eed0386461bp-48 0x1.bc51290d3f053p-48 "
        "0x1.e8fbecf32dc99p-48 0x1.666884bb8608fp-48 0x1.29ef3b628bbbcp-48 0x1.0faac66c0ff25p-48 "
        "0x1.3fa7f670accc7p-45 0x1.adf759533f5c1p-42 0x1.d942876f11698p-49 0x1.0f6aebbca6176p-50 "
        "0x1.7b674d3dbe255p-42 0x1.6eb4c82a54683p-42 0x1.8d6805c503472p-50 0x1.b9a61aa99dda8p-52"),
}


@pytest.mark.parametrize("name", list(_PINNED))
def test_one_pass_is_bit_identical_to_the_per_part_calls(name, paper_measure):
    sigma = paper_measure if name == "paper" else _SHAPES[name]
    mom_hex, v_hex, err_hex = _PINNED[name]
    mom = moments(sigma)
    assert [float.hex(x) for x in (mom.a, mom.b, mom.i2, mom.err_a, mom.err_b, mom.err_i2)] \
        == mom_hex.split()
    v = eval_V(StieltjesLikeFunction(sigma, 0.0), log_polar_grid(5, 4))
    assert [float.hex(x) for z in v.tolist() for x in (z.real, z.imag)] == v_hex.split()
    _, err = integrate_weighted(sigma, log_polar_grid(5, 4))
    assert [float.hex(x) for x in err.tolist()] == err_hex.split()


@pytest.mark.parametrize("name", list(_PINNED))
def test_moments_is_one_quadrature_pass(name, paper_measure, integrand_calls):
    # one root per power law and one for the tail: no knot segment of a table
    sigma = paper_measure if name == "paper" else _SHAPES[name]
    moments(sigma)
    assert integrand_calls.passes == 1
    assert integrand_calls.roots == 1 + sum(isinstance(p, PowerLawPiece) for p in sigma.pieces)


def test_eval_V_on_the_verify_grid_is_one_quadrature_pass(paper_measure, integrand_calls):
    # piece and tail in one pass: one integrand call per level of the deepest point;
    # the graded origin panels leave 3 levels (8 when each chart started as one panel)
    eval_V(StieltjesLikeFunction(paper_measure, 0.0), log_polar_grid(5, 4))
    assert integrand_calls.passes == 1 and 1 <= len(integrand_calls) <= 3


# -- the shared resolvent pass ------------------------------------------------

#: run_verify's pass: the moment points, then the 5 x 4 verify grid
_VERIFY_POINTS = [*measure_module.MOMENT_POINTS, *log_polar_grid(5, 4)]


@pytest.mark.parametrize("gamma", [0.0, 0.5, -1.3, 2.7])
def test_a_verify_job_is_one_quadrature_call(gamma, paper_measure, zero_potential,
                                             integrand_calls):
    # restore's moments and the 20 samples read one pass; the report is, bit for bit, the
    # one built from separate moments and eval_V calls (two quadrature calls)
    report = run_verify(paper_measure, gamma, zero_potential)
    assert integrand_calls.passes == 1
    result = run_restore(paper_measure, gamma, None, zero_potential)
    params = SystemParams(h=result.restored.h, mu=result.restored.mu,
                          m_fn=weyl_m_fn(WeylEvaluator(potential=zero_potential)),
                          theta_expected=result.operator.theta, gamma=gamma)
    alone = verify_realization(StieltjesLikeFunction(paper_measure, gamma), params,
                               log_polar_grid(5, 4))
    assert integrand_calls.passes == 3
    assert json.dumps(report.to_json()) == json.dumps(alone.to_json())


def test_a_pass_serves_only_its_measure_object_and_points(paper_measure, integrand_calls,
                                                          monkeypatch):
    grid = np.array(log_polar_grid(5, 4))
    alone = [integrate_weighted(paper_measure, z)
             for z in (measure_module.MOMENT_POINTS, grid, grid[3], complex(-1.0, -0.0))]
    copy = SpectralMeasure(**vars(paper_measure))  # equal, not the same object

    def failure(z):
        with pytest.raises(ValidationError) as info:
            integrate_weighted(paper_measure, z)
        return type(info.value), str(info.value)

    bad = (math.nan, 2.0, np.append(grid, math.nan))  # a NaN, a point on the support
    refused = [failure(z) for z in bad]
    assert [kind for kind, _ in refused] == [ValidationError, PoleOnSupport, ValidationError]
    checked = []  # the requests validated point by point
    points = measure_module._points
    monkeypatch.setattr(measure_module, "_points", lambda z: checked.append(z) or points(z))
    integrand_calls.passes = 0
    with resolvent_pass(paper_measure, _VERIFY_POINTS):
        assert integrand_calls.passes == 1 and len(checked) == 1  # integrated on entry
        served = [integrate_weighted(paper_measure, measure_module.MOMENT_POINTS),
                  integrate_weighted(paper_measure, grid), integrate_weighted(paper_measure, grid[3])]
        assert integrand_calls.passes == 1 and len(checked) == 1
        # a point off the set (imaginary part -0.0, not 0.0), another object, a wider array
        conj = integrate_weighted(paper_measure, complex(-1.0, -0.0))
        integrate_weighted(copy, grid)
        integrate_weighted(paper_measure, np.append(grid, -2.0))
        assert integrand_calls.passes == 4
        assert [failure(z) for z in bad] == refused  # as outside the pass
    for (v, e), (v0, e0) in zip(served + [conj], alone):
        assert np.asarray(v).tobytes() == np.asarray(v0).tobytes()
        assert np.asarray(e).tobytes() == np.asarray(e0).tobytes()
    assert type(served[2][0]) is complex and type(served[2][1]) is float


def test_nothing_is_reused_outside_the_pass(paper_measure, zero_potential, integrand_calls):
    # the pass lives in its block and its thread: the session-wide measure keeps nothing
    run_verify(paper_measure, 0.0, zero_potential)
    assert integrand_calls.passes == 1 and measure_module._PASS.get() is None
    moments(paper_measure)
    eval_V(StieltjesLikeFunction(paper_measure, 0.0), log_polar_grid(5, 4))
    assert integrand_calls.passes == 3
    seen = []

    def other_thread():
        seen.append(measure_module._PASS.get())
        moments(paper_measure)

    with pytest.raises(RuntimeError):
        with resolvent_pass(paper_measure, _VERIFY_POINTS):
            moments(paper_measure)
            assert integrand_calls.passes == 4
            thread = threading.Thread(target=other_thread)
            thread.start()
            thread.join(timeout=60)
            assert not thread.is_alive() and seen == [None] and integrand_calls.passes == 5
            moments(paper_measure)
            assert integrand_calls.passes == 5
            raise RuntimeError  # a block left by an exception keeps nothing either
    assert measure_module._PASS.get() is None
    moments(paper_measure)
    assert integrand_calls.passes == 6


def test_a_pass_that_raises_is_dropped(paper_measure, integrand_calls):
    # a set with a point on the support: the pass raises on entry and is not kept, so
    # each request computes alone, as it would outside the block
    alone = integrate_weighted(paper_measure, -1.0)
    with resolvent_pass(paper_measure, [-1.0, 2.0]):
        assert integrate_weighted(paper_measure, -1.0) == alone
        assert integrate_weighted(paper_measure, -1.0) == alone
        with pytest.raises(PoleOnSupport, match="z=.2"):
            integrate_weighted(paper_measure, 2.0)
    assert integrand_calls.passes == 3


def test_a_verify_job_fails_where_its_own_calls_fail(zero_potential):
    # a power law u**1201 has no Gauss-Jacobi rule in float range: with finite mass,
    # classify's NotSL0 comes first; with infinite mass, moments' UnrepresentableMeasure
    steep = PowerLawPiece(0.0, 1.0, 1.0, 600.0)
    with pytest.raises(NotSL0):
        run_verify(SpectralMeasure(pieces=(steep,)), 0.0, zero_potential)
    sigma = SpectralMeasure(pieces=(steep,), tail=Tail(1.0, 1.0, 0.5))
    with pytest.raises(UnrepresentableMeasure) as alone:
        moments(sigma)
    with pytest.raises(UnrepresentableMeasure) as shared:
        run_verify(sigma, 0.0, zero_potential)
    assert str(shared.value) == str(alone.value)


def test_a_verify_job_outside_sl0_makes_no_quadrature_call(zero_potential, integrand_calls):
    # finite mass (no tail): classify refuses the measure before the pass integrates
    sigma = SpectralMeasure(pieces=(PowerLawPiece(0.0, 1.0, 1.0 / math.pi, -0.5),))
    with pytest.raises(NotSL0):
        run_verify(sigma, 0.0, zero_potential)
    assert integrand_calls.passes == 0 and integrand_calls == []


def _wrap_integrands(monkeypatch, wrap):
    """Replace the integrand of every adaptive_gauss_legendre call by wrap(f), a one-argument
    g(t), through the module global: what the benchmark's tracer does."""
    quadrature = measure_module.adaptive_gauss_legendre

    def wrapper(*args, **kwargs):
        if args and callable(args[0]):
            args = (wrap(args[0]),) + args[1:]
        return quadrature(*args, **kwargs)

    monkeypatch.setattr(measure_module, "adaptive_gauss_legendre", wrapper)


def test_a_one_argument_integrand_wrapper_sees_every_node(tmp_path, monkeypatch, paper_measure):
    # the quadrature maps u to t and applies the tail's 1/u**2 factor itself, so f(t)
    # alone carries every node: counting it changes no artifact, and an f that reads 0
    # leaves only the closed forms, of the atoms and the table here
    jobs = {"verify": {"measure": measure_to_json(paper_measure), "gamma": 0.5,
                       "potential": {"a": 0.0, "q": {"kind": "zero"}}},
            "moments": {"measure": measure_to_json(_SHAPES["power-law-and-table"])}}

    def artifacts(tag):
        out = {}
        for command, job in jobs.items():
            path, target = tmp_path / f"{command}.json", tmp_path / f"{command}-{tag}.out"
            path.write_text(json.dumps(job))
            assert cli.main([command, "--job", str(path), "--out", str(target), "--quiet"]) == 0
            out[command] = target.read_bytes()
        return out

    plain, seen = artifacts("plain"), []

    def counted(f):
        def g(t):
            seen.append(np.size(t))
            return f(t)
        return g

    _wrap_integrands(monkeypatch, counted)
    assert artifacts("counted") == plain and min(seen) > 0
    _wrap_integrands(monkeypatch, lambda f: lambda t: 0.0 * f(t))
    mom = moments(paper_measure)
    assert (mom.a, mom.i2, mom.err_a, mom.err_i2) == (0.0, 0.0, 0.0, 0.0)
    grid = log_polar_grid(5, 4)
    assert not eval_V(StieltjesLikeFunction(paper_measure, 0.0), grid).any()
    sigma = _SHAPES["power-law-and-table"]
    mom = moments(sigma)
    closed = moments(SpectralMeasure(atoms=sigma.atoms, pieces=sigma.pieces[1:]))
    assert (mom.a, mom.i2) == (closed.a, closed.i2)
    exact = 0.3 / 1.7 + 0.12 / 4.1 + _table_oracle(sigma.pieces[1], -1.0).real
    assert abs(mom.a - exact) <= 1e-15


# -- kernel workspace ---------------------------------------------------------

def _quad_sweep_measures(n):
    """The first n distinct measures of the benchmark's quad-sweep jobs, seed 1."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    found = []
    for job in workloads.make_jobs("quad-sweep", 1):
        if job["measure"] not in found:
            found.append(job["measure"])
    return [measure_from_json(m) for m in found[:n]]


def test_a_warm_pass_allocates_no_row_node_array(paper_measure):
    # the kernel values fill the thread's workspace: what is left is small arrays and
    # numpy's casting buffer (the parent's per-level (row, node) arrays peaked at 526 kB)
    f, grid = StieltjesLikeFunction(paper_measure, 0.0), log_polar_grid(5, 4)
    eval_V(f, grid)  # rules cached, workspace grown
    moments(paper_measure)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        eval_V(f, grid)
        moments(paper_measure)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= 200e3


def test_the_workspace_is_per_thread(paper_measure):
    # four threads interleave passes over four measures and four point sets: each result
    # is the one the main thread gets alone, bit for bit
    sigmas = [paper_measure] + _quad_sweep_measures(3)
    points = [np.array(log_polar_grid(5, 4)), np.linspace(0.2, 5.0, 20) + 1e-3j,
              np.array([-1.0, 0.0, 1j]), np.array([-3.0 + 0.5j, 0.1j, -0.01, 2.0 - 1.0j])]
    cases = [(s, z) for s in sigmas for z in points]
    alone = [integrate_weighted(s, z) for s, z in cases]
    mismatches, failures = [], []

    def run(k):
        try:
            for _ in range(2):
                for i in list(range(k, len(cases))) + list(range(k)):
                    value, err = integrate_weighted(*cases[i])
                    if not (np.array_equal(value, alone[i][0])
                            and np.array_equal(err, alone[i][1])):
                        mismatches.append(i)
        except Exception as exc:  # pragma: no cover - reported below
            failures.append(exc)

    threads = [threading.Thread(target=run, args=(4 * k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter will
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == [] and mismatches == []


def test_the_workspace_is_bounded_by_the_breadth_cap(paper_measure):
    # a near-support array: the new thread's workspace holds its largest level, at most
    # 31 node values per panel under the breadth cap
    held = []

    def run():
        held.append(getattr(measure_module._workspace, "array", None))
        integrate_weighted(paper_measure, np.linspace(0.2, 5.0, 20) + 1e-3j)
        held.append(measure_module._workspace.array.size)

    integrate_weighted(paper_measure, np.array(log_polar_grid(5, 4)))  # this thread's own
    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive() and held[0] is None
    assert 0 < held[1] <= 31 * measure_module._MAX_PANELS
