"""Tests for spectral measures and weighted integrals.

Independent oracle: scipy.integrate.quad on explicitly substituted
integrands, plus closed-form antiderivatives where they exist (evaluated in
mpmath for the 200-knot tables, and as Gauss hypergeometric functions for
power-law pieces and tails).
"""
from __future__ import annotations

import cmath
import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

import slrestore.measure as measure_module
from slrestore.errors import (
    DivergentAtOrigin,
    NonIntegrable,
    NotSL0,
    PoleOnSupport,
    ValidationError,
)
from slrestore.measure import (
    INV_1PLUS_T,
    INV_1PLUS_T2,
    INV_T,
    Atom,
    PowerLawPiece,
    Resolvent,
    SpectralMeasure,
    TablePiece,
    Tail,
    adaptive_gauss_legendre,
    classify,
    integrate_weighted,
    measure_from_json,
    measure_to_json,
    moments,
)


# -- quadrature core ----------------------------------------------------------

def test_quadrature_polynomial_exact():
    value, err = adaptive_gauss_legendre(lambda t: 3.0 * t * t, 0.0, 1.0)
    assert abs(value - 1.0) < 1e-13
    assert err >= 0.0


def test_quadrature_oscillatory_oracle():
    value, _ = adaptive_gauss_legendre(np.cos, 0.0, 30.0)
    oracle, _ = quad(math.cos, 0.0, 30.0)
    assert abs(value - oracle) < 1e-10


def test_quadrature_empty_interval():
    assert adaptive_gauss_legendre(np.cos, 1.0, 1.0) == (0.0, 0.0)


def _reference_dfs(f, lo, hi, tol=1e-11, max_depth=52):
    """The scalar depth-first loop that the panel-set quadrature replaced."""
    nodes_lo, weights_lo = np.polynomial.legendre.leggauss(10)
    nodes_hi, weights_hi = np.polynomial.legendre.leggauss(21)
    width0 = hi - lo
    if width0 <= 0:
        return 0.0, 0.0
    stack = [(lo, hi, 0)]
    value = 0.0
    err = 0.0
    while stack:
        a, b, depth = stack.pop()
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        i_hi = half * np.sum(weights_hi * f(mid + half * nodes_hi))
        i_lo = half * np.sum(weights_lo * f(mid + half * nodes_lo))
        e = abs(i_hi - i_lo)
        if e <= tol * ((b - a) / width0) or depth >= max_depth:
            value = value + i_hi
            err += e
        else:
            stack.append((a, mid, depth + 1))
            stack.append((mid, b, depth + 1))
    return value, err


def _reference_sum(f, lo, hi):
    value = 0.0
    err = 0.0
    for k0, k1 in zip(lo, hi):
        v, e = _reference_dfs(f, k0, k1)
        value = value + v
        err += e
    return value, err


def _jittered_table(seed, lo, hi, n_knots, v0):
    """Knots and values shaped like the benchmark's 200-knot tables."""
    rng = np.random.default_rng(seed)
    step = (hi - lo) / (n_knots - 1)
    knots = lo + step * np.arange(n_knots)
    knots[1:-1] += rng.uniform(-0.3, 0.3, n_knots - 2) * step
    values = np.concatenate([[v0], rng.uniform(0.05, 1.0, n_knots - 1)])
    return TablePiece(tuple(knots.tolist()), tuple(values.tolist()))


_PANEL_SET_CASES = {
    "table-inv-1plus-t": lambda p: (lambda t: p.density(t) / (1.0 + t)),
    "table-inv-t": lambda p: (lambda t: p.density(t) / t),
    "table-resolvent": lambda p: (lambda t: p.density(t) / (t - (0.4 + 0.05j))),
    "power-0.3": lambda p: (lambda t: np.power(t, 0.3)),
}


@pytest.mark.parametrize("case", sorted(_PANEL_SET_CASES))
def test_panel_set_equals_per_segment_reference(case):
    piece = _jittered_table(11, 0.0, 3.0, 40, 0.0)
    f = _PANEL_SET_CASES[case](piece)
    knots = np.asarray(piece.knots)
    value, err = adaptive_gauss_legendre(f, knots[:-1], knots[1:])
    ref_value, ref_err = _reference_sum(f, piece.knots[:-1], piece.knots[1:])
    assert abs(value - ref_value) <= 1e-14 * abs(ref_value)
    assert err == ref_err


def test_panel_set_zero_width_segments_add_nothing():
    lo = np.array([0.0, 1.0, 1.0, 2.5, 3.0])
    hi = np.array([1.0, 1.0, 2.5, 2.5, 2.0])  # two empty pairs, one reversed
    value, err = adaptive_gauss_legendre(np.sqrt, lo, hi)
    ref_value, ref_err = _reference_sum(np.sqrt, [0.0, 1.0], [1.0, 2.5])
    assert abs(value - ref_value) <= 1e-14 * ref_value
    assert err == ref_err
    assert adaptive_gauss_legendre(np.sqrt, [1.0, 2.0], [1.0, 2.0]) == (0.0, 0.0)


def test_depth_cap_one_integrand_call_per_level():
    calls = []

    def f(t):
        calls.append(t.size)
        return t ** 0.2

    value, err = adaptive_gauss_legendre(f, 0.0, 1.0)
    assert len(calls) == 53  # depths 0..52: the cap is reached, silently
    assert abs(value - 1.0 / 1.2) < 1e-10
    ref_value, ref_err = _reference_dfs(lambda t: t ** 0.2, 0.0, 1.0)
    assert abs(value - ref_value) <= 1e-14 * ref_value and err == ref_err


@pytest.mark.parametrize("f", [lambda t: np.abs(t - 0.37) ** 0.5,
                               lambda t: 1.0 / (t - (0.3 + 0.01j))], ids=["kink", "pole"])
def test_panel_sums_in_depth_first_order(f):
    # refinement on both sides of an interior point: panels must be added
    # right to left, as the depth-first stack popped them, to match it exactly
    assert adaptive_gauss_legendre(f, 0.0, 1.0) == _reference_dfs(f, 0.0, 1.0)


_ROW_PARAMS = np.array([0.13, 0.37, 0.81, 1.7])


def _hidden_bump(t):
    """A hat on [0.5167, 0.5567]: no depth-0 node of [0, 1] sees it, some depth-1 node does."""
    return np.maximum(0.0, 1.0 - np.abs(t - 0.5367) / 0.02)


@pytest.mark.parametrize("rows", [
    lambda t: np.abs(t - _ROW_PARAMS[:, None]) ** 0.5,
    lambda t: 1.0 / (t - (_ROW_PARAMS[:, None] + 0.01j)),
    lambda t: np.power(t, _ROW_PARAMS[:, None]),
    lambda t: np.stack([_hidden_bump(t) + 0j, 1.0 / (t - (0.53 + 0.01j))]),
], ids=["kinks", "poles", "powers", "accepted-row-stays-accepted"])
def test_vector_rows_equal_scalar_reference(rows):
    # each row refines around its own point (or to the depth cap at 0), so the
    # levels' panel sets differ per row; every row must still get the scalar
    # loop's value and error exactly.  In the last case the bump row accepts
    # [0, 1] at once, and must not take up the panels the pole row refines.
    value, err = adaptive_gauss_legendre(rows, 0.0, 1.0)
    assert value.shape == err.shape == (len(rows(np.zeros(1))),)
    for j in range(len(value)):
        ref_value, ref_err = _reference_dfs(lambda t: rows(t)[j], 0.0, 1.0)
        assert value[j] == ref_value and err[j] == ref_err


def test_vector_rows_on_root_panels_equal_the_scalar_calls():
    piece = _jittered_table(11, 0.0, 3.0, 40, 0.0)
    knots = np.asarray(piece.knots)
    z = np.array([0.4 + 0.05j, 1.9 + 0.02j, -1.0 + 0.5j])
    value, err = adaptive_gauss_legendre(
        lambda t: piece.density(t) / (t - z[:, None]), knots[:-1], knots[1:])
    for j, zj in enumerate(z):
        assert (value[j], err[j]) == adaptive_gauss_legendre(
            lambda t: piece.density(t) / (t - zj), knots[:-1], knots[1:])


@pytest.fixture
def integrand_calls(monkeypatch):
    """Sizes of the integrand calls that integrate_weighted's quadrature makes."""
    sizes = []
    quadrature = measure_module.adaptive_gauss_legendre

    def counting(f, *args, **kwargs):
        def g(t):
            sizes.append(np.size(t))
            # fail fast where a missing breadth cap would run away
            assert sizes[-1] <= 31 * measure_module._MAX_PANELS
            return f(t)
        return quadrature(g, *args, **kwargs)

    monkeypatch.setattr(measure_module, "adaptive_gauss_legendre", counting)
    return sizes


def test_breadth_cap_when_tol_is_below_round_off(integrand_calls):
    # |density| ~ 1e8 puts the rule difference (round-off) above the absolute
    # tol on every panel; the panel count doubles per level until the cap
    # accepts the level, and the error estimate still reports what is left
    piece = TablePiece((0.5, 1.0, 2.0), (1e8, 2e8, 1e8))
    value, err = integrate_weighted(SpectralMeasure(pieces=(piece,)), INV_1PLUS_T)
    oracle = _table_oracle(piece, INV_1PLUS_T)
    assert abs(value - oracle) <= 1e-13 * abs(oracle)
    assert err > 1e-11
    assert len(integrand_calls) < 53


# -- weighted integrals -------------------------------------------------------

def test_i2_closed_form(paper_measure):
    # integral of 1/(pi sqrt(t) (1+t^2)) over (0, inf) equals 1/sqrt(2)
    value, err = integrate_weighted(paper_measure, INV_1PLUS_T2)
    assert abs(value - 1.0 / math.sqrt(2.0)) < 1e-10
    assert err < 1e-9


def test_atom_inv_t():
    sigma = SpectralMeasure(atoms=(Atom(1.0, 1.0),))
    value, err = integrate_weighted(sigma, INV_T)
    assert value == 1.0 and err == 0.0


def test_resolvent_at_minus_one(paper_measure):
    # substitution t = u^2: integral dt/(pi sqrt(t)(t+1)) = 2/pi * arctan(u)| = 1
    value, _ = integrate_weighted(paper_measure, Resolvent(-1.0))
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
    value, _ = integrate_weighted(sigma, Resolvent(z))
    assert abs(value - complex(re, im)) < 1e-8


@pytest.mark.parametrize("z", [3.0 + 1e-3j, 0.5 + 1e-4j])
def test_resolvent_near_support_closed_form(paper_measure, z, integrand_calls):
    # integral dt / (pi sqrt(t) (t - z)) = (-z)**(-1/2); next to the pole the
    # panels refine down to round-off, and the breadth cap ends the refinement
    value, _ = integrate_weighted(paper_measure, Resolvent(z))
    oracle = (-z) ** -0.5
    assert abs(value - oracle) <= 1e-12 * abs(oracle)


def test_b_divergence_is_analytic(paper_measure):
    value, err = integrate_weighted(paper_measure, INV_T)
    assert math.isinf(value) and value > 0
    assert err == 0.0


def test_b2_antiderivative_oracle(b2_oracle_measure):
    # integral of 3 t^(-5/2) on [1, inf) has antiderivative -2 t^(-3/2)
    value, err = integrate_weighted(b2_oracle_measure, INV_T)
    oracle = 0.0 - (-2.0 * 1.0 ** -1.5)
    assert abs(value - oracle) < 1e-9
    assert err == 0.0


def test_table_piece_quad_oracle():
    piece = TablePiece(knots=(0.5, 1.0, 2.0), values=(0.0, 1.0, 0.5))
    sigma = SpectralMeasure(pieces=(piece,))
    value, _ = integrate_weighted(sigma, INV_1PLUS_T)
    oracle, _ = quad(lambda t: np.interp(t, piece.knots, piece.values) / (1.0 + t),
                     0.5, 2.0, points=[1.0])
    assert abs(value - oracle) < 1e-10


def _table_oracle(piece, kernel):
    """Sum of per-segment closed-form antiderivatives of (alpha + beta t) k(t)."""
    with mpmath.workdps(40):
        total = mpmath.mpf(0)
        pts = list(zip(piece.knots, piece.values))
        for (t0, v0), (t1, v1) in zip(pts[:-1], pts[1:]):
            t0, v0, t1, v1 = (mpmath.mpf(x) for x in (t0, v0, t1, v1))
            beta = (v1 - v0) / (t1 - t0)
            alpha = v0 - beta * t0
            if kernel == INV_T:
                log_part = alpha * mpmath.log(t1 / t0) if alpha != 0 else 0
                total += log_part + beta * (t1 - t0)
            elif kernel == INV_1PLUS_T:
                total += (alpha - beta) * mpmath.log((1 + t1) / (1 + t0)) + beta * (t1 - t0)
            elif kernel == INV_1PLUS_T2:
                total += (alpha * (mpmath.atan(t1) - mpmath.atan(t0))
                          + beta / 2 * mpmath.log((1 + t1 ** 2) / (1 + t0 ** 2)))
            else:
                z = mpmath.mpc(kernel.z.real, kernel.z.imag)
                total += ((alpha + beta * z) * (mpmath.log(t1 - z) - mpmath.log(t0 - z))
                          + beta * (t1 - t0))
        return complex(total)


@pytest.mark.parametrize("start, v0", [(0.6, 0.4), (0.0, 0.0)])
@pytest.mark.parametrize("kernel", [INV_T, INV_1PLUS_T, INV_1PLUS_T2,
                                    Resolvent(-0.7 + 1.3j)], ids=str)
def test_200_knot_table_mpmath_oracle(start, v0, kernel):
    piece = _jittered_table(20261018, start, 6.5, 200, v0)
    value, _ = integrate_weighted(SpectralMeasure(pieces=(piece,)), kernel)
    oracle = _table_oracle(piece, kernel)
    assert abs(value - oracle) <= 1e-12 * abs(oracle)


@pytest.mark.parametrize("kernel", [INV_T, INV_1PLUS_T, INV_1PLUS_T2,
                                    Resolvent(-0.7 + 1.3j)], ids=str)
def test_200_knot_table_integral_is_a_few_integrand_calls(kernel, integrand_calls):
    # one integrand call per refinement level, not one per knot segment
    piece = _jittered_table(20261018, 0.0, 6.5, 200, 0.0)
    integrate_weighted(SpectralMeasure(pieces=(piece,)), kernel)
    assert 1 <= len(integrand_calls) <= 4
    assert integrand_calls[0] == 199 * 31


def _hyp2f1_kernel_integral(kernel, e, h):
    """Antiderivative of t**e k(t) at h, as a 2F1 in mpmath (e != -1)."""
    e, h = mpmath.mpf(e), mpmath.mpf(h)
    if kernel == INV_1PLUS_T2:
        return h ** (e + 1) / (e + 1) * mpmath.hyp2f1(1, (e + 1) / 2, (e + 3) / 2, -h * h)
    z = mpmath.mpf(-1) if kernel == INV_1PLUS_T else mpmath.mpc(kernel.z.real, kernel.z.imag)
    return -h ** (e + 1) / (z * (e + 1)) * mpmath.hyp2f1(1, e + 1, e + 2, h / z)


def _hyp2f1_tail_integral(kernel, s, T):
    """Integral of t**-s k(t) over [T, inf), as a 2F1 in mpmath."""
    s, T = mpmath.mpf(s), mpmath.mpf(T)
    if kernel == INV_1PLUS_T2:
        return T ** (-s - 1) / (s + 1) * mpmath.hyp2f1(1, (s + 1) / 2, (s + 3) / 2, -1 / (T * T))
    z = mpmath.mpf(-1) if kernel == INV_1PLUS_T else mpmath.mpc(kernel.z.real, kernel.z.imag)
    return T ** -s / s * mpmath.hyp2f1(1, s, s + 1, z / T)


_ORACLE_KERNELS = [INV_1PLUS_T, INV_1PLUS_T2, Resolvent(-0.7 + 1.3j),
                   Resolvent(cmath.rect(1e-3, 2.5)), Resolvent(cmath.rect(1e3, 0.6))]


@pytest.mark.parametrize("kernel", _ORACLE_KERNELS, ids=str)
@pytest.mark.parametrize("lo, hi, e", [(0.0, 0.7, -0.985), (0.0, 0.7, -0.8), (0.0, 0.7, -0.5),
                                       (0.0, 0.7, 0.2), (0.0, 0.7, 0.5), (0.0, 0.7, 1.5),
                                       (0.3, 0.9, -1.7), (0.3, 0.9, 0.35)])
def test_power_law_piece_hypergeometric_oracle(kernel, lo, hi, e):
    sigma = SpectralMeasure(pieces=(PowerLawPiece(lo, hi, 1.7, e),))
    value, _ = integrate_weighted(sigma, kernel)
    with mpmath.workdps(40):
        oracle = 1.7 * (_hyp2f1_kernel_integral(kernel, e, hi)
                        - (_hyp2f1_kernel_integral(kernel, e, lo) if lo else 0))
        oracle = complex(oracle)
    assert abs(value - oracle) <= 1e-13 * abs(oracle)


@pytest.mark.parametrize("kernel", _ORACLE_KERNELS, ids=str)
@pytest.mark.parametrize("s", [0.015, 0.2, 0.5, 1.0, 1.5])
def test_tail_hypergeometric_oracle(kernel, s):
    sigma = SpectralMeasure(tail=Tail(1.3, 0.8, s))
    value, _ = integrate_weighted(sigma, kernel)
    with mpmath.workdps(40):
        oracle = complex(0.8 * _hyp2f1_tail_integral(kernel, s, 1.3))
    assert abs(value - oracle) <= 1e-13 * abs(oracle)


@pytest.mark.parametrize("kernel", [INV_1PLUS_T, INV_1PLUS_T2])
def test_power_law_from_the_origin_takes_a_few_integrand_calls(kernel, integrand_calls):
    # t**0.2 at 0 is a smooth function times u**1.4 in u = sqrt(t); the
    # Gauss-Jacobi origin panel integrates it without refining towards 0
    sigma = SpectralMeasure(pieces=(PowerLawPiece(0.0, 0.7, 1.0, 0.2),))
    integrate_weighted(sigma, kernel)
    assert 1 <= len(integrand_calls) <= 3


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
    sigma = SpectralMeasure(atoms=(Atom(1.0, 1.0),))
    with pytest.raises(NotSL0):
        classify(sigma, 0.0)


def test_classify_atom_at_origin_rejected():
    sigma = SpectralMeasure(atoms=(Atom(0.0, 1.0),),
                            tail=Tail(1.0, 1.0, 1.0),
                            declared_infinite_mass=True)
    with pytest.raises(DivergentAtOrigin):
        classify(sigma, 0.0)


# -- error contract -----------------------------------------------------------

def test_atom_at_origin_inv_t():
    sigma = SpectralMeasure(atoms=(Atom(0.0, 1.0),))
    with pytest.raises(DivergentAtOrigin):
        integrate_weighted(sigma, INV_T)


def test_pole_on_support(paper_measure):
    with pytest.raises(PoleOnSupport):
        integrate_weighted(paper_measure, Resolvent(2.0))
    with pytest.raises(PoleOnSupport):
        integrate_weighted(paper_measure, Resolvent(0.0))
    with pytest.raises(PoleOnSupport, match=r"z=\(2\+0j\)"):
        integrate_weighted(paper_measure, Resolvent(np.array([1j, -1.0, 2.0, 3j])))


def test_resolvent_over_an_array_is_a_value():
    kernel = Resolvent(np.array([1j, -2.0 + 0.5j]))
    assert kernel == Resolvent([1j, -2.0 + 0.5j])
    assert hash(kernel) == hash(Resolvent((1j, -2.0 + 0.5j)))


@pytest.mark.parametrize("bad", [complex(math.nan, 1.0), complex(math.inf, 1.0),
                                 complex(-1.0, math.nan)], ids=str)
def test_non_finite_z_is_rejected_before_any_quadrature(paper_measure, bad,
                                                        integrand_calls):
    for z in (bad, np.array([1j, -2.0 + 0.5j, bad])):
        with pytest.raises(ValidationError, match="not finite") as info:
            integrate_weighted(paper_measure, Resolvent(z))
        assert str(bad) in str(info.value)
    assert integrand_calls == []


def test_resolvent_array_near_support_is_bounded(paper_measure, integrand_calls):
    # 20 poles 1e-3 above the support: every row refines to round-off, and the
    # breadth cap, counted over (panel, row) pairs, bounds each level's call
    z = np.linspace(0.2, 5.0, 20) + 1e-3j
    value, err = integrate_weighted(paper_measure, Resolvent(z))
    oracle = (-z) ** -0.5
    assert np.all(np.abs(value - oracle) <= 1e-12 * np.abs(oracle))
    assert max(integrand_calls) * z.size <= 31 * measure_module._MAX_PANELS


def test_non_integrable_at_construction():
    with pytest.raises(NonIntegrable):
        SpectralMeasure(pieces=(PowerLawPiece(0.0, 1.0, 1.0, -1.5),))


def test_non_integrable_with_validation_off():
    sigma = SpectralMeasure(pieces=(PowerLawPiece(0.0, 1.0, 1.0, -1.5),),
                            validate=False)
    with pytest.raises(NonIntegrable):
        integrate_weighted(sigma, INV_1PLUS_T)


def test_validation_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        SpectralMeasure(atoms=(Atom(1.0, -1.0),))
    with pytest.raises(ValidationError):
        SpectralMeasure(pieces=(PowerLawPiece(0.0, 2.0, 1.0, 0.0),
                                PowerLawPiece(1.0, 3.0, 1.0, 0.0)))
    with pytest.raises(ValidationError):
        SpectralMeasure(declared_infinite_mass=True)  # no tail at all
    with pytest.raises(ValidationError):
        SpectralMeasure(tail=Tail(1.0, 1.0, 2.0), declared_infinite_mass=True)
    with pytest.raises(ValidationError):
        SpectralMeasure(pieces=(TablePiece((0.0, 1.0), (1.0, -0.5)),))
    for knots, values in [((), ()), ((0.5,), (1.0,)), ((0.0, 1.0), (1.0,))]:
        with pytest.raises(ValidationError, match="size mismatch"):
            SpectralMeasure(pieces=(TablePiece(knots, values),))
    with pytest.raises(ValidationError):
        SpectralMeasure(tail=Tail(1.0, 1.0, -0.5))
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
    for kernel in (INV_T, INV_1PLUS_T, INV_1PLUS_T2, Resolvent(-2.0 + 0.7j)):
        v1, e1 = integrate_weighted(part1, kernel)
        v2, e2 = integrate_weighted(part2, kernel)
        v, e = integrate_weighted(combined, kernel)
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
        value, err = integrate_weighted(sigma, Resolvent(z))
        assert abs(value - complex(re, im)) <= err + 1e-8


def test_conjugate_symmetry(paper_measure):
    rng = np.random.default_rng(7)
    for _ in range(10):
        z = complex(rng.uniform(-5, 5), rng.uniform(0.1, 5))
        v_up, _ = integrate_weighted(paper_measure, Resolvent(z))
        v_dn, _ = integrate_weighted(paper_measure, Resolvent(z.conjugate()))
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
           "tail": {"T": 1.0, "coeff": 1.0 / math.pi, "exponent": 0.5},
           "infinite_mass": True}
    sigma = measure_from_json(obj)
    assert sigma.pieces[0] == PowerLawPiece(0.0, 1.0, 1.0 / math.pi, -0.5)


def test_json_rejects_garbage():
    with pytest.raises(ValidationError):
        measure_from_json([1, 2, 3])
    with pytest.raises(ValidationError):
        measure_from_json({"pieces": [{"kind": "mystery"}]})
