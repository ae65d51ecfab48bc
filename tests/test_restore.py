"""Tests for sectoriality and the (h, mu) restoration algebra."""
from __future__ import annotations

import math
import random
import re

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy.optimize import minimize_scalar

from slrestore.errors import (
    DegenerateImaginaryPart,
    MissingXi,
    OutOfRange,
    RestorationOverflow,
    ThetaMismatch,
    ValidationError,
)
from slrestore.restore import (
    Sectoriality,
    gamma_admissible,
    h_locus,
    max_sectoriality,
    mu_locus,
    quasi_kernel_eta,
    restore_h,
    restore_mu,
    restore_system,
    sectoriality_angle,
    sweep,
)

INF = math.inf


# -- accretivity --------------------------------------------------------------

def test_accretivity_extremal_boundary():
    acc = sectoriality_angle(2.0, -1.0)
    assert acc.accretive and not acc.strict


def test_accretivity_b1_everywhere():
    for gamma in np.linspace(-5.0, 5.0, 21):
        acc = sectoriality_angle(1.0, float(gamma))
        assert acc.accretive and acc.strict


def test_accretivity_b_infinite():
    assert not sectoriality_angle(INF, -0.1).accretive
    acc0 = sectoriality_angle(INF, 0.0)
    assert acc0.accretive and not acc0.strict
    assert sectoriality_angle(INF, 0.5).strict


def test_accretivity_rejects_nonpositive_b():
    with pytest.raises(OutOfRange):
        sectoriality_angle(0.0, 1.0)


# -- admissible gamma ---------------------------------------------------------

def test_gamma_admissible_b2_covers_line():
    rays = gamma_admissible(2.0)
    assert rays == [(-INF, -1.0), (-1.0, INF)]


def test_gamma_admissible_endpoints_b_5_2():
    rays = gamma_admissible(2.5)
    (lo_ray, g1), (g2, hi_ray) = rays
    assert (lo_ray, hi_ray) == (-INF, INF)
    assert abs(g1 + 2.0) < 1e-12 and abs(g2 + 0.5) < 1e-12
    # root-check oracle
    for g in (g1, g2):
        assert abs(g * g + 2.5 * g + 1.0) < 1e-12


def test_gamma_admissible_small_b_and_infinite():
    assert gamma_admissible(1.0) == [(-INF, INF)]
    assert gamma_admissible(INF) == [(0.0, INF)]


# -- sectoriality -------------------------------------------------------------

def test_angle_b_infinite_gamma_one():
    sect = sectoriality_angle(INF, 1.0)
    assert sect.kind == "sectorial"
    assert abs(sect.alpha - math.pi / 4) < 1e-15


def test_angle_extremal_and_non_accretive():
    assert sectoriality_angle(2.0, -1.0).kind == "extremal"
    assert sectoriality_angle(3.0, -1.0).kind == "non_accretive"
    assert sectoriality_angle(INF, 0.0).kind == "extremal"
    assert sectoriality_angle(INF, -1.0).kind == "non_accretive"


def test_angle_b1_at_minus_half():
    sect = sectoriality_angle(1.0, -0.5)
    assert abs(sect.alpha - math.atan(4.0 / 3.0)) < 1e-15


def test_max_sectoriality_b1():
    gamma_star, alpha_star = max_sectoriality(1.0)
    assert gamma_star == -0.5
    assert abs(alpha_star - math.atan(4.0 / 3.0)) < 1e-15


def test_max_sectoriality_degenerates_for_small_b():
    _, alpha_star = max_sectoriality(1e-6)
    assert alpha_star < 2e-6


def test_max_sectoriality_out_of_range():
    with pytest.raises(OutOfRange):
        max_sectoriality(2.0)


def test_max_sectoriality_numeric_oracle():
    for b in (0.5, 1.0, 1.5):
        gamma_star, alpha_star = max_sectoriality(b)
        assert abs(sectoriality_angle(b, gamma_star).alpha - alpha_star) < 1e-14
        res = minimize_scalar(
            lambda g: -math.atan(b / (g * g + g * b + 1.0)),
            bounds=(-0.99, 0.99), method="bounded",
            options={"xatol": 1e-12})
        assert abs(res.x - gamma_star) < 1e-6
        assert abs(-res.fun - alpha_star) < 1e-12


# -- restoration --------------------------------------------------------------

def test_restore_h_b2_gamma_minus_one():
    theta, m = 0.3, 0.2
    h = restore_h(2.0, -1.0, theta, m)
    assert abs(h - complex(-m, theta + m)) < 1e-14


def test_restore_h_paper_example():
    assert restore_h(INF, 0.0, theta=0.0, m=0.0, xi=1.0) == 1j


def test_restore_h_b1_gamma_zero():
    assert abs(restore_h(1.0, 0.0, theta=1.0, m=0.5) - (1.0 + 1.5j)) < 1e-14


def test_restore_h_errors():
    with pytest.raises(DegenerateImaginaryPart):
        restore_h(2.0, 0.0, theta=-1.0, m=0.5)
    with pytest.raises(MissingXi):
        restore_h(INF, 0.0, theta=0.0, m=0.0)
    with pytest.raises(ThetaMismatch):
        restore_h(INF, 0.0, theta=1.0, m=0.0, xi=1.0)
    with pytest.raises(DegenerateImaginaryPart):
        restore_h(INF, 0.0, theta=0.0, m=0.0, xi=-1.0)
    with pytest.raises(OutOfRange):
        restore_h(-1.0, 0.0, theta=1.0, m=0.0)


def test_restore_mu_b2_gamma_minus_one():
    theta, m = 0.3, 0.2
    h = restore_h(2.0, -1.0, theta, m)
    assert abs(restore_mu(h, -1.0) - (-(theta + 2.0 * m))) < 1e-14


def test_restore_mu_infinite_at_gamma_zero():
    assert restore_mu(1j, 0.0) == INF


def test_restore_mu_b_infinite_family():
    m, xi, gamma = 0.5, 1.0, 2.0
    h = restore_h(INF, gamma, theta=-m, m=m, xi=xi)
    assert abs(restore_mu(h, gamma) - (-m + xi / gamma)) < 1e-14


def test_restore_mu_rejects_real_h():
    with pytest.raises(ValidationError):
        restore_mu(1.0 + 0.0j, 1.0)


# -- loci ---------------------------------------------------------------------

def test_h_locus_remark_fixture():
    circle = h_locus(INF, theta=0.0, m=0.0, xi=1.0)
    assert circle.center == 0.5j and circle.radius == 0.5
    assert circle.excluded == 0.0


def test_h_locus_finite_b():
    circle = h_locus(2.0, theta=1.0, m=0.0)
    assert circle.center == 1.0 + 1.0j and circle.radius == 1.0
    assert circle.excluded == 1.0 + 0.0j


def test_h_locus_degenerate():
    with pytest.raises(DegenerateImaginaryPart):
        h_locus(2.0, theta=0.5, m=-0.5)


def test_mu_locus_remark_fixture():
    hyp = mu_locus(INF, theta=0.0, m=0.0, xi=1.0)
    assert hyp.offset == 0.0 and hyp.numerator == 1.0
    assert hyp.at(4.0) == 0.25 and hyp.at(0.0) == INF
    assert hyp.zero_crossing is None


def test_mu_locus_endpoint_value():
    hyp = mu_locus(2.5, theta=1.0, m=1.0)
    assert abs(hyp.at(-0.5) + 9.0) < 1e-12
    # oracle: restoration route must agree at the admissible endpoint
    h = restore_h(2.5, -0.5, theta=1.0, m=1.0)
    assert abs(restore_mu(h, -0.5) - hyp.at(-0.5)) < 1e-12
    assert abs(hyp.zero_crossing + 5.0) < 1e-12


def test_mu_at_centered_gamma_matches_closed_form():
    # gamma = -b/2 gives mu = -(theta + 2m) for every b < 2
    b, theta, m = 1.0, 1.0, 0.5
    hyp = mu_locus(b, theta, m)
    assert abs(hyp.at(-b / 2.0) - (-(theta + 2.0 * m))) < 1e-12


# -- quasi-kernel -------------------------------------------------------------

def test_quasi_kernel_limit_and_degenerate():
    assert quasi_kernel_eta(0.4 + 0.8j, INF) == 0.4
    assert quasi_kernel_eta(1.0 + 1.0j, 1.0 + 1e-12) is None
    # mu Re h and |h|**2 overflow (inf - inf); eta = Re h - Im h (Im h / (mu - Re h)) = 0
    assert quasi_kernel_eta(3.535533905932739e299 * (1 + 1j), 7.071067811865477e299) == 0.0


# -- sweep --------------------------------------------------------------------

def test_sweep_remark_fixture():
    gammas = np.linspace(0.1, 10.0, 100)
    rows = sweep(INF, theta=0.0, m=0.0, xi=1.0, gammas=gammas)
    assert len(rows) == 100
    assert rows.circle_residual.max() < 1e-12
    assert rows.eta_residual.max() < 1e-10
    assert all(a.gamma < b.gamma for a, b in zip(rows, list(rows)[1:]))


def test_sweep_contains_extremal_row():
    rows = sweep(2.0, theta=0.3, m=0.2, xi=None, gammas=[-2.0, -1.0, 0.0, 1.0])
    flagged = [r for r in rows if r.gamma == -1.0]
    assert flagged[0].sectoriality.kind == "extremal"
    assert flagged[0].sectoriality.accretive and not flagged[0].sectoriality.strict


def test_sweep_empty():
    assert list(sweep(2.0, 0.3, 0.2, None, [])) == []


def test_sweep_columns_match_the_rows():
    s = sweep(2.0, theta=0.3, m=0.2, xi=None, gammas=[1.0, -1.0, 0.0, -2.0])
    assert len(s) == 4 and s.gamma.tolist() == [-2.0, -1.0, 0.0, 1.0]
    for i, row in enumerate(s):
        assert row.h == complex(s.h_re[i], s.h_im[i]) and row.mu == s.mu[i]
        assert row.sectoriality.kind == ("non_accretive", "extremal", "sectorial")[s.sector[i]]
        assert row.sectoriality.alpha == (s.alpha[i] if s.sector[i] == 2 else None)


# -- assembled system ---------------------------------------------------------

def test_restore_system_paper_flags():
    rs = restore_system(INF, 0.0, theta=0.0, m=0.0, xi=1.0)
    assert rs.h == 1j and rs.mu == INF and rs.gamma == 0.0
    assert rs.sectoriality.accretive and not rs.sectoriality.strict
    assert rs.sectoriality == Sectoriality("extremal")


# -- property-based identities ------------------------------------------------

finite_params = st.tuples(
    st.floats(0.2, 5.0),               # b
    st.floats(-2.0, 2.0),              # theta
    st.floats(-2.0, 2.0),              # m
    st.floats(-5.0, 5.0),              # gamma
).filter(lambda p: p[1] + p[2] > 0.05)

infinite_params = st.tuples(
    st.floats(-3.0, 3.0),              # m
    st.floats(0.1, 5.0),               # xi
    st.floats(-5.0, 5.0),              # gamma
)


@given(finite_params)
def test_prop_circle_and_linear_relation_finite(p):
    b, theta, m, gamma = p
    h = restore_h(b, gamma, theta, m)
    circle = h_locus(b, theta, m)
    res = ((h.real - circle.center.real) ** 2
           + (h.imag - circle.center.imag) ** 2 - circle.radius ** 2)
    assert abs(res) < 1e-10 * (1.0 + circle.radius ** 2)
    assert abs(h.real - gamma * h.imag - theta) < 1e-10 * (1.0 + abs(h))


@given(infinite_params)
def test_prop_circle_and_linear_relation_infinite(p):
    m, xi, gamma = p
    h = restore_h(INF, gamma, -m, m, xi)
    circle = h_locus(INF, -m, m, xi)
    res = ((h.real - circle.center.real) ** 2
           + (h.imag - circle.center.imag) ** 2 - circle.radius ** 2)
    assert abs(res) < 1e-10 * (1.0 + circle.radius ** 2)
    assert abs(h.real - gamma * h.imag + m) < 1e-10 * (1.0 + abs(h))


@given(finite_params.filter(lambda p: abs(p[3]) > 0.05))
def test_prop_mu_consistency(p):
    b, theta, m, gamma = p
    h = restore_h(b, gamma, theta, m)
    mu = restore_mu(h, gamma)
    assert abs(mu - mu_locus(b, theta, m).at(gamma)) < 1e-10 * (1.0 + abs(mu))


# b > 0.5 and 0.05 < |gamma| < 2 drawn directly: filtering finite_params
# for them kept about 1 draw in 6, and Hypothesis's filter_too_much health
# check failed now and then
@given(st.tuples(
    st.floats(0.5, 5.0, exclude_min=True),
    st.floats(-2.0, 2.0),
    st.floats(-2.0, 2.0),
    st.one_of(st.floats(-2.0, -0.05, exclude_min=True, exclude_max=True),
              st.floats(0.05, 2.0, exclude_min=True, exclude_max=True)),
).filter(lambda p: p[1] + p[2] > 0.1))
def test_prop_quasi_kernel_identity(p):
    b, theta, m, gamma = p
    h = restore_h(b, gamma, theta, m)
    mu = restore_mu(h, gamma)
    eta = quasi_kernel_eta(h, mu)
    if eta is not None:
        assert abs(eta - theta) < 1e-10 * (1.0 + abs(mu))


@given(finite_params)
def test_prop_angle_identity(p):
    b, theta, m, gamma = p
    sect = sectoriality_angle(b, gamma)
    # near the extremal boundary the cancellation in Re h + m is ill-conditioned
    if sect.kind != "sectorial" or gamma * gamma + gamma * b + 1.0 < 0.01:
        return
    h = restore_h(b, gamma, theta, m)
    lhs = math.tan(sect.alpha)
    rhs = h.imag / (h.real + m)
    assert abs(lhs - rhs) < 1e-10 * (1.0 + abs(lhs))


@given(finite_params)
def test_prop_accretive_half_plane(p):
    b, theta, m, gamma = p
    if not sectoriality_angle(b, gamma).accretive:
        return
    h = restore_h(b, gamma, theta, m)
    assert h.real >= -m - 1e-12 * (1.0 + abs(h))


sweep_params = st.one_of(
    finite_params.map(lambda p: (p[0], p[1], p[2], None)),    # b, theta, m, xi
    infinite_params.map(lambda p: (INF, -p[0], p[0], p[1])),
)


@given(sweep_params, st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=12),
       st.randoms())
@example((2.0, 0.3, 0.2, None), [1.0, -1.0, -2.0, 0.0], random.Random(0))
@example((INF, -0.5, 0.5, 1.0), [2.0, 0.0, -1.0], random.Random(0))
@example((2.0, 0.3, 0.2, None), [1.0, 0.0, 5e-324], random.Random(0))  # Im h / gamma = inf
def test_prop_sweep_matches_scalar_path(p, gammas, rnd):
    b, theta, m, xi = p
    offset, numerator = (theta, (theta + m) * b) if xi is None else (-m, xi)
    # mu = inf only at gamma = 0: elsewhere every path refuses it by name
    huge = [g for g in gammas if g != 0.0 and math.isinf(numerator / (1.0 + g * g) / g)]
    if huge:
        g = min(huge)
        for restore_at in (lambda: sweep(b, theta, m, xi, gammas),
                           lambda: restore_system(b, g, theta, m, xi),
                           lambda: restore_mu(restore_h(b, g, theta, m, xi), g),
                           lambda: mu_locus(b, theta, m, xi).at(g)):
            with pytest.raises(RestorationOverflow,
                               match=re.escape(f"mu is out of float range at gamma={g!r}")):
                restore_at()
        return
    rows = sweep(b, theta, m, xi, gammas)
    assert [r.gamma for r in rows] == sorted(gammas)
    shuffled = list(gammas)
    rnd.shuffle(shuffled)

    assert list(sweep(b, theta, m, xi, shuffled)) == list(rows)
    # reference: the closed forms evaluated one gamma at a time in Python floats
    for row in rows:
        g = row.gamma
        s = 1.0 + g * g
        assert row.h == complex(offset + g * (numerator / s), numerator / s)
        assert row.mu == (INF if g == 0.0 else row.h.real + row.h.imag / g)
        q = g if xi is not None else g * g + g * b + 1.0
        assert (row.sectoriality.accretive, row.sectoriality.strict) == (q >= 0.0, q > 0.0)
        assert row == restore_system(b, row.gamma, theta, m, xi)
        assert row.h == restore_h(b, row.gamma, theta, m, xi)
        assert row.mu == restore_mu(row.h, row.gamma)
        assert row.sectoriality == sectoriality_angle(b, row.gamma)
