"""Tests for the transfer/impedance forward model and verification."""
from __future__ import annotations

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slrestore.errors import (
    CayleyPole,
    PoleOfV,
    PoleOfW,
    SideConditionViolated,
    Unverifiable,
    ValidationError,
)
from slrestore.stieltjes import StieltjesLikeFunction, log_polar_grid
from slrestore.system import (
    SystemParams,
    cayley_V_from_W,
    cayley_W_from_V,
    impedance_V,
    transfer_W,
    verify_realization,
    vh_functional,
    weyl_m_fn,
)
import mpmath as mp

from slrestore.measure import Moments
from slrestore.pipeline import resolve_operator_data
from slrestore.restore import restore_system, sectoriality_angle
from slrestore.weyl import HalfLinePotential, OperatorData, WeylEvaluator

INF = math.inf


def _m_closed(lam: complex) -> complex:
    k = cmath.sqrt(complex(lam))
    if k.imag < 0:
        k = -k
    return -1j * k


@pytest.fixture(scope="module")
def paper_params():
    return SystemParams(h=1j, mu=INF, m_fn=_m_closed)


@pytest.fixture(scope="module")
def remark_params():
    # gamma = 0.5 member of the remark family: h = (gamma + i)/(1 + gamma^2)
    return SystemParams(h=0.4 + 0.8j, mu=2.0, m_fn=_m_closed, theta_expected=0.0)


# -- transfer function --------------------------------------------------------

def test_transfer_at_diagnostic_point(paper_params):
    # m(-1) = 1, so W = (1 - i)/(1 + i) = -i
    assert abs(transfer_W(paper_params, -1.0) - (-1j)) < 1e-12


def test_real_h_is_rejected():
    with pytest.raises(ValidationError):
        SystemParams(h=1.0 + 0.0j, mu=INF, m_fn=_m_closed)
    with pytest.raises(ValidationError, match="Im h > 0"):
        SystemParams(h=complex(0.5, math.nan), mu=INF, m_fn=_m_closed)
    with pytest.raises(ValidationError, match="must be finite"):  # else gamma = 1/(3 - inf) = -0
        SystemParams(h=complex(INF, 1.0), mu=3.0, m_fn=_m_closed)


def test_transfer_unimodular_for_real_m():
    p = SystemParams(h=1.0 + 2.0j, mu=5.0, m_fn=_m_closed)
    for lam in (-4.0, -1.0, -0.25):
        assert abs(abs(transfer_W(p, lam)) - 1.0) < 1e-12


def test_a_small_system_is_no_false_pole_of_w():
    # m + h = s (1 + i) is small only against 1: against |m| + |h|, the sizes of its own
    # terms, it is no pole, and W = (m + conj h)/(m + h) = -i (V = 1) at every scale s
    for s in (1e-14, 1e-200, 1.0, 1e200):
        p = SystemParams(h=complex(0.0, s), mu=INF, m_fn=lambda lam, s=s: complex(s))
        w = transfer_W(p, -1.0)
        assert abs(w - (-1j)) <= 1e-15
        assert abs(cayley_V_from_W(w) - impedance_V(p, -1.0)) <= 1e-15
    with pytest.raises(PoleOfW):  # m + h = 0 stays a pole
        transfer_W(SystemParams(h=1e-14j, mu=INF, m_fn=lambda lam: -1e-14j), -1.0)


def test_eta_consistency_enforced(paper_measure, remark_params):
    # the gamma = 0.5 restoration of the paper measure: the forward model matches V,
    # and eta = (mu Re h - |h|^2)/(mu - Re h) = 0, so only theta = 1 fails
    f = StieltjesLikeFunction(sigma=paper_measure, gamma=0.5)
    grid = log_polar_grid(n_radius=5, n_angle=4)
    assert verify_realization(f, remark_params, grid).passed
    p = SystemParams(h=0.4 + 0.8j, mu=2.0, m_fn=_m_closed, theta_expected=1.0)
    report = verify_realization(f, p, grid)
    assert report.max_residual < 1e-10
    assert report.eta_residual == pytest.approx(1.0, abs=1e-12)
    assert not report.passed


# -- impedance ----------------------------------------------------------------

def test_impedance_paper_closed_form(paper_params):
    for z in (-1.0, 1j, 1.0 + 2.0j):
        expected = 1.0 / _m_closed(z)  # i/sqrt(z)
        assert abs(impedance_V(paper_params, z) - expected) < 1e-12


def test_impedance_remark_at_minus_one(remark_params):
    # V(z) = gamma + i/sqrt(z) gives gamma + 1 at z = -1
    assert abs(impedance_V(remark_params, -1.0) - 1.5) < 1e-12


def test_impedance_herglotz(remark_params, paper_params):
    grid = log_polar_grid(n_radius=4, n_angle=4)
    for p in (paper_params, remark_params):
        assert min(impedance_V(p, z).imag for z in grid) >= -1e-10


# -- Cayley maps --------------------------------------------------------------

@pytest.mark.parametrize("h, mu, m, message", [
    (1.5 + 1j, INF, -1.5, "impedance pole"),  # m + Re h = 0
    (1.0 + 1j, 3.0, -0.5, "impedance pole"),  # gamma = 1/2: m + Re h - gamma Im h = 0
    (1e300j, INF, 1e-10, "out of float range"),  # Im h / m = 1e310
], ids=["mu-inf-pole", "mu-finite-pole", "overflow"])
def test_impedance_pole_is_named(h, mu, m, message):
    with pytest.raises(PoleOfV, match=message):
        impedance_V(SystemParams(h=h, mu=mu, m_fn=lambda lam: m), -1.0)


def test_gamma_must_match_mu():
    # a given gamma is 0 exactly when mu = inf; otherwise gamma = Im h / (mu - Re h)
    with pytest.raises(ValidationError, match="gamma=0.0 must be 0 exactly"):
        SystemParams(h=1j, mu=2.0, m_fn=_m_closed, gamma=0.0)
    with pytest.raises(ValidationError, match="gamma=0.5 must be 0 exactly"):
        SystemParams(h=1j, mu=INF, m_fn=_m_closed, gamma=0.5)
    assert SystemParams(h=0.4 + 0.8j, mu=2.0, m_fn=_m_closed).gamma == 0.5
    assert SystemParams(h=0.4 + 0.8j, mu=INF, m_fn=_m_closed).gamma == 0.0
    assert SystemParams(h=0.4 + 0.8j, mu=2.0, m_fn=_m_closed, gamma=0.25).gamma == 0.25
    with pytest.raises(ValidationError, match="no finite gamma"):  # mu = Re h
        SystemParams(h=0.4 + 0.8j, mu=0.4, m_fn=_m_closed)


@pytest.mark.parametrize("gamma", [0.5, -1.3, 2.7, 3e3, -1e5, 1e8, 1e-8, -1e-150])
def test_impedance_with_gamma_is_the_restored_family(gamma):
    # b = inf, q = 0: the system restored from (m, xi) at gamma has impedance
    # gamma + xi/(m_inf + offset), offset = -m; with gamma given the forward model keeps a
    # few eps of |V| at every gamma (from the floats mu and Re h it lost 2 log10|gamma|
    # digits: 2.0e-6 at gamma = 3000)
    m0, xi = 0.3, 0.7
    r = restore_system(INF, gamma, theta=-m0, m=m0, xi=xi)
    p = SystemParams(h=r.h, mu=r.mu, m_fn=_m_closed, gamma=gamma)
    with mp.workdps(40):
        for z in log_polar_grid(5, 4):
            exact = mp.mpf(gamma) + mp.mpf(xi) / (mp.mpc(_m_closed(z)) - mp.mpf(m0))
            assert abs(mp.mpc(impedance_V(p, z)) - exact) <= 8 * 2.0 ** -52 * abs(exact)
            w_exact = (1 - 1j * exact) / (1 + 1j * exact)  # W = cayley_W_from_V(V)
            assert abs(mp.mpc(transfer_W(p, z)) - w_exact) <= 1e-14 * abs(w_exact)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3), st.floats(-1e3, 1e3))
def test_finite_b_round_trip_is_the_moebius_map(theta, b, gamma):
    # q = 0 at finite b: sigma with R(z) = N/(theta - i sqrt z), N = theta b, has the closed
    # moments a = R(-1), b = R(0) and i2 = Im R(i); the system restored from them has
    # impedance gamma + N/(theta - i sqrt z).  Round-off scale: |gamma| + |R|, and R's
    # sensitivity to the offset Re h - gamma Im h, formed from floats of size |Re h|, |gamma Im h|
    n = theta * b
    a, i2 = n / (theta + 1.0), (n / (theta - 1j * cmath.exp(0.25j * math.pi))).imag
    potential = HalfLinePotential()
    od = resolve_operator_data(Moments(a, b, i2, 0.0, 0.0, 0.0), OperatorData(theta, 0.0),
                               potential)
    r = restore_system(b, gamma, od.theta, od.m, od.xi)
    p = SystemParams(h=r.h, mu=r.mu, m_fn=weyl_m_fn(WeylEvaluator(potential)), gamma=gamma)
    spread = abs(r.h.real) + abs(gamma * r.h.imag)
    with mp.workdps(40):
        for z in log_polar_grid(5, 4):
            den = mp.mpf(theta) - 1j * mp.sqrt(mp.mpc(z))
            rz = mp.mpf(theta) * mp.mpf(b) / den
            scale = abs(gamma) + abs(rz) * (1 + spread / abs(den))
            assert abs(mp.mpc(impedance_V(p, z)) - (gamma + rz)) <= 8 * 2.0 ** -52 * scale


def test_a_verify_past_the_float_resolution_of_v_is_refused():
    # |V| ~ 1e9 on the samples: its round-off (16 eps |V| = 3.6e-6) passes VERIFY_TOL
    from slrestore.measure import PowerLawPiece, SpectralMeasure, Tail

    sigma = SpectralMeasure(pieces=(PowerLawPiece(0.0, 1.0, 1.0 / math.pi, -0.5),),
                            tail=Tail(1.0, 1.0 / math.pi, 0.5))
    r = restore_system(INF, 1e9, theta=0.0, m=0.0, xi=math.sqrt(2.0) * math.sqrt(0.5))
    p = SystemParams(h=r.h, mu=r.mu, m_fn=_m_closed, theta_expected=0.0, gamma=1e9)
    with pytest.raises(Unverifiable, match=r"\|V\| reaches 1e\+09 on the samples"):
        verify_realization(StieltjesLikeFunction(sigma, 1e9), p, log_polar_grid(5, 4))


def test_cayley_examples():
    assert abs(cayley_V_from_W(-1j) - 1.0) < 1e-14
    assert cayley_W_from_V(0.0) == 1.0


def test_cayley_round_trip():
    rng = np.random.default_rng(17)
    for _ in range(100):
        w = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        assert abs(cayley_W_from_V(cayley_V_from_W(w)) - w) < 1e-14 * (1 + abs(w))


def test_cayley_poles():
    with pytest.raises(CayleyPole):
        cayley_V_from_W(-1.0 + 0.0j)
    with pytest.raises(CayleyPole):
        cayley_W_from_V(1j)


# -- consistency square -------------------------------------------------------

def test_cayley_of_transfer_equals_impedance(paper_params, remark_params):
    rng = np.random.default_rng(31)
    for _ in range(50):
        lam = complex(rng.uniform(-5, 5), rng.uniform(0.1, 5) * rng.choice([-1, 1]))
        for p in (paper_params, remark_params):
            lhs = cayley_V_from_W(transfer_W(p, lam))
            rhs = impedance_V(p, lam)
            assert abs(lhs - rhs) < 1e-12 * (1.0 + abs(rhs))


def test_mu_infinity_continuity(paper_params):
    diffs = []
    w_inf = transfer_W(paper_params, -1.0)
    for k in range(1, 9):
        p = SystemParams(h=1j, mu=10.0 ** k, m_fn=_m_closed)
        diffs.append(abs(transfer_W(p, -1.0) - w_inf))
    assert all(b < a for a, b in zip(diffs, diffs[1:]))
    assert diffs[-1] < 1e-7


# -- accretivity functional ---------------------------------------------------

def test_vh_extremal_case():
    report = vh_functional(a=1.0, b=2.0, gamma=-1.0)
    assert abs(report.v_zero + 1.0 / 3.0) < 1e-14
    assert report.v_minus_inf is None  # pole: 1 + a*gamma = 0
    assert report.accretivity_value is None


def test_vh_strict_case():
    report = vh_functional(a=1.0, b=2.0, gamma=0.0)
    assert abs(report.v_zero + 1.0 / 3.0) < 1e-14
    assert report.v_minus_inf == 1.0
    assert abs(report.accretivity_value - 2.0 / 3.0) < 1e-14
    assert abs(report.cot_alpha - 0.5) < 1e-14
    # at gamma = 0 the reciprocal matches the sectoriality angle
    assert abs(math.tan(sectoriality_angle(2.0, 0.0).alpha) - 2.0) < 1e-14


def test_vh_side_condition():
    with pytest.raises(SideConditionViolated):
        vh_functional(a=1.0, b=1.0, gamma=2.0)


def test_vh_infinite_b():
    report = vh_functional(a=1.0, b=INF, gamma=0.5)
    assert report.v_zero == -1.0
    assert abs(report.v_minus_inf - 1.0 / 3.0) < 1e-14
    assert report.cot_alpha == 0.5


def test_vh_infinite_b_at_a_zero_is_a_pole():
    # V_h(0) = -1/a has its pole at a = 0: None, as for 1 + ab = 0 at finite b, not a
    # ZeroDivisionError
    report = vh_functional(a=0.0, b=INF, gamma=1.0)
    assert report.v_zero is None and report.accretivity_value is None
    assert report.v_minus_inf == -1.0 and report.cot_alpha == 1.0
    assert vh_functional(a=-1.0, b=1.0, gamma=0.5).v_zero is None


def test_vh_matches_its_defining_functional():
    # cot(alpha) = (1 + Vh(0) Vh(-inf)) / |Vh(-inf) - Vh(0)| whenever the
    # boundary values are finite
    rng = np.random.default_rng(53)
    for _ in range(10):
        a = rng.uniform(0.1, 3.0)
        gamma = rng.uniform(-0.3, 3.0)
        b = gamma + rng.uniform(0.1, 5.0)
        report = vh_functional(a=a, b=b, gamma=gamma)
        oracle = ((1.0 + report.v_zero * report.v_minus_inf)
                  / abs(report.v_minus_inf - report.v_zero))
        assert abs(report.cot_alpha - oracle) < 1e-10 * (1.0 + abs(oracle))


def test_vh_numeric_cross_check():
    # The transfer-ratio form equals the Moebius difference
    # (V(z) - V(-1)) / (1 + V(z) V(-1)) of the realized impedance, so for the
    # gamma = 0.5 family (V(-1) = 1.5, V(0) = inf, V(-inf) = 0.5) the limits
    # are cot(arctan 1.5) = 2/3 and (0.5 - 1.5)/(1 + 0.75) = -4/7.
    report = vh_functional(a=1.0, b=INF, gamma=0.5, h=0.4 + 0.8j, m_fn=_m_closed)
    assert abs(report.numeric_v_zero - 2.0 / 3.0) < 5e-3
    assert abs(report.numeric_v_minus_inf - (-4.0 / 7.0)) < 5e-3
    # the paper-example member (gamma = 0) has V(-1) = 1, giving limits +1, -1
    report0 = vh_functional(a=1.0, b=INF, gamma=0.0, h=1j, m_fn=_m_closed)
    assert abs(report0.numeric_v_zero - 1.0) < 5e-3
    assert abs(report0.numeric_v_minus_inf + 1.0) < 5e-3
    # both routes agree on the accretivity product here
    assert abs(report0.numeric_v_zero * report0.numeric_v_minus_inf
               - report0.v_zero * report0.v_minus_inf) < 1e-2


def test_vh_numeric_pole_is_named():
    # m + h = 0 at every z: the transfer function's pole, not a ZeroDivisionError
    with pytest.raises(PoleOfW):
        vh_functional(a=1.0, b=INF, gamma=0.0, h=1j, m_fn=lambda z: -1j)


# -- verification -------------------------------------------------------------

def test_verify_detects_perturbed_h(paper_measure, paper_params):
    f = StieltjesLikeFunction(sigma=paper_measure, gamma=0.0)
    grid = log_polar_grid(n_radius=5, n_angle=4)
    good = verify_realization(f, paper_params, grid)
    assert good.passed and good.max_residual < 1e-6

    perturbed = SystemParams(h=paper_params.h + 0.1, mu=INF, m_fn=_m_closed)
    bad = verify_realization(f, perturbed, grid)
    assert not bad.passed and bad.max_residual > 1e-2


def test_verify_on_no_samples_is_an_error(paper_measure, paper_params):
    f = StieltjesLikeFunction(sigma=paper_measure, gamma=0.0)
    with pytest.raises(ValidationError, match="no sample points"):
        verify_realization(f, paper_params, [])


def test_verify_report_json_shape(paper_measure, paper_params):
    f = StieltjesLikeFunction(sigma=paper_measure, gamma=0.0)
    report = verify_realization(f, paper_params, [1j])
    payload = report.to_json()
    assert set(payload) == {"max_residual", "eta_residual", "samples", "pass"}
    assert payload["samples"][0]["z_im"] == 1.0
    assert len(payload["samples"][0]["V_in"]) == 2
    # each sample is a (z, V_in, V_model) triple, written as it is
    (z, v_in, v_model), = report.samples
    assert payload["samples"] == [{"z_re": 0.0, "z_im": 1.0, "V_in": [v_in.real, v_in.imag],
                                   "V_model": [v_model.real, v_model.imag]}]
    assert z == 1j and v_model == impedance_V(paper_params, 1j)
    assert report.max_residual == abs(v_model - v_in)
