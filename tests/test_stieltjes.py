"""Tests for V(z) evaluation and the Herglotz/Stieltjes sampled checks.

Closed-form oracle for the inverse-square-root density: V(z) = i/sqrt(z)
with the branch chosen so Im sqrt(z) > 0 off [0, +inf).
"""
from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

import slrestore.measure as measure_module
from slrestore.errors import PoleOnSupport, ValidationError
from slrestore.measure import Atom, PowerLawPiece, SpectralMeasure, TablePiece, Tail
from slrestore.stieltjes import (
    StieltjesLikeFunction,
    asymptotics,
    check_herglotz,
    check_stieltjes,
    eval_V,
    log_polar_grid,
)


def _sqrt_cut_positive_axis(z: complex) -> complex:
    """sqrt with branch cut on [0, +inf) and Im sqrt > 0."""
    w = cmath.sqrt(z)
    return -w if w.imag < 0 else w


def _closed_form(z: complex) -> complex:
    return 1j / _sqrt_cut_positive_axis(z)


@pytest.fixture(scope="module")
def paper_function(paper_measure):
    return StieltjesLikeFunction(sigma=paper_measure, gamma=0.0)


# -- eval_V -------------------------------------------------------------------

def test_eval_at_minus_one(paper_function):
    assert abs(eval_V(paper_function, -1.0) - 1.0) < 1e-8


def test_eval_empty_measure():
    f = StieltjesLikeFunction(sigma=SpectralMeasure(), gamma=2.5)
    assert eval_V(f, 1.0 + 1.0j) == 2.5


def test_eval_at_i(paper_function):
    expected = cmath.exp(1j * math.pi / 4)  # i / sqrt(i)
    assert abs(eval_V(paper_function, 1j) - expected) < 1e-8


def test_closed_form_agreement(paper_function):
    rng = np.random.default_rng(42)
    for _ in range(20):
        z = complex(rng.uniform(-5, 5), rng.uniform(0.05, 5) * rng.choice([-1, 1]))
        assert abs(eval_V(paper_function, z) - _closed_form(z)) < 1e-8


def test_eval_pole_on_support(paper_function):
    with pytest.raises(PoleOnSupport):
        eval_V(paper_function, 3.0)


@pytest.mark.parametrize("z", [complex(math.nan, 1.0), complex(math.inf, 1.0),
                               complex(-1.0, math.nan)], ids=str)
def test_eval_non_finite_z_is_rejected(paper_function, z):
    with pytest.raises(ValidationError, match="not finite"):
        eval_V(paper_function, z)


@pytest.mark.parametrize("zs", [[], [[1j, 2j]]], ids=["empty", "2-d"])
def test_eval_array_must_be_1d_and_non_empty(paper_function, zs):
    with pytest.raises(ValidationError, match="1-D array"):
        eval_V(paper_function, zs)


def _table_with_atoms_and_tail():
    rng = np.random.default_rng(5)
    knots = np.linspace(0.0, 6.5, 200)
    knots[1:-1] += rng.uniform(-0.3, 0.3, 198) * (knots[1] - knots[0])
    values = np.concatenate([[0.0], rng.uniform(0.05, 1.0, 199)])
    return SpectralMeasure(atoms=(Atom(0.8, 0.3), Atom(4.1, 0.2)),
                           pieces=(TablePiece(tuple(knots), tuple(values)),),
                           tail=Tail(6.5, 0.7, 0.6))


_ARRAY_CASES = {
    "worked-example": lambda paper: StieltjesLikeFunction(paper, 0.0),
    "table-atoms-tail": lambda paper: StieltjesLikeFunction(_table_with_atoms_and_tail(), -0.4),
    "power-law-e-positive": lambda paper: StieltjesLikeFunction(
        SpectralMeasure(pieces=(PowerLawPiece(0.0, 1.0, 0.8, 0.35),),
                        tail=Tail(1.0, 0.8, 0.5)), 1.3),
}


@pytest.mark.parametrize("case", sorted(_ARRAY_CASES))
def test_eval_array_equals_scalar_calls_bit_for_bit(case, paper_measure):
    f = _ARRAY_CASES[case](paper_measure)
    grid = log_polar_grid(5, 4)
    values = eval_V(f, grid)
    assert values.shape == (20,) and values.dtype == complex
    scalar = np.array([eval_V(f, z) for z in grid])
    assert np.array_equal(values.view(np.uint64), scalar.view(np.uint64))


def test_eval_array_closed_form(paper_function):
    grid = np.array(log_polar_grid(5, 4))
    oracle = (-grid) ** -0.5
    assert np.all(np.abs(eval_V(paper_function, grid) - oracle) <= 1e-12 * np.abs(oracle))


def test_eval_array_one_integrand_call_per_level(paper_function, monkeypatch):
    # the array call is one quadrature pass over both parts (piece, tail), with one
    # integrand call per depth level: as many as its deepest point needs alone
    calls = []
    quadrature = measure_module.adaptive_gauss_legendre

    def counting(f, *args, **kwargs):
        calls.append(0)

        def g(t):
            calls[-1] += 1
            return f(t)
        return quadrature(g, *args, **kwargs)

    monkeypatch.setattr(measure_module, "adaptive_gauss_legendre", counting)
    grid = log_polar_grid(5, 4)
    eval_V(paper_function, grid)
    array_calls = list(calls)
    calls.clear()
    for z in grid:
        eval_V(paper_function, z)
    per_z = np.array(calls).reshape(len(grid), -1)
    assert array_calls == per_z.max(axis=0).tolist()
    assert len(array_calls) == 1 and sum(array_calls) < per_z.sum() / 5


# -- sampled checks -----------------------------------------------------------

def test_herglotz_paper(paper_function):
    report = check_herglotz(paper_function)
    assert report.passed and report.min_value > 0.0


def test_herglotz_real_constant_degenerate():
    f = StieltjesLikeFunction(sigma=SpectralMeasure(), gamma=-5.0)
    report = check_herglotz(f)
    assert report.passed and report.min_value == 0.0


def test_herglotz_fails_for_negative_density():
    # every constructed measure is validated: break a valid one afterwards
    bad = SpectralMeasure(pieces=(TablePiece((0.5, 1.5), (1.0, 1.0)),))
    object.__setattr__(bad, "pieces", (TablePiece((0.5, 1.5), (-1.0, -1.0)),))
    report = check_herglotz(StieltjesLikeFunction(sigma=bad, gamma=0.0))
    assert not report.passed and report.min_value < 0.0


def test_stieltjes_paper(paper_function):
    assert check_stieltjes(paper_function).passed


def test_stieltjes_fails_for_negative_gamma(b2_sl01k_measure):
    # V(-inf) = -1 < 0 drives Im[zV]/Im z negative at large |z|
    f = StieltjesLikeFunction(sigma=b2_sl01k_measure, gamma=-1.0)
    report = check_stieltjes(f)
    assert not report.passed
    assert abs(report.argmin) > 10.0  # failure shows up far from the origin


def test_stieltjes_empty_positive_gamma():
    f = StieltjesLikeFunction(sigma=SpectralMeasure(), gamma=1.0)
    assert check_stieltjes(f).passed


def test_checks_reject_lower_half_plane(paper_function):
    with pytest.raises(ValidationError):
        check_herglotz(paper_function, grid=[1.0 - 1.0j])
    with pytest.raises(ValidationError):
        check_stieltjes(paper_function, grid=[1.0 - 1.0j])


@pytest.mark.parametrize("check", [check_herglotz, check_stieltjes])
def test_checks_reject_an_empty_grid(paper_function, check):
    with pytest.raises(ValidationError, match="empty grid"):
        check(paper_function, grid=[])


def test_log_polar_grid_shape():
    grid = log_polar_grid(n_radius=5, n_angle=4)
    assert len(grid) == 20
    assert all(z.imag > 0 for z in grid)


# -- asymptotics --------------------------------------------------------------

def test_asymptotics_b2(b2_sl01k_measure):
    f = StieltjesLikeFunction(sigma=b2_sl01k_measure, gamma=-1.0)
    v_inf, v_zero = asymptotics(f)
    assert v_inf == -1.0
    assert abs(v_zero - 1.0) < 1e-9


def test_asymptotics_paper(paper_function):
    v_inf, v_zero = asymptotics(paper_function)
    assert v_inf == 0.0 and math.isinf(v_zero)


def test_asymptotics_empty():
    f = StieltjesLikeFunction(sigma=SpectralMeasure(), gamma=0.0)
    assert asymptotics(f) == (0.0, 0.0)


# -- invariants ---------------------------------------------------------------

def test_conjugate_symmetry(paper_function):
    rng = np.random.default_rng(123)
    for _ in range(100):
        z = complex(rng.uniform(-8, 8), rng.uniform(0.05, 8))
        v = eval_V(paper_function, z)
        v_conj = eval_V(paper_function, z.conjugate())
        assert abs(v_conj - v.conjugate()) <= 1e-13 * (1.0 + abs(v))


def test_monotone_limit_toward_minus_infinity(paper_function):
    values = [abs(eval_V(paper_function, -10.0 ** k).real - paper_function.gamma)
              for k in range(1, 9)]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-3  # tail bound ~ |x|^(-1/2)


def test_herglotz_on_random_grids(paper_function, b2_sl01k_measure):
    rng = np.random.default_rng(99)
    grid = [complex(rng.uniform(-10, 10), rng.uniform(0.1, 10)) for _ in range(30)]
    for f in (paper_function,
              StieltjesLikeFunction(sigma=b2_sl01k_measure, gamma=-1.0)):
        assert check_herglotz(f, grid=grid).min_value >= -1e-10
