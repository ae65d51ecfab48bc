"""Forward model: transfer function, impedance, Cayley maps, verification.

The realizing system is represented purely by the scalars (h, mu), its free term gamma
and the Weyl function m_inf.  With mu - Re h read as Im h / gamma, every numerical claim
about the operator model is one formula in gamma (gamma = 0 is mu = inf), which keeps the
digits that the float difference of mu and Re h loses at large |gamma|.  Verification
passes up to VERIFY_TOL.
"""
from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .errors import (
    CayleyPole,
    PoleOfV,
    PoleOfW,
    SideConditionViolated,
    Unverifiable,
    ValidationError,
)
from .restore import _free_term, quasi_kernel_eta
from .stieltjes import StieltjesLikeFunction, eval_V
from .weyl import WeylEvaluator, weyl_m

__all__ = [
    "SystemParams",
    "VhReport",
    "VerifyReport",
    "weyl_m_fn",
    "transfer_W",
    "impedance_V",
    "cayley_V_from_W",
    "cayley_W_from_V",
    "vh_functional",
    "verify_realization",
]

#: Default diagnostic evaluation point for the transfer function.
DIAGNOSTIC_POINT = -1.0

#: Points z = -eps and z = -big where vh_functional cross-checks V_h(0) and V_h(-inf).
_VH_EPS, _VH_BIG = 1e-6, 1e8

#: Largest forward-model or quasi-kernel residual a verification passes.
VERIFY_TOL = 1e-6

#: Round-off of V per unit |V| that a verification allows for: V_in (gamma + R) and the
#: forward model each round by a few eps of |V|.  Where it passes VERIFY_TOL (|V| above
#: about 2.8e8), no float evaluation can be checked to VERIFY_TOL and verify refuses.
_V_ROUNDOFF = 16.0 * sys.float_info.epsilon

_POLE_EPS = 1e-13


def weyl_m_fn(ev: WeylEvaluator) -> Callable[[complex], complex]:
    """Wrap a WeylEvaluator as a plain lambda -> m_inf(lambda) callable."""
    return lambda lam: weyl_m(ev, lam)


@dataclass(frozen=True)
class SystemParams:
    """h (finite, Im h > 0), mu, the free term gamma and the Weyl function of the realizing
    system; the quasi-kernel check of theta_expected is verify_realization's eta_residual.

    gamma is settled once, on construction: a given one (a restored system's) must be 0
    exactly when mu = inf; otherwise it is Im h / (mu - Re h), 0 for mu = inf, and a mu
    equal to Re h raises ValidationError.  The forward model reads gamma, not the float
    difference of mu and Re h, which keeps only about 16 - 2 log10|gamma| digits."""

    h: complex
    mu: float  # math.inf allowed
    m_fn: Callable[[complex], complex]
    theta_expected: Optional[float] = None
    gamma: Optional[float] = None  # a float after construction

    def __post_init__(self):
        if not (self.h.imag > 0 and cmath.isfinite(self.h)):
            raise ValidationError(f"h={self.h} must be finite with Im h > 0")
        object.__setattr__(self, "gamma", _free_term(self.h, self.mu, self.gamma))


def transfer_W(p: SystemParams, lam: complex) -> complex:
    """Transfer function (mu-h)/(mu-conj h) * (m+conj h)/(m+h), whose first factor is
    (1 - i gamma)/(1 + i gamma) with mu - Re h = Im h / gamma."""
    m = complex(p.m_fn(lam))
    den = m + p.h
    if abs(den) <= _POLE_EPS * (abs(m) + abs(p.h)):
        raise PoleOfW(f"m_inf(lambda) + h vanishes at lambda={lam}")
    return complex(1.0, -p.gamma) / complex(1.0, p.gamma) * ((m + p.h.conjugate()) / den)


def impedance_V(p: SystemParams, lam: complex) -> complex:
    """Impedance gamma + N/(m + offset), N = Im h (1 + gamma^2) and offset = Re h - gamma Im h
    (the quasi-kernel eta): the Moebius form of (m+mu) Im h / ((mu-Re h)(m+Re h) - (Im h)^2)
    with mu - Re h = Im h / gamma.  A pole is an |m + offset| within _POLE_EPS of
    |m| + |Re h| + |gamma Im h|; a value out of float range counts as one."""
    m = complex(p.m_fn(lam))
    x, y, gy = p.h.real, p.h.imag, p.gamma * p.h.imag
    den = m + (x - gy)
    if abs(den) <= _POLE_EPS * (abs(m) + abs(x) + abs(gy)):
        raise PoleOfV(f"impedance pole at lambda={lam}")
    v = p.gamma + y * (1.0 + p.gamma * p.gamma) / den  # N to an ulp: Im h = N/(1 + gamma^2)
    if not cmath.isfinite(v):
        raise PoleOfV(f"impedance at lambda={lam} is out of float range")
    return v


def cayley_V_from_W(w: complex) -> complex:
    """Moebius map V = i (W - 1) / (W + 1)."""
    if abs(w + 1.0) <= _POLE_EPS * (1.0 + abs(w)):
        raise CayleyPole(f"W={w} is at the Cayley pole -1")
    return 1j * (w - 1.0) / (w + 1.0)


def cayley_W_from_V(v: complex) -> complex:
    """Inverse Moebius map W = (1 - iV) / (1 + iV)."""
    if abs(1.0 + 1j * v) <= _POLE_EPS * (1.0 + abs(v)):
        raise CayleyPole(f"V={v} is at the Cayley pole i")
    return (1.0 - 1j * v) / (1.0 + 1j * v)


@dataclass(frozen=True)
class VhReport:
    """Closed-form accretivity functional values with optional numeric cross-check."""

    v_zero: Optional[float]  # None at its pole: 1 + a*b = 0, or a = 0 when b = inf
    v_minus_inf: Optional[float]  # None when 1 + a*gamma = 0 (pole)
    accretivity_value: Optional[float]  # 1 + v_zero * v_minus_inf
    cot_alpha: float
    numeric_v_zero: Optional[complex] = None
    numeric_v_minus_inf: Optional[complex] = None


def _vh_numeric(h: complex, m_fn, z: complex) -> complex:
    """Cayley image of the mu = inf transfer ratio W(z) / W(DIAGNOSTIC_POINT)."""
    p = SystemParams(h, math.inf, m_fn)
    return cayley_V_from_W(transfer_W(p, z) / transfer_W(p, DIAGNOSTIC_POINT))


def vh_functional(a: float, b: float, gamma: float,
                  h: Optional[complex] = None,
                  m_fn: Optional[Callable[[complex], complex]] = None) -> VhReport:
    """Accretivity functional of the restored operator.

    Closed forms: V_h(0) = (a-b)/(1+ab), V_h(-inf) = (a-gamma)/(1+a*gamma),
    cot(alpha) = (1+b*gamma)/(b-gamma); b = inf uses the corresponding
    limits.  When h and a Weyl callable are supplied the transfer-function
    form is also evaluated at z = -1e-6 and z = -1e8 as a cross-check.
    """
    if math.isinf(b):  # the limit -1/a; a = 0 is its pole, as 1 + ab = 0 is below
        v_zero: Optional[float] = None if a == 0.0 else -1.0 / a
        cot_alpha = gamma
    else:
        if b - gamma <= 0.0:
            raise SideConditionViolated(f"need b - gamma > 0, got b={b}, gamma={gamma}")
        den0 = 1.0 + a * b
        v_zero = None if den0 == 0.0 else (a - b) / den0
        cot_alpha = (1.0 + b * gamma) / (b - gamma)
    den_inf = 1.0 + a * gamma
    v_minus_inf = None if den_inf == 0.0 else (a - gamma) / den_inf
    accr = None
    if v_zero is not None and v_minus_inf is not None:
        accr = 1.0 + v_zero * v_minus_inf
    num0 = numinf = None
    if h is not None and m_fn is not None:
        num0 = _vh_numeric(h, m_fn, complex(-_VH_EPS, 0.0))
        numinf = _vh_numeric(h, m_fn, complex(-_VH_BIG, 0.0))
    return VhReport(v_zero=v_zero, v_minus_inf=v_minus_inf,
                    accretivity_value=accr, cot_alpha=cot_alpha,
                    numeric_v_zero=num0, numeric_v_minus_inf=numinf)


@dataclass(frozen=True)
class VerifyReport:
    max_residual: float
    eta_residual: Optional[float]
    samples: tuple  # (z, V_in, V_model) per sample
    passed: bool

    def to_json(self) -> dict:
        return {
            "max_residual": self.max_residual,
            "eta_residual": self.eta_residual,
            "samples": [
                {"z_re": z.real, "z_im": z.imag,
                 "V_in": [v.real, v.imag], "V_model": [vm.real, vm.imag]}
                for z, v, vm in self.samples
            ],
            "pass": self.passed,
        }


def verify_realization(f: StieltjesLikeFunction, p: SystemParams,
                       sample_z: Sequence[complex]) -> VerifyReport:
    """Max |V_model - V_input| over the samples (one eval_V call for all of them)
    and the quasi-kernel residual; the report passes if both are <= VERIFY_TOL.
    Unverifiable where the round-off of V on the samples, _V_ROUNDOFF |V|, passes
    VERIFY_TOL: no float evaluation could then meet it."""
    sample_z = [complex(z) for z in sample_z]
    if not sample_z:
        raise ValidationError("verify_realization: no sample points")
    v_in = eval_V(f, sample_z).tolist()
    if not (size := max(map(abs, v_in))) * _V_ROUNDOFF <= VERIFY_TOL:
        raise Unverifiable(f"|V| reaches {size:.3g} on the samples: its round-off "
                           f"({_V_ROUNDOFF / sys.float_info.epsilon:g} eps |V|) passes "
                           f"VERIFY_TOL = {VERIFY_TOL:g}")
    samples = tuple((z, v, impedance_V(p, z)) for z, v in zip(sample_z, v_in))
    worst = max(abs(vm - v) for _, v, vm in samples)
    eta_res = None
    if p.theta_expected is not None:
        eta_res = abs(quasi_kernel_eta(p.h, p.mu, p.gamma) - p.theta_expected)
    passed = worst <= VERIFY_TOL and (eta_res is None or eta_res <= VERIFY_TOL)
    return VerifyReport(max_residual=worst, eta_residual=eta_res,
                        samples=samples, passed=passed)
