"""Weyl-Titchmarsh function m_inf for half-line Schroedinger operators.

The operator is -y'' + q(x) y on [a, +inf) in the limit-point case.  With
the normalization phi1(a)=0, phi1'(a)=1, phi2(a)=-1, phi2'(a)=0 the
square-integrable solution is phi2 + m_inf(lambda) phi1, which gives
m_inf(lambda) = -y'(a)/y(a) for any decaying solution y.

The decaying solution is computed by backward integration from a truncation
point: it is the unstable direction forward and the stable one backward.
The boundary limit m_inf(-0) is obtained from the sequence lambda_k = -2^-k
with two-level Richardson extrapolation in sqrt(-lambda).
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import solve_ivp

from .errors import (
    NodeAtEndpoint,
    NonConvergent,
    OdeStepFailure,
    TruncationDominates,
    Unsupported,
    ValidationError,
)

__all__ = [
    "HalfLinePotential",
    "OperatorData",
    "WeylEvaluator",
    "CauchySolution",
    "solve_cauchy",
    "weyl_m",
    "weyl_m_at_minus_zero",
    "boundary_trace_constant",
]


@dataclass(frozen=True)
class HalfLinePotential:
    """Real potential q on [a, +inf): zero, constant, or tabulated up to a cutoff."""

    a: float = 0.0
    kind: str = "zero"  # "zero" | "constant" | "table"
    value: float = 0.0  # constant value (kind="constant")
    grid: tuple = ()  # table abscissae, strictly increasing from a
    values: tuple = ()  # table ordinates
    cutoff: float = 0.0  # q == q_inf beyond this point (kind="table")
    q_inf: float = 0.0  # asymptotic value

    def __post_init__(self):
        if self.kind not in ("zero", "constant", "table"):
            raise ValidationError(f"unknown potential kind {self.kind!r}")
        if self.kind == "zero" and self.q_inf != 0.0:
            raise ValidationError("zero potential must have q_inf = 0")
        if self.kind == "constant":
            object.__setattr__(self, "q_inf", float(self.value))
        if self.kind == "table":
            grid = np.asarray(self.grid, dtype=float)
            if grid.size < 2 or np.any(np.diff(grid) <= 0) or grid[0] != self.a:
                raise ValidationError("table grid must be strictly increasing from a")
            if len(self.values) != grid.size:
                raise ValidationError("table grid/values size mismatch")
            if self.cutoff < grid[-1]:
                raise ValidationError("table cutoff must cover the grid")

    def q(self, x):
        if self.kind == "zero":
            return np.zeros_like(np.asarray(x, dtype=float)) if np.ndim(x) else 0.0
        if self.kind == "constant":
            return np.full_like(np.asarray(x, dtype=float), self.value) if np.ndim(x) else self.value
        return np.where(np.asarray(x) >= self.cutoff, self.q_inf,
                        np.interp(x, self.grid, self.values))


@dataclass(frozen=True)
class OperatorData:
    """Boundary data consumed by the restoration pipeline.

    theta is the quasi-kernel boundary parameter, m = m_inf(-0), c the
    boundary-trace constant and xi = i2/c when both are known.
    """

    theta: float
    m: float
    c: Optional[float] = None
    xi: Optional[float] = None

    def __post_init__(self):
        if self.theta < -self.m - 1e-12:
            raise ValidationError(
                f"theta={self.theta} < -m={-self.m}: the associated self-adjoint "
                "extension would not be nonnegative"
            )
        if self.c is not None and self.c <= 0:
            raise ValidationError("boundary-trace constant c must be positive")
        if self.xi is not None and self.xi <= 0:
            raise ValidationError("xi must be positive")


@dataclass(frozen=True)
class WeylEvaluator:
    """Immutable evaluator lambda -> m_inf(lambda) for one potential.

    With adaptive_length=True (default) the truncation point is scaled with
    the decay rate Im sqrt(lambda - q_inf), using L as a floor; with
    adaptive_length=False the given L is used verbatim.
    """

    potential: HalfLinePotential
    L: float = 60.0
    ode_tol: float = 1e-10
    adaptive_length: bool = True

    def __post_init__(self):
        cutoff = self.potential.cutoff if self.potential.kind == "table" else self.potential.a
        if self.L < max(cutoff, 10.0):
            raise ValidationError("truncation length L must be >= max(cutoff, 10)")
        if self.ode_tol <= 0:
            raise ValidationError("ode_tol must be positive")


@dataclass(frozen=True)
class CauchySolution:
    phi1: complex
    dphi1: complex
    phi2: complex
    dphi2: complex

    @property
    def wronskian(self) -> complex:
        return self.phi1 * self.dphi2 - self.dphi1 * self.phi2


def _schrodinger_rhs(potential: HalfLinePotential, lam: complex):
    def rhs(x, y):
        qx = potential.q(x)
        return [y[1], (qx - lam) * y[0], y[3], (qx - lam) * y[2]]

    return rhs


def solve_cauchy(potential: HalfLinePotential, lam: complex, x_end: float,
                 ode_tol: float = 1e-10) -> CauchySolution:
    """Solve l(y) = lambda y with phi1(a)=0, phi1'(a)=1, phi2(a)=-1, phi2'(a)=0."""
    a = potential.a
    if x_end <= a:
        raise ValidationError(f"x_end={x_end} must exceed the endpoint a={a}")
    lam = complex(lam)
    y0 = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex)
    sol = solve_ivp(_schrodinger_rhs(potential, lam), (a, x_end), y0,
                    method="DOP853", rtol=ode_tol, atol=ode_tol * 1e-3)
    if not sol.success:
        raise OdeStepFailure(sol.message)
    out = CauchySolution(*sol.y[:, -1])
    # cancellation in phi1*phi2' - phi1'*phi2 scales with the product sizes
    scale = max(1.0, abs(out.phi1 * out.dphi2) + abs(out.dphi1 * out.phi2))
    if abs(out.wronskian - 1.0) > 10.0 * ode_tol * scale:
        raise OdeStepFailure(
            f"Wronskian drifted to {out.wronskian} (tolerance {10 * ode_tol * scale})"
        )
    return out


def _decay_root(lam: complex, q_inf: float) -> complex:
    """sqrt(lambda - q_inf) on the branch with positive imaginary part."""
    k = cmath.sqrt(complex(lam) - q_inf)
    if k.imag < 0 or (k.imag == 0 and k.real < 0):
        k = -k
    return k


def _backward_m(ev: WeylEvaluator, lam: complex, length: float) -> complex:
    """m from one backward sweep over [a, a + length], renormalized in chunks."""
    p = ev.potential
    a = p.a
    k = _decay_root(lam, p.q_inf)
    decay = k.imag

    def rhs2(x, y):
        qx = p.q(x)
        return [y[1], (qx - lam) * y[0]]

    # keep the per-chunk growth factor well below overflow
    chunk = length if decay <= 0 else min(length, 50.0 / decay)
    y = np.array([1.0, 1j * k], dtype=complex)
    x_hi = a + length
    while x_hi > a:
        x_lo = max(a, x_hi - chunk)
        sol = solve_ivp(rhs2, (x_hi, x_lo), y, method="DOP853",
                        rtol=ev.ode_tol, atol=0.0)
        if not sol.success:
            raise OdeStepFailure(sol.message)
        y = sol.y[:, -1]
        scale = abs(y[0]) + abs(y[1]) / max(abs(k), 1.0)
        if scale > 0:
            y = y / scale
        x_hi = x_lo
    if abs(y[0]) <= ev.ode_tol * abs(y[1]):
        raise NodeAtEndpoint(f"decaying solution vanishes at x=a for lambda={lam}")
    return complex(-y[1] / y[0])


def _effective_length(ev: WeylEvaluator, lam: complex) -> float:
    p = ev.potential
    decay = _decay_root(lam, p.q_inf).imag
    if decay <= 0:
        raise ValidationError(
            f"lambda={lam} admits no decaying solution (needs Im lambda != 0 "
            "or lambda below the essential spectrum)"
        )
    base = ev.L - p.a
    cutoff_len = (p.cutoff - p.a) if p.kind == "table" else 0.0
    if not ev.adaptive_length:
        return base
    # 20/decay keeps the truncation error near e^-40; chunked renormalization
    # in _backward_m makes a generous length safe against overflow
    return max(base, 20.0 / decay, cutoff_len + 2.0)


def weyl_m(ev: WeylEvaluator, lam: complex, check_truncation: bool = False) -> complex:
    """m_inf(lambda) for lambda off the essential spectrum."""
    lam = complex(lam)
    length = _effective_length(ev, lam)
    m = _backward_m(ev, lam, length)
    if check_truncation:
        m2 = _backward_m(ev, lam, 2.0 * length)
        if abs(m2 - m) > 10.0 * ev.ode_tol * (1.0 + abs(m)):
            raise TruncationDominates(
                f"doubling the truncation length moved m by {abs(m2 - m):.3e}"
            )
    return m


def weyl_m_at_minus_zero(ev: WeylEvaluator, k_max: int = 26,
                         conv_tol: float = 1e-6) -> float:
    """Limit m_inf(-0) by Richardson extrapolation along lambda_k = -2^-k.

    Near zero m behaves like m0 + c1*sqrt(-lambda) + c2*lambda; the first
    Richardson level (ratio sqrt(2) in sqrt(-lambda)) removes the sqrt term,
    the second (ratio 2 in lambda) the linear one.
    """
    sqrt2 = math.sqrt(2.0)
    ms = []
    r1 = []
    r2 = []
    prev = None
    for k in range(k_max + 1):
        ms.append(weyl_m(ev, -(2.0 ** -k)).real)
        if k >= 1:
            r1.append((sqrt2 * ms[k] - ms[k - 1]) / (sqrt2 - 1.0))
        if k >= 2:
            r2.append(2.0 * r1[-1] - r1[-2])
            if prev is not None and abs(r2[-1] - prev) < conv_tol:
                return r2[-1]
            prev = r2[-1]
    diffs = [abs(x - y) for x, y in zip(r2[1:], r2[:-1])]
    if len(diffs) >= 2 and diffs[-1] > diffs[-2]:
        raise NonConvergent(
            f"m_inf(-0) extrapolant oscillates (last differences {diffs[-2:]})"
        )
    raise NonConvergent(
        f"m_inf(-0) extrapolant not settled after k={k_max} "
        f"(last difference {diffs[-1] if diffs else math.nan})"
    )


def boundary_trace_constant(potential: HalfLinePotential) -> float:
    """Boundary-trace constant c; closed form known only for q = 0.

    Translation invariant in the endpoint a, hence a is ignored.
    """
    if potential.kind != "zero":
        raise Unsupported(
            "boundary-trace constant has a closed form only for q = 0; "
            "supply c explicitly in OperatorData"
        )
    return 1.0 / math.sqrt(2.0)
