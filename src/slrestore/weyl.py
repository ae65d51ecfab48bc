"""Weyl-Titchmarsh function m_inf for half-line Schroedinger operators.

The operator is -y'' + q(x) y on [a, +inf) in the limit-point case.  With
the normalization phi1(a)=0, phi1'(a)=1, phi2(a)=-1, phi2'(a)=0 the
square-integrable solution is phi2 + m_inf(lambda) phi1, which gives
m_inf(lambda) = -y'(a)/y(a) for any decaying solution y.

Every representable potential equals q_inf exactly beyond its cutoff, so
the decaying solution there is e^{ik(x - cutoff)} with k = sqrt(lambda -
q_inf), Im k > 0.  For zero and constant q this gives m_inf = -ik in closed
form.  For a tabulated q the solution starts at the cutoff from (1, ik) and
is integrated back over [a, cutoff] only: backward is its stable direction.
The boundary limit m_inf(-0) is one such propagation at lambda = 0.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import solve_ivp

from .errors import (
    NegativeQInf,
    NodeAtEndpoint,
    OdeStepFailure,
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
        nums = (self.a, self.value, self.cutoff, self.q_inf, *self.grid, *self.values)
        if not all(map(math.isfinite, nums)):
            raise ValidationError("potential: every number must be finite")
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
        for name in ("theta", "m", "c", "xi"):
            x = getattr(self, name)
            if x is not None and not math.isfinite(x):
                raise ValidationError(f"operator data: {name} must be finite, got {x}")
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

    Zero and constant potentials use the closed form -i sqrt(lambda - q_inf);
    a tabulated potential is integrated from the cutoff, where the decaying
    solution is known exactly, back to a with relative tolerance ode_tol.
    """

    potential: HalfLinePotential
    ode_tol: float = 1e-10

    def __post_init__(self):
        if not 0.0 < self.ode_tol < math.inf:
            raise ValidationError(f"ode_tol must be positive and finite, got {self.ode_tol}")


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


def _table_m(ev: WeylEvaluator, lam: complex, k: complex) -> complex:
    """-y'(a)/y(a) for the solution equal to e^{ik(x - cutoff)} beyond the cutoff.

    One backward sweep over [a, cutoff], renormalized in chunks.  Solutions
    grow at most like e^{s|x - x0|} with s = sqrt(max |q - lambda|) (Gronwall
    in the variables (y, y'/s)); |q - lambda| is convex in q, so the maximum
    sits at a table value or at q_inf.
    """
    p = ev.potential
    grid = np.asarray(p.grid, dtype=float)
    values = np.asarray(p.values, dtype=float)

    def rhs(x, y):
        # np.interp holds values[-1] on [grid[-1], cutoff]: the left limit at the cutoff
        return [y[1], (np.interp(x, grid, values) - lam) * y[0]]

    s = math.sqrt(max(abs(v - lam) for v in (*p.values, p.q_inf)))
    length = p.cutoff - p.a
    chunk = length if s == 0 else min(length, 200.0 / s)
    y = np.array([1.0, 1j * k], dtype=complex)
    x_hi = p.cutoff
    while x_hi > p.a:
        x_lo = max(p.a, x_hi - chunk)
        # atol > 0: a zero start component (y' = 0 at lambda = q_inf = 0)
        # would make DOP853's first-step estimate divide by zero
        sol = solve_ivp(rhs, (x_hi, x_lo), y, method="DOP853",
                        rtol=ev.ode_tol, atol=ev.ode_tol * 1e-3)
        if not sol.success:
            raise OdeStepFailure(sol.message)
        y = sol.y[:, -1]
        y = y / (abs(y[0]) + abs(y[1]) / max(abs(k), 1.0))
        x_hi = x_lo
    if abs(y[0]) <= ev.ode_tol * abs(y[1]):
        raise NodeAtEndpoint(f"decaying solution vanishes at x=a for lambda={lam}")
    return complex(-y[1] / y[0])


def weyl_m(ev: WeylEvaluator, lam: complex) -> complex:
    """m_inf(lambda) for lambda off the essential spectrum [q_inf, +inf)."""
    lam = complex(lam)
    k = _decay_root(lam, ev.potential.q_inf)
    if not k.imag > 0:  # also rejects NaN
        raise ValidationError(
            f"lambda={lam} admits no decaying solution (needs Im lambda != 0 "
            "or lambda below the essential spectrum)"
        )
    if ev.potential.kind != "table":
        return -1j * k
    return _table_m(ev, lam, k)


def weyl_m_at_minus_zero(ev: WeylEvaluator) -> float:
    """Boundary limit m_inf(-0), from one propagation at lambda = 0.

    For q_inf > 0 the point 0 lies below the essential spectrum and m_inf is
    analytic there.  For q_inf = 0 the potential differs from 0 only on
    [a, cutoff], so the Jost solution is analytic in k at k = 0 and the
    limit is the zero-energy solution, equal to 1 beyond the cutoff.
    """
    p = ev.potential
    if p.q_inf < 0:
        raise NegativeQInf(
            f"q_inf={p.q_inf} < 0: lambda = -0 lies inside the essential "
            "spectrum, so m_inf(-0) is not defined"
        )
    if p.kind != "table":
        return math.sqrt(p.q_inf)
    return _table_m(ev, 0.0, 1j * math.sqrt(p.q_inf)).real


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
