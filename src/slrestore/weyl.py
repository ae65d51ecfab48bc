"""Weyl-Titchmarsh function m_inf for half-line Schroedinger operators.

The operator is -y'' + q(x) y on [a, +inf) in the limit-point case.  With
the normalization phi1(a)=0, phi1'(a)=1, phi2(a)=-1, phi2'(a)=0 the
square-integrable solution is phi2 + m_inf(lambda) phi1, which gives
m_inf(lambda) = -y'(a)/y(a) for any decaying solution y.

Every representable potential equals q_inf exactly beyond its cutoff, so
the decaying solution there is e^{ik(x - cutoff)} with k = sqrt(lambda -
q_inf), Im k > 0.  For a constant q this gives m_inf = -ik in closed form.
For a tabulated q the solution starts at the cutoff from (1, ik) and
is integrated back over [a, cutoff] only: backward is its stable direction.
The boundary limit m_inf(-0) is one such propagation at lambda = 0.  These
propagations and solve_cauchy share one helper, the only call of scipy's
solve_ivp (DOP853, imported on first call, so m_inf of a constant q loads
no scipy); its q is the table's linear interpolation up to and
including the cutoff and q_inf beyond.  ODE_TOL is the one relative
tolerance.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    NegativeQInf,
    NodeAtEndpoint,
    OdeStepFailure,
    PropagationTooLong,
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

#: Relative tolerance of every ODE propagation (table m_inf and solve_cauchy).
ODE_TOL = 1e-10

#: Relative tolerance, times 1 + |m|, of theta = -m (restore's ThetaMismatch at b = inf)
#: and of theta >= -m (OperatorData).
THETA_RTOL = 1e-8


@dataclass(frozen=True)
class HalfLinePotential:
    """Real potential q on [a, +inf): the constant q_inf, or a table with q_inf past its cutoff."""

    a: float = 0.0
    kind: str = "constant"  # "constant" | "table"
    grid: tuple = ()  # table abscissae, strictly increasing from a
    values: tuple = ()  # table ordinates
    cutoff: float = 0.0  # q == q_inf beyond this point (kind="table")
    q_inf: float = 0.0  # the constant, or the table's value beyond its cutoff

    def __post_init__(self):
        if self.kind not in ("constant", "table"):
            raise ValidationError(f"unknown potential kind {self.kind!r}")
        nums = (self.a, self.cutoff, self.q_inf, *self.grid, *self.values)
        if not all(map(math.isfinite, nums)):
            raise ValidationError("potential: every number must be finite")
        if self.kind == "constant" and (self.grid or self.values or self.cutoff):
            raise ValidationError("constant potential: grid, values and cutoff are table fields")
        if self.kind == "table":
            grid = np.asarray(self.grid, dtype=float)
            if grid.size < 2 or np.any(np.diff(grid) <= 0) or grid[0] != self.a:
                raise ValidationError("table grid must be strictly increasing from a")
            if len(self.values) != grid.size:
                raise ValidationError("table grid/values size mismatch")
            if self.cutoff < grid[-1]:
                raise ValidationError("table cutoff must cover the grid")


@dataclass(frozen=True)
class OperatorData:
    """Boundary data consumed by the restoration pipeline.

    theta is the quasi-kernel boundary parameter, m = m_inf(-0), c the
    boundary-trace constant and xi = i2/c; None marks a value left out (m is
    required).
    """

    theta: Optional[float]
    m: float
    c: Optional[float] = None
    xi: Optional[float] = None

    def __post_init__(self):
        for name in ("theta", "m", "c", "xi"):
            x = getattr(self, name)
            if (x is None and name == "m") or (x is not None and not math.isfinite(x)):
                raise ValidationError(f"operator data: {name} must be finite, got {x}")
        if self.theta is not None and self.theta + self.m < -THETA_RTOL * (1.0 + abs(self.m)):
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
    """lambda -> m_inf(lambda) for one potential, as weyl_m evaluates it: the closed
    form -i sqrt(lambda - q_inf) for a constant q, else _table_m at ODE_TOL."""

    potential: HalfLinePotential


@dataclass(frozen=True)
class CauchySolution:
    phi1: complex
    dphi1: complex
    phi2: complex
    dphi2: complex

    @property
    def wronskian(self) -> complex:
        return self.phi1 * self.dphi2 - self.dphi1 * self.phi2


def solve_ivp(*args, **kwargs):
    """scipy's solve_ivp, imported on first call (it goes with ROADMAP item 3)."""
    from scipy.integrate import solve_ivp as ivp
    return ivp(*args, **kwargs)


def _propagate(p: HalfLinePotential, lam, y, x0: float, x1: float):
    """(y, y') at x1 of -y'' + q y = lambda y from (y, y') at x0: DOP853 at rtol ODE_TOL.

    q is the table's np.interp up to and including the cutoff and q_inf beyond
    it (everywhere for a constant q).  A failed step or a y out of float
    range raises OdeStepFailure.
    """
    grid, values = np.asarray(p.grid, dtype=float), np.asarray(p.values, dtype=float)
    cutoff = p.cutoff if p.kind == "table" else -math.inf

    def rhs(x, y):
        qx = np.interp(x, grid, values) if x <= cutoff else p.q_inf
        return [y[1], (qx - lam) * y[0]]

    with np.errstate(all="ignore"):  # an overflow is refused below, not warned about
        # atol > 0: a zero start component (y' = 0 at lambda = q_inf = 0)
        # would make DOP853's first-step estimate divide by zero
        sol = solve_ivp(rhs, (x0, x1), y, method="DOP853", rtol=ODE_TOL, atol=ODE_TOL * 1e-3)
    if not sol.success:
        raise OdeStepFailure(sol.message)
    y = sol.y[:, -1]
    if not np.isfinite(y).all():
        raise OdeStepFailure(f"solution out of float range at x={x1} for lambda={lam}")
    return y


def solve_cauchy(potential: HalfLinePotential, lam: complex, x_end: float) -> CauchySolution:
    """Solve l(y) = lambda y with phi1(a)=0, phi1'(a)=1, phi2(a)=-1, phi2'(a)=0.

    Each solution is one propagation at ODE_TOL; their Wronskian must stay 1.
    """
    a = potential.a
    if x_end <= a:
        raise ValidationError(f"x_end={x_end} must exceed the endpoint a={a}")
    lam = complex(lam)
    phi1, phi2 = (_propagate(potential, lam, np.array(y0, dtype=complex), a, x_end)
                  for y0 in ([0.0, 1.0], [-1.0, 0.0]))  # each with its derivative
    out = CauchySolution(*phi1, *phi2)
    with np.errstate(all="ignore"):  # products out of float range are refused below
        w = out.wronskian
        # cancellation in phi1*phi2' - phi1'*phi2 scales with the product sizes
        scale = max(1.0, abs(out.phi1 * out.dphi2) + abs(out.dphi1 * out.phi2))
        bound = 10.0 * ODE_TOL * scale
    if not abs(w - 1.0) <= bound < math.inf:  # also refuses a NaN Wronskian
        raise OdeStepFailure(f"Wronskian drifted to {w} (tolerance {bound})")
    return out


def _decay_root(lam: complex, q_inf: float) -> complex:
    """sqrt(lambda - q_inf) on the branch with positive imaginary part; a difference out
    of float range is a ValidationError (its root inf*i would pass for a decaying one)."""
    w = complex(lam) - q_inf
    if cmath.isinf(w):
        raise ValidationError(f"lambda - q_inf = {w} is out of float range")
    k = cmath.sqrt(w)
    if k.imag < 0 or (k.imag == 0 and k.real < 0):
        k = -k
    return k


#: Largest (cutoff - a) * s a table propagation may take; its cost grows about
#: linearly in it (2-3 s at the cap on a 2-vCPU Xeon host at ODE_TOL 1e-10).
MAX_PROPAGATION = 5e3


def _table_m(ev: WeylEvaluator, lam: complex, k: complex) -> complex:
    """-y'(a)/y(a) for the solution equal to e^{ik(x - cutoff)} beyond the cutoff.

    One backward sweep over [a, cutoff], renormalized in chunks.  Solutions
    grow at most like e^{s|x - x0|} with s = sqrt(max |q - lambda|) (Gronwall
    in the variables (y, y'/s)); |q - lambda| is convex in q, so the maximum
    sits at a table value or at q_inf.  Past (cutoff - a) s = MAX_PROPAGATION
    the sweep is refused with PropagationTooLong.
    """
    p = ev.potential
    s = math.sqrt(max(abs(v - lam) for v in (*p.values, p.q_inf)))
    length = p.cutoff - p.a
    if not length * s <= MAX_PROPAGATION:
        raise PropagationTooLong(f"table propagation at lambda={lam}: (cutoff - a) * sqrt(max "
                                 f"|q - lambda|) = {length * s:.3g} exceeds {MAX_PROPAGATION:g}")
    chunk = length if s == 0 else min(length, 200.0 / s)
    y = np.array([1.0, 1j * k], dtype=complex)
    x_hi = p.cutoff
    while x_hi > p.a:
        x_lo = max(p.a, x_hi - chunk)
        y = _propagate(p, lam, y, x_hi, x_lo)
        y = y / (abs(y[0]) + abs(y[1]) / max(abs(k), 1.0))
        x_hi = x_lo
    if abs(y[0]) <= ODE_TOL * abs(y[1]):
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
    """Boundary-trace constant c; closed form known only for q = 0 (the constant 0).

    Translation invariant in the endpoint a, hence a is ignored.
    """
    if potential.kind == "table" or potential.q_inf != 0.0:
        raise Unsupported(
            "boundary-trace constant has a closed form only for q = 0; "
            "supply c explicitly in OperatorData"
        )
    return 1.0 / math.sqrt(2.0)
