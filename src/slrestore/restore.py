"""Inverse-problem core: sectoriality and the (h, mu) formulas.

Everything here is exact algebra in the inputs (b, gamma, theta, m, xi).
All of it reads one real pair (offset, numerator): (theta, (theta + m) b)
for a finite 1/t moment b, and (-m, xi) for b = inf, where theta must equal
-m.  As gamma varies, Im h = numerator/(1 + gamma^2) and Re h = offset +
gamma Im h trace a circle and mu = offset + numerator/gamma a hyperbola.
The verdict reads the sign of one quadratic, q = gamma^2 + b gamma + 1
(q = gamma for b = inf).  The private helpers take gamma as a float or a
numpy array, so ``sweep`` evaluates them over the whole sample at once.  Infinite values of
b and mu are represented by ``math.inf``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DegenerateImaginaryPart,
    MissingXi,
    OutOfRange,
    RestorationOverflow,
    ThetaMismatch,
    ValidationError,
)
from .weyl import THETA_RTOL

__all__ = [
    "Sectoriality",
    "Circle",
    "Hyperbola",
    "Sweep",
    "RestoredSystem",
    "gamma_admissible",
    "sectoriality_angle",
    "max_sectoriality",
    "restore_h",
    "restore_mu",
    "h_locus",
    "mu_locus",
    "quasi_kernel_eta",
    "sweep",
    "restore_system",
]


@dataclass(frozen=True)
class Sectoriality:
    kind: str  # "sectorial" | "extremal" | "non_accretive"
    alpha: Optional[float] = None  # radians, present iff sectorial

    @property
    def accretive(self) -> bool:
        return self.kind != "non_accretive"

    @property
    def strict(self) -> bool:
        """Strictly accretive: sectorial, with an angle."""
        return self.kind == "sectorial"


@dataclass(frozen=True)
class Circle:
    center: complex
    radius: float
    excluded: complex  # limit point gamma -> +-inf, not attained


@dataclass(frozen=True)
class Hyperbola:
    """mu(gamma) = offset + numerator / gamma."""

    offset: float
    numerator: float
    zero_crossing: Optional[float] = None  # gamma with mu = 0, when it exists

    def at(self, gamma: float) -> float:
        return float(_mu(self.offset, self.numerator, gamma))


@dataclass(frozen=True)
class RestoredSystem:
    """The system restored at gamma: h (Im h > 0: _h raises first), mu and the verdict."""

    gamma: float
    h: complex
    mu: float  # math.inf exactly when gamma = 0
    sectoriality: Sectoriality


@dataclass(frozen=True, eq=False)
class Sweep:
    """Numpy columns of a sweep, sorted by gamma; iterating yields RestoredSystems.

    ``sector`` is 0 (non-accretive), 1 (extremal) or 2 (sectorial, the only rows
    where ``alpha`` is an angle)."""

    gamma: np.ndarray
    h_re: np.ndarray
    h_im: np.ndarray
    mu: np.ndarray
    sector: np.ndarray
    alpha: np.ndarray
    circle_residual: np.ndarray
    eta_residual: np.ndarray

    def __len__(self) -> int:
        return self.gamma.size

    def __iter__(self):
        columns = (self.gamma, self.h_re, self.h_im, self.mu, self.sector, self.alpha)
        for gamma, hx, hy, u, k, a in zip(*(col.tolist() for col in columns)):
            yield RestoredSystem(gamma, complex(hx, hy), u, _sectoriality(k, a))


_KINDS = ("non_accretive", "extremal", "sectorial")  # indexed by sector rank


def _b_infinite(b: float) -> bool:
    """True for b = inf; OutOfRange unless b > 0."""
    if b <= 0:
        raise OutOfRange(f"b={b} must be positive (possibly inf)")
    return math.isinf(b)


def _pair(b: float, theta: float, m: float, xi: Optional[float]):
    """(offset, numerator) with h = offset + numerator (gamma + i)/(1 + gamma^2).

    The pair is (theta, (theta + m) b) for finite b and (-m, xi) for b = inf,
    where theta = -m is checked (ThetaMismatch).  mu = offset + numerator/gamma.
    """
    if _b_infinite(b):
        if xi is None:
            raise MissingXi("b = inf restoration requires xi = i2/c")
        if abs(theta + m) > THETA_RTOL * (1.0 + abs(m)):
            raise ThetaMismatch(
                f"b = inf forces theta = -m, got theta={theta}, m={m}"
            )
        offset, numerator, name = -m, xi, "xi"
    else:
        offset, numerator, name = theta, (theta + m) * b, "(theta + m) * b"
    if not numerator > 0.0:
        raise DegenerateImaginaryPart(
            f"{name} = {numerator} must be > 0 for Im h > 0"
        )
    if math.isinf(numerator):
        raise RestorationOverflow(f"{name} = {numerator} is out of float range")
    return offset, numerator


def _sector(b: float, g):
    """Rank (index into _KINDS) and angle alpha at gamma (a float or an array).

    The sign of q = gamma^2 + b gamma + 1 (q = gamma for b = inf) decides
    the kind; alpha = atan(num / q) with num = b (1 for b = inf) is only
    meaningful where q > 0.
    """
    num, q = (1.0, g) if _b_infinite(b) else (b, g * g + g * b + 1.0)
    with np.errstate(all="ignore"):
        return (q >= 0.0) * 1 + (q > 0.0), np.arctan(np.divide(num, q))


def _sectoriality(rank: int, alpha: float) -> Sectoriality:
    return Sectoriality(_KINDS[rank], float(alpha) if rank == 2 else None)


def _h(offset: float, numerator: float, g):
    """(offset + gamma Im h, Im h = numerator/(1 + gamma^2)) at gamma (a float or an
    array); Im h must not underflow and Re h must not overflow (|gamma Im h| <= numerator/2)."""
    with np.errstate(all="ignore"):
        y = numerator / (1.0 + g * g)
        x = offset + g * y
    _refuse(y > 0.0, g, DegenerateImaginaryPart, f"Im h = {numerator}/(1 + gamma^2) is not > 0")
    _refuse(np.isfinite(x), g, RestorationOverflow, "Re h is out of float range")
    return x, y


def _mu(x, y, g):
    """mu = Re h + Im h / gamma, infinite where gamma = 0 and finite elsewhere."""
    with np.errstate(all="ignore"):
        mu = np.where(g == 0.0, math.inf, x + np.divide(y, g))
    _refuse(np.isfinite(mu) | (g == 0.0), g, RestorationOverflow, "mu is out of float range")
    return mu


def _refuse(ok, g, error, what: str) -> None:
    """Raise error, naming the first gamma (a float or an array) where ok fails."""
    if not (ok := np.atleast_1d(ok)).all():
        raise error(f"{what} at gamma={float(np.atleast_1d(g)[~ok][0])!r}")


def _eta(x, y, mu):
    """Quasi-kernel parameter for h = x + iy; NaN where |mu - x| ~ 0."""
    with np.errstate(all="ignore"):
        eta = np.divide(mu * x - (x * x + y * y), mu - x)
        # squares past the float range (inf - inf): the same quotient, x - y (y / (mu - x))
        eta = np.where(np.isnan(eta), x - y * np.divide(y, mu - x), eta)
    near = np.abs(mu - x) < 1e-8 * (1.0 + np.abs(mu))
    return np.where(np.isinf(mu), x, np.where(near, math.nan, eta))


def _row(b: float, theta: float, m: float, xi: Optional[float], g):
    """(offset, numerator, Re h, Im h, mu, rank, alpha) at a float or array gamma."""
    offset, numerator = _pair(b, theta, m, xi)
    x, y = _h(offset, numerator, g)
    return (offset, numerator, x, y, _mu(x, y, g)) + _sector(b, g)


def gamma_admissible(b: float):
    """Closed gamma rays on which the restored operator is accretive.

    Returns a list of (lo, hi) closed intervals (math.inf endpoints open by
    nature).  For finite b < 2 the whole line qualifies; for b >= 2 the two
    rays meet the boundary roots of gamma^2 + gamma*b + 1 = 0.
    """
    if _b_infinite(b):
        return [(0.0, math.inf)]
    if b < 2.0:
        return [(-math.inf, math.inf)]
    d = math.sqrt(b * b - 4.0)
    g1 = (-b - d) / 2.0
    g2 = (-b + d) / 2.0
    return [(-math.inf, g1), (g2, math.inf)]


def sectoriality_angle(b: float, gamma: float) -> Sectoriality:
    """Sectoriality angle alpha, or the extremal / non-accretive verdict."""
    return _sectoriality(*_sector(b, float(gamma)))


def max_sectoriality(b: float):
    """(gamma*, alpha*) maximizing the angle over gamma; only for 0 < b < 2."""
    if not (0.0 < b < 2.0):
        raise OutOfRange(f"largest-angle formula needs 0 < b < 2, got b={b}")
    return -b / 2.0, math.atan(b / (1.0 - b * b / 4.0))


def restore_h(b: float, gamma: float, theta: float, m: float,
              xi: Optional[float] = None) -> complex:
    """Restored boundary parameter h = x + iy."""
    return complex(*_h(*_pair(b, theta, m, xi), float(gamma)))


def restore_mu(h: complex, gamma: float) -> float:
    """Extension parameter mu = Re h + Im h / gamma; infinite when gamma = 0."""
    if h.imag <= 0:
        raise ValidationError(f"h={h} must have Im h > 0")
    return float(_mu(h.real, h.imag, gamma))


def h_locus(b: float, theta: float, m: float,
            xi: Optional[float] = None) -> Circle:
    """Circle swept by h as gamma runs over the real line."""
    offset, numerator = _pair(b, theta, m, xi)
    r = numerator / 2.0
    return Circle(center=complex(offset, r), radius=r,
                  excluded=complex(offset, 0.0))


def mu_locus(b: float, theta: float, m: float,
             xi: Optional[float] = None) -> Hyperbola:
    """Hyperbola swept by mu as gamma varies."""
    offset, numerator = _pair(b, theta, m, xi)
    zero = -numerator / offset if offset != 0.0 else None
    return Hyperbola(offset=offset, numerator=numerator, zero_crossing=zero)


def quasi_kernel_eta(h: complex, mu: float) -> Optional[float]:
    """Boundary parameter of the quasi-kernel: (mu Re h - |h|^2)/(mu - Re h).

    Returns None in the near-degenerate regime |mu - Re h| ~ 0 where the
    quotient amplifies noise; the mu = inf limit is Re h.
    """
    eta = float(_eta(h.real, h.imag, mu))
    return None if math.isnan(eta) else eta


def sweep(b: float, theta: float, m: float, xi: Optional[float],
          gammas: Sequence[float]) -> Sweep:
    """Restoration swept over a gamma sample, with identity residuals per row.

    Rows are ordered by gamma regardless of input order.
    """
    g = np.sort(np.asarray(gammas, dtype=float), kind="stable")
    offset, numerator, x, y, mu, rank, alpha = _row(b, theta, m, xi, g)
    r = np.float64(numerator / 2.0)  # the h circle: center offset + ir, radius r
    with np.errstate(all="ignore"):  # a residual past the float range reads inf
        circle_res = np.abs((x - offset) ** 2 + (y - r) ** 2 - r ** 2)
        circle_res[np.isnan(circle_res)] = math.inf  # squares that overflow: inf - inf
        eta_res = np.abs(_eta(x, y, mu) - offset)
    return Sweep(g, x, y, mu, rank, alpha, circle_res, eta_res)


def restore_system(b: float, gamma: float, theta: float, m: float,
                   xi: Optional[float] = None) -> RestoredSystem:
    """Full restoration at one gamma: h, mu and the sectoriality verdict."""
    _, _, x, y, mu, rank, alpha = _row(b, theta, m, xi, float(gamma))
    return RestoredSystem(gamma, complex(x, y), float(mu), _sectoriality(rank, alpha))
