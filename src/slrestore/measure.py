"""Spectral measures on [0, +inf) and weighted integrals against them.

A measure is a sum of point atoms, piecewise densities on a bounded window,
and an optional power-law tail ``d(sigma)/dt = coeff * t**(-exponent)`` for
``t >= threshold``.  Infinite total mass (needed for the SL0 classes) cannot
be verified from finite data and is therefore declared by a flag; the
validator only checks that the declaration is consistent with a tail
exponent <= 1.

Weighted integrals are computed by adaptive Gauss-Legendre quadrature on
dyadic panels.  Integrable endpoint singularities and the infinite tail are
removed by explicit substitutions, and divergence of the 1/t moment is
decided analytically from piece/tail exponents, never numerically.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import (
    DivergentAtOrigin,
    NonIntegrable,
    NotSL0,
    PoleOnSupport,
    ValidationError,
)

__all__ = [
    "Atom",
    "PowerLawPiece",
    "TablePiece",
    "Tail",
    "SpectralMeasure",
    "Moments",
    "ClassTag",
    "Resolvent",
    "INV_T",
    "INV_1PLUS_T",
    "INV_1PLUS_T2",
    "integrate_weighted",
    "moments",
    "classify",
    "adaptive_gauss_legendre",
    "json_number",
    "measure_from_json",
    "measure_to_json",
]

INV_T = "inv_t"
INV_1PLUS_T = "inv_1plus_t"
INV_1PLUS_T2 = "inv_1plus_t2"

#: Default absolute tolerance for a single weighted integral.
DEFAULT_TOL = 1e-11


@dataclass(frozen=True)
class Resolvent:
    """Kernel 1/(t - z) for a fixed z off [0, +inf)."""

    z: complex


Kernel = Union[str, Resolvent]


@dataclass(frozen=True)
class Atom:
    t: float
    w: float


@dataclass(frozen=True)
class PowerLawPiece:
    """Density coeff * t**exponent on [lo, hi]."""

    lo: float
    hi: float
    coeff: float
    exponent: float

    def density(self, t):
        return self.coeff * np.power(t, self.exponent)


@dataclass(frozen=True)
class TablePiece:
    """Piecewise-linear density through (knots, values)."""

    knots: tuple
    values: tuple

    @property
    def lo(self) -> float:
        return self.knots[0]

    @property
    def hi(self) -> float:
        return self.knots[-1]

    def density(self, t):
        return np.interp(t, self.knots, self.values)


Piece = Union[PowerLawPiece, TablePiece]


@dataclass(frozen=True)
class Tail:
    """d(sigma)/dt = coeff * t**(-exponent) for t >= threshold (exponent > 0)."""

    threshold: float
    coeff: float
    exponent: float


@dataclass(frozen=True)
class SpectralMeasure:
    """Nonnegative measure on [0, +inf), immutable after construction.

    Pass ``validate=False`` only in tests that need deliberately broken
    fixtures (e.g. negative densities for the Herglotz-failure check).
    """

    atoms: tuple = ()
    pieces: tuple = ()
    tail: Optional[Tail] = None
    declared_infinite_mass: bool = False
    validate: bool = field(default=True, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple(self.atoms))
        object.__setattr__(self, "pieces", tuple(self.pieces))
        if self.validate:
            self._check()

    def _check(self) -> None:
        for atom in self.atoms:
            if atom.t < 0:
                raise ValidationError(f"atom location {atom.t} < 0")
            if atom.w <= 0:
                raise ValidationError(f"atom weight {atom.w} <= 0")
        prev_hi = 0.0
        for i, piece in enumerate(self.pieces):
            if piece.lo < 0 or piece.hi <= piece.lo:
                raise ValidationError(f"piece {i}: bad interval [{piece.lo}, {piece.hi}]")
            if i > 0 and piece.lo < prev_hi - 1e-15:
                raise ValidationError("pieces must be sorted and non-overlapping")
            prev_hi = piece.hi
            if isinstance(piece, PowerLawPiece):
                if piece.coeff < 0:
                    raise ValidationError(f"piece {i}: negative coefficient")
                if piece.lo == 0.0 and piece.exponent <= -1.0:
                    raise NonIntegrable(
                        f"piece {i}: exponent {piece.exponent} <= -1 at the origin "
                        "makes the 1/(1+t) moment diverge"
                    )
            elif isinstance(piece, TablePiece):
                knots = np.asarray(piece.knots, dtype=float)
                values = np.asarray(piece.values, dtype=float)
                if knots.size != values.size or knots.size < 2:
                    raise ValidationError(f"piece {i}: knots/values size mismatch")
                if np.any(np.diff(knots) <= 0):
                    raise ValidationError(f"piece {i}: knots not strictly increasing")
                if np.any(values < 0):
                    raise ValidationError(f"piece {i}: negative density value")
            else:
                raise ValidationError(f"piece {i}: unknown piece type {type(piece)!r}")
        if self.tail is not None:
            if self.tail.threshold <= 0:
                raise ValidationError("tail threshold must be positive")
            if self.tail.coeff <= 0:
                raise ValidationError("tail coefficient must be positive")
            if self.tail.exponent <= 0:
                raise ValidationError("tail exponent must be positive")
            for i, piece in enumerate(self.pieces):
                if piece.hi > self.tail.threshold + 1e-12:
                    raise ValidationError(
                        f"piece {i} extends past the tail threshold {self.tail.threshold}"
                    )
        if self.declared_infinite_mass:
            if self.tail is None or self.tail.exponent > 1.0:
                raise ValidationError(
                    "declared_infinite_mass requires a tail with exponent <= 1 "
                    "(the only representable route to infinite mass)"
                )

    def is_empty(self) -> bool:
        return not self.atoms and not self.pieces and self.tail is None


@dataclass(frozen=True)
class Moments:
    """Bundle of the three weighted moments used by the restoration formulas."""

    a: float
    b: float  # may be math.inf
    i2: float
    err_a: float
    err_b: float
    err_i2: float


@dataclass(frozen=True)
class ClassTag:
    kind: str  # "SL0K" (b = inf) or "SL01K" (b < inf)
    stieltjes: bool  # gamma >= 0


# -- quadrature core --------------------------------------------------------

_NODES_LO, _WEIGHTS_LO = np.polynomial.legendre.leggauss(10)
_NODES_HI, _WEIGHTS_HI = np.polynomial.legendre.leggauss(21)


def adaptive_gauss_legendre(f, lo: float, hi: float, tol: float = DEFAULT_TOL,
                            max_depth: int = 52):
    """Integrate a vectorized callable on [lo, hi] to absolute tolerance tol.

    Dyadic bisection; each panel applies a 10-point and a 21-point
    Gauss-Legendre rule.  The two rules are not nested, so a panel costs 31
    evaluations; its error estimate is the difference of the two.  Returns
    (value, error_estimate); the value is complex iff f is complex-valued.
    """
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
        i_hi = half * np.sum(_WEIGHTS_HI * f(mid + half * _NODES_HI))
        i_lo = half * np.sum(_WEIGHTS_LO * f(mid + half * _NODES_LO))
        e = abs(i_hi - i_lo)
        if e <= tol * ((b - a) / width0) or depth >= max_depth:
            value = value + i_hi
            err += e
        else:
            stack.append((a, mid, depth + 1))
            stack.append((mid, b, depth + 1))
    return value, err


def _kernel_callable(kernel: Kernel) -> Callable:
    if isinstance(kernel, Resolvent):
        z = complex(kernel.z)
        return lambda t: 1.0 / (t - z)
    if kernel == INV_T:
        return lambda t: 1.0 / t
    if kernel == INV_1PLUS_T:
        return lambda t: 1.0 / (1.0 + t)
    if kernel == INV_1PLUS_T2:
        return lambda t: 1.0 / (1.0 + t * t)
    raise ValidationError(f"unknown kernel {kernel!r}")


def _b_divergent(sigma: SpectralMeasure) -> bool:
    """Analytic divergence test for the 1/t moment (origin behavior only)."""
    for piece in sigma.pieces:
        if piece.lo == 0.0:
            if isinstance(piece, PowerLawPiece) and piece.exponent <= 0.0:
                return True
            if isinstance(piece, TablePiece) and piece.values[0] > 0.0:
                return True
    return False


def _powerlaw_inv_t(piece: PowerLawPiece) -> float:
    # integrand coeff * t**(exponent - 1) has an elementary antiderivative
    e = piece.exponent
    if piece.lo == 0.0:
        return piece.coeff * piece.hi ** e / e  # e > 0 guaranteed by caller
    if e == 0.0:
        return piece.coeff * math.log(piece.hi / piece.lo)
    return piece.coeff * (piece.hi ** e - piece.lo ** e) / e


def _powerlaw_integral(piece: PowerLawPiece, kernel: Kernel, kf, tol: float):
    if kernel == INV_T:
        return _powerlaw_inv_t(piece), 0.0
    e = piece.exponent
    if piece.lo == 0.0 and e < 0.0:
        # t = u**(1/(1+e)) removes the origin singularity exactly
        p = 1.0 + e
        upper = piece.hi ** p
        g = lambda u: kf(np.power(u, 1.0 / p))
        val, err = adaptive_gauss_legendre(g, 0.0, upper, tol)
        return (piece.coeff / p) * val, abs(piece.coeff / p) * err
    g = lambda t: piece.coeff * np.power(t, e) * kf(t)
    return adaptive_gauss_legendre(g, piece.lo, piece.hi, tol)


def _table_integral(piece: TablePiece, kernel: Kernel, kf, tol: float):
    value = 0.0
    err = 0.0
    g = lambda t: piece.density(t) * kf(t)
    for k0, k1 in zip(piece.knots[:-1], piece.knots[1:]):
        v, e = adaptive_gauss_legendre(g, k0, k1, tol)
        value = value + v
        err += e
    return value, err


def _tail_integral(tail: Tail, kernel: Kernel, tol: float):
    T, c, s = tail.threshold, tail.coeff, tail.exponent
    if kernel == INV_T:
        return c * T ** (-s) / s, 0.0
    # substitution v = (T/t)**s maps [T, inf) onto (0, 1] and flattens the
    # integrand: integral = c*T**(1-s)/s * int_0^1 g(v) dv
    if isinstance(kernel, Resolvent) or kernel == INV_1PLUS_T:
        z = complex(kernel.z) if isinstance(kernel, Resolvent) else -1.0
        g = lambda v: 1.0 / (T - z * np.power(v, 1.0 / s))
    elif kernel == INV_1PLUS_T2:
        g = lambda v: np.power(v, 1.0 / s) / (np.power(v, 2.0 / s) + T * T)
    else:
        raise ValidationError(f"unknown kernel {kernel!r}")
    pref = c * T ** (1.0 - s) / s
    val, err = adaptive_gauss_legendre(g, 0.0, 1.0, tol)
    return pref * val, abs(pref) * err


def integrate_weighted(sigma: SpectralMeasure, kernel: Kernel,
                       tol: float = DEFAULT_TOL):
    """Compute integral of the kernel against sigma.

    Returns (value, error_estimate).  The value is +inf (extended real) when
    the 1/t moment diverges at the origin, and complex for a resolvent kernel
    with nonzero imaginary part.
    """
    if isinstance(kernel, Resolvent):
        z = complex(kernel.z)
        if z.imag == 0.0 and z.real >= 0.0:
            raise PoleOnSupport(f"resolvent point z={z} lies on [0, +inf)")
    # re-run the cheap analytic integrability guard (measures may have been
    # built with validate=False)
    for piece in sigma.pieces:
        if isinstance(piece, PowerLawPiece) and piece.lo == 0.0 and piece.exponent <= -1.0:
            raise NonIntegrable("measure is not integrable against 1/(1+t)")
    if kernel == INV_T:
        for atom in sigma.atoms:
            if atom.t == 0.0:
                raise DivergentAtOrigin(
                    "atom at t=0 makes the 1/t moment undefined"
                )
        if _b_divergent(sigma):
            return math.inf, 0.0
    kf = _kernel_callable(kernel)
    value = 0.0
    err = 0.0
    for atom in sigma.atoms:
        value = value + atom.w * kf(atom.t)
    for piece in sigma.pieces:
        if isinstance(piece, PowerLawPiece):
            v, e = _powerlaw_integral(piece, kernel, kf, tol)
        else:
            v, e = _table_integral(piece, kernel, kf, tol)
        value = value + v
        err += e
    if sigma.tail is not None:
        v, e = _tail_integral(sigma.tail, kernel, tol)
        value = value + v
        err += e
    if isinstance(kernel, Resolvent) and complex(kernel.z).imag != 0.0:
        return complex(value), err
    return float(np.real(value)), err


def moments(sigma: SpectralMeasure, tol: float = DEFAULT_TOL) -> Moments:
    """The a = 1/(1+t), b = 1/t and i2 = 1/(1+t^2) moments of sigma."""
    a, err_a = integrate_weighted(sigma, INV_1PLUS_T, tol)
    b, err_b = integrate_weighted(sigma, INV_T, tol)
    i2, err_i2 = integrate_weighted(sigma, INV_1PLUS_T2, tol)
    return Moments(a=a, b=b, i2=i2, err_a=err_a, err_b=err_b, err_i2=err_i2)


def classify(sigma: SpectralMeasure, gamma: float) -> ClassTag:
    """Class tag of gamma + integral d(sigma)/(t-z).

    SL0 membership requires infinite total mass, which is declared rather
    than computed; the b = inf / b < inf split is decided analytically.
    """
    if not sigma.declared_infinite_mass:
        raise NotSL0(
            "infinite total mass not declared; the SL0 classes require "
            "integral d(sigma) = inf"
        )
    if sigma.tail is None or sigma.tail.exponent > 1.0:
        raise NotSL0("declared infinite mass is inconsistent with the tail")
    for atom in sigma.atoms:
        if atom.t == 0.0:
            raise DivergentAtOrigin("atom at t=0 makes the 1/t moment undefined")
    kind = "SL0K" if _b_divergent(sigma) else "SL01K"
    return ClassTag(kind=kind, stieltjes=(gamma >= 0.0))


# -- JSON schema -------------------------------------------------------------

def json_number(x) -> float:
    """float(x) for a JSON number; a boolean or a string raises TypeError."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise TypeError(f"expected a number, got {x!r}")
    return float(x)


def measure_from_json(obj: dict, validate: bool = True) -> SpectralMeasure:
    """Parse the measure JSON schema (see README) into a SpectralMeasure."""
    if not isinstance(obj, dict):
        raise ValidationError("measure: expected a JSON object")
    num = json_number
    atoms = tuple(Atom(num(a["t"]), num(a["w"])) for a in obj.get("atoms", ()))
    pieces = []
    for p in obj.get("pieces", ()):
        kind = p.get("kind", "power_law")
        if kind == "power_law":
            pieces.append(PowerLawPiece(num(p["lo"]), num(p["hi"]),
                                        num(p["coeff"]), num(p["exponent"])))
        elif kind == "inverse_sqrt":
            pieces.append(PowerLawPiece(num(p["lo"]), num(p["hi"]),
                                        num(p["coeff"]), -0.5))
        elif kind == "table":
            pieces.append(TablePiece(tuple(num(x) for x in p["knots"]),
                                     tuple(num(x) for x in p["values"])))
        else:
            raise ValidationError(f"measure: unknown piece kind {kind!r}")
    tail = None
    if obj.get("tail") is not None:
        t = obj["tail"]
        tail = Tail(num(t["T"]), num(t["coeff"]), num(t["exponent"]))
    return SpectralMeasure(atoms=atoms, pieces=tuple(pieces), tail=tail,
                           declared_infinite_mass=bool(obj.get("infinite_mass", False)),
                           validate=validate)


def measure_to_json(sigma: SpectralMeasure) -> dict:
    pieces = []
    for p in sigma.pieces:
        if isinstance(p, PowerLawPiece):
            pieces.append({"lo": p.lo, "hi": p.hi, "kind": "power_law",
                           "coeff": p.coeff, "exponent": p.exponent})
        else:
            pieces.append({"kind": "table", "knots": list(p.knots),
                           "values": list(p.values)})
    out = {"atoms": [{"t": a.t, "w": a.w} for a in sigma.atoms],
           "pieces": pieces,
           "infinite_mass": sigma.declared_infinite_mass}
    if sigma.tail is not None:
        out["tail"] = {"T": sigma.tail.threshold, "coeff": sigma.tail.coeff,
                       "exponent": sigma.tail.exponent}
    else:
        out["tail"] = None
    return out
