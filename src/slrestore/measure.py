"""Spectral measures on [0, +inf) and weighted integrals against them.

A measure is a sum of point atoms, piecewise densities on a bounded window,
and an optional power-law tail ``d(sigma)/dt = coeff * t**(-exponent)`` for
``t >= threshold``.  Infinite total mass (needed for the SL0 classes) cannot
be verified from finite data and is therefore declared by a flag; the
validator only checks that the declaration is consistent with a tail
exponent <= 1.

Weighted integrals use breadth-first adaptive Gauss-Legendre quadrature on
root panels (a table's knot segments, each to its own tolerance); capped
refinement ends silently, its error still counted.  A resolvent over an
array of z is one quadrature with one integrand row per z, each row
accepting its own panels.  Power laws and the tail integrate in u = sqrt(t) or
sqrt(T/t) with a Gauss-Jacobi origin panel, or in closed form against 1/t; 1/t
divergence is decided analytically.
"""
from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np
from scipy.linalg import eigh_tridiagonal

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
    """Kernel 1/(t - z) for a fixed z off [0, +inf), or for each z of a 1-D array."""

    z: complex

    def __post_init__(self):
        if np.ndim(self.z):  # a tuple keeps the kernel hashable and comparable
            object.__setattr__(self, "z", tuple(self.z))


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


@dataclass(frozen=True)
class Tail:
    """d(sigma)/dt = coeff * t**(-exponent) for t >= threshold (exponent > 0)."""

    threshold: float
    coeff: float
    exponent: float


def _check_finite(where: str, **fields) -> None:
    for name, x in fields.items():
        if not all(map(math.isfinite, (x,) if isinstance(x, numbers.Real) else x)):
            raise ValidationError(f"{where}: {name} must be finite")


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
        for i, atom in enumerate(self.atoms):
            _check_finite(f"atom {i}", **vars(atom))
            if atom.t < 0:
                raise ValidationError(f"atom location {atom.t} < 0")
            if atom.w <= 0:
                raise ValidationError(f"atom weight {atom.w} <= 0")
        prev_hi = 0.0
        for i, piece in enumerate(self.pieces):
            if not isinstance(piece, (PowerLawPiece, TablePiece)):
                raise ValidationError(f"piece {i}: unknown piece type {type(piece)!r}")
            if isinstance(piece, TablePiece) and not 2 <= len(piece.knots) == len(piece.values):
                raise ValidationError(f"piece {i}: knots/values size mismatch")
            _check_finite(f"piece {i}", **vars(piece))
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
            else:
                knots = np.asarray(piece.knots, dtype=float)
                values = np.asarray(piece.values, dtype=float)
                if np.any(np.diff(knots) <= 0):
                    raise ValidationError(f"piece {i}: knots not strictly increasing")
                if np.any(values < 0):
                    raise ValidationError(f"piece {i}: negative density value")
        if self.tail is not None:
            _check_finite("tail", **vars(self.tail))
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
_NODES = np.concatenate([_NODES_HI, _NODES_LO])
_WEIGHTS = np.concatenate([_WEIGHTS_HI, _WEIGHTS_LO])

#: Breadth cap: most (panel, row) pairs one refinement level may hold (or the
#: root count times the rows, if larger).  Past it, tol is below the round-off
#: of the integrand: a panel is bisected while its rule difference exceeds tol
#: times its share of its root's width, and that share halves with every level.
_MAX_PANELS = 1 << 14


@functools.lru_cache(maxsize=64)
def _jacobi_rule(p: float):
    """21- then 10-point Gauss-Jacobi rules for (1 + x)**p on [-1, 1] (p != 0) by Golub-Welsch."""
    # eigenvalues and first eigenvector components of the Jacobi matrix: scipy's
    # roots_jacobi weights lose up to 1e-11 relative near p = -1, these keep 1e-14
    rules = []
    for n in (21, 10):
        k = np.arange(n, dtype=float)
        s = 2.0 * k + p  # s[0] = p, so the first diagonal entry is p / (p + 2)
        x, v = eigh_tridiagonal(p * p / (s * (s + 2.0)),
                                2.0 * k[1:] * (k[1:] + p) / (s[1:] * np.sqrt(s[1:] ** 2 - 1.0)))
        rules.append((x, v[0] ** 2 * (2.0 ** (p + 1.0) / (p + 1.0))))
    return tuple(np.concatenate(r) for r in zip(*rules))


def adaptive_gauss_legendre(f, lo, hi, tol: float = DEFAULT_TOL, max_depth: int = 52,
                            exponent: float = 0.0):
    """Integrate t**exponent * f(t) over root panels [lo, hi] (scalars or 1-D arrays).

    f(t) returns len(t) values, or an (n, len(t)) array: one row per kernel
    parameter, integrated over the same roots.  Each row and root gets absolute
    tolerance tol (hi <= lo adds 0).  Each depth level is one call of f on the 10- and
    21-point Gauss-Legendre nodes (not nested) of every panel that some row still
    needs; a row accepts or bisects each of its panels by its own rule difference, so
    it gets the panels, value and error a call with that row alone would give, unless
    the breadth cap ends the refinement first.  Depth and breadth caps accept a level
    silently, its error still summed; the breadth cap counts the (panel, row) pairs of
    the next level's call against max(_MAX_PANELS, n * len(lo)), which bounds its
    memory for any n.  Sums run right to left per root, then by root, per row.
    An exponent weights f by t**exponent (lo >= 0); a panel from 0 takes the cached
    21/10-point Gauss-Jacobi pair for it (exponent > -1).  Returns (value, err), each
    of shape (n,) (scalars if f returns 1-D); complex iff f is.
    """
    lo, hi = (np.atleast_1d(np.asarray(x, dtype=float)) for x in (lo, hi))
    width0 = hi - lo
    root = (width0 > 0).nonzero()[0]
    if not root.size:
        return 0.0, 0.0
    a, b = lo[root], hi[root]
    need = True  # (row, panel) pairs still open: at depth 0, all of them
    levels = []  # (accepted mask, root, left end, value, error) per depth level
    for depth in range(max_depth + 1):
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        t = mid[:, None] + half[:, None] * _NODES
        weights = _WEIGHTS * t ** exponent if exponent else _WEIGHTS
        # a rule is built only for a panel from 0, so roots with lo > 0 take any exponent
        if exponent and (at0 := a == 0.0).any():
            nodes, jacobi = _jacobi_rule(exponent)
            t[at0] = half[at0, None] * (1.0 + nodes)
            weights[at0] = jacobi * half[at0, None] ** exponent
        y = f(t.ravel())
        # one line of nodes per (row, panel); a 1-D y has no row axis
        wf = weights * y.reshape(y.shape[:-1] + (root.size, _NODES.size))
        i_hi = half * wf[..., :_NODES_HI.size].sum(axis=-1)
        i_lo = half * wf[..., _NODES_HI.size:].sum(axis=-1)
        d = i_hi - i_lo
        e = np.hypot(d.real, d.imag)  # abs of a complex scalar; np.abs rounds otherwise
        split = ~(e <= tol * ((b - a) / width0[root]))
        bisect = split
        if y.ndim > 1:  # rows share the panels; each splits only those it still needs
            split &= need
            bisect = split.any(axis=0)
        n_bisect = np.count_nonzero(bisect)
        rows = split.size // root.size
        # depth and breadth caps: accept the rest as they stand; their e still counts
        if depth == max_depth or 2 * n_bisect * rows > max(_MAX_PANELS, rows * lo.size):
            split[...] = n_bisect = 0
        levels.append((need ^ split, root, a, i_hi, e))  # split is a subset of need
        if not n_bisect:
            break
        if y.ndim > 1:
            need = split[:, bisect]
            need = np.concatenate((need, need), axis=1)
        root, a, mid, b = root[bisect], a[bisect], mid[bisect], b[bisect]
        root, a, b = (np.concatenate(x) for x in ((root, root), (a, mid), (mid, b)))
    ok, root, left, i_hi, e = (np.concatenate(x, axis=-1) for x in zip(*levels))
    row, panel = ok.reshape(rows, -1).nonzero()
    at = row * lo.size + root[panel]  # flat (row, root) slot
    order = np.lexsort((-left[panel], at))
    at = at[order]
    value, err = np.zeros(rows * lo.size, dtype=i_hi.dtype), np.zeros(rows * lo.size)
    np.add.at(value, at, i_hi[ok][order])  # in index order, one by one
    np.add.at(err, at, e[ok][order])
    shape = y.shape[:-1] + lo.shape  # (rows, roots), or (roots,) for one row
    return value.reshape(shape).cumsum(axis=-1).T[-1], err.reshape(shape).cumsum(axis=-1).T[-1]


def _kernel_callable(kernel: Kernel) -> Callable:
    if isinstance(kernel, Resolvent):
        z = np.asarray(kernel.z, dtype=complex)[..., None]  # one row per z, if an array
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


def _power_integral(kernel: Kernel, kf, lo: float, hi: float, c: float, e: float, tol: float):
    """Integral of c * t**e * k(t) over [lo, hi]; hi = inf for the tail."""
    if kernel == INV_T:  # elementary antiderivative; lo = 0 only with e > 0 (_b_divergent)
        if e == 0.0:
            return c * math.log(hi / lo), 0.0
        return c * (hi ** e - lo ** e) / e, 0.0
    # a smooth function of u times u**p, for every kernel
    if math.isinf(hi):  # t = lo/u**2: c t**e k(t) dt = 2c lo**(1+e) u**(-2e-1) k(lo/u**2)/u**2 du
        pref, u0, u1, p = 2.0 * c * lo ** (1.0 + e), 0.0, 1.0, -2.0 * e - 1.0
        g = lambda u: kf(lo / (u * u)) * (1.0 / (u * u))
    else:  # t = u**2: c t**e k(t) dt = 2c u**(2e+1) k(u**2) du
        pref, u0, u1, p = 2.0 * c, math.sqrt(lo), math.sqrt(hi), 2.0 * e + 1.0
        g = lambda u: kf(u * u)
    val, err = adaptive_gauss_legendre(g, u0, u1, tol, exponent=p)
    return pref * val, abs(pref) * err


def integrate_weighted(sigma: SpectralMeasure, kernel: Kernel,
                       tol: float = DEFAULT_TOL):
    """Compute integral of the kernel against sigma.

    Returns (value, error_estimate).  The value is +inf (extended real) when
    the 1/t moment diverges at the origin, and complex for a resolvent kernel
    with nonzero imaginary part.  A resolvent whose z is a 1-D array gives one
    complex value and error per z, in one quadrature pass, each as a scalar z
    would give it.
    """
    if isinstance(kernel, Resolvent):
        z = np.asarray(kernel.z, dtype=complex)
        if z.ndim > 1 or not z.size:
            raise ValidationError(f"resolvent: expected a point or a 1-D array of them, got {z!r}")
        for zj in z.ravel().tolist():
            if not (math.isfinite(zj.real) and math.isfinite(zj.imag)):
                raise ValidationError(f"resolvent point z={zj} is not finite")
            if zj.imag == 0.0 and zj.real >= 0.0:
                raise PoleOnSupport(f"resolvent point z={zj} lies on [0, +inf)")
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
    at_atoms = kf(np.array([atom.t for atom in sigma.atoms])).T  # one entry per atom
    for atom, k in zip(sigma.atoms, at_atoms):
        value = value + atom.w * k
    for piece in sigma.pieces:
        if isinstance(piece, PowerLawPiece):
            v, e = _power_integral(kernel, kf, piece.lo, piece.hi, piece.coeff, piece.exponent, tol)
        else:  # one call: every knot segment is a root panel
            knots = np.asarray(piece.knots)
            v, e = adaptive_gauss_legendre(lambda t: piece.density(t) * kf(t),
                                           knots[:-1], knots[1:], tol)
        value = value + v
        err += e
    if sigma.tail is not None:
        T, c, s = sigma.tail.threshold, sigma.tail.coeff, sigma.tail.exponent
        v, e = _power_integral(kernel, kf, T, math.inf, c, -s, tol)  # c t**-s on [T, inf)
        value = value + v
        err += e
    if isinstance(kernel, Resolvent) and z.ndim:
        return value + np.zeros(z.shape, complex), err + np.zeros(z.shape)
    if isinstance(kernel, Resolvent) and z.imag != 0.0:
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
