"""Spectral measures on [0, +inf) and weighted integrals against them.

A measure is a sum of point atoms, piecewise densities on a bounded window,
and an optional power-law tail ``d(sigma)/dt = coeff * t**(-exponent)`` for
``t >= threshold``.  Atoms and bounded pieces have finite mass, so the total mass is
infinite (as the SL0 classes need) exactly when there is a tail with exponent <= 1.

Every kernel is a point of the resolvent R(z) = integral d(sigma)(t) / (t - z): the moments
are Re R(-1) (1/(1+t)), R(0) (1/t) and Im R(i) (1/(1+t^2)), and V(z) is gamma + R(z).  Atoms
and the knot segments of tables are in closed form, as is 1/t on power laws and the tail.
The rest is breadth-first adaptive Gauss-Legendre quadrature on one root per power law (in
u = sqrt(t)) and the tail (in u = sqrt(T/t)), one call for all points, each of which
refines its own panels from Gauss-Jacobi origin panels graded to its scale.  Each point and
root has the absolute tolerance QUAD_TOL before its prefactor (2c, or 2c T**(1-s) for the
tail), or its round-off where that is larger; capped refinement (the breadth cap counts
each point's panels) ends silently, its error still counted.  Every part's error adds the
one round-off rule: a few eps of each term, sqrt(n) eps of a sum of n terms.

A ``resolvent_pass(sigma, points)`` block integrates R of that measure at all the points
on entry; inside it, R at any subset of them is read from that one pass.  Each value and
error is the one its point alone gives, so nothing else changes.
"""
from __future__ import annotations

import contextlib
import functools
import math
import numbers
import threading
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    DivergentAtOrigin,
    NonIntegrable,
    NotSL0,
    PoleOnSupport,
    SlrestoreError,
    UnrepresentableMeasure,
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
    "integrate_weighted",
    "resolvent_pass",
    "MOMENT_POINTS",
    "moments",
    "classify",
    "adaptive_gauss_legendre",
    "json_number",
    "JsonField",
    "measure_from_json",
    "measure_to_json",
]

#: Absolute tolerance of every weighted integral, per point and root.
QUAD_TOL = 1e-11

#: The points of the moments: a = Re R(-1), b = R(0) and i2 = Im R(i).
MOMENT_POINTS = (-1.0, 0.0, 1j)


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
    """Nonnegative measure on [0, +inf), immutable; validated once, on construction."""

    atoms: tuple = ()
    pieces: tuple = ()
    tail: Optional[Tail] = None

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple(self.atoms))
        object.__setattr__(self, "pieces", tuple(self.pieces))
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
            elif np.any(np.diff(np.asarray(piece.knots, dtype=float)) <= 0):
                raise ValidationError(f"piece {i}: knots not strictly increasing")
            elif min(piece.values) < 0:
                raise ValidationError(f"piece {i}: negative density value")
        if self.tail is not None:
            _check_finite("tail", **vars(self.tail))
            for name, x in zip(("threshold", "coefficient", "exponent"), vars(self.tail).values()):
                if x <= 0:
                    raise ValidationError(f"tail {name} must be positive")
            for i, piece in enumerate(self.pieces):
                if piece.hi > self.tail.threshold + 1e-12:
                    raise ValidationError(
                        f"piece {i} extends past the tail threshold {self.tail.threshold}"
                    )

    @property
    def infinite_mass(self) -> bool:
        """Infinite total mass: atoms and bounded pieces are finite, a tail t**-s is
        infinite exactly when s <= 1."""
        return self.tail is not None and self.tail.exponent <= 1.0


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
_HI, _LO = slice(None, _NODES_HI.size), slice(_NODES_HI.size, None)

#: Breadth cap: most panels one point may hold in a refinement level, a bound on its memory
#: only (the round-off floor ends refinement next to the support).  Counted per point, it
#: leaves each point's refinement the same however many points share the call.
_MAX_PANELS = 1 << 14

#: Depth cap: the deepest refinement level (a panel is its root's width / 2**52).
_MAX_DEPTH = 52

#: 2**-k for k = 0, 1, ... down to 0.0: the graded start's panel ends in units of u1.
_HALVINGS = 0.5 ** np.arange(1076)

#: Graded start: a root from u = 0 begins as panels down to 2**-_GRADED of its width, or to
#: a point's scale in u where that is finer.  The worked example's near-poles reach u ~ 0.03
#: u1 in both charts on the verify grid; from K = 2 to 9 its eval_V takes 6, 5, 4, 3, 3, 3,
#: 3, 3 levels, fewest nodes at K = 6.
_GRADED = 6

#: Round-off charged to err per unit |value| of each term: an accepted panel (a kernel value,
#: its weight and a 21-term sum round by a few eps each), an atom, a knot segment or a
#: closed form; a part's sum of n terms adds sqrt(n) eps more.  err then covers the exact
#: error of the 800 moments of quad-sweep seeds 1-10 (at most 0.15 of err), of 480
#: 200-knot table resolvents (0.06) and of 432 power-law and tail integrals (0.67; at
#: 4 eps, 1.04).
_EPS = np.finfo(float).eps
_ROUNDOFF = 8.0 * _EPS


def _roundoff(size, n):
    """The round-off bound of a sum of n terms whose sizes sum to size."""
    return (_ROUNDOFF + _EPS * np.sqrt(n)) * size


@functools.lru_cache(maxsize=64)
def _jacobi_rule(p: float):
    """21- then 10-point Gauss-Jacobi rules for (1 + x)**p on [-1, 1] (p != 0) by Golub-Welsch."""
    # eigenvalues and first eigenvector components of the Jacobi matrix (dense, numpy's
    # eigh).  Against 40 digits (30 sampled p) the weights keep 4.2e-15 of the rule's mass
    # for p <= 3, 8.5e-14 up to p = 1000 (scipy's roots_jacobi: 1.7e-13 near p = -1); a
    # weight tiny next to the mass may be far worse relative to itself (1e-2 for p >= 500)
    rules = []
    for n in (21, 10):
        k = np.arange(n, dtype=float)
        s = 2.0 * k + p  # s[0] = p, so the first diagonal entry is p / (p + 2)
        with np.errstate(all="ignore"):  # singular as p -> -1, overflows for large p
            diag = p * p / (s * (s + 2.0))
            off = 2.0 * k[1:] * (k[1:] + p) / (s[1:] * np.sqrt(s[1:] ** 2 - 1.0))
        if not (p + 1.0 < 1024.0 and np.isfinite(diag).all() and np.isfinite(off).all()):
            raise UnrepresentableMeasure(f"no Gauss-Jacobi rule for u**{p} in float range")
        x, v = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        rules.append((x, v[0] ** 2 * (2.0 ** (p + 1.0) / (p + 1.0))))
    return tuple(np.concatenate(r) for r in zip(*rules))


#: Each thread's workspace: one 1-D complex array that only grows, up to _WORKSPACE values
#: (one point's level under the breadth cap); a larger level gets an array of its own.
#: Reused, a level allocates no (pair, node) array, so freeing one can no longer trim the
#: heap that the next level then faults back in.
_WORKSPACE = _NODES.size * _MAX_PANELS
_workspace = threading.local()


def adaptive_gauss_legendre(f, lo, hi, charts, z):
    """Integrate f(t - z) over root panels [lo, hi] (1-D arrays), one chart per root, at
    each point of z (1-D), in one pass: (value, err) of shape (len(z), len(lo)).

    charts, one (p, chart, inverse) per root, puts the root in u: weight u**p (Gauss-Jacobi
    on a panel from 0, p > -1), chart(u) -> (t, factor) gives t and scales the weights, and
    inverse(|z|) is a point's scale in u, down to which a root from 0 starts graded where
    that is finer than 2**-_GRADED of its width.  Every panel belongs to one (point, root)
    pair.  Each level is one call f(s) on s = t - z at the 21- and 10-point Gauss-Legendre
    nodes of the open panels; s is a view of this thread's workspace that f may overwrite.
    A panel is accepted when its rule difference meets its share of QUAD_TOL or its
    round-off: each node's term |w f| times the relative round-off of t - z,
    eps (t + |z|) / |t - z|, which f keeps where it is as well conditioned as 1/s.  The
    depth cap accepts a whole level, the breadth cap the open panels of a point over it,
    their error still summed.  A point's panels, values and errors are thus the ones it
    gets alone.  Sums per point and root run right to left, each err plus the round-off of
    its panels; hi <= lo adds 0.  The points refine in consecutive chunks whose depth-0
    nodes fit _WORKSPACE (at least one point each), so a wide z needs no more memory.
    """
    lo, hi = (np.atleast_1d(np.asarray(x, dtype=float)) for x in (lo, hi))
    return _refine(f, lo, hi, charts, np.atleast_1d(np.asarray(z, dtype=complex)))


def _refine(f, lo, hi, charts, z):
    """adaptive_gauss_legendre on 1-D arrays; points whose depth-0 nodes overfill
    _WORKSPACE split into two halves, each refined by a call of its own."""
    width0, nz, zabs = hi - lo, z.size, np.abs(z)
    # a (point, root) pair's key is root * nz + point: sorted keys keep panels sorted by root
    # depth 0: each root's mesh is built once for the points that share its grading, its
    # panels in ends[j]:ends[j + 1], and filled as one (point, panel, node) block; pair i
    # is key[i] on mesh panel g[i]
    mesh, pairs, blocks, ends, n = [], [], [], [0], 0  # (a, b); (key, g); (pairs, panels, z)
    for j, width in enumerate(width0.tolist()):
        m = ends[-1]
        if width > 0:
            # halvings per point: the least k with u1 2**-k at or below its scale, at least
            # _GRADED (frexp's exponent e has 2**(e-1) <= scale/u1 < 2**e); none off 0
            grade = np.zeros(nz, int) if lo[j] else np.maximum(_GRADED, 1 - np.frexp(
                np.maximum(charts[j][2](zabs) / hi[j], math.ulp(0.0)))[1])
            for k in sorted(set(grade.tolist())):
                # k + 1 panels [lo, u1 2**-k], [u1 2**-k, u1 2**(1-k)], ..., [u1/2, u1]
                at, edges = (grade == k).nonzero()[0], hi[j] * _HALVINGS[k + 1::-1]
                edges[0] = lo[j]
                mesh.append((edges[:-1], edges[1:]))
                pairs.append(((at + j * nz).repeat(k + 1),
                              np.arange(at.size * (k + 1)) % (k + 1) + m))
                blocks.append((slice(n, n := n + at.size * (k + 1)), slice(m, m := m + k + 1),
                               z[at, None, None]))
        ends.append(m)
    if not n:
        return (np.zeros((nz, lo.size)),) * 2
    if n * _NODES.size > _WORKSPACE and nz > 1:
        halves = [_refine(f, lo, hi, charts, half) for half in np.array_split(z, 2)]
        return tuple(np.concatenate(x) for x in zip(*halves))
    (a, b), (key, g) = (map(np.concatenate, zip(*x)) for x in (mesh, pairs))
    # by key: a pair's point and its root's width; each root's first key
    zk, w0k = z[None].repeat(lo.size, 0).ravel(), width0.repeat(nz)
    bounds = np.arange(len(charts) + 1) * nz
    levels = []  # (key, left end, value, error, bisected) of each level's panels
    for depth in range(_MAX_DEPTH + 1):
        # nodes t and weights (chart factor included) of the level's panels, sorted by root
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        u = mid[:, None] + half[:, None] * _NODES
        t, weights = np.empty((2, *u.shape))
        if depth:  # each root's range of panels; at depth 0, of its mesh (above)
            ends = key.searchsorted(bounds).tolist()
        for (p, chart, _), i, j in zip(charts, ends, ends[1:]):
            if i == j:  # the root has no panel in this level
                continue
            blk, w = slice(i, j), _WEIGHTS
            if p:  # a rule is built only for a panel from 0: lo > 0 takes any p
                w = _WEIGHTS * u[blk] ** p
                if (at0 := a[blk] == 0.0).any():
                    nodes, jacobi = _jacobi_rule(p)
                    u[blk][at0] = half[blk][at0, None] * (1.0 + nodes)
                    w[at0] = jacobi * half[blk][at0, None] ** p
            t[blk], factor = chart(u[blk])
            np.multiply(w, factor, out=weights[blk])
        if not depth:  # one panel per pair from here on; t and weights stay by mesh panel
            a, b, mid, half = (x[g] for x in (a, b, mid, half))
        if (work := getattr(_workspace, "array", None)) is None or work.size < n * _NODES.size:
            work = np.empty(n * _NODES.size, complex)
            if work.size <= _WORKSPACE:
                _workspace.array = work
        s = work[:n * _NODES.size].reshape(n, _NODES.size)
        zp = zk[key, None]
        if depth:  # a panel each
            blocks = [(slice(None), slice(None), zp[None])]
        for at, panels, zb in blocks:  # real t, complex z: numpy casts t as it subtracts
            np.subtract(t[panels], zb, out=s[at].reshape(len(zb), -1, _NODES.size))
        y = f(s)
        for at, panels, zb in blocks:
            wf = y[at].reshape(len(zb), -1, _NODES.size)
            np.multiply(wf, weights[panels], out=wf)
        i_hi, i_lo = half * np.add.reduce(y[:, _HI], -1), half * np.add.reduce(y[:, _LO], -1)
        # abs of a complex scalar; np.abs rounds otherwise
        e = np.hypot((d := i_hi - i_lo).real, d.imag)
        split = ~(e <= QUAD_TOL * ((b - a) / w0k[key]))
        if (open_ := split.nonzero()[0]).size:  # the round-off floor, where tol fails
            # each node's term |w f| times the relative round-off of s, eps (t + |z|) / |s|
            tr, zo, eo = t[open_ if depth else g[open_]], zp[open_], e[open_]
            floor = _EPS * half[open_] * np.add.reduce(np.abs(y[open_]) * (
                tr + np.abs(zo)) / np.hypot(tr - zo.real, zo.imag), -1)
            split[open_] = ~(eo <= floor)
            e[open_] = np.maximum(eo, floor)  # a panel the floor accepts charges it
        # depth and breadth caps accept open panels as they stand; their e still counts
        if depth == _MAX_DEPTH:
            split[...] = False
        elif 2 * np.count_nonzero(split) > _MAX_PANELS:  # the points whose next level passes it
            pt = key % nz
            split &= 2 * np.bincount(pt[split], minlength=nz)[pt] <= _MAX_PANELS
        levels.append((key, a, i_hi, e, split))
        if not split.any():
            break
        # each panel's halves side by side, so that panels stay sorted by root
        twice = 2 * split
        key, a, b = key.repeat(twice), a.repeat(twice), b.repeat(twice)
        a[1::2] = b[::2] = mid[split]
        n = key.size
    key, left, v, e, split = map(np.concatenate, zip(*levels))
    # the accepted panels (split False sorts first), right to left per key
    order = np.lexsort((-left, key, split))[:split.size - np.count_nonzero(split)]
    key, v, e = key[order], v[order], e[order]
    # sums per key, in index order, one by one; a (root, point) layout, transposed
    total = lambda w: np.bincount(key, w, lo.size * nz)
    if np.iscomplexobj(v):
        value = np.empty(lo.size * nz, complex)
        value.real, value.imag = total(v.real), total(v.imag)
    else:
        value = total(v)
    # round-off: a few eps of each panel value, sqrt(n) eps of a sum of n
    err = total(e) + _roundoff(total(np.abs(v)), total(None))
    return value.reshape(lo.size, nz).T, err.reshape(lo.size, nz).T


def _b_divergent(sigma: SpectralMeasure) -> bool:
    """Analytic divergence test for the 1/t moment at the origin (an atom there raises)."""
    if any(atom.t == 0.0 for atom in sigma.atoms):
        raise DivergentAtOrigin("atom at t=0 makes the 1/t moment undefined")
    return any(p.lo == 0.0 and (p.values[0] > 0.0 if isinstance(p, TablePiece)
                                else p.exponent <= 0.0) for p in sigma.pieces)


def _table_resolvent(piece: TablePiece, z):
    """Integral of the piece's linear density against 1/(t - z) per z of a 1-D array, and its
    round-off, in closed form: a knot segment [t0, t0 + h] with density d0 + beta (t - t0)
    gives d0 L + beta w (x - L), where w = t0 - z, x = h / w and L = log(1 + x)."""
    t, d = np.asarray(piece.knots), np.asarray(piece.values)
    beta = np.diff(d) / (h := np.diff(t))
    w = t[:-1] - z[:, None]  # (point, segment)
    at0 = w == 0.0  # 1/t on a segment from t = 0, where d0 = 0 (else b = inf): beta h
    x = h / (w1 := np.where(at0, 1.0, w))
    # for |x| < 1/4, x - L = x y - 2 y**3 (1/3 + y**2/5 + ...) with y = x / (2 + x) (L is
    # 2 atanh y) and |y| < 1/7: 8 terms keep eps of it (numpy's complex log1p loses 8 digits
    # near 0).  Past 1/4, L is the log of the ratio (t0 + h - z) / w, which keeps eps of L
    # also where the segment ends next to z
    y = x / (2.0 + x)
    y2 = y * y
    series = x * y - 2.0 * y * y2 * functools.reduce(lambda s, k: 1.0 / k + y2 * s,
                                                     range(17, 1, -2), 0.0)
    small = np.abs(x) < 0.25
    log = np.where(small, x - series, np.log((t[1:] - z[:, None]) / w1))
    rest = w * np.where(small, series, x - log)
    # x out of float range (a subnormal knot next to z): L = log(t0 + h - z) - log(w), and
    # w (x - L) = h - w L
    if not (finite := np.isfinite(x)).all():
        log = np.where(finite, log, np.log(t[1:] - z[:, None]) - np.log(w1))
        rest = np.where(finite, rest, h - w * log)
    terms = np.stack([d[:-1] * log, beta * np.where(at0, h, rest)])
    return terms.sum(axis=0).sum(axis=1), _roundoff(np.abs(terms).sum(axis=0).sum(axis=1), h.size)


def _resolvent(sigma: SpectralMeasure, zr):
    """R at each point of zr (1-D, off (0, +inf), b finite if 0 is one), and its error:
    closed forms, then one quadrature call for the power-law and tail roots at the points
    off 0, whose integrand is the reciprocal of s = t - z in place."""
    inv_t = zr == 0.0  # 1/t: closed forms on power laws and the tail
    any_inv, all_inv = bool(inv_t.any()), bool(inv_t.all())
    parts = [(f"piece {i}", piece) for i, piece in enumerate(sigma.pieces)]
    if (tail := sigma.tail) is not None:  # c t**-s on [T, inf)
        parts.append(("tail", PowerLawPiece(tail.threshold, math.inf, tail.coeff, -tail.exponent)))
    # no -0.0 to lose: every sum starts from 0.0
    value, err, where = np.zeros(zr.size, complex), np.zeros(zr.size), "atoms"
    try:
        with np.errstate(all="ignore"):  # a part out of float range is named below
            sums = []  # (name, quadrature root or None, its factor, closed form, its error)
            if sigma.atoms:
                t, w = np.array([(atom.t, atom.w) for atom in sigma.atoms]).T
                terms = w / (t - zr[:, None])
                sums.append((where, None, 0.0, terms.sum(axis=1),
                             _roundoff(np.abs(terms).sum(axis=1), t.size)))
            lo, hi, charts = [], [], []  # the power-law and tail roots, for one pass
            for where, piece in parts:
                if isinstance(piece, TablePiece):
                    sums.append((where, None, 0.0, *_table_resolvent(piece, zr)))
                    continue
                c, x, t0, t1 = piece.coeff, piece.exponent, piece.lo, piece.hi
                j, pref, inv, size = None, 0.0, 0.0, 0.0
                if any_inv:  # antiderivative and its terms' size; t0 = 0 only with x > 0
                    inv, size = ((c * math.log1p((t1 - t0) / t0),) * 2 if x == 0.0 else
                                 (c * (t1 ** x - t0 ** x) / x, c * (t1 ** x + t0 ** x) / abs(x)))
                if not all_inv:  # c t**x dt = pref u**p du in u = sqrt(t) or sqrt(T/t)
                    if math.isinf(t1):  # t = T/u**2, with the 1/u**2 of dt in the weights
                        pref, p, u0, u1 = 2.0 * c * t0 ** (1.0 + x), -2.0 * x - 1.0, 0.0, 1.0
                        chart = (lambda u, T=t0: (T / (uu := u * u), 1.0 / uu),
                                 lambda r, T=t0: np.sqrt(T / r))
                    else:  # t = u**2
                        pref, p, u0, u1 = 2.0 * c, 2.0 * x + 1.0, math.sqrt(t0), math.sqrt(t1)
                        chart = (lambda u: (u * u, 1.0), np.sqrt)
                    if p and not u0:
                        _jacobi_rule(p)  # built (or out of float range) here, in its part's name
                    j, lo, hi, charts = len(lo), lo + [u0], hi + [u1], charts + [(p, *chart)]
                # the closed form, 0.0 at every point if none is 1/t
                sums.append((where, j, pref, *((inv * inv_t, _roundoff(size, 2) * inv_t)
                                               if any_inv else (0.0, 0.0))))
            if charts and not all_inv:  # one quadrature call, at the points off 0
                roots, errs = adaptive_gauss_legendre(lambda s: np.divide(1.0, s, out=s), lo, hi,
                                                      charts, zr[~inv_t] if any_inv else zr)
                if any_inv:  # a 1/t point adds 0 to its closed form
                    quad, shape = (roots, errs), (zr.size, len(lo))
                    roots, errs = np.zeros(shape, complex), np.zeros(shape)
                    roots[~inv_t], errs[~inv_t] = quad
            for where, j, pref, v, e in sums:
                if j is not None:
                    v, e = v + pref * roots[:, j], e + abs(pref) * errs[:, j]
                value, err = value + v, err + e
                if not np.isfinite(value + err).all():  # err >= 0: NaN and inf show in the sum
                    raise OverflowError
    except (OverflowError, UnrepresentableMeasure) as exc:
        raise UnrepresentableMeasure(
            f"{where}: its integral against 1/(t - z) or its quadrature rule is out of float range"
        ) from exc
    return value, err


def _points(z) -> np.ndarray:
    """z as a complex point (0-d) or 1-D array of points off (0, +inf), each finite."""
    zs = np.asarray(z, dtype=complex)
    if zs.ndim > 1 or not zs.size:
        raise ValidationError(f"resolvent: expected a point or a 1-D array of them, got {z!r}")
    for zj in zs.ravel().tolist():
        if not (math.isfinite(zj.real) and math.isfinite(zj.imag)):
            raise ValidationError(f"resolvent point z={zj} is not finite")
        if zj.imag == 0.0 and zj.real > 0.0:
            raise PoleOnSupport(f"resolvent point z={zj} lies on (0, +inf)")
    return zs


def _resolve(sigma: SpectralMeasure, zr):
    """(R, err) at each point of the 1-D array zr, a divergent b = R(0) as +inf."""
    value, err = np.full(zr.size, math.inf, complex), np.zeros(zr.size)
    at0 = zr == 0.0  # a divergent b is +inf, no point of the quadrature
    todo = ~at0 if at0.any() and _b_divergent(sigma) else slice(None)
    value[todo], err[todo] = _resolvent(sigma, zr[todo])
    return value, err


def _bits(zr) -> list:
    """Each point's bit pattern (-0.0 and 0.0 differ), a dict key."""
    return list(map(tuple, zr.view(np.uint64).reshape(-1, 2).tolist()))


#: The pass of a resolvent_pass block: (measure, point bit pattern -> index, R, err).
_PASS: ContextVar[Optional[tuple]] = ContextVar("slrestore_resolvent_pass", default=None)


@contextlib.contextmanager
def resolvent_pass(sigma: SpectralMeasure, points):
    """Integrate R of sigma at every point on entry, in one pass; within the block (this
    thread or task only), integrate_weighted(sigma, z) on this measure object at points
    all in the set reads that pass, bit for bit the values and errors of its own call, and
    any other call runs as it would outside.  A pass that raises is not kept, so each
    request computes, and fails, on its own.  Nothing is kept after the block."""
    zr = np.asarray(points, dtype=complex).ravel()
    try:
        shared = (sigma, {key: i for i, key in enumerate(_bits(zr))},
                  *_resolve(sigma, _points(zr)))
    except SlrestoreError:
        shared = None
    token = _PASS.set(shared)
    try:
        yield
    finally:
        _PASS.reset(token)


def integrate_weighted(sigma: SpectralMeasure, z):
    """R(z) = integral d(sigma)(t) / (t - z) and its error estimate, at a point z off
    (0, +inf) or at each point of a 1-D array.

    R(0) is the 1/t moment b: +inf with error 0 when it diverges at the origin (an atom
    there raises DivergentAtOrigin).  All points take one quadrature call, each value and
    error the one its point alone gives.  Each part's error adds the round-off of its
    terms (_roundoff).  Inside a resolvent_pass on sigma whose set holds every point, the
    call reads that pass (so run_verify's moments and verify samples are one quadrature
    call) and returns the same bits; only a request the pass cannot serve is validated
    point by point, and fails as it would outside.
    """
    zs, shared = np.asarray(z, dtype=complex), _PASS.get()
    at = [None]  # each point's index in the pass; None: a point it does not serve
    if shared and shared[0] is sigma and zs.ndim < 2 and zs.size:  # the pass's points are valid
        at = [shared[1].get(key) for key in _bits(zs.ravel())]
    value, err = _resolve(sigma, _points(z).ravel()) if None in at else (x[at] for x in shared[2:])
    return (value, err) if zs.ndim else (complex(value[0]), float(err[0]))


def moments(sigma: SpectralMeasure) -> Moments:
    """a = Re R(-1) (1/(1+t)), b = R(0) (1/t) and i2 = Im R(i) (1/(1+t^2)), in one pass."""
    (a, b, i2), errs = (x.tolist() for x in integrate_weighted(sigma, MOMENT_POINTS))
    return Moments(a.real, b.real, i2.imag, *errs)


def classify(sigma: SpectralMeasure, gamma: float) -> ClassTag:
    """Class tag of gamma + integral d(sigma)/(t-z).

    SL0 membership requires infinite total mass (sigma.infinite_mass: a tail with
    exponent <= 1); the b = inf / b < inf split is decided analytically.
    """
    if not sigma.infinite_mass:
        why = "no tail" if sigma.tail is None else f"tail exponent {sigma.tail.exponent} > 1"
        raise NotSL0(f"finite total mass ({why}): the SL0 classes require "
                     "integral d(sigma) = inf, a tail with exponent <= 1")
    kind = "SL0K" if _b_divergent(sigma) else "SL01K"
    return ClassTag(kind=kind, stieltjes=(gamma >= 0.0))


# -- JSON schema -------------------------------------------------------------

def json_number(x) -> float:
    """float(x) for a finite JSON number: the one check of every job number.  A boolean
    or string raises TypeError, NaN or +-inf ValueError, an int past float OverflowError."""
    # a float skips the isinstance checks (numbers.Real is a slow ABC check)
    if type(x) is not float and (isinstance(x, bool) or not isinstance(x, numbers.Real)):
        raise TypeError(f"expected a number, got {x!r}")
    if not math.isfinite(x := float(x)):
        raise ValueError(f"non-finite number {x!r}")
    return x


_MISSING = object()


class JsonField:
    """A JSON value and its path (``measure.pieces[0].hi``); each error names the path."""

    __slots__ = ("value", "path")

    def __init__(self, value, path: str = ""):
        self.value, self.path = value, path

    def expect(self, ok: bool, what: str) -> None:
        """ValidationError "<path>: expected <what>, got <value>" unless ok."""
        if not ok:
            raise ValidationError(f"{self.path}: expected {what}, got {self.value!r}")

    def __getitem__(self, key: str) -> "JsonField":
        return self.get(key, _MISSING)

    def get(self, key: str, default=None) -> "JsonField":
        """Member key of an object, or default if absent or null (null is left out);
        ``field[key]`` requires it, and a required null is for its reader to name."""
        self.expect(isinstance(self.value, dict), "an object")
        value = self.value.get(key, default)
        if value is None and default is not _MISSING:
            value = default
        field = JsonField(value, f"{self.path}.{key}" if self.path else key)
        if field.value is _MISSING:
            raise ValidationError(f"{field.path}: missing")
        return field

    def items(self, n: Optional[int] = None) -> list:
        """The items of a list (of n items, if given)."""
        self.expect(isinstance(self.value, (list, tuple)) and n in (None, len(self.value)),
                     "a list" if n is None else f"a list of {n}")
        return [JsonField(x, f"{self.path}[{i}]") for i, x in enumerate(self.value)]

    def number(self, optional: bool = False) -> Optional[float]:
        """json_number of the value; None for null if optional."""
        if optional and self.value is None:
            return None
        try:
            return json_number(self.value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"{self.path}: {exc}") from exc

    def numbers(self, n: Optional[int] = None) -> tuple:
        """The number at each index of a list (of n items, if given)."""
        if isinstance(self.value, (list, tuple)) and n in (None, len(self.value)):
            try:
                return tuple(map(json_number, self.value))
            except (TypeError, ValueError, OverflowError):  # named below
                pass
        return tuple(x.number() for x in self.items(n))


def measure_from_json(obj) -> SpectralMeasure:
    """Parse the measure JSON schema (see README), a dict or a JsonField, into a
    SpectralMeasure; errors name the field's path (from ``measure`` for a dict)."""
    node = obj if isinstance(obj, JsonField) else JsonField(obj, "measure")
    atoms = tuple(Atom(a["t"].number(), a["w"].number()) for a in node.get("atoms", []).items())
    pieces = []
    for p in node.get("pieces", []).items():
        kind = p.get("kind", "power_law").value
        if kind == "table":
            pieces.append(TablePiece(p["knots"].numbers(), p["values"].numbers()))
        elif kind in ("power_law", "inverse_sqrt"):
            lo, hi, coeff = p["lo"].number(), p["hi"].number(), p["coeff"].number()
            e = -0.5 if kind == "inverse_sqrt" else p["exponent"].number()
            pieces.append(PowerLawPiece(lo, hi, coeff, e))
        else:
            raise ValidationError(f"{p.path}.kind: unknown piece kind {kind!r}")
    t = node.get("tail")
    tail = None if t.value is None else Tail(t["T"].number(), t["coeff"].number(),
                                             t["exponent"].number())
    return SpectralMeasure(atoms=atoms, pieces=tuple(pieces), tail=tail)


def measure_to_json(sigma: SpectralMeasure) -> dict:
    """The measure JSON schema of sigma, as measure_from_json reads it."""
    t = sigma.tail
    return {"atoms": [{"t": a.t, "w": a.w} for a in sigma.atoms],
            "pieces": [{"lo": p.lo, "hi": p.hi, "kind": "power_law", "coeff": p.coeff,
                        "exponent": p.exponent} if isinstance(p, PowerLawPiece) else
                       {"kind": "table", "knots": list(p.knots), "values": list(p.values)}
                       for p in sigma.pieces],
            "tail": t and {"T": t.threshold, "coeff": t.coeff, "exponent": t.exponent}}
