"""Evaluation of V(z) = gamma + integral d(sigma)/(t - z) and checks passing to -CHECK_TOL."""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ValidationError
# moments: no caller here, a binding the benchmark's tracer patches (perfbench/tracer.py)
from .measure import SpectralMeasure, integrate_weighted, moments  # noqa: F401

__all__ = [
    "StieltjesLikeFunction",
    "CheckReport",
    "eval_V",
    "check_herglotz",
    "check_stieltjes",
    "asymptotics",
    "log_polar_grid",
]


@dataclass(frozen=True)
class StieltjesLikeFunction:
    """A spectral measure plus a real free term of arbitrary sign."""

    sigma: SpectralMeasure
    gamma: float


@dataclass(frozen=True)
class CheckReport:
    passed: bool
    min_value: float
    argmin: complex


#: Most negative value a sampled Herglotz or Stieltjes check lets pass.
CHECK_TOL = 1e-10


def log_polar_grid(n_radius: int = 7, n_angle: int = 7) -> list:
    """Default evaluation grid: radii log-spaced on [1e-3, 1e3], angles strictly inside (0, pi)."""
    radii = np.logspace(-3.0, 3.0, n_radius)
    angles = np.linspace(math.pi / (n_angle + 1),
                         math.pi * n_angle / (n_angle + 1), n_angle)
    return [complex(r * math.cos(t), r * math.sin(t)) for r in radii for t in angles]


def eval_V(f: StieltjesLikeFunction, z):
    """V(z) = gamma + R(z) at a point off (0, +inf), or at each point of a 1-D array.

    An array takes one quadrature call (integrate_weighted) and returns a complex array
    whose entries equal the scalar calls bit for bit.  V(0) is
    V(0-) = gamma + b, +inf when b diverges.
    """
    value, _ = integrate_weighted(f.sigma, z)
    return f.gamma + value


def _sampled_min(f: StieltjesLikeFunction, grid, value) -> CheckReport:
    """Smallest value(z, V(z)) over a grid in the upper half-plane."""
    grid = [complex(z) for z in (log_polar_grid() if grid is None else grid)]
    if not grid:
        raise ValidationError("empty grid: nothing to check")
    for z in grid:
        if not z.imag > 0:
            raise ValidationError(f"grid point {z} not in the upper half-plane")
    worst = math.inf
    argmin = complex(0, 1)
    for z, v in zip(grid, eval_V(f, grid).tolist()):
        v = value(z, v)
        if v < worst:
            worst, argmin = v, z
    return CheckReport(passed=(worst >= -CHECK_TOL), min_value=worst, argmin=argmin)


def check_herglotz(f: StieltjesLikeFunction,
                   grid: Optional[Sequence[complex]] = None) -> CheckReport:
    """Sampled positivity check: min Im V over a grid in the upper half-plane."""
    return _sampled_min(f, grid, lambda z, v: v.imag)


def check_stieltjes(f: StieltjesLikeFunction,
                    grid: Optional[Sequence[complex]] = None) -> CheckReport:
    """Sampled check of Im[z V(z)] / Im z >= 0 over a grid in the upper half-plane."""
    return _sampled_min(f, grid, lambda z, v: (z * v).imag / z.imag)


def asymptotics(f: StieltjesLikeFunction):
    """(V(-inf), V(0-)) = (gamma, gamma + b), b = R(0); the second may be +inf."""
    b, _ = integrate_weighted(f.sigma, 0.0)
    return f.gamma, f.gamma + b.real
