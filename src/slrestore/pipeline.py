"""End-to-end glue: measure + boundary data -> restored system -> verification.

One potential gives m_inf(-0) and c to the restoration and m_inf to its check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import ValidationError
from .measure import ClassTag, Moments, SpectralMeasure, classify, moments
from .restore import RestoredSystem, restore_system
from .stieltjes import StieltjesLikeFunction, log_polar_grid
from .system import SystemParams, VerifyReport, verify_realization, weyl_m_fn
from .weyl import (
    HalfLinePotential,
    OperatorData,
    WeylEvaluator,
    boundary_trace_constant,
    weyl_m_at_minus_zero,
)

__all__ = ["PipelineResult", "resolve_operator_data", "restoration_data", "run_restore",
           "run_verify"]


@dataclass(frozen=True)
class PipelineResult:
    restored: RestoredSystem
    moments: Moments
    operator: OperatorData
    class_tag: ClassTag


def resolve_operator_data(mom: Moments,
                          operator: Optional[OperatorData] = None,
                          potential: Optional[HalfLinePotential] = None) -> OperatorData:
    """Fill in (theta, m, c, xi) from explicit data and/or a potential.

    For b = inf, theta is forced to -m and xi = i2/c; c comes from the
    explicit data or, for q = 0, from the closed form.  For finite b, theta
    must be supplied explicitly (it is not derivable from the potential).
    Both are settled before m = m_inf(-0) is derived, so a potential yields m
    only for q = 0, where it is a closed form.
    """
    if operator is None and potential is None:
        raise ValidationError("operator data or a potential is required")
    b_infinite = math.isinf(mom.b)
    if operator is None and not b_infinite:
        raise ValidationError("finite 1/t moment: theta must be given explicitly")
    theta, m, c, xi = (None,) * 4 if operator is None else (
        operator.theta, operator.m, operator.c, operator.xi)
    if b_infinite and xi is None and c is None:
        if potential is None:
            raise ValidationError("b = inf needs xi or c (or a q = 0 potential)")
        c = boundary_trace_constant(potential)
    if m is None:
        m = float(weyl_m_at_minus_zero(WeylEvaluator(potential=potential)))
    if b_infinite:
        theta = -m
        xi = mom.i2 / c if xi is None else xi
    return OperatorData(theta=theta, m=m, c=c, xi=xi)


def restoration_data(sigma: SpectralMeasure, gamma: float,
                     operator: Optional[OperatorData] = None,
                     potential: Optional[HalfLinePotential] = None):
    """(class tag, moments, operator data) behind every restoration from sigma: the
    measure is classified first, so a measure outside SL0 raises NotSL0."""
    class_tag = classify(sigma, gamma)
    mom = moments(sigma)
    return class_tag, mom, resolve_operator_data(mom, operator, potential)


def run_restore(sigma: SpectralMeasure, gamma: float,
                operator: Optional[OperatorData] = None,
                potential: Optional[HalfLinePotential] = None) -> PipelineResult:
    """Classify the input function and restore (h, mu) with its sectoriality."""
    class_tag, mom, od = restoration_data(sigma, gamma, operator, potential)
    restored = restore_system(mom.b, gamma, od.theta, od.m, od.xi)
    return PipelineResult(restored, mom, od, class_tag)


def run_verify(sigma: SpectralMeasure, gamma: float,
               potential: HalfLinePotential,
               operator: Optional[OperatorData] = None) -> VerifyReport:
    """Restore from the measure, then check the forward model against V.

    The forward model's m_inf is the potential's (a table's at ODE_TOL); the
    samples are the 5 x 4 log-polar grid, and the report passes up to VERIFY_TOL.
    """
    result = run_restore(sigma, gamma, operator, potential)
    params = SystemParams(h=result.restored.h, mu=result.restored.mu,
                          m_fn=weyl_m_fn(WeylEvaluator(potential=potential)),
                          theta_expected=result.operator.theta)
    f = StieltjesLikeFunction(sigma=sigma, gamma=gamma)
    return verify_realization(f, params, log_polar_grid(n_radius=5, n_angle=4))
