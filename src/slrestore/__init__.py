"""Restoration of boundary parameters for Stieltjes-like functions.

Given V(z) = gamma + integral d(sigma)/(t - z) specified by a spectral
measure and a real free term, this package classifies V, decides
accretivity/sectoriality of the restorable half-line Schroedinger operator,
restores the boundary parameter h and extension parameter mu of the
realizing system, and verifies the restoration through the forward
transfer/impedance model built on a numerically computed Weyl-Titchmarsh
function.
"""
from __future__ import annotations

from . import errors
from .measure import (
    Atom,
    ClassTag,
    Moments,
    PowerLawPiece,
    SpectralMeasure,
    TablePiece,
    Tail,
    classify,
    integrate_weighted,
    measure_from_json,
    measure_to_json,
    moments,
)
from .pipeline import PipelineResult, run_restore, run_verify
from .restore import (
    Accretivity,
    Circle,
    Hyperbola,
    RestoredSystem,
    Sectoriality,
    accretivity,
    gamma_admissible,
    h_locus,
    max_sectoriality,
    mu_locus,
    quasi_kernel_eta,
    restore_h,
    restore_mu,
    restore_system,
    sectoriality_angle,
    sweep,
)
from .stieltjes import (
    CheckReport,
    StieltjesLikeFunction,
    asymptotics,
    check_herglotz,
    check_stieltjes,
    eval_V,
    log_polar_grid,
)
from .system import (
    SystemParams,
    VerifyReport,
    cayley_V_from_W,
    cayley_W_from_V,
    impedance_V,
    transfer_W,
    verify_realization,
    vh_functional,
    weyl_m_fn,
)
from .weyl import (
    HalfLinePotential,
    OperatorData,
    WeylEvaluator,
    boundary_trace_constant,
    solve_cauchy,
    weyl_m,
    weyl_m_at_minus_zero,
)

__version__ = "0.1.0"
