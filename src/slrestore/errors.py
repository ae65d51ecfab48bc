"""Exception hierarchy shared by all slrestore modules."""
from __future__ import annotations


class SlrestoreError(Exception):
    """Base class for all library errors."""


class ValidationError(SlrestoreError):
    """Input data violates a documented invariant."""


# measure -----------------------------------------------------------------

class DivergentAtOrigin(ValidationError):
    """The 1/t moment is undefined because the measure has an atom at t = 0."""


class NonIntegrable(ValidationError):
    """The measure fails the integrability requirement against 1/(1+t)."""


class PoleOnSupport(ValidationError):
    """Resolvent kernel requested at a point on [0, +inf)."""


class NotSL0(ValidationError):
    """The measure has finite total mass (no tail with exponent <= 1): outside SL0."""


class UnrepresentableMeasure(ValidationError):
    """A piece, the tail or the atoms take an integral or a rule out of the float range."""


# weyl ---------------------------------------------------------------------

class OdeStepFailure(SlrestoreError):
    """The ODE integrator failed or broke the Wronskian tolerance."""


class NegativeQInf(ValidationError):
    """m_inf(-0) is undefined: q_inf < 0 puts -0 inside the essential spectrum."""


class NodeAtEndpoint(SlrestoreError):
    """The decaying solution (numerically) vanishes at the left endpoint."""


class PropagationTooLong(SlrestoreError):
    """A table propagation exceeds the work cap on (cutoff - a) sqrt(max |q - lambda|)."""


class Unsupported(SlrestoreError):
    """A closed form is only available for a restricted input class."""


# restore ------------------------------------------------------------------

class DegenerateImaginaryPart(ValidationError):
    """Restoration formulas would produce Im h <= 0, or an Im h below the normal float range."""


class MissingXi(ValidationError):
    """The divergent-moment case needs the xi constant, and none was given."""


class ThetaMismatch(ValidationError):
    """The divergent-moment case forces theta = -m, but the input disagrees."""


class RestorationOverflow(ValidationError):
    """The (h, mu) formulas leave the float range for these inputs."""


class OutOfRange(ValidationError):
    """Parameter outside the domain of the requested formula."""


# system -------------------------------------------------------------------

class PoleOfW(SlrestoreError):
    """Transfer function evaluated at (numerically) a pole."""


class PoleOfV(SlrestoreError):
    """Impedance evaluated at (numerically) a pole."""


class Unverifiable(SlrestoreError):
    """V is so large on the samples that its float round-off alone passes VERIFY_TOL."""


class CayleyPole(SlrestoreError):
    """Moebius map evaluated at its pole."""


class SideConditionViolated(ValidationError):
    """The cot-angle formula requires b - gamma > 0."""
