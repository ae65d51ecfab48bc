import math

import pytest

from slrestore.measure import PowerLawPiece, SpectralMeasure, Tail
from slrestore.weyl import HalfLinePotential, WeylEvaluator

PI = math.pi


@pytest.fixture(scope="session")
def paper_measure():
    """Density 1/(pi sqrt t) on (0, inf): piece on [0, 1] plus matching tail."""
    return SpectralMeasure(
        pieces=(PowerLawPiece(0.0, 1.0, 1.0 / PI, -0.5),),
        tail=Tail(threshold=1.0, coeff=1.0 / PI, exponent=0.5),
    )


@pytest.fixture(scope="session")
def b2_oracle_measure():
    """d(sigma)/dt = 3 t^(-3/2) on [1, inf): b = 2 by the antiderivative oracle."""
    return SpectralMeasure(tail=Tail(threshold=1.0, coeff=3.0, exponent=1.5))


@pytest.fixture(scope="session")
def b2_sl01k_measure():
    """d(sigma)/dt = 2/t on [1, inf): infinite mass, b = 2, class SL01K."""
    return SpectralMeasure(tail=Tail(threshold=1.0, coeff=2.0, exponent=1.0))


@pytest.fixture(scope="session")
def zero_potential():
    return HalfLinePotential()


@pytest.fixture(scope="session")
def zero_evaluator(zero_potential):
    return WeylEvaluator(potential=zero_potential)
