import pytest
from hypothesis import HealthCheck, settings

from moranspectra.mask import eval_mask

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


def float_rows(m) -> list[list[float]]:
    """The rows of a `Mat2` as floats, for numpy references."""
    return [[float(m.a), float(m.b)], [float(m.c), float(m.d)]]


def _partition_of_unity_residual(m, digits, companions, xi) -> float:
    """| sum_{l in L} |m_D((M^*)^{-1}(xi + l))|^2  -  1 |  at a single xi.

    For a Hadamard triple this is zero for every xi (rows of the unitary
    exponential matrix have unit norm); the residual quantifies how far a
    candidate triple is from that identity.
    """
    eta = float_rows(m.transpose().inverse())
    x, y = float(xi[0]), float(xi[1])
    total = 0.0
    for lx, ly in companions:
        px = eta[0][0] * (x + float(lx)) + eta[0][1] * (y + float(ly))
        py = eta[1][0] * (x + float(lx)) + eta[1][1] * (y + float(ly))
        total += abs(eval_mask(digits, (px, py))) ** 2
    return abs(total - 1.0)


@pytest.fixture
def partition_of_unity_residual():
    return _partition_of_unity_residual
