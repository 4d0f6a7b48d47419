import mpmath as mp
import pytest

from greenbound.geometry import Polygon

mp.mp.dps = 40


@pytest.fixture(scope="session")
def unit_square():
    return Polygon([[0, 0], [1, 0], [1, 1], [0, 1]])


@pytest.fixture(scope="session")
def centered_square():
    return Polygon([[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]])


@pytest.fixture(scope="session")
def lshape():
    return Polygon([[-1, -1], [1, -1], [1, 0], [0, 0], [0, 1], [-1, 1]])


def assert_contains(interval, value, msg=""):
    assert interval.lo <= value <= interval.hi, (
        f"{value} not in [{interval.lo}, {interval.hi}] {msg}"
    )


def overlaps(a, b):
    """Whether two intervals share a point, as two enclosures of one value must."""
    return a.lo <= b.hi and b.lo <= a.hi
