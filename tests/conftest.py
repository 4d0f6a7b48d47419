import mpmath as mp
import pytest

from greenbound.geometry import Polygon
from greenbound.interval import Interval

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


def centred_form(val, centre, slope, s, m):
    """val, an enclosure of g over s, intersected with the centred form
    centre + slope (s - m) from enclosures of g(m) and of g' over s (val
    alone should the two not meet): the mean-value form when slope
    encloses g' over s and m is a point of s.  The Interval reference of
    the 1D kernel's float form (``oned._centred``)."""
    centred = centre + slope * (s - m)
    lo, hi = max(val.lo, centred.lo), min(val.hi, centred.hi)
    return Interval(lo, hi) if lo <= hi else val
