"""Polygons with slanted edges: closed forms and metamorphic invariances.

The boundary extrema bound phi^0 along each edge in its own parameter, so
no edge's bounding box enters; every valid polygon must return an
enclosure.  Exact solutions are rare, so most checks compare enclosures
of transformed problems, which must overlap because each one contains the
same true value.
"""

import math

import mpmath as mp
import numpy as np
import pytest
import sympy

from greenbound.expr import parse
from greenbound.geometry import Polygon
from greenbound.interval import Interval
from greenbound.twod import MfsConfig, enclose_point

from conftest import overlaps


ONE = parse("1")
H = math.sqrt(3) / 2
EQUILATERAL = [[0.0, 0.0], [1.0, 0.0], [0.5, H]]
QUAD = [[0.0, 0.0], [1.2, 0.1], [1.0, 0.9], [0.2, 0.7]]
QUAD_POINT = (0.55, 0.4)
CFG = MfsConfig(n=48)


def enclose(vertices, point):
    res = enclose_point(Polygon(vertices), ONE, point, mfs_cfg=CFG)
    assert res.diagnostics["extrema_converged"]
    return res.bound


def test_equilateral_closed_form_is_exact():
    """-Laplace(d1 d2 d3) = h for the side distances of the unit triangle."""
    x, y = sympy.symbols("x y")
    h = sympy.sqrt(3) / 2
    d1 = y
    d2 = (sympy.sqrt(3) * x - y) / 2
    d3 = (sympy.sqrt(3) * (1 - x) - y) / 2
    u = d1 * d2 * d3
    assert sympy.simplify(-(sympy.diff(u, x, 2) + sympy.diff(u, y, 2)) - h) == 0


def test_equilateral_contains_closed_form():
    px, py = 0.5, 0.3
    bound = enclose(EQUILATERAL, (px, py))
    x, y = mp.mpf(px), mp.mpf(py)
    s3 = mp.sqrt(3)
    d1, d2, d3 = y, (s3 * x - y) / 2, (s3 * (1 - x) - y) / 2
    exact = d1 * d2 * d3 / (s3 / 2)
    assert mp.mpf(bound.lo) <= exact <= mp.mpf(bound.hi)
    assert bound.width() < 1e-4


def _rotate(points, angle):
    c, s = math.cos(angle), math.sin(angle)
    return [[c * px - s * py, s * px + c * py] for px, py in points]


@pytest.fixture(scope="module")
def quad_bound():
    return enclose(QUAD, QUAD_POINT)


@pytest.mark.parametrize("transform", ["rotate30", "translate", "relabel", "reverse"])
def test_rigid_motions_and_relabelling_overlap(quad_bound, transform):
    vertices, point = QUAD, QUAD_POINT
    if transform == "rotate30":
        vertices = _rotate(QUAD, math.pi / 6)
        point = tuple(_rotate([QUAD_POINT], math.pi / 6)[0])
    elif transform == "translate":
        vertices = [[px + 3.25, py - 1.5] for px, py in QUAD]
        point = (QUAD_POINT[0] + 3.25, QUAD_POINT[1] - 1.5)
    elif transform == "relabel":
        vertices = QUAD[2:] + QUAD[:2]
    else:
        vertices = QUAD[::-1]
    assert overlaps(enclose(vertices, point), quad_bound)


def test_scaling_by_L_scales_by_L_squared(quad_bound):
    L = 3.0
    scaled = enclose([[L * px, L * py] for px, py in QUAD],
                     (L * QUAD_POINT[0], L * QUAD_POINT[1]))
    assert overlaps(scaled, quad_bound * Interval.point(L * L))


@pytest.mark.parametrize("vertices, point", [
    ([[0, 0], [1, 0], [0, 1]], (0.2, 0.2)),
    ([[1, 0], [0, 1], [-1, 0], [0, -1]], (0.1, 0.2)),
    ([[math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)] for k in range(6)],
     (0.1, -0.2)),
    ([[0, 0], [2, 0], [1.5, 1], [0.5, 1]], (1.0, 0.4)),
], ids=["right-triangle", "diamond", "hexagon", "trapezoid"])
def test_slanted_polygons_return_enclosures(vertices, point):
    assert_meets_disc_bracket(vertices, point, enclose(vertices, point))


def assert_meets_disc_bracket(vertices, point, bound):
    """For f = 1, discs around the point bracket u by comparison:
    r^2/4 <= u <= rho^2/4, with r the distance to the boundary and rho
    the distance to the farthest vertex."""
    p = np.asarray(point, dtype=float)
    v = np.asarray(vertices, dtype=float)
    r = min(_segment_distance(p, a, b) for a, b in zip(v, np.roll(v, -1, axis=0)))
    rho = max(np.hypot(*(v - p).T))
    assert bound.lo <= rho * rho / 4 * (1 + 1e-12)
    assert bound.hi >= r * r / 4 * (1 - 1e-12)


def _segment_distance(p, a, b):
    t = np.clip(np.dot(p - a, b - a) / np.dot(b - a, b - a), 0.0, 1.0)
    return float(np.hypot(*(a + t * (b - a) - p)))


def test_random_convex_polygons_return_enclosures():
    rng = np.random.default_rng(11)
    for _ in range(2):
        angles = np.sort(rng.uniform(0.0, 2 * math.pi, 7))
        radii = rng.uniform(0.6, 1.4, 7)
        pts = np.column_stack((radii * np.cos(angles), radii * np.sin(angles)))
        hull = _convex_hull(pts)
        centroid = tuple(np.mean(hull, axis=0))
        assert_meets_disc_bracket(hull, centroid, enclose(hull.tolist(), centroid))


def _convex_hull(pts):
    """Andrew's monotone chain, counterclockwise."""
    pts = sorted(map(tuple, pts))

    def half(seq):
        out = []
        for q in seq:
            while len(out) >= 2 and (
                (out[-1][0] - out[-2][0]) * (q[1] - out[-2][1])
                - (out[-1][1] - out[-2][1]) * (q[0] - out[-2][0])
            ) <= 0:
                out.pop()
            out.append(q)
        return out[:-1]

    return np.array(half(pts) + half(pts[::-1]))
