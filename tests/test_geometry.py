import math

import numpy as np
import pytest

from greenbound.errors import GeometryError, PlacementError
from greenbound.geometry import (
    CornerRefine,
    Polygon,
    Triangle,
    amano_sources,
    discretize_boundary,
)


class TestPolygon:
    def test_cw_input_normalized(self):
        p = Polygon([[0, 0], [0, 1], [1, 1], [1, 0]])
        assert p.area() > 0

    def test_rejects_self_intersection(self):
        with pytest.raises(GeometryError):
            Polygon([[0, 0], [1, 1], [1, 0], [0, 1]])

    def test_rejects_degenerate(self):
        with pytest.raises(GeometryError):
            Polygon([[0, 0], [1, 0]])
        with pytest.raises(GeometryError):
            Polygon([[0, 0], [0, 0], [1, 1]])
        with pytest.raises(GeometryError):
            Polygon([[0, 0], [1, 0], [2, 0]])

    def test_locate(self, lshape):
        assert lshape.locate((-0.5, -0.5)) == 1
        assert lshape.locate((0.5, 0.5)) == -1  # removed quadrant
        assert lshape.locate((0.0, 0.5)) == 0  # on the notch edge
        assert lshape.locate((2.0, 0.0)) == -1

    def test_area_diameter(self, lshape, unit_square):
        assert abs(lshape.area() - 3.0) < 1e-12
        assert abs(unit_square.area() - 1.0) < 1e-12
        assert abs(unit_square.diameter() - math.sqrt(2)) < 1e-12


class TestDiscretize:
    def test_square_n4_midpoints(self, unit_square):
        pts = discretize_boundary(unit_square, 4)
        assert pts.shape == (4, 2)
        expected = {(0.5, 0.0), (1.0, 0.5), (0.5, 1.0), (0.0, 0.5)}
        got = {(round(x, 12), round(y, 12)) for x, y in pts}
        assert got == expected

    def test_all_points_on_boundary(self, lshape):
        pts = discretize_boundary(lshape, 69)
        assert pts.shape == (69, 2)
        for p in pts:
            assert lshape.locate(p) == 0

    def test_corner_refinement_grading(self, lshape):
        refine = CornerRefine(corner=(0.0, 0.0))
        pts = discretize_boundary(lshape, 69, refine)
        assert pts.shape == (69, 2)
        d = np.linalg.norm(pts, axis=1)
        near = np.sort(d)[:4]
        spacing_near = np.diff(np.sort(d)[:6]).max()
        # compare nearest spacings against the coarse uniform spacing 6/69
        assert near[0] < 0.02 * lshape.diameter()
        assert spacing_near < 6.0 / 69

    def test_rejects_tiny_n(self, unit_square):
        with pytest.raises(GeometryError):
            discretize_boundary(unit_square, 2)


class TestAmano:
    def test_straight_edge_perpendicular_offset(self, unit_square):
        # collinear neighbors on the bottom edge; r = 1 makes the offset
        # exactly half the neighbor chord, rotated outward (-y here)
        n = 8
        pts = discretize_boundary(unit_square, n)
        R = 1.0 + math.sin(2 * math.pi / n)
        src = amano_sources(unit_square, pts, lambda p: R)
        k = 0  # first bottom-edge point with collinear neighbors
        chord = pts[(k + 1) % n] - pts[(k - 1) % n]
        if abs(chord[1]) < 1e-14:  # truly collinear neighbors
            off = src[k] - pts[k]
            assert abs(off[0]) < 1e-12
            assert abs(abs(off[1]) - 0.5 * abs(chord[0])) < 1e-12
            assert off[1] < 0  # outward of the bottom edge

    def test_all_exterior_square(self, centered_square):
        pts = discretize_boundary(centered_square, 69)
        src = amano_sources(centered_square, pts, lambda p: 1.2)
        assert src.shape == (69, 2)
        for s in src:
            assert centered_square.locate(s) == -1

    def test_lshape_rule(self, lshape):
        pts = discretize_boundary(lshape, 69, CornerRefine(corner=(0.0, 0.0)))

        def rule(p):
            return 1.05 if (0 <= p[0] <= 0.1 and 0 <= p[1] <= 0.1) else 1.2

        src = amano_sources(lshape, pts, rule)
        for s in src:
            assert lshape.locate(s) == -1

    def test_rejects_bad_R(self, unit_square):
        pts = discretize_boundary(unit_square, 8)
        with pytest.raises(PlacementError):
            amano_sources(unit_square, pts, lambda p: 0.9)

    def test_interior_landing_detected(self):
        # C-shaped domain: a large offset from the notch-facing edge of one
        # arm crosses the notch and lands inside the other arm
        c_shape = Polygon(
            [[0, 0], [3, 0], [3, 1], [1, 1], [1, 2], [3, 2], [3, 3], [0, 3]]
        )
        pts = discretize_boundary(c_shape, 24)
        with pytest.raises(PlacementError):
            amano_sources(c_shape, pts, lambda p: 1.0 + 1.5 * math.sin(2 * math.pi / 24))


class TestTriangulate:
    def test_triangle_validation(self):
        with pytest.raises(GeometryError):
            Triangle(np.array([[0, 0], [1, 0], [2, 0]]))
        with pytest.raises(GeometryError):
            Triangle(np.array([[0, 0], [0, 1], [1, 0]]))  # negatively oriented
        with pytest.raises(GeometryError):
            Triangle(np.array([[0, 0], [1, 0], [0, 1]]), singular_vertex=5)
