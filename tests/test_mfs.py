import math
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest

from greenbound import twod
from greenbound.errors import DomainError
from greenbound.expr import parse
from greenbound.fundsol import TestFunction2D
from greenbound.geometry import discretize_boundary, amano_sources
from greenbound.interval import Interval, subdivide_min_max
from greenbound.geometry import Polygon
from greenbound.mfs import EdgeKernel, boundary_extrema, solve_coefficients

from conftest import assert_contains


def square_setup(centered_square, n=33, R=1.2):
    pts = discretize_boundary(centered_square, n)
    src = amano_sources(centered_square, pts, lambda p: R)
    return pts, src


def solve(poly, pts, src, s_int, tol=1e-9):
    """The candidate phi^0 for s_int with its boundary extrema m and M."""
    coeffs, _, _ = solve_coefficients(pts, src, s_int)
    tf0 = TestFunction2D(s_int, src, coeffs)
    res = boundary_extrema(tf0, poly, tol=tol)
    return SimpleNamespace(tf0=tf0, m=res.m, M=res.M)


class TestSolve:
    def test_one_by_one(self, centered_square):
        x1 = np.array([[0.5, 0.0]])
        s1 = np.array([[1.7, 0.0]])
        a, residual, _ = solve_coefficients(x1, s1, (0.0, 0.0))
        g = lambda s, x: (-1 / (4 * math.pi)) * math.log(
            (x[0] - s[0]) ** 2 + (x[1] - s[1]) ** 2
        )
        want = -g((0.0, 0.0), x1[0]) / g(s1[0], x1[0])
        assert abs(a[0] - want) < 1e-14
        assert residual < 1e-15

    def test_residual_small_n69(self, centered_square):
        pts, src = square_setup(centered_square, n=69)
        _, residual, cond = solve_coefficients(pts, src, (0.0, 0.0))
        assert residual <= 1e-8
        assert math.isfinite(cond)

    def test_joint_permutation_invariance(self, centered_square):
        pts, src = square_setup(centered_square, n=17)
        a, _, _ = solve_coefficients(pts, src, (0.1, 0.2))
        perm = np.random.default_rng(0).permutation(17)
        a2, _, _ = solve_coefficients(pts[perm], src[perm], (0.1, 0.2))
        assert np.allclose(a2, a[perm], rtol=1e-6, atol=1e-9)


class TestBoundaryExtrema:
    def test_pure_kernel_known_extrema(self, centered_square):
        """phi0 = Gamma(center, .) on the centered square boundary: the max
        sits at edge midpoints (r = 1/2), the min at corners (r = sqrt2/2)."""
        tf0 = TestFunction2D(
            (0.0, 0.0), np.zeros((0, 2)), np.zeros(0)
        )
        res = boundary_extrema(tf0, centered_square, tol=1e-10)
        m, M, converged = res.m, res.M, res.converged
        want_max = float(-mp.log(0.5) / (2 * mp.pi))
        want_min = float(-mp.log(mp.sqrt(2) / 2) / (2 * mp.pi))
        assert converged
        assert_contains(M, want_max)
        assert_contains(m, want_min)
        assert M.width() < 1e-9 and m.width() < 1e-9

    def test_sampled_sandwich(self, centered_square):
        pts, src = square_setup(centered_square, n=33)
        sol = solve(centered_square, pts, src, (0.0, 0.0), tol=1e-8)
        rng = np.random.default_rng(5)
        edges = centered_square.edges()
        for _ in range(1000):
            a, b = edges[rng.integers(0, len(edges))]
            t = rng.random()
            p = a + t * (b - a)
            val = sol.tf0.phi0_points(np.array([p]))[0]
            assert sol.m.lo - 1e-12 <= val <= sol.M.hi + 1e-12

    def test_evaluation_budget(self, centered_square):
        """A search stopped by its budget is unconverged and its m, M
        enclose those of the unlimited search."""
        pts, src = square_setup(centered_square, n=33)
        tf0 = solve(centered_square, pts, src, (0.1, -0.2), tol=1e-9).tf0
        full = boundary_extrema(tf0, centered_square)
        kernel = EdgeKernel(tf0, centered_square)
        capped = subdivide_min_max(kernel, kernel.roots, tol=1e-9, max_depth=48,
                                   max_evals=300)
        assert full.converged and not capped.converged
        assert 300 <= capped.evaluations < full.evaluations
        assert capped.m.encloses(full.m) and capped.M.encloses(full.M)

    def test_square_extrema_gap_small(self, centered_square):
        pts, src = square_setup(centered_square, n=69)
        sol = solve(centered_square, pts, src, (0.0, 0.0), tol=1e-9)
        assert sol.M.hi - sol.m.lo <= 1e-3


class TestEnclosurePair:
    def test_shift_sign_logic(self, centered_square, monkeypatch):
        """The pairing gets phi^0 - m.lo (upper) and phi^0 - M.hi (lower);
        a nonnegative source adds no f_minus term."""
        seen = []

        def spy(f, tf0, poly, cfg, offsets, source_terms):
            seen.append(offsets)
            return real(f, tf0, poly, cfg, offsets, source_terms)

        real = twod.pair_f_phi
        monkeypatch.setattr(twod, "pair_f_phi", spy)
        res = twod.enclose_point(centered_square, parse("1"), (0.0, 0.0),
                                 mfs_cfg=twod.MfsConfig(n=17))
        m, M = res.diagnostics["m"], res.diagnostics["M"]
        zero = Interval(0.0, 0.0)
        assert seen == [((-m[0], zero), (-M[1], zero))]

    def test_boundary_signs_sampled(self, centered_square):
        pts, src = square_setup(centered_square, n=33)
        sol = solve(centered_square, pts, src, (0.2, -0.1), tol=1e-9)
        rng = np.random.default_rng(6)
        edges = centered_square.edges()
        for _ in range(1000):
            a, b = edges[rng.integers(0, len(edges))]
            t = rng.random()
            p = a + t * (b - a)
            phi0 = sol.tf0.phi0_box(Interval.point(p[0]), Interval.point(p[1]))
            up = phi0 - sol.m.lo
            lo = phi0 - sol.M.hi
            assert up.hi >= 0.0 and up.lo >= -1e-10
            assert lo.lo <= 0.0 and lo.hi <= 1e-10

    def test_edgewise_interval_sign_guarantee(self, centered_square):
        pts, src = square_setup(centered_square, n=33)
        sol = solve(centered_square, pts, src, (0.0, 0.0), tol=1e-9)
        slack_up = sol.m.width()
        slack_lo = sol.M.width()
        for a, b in centered_square.edges():
            bx = Interval(min(a[0], b[0]), max(a[0], b[0]))
            by = Interval(min(a[1], b[1]), max(a[1], b[1]))
            phi0 = sol.tf0.phi0_box(bx, by)
            assert (phi0 - sol.m.lo).hi >= -slack_up
            assert (phi0 - sol.M.hi).lo <= slack_lo

    def test_sharper_tolerance_never_widens(self, centered_square):
        pts, src = square_setup(centered_square, n=33)
        coarse = solve(centered_square, pts, src, (0.0, 0.0), tol=1e-5)
        fine = solve(centered_square, pts, src, (0.0, 0.0), tol=1e-9)
        span_coarse = coarse.M.hi - coarse.m.lo
        span_fine = fine.M.hi - fine.m.lo
        assert span_fine <= span_coarse + 1e-15


def _edge_boxes(poly, rng, n):
    """n random t-boxes (a quarter of them points) on random edges."""
    e = rng.integers(0, len(poly.vertices), n)
    t = rng.random(n)
    w = np.where(rng.random(n) < 0.25, 0.0, 10.0 ** rng.integers(-12, 0, n))
    return e, np.maximum(0.0, t - w), np.minimum(1.0, t + w)


def _edge_point_boxes(poly, e, lo, hi):
    """The box a + v T of each t-box, in scalar interval arithmetic."""
    for k in range(len(e)):
        a, b = poly.edges()[e[k]]
        ax, ay = Interval.point(a[0]), Interval.point(a[1])
        vx, vy = Interval.point(b[0]) - ax, Interval.point(b[1]) - ay
        t = Interval(lo[k], hi[k])
        yield ax + vx * t, ay + vy * t, vx, vy


class TestEdgeKernel:
    def test_axis_aligned_overlaps_and_no_wider_than_box_forms(self, centered_square):
        pts, src = square_setup(centered_square, n=33)
        tf0 = solve(centered_square, pts, src, (0.1, -0.2)).tf0
        kernel = EdgeKernel(tf0, centered_square)
        e, lo, hi = _edge_boxes(centered_square, np.random.default_rng(3), 200)
        glo, ghi, dlo, dhi = kernel(e, lo, hi, True)
        for k, (bx, by, vx, vy) in enumerate(_edge_point_boxes(centered_square, e, lo, hi)):
            val, der = tf0.phi0_box(bx, by), tf0.phi0_dir_deriv(bx, by, vx, vy)
            new_val, new_der = Interval(glo[k], ghi[k]), Interval(dlo[k], dhi[k])
            assert new_val.intersects(val) and new_der.intersects(der)
            assert new_val.width() <= val.width() + 4 * np.spacing(val.mag())
            assert new_der.width() <= der.width() + 4 * np.spacing(der.mag())

    def test_slanted_edges_contain_mpmath_values(self):
        hexagon = Polygon([[math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)]
                           for k in range(6)])
        pts = discretize_boundary(hexagon, 24)
        src = amano_sources(hexagon, pts, lambda p: 1.2)
        tf0 = solve(hexagon, pts, src, (0.2, -0.1)).tf0
        kernel = EdgeKernel(tf0, hexagon)
        rng = np.random.default_rng(4)
        e = rng.integers(0, 6, 200)
        t = rng.random(200)
        box_lo, box_hi = np.maximum(0.0, t - 1e-3), np.minimum(1.0, t + 1e-3)
        kernels = [(1.0, tf0.s_int)] + list(zip(tf0.coeffs, tf0.sources))
        for lo, hi in ((t, t), (box_lo, box_hi)):
            glo, ghi, dlo, dhi = kernel(e, lo, hi, True)
            for k in range(200):
                a, b = (np.asarray(p, dtype=float) for p in hexagon.edges()[e[k]])
                vx, vy = mp.mpf(b[0]) - mp.mpf(a[0]), mp.mpf(b[1]) - mp.mpf(a[1])
                x = mp.mpf(a[0]) + vx * mp.mpf(t[k])
                y = mp.mpf(a[1]) + vy * mp.mpf(t[k])
                val = der = mp.mpf(0)
                for w, (sx, sy) in kernels:
                    dx, dy = x - mp.mpf(sx), y - mp.mpf(sy)
                    d2 = dx * dx + dy * dy
                    val += mp.mpf(w) * mp.log(d2) / (-4 * mp.pi)
                    der += mp.mpf(w) * (dx * vx + dy * vy) / d2 / (-2 * mp.pi)
                assert mp.mpf(glo[k]) <= val <= mp.mpf(ghi[k])
                assert mp.mpf(dlo[k]) <= der <= mp.mpf(dhi[k])

    def test_source_on_an_edge_is_a_domain_error(self, centered_square):
        tf0 = TestFunction2D((0.0, 0.0), np.array([[0.5, 0.1]]), np.array([0.3]))
        kernel = EdgeKernel(tf0, centered_square)
        e = np.arange(4)
        with pytest.raises(DomainError):
            kernel(e, np.zeros(4), np.ones(4), True)

    def test_exact_geometry_is_rounded_outward_once(self):
        from fractions import Fraction

        from greenbound.interval import rational
        from greenbound.mfs import _scaled_ints

        ints, k = _scaled_ints([0.1, -3.0, 2.0**-60, 0.0])
        assert [Fraction(n, 2**k) for n in ints] == [
            Fraction(0.1), Fraction(-3), Fraction(2.0**-60), 0]
        assert rational(1, 4) == (0.25, 0.25)
        for p, q in ((1, 3), (-2, 7), (10**40 + 1, 3**80)):
            lo, hi = rational(p, q)
            assert Fraction(lo) < Fraction(p, q) < Fraction(hi)
            assert hi == np.nextafter(lo, np.inf)

    def test_chunked_evaluation_is_bit_identical(self, centered_square):
        pts, src = square_setup(centered_square, n=33)
        tf0 = solve(centered_square, pts, src, (0.0, 0.0)).tf0
        e, lo, hi = _edge_boxes(centered_square, np.random.default_rng(5), 300)
        whole = EdgeKernel(tf0, centered_square)
        whole.chunk = 300
        chunked = EdgeKernel(tf0, centered_square)
        assert chunked.chunk < 300
        for x, y in zip(whole(e, lo, hi, True), chunked(e, lo, hi, True)):
            assert np.array_equal(x, y)
