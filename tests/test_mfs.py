import math
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest

from greenbound import mfs, twod
from greenbound.errors import DomainError
from greenbound.expr import parse
from greenbound.fundsol import TestFunction2D
from greenbound.geometry import discretize_boundary, amano_sources
from greenbound.interval import Interval, _midpoints, subdivide_min_max
from greenbound.geometry import Polygon
from greenbound.mfs import EdgeKernel, boundary_extrema, solve_coefficients

from conftest import assert_contains, overlaps


def square_setup(centered_square, n=33, R=1.2):
    pts = discretize_boundary(centered_square, n)
    src = amano_sources(centered_square, pts, lambda p: R)
    return pts, src


def solve(poly, pts, src, s_int, tol=1e-9):
    """The candidate phi^0 for s_int with its boundary extrema m and M."""
    coeffs, _, _ = solve_coefficients(pts, src, s_int)
    tf0 = TestFunction2D(s_int, src, coeffs)
    (res,) = boundary_extrema([tf0], poly, tol=tol)
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
        (res,) = boundary_extrema([tf0], centered_square, tol=1e-10)
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
        (full,) = boundary_extrema([tf0], centered_square, tol=1e-9)
        kernel = EdgeKernel([tf0], centered_square)
        capped = subdivide_min_max(kernel, kernel.roots, tol=1e-9, max_depth=48,
                                   max_evals=100)
        assert full.converged and not capped.converged
        assert 100 <= capped.evaluations < full.evaluations
        assert capped.m.encloses(full.m) and capped.M.encloses(full.M)

    @pytest.mark.parametrize("name, want, parent_evals", [
        ("square", (-5.982882378615676e-05, -5.982882378575324e-05,
                    1.105492972044652e-05, 1.1054929831056723e-05), 656),
        ("lshape", (-0.0005529813033274494, -0.0005529812961921958,
                    0.0018599701342633728, 0.0018599701342749944), 434),
    ])
    def test_extrema_and_cost_pinned(self, name, want, parent_evals, centered_square,
                                     lshape):
        """m and M at the default tol, the square at (0, 0) with n = 69 and
        the L-shape with ``corner``, pinned since iv_dot keeps products by
        the weight 1 exact; each lies inside the m or M of the search that
        still put its own mean-value form and midpoint witnesses on every
        box, which took parent_evals evaluations, and this one takes at
        most 55% of them."""
        if name == "square":
            pts, src = square_setup(centered_square, n=69)
            poly, tf0 = centered_square, solve(centered_square, pts, src, (0.0, 0.0)).tf0
        else:
            poly, tf0 = _candidate("lshape", lshape)
        (res,) = boundary_extrema([tf0], poly, tol=twod.MfsConfig().tol)
        assert res.converged
        assert (res.m.lo, res.m.hi, res.M.lo, res.M.hi) == want
        assert res.evaluations <= 0.55 * parent_evals

    def test_square_extrema_gap_small(self, centered_square):
        pts, src = square_setup(centered_square, n=69)
        sol = solve(centered_square, pts, src, (0.0, 0.0), tol=1e-9)
        assert sol.M.hi - sol.m.lo <= 1e-3


TRIANGLE = Polygon([[-0.6, -0.4], [0.7, -0.2], [0.1, 0.8]])  # no edge axis-aligned


def _plan_candidates(poly, points, n, corner=None):
    """The MFS candidates of several points that share one plan's sources."""
    cfg = twod.MfsConfig(n=n, corner=corner)
    refine = None if corner is None else twod.CornerRefine(corner=corner)
    pts = discretize_boundary(poly, n, refine)
    src = amano_sources(poly, pts, cfg.r_rule())
    return [TestFunction2D(p, src, solve_coefficients(pts, src, p)[0]) for p in points]


class TestSearchesTogether:
    @pytest.mark.parametrize("domain, points, n, corner", [
        ("centered_square", [(0.0, 0.0), (0.25, 0.25), (-0.2, 0.1), (0.0, 0.0)], 69, None),
        ("lshape", [(-0.5, -0.5), (0.5, -0.5), (-0.5, 0.5)], 69, (0.0, 0.0)),
        ("triangle", [(0.05, 0.0), (-0.3, -0.25), (0.1, 0.5)], 33, None),
    ])
    def test_each_candidate_equals_its_search_alone(self, request, domain, points, n,
                                                    corner):
        """Every field of each BoundaryExtrema (m, M, converged, evaluations,
        depth and both box counts) equals that of the candidate's solo
        search, bit for bit, and each level of every search is one kernel
        call."""
        poly = TRIANGLE if domain == "triangle" else request.getfixturevalue(domain)
        tfs = _plan_candidates(poly, points, n, corner)
        tol = twod.MfsConfig().tol
        together = boundary_extrema(tfs, poly, tol=tol)
        for tf0, got in zip(tfs, together):
            (want,) = boundary_extrema([tf0], poly, tol=tol)
            assert want.converged and want.expanded_boxes > 0
            assert repr(got) == repr(want) and got == want

    def test_kernel_calls_follow_the_longest_search(self, centered_square, monkeypatch):
        tfs = _plan_candidates(centered_square, [(0.0, 0.0), (0.25, 0.25)], 33)
        calls = []
        call = EdgeKernel.__call__
        monkeypatch.setattr(EdgeKernel, "__call__",
                            lambda self, *a: calls.append(len(a[0])) or call(self, *a))
        boundary_extrema(tfs, centered_square, tol=1e-9)
        together = len(calls)
        alone = []
        for tf0 in tfs:
            calls.clear()
            boundary_extrema([tf0], centered_square, tol=1e-9)
            alone.append(len(calls))
        assert together == max(alone) < sum(alone)

    def test_one_kernel_call_per_level(self, centered_square, monkeypatch):
        """Three points of a square plan: the first call holds every root end
        as a point and the root boxes, and each later level is one call of
        boxes alone."""
        tfs = _plan_candidates(centered_square, [(0.0, 0.0), (0.25, 0.25), (-0.2, 0.1)], 69)
        points = []
        call = EdgeKernel.__call__
        monkeypatch.setattr(EdgeKernel, "__call__", lambda self, root, lo, hi: points.append(
            int(np.sum(lo == hi))) or call(self, root, lo, hi))
        got = boundary_extrema(tfs, centered_square, tol=twod.MfsConfig().tol)
        assert len(points) == 1 + max(res.depth for res in got)
        assert points[0] == 3 * 2 * len(centered_square.vertices) and not any(points[1:])

    def test_a_failing_search_leaves_the_others_alone(self, centered_square):
        """A candidate whose kernel point lies on an edge gets the DomainError
        its search raises alone; the others keep their solo results."""
        good = _plan_candidates(centered_square, [(0.0, 0.0), (0.1, -0.2)], 33)
        bad = TestFunction2D((0.5, 0.1), good[0].sources, good[0].coeffs)
        got = boundary_extrema([good[0], bad, good[1]], centered_square, tol=1e-9)
        assert isinstance(got[1], DomainError)
        with pytest.raises(DomainError, match="passes through a kernel point"):
            EdgeKernel([bad], centered_square)(np.arange(4), np.zeros(4), np.ones(4))
        for tf0, res in zip(good, (got[0], got[2])):
            assert repr(res) == repr(boundary_extrema([tf0], centered_square, tol=1e-9)[0])

    def test_candidates_must_share_their_sources(self, centered_square):
        a, b = _plan_candidates(centered_square, [(0.0, 0.0)], 17) + \
            _plan_candidates(centered_square, [(0.0, 0.0)], 21)
        with pytest.raises(DomainError, match="share their sources"):
            EdgeKernel([a, b], centered_square)
        assert boundary_extrema([], centered_square, tol=1e-9) == []


class TestEnclosurePair:
    def test_shift_sign_logic(self, centered_square, monkeypatch):
        """The pairing gets phi^0 - m.lo (upper) and phi^0 - M.hi (lower);
        a nonnegative source adds no f_minus term."""
        seen = []

        def spy(f, tf0, poly, cfg, offsets, source_terms, point_terms):
            seen.append(offsets)
            return real(f, tf0, poly, cfg, offsets, source_terms, point_terms)

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
        kernel = EdgeKernel([tf0], centered_square)
        e, lo, hi = _edge_boxes(centered_square, np.random.default_rng(3), 200)
        glo, ghi, _clo, _chi, dlo, dhi = kernel(e, lo, hi)
        sloped = np.isfinite(dlo)  # expanded boxes; points and wide boxes have none
        assert sloped.sum() == kernel.expanded_boxes[0] > 0
        for k, (bx, by, vx, vy) in enumerate(_edge_point_boxes(centered_square, e, lo, hi)):
            val = tf0.phi0_box(bx, by)
            new_val = Interval(glo[k], ghi[k])
            assert overlaps(new_val, val)
            assert new_val.width() <= val.width() + 4 * np.spacing(val.mag())
            if sloped[k]:
                der, new_der = tf0.phi0_dir_deriv(bx, by, vx, vy), Interval(dlo[k], dhi[k])
                assert overlaps(new_der, der)
                assert new_der.width() <= der.width() + 4 * np.spacing(der.mag())

    def test_slanted_edges_contain_mpmath_values(self):
        hexagon, tf0 = _candidate("hexagon", None)
        kernel = EdgeKernel([tf0], hexagon)
        rng = np.random.default_rng(4)
        e = rng.integers(0, 6, 200)
        t = rng.random(200)
        box_lo, box_hi = np.maximum(0.0, t - 1e-3), np.minimum(1.0, t + 1e-3)
        kernels = _mp_kernels(tf0)
        for lo, hi in ((t, t), (box_lo, box_hi)):
            glo, ghi, _clo, _chi, dlo, dhi = kernel(e, lo, hi)
            for k in range(200):
                val, der = _mp_phi(kernels, _mp_edge(hexagon, e[k]), mp.mpf(t[k]))
                assert mp.mpf(glo[k]) <= val <= mp.mpf(ghi[k])
                if np.isfinite(dlo[k]):  # expanded boxes only
                    assert mp.mpf(dlo[k]) <= der <= mp.mpf(dhi[k])
        assert kernel.expanded_boxes[0] > 0

    def test_source_on_an_edge_is_a_domain_error(self, centered_square):
        tf0 = TestFunction2D((0.0, 0.0), np.array([[0.5, 0.1]]), np.array([0.3]))
        kernel = EdgeKernel([tf0], centered_square)
        e = np.arange(4)
        with pytest.raises(DomainError):
            kernel(e, np.zeros(4), np.ones(4))

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
        """Each row of a call gets the bits and box counts of its candidate's
        own call on its boxes alone, at chunk sizes 1, the default and
        unbounded: for one candidate, and for three candidates of one plan
        that ask for the same (edge, lo, hi) boxes, points among them, in
        shuffled rows, so that the sources of a box are evaluated once for
        several rows."""
        tfs = _plan_candidates(centered_square, [(0.0, 0.0), (0.25, 0.2), (-0.1, 0.3)], 33)
        edges = len(centered_square.vertices)
        for shared in (False, True):
            rng = np.random.default_rng(5)
            e, lo, hi = _edge_boxes(centered_square, rng, 300)
            cand = np.zeros(300, dtype=int)
            if shared:  # every candidate on each box, and some rows twice over
                cand = rng.integers(0, 3, 300)
                cand[:200] = np.arange(200) % 3
                e[:200], lo[:200], hi[:200] = (np.repeat(x[:67], 3)[:200] for x in (e, lo, hi))
                for x in (cand, e, lo, hi):
                    x[200:220] = x[:20]
                order = rng.permutation(300)
                cand, e, lo, hi = cand[order], e[order], lo[order], hi[order]
            kernels = [EdgeKernel(tfs if shared else tfs[:1], centered_square)
                       for _ in range(3)]
            assert 1 < kernels[1].chunk < 300
            kernels[0].chunk, kernels[2].chunk = 1, 10_000
            for kernel in kernels:
                got = kernel(cand * edges + e, lo, hi)
                for c in range(len(kernel.weights)):
                    rows = cand == c
                    alone = EdgeKernel([tfs[c]], centered_square)
                    alone.chunk = 10_000
                    want = alone(e[rows], lo[rows], hi[rows])
                    for x, y in zip(got, want):
                        assert np.array_equal(x[rows], y)
                    assert kernel.expanded_boxes[c] == alone.expanded_boxes[0] > 0
                    assert kernel.natural_boxes[c] == alone.natural_boxes[0] > 0


HEXAGON = Polygon([[math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)] for k in range(6)])


def _candidate(name, lshape):
    """A slanted hexagon, or the L-shape with R_near sources at its corner."""
    if name == "hexagon":
        pts = discretize_boundary(HEXAGON, 24)
        src = amano_sources(HEXAGON, pts, lambda p: 1.2)
        return HEXAGON, solve(HEXAGON, pts, src, (0.2, -0.1)).tf0
    cfg = twod.MfsConfig(n=69, corner=(0.0, 0.0))
    pts = discretize_boundary(lshape, cfg.n, twod.CornerRefine(corner=cfg.corner))
    src = amano_sources(lshape, pts, cfg.r_rule())
    return lshape, solve(lshape, pts, src, (0.5, -0.5)).tf0


def _mp_kernels(tf0):
    return [(mp.mpf(w), mp.mpf(sx), mp.mpf(sy))
            for w, (sx, sy) in [(1.0, tf0.s_int)] + list(zip(tf0.coeffs, tf0.sources))]


def _mp_edge(poly, e):
    a, b = poly.edges()[e]
    ax, ay = mp.mpf(float(a[0])), mp.mpf(float(a[1]))
    return ax, ay, mp.mpf(float(b[0])) - ax, mp.mpf(float(b[1])) - ay


def _mp_phi(kernels, edge, t):
    """phi^0 and its t-derivative at a + v t, in mpmath."""
    ax, ay, vx, vy = edge
    x, y = ax + vx * t, ay + vy * t
    val = der = mp.mpf(0)
    for w, sx, sy in kernels:
        dx, dy = x - sx, y - sy
        d2 = dx * dx + dy * dy
        val += w * mp.log(d2) / (-4 * mp.pi)
        der += w * (dx * vx + dy * vy) / d2 / (-2 * mp.pi)
    return val, der


def _mp_centres(kernels, edge):
    """(w_k, t*_k, sqrt(q_k)) per kernel: it sits at t*_k + i sqrt(q_k) in t units."""
    ax, ay, vx, vy = edge
    v2 = vx * vx + vy * vy
    return [(w, ((sx - ax) * vx + (sy - ay) * vy) / v2,
             abs((sx - ax) * vy - (sy - ay) * vx) / v2) for w, sx, sy in kernels]


def _boxes_at_half_rho(poly, tf0, rng, n):
    """n t-boxes whose largest rho_k = r / |t_m - t*_k + i sqrt(q_k)| is just
    under 1/2 (a few are clipped to [0, 1], which only lowers it)."""
    kernels = _mp_kernels(tf0)
    e = rng.integers(0, len(poly.vertices), n)
    tm = rng.uniform(0.05, 0.95, n)
    lo, hi = np.empty(n), np.empty(n)
    for i in range(n):
        centres = _mp_centres(kernels, _mp_edge(poly, e[i]))
        dist = min(abs(mp.mpc(mp.mpf(tm[i]) - ts, dl)) for _w, ts, dl in centres)
        r = 0.499 * float(dist)
        lo[i], hi[i] = max(0.0, tm[i] - r), min(1.0, tm[i] + r)
    return e, lo, hi


class TestExpansion:
    @pytest.mark.parametrize("name", ["hexagon", "lshape"])
    def test_contains_mpmath_values_across_each_box(self, name, lshape):
        poly, tf0 = _candidate(name, lshape)
        kernel = EdgeKernel([tf0], poly)
        e, lo, hi = _boxes_at_half_rho(poly, tf0, np.random.default_rng(7), 12)
        glo, ghi, _clo, _chi, dlo, dhi = kernel(e, lo, hi)
        assert kernel.expanded_boxes[0] == len(e) and kernel.natural_boxes[0] == 0
        kernels = _mp_kernels(tf0)
        for k in range(len(e)):
            edge = _mp_edge(poly, e[k])
            for t in np.linspace(lo[k], hi[k], 20):
                val, der = _mp_phi(kernels, edge, mp.mpf(float(t)))
                assert mp.mpf(glo[k]) <= val <= mp.mpf(ghi[k])
                assert mp.mpf(dlo[k]) <= der <= mp.mpf(dhi[k])

    @pytest.mark.parametrize("name", ["hexagon", "lshape"])
    def test_tail_bounds_the_truncation_error(self, name, lshape):
        """|phi^0 - (c_0 + sum_j c_j h^j)| and the derivative's error, with
        the c_j from complex powers in mpmath, stay below the tails."""
        poly, tf0 = _candidate(name, lshape)
        kernel = EdgeKernel([tf0], poly)
        e, lo, hi = _boxes_at_half_rho(poly, tf0, np.random.default_rng(8), 6)
        kernels = _mp_kernels(tf0)
        p = mfs.EXPANSION_DEGREE
        for k in range(len(e)):
            edge = _mp_edge(poly, e[k])
            tm = mp.mpf(0.5 * (lo[k] + hi[k]))
            z = [(w, tm - ts + 1j * dl) for w, ts, dl in _mp_centres(kernels, edge)]
            c = [sum(w * mp.re(zk ** -j) for w, zk in z) * (-1) ** j / (2 * mp.pi * j)
                 for j in range(1, p + 1)]
            s = np.array([float(abs(zk) ** 2) for _w, zk in z])
            r = max(float(tm) - lo[k], hi[k] - float(tm))
            terms = mfs._tail_terms(np.full(s.size, r), np.nextafter(s, 0))
            val_tail, der_tail = (mp.fsum(abs(mp.mpf(w)) * mp.mpf(x)
                                          for w, x in zip(kernel.weights[0], row)) / (2 * mp.pi)
                                  for row in terms)
            c0 = _mp_phi(kernels, edge, tm)[0]
            for t in np.linspace(lo[k], hi[k], 20):
                h = mp.mpf(float(t)) - tm
                val, der = _mp_phi(kernels, edge, mp.mpf(float(t)))
                poly_val = c0 + sum(c[j - 1] * h**j for j in range(1, p + 1))
                poly_der = sum(j * c[j - 1] * h ** (j - 1) for j in range(1, p + 1))
                assert abs(val - poly_val) <= val_tail
                assert abs(der - poly_der) <= der_tail

    def test_tails_close_the_gap_of_one_signed_coefficients(self, centered_square):
        """A kernel on the line of edge 0, at t* = 1.2: from t_m = 0.6 every
        c_j is positive, so at h = r the truncated polynomial falls short
        of phi^0 and phi^0' by nearly the whole tail."""
        tf0 = TestFunction2D((0.7, -0.5), np.zeros((0, 2)), np.zeros(0))
        kernel = EdgeKernel([tf0], centered_square)
        r = 0.499 * 0.6
        lo, hi = np.array([0.6 - r]), np.array([0.6 + r])
        glo, ghi, _clo, _chi, dlo, dhi = kernel(np.zeros(1, dtype=int), lo, hi)
        assert kernel.expanded_boxes[0] == 1
        edge = _mp_edge(centered_square, 0)
        kernels = _mp_kernels(tf0)
        for t in np.linspace(lo[0], hi[0], 20):
            val, der = _mp_phi(kernels, edge, mp.mpf(float(t)))
            assert mp.mpf(glo[0]) <= val <= mp.mpf(ghi[0])
            assert mp.mpf(dlo[0]) <= der <= mp.mpf(dhi[0])

    @pytest.mark.parametrize("flip", [
        lambda x, y: (-y, x),  # rotation by 90 degrees
        lambda x, y: (-x, y),  # reflection in the y axis
    ])
    def test_rotated_or_reflected_square_keeps_extrema(self, centered_square, flip):
        tol = twod.MfsConfig().tol
        pts, src = square_setup(centered_square, n=69)
        tf0 = solve(centered_square, pts, src, (0.1, -0.2)).tf0
        moved = TestFunction2D(flip(*tf0.s_int), np.array([flip(*p) for p in tf0.sources]),
                               tf0.coeffs)
        square = Polygon([flip(*v) for v in centered_square.vertices])
        (base,) = boundary_extrema([tf0], centered_square, tol=tol)
        (other,) = boundary_extrema([moved], square, tol=tol)
        assert base.converged and other.converged
        assert base.expanded_boxes > 0 and other.expanded_boxes > 0
        for a, b in ((base.m, other.m), (base.M, other.M)):
            assert overlaps(a, b)
            assert abs(a.lo - b.lo) <= tol and abs(a.hi - b.hi) <= tol

    def test_point_witnesses_keep_the_natural_form(self, lshape):
        """Points are evaluated exactly as by the natural form alone."""
        poly, tf0 = _candidate("lshape", lshape)
        kernel = EdgeKernel([tf0], poly)
        rng = np.random.default_rng(9)
        e = rng.integers(0, len(poly.vertices), 300)
        t = rng.random(300)
        got = kernel(e, t, t)
        assert kernel.expanded_boxes[0] == kernel.natural_boxes[0] == 0
        for x, y in zip(got[:2], _natural_reference(kernel, e, t, t)):
            assert np.array_equal(x, y)

    @pytest.mark.parametrize("name", ["hexagon", "lshape"])
    def test_expanded_box_centre_is_the_point_value(self, name, lshape):
        """The centre value of an expanded box (its c_0) and of a natural-form
        (wide) box equals the value of a separate evaluation at
        _midpoints(lo, hi), bit for bit: the BoxEvaluator contract that lets
        a search carry the centre as an endpoint value of the halves."""
        poly, tf0 = _candidate(name, lshape)
        rng = np.random.default_rng(10)
        near = _boxes_at_half_rho(poly, tf0, rng, 12)
        lo = rng.uniform(0.0, 0.4, 12)
        wide = (rng.integers(0, len(poly.vertices), 12), lo, lo + rng.uniform(0.4, 0.6, 12))
        for (e, lo, hi), form in ((near, "expanded_boxes"), (wide, "natural_boxes")):
            kernel = EdgeKernel([tf0], poly)
            _glo, _ghi, clo, chi, _dlo, _dhi = kernel(e, lo, hi)
            assert getattr(kernel, form)[0] == len(e)
            tm = _midpoints(lo, hi)
            vlo, vhi = EdgeKernel([tf0], poly)(e, tm, tm)[:2]
            assert np.array_equal(clo, vlo) and np.array_equal(chi, vhi)


def _natural_reference(kernel, e, lo, hi):
    """The natural interval form of phi^0, written out."""
    from greenbound import _directed as dr
    from greenbound.fundsol import NEG_INV_4PI

    E, S = kernel.edges, kernel.sources
    # root e's kernels: its s_int, then the sources along edge e % E
    idx = np.column_stack((E * S + e, (e % E * S)[:, None] + np.arange(S)))
    tstar, v2, delta2 = ((x[0][idx], x[1][idx]) for x in
                         (kernel.geometry[k] for k in ("tstar", "v2", "delta2")))
    tau = dr.iv_sub(lo[:, None], hi[:, None], *tstar)
    d2 = dr.iv_add(*dr.iv_mul(*v2, *dr.iv_sqr(*tau)), *delta2)
    val = dr.iv_mul(*dr.iv_dot(kernel.weights, *dr.iv_log(*d2)),
                    NEG_INV_4PI.lo, NEG_INV_4PI.hi)
    return val
