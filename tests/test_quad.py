import hashlib
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate as sci

from greenbound import quad, taylor
from greenbound.errors import DomainError, UnsupportedError
from greenbound.expr import parse
from greenbound.fundsol import TestFunction2D
from greenbound.geometry import (CornerRefine, Polygon, Triangle, amano_sources,
                                 discretize_boundary)
from greenbound.interval import Interval
from greenbound.quad import (
    QuadConfig,
    integrate_source,
    pair_f_phi,
    singular_triangle,
    source_kernel_terms,
)
from greenbound.twod import MfsConfig

from conftest import assert_contains

# I2 closed form for f = 1 on the canonical unit triangle
CANONICAL_LOG_INTEGRAL = float(mp.mpf(-0.5) + (mp.log(2) - 2 + mp.pi / 2) / 2)


def canonical_triangle(scale=1.0):
    return Triangle(
        np.array([[0.0, 0.0], [scale, 0.0], [scale, scale]]), singular_vertex=0
    )


class TestSingularTriangle:
    def test_canonical_constant(self):
        got = singular_triangle(parse("1"), canonical_triangle())
        assert_contains(got, CANONICAL_LOG_INTEGRAL)
        assert got.width() <= 1e-8

    def test_zero_source(self):
        got = singular_triangle(parse("0"), canonical_triangle())
        assert got.width() <= 1e-15
        assert_contains(got, 0.0)

    def test_scaling_law(self):
        """I(lam) = lam^2 I(1) + lam^2 log(lam^2) * area for f = 1."""
        lam = 0.5
        got = singular_triangle(parse("1"), canonical_triangle(lam))
        want = lam**2 * CANONICAL_LOG_INTEGRAL + lam**2 * math.log(lam**2) * 0.5
        assert_contains(got, want)

    def test_polynomial_vs_dblquad(self):
        f = parse("x^2+y")
        tri = canonical_triangle()
        got = singular_triangle(f, tri)
        want, err = sci.dblquad(
            lambda y, x: (x * x + y) * math.log(x * x + y * y),
            1e-12, 1.0, 0.0, lambda x: x,
        )
        assert got.lo - 10 * err <= want <= got.hi + 10 * err

    def test_general_position_vertex(self):
        # singular vertex away from the origin, oblique triangle
        tri = Triangle(
            np.array([[0.3, -0.2], [1.1, 0.1], [0.6, 0.9]]), singular_vertex=0
        )
        f = parse("1+x*y")
        got = singular_triangle(f, tri)
        want, err = sci.dblquad(
            lambda s, t: _tri_integrand(tri, f, s, t),
            0.0, 1.0, 0.0, lambda t: 1.0 - t,
        )
        assert got.lo - 10 * max(err, 1e-9) <= want <= got.hi + 10 * max(err, 1e-9)

    def test_requires_flag_and_smoothness(self):
        tri = Triangle(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]))
        with pytest.raises(DomainError):
            singular_triangle(parse("1"), tri)
        with pytest.raises(UnsupportedError):
            singular_triangle(parse("abs(x)"), canonical_triangle())

    def test_split_triangle_consistency(self):
        """Two sub-triangles sharing the split edge reproduce the whole."""
        f = parse("x+2")
        whole = singular_triangle(f, canonical_triangle())
        t1 = Triangle(
            np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.5]]), singular_vertex=0
        )
        t2 = Triangle(
            np.array([[0.0, 0.0], [1.0, 0.5], [1.0, 1.0]]), singular_vertex=0
        )
        parts = singular_triangle(f, t1) + singular_triangle(f, t2)
        assert whole.intersects(parts)


def _tri_integrand(tri, f, s, t):
    v = tri.vertices
    p = v[0] + t * (v[1] - v[0]) + s * (v[2] - v[0])
    jac = abs(
        (v[1][0] - v[0][0]) * (v[2][1] - v[0][1])
        - (v[1][1] - v[0][1]) * (v[2][0] - v[0][0])
    )
    r2 = (p[0] - v[0][0]) ** 2 + (p[1] - v[0][1]) ** 2
    if r2 == 0.0:
        return 0.0
    return f.eval_point(p[0], p[1]) * math.log(r2) * jac


class TestIntegrateSource:
    def test_area(self, centered_square, lshape):
        got = integrate_source(parse("1"), centered_square)
        assert_contains(got, 1.0)
        got = integrate_source(parse("1"), lshape)
        assert_contains(got, 3.0)
        assert got.width() < 1e-12

    def test_polynomial(self, centered_square):
        got = integrate_source(parse("(x-0.125)^2+(y-0.25)^3"), centered_square)
        want = float(
            mp.quad(
                lambda x: mp.quad(
                    lambda y: (x - mp.mpf("0.125")) ** 2 + (y - mp.mpf("0.25")) ** 3,
                    [-0.5, 0.5],
                ),
                [-0.5, 0.5],
            )
        )
        assert_contains(got, want)


class TestPairing:
    def test_pure_gamma_square(self, centered_square):
        """<1, Gamma(center, .)> over the centered square via the symmetry
        oracle: 8 canonical triangles scaled by 1/2."""
        tf = TestFunction2D((0.0, 0.0), np.zeros((0, 2)), np.zeros(0))
        (got,) = pair_f_phi(parse("1"), tf, centered_square)
        lam = mp.mpf("0.5")
        tri_val = lam**2 * mp.mpf(CANONICAL_LOG_INTEGRAL) + lam**2 * mp.log(
            lam**2
        ) * mp.mpf("0.5")
        want = float(-1 / (4 * mp.pi) * 8 * tri_val)
        assert_contains(got, want)
        assert got.width() < 1e-12

    @pytest.mark.parametrize("text, degrees, lo, hi", [
        ("x + sin((x+0.5)*y^2)", (6, 6), 0.004885182638034694, 0.005380716956915345),
        ("sqrt(x + 2)", (8, 8), 0.23838195615663818, 0.2383820709319374),
    ])
    def test_rational_constants_pinned(self, centered_square, text, degrees, lo, hi):
        """The interior-kernel pairing with every rational constant of the
        fan moments and the series (2/(i+1), 2/(j+2)^2, p!, (3-2p)/(2p))
        enclosed to its tightest float interval, bit for bit: a constant
        rounded to nearest, or widened by another ulp, moves an endpoint."""
        tf = TestFunction2D((0.0, 0.0), np.zeros((0, 2)), np.zeros(0))
        (got,) = pair_f_phi(parse(text), tf, centered_square, QuadConfig(tm_degrees=degrees))
        assert (got.lo, got.hi) == (lo, hi)

    def test_linearity(self, centered_square):
        tf = TestFunction2D((0.1, 0.0), np.array([[2.0, 2.0]]), np.array([0.7]))
        (one,) = pair_f_phi(parse("x+1"), tf, centered_square, offsets=((0.01, 0.0),))
        (two,) = pair_f_phi(parse("2*(x+1)"), tf, centered_square,
                            offsets=((0.01, 0.0),))
        scaled = one * 2.0
        assert two.intersects(scaled)

    def test_fan_split_refinement_overlaps(self, centered_square):
        tf = TestFunction2D((0.0, 0.0), np.zeros((0, 2)), np.zeros(0))
        f = parse("x + sin((x+0.5)*y^2)")
        (coarse,) = pair_f_phi(f, tf, centered_square, QuadConfig(fan_splits=1))
        (fine,) = pair_f_phi(f, tf, centered_square, QuadConfig(fan_splits=3))
        assert coarse.intersects(fine)
        assert fine.width() <= coarse.width() + 1e-15

    def test_degree_refinement_overlaps(self, centered_square):
        tf = TestFunction2D((0.2, -0.1), np.array([[0.0, 2.0]]),
                            np.array([-1.2]))
        f = parse("exp(x*y)")
        (coarse,) = pair_f_phi(f, tf, centered_square, QuadConfig(tm_degrees=(5, 5)))
        (fine,) = pair_f_phi(f, tf, centered_square, QuadConfig(tm_degrees=(9, 9)))
        assert coarse.intersects(fine)
        assert fine.width() <= coarse.width() + 1e-15

    def test_agreement_with_dblquad_random(self, centered_square):
        """Non-verified adaptive quadrature lands inside every enclosure,
        for each of two offsets (shift c, added d) paired in one call."""
        rng = np.random.default_rng(42)
        rng_shift = np.random.default_rng(43)
        sources = ["1", "x+1", "y^2+x", "2+x*y", "exp(x)"]
        for trial in range(20):
            f = parse(sources[trial % len(sources)])
            s_int = tuple(rng.uniform(-0.3, 0.3, 2))
            src = rng.uniform(1.0, 2.0, (2, 2)) * rng.choice([-1, 1], (2, 2))
            coeffs = rng.uniform(-1, 1, 2)
            shifts = (float(rng.uniform(-0.1, 0.1)), float(rng_shift.uniform(-0.1, 0.1)))
            tf = TestFunction2D(s_int, src, coeffs)
            adds = (0.0, 0.01)
            enclosures = pair_f_phi(f, tf, centered_square,
                                    offsets=((shifts[0], adds[0]),
                                             (shifts[1], Interval.point(adds[1]))))
            assert len(enclosures) == 2

            def integrand(y, x):
                r2 = (x - s_int[0]) ** 2 + (y - s_int[1]) ** 2
                phi = -math.log(r2) / (4 * math.pi)
                for (sx, sy), a in zip(src, coeffs):
                    phi += -a * math.log((x - sx) ** 2 + (y - sy) ** 2) / (
                        4 * math.pi
                    )
                return f.eval_point(x, y) * phi

            paired, err = sci.dblquad(integrand, -0.5, 0.5, -0.5, 0.5,
                                      epsabs=1e-9)
            mass, err_mass = sci.dblquad(lambda y, x: f.eval_point(x, y),
                                         -0.5, 0.5, -0.5, 0.5, epsabs=1e-9)
            for got, shift, add in zip(enclosures, shifts, adds):
                want = paired + shift * mass + add
                tol = 10 * max(err + abs(shift) * err_mass, 1e-8)
                assert got.lo - tol <= want <= got.hi + tol, (trial, shift, got, want)

    def test_kernel_point_on_edge_line(self):
        """s_int on the line of a slanted edge makes a fan triangle whose
        orientation is numerically ambiguous; it is bounded by the sector
        it spans, not skipped.  Oracle: the square [-1, 1]^2 (eight canonical triangles)
        minus the notch."""
        poly = Polygon([(-1, -1), (1, -1), (1, 1), (0.2, 0.6), (0.1, 0.3), (-1, 1)])
        tf = TestFunction2D((0.0, 0.0), np.zeros((0, 2)), np.zeros(0))
        (got,) = pair_f_phi(parse("1"), tf, poly)

        def log_r2(x, y):
            return math.log(x * x + y * y)

        square = 8 * CANONICAL_LOG_INTEGRAL
        notch, err = sci.dblquad(
            lambda x, y: log_r2(x, y), 0.3, 1.0,
            lambda y: 0.1 - (y - 0.3) * 1.1 / 0.7,
            lambda y: 0.1 + (y - 0.3) / 3 if y <= 0.6 else 0.2 + 2 * (y - 0.6),
        )
        want = -(square - notch) / (4 * math.pi)
        tol = 10 * max(err, 1e-8)
        assert got.lo - tol <= want <= got.hi + tol
        assert got.width() < 1e-12  # the sliver is bounded by its tiny sector

    def test_rejects_nonsmooth(self, centered_square):
        tf = TestFunction2D((0.0, 0.0), np.zeros((0, 2)), np.zeros(0))
        with pytest.raises(UnsupportedError):
            pair_f_phi(parse("abs(x)"), tf, centered_square)


def _plan_sources(poly, corner):
    """The n = 69 exterior sources a domain plan places on ``poly``."""
    cfg = MfsConfig(n=69, corner=corner)
    refine = None if corner is None else CornerRefine(corner=corner)
    return amano_sources(poly, discretize_boundary(poly, cfg.n, refine), cfg.r_rule())


def _sha(intervals) -> str:
    text = "\n".join(repr((v.lo, v.hi)) for v in intervals)
    return hashlib.sha256(text.encode()).hexdigest()


TRIG = "x + sin((x+0.5)*y^2)"


class TestBatchedFans:
    """The fans of every centre of a call are one array pass.  The pinned
    sha256 hashes of the (lo, hi) reprs fix its enclosures bit for bit."""

    @pytest.mark.parametrize("text, degrees, domain, corner, digest", [
        ("1", (8, 8), "centered_square", None,
         "6534e6f452d6f9c7bd77ae7f0e57c392440577e1063a7a502e1603a2b783c687"),
        ("1", (8, 8), "lshape", (0.0, 0.0),
         "5231d7f1856de4a8f626ebc9ab61ce59ec243109f3d4c1d5a3b2ab516a32177f"),
        (TRIG, (6, 6), "centered_square", None,
         "383c8731f7d2a7cc8c52701f039d16fa42b4eb917c4eed0a39bc37e8b9fc6706"),
        (TRIG, (6, 6), "lshape", (0.0, 0.0),
         "3d57f787b684547a68e81a6f5f17bf86dc02add1ff47744264484dcca3422f25"),
    ], ids=["1-square", "1-lshape", "trig-square", "trig-lshape"])
    def test_source_kernel_terms_pinned(self, request, text, degrees, domain, corner, digest):
        poly = request.getfixturevalue(domain)
        terms = source_kernel_terms(parse(text), _plan_sources(poly, corner), poly,
                                    QuadConfig(tm_degrees=degrees))
        assert len(terms) == 69
        assert _sha(terms) == digest

    @pytest.mark.parametrize("text", ["1", TRIG])
    def test_clockwise_fan_is_the_exact_negation(self, text):
        """A fan taken clockwise (edge b -> a) is the exact negation of the
        same fan taken counter-clockwise: the sign costs no rounding.  With
        one angular part per fan both orientations frame the same moments."""
        rng = np.random.default_rng(7)
        f, cfg = parse(text), QuadConfig(tm_degrees=(6, 6))
        for _ in range(12):
            c, a, b = rng.uniform(-1.0, 1.0, (3, 2))
            ccw = quad._fans(f, [c], [(a, b)], cfg, want_plain=True)
            cw = quad._fans(f, [c], [(b, a)], cfg, want_plain=True)
            for (lo, hi), (ccw_lo, ccw_hi) in zip(cw, ccw):  # the log and the plain integral
                assert (lo[0], hi[0]) == (-ccw_hi[0], -ccw_lo[0])

    def test_models_of_f_in_one_batch(self, centered_square, monkeypatch):
        """The 276 fan parts of the plan's sources take one batched
        Taylor-model evaluation, whatever the nonzero patterns of their
        models of x and y."""
        calls = []
        real = quad._expr.eval_tm
        monkeypatch.setattr(quad._expr, "eval_tm",
                            lambda *args: calls.append(len(args[1])) or real(*args))
        source_kernel_terms(parse(TRIG), _plan_sources(centered_square, None), centered_square,
                            QuadConfig(tm_degrees=(6, 6)))
        assert calls == [69 * 4]

    def test_interior_pairing_pinned(self, centered_square):
        """Both the log and the plain integral of the interior fan, with
        three angular parts per fan triangle."""
        tf = TestFunction2D((0.1, -0.2), np.zeros((0, 2)), np.zeros(0))
        got = pair_f_phi(parse(TRIG), tf, centered_square,
                         QuadConfig(tm_degrees=(6, 6), fan_splits=3),
                         offsets=((0.0, 0.0), (0.25, 0.0)))
        assert _sha(got) == "b5b64e4abfaa79bb7fd3321846cb5af5ca651eb72a6b7bcde08ca9b0b6d745da"

    # regular exterior sources, and sources on the lines of the bottom and
    # left edges, whose fans to those edges are degenerate slivers
    SOURCES = [(1.3, 0.2), (0.9, -0.5), (-0.9, -1.1), (-0.5, 0.8), (0.2, 1.7)]

    @pytest.mark.parametrize("text, degrees", [("x+1", (8, 8)), (TRIG, (6, 6))])
    def test_slivers_and_batch_composition(self, centered_square, monkeypatch, text, degrees):
        """Every term encloses adaptive quadrature, and equals bit for bit
        the term of a one-source call and of a pass cut into one-part
        chunks: groups and chunks never change a bit."""
        f, cfg = parse(text), QuadConfig(tm_degrees=degrees)
        slivers = []
        real_sliver = quad._sliver_bounds

        def spy(*args):
            slivers.append(tuple(args[1]))
            return real_sliver(*args)

        monkeypatch.setattr(quad, "_sliver_bounds", spy)
        batch = source_kernel_terms(f, self.SOURCES, centered_square, cfg)
        assert sorted(set(slivers)) == [(-0.5, 0.8), (0.9, -0.5)]
        for s, term in zip(self.SOURCES, batch):
            (single,) = source_kernel_terms(f, [s], centered_square, cfg)
            assert (single.lo, single.hi) == (term.lo, term.hi)
            want, err = sci.dblquad(
                lambda y, x: -f.eval_point(x, y) * math.log((x - s[0]) ** 2 + (y - s[1]) ** 2)
                / (4 * math.pi), -0.5, 0.5, -0.5, 0.5, epsabs=1e-12)
            tol = 10 * max(err, 1e-12)
            assert term.lo - tol <= want <= term.hi + tol, (s, term, want)
        monkeypatch.setattr(quad, "_CHUNK_TERMS", 1)
        chunked = source_kernel_terms(f, self.SOURCES, centered_square, cfg)
        assert [(t.lo, t.hi) for t in chunked] == [(t.lo, t.hi) for t in batch]

        # slanted and axis-aligned edges, and sources with a zero coordinate,
        # whose fan parts' models of x or y have no constant term: one batch
        # of parts whose models of x and y differ in nonzero pattern
        poly = Polygon([[-0.5, -0.5], [0.5, -0.5], [0.5, 0.2], [0.1, 0.6], [-0.5, 0.5]])
        sources = [(1.3, 0.2), (0.0, -1.3), (0.6, 0.9), (-0.9, 0.0)]
        models = []
        real_eval = quad._expr.eval_tm
        monkeypatch.setattr(quad._expr, "eval_tm",
                            lambda *args: models.append(args[1:]) or real_eval(*args))
        mixed = source_kernel_terms(f, sources, poly, cfg)
        ((x, y),) = models
        assert len(taylor._pattern_groups(x._support()[0], y._support()[0])) == 3
        for s, term in zip(sources, mixed):
            (single,) = source_kernel_terms(f, [s], poly, cfg)
            assert (single.lo, single.hi) == (term.lo, term.hi)


def _rational_tables():
    """(lo, hi, p, q) for every entry of the constant tables of the fan
    moments and the sqrt series."""
    rows = [(lo, hi, 2, q + 1) for q, (lo, hi) in enumerate(quad._TWO_OVER)]
    rows += [(lo, hi, 2, (q + 2) ** 2)
             for q, (lo, hi) in enumerate(zip(quad._W_LO.tolist(), quad._W_HI.tolist()))]
    rows += [(c.lo, c.hi, 3 - 2 * p, 2 * p)
             for p, c in enumerate(taylor._SQRT_RATIOS) if c is not None]
    return rows


def test_rational_tables_are_tight_enclosures():
    """Each constant contains p/q, is a point exactly when p/q is a float
    and is otherwise one ulp wide: a constant rounded to nearest or widened
    by an ulp fails here, although later outward roundings absorb it."""
    rows = _rational_tables()
    assert len(rows) == 3 * (taylor.MAX_DEGREE + 1) - 1
    for lo, hi, p, q in rows:
        exact = Fraction(p, q)
        assert Fraction(lo) <= exact <= Fraction(hi), (p, q)
        is_float = Fraction(p / q) == exact
        assert (lo == hi) == is_float, (p, q)
        if not is_float:
            assert hi == math.nextafter(lo, math.inf), (p, q)


def test_degrees_above_the_tables_are_rejected():
    with pytest.raises(DomainError):
        QuadConfig(tm_degrees=(taylor.MAX_DEGREE + 1, 8))
