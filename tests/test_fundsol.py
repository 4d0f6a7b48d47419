import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from greenbound import _directed as dr
from greenbound.errors import DomainError
from greenbound.fundsol import TestFunction2D, gamma
from greenbound.interval import Interval

from conftest import assert_contains


def tf_single(a1=1.0, src=(3.0, 0.0)):
    return TestFunction2D(
        s_int=(0.0, 0.0), sources=np.array([src]), coeffs=np.array([a1])
    )


class TestGamma:
    def test_dim2_unit_distance(self):
        r = gamma((0.0, 0.0), (1.0, 0.0))
        assert_contains(r, 0.0)
        assert r.width() < 1e-15

    def test_dim2_at_e(self):
        r = gamma((0.0, 0.0), (float(mp.e), 0.0))
        assert_contains(r, float(-1 / (2 * mp.pi)))

    def test_singularity_rejected(self):
        with pytest.raises(DomainError):
            gamma((0.5, 0.5), (Interval(0, 1), Interval(0, 1)))

    def test_symmetry_sampled(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            s = rng.uniform(-2, 2, 2)
            x = rng.uniform(-2, 2, 2)
            if np.hypot(*(s - x)) < 1e-3:
                continue
            a = gamma(s, tuple(x))
            b = gamma(x, tuple(s))
            assert a.intersects(b)


class TestEvalPhi:
    def test_pure_kernel(self):
        tf = TestFunction2D(
            s_int=(0.0, 0.0), sources=np.zeros((0, 2)),
            coeffs=np.zeros(0),
        )
        got = tf.phi0_box(Interval.point(0.5), Interval.point(0.5))
        want = gamma((0.0, 0.0), (0.5, 0.5))
        assert got.intersects(want)


class TestVectorAgainstScalar:
    def test_phi0_box_matches_scalar_sum(self):
        rng = np.random.default_rng(11)
        sources = rng.uniform(2, 3, (7, 2))
        coeffs = rng.uniform(-2, 2, 7)
        tf = TestFunction2D((0.1, -0.2), sources, coeffs)
        checked = 0
        while checked < 20:
            c = rng.uniform(-0.5, 0.5, 2)
            if np.hypot(c[0] - 0.1, c[1] + 0.2) < 0.15:
                continue  # keep the box away from the interior kernel point
            checked += 1
            bx = Interval(c[0] - 0.05, c[0] + 0.05)
            by = Interval(c[1] - 0.05, c[1] + 0.05)
            got = tf.phi0_box(bx, by)
            want = gamma((0.1, -0.2), (bx, by))
            for s, a in zip(sources, coeffs):
                want = want + gamma(tuple(s), (bx, by)) * float(a)
            assert got.intersects(want)
            # the true range is inside both enclosures
            mid = tf.phi0_points(np.array([c]))[0]
            assert got.lo - 1e-12 <= mid <= got.hi + 1e-12

    def test_dir_deriv_matches_difference_quotient(self):
        tf = tf_single(a1=1.3, src=(2.5, 1.0))
        p = np.array([0.3, -0.1])
        v = np.array([0.6, 0.8])
        h = 1e-6
        num = (
            tf.phi0_points(np.array([p + h * v]))[0]
            - tf.phi0_points(np.array([p - h * v]))[0]
        ) / (2 * h)
        got = tf.phi0_dir_deriv(
            Interval.point(p[0]), Interval.point(p[1]),
            Interval.point(v[0]), Interval.point(v[1]),
        )
        assert abs(num - got.mid()) < 1e-6


def test_harmonicity_five_point_laplacian():
    """Discrete Laplacian of phi away from the interior kernel decays ~h^2."""
    tf = tf_single(a1=0.8, src=(2.0, 2.0))
    defects = []
    p = np.array([0.31, 0.17])
    for h in (1e-2, 1e-3):
        pts = np.array(
            [p, p + (h, 0), p - (h, 0), p + (0, h), p - (0, h)]
        )
        vals = tf.phi0_points(pts)
        defects.append(abs(vals[1] + vals[2] + vals[3] + vals[4] - 4 * vals[0]) / h**2)
    # second-order decrease: the h^2-scaled defect stays bounded and small
    assert defects[1] < 1e-4
    assert defects[0] < 1e-6 or defects[1] <= defects[0] * 1.5


class TestRowSum:
    """iv_dot reduces the last axis; each row must contain the exact sum."""

    ROWS = {
        "cancellation": ([1e16, 1.0, -1e16, 3.0, -2.0, 0.1, -0.1],
                         [1.0, 0.7, 1.0, 0.3, 1.1, 3.0, 3.0]),
        "magnitudes": ([1e300, 1e-300, -1e300, 2.5e-200, 7.0, -3e150, 3e150],
                       [0.5, 3.0, 0.5, -1.25, 0.1, 1.0, 1.0]),
        "subnormal": ([5e-324, 1e-310, -3e-320, 2e-308, -1e-315, 4e-323, 1e-300],
                      [1.0, -0.75, 0.3, 1e-8, 3.0, -0.5, -1e-10]),
    }

    @staticmethod
    def exact(weights, lo, hi):
        lower = sum(min(Fraction(w) * Fraction(a), Fraction(w) * Fraction(b))
                    for w, a, b in zip(weights, lo, hi))
        upper = sum(max(Fraction(w) * Fraction(a), Fraction(w) * Fraction(b))
                    for w, a, b in zip(weights, lo, hi))
        return lower, upper

    @pytest.mark.parametrize("name", sorted(ROWS))
    def test_point_rows_contain_exact_sum(self, name):
        values, weights = (np.array(x) for x in self.ROWS[name])
        rng = np.random.default_rng(7)
        rows = np.array([values[rng.permutation(len(values))] for _ in range(20)])
        w = weights  # the same weights for every row, broadcast
        lo, hi = dr.iv_dot(w, rows, rows)
        assert lo.shape == (20,)
        for k in range(20):
            want, _ = self.exact(w, rows[k], rows[k])
            assert Fraction(lo[k]) <= want <= Fraction(hi[k])

    def test_interval_rows_contain_exact_range(self):
        rng = np.random.default_rng(8)
        mid = rng.normal(size=(50, 40)) * 10.0 ** rng.integers(-30, 30, (50, 40))
        rad = np.abs(mid) * 10.0 ** rng.integers(-16, 0, (50, 40))
        w = rng.normal(size=40) * 10.0 ** rng.integers(-5, 5, 40)
        lo, hi = dr.iv_dot(w, mid - rad, mid + rad)
        for k in range(50):
            want_lo, want_hi = self.exact(w, mid[k] - rad[k], mid[k] + rad[k])
            assert Fraction(lo[k]) <= want_lo and want_hi <= Fraction(hi[k])

    def test_cancelling_row_sum_stays_a_few_ulps_of_the_result(self):
        """The summation adds no gamma_n sum |terms| slop: only the outward
        rounding of the products widens iv_dot under cancellation."""
        row = np.array([[1e16, 1.0, -1e16, 0.5, 3e-17, -3e-17, 0.1, -0.1]])
        lo, hi = dr._row_sums(row)
        assert lo[0] <= 1.5 <= hi[0]
        assert hi[0] - lo[0] <= 8 * np.spacing(1.5)  # gamma_n sum |terms| would be ~15

    def test_exact_weights_keep_products_exact(self):
        """Products by a weight of exactly 0 or +-1 are exact, so only the
        row sum's error bound widens an exact sum (nudging every product
        made [-2.5, 5.5] of the first row's 1.5)."""
        row = np.array([1e16, 1.0, -1e16, 0.5])
        for weights, want in (([1.0, 1.0, 1.0, 1.0], 1.5), ([-1.0, 1.0, -1.0, 0.0], 1.0)):
            lo, hi = dr.iv_dot(np.array(weights), row, row)
            assert lo <= want <= hi and hi - lo <= 4 * np.spacing(want), (weights, lo, hi)
        # 3 * 0.5 is exact too, but only weights 0 and +-1 are trusted
        exact, nudged = (dr.iv_dot(np.array([w]), np.array([x]), np.array([x]))
                         for w, x in ((1.0, 1.5), (3.0, 0.5)))
        assert nudged[0] < exact[0] <= 1.5 <= exact[1] < nudged[1]

    def test_add_and_sub_round_outward(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=200) * 10.0 ** rng.integers(-20, 20, 200)
        b = rng.normal(size=200) * 10.0 ** rng.integers(-20, 20, 200)
        for (lo, hi), sign in ((dr.iv_add(a, a, b, b), 1), (dr.iv_sub(a, a, b, b), -1)):
            for k in range(200):
                exact = Fraction(a[k]) + sign * Fraction(b[k])
                assert Fraction(lo[k]) <= exact <= Fraction(hi[k])

    def test_empty_rows_sum_to_zero(self):
        lo, hi = dr.iv_dot(np.ones(0), np.zeros((3, 0)), np.zeros((3, 0)))
        assert np.all(lo == 0.0) and np.all(hi == 0.0)


class TestUlpSteps:
    """The one-pass n-ulp nudges equal n np.nextafter passes bit for bit."""

    TINY = np.finfo(float).tiny
    BIG = np.finfo(float).max
    SPECIAL = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-323, -1e-323, TINY, -TINY,
                        BIG, -BIG, np.inf, -np.inf, np.nan])

    @staticmethod
    def loop(x, n, target):
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(n):
                x = np.nextafter(x, target)
        return x

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
    def test_bit_identical_to_nextafter_loop(self, n):
        """Also on random int64 bit patterns: NaN payloads of both signs,
        and steps that cross zero or pass an infinity."""
        rng = np.random.default_rng(10)
        size = 10**5
        rand = np.exp(rng.uniform(-745.0, 709.0, size)) * rng.choice([-1.0, 1.0], size)
        bits = rng.integers(-2**63, 2**63 - 1, size, dtype=np.int64, endpoint=True)
        for x in (self.SPECIAL, rand, bits.view(np.float64)):
            with np.errstate(over="ignore", invalid="ignore"):
                down, up = dr._down_n(x, n), dr._up_n(x, n)
            assert np.array_equal(down.view(np.int64),
                                  self.loop(x, n, -np.inf).view(np.int64))
            assert np.array_equal(up.view(np.int64),
                                  self.loop(x, n, np.inf).view(np.int64))
