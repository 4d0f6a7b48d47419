import math
import operator
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from greenbound import _directed as dr
from greenbound import interval as iv
from greenbound.errors import DomainError
from greenbound.interval import (
    HALF_PI,
    PI,
    BoxEvaluator,
    Interval,
    _set_outward_rounding,
    _midpoints,
    lockstep_min_max,
    rational,
    subdivide_min_max,
)

from conftest import assert_contains, centred_form


def _signed(ends) -> tuple:
    """Endpoint floats with the sign of each zero made visible."""
    return tuple(x.hex() for x in ends)


class TestArith:
    def test_add_exact_endpoints(self):
        assert Interval(1, 2) + Interval(3, 4) == Interval(4, 6)

    def test_mul_sign_cases(self):
        r = Interval(-1, 2) * Interval(3, 3)
        assert_contains(r, -3.0)
        assert_contains(r, 6.0)
        assert r.lo >= -3.0000000001 and r.hi <= 6.0000000001

    def test_div_by_zero_interval(self):
        with pytest.raises(DomainError):
            Interval(1, 1) / Interval(0, 1)

    def test_neg(self):
        assert -Interval(-1, 2) == Interval(-2, 1)

    def test_sub_anticommutes(self):
        a, b = Interval(0.1, 0.2), Interval(0.4, 0.9)
        r1, r2 = a - b, b - a
        assert r1.lo == -r2.hi and r1.hi == -r2.lo

    def test_scalar_mixing(self):
        assert_contains(Interval(1, 2) + 1.5, 3.0)
        assert_contains(2.0 * Interval(1, 2), 3.0)
        assert_contains(1.0 / Interval(3, 3), 1.0 / 3.0)

    def test_unbounded_rejected(self):
        with pytest.raises(DomainError):
            Interval(0.0, math.inf)
        with pytest.raises(DomainError):
            Interval(2.0, 1.0)

    # The endpoint ops that the Interval operators and the 1D engine share,
    # against their own rules, with no Interval in the oracle.

    @pytest.mark.parametrize("zero", [(0.0, 0.0), (-0.0, -0.0), (-0.0, 0.0), (0.0, -0.0)])
    def test_exact_zero_operand(self, zero):
        """An exact [0, 0] operand, of either sign, gives the other operand of
        a sum back with its signed zeros (the left one when both are zero),
        and a product of +0.0 ends."""
        for other in [(-0.0, 1.0), (0.1, 0.3), (-2.0, 0.0)]:
            assert _signed(iv._add(*zero, *other)) == _signed(other)
            assert _signed(iv._add(*other, *zero)) == _signed(other)
        assert _signed(iv._add(*zero, -0.0, 0.0)) == _signed(zero)
        for other in [(-3.0, -1.0), (0.1, 0.3), (-0.0, 2.0)]:
            assert _signed(iv._mul(*zero, *other)) == _signed((0.0, 0.0))
            assert _signed(iv._mul(*other, *zero)) == _signed((0.0, 0.0))
        # the TwoSum sum alone would turn -0.0 + 0.0 into 0.0
        assert _signed(iv._add(-0.0, 1.0, 0.0, 0.0)) == _signed((-0.0, 1.0))

    @pytest.mark.parametrize("x", [(0.1, 0.3), (-0.0, 0.7), (-2.5, -0.0), (5e-324, 1e300)])
    def test_exact_one_operand(self, x):
        """[1, 1] times x is x itself, unnudged, on either side."""
        assert _signed(iv._mul(1.0, 1.0, *x)) == _signed(x)
        assert _signed(iv._mul(*x, 1.0, 1.0)) == _signed(x)
        # the general product would nudge both ends outward
        assert iv._mul(1.0, 1.0 + 2**-52, *x) != x

    @pytest.mark.parametrize("a, b", [((1e-200, 1e-190), (1e-200, 1e-190)),
                                      ((-1e-190, -1e-200), (-1e-190, -1e-200)),
                                      ((0.0, 1e-200), (5e-324, 1e-200))])
    def test_underflowing_one_signed_product_clamped_at_zero(self, a, b):
        """A product of one-signed factors that underflows keeps its lower
        end at 0 (the nudge alone would take it to -5e-324); the upper end
        still lies above the exact product."""
        lo, hi = iv._mul(*a, *b)
        assert _signed((lo,)) == _signed((0.0,))
        assert Fraction(hi) >= max(Fraction(x) * Fraction(y) for x in a for y in b)
        # factors of mixed sign are not clamped
        assert iv._mul(-a[1], -a[0], *b)[0] == -5e-324

    @pytest.mark.parametrize("d", [(-1.0, 1.0), (0.0, 1.0), (-0.0, 2.0), (-1.0, -0.0),
                                   (0.0, 0.0), (-5e-324, 5e-324)])
    def test_divisor_containing_zero(self, d):
        with pytest.raises(DomainError, match="containing zero"):
            iv._div(1.0, 2.0, *d)
        with pytest.raises(DomainError, match="containing zero"):
            Interval(1.0, 2.0) / Interval(*d)

    def test_mid_within_and_finite(self):
        for lo, hi in [(5e-324, 1e-323), (-1.7e308, 1.7e308), (1.7e308, 1.7976931348623157e308),
                       (-0.0, 0.0), (0.1, 0.1)]:
            m = iv._mid(lo, hi)
            assert lo <= m <= hi and math.isfinite(m)
            assert Interval(lo, hi).mid() == m


class TestElem:
    def test_log_one(self):
        r = Interval(1, 1).log()
        assert_contains(r, 0.0)
        assert r.width() < 1e-300

    def test_log_domain(self):
        with pytest.raises(DomainError):
            Interval(0, 1).log()

    def test_abs(self):
        assert abs(Interval(-2, 1)) == Interval(0, 2)

    def test_sin_quadrant_max(self):
        r = Interval(0.0, PI.hi).sin()
        assert r.hi >= 1.0
        assert r.lo <= 0.0

    def test_cos_quadrant_min(self):
        r = Interval(3.0, 3.3).cos()
        assert r.lo <= -1.0 + 1e-15

    def test_sqrt(self):
        r = Interval(4, 9).sqrt()
        assert_contains(r, 2.0)
        assert_contains(r, 3.0)
        with pytest.raises(DomainError):
            Interval(-1, 1).sqrt()

    def test_pow_int(self):
        r = Interval(-2, 1).pow_int(2)
        assert r.lo == 0.0
        assert_contains(r, 4.0)
        r = Interval(-2, 1).pow_int(3)
        assert_contains(r, -8.0)
        assert_contains(r, 1.0)
        assert Interval(-2, 1).pow_int(0) == Interval(1, 1)
        r = Interval(2, 2).pow_int(-1)
        assert_contains(r, 0.5)

    def test_exp_overflow(self):
        with pytest.raises(DomainError):
            Interval(0, 1e6).exp()

    def test_pi_enclosure(self):
        assert_contains(PI, float(mp.pi))
        assert PI.width() < 1e-15
        assert_contains(HALF_PI, float(mp.pi / 2))


_small = st.floats(min_value=-50, max_value=50, allow_nan=False)


@st.composite
def intervals(draw):
    a = draw(_small)
    b = draw(_small)
    return Interval(min(a, b), max(a, b))


@settings(max_examples=300, deadline=None)
@given(intervals(), intervals())
@example(Interval(-0.0, 0.0), Interval(-3.0, 2.0))
@example(Interval(1.0, 1.0), Interval(-0.1, 0.3))
@example(Interval(1e-30, 3e-30), Interval(-7e-300, -1e-300))
def test_containment_random(a, b):
    """Midpoint arithmetic in extended precision lies inside the result,
    and the exact (Fraction) value of every endpoint op at every corner of
    a and b lies inside the op's result with outward rounding on: the
    range of +, -, * and / over a box is the hull of its corner values."""
    assert iv._outward_rounding
    corners = [(Fraction(x), Fraction(y)) for x in (a.lo, a.hi) for y in (b.lo, b.hi)]
    for name, op in _OPS.items():
        if name == "div" and (b.contains(0.0) or min(abs(b.lo), abs(b.hi)) < 1e-300):
            continue  # no quotient, or one that may overflow
        lo, hi = _endpoint_op(name, a, b)
        assert all(Fraction(lo) <= op(x, y) <= Fraction(hi) for x, y in corners), name
        assert op(a, b) == Interval(lo, hi)  # the Interval operator wraps the op
    x, y = mp.mpf(a.mid()), mp.mpf(b.mid())
    am, bm = Interval.point(a.mid()), Interval.point(b.mid())
    assert_contains(am + bm, float(x + y))
    r = am * bm
    exact = x * y
    assert mp.mpf(r.lo) <= exact <= mp.mpf(r.hi)
    if not bm.contains(0.0) and abs(b.mid()) > 1e-100:
        r = am / bm
        exact = x / y
        assert mp.mpf(r.lo) <= exact <= mp.mpf(r.hi)
    r = am.sin()
    assert mp.mpf(r.lo) <= mp.sin(x) <= mp.mpf(r.hi)
    r = am.cos()
    assert mp.mpf(r.lo) <= mp.cos(x) <= mp.mpf(r.hi)
    if a.mid() > 1e-10:
        r = am.log()
        assert mp.mpf(r.lo) <= mp.log(x) <= mp.mpf(r.hi)
        r = am.sqrt()
        assert mp.mpf(r.lo) <= mp.sqrt(x) <= mp.mpf(r.hi)


_OPS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
        "div": operator.truediv}


def _endpoint_op(name, a: Interval, b: Interval) -> tuple:
    """The shared endpoint op ``name`` on the ends of a and b (sub adds the
    negated b)."""
    if name == "sub":
        return iv._add(a.lo, a.hi, -b.hi, -b.lo)
    return getattr(iv, f"_{name}")(a.lo, a.hi, b.lo, b.hi)


def _sub_interval(a: Interval, s: float, t: float) -> Interval:
    """Sub-interval of a with endpoints at fractions s and t of its width,
    clamped into a and ordered, so rounding can never leave a."""
    p, q = (min(max(a.lo + f * (a.hi - a.lo), a.lo), a.hi) for f in (s, t))
    return Interval(min(p, q), max(p, q))


_frac = st.floats(0, 1)


@settings(max_examples=200, deadline=None)
@given(intervals(), intervals(), _frac, _frac, _frac, _frac)
@example(Interval(0.0, 0.0), Interval(-9.49, 23.0), 0.5, 0.5, 0.5, 0.5)
def test_inclusion_monotonicity(a, b, s1, s2, t1, t2):
    """a in a', b in b' implies op(a, b) in op(a', b')."""
    sub_a = _sub_interval(a, s1, s2)
    sub_b = _sub_interval(b, t1, t2)
    for op in (operator.add, operator.sub, operator.mul):
        big = op(a, b)
        small = op(sub_a, sub_b)
        assert big.encloses(small), (op, a, b, sub_a, sub_b)


@settings(max_examples=100, deadline=None)
@given(intervals())
def test_elem_inclusion_monotonicity(a):
    mid = Interval.point(a.mid())
    for fn in (Interval.sin, Interval.cos, abs):
        assert fn(a).encloses(fn(mid))


def mean_value_form(g, g_prime, s: Interval) -> tuple:
    """The mean-value form of a scalar interval function g over s, with m =
    s.mid(): ``centred_form`` of g(s), g(m) and g'(s), then g(m) and g'(s)."""
    m = Interval.point(s.mid())
    centre, slope = g(m), g_prime(s)
    return centred_form(g(s), centre, slope, s, m), centre, slope


class _Scalar(BoxEvaluator):
    """Scalar interval functions g and g' as a BoxEvaluator: the mean-value
    form of every box, point by point."""

    def __init__(self, g, g_prime):
        self.g, self.g_prime = g, g_prime

    def __call__(self, root, lo, hi):
        forms = [mean_value_form(self.g, self.g_prime, Interval(a, b))
                 for a, b in zip(lo.tolist(), hi.tolist())]
        return tuple(np.array([[v.lo, v.hi] for f in forms for v in f]).reshape(-1, 6).T)


class TestSubdivideMinMax:
    def test_constant(self):
        res = subdivide_min_max(_Scalar(lambda t: Interval(5, 5), lambda t: Interval(0, 0)),
                                Interval(0, 1))
        assert res.m == Interval(5, 5) and res.M == Interval(5, 5)
        assert res.converged

    def test_parabola(self):
        res = subdivide_min_max(
            _Scalar(lambda t: t * (1.0 - t), lambda t: 1.0 - t * 2.0),
            Interval(0, 1),
            tol=1e-10,
        )
        assert_contains(res.M, 0.25)
        assert_contains(res.m, 0.0)
        assert res.converged
        assert res.M.width() <= 1e-10

    def test_sine(self):
        res = subdivide_min_max(
            _Scalar(lambda t: t.sin(), lambda t: t.cos()), Interval(0, 1), tol=1e-12
        )
        assert_contains(res.M, float(mp.sin(1)))
        assert res.M.width() <= 1e-12
        assert_contains(res.m, 0.0)

    def test_sandwich_property(self):
        g = lambda t: (t * 3.0).sin() + t.sqr()
        dg = lambda t: (t * 3.0).cos() * 3.0 + t * 2.0
        res = subdivide_min_max(_Scalar(g, dg), Interval(0, 2), tol=1e-8, max_depth=30)
        for k in range(101):
            t = 2.0 * k / 100
            v = g(Interval.point(t))
            assert res.m.lo <= v.hi and v.lo <= res.M.hi

    def test_domain_error_propagates(self):
        with pytest.raises(DomainError):
            subdivide_min_max(_Scalar(lambda t: t.log(), lambda t: 1.0 / t), Interval(0, 1))

    def test_degenerate_domain(self):
        res = subdivide_min_max(_Scalar(lambda t: t.sqr(), lambda t: t * 2.0), Interval(2, 2))
        assert_contains(res.M, 4.0)

    def test_tol_validation(self):
        with pytest.raises(DomainError):
            subdivide_min_max(_Scalar(lambda t: t, lambda t: Interval(1, 1)), Interval(0, 1),
                              tol=0.0)


class _Parabolas(BoxEvaluator):
    """g_r(t) = (t - c_r)^2 + e_r on root r, in directed array arithmetic."""

    def __init__(self, centers, offsets):
        self.c = np.asarray(centers, dtype=float)
        self.e = np.asarray(offsets, dtype=float)
        self.calls = 0

    def __call__(self, root, lo, hi):
        self.calls += 1
        c, e = self.c[root], self.e[root]
        mid = _midpoints(lo, hi)
        dlo, dhi = dr.iv_sub(lo, hi, c, c)
        out = dr.iv_add(*dr.iv_sqr(dlo, dhi), e, e)
        out += dr.iv_add(*dr.iv_sqr(*dr.iv_sub(mid, mid, c, c)), e, e)
        return out + (2.0 * dlo, 2.0 * dhi)


class _Humps(BoxEvaluator):
    """s_r (t - t^2) + e_r on root r, natural extension."""

    def __init__(self, scale, offset):
        self.s, self.e = np.asarray(scale, dtype=float), np.asarray(offset, dtype=float)
        self.calls = 0

    def value(self, root, lo, hi):
        q = dr.iv_sub(lo, hi, *dr.iv_mul(lo, hi, lo, hi))
        return dr.iv_add(*dr.iv_mul(*q, self.s[root], self.s[root]),
                         self.e[root], self.e[root])

    def __call__(self, root, lo, hi):
        self.calls += 1
        mid = _midpoints(lo, hi)
        s = self.s[root]
        slope = dr.iv_mul(*dr.iv_sub(1.0, 1.0, 2.0 * lo, 2.0 * hi), s, s)
        return self.value(root, lo, hi) + self.value(root, mid, mid) + slope


class _Failing(BoxEvaluator):
    """``g`` on every root but ``bad``, whose boxes raise DomainError."""

    def __init__(self, g, bad):
        self.g, self.bad = g, bad

    def __call__(self, root, lo, hi):
        if np.any((root == self.bad) & (lo < hi)):
            raise DomainError("a box of the bad root")
        return self.g(root, lo, hi)


class TestBatchedMinMax:
    ROOTS = [Interval(0, 1), Interval(-2, 0.5), Interval(3, 3.5)]
    CENTERS = [0.3, -1.0, 3.1]
    OFFSETS = [0.5, -0.25, 0.0]

    def test_global_extrema_over_all_roots(self):
        g = _Parabolas(self.CENTERS, self.OFFSETS)
        res = subdivide_min_max(g, self.ROOTS, tol=1e-12, max_depth=60)
        assert res.converged
        assert_contains(res.m, -0.25)  # vertex of root 1
        assert_contains(res.M, 2.0)  # t = 0.5 on root 1
        assert res.m.width() <= 1e-12 and res.M.width() <= 1e-12

    def test_matches_hull_of_single_root_runs(self):
        whole = subdivide_min_max(_Parabolas(self.CENTERS, self.OFFSETS), self.ROOTS,
                                  tol=1e-10)
        for r, (c, e) in enumerate(zip(self.CENTERS, self.OFFSETS)):
            single = subdivide_min_max(_Scalar(lambda t: (t - c).sqr() + e,
                                               lambda t: (t - c) * 2.0),
                                       self.ROOTS[r], tol=1e-10)
            assert whole.m.lo <= single.m.hi and whole.M.hi >= single.M.lo
        # one evaluator call per level, not per box
        g = _Parabolas(self.CENTERS, self.OFFSETS)
        res = subdivide_min_max(g, self.ROOTS, tol=1e-10)
        assert g.calls == res.depth + 1

    def test_root_inside_the_range_stops_refining(self):
        """A root whose values cannot move m or M is dropped at once."""

        lone = subdivide_min_max(_Humps([1.0], [0.0]), [Interval(0, 1)], tol=1e-9)
        both = subdivide_min_max(_Humps([1.0, 0.1], [0.0, 0.1]),
                                 [Interval(0, 1), Interval(0.3, 0.7)], tol=1e-9)
        assert lone.depth > 10
        assert both.evaluations <= lone.evaluations + 4  # 2 points and the root box
        assert both.M.encloses(lone.M) and both.m.encloses(lone.m)
        assert_contains(both.M, 0.25)

    def test_evaluation_budget_stops_soundly(self):
        """A spent budget ends the search with converged=False and bounds
        that still enclose those of the unlimited search."""
        full = subdivide_min_max(_Parabolas(self.CENTERS, self.OFFSETS), self.ROOTS,
                                 tol=1e-12, max_depth=60)
        capped = subdivide_min_max(_Parabolas(self.CENTERS, self.OFFSETS), self.ROOTS,
                                   tol=1e-12, max_depth=60, max_evals=20)
        assert full.converged and not capped.converged
        assert 20 <= capped.evaluations < full.evaluations
        assert capped.m.encloses(full.m) and capped.M.encloses(full.M)

    SEARCHES = [  # (roots, centres or scales, offsets) of each search
        ([Interval(0, 1), Interval(-2, 0.5)], [0.3, -1.0], [0.5, -0.25]),
        ([Interval(3, 3.5)], [3.1], [0.0]),
        ([Interval(-1, 1), Interval(0.25, 0.25), Interval(2, 4)], [0.0, 0.1, 2.5], [1.0, 2.0, -3.0]),
        ([Interval(0, 1), Interval(0.3, 0.7)], [1.0, 0.1], [0.0, 0.1]),
    ]

    def _joined(self, k):
        """Field k of every search, in root order across the searches."""
        return [x for s in self.SEARCHES for x in s[k]]

    @pytest.mark.parametrize("evaluator, tol, max_evals", [
        (_Parabolas, 1e-12, 10_000_000),
        (_Humps, 1e-9, 10_000_000),
        (_Parabolas, 1e-12, 25),  # budgets stop some searches early
    ])
    def test_lockstep_equals_solo_runs(self, evaluator, tol, max_evals):
        """Searches stepped together, their roots numbered across them, each
        return the result of their solo run bit for bit, with one evaluator
        call per step: as many calls as the longest solo run."""
        g = evaluator(self._joined(1), self._joined(2))
        together = lockstep_min_max(g, [s[0] for s in self.SEARCHES], tol=tol,
                                    max_depth=60, max_evals=max_evals)
        solo_calls = []
        for (roots, a, b), got in zip(self.SEARCHES, together):
            alone = evaluator(a, b)
            want = subdivide_min_max(alone, roots, tol=tol, max_depth=60, max_evals=max_evals)
            assert repr(got) == repr(want) and got == want
            solo_calls.append(alone.calls)
        assert g.calls == max(solo_calls)

    @pytest.mark.parametrize("evaluator, tol", [(_Parabolas, 1e-12), (_Humps, 1e-9)])
    def test_lockstep_makes_one_call_per_level(self, evaluator, tol):
        """Searches stepped together make one evaluator call per level of the
        deepest: the first holds every root end as a point, the later ones
        boxes alone, whose end values are carried from earlier calls."""
        points = []

        class Spy(evaluator):
            def __call__(self, root, lo, hi):
                points.append(int(np.sum(lo == hi)))
                return super().__call__(root, lo, hi)

        g = Spy(self._joined(1), self._joined(2))
        got = lockstep_min_max(g, [s[0] for s in self.SEARCHES], tol=tol, max_depth=60)
        assert g.calls == len(points) == 1 + max(res.depth for res in got)
        ends = sum(2 - (r.lo == r.hi) for r in self._joined(0))
        assert points[0] == ends and not any(points[1:])

    def test_lockstep_keeps_a_failing_search_apart(self):
        """A search whose boxes raise ends with its own exception; the merged
        call it was in is evaluated request by request, and the others keep
        their solo results."""
        g = _Failing(_Parabolas(self._joined(1), self._joined(2)), bad=2)  # root 0 of search 1
        got = lockstep_min_max(g, [s[0] for s in self.SEARCHES], tol=1e-12, max_depth=60)
        assert isinstance(got[1], DomainError)
        for k in (0, 2, 3):
            roots, a, b = self.SEARCHES[k]
            want = subdivide_min_max(_Parabolas(a, b), roots, tol=1e-12, max_depth=60)
            assert repr(got[k]) == repr(want)
        with pytest.raises(DomainError, match="bad root"):
            subdivide_min_max(_Failing(_Parabolas([3.1], [0.0]), bad=0), [Interval(3, 3.5)])

    @pytest.mark.parametrize("cap", [1, 2])
    def test_box_cap_keeps_solo_bits_and_soundness(self, monkeypatch, cap):
        """With at most ``cap`` open boxes per search and level, searches
        stepped together still return their solo results bit for bit, and
        every m and M encloses the exact extrema: a box the cap drops is
        finalized, not lost.  The parabolas come without slopes, so that
        no box is finalized as monotone and more of them stay open."""

        class Rows(_Parabolas):
            def __call__(self, root, lo, hi):
                self.rows = getattr(self, "rows", []) + [len(root)]
                return super().__call__(root, lo, hi)[:4] + (np.full(len(root), -np.inf),
                                                             np.full(len(root), np.inf))

        def widest(roots, a, b):
            """The most rows of a call after the first, of a solo run."""
            g = Rows(a, b)
            res = subdivide_min_max(g, roots, tol=1e-12, max_depth=60)
            return res, max(g.rows[1:], default=0)

        assert any(widest(*s)[1] > 2 * cap for s in self.SEARCHES)  # the cap binds
        monkeypatch.setattr(iv, "MAX_BOXES", cap)
        got = lockstep_min_max(Rows(self._joined(1), self._joined(2)),
                               [s[0] for s in self.SEARCHES], tol=1e-12, max_depth=60)
        for (roots, cs, es), res in zip(self.SEARCHES, got):
            want, rows = widest(roots, cs, es)
            assert repr(res) == repr(want) and rows <= 2 * cap
            ends = [[(Fraction(t) - Fraction(c)) ** 2 + Fraction(e) for t in (r.lo, r.hi)]
                    for r, c, e in zip(roots, cs, es)]
            low = min(Fraction(e) if r.lo <= c <= r.hi else min(v)
                      for r, c, e, v in zip(roots, cs, es, ends))
            high = max(max(v) for v in ends)
            assert Fraction(res.m.lo) <= low <= Fraction(res.m.hi)
            assert Fraction(res.M.lo) <= high <= Fraction(res.M.hi)

    def test_scalar_and_point_roots_mix(self):
        res = subdivide_min_max(_Scalar(lambda t: t.sqr(), lambda t: t * 2.0),
                                [Interval(2, 2), Interval(-1, 1)], tol=1e-12)
        assert_contains(res.M, 4.0)
        assert_contains(res.m, 0.0)


_roots = st.one_of(
    st.floats(-4, 4).map(lambda x: Interval(x, x)),
    st.tuples(st.floats(-4, 4), st.floats(-4, 4)).map(lambda p: Interval(min(p), max(p))))
# each search: 0-3 roots, each with the centre and offset of its parabola
_searches = st.lists(st.lists(st.tuples(_roots, st.floats(-4, 4), st.floats(-2, 2)),
                              max_size=3), min_size=1, max_size=4)


@settings(max_examples=100, deadline=None)
@given(_searches, st.floats(1e-12, 1e-3), st.integers(0, 30), st.integers(1, 400), st.data())
def test_lockstep_equals_solo_runs_on_random_searches(searches, tol, max_depth, max_evals,
                                                      data):
    """Random searches (point roots among them, any tol, depth and budget)
    stepped together each return their solo result bit for bit, in as many
    evaluator calls as the longest solo run; a search without roots ends
    with the error of its solo run.  With the boxes of one root failing,
    each search still ends as it does alone: with that error, or with its
    result."""
    domains = [[r for r, _c, _e in s] for s in searches]
    starts = np.cumsum([0] + [len(d) for d in domains]).tolist()
    joined = [x for s in searches for x in s]
    kw = dict(tol=tol, max_depth=max_depth, max_evals=max_evals)

    def solo(i, bad):
        g = _Parabolas([c for _r, c, _e in searches[i]], [e for _r, _c, e in searches[i]])
        try:
            return subdivide_min_max(_Failing(g, bad - starts[i]), domains[i], **kw), g.calls
        except DomainError as err:
            return err, g.calls

    for bad in (-1, data.draw(st.integers(-1, len(joined) - 1))):
        g = _Parabolas([c for _r, c, _e in joined], [e for _r, _c, e in joined])
        got = lockstep_min_max(_Failing(g, bad), domains, **kw)
        want = [solo(i, bad if starts[i] <= bad < starts[i + 1] else -1)
                for i in range(len(domains))]
        assert [repr(x) for x in got] == [repr(w) for w, _calls in want]
        if bad < 0:
            assert g.calls == max(calls for _w, calls in want)


@settings(max_examples=200, deadline=None)
@given(intervals())
def test_mean_value_form_encloses_and_never_widens(s):
    """exp(t) sin(3t) - t^2 over s: the form lies inside g(s) and contains
    mpmath values at the ends, the centre and inside."""
    g = lambda t: t.exp() * (t * 3.0).sin() - t.sqr()
    dg = lambda t: t.exp() * ((t * 3.0).sin() + (t * 3.0).cos() * 3.0) - t * 2.0
    form, centre, slope = mean_value_form(g, dg, s)
    assert g(s).encloses(form)
    assert centre == g(Interval.point(s.mid())) and slope == dg(s)
    for t in (s.lo, s.hi, s.mid(), s.lo + 0.3 * (s.hi - s.lo)):
        t = min(max(t, s.lo), s.hi)
        exact = mp.exp(t) * mp.sin(3 * mp.mpf(t)) - mp.mpf(t) ** 2
        assert mp.mpf(form.lo) <= exact <= mp.mpf(form.hi)


@settings(max_examples=200, deadline=None)
@given(intervals())
def test_scalar_box_centre_is_the_point_value(s):
    """The centre value ``_Scalar`` returns for a box (the g(m) of
    ``mean_value_form``) equals its value at the point _midpoints(lo, hi),
    bit for bit."""
    g = lambda t: t.exp() * (t * 3.0).sin() - t.sqr()
    dg = lambda t: t.exp() * ((t * 3.0).sin() + (t * 3.0).cos() * 3.0) - t * 2.0
    ev = _Scalar(g, dg)
    lo, hi = np.array([s.lo]), np.array([s.hi])
    m = _midpoints(lo, hi)
    box, point = ev(np.zeros(1, dtype=int), lo, hi), ev(np.zeros(1, dtype=int), m, m)
    assert (box[2][0], box[3][0]) == (point[0][0], point[1][0])
    assert m[0] == s.mid()


def test_mean_value_form_removes_the_dependency_at_a_vertex():
    """t (1 - t) near 1/2: the natural form is about as wide as the box,
    the centred form about as wide as its square."""
    g = lambda t: t * (1.0 - t)
    s = Interval(0.49999, 0.50001)
    form = mean_value_form(g, lambda t: 1.0 - t * 2.0, s)[0]
    assert form.width() < 1e-4 * g(s).width()
    assert_contains(form, 0.25)


@settings(max_examples=300, deadline=None)
@given(st.integers(-10**40, 10**40), st.integers(1, 10**40))
@example(1, 4)
@example(-5, 8)
@example(2, 9)
@example(math.factorial(25), 1)
@example(10**40 + 1, 3**80)
@example(-1, 10**400)
def test_rational_is_tightest_enclosure(p, q):
    """[lo, hi] contains p/q, is a point when p/q is a float, else one ulp."""
    lo, hi = rational(p, q)
    exact = Fraction(p, q)
    assert Fraction(lo) <= exact <= Fraction(hi)
    if Fraction(lo) == exact or Fraction(hi) == exact:
        assert lo == hi
    else:
        assert hi == math.nextafter(lo, math.inf)


def test_rational_memo_follows_outward_rounding():
    assert rational(1, 3)[0] < rational(1, 3)[1]
    _set_outward_rounding(False)
    try:
        assert rational(1, 3)[0] == rational(1, 3)[1]
    finally:
        _set_outward_rounding(True)
    assert rational(1, 3)[0] < rational(1, 3)[1]


class TestSignedProducts:
    """A product of two factors of one sign keeps a zero lower end exact."""

    def test_nonnegative_and_nonpositive_factors(self):
        assert (Interval(0, 1) * Interval(0, 1)).lo == 0.0
        assert (Interval(-1, 0) * Interval(-2, 0)).lo == 0.0
        assert (Interval(0.1, 0.3) * Interval(0.7, 0.9)).lo == math.nextafter(0.1 * 0.7, -math.inf)
        assert (Interval(-1, 1) * Interval(0, 1)).lo < -1.0

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1, -0.3, 2.5, 1e-300, -7e150]),
                    min_size=4, max_size=4))
    def test_array_products_match_scalar(self, ends):
        a, b = Interval(*sorted(ends[:2])), Interval(*sorted(ends[2:]))
        want = a * b
        lo, hi = dr._iv_mul_exact01((np.array([a.lo]), np.array([a.hi])),
                                    (np.array([b.lo]), np.array([b.hi])))
        assert (lo[0], hi[0]) == (want.lo, want.hi)
        assert (math.copysign(1, lo[0]), math.copysign(1, hi[0])) == (
            math.copysign(1, want.lo), math.copysign(1, want.hi))


_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 1e308, -1e308, 0.5, -3.25]
_ends = st.one_of(st.sampled_from(_SPECIAL), st.floats(-1e6, 1e6, allow_nan=False))


@st.composite
def operands(draw):
    """An interval over the special values and random floats, often an
    exact point."""
    a, b = draw(_ends), draw(_ends)
    if draw(st.booleans()):
        return Interval(a, a)
    return Interval(min(a, b), max(a, b))


def _bits(x) -> str:
    return float(x).hex()  # tells -0.0 from 0.0


def _assert_parity(scalar, pair):
    """pair() (1-element (lo, hi) arrays) equals scalar() (an Interval) bit
    for bit, or both fail: scalar() with a DomainError, pair() with one or
    with an end that is not finite."""
    with np.errstate(all="ignore"):
        try:
            got = [float(e[0]) for e in pair()]
        except DomainError:
            got = None
    try:
        want = scalar()
    except DomainError:
        assert got is None or not all(map(math.isfinite, got)), got
        return
    assert got is not None and list(map(_bits, got)) == [_bits(want.lo), _bits(want.hi)], (
        want, got)


@settings(max_examples=400, deadline=None)
@given(operands(), operands())
@example(Interval(-5e-324, 0.0), Interval(1.0, 1.0))
@example(Interval(-0.0, -0.0), Interval(-1e308, 1e308))
def test_pair_ops_match_scalar(a, b):
    """Every parity op of ``_directed`` on (lo, hi) pairs, and
    ``_midpoints``, equals the scalar Interval op bit for bit, zero signs
    and errors included."""
    pa, pb = (np.array([a.lo]), np.array([a.hi])), (np.array([b.lo]), np.array([b.hi]))
    _assert_parity(lambda: a + b, lambda: dr._iv_add_exact0(pa, pb))
    _assert_parity(lambda: a - b, lambda: dr._iv_sub_exact0(pa, pb))
    _assert_parity(lambda: -a, lambda: dr._iv_neg(pa))
    _assert_parity(lambda: a * b, lambda: dr._iv_mul_exact01(pa, pb))
    _assert_parity(lambda: a / b, lambda: dr._iv_div(pa, pb))
    _assert_parity(a.sqr, lambda: dr.iv_sqr(*pa))
    _assert_parity(a.sqrt, lambda: dr._iv_sqrt(pa))
    for e in range(6):
        _assert_parity(lambda: a.pow_int(e), lambda: dr._iv_powers(pa, 5)[e])
    for name, fn in (("log", math.log), ("exp", math.exp), ("atan", math.atan)):
        _assert_parity(getattr(a, name), lambda: dr._iv_libm(fn, pa))
    assert _bits(_midpoints(*pa)[0]) == _bits(a.mid())


def _random_rows(rng, longest):
    """12 rows of 0 to ``longest`` terms of wide magnitudes: some mostly
    -0.0, some whose running sum cancels, so that the rounding errors
    decide the sum."""
    counts = rng.integers(0, longest + 1, 12)
    counts[rng.integers(12)] = longest
    terms = []
    for k in counts.tolist():
        row = rng.standard_normal(k) * 10.0 ** rng.integers(-20, 20, k)
        if rng.random() < 0.3:
            row = np.where(rng.random(k) < 0.7, -0.0, row)
        elif k > 1 and rng.random() < 0.5:  # the running sum cancels: errors decide
            row[-1] = -np.cumsum(row[:-1])[-1]
        terms.append(row)
    return terms


def _class_sums(rows, hi_rows):
    """Bounds of the sums of ``rows`` (lower) and ``hi_rows`` (upper),
    each class of ``_width_classes`` padded with -0.0 to its longest row
    and summed in one pass; None for empty rows."""
    lengths = np.array([len(row) for row in rows])
    out = [None] * len(rows)
    classes = dr._width_classes(lengths)
    assert sorted(np.concatenate(classes).tolist()) == np.flatnonzero(lengths).tolist()
    for members in classes:
        grid = np.full((2, len(members), int(lengths[members].max())), -0.0)
        for r, m in enumerate(members.tolist()):
            grid[0, r, :lengths[m]], grid[1, r, :lengths[m]] = rows[m], hi_rows[m]
        lo, hi = dr._iv_sums(grid, lengths=lengths[members])
        for r, m in enumerate(members.tolist()):
            out[m] = (lo[r], hi[r])
    return out


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 5, 8, 9, 16, 17, 40, 129, 130, 300, 1100]))
def test_width_class_rows_match_each_row_alone(seed, longest):
    """Rows of one ``_width_classes`` class, padded to a common length and
    summed in one pass, get the bounds ``_row_sums(exact=True)`` gives
    each row alone, bit for bit and sign of zero included, also where a
    row's sum cancels and the rounding errors decide, and for rows of
    -0.0."""
    rng = np.random.default_rng(seed)
    terms = _random_rows(rng, longest)
    terms[rng.integers(12)] = np.full(rng.integers(1, longest + 1), -0.0)
    got = _class_sums(terms, [-row for row in terms])
    for r, row in enumerate(terms):
        if not len(row):
            assert got[r] is None
            continue
        want = dr._row_sums(np.stack((row, -row)), exact=True)
        for g, w in ((got[r][0], want[0][0]), (got[r][1], want[1][1])):
            assert g == w and np.signbit(g) == np.signbit(w), (r, len(row))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 5, 9, 40, 129, 300, 1100]))
def test_width_class_rows_match_zero_padded_rows(seed, length):
    """Trailing zeros add no rounding error, so a row summed in its width
    class and the same row zero-padded to ``length`` and summed by
    ``_iv_sums`` both enclose the exact sum, and are equal wherever the
    sum is exact.  (Other bits may differ: the a-priori factor and numpy's
    pairwise grouping of the error sum depend on the row width.)"""
    rng = np.random.default_rng(seed)
    terms = _random_rows(rng, length)
    got = _class_sums(terms, terms)
    grid = np.zeros((2, 12, length))
    for r, row in enumerate(terms):
        grid[:, r, :len(row)] = row
    want = dr._iv_sums(grid)
    for r, row in enumerate(terms):
        s = math.fsum(row.tolist())  # correctly rounded, so lo <= s <= hi holds for bounds
        lo, hi = got[r] if got[r] is not None else (0.0, 0.0)
        assert lo <= s <= hi and want[0][r] <= s <= want[1][r], (r, len(row))
        if want[0][r] == want[1][r]:
            assert lo == hi == want[0][r], (r, len(row))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_iv_dot_rows_with_own_weights_match_each_row_alone(seed):
    """``iv_dot`` of stacked rows, each with its own weight row (2-D
    weights, and weights broadcast over a middle axis as the boundary
    kernel's expansion sums them), equals the dot of one row at a time,
    bit for bit and sign of zero included; weights of 0 and +-1 and sums
    that cancel are among them."""
    rng = np.random.default_rng(seed)
    n, p, k = 7, 4, int(rng.integers(1, 80))
    w = rng.standard_normal((n, k)) * 10.0 ** rng.integers(-8, 8, (n, k))
    w[rng.random((n, k)) < 0.2] = rng.choice([0.0, -0.0, 1.0, -1.0])
    lo = rng.standard_normal((n, p, k)) * 10.0 ** rng.integers(-10, 10, (n, p, k))
    lo[rng.random((n, p, k)) < 0.1] = -0.0
    hi = lo + np.abs(rng.standard_normal((n, p, k))) * 1e-6
    hi[..., -1] = lo[..., -1] = -np.sum(lo[..., :-1] * w[:, None, :-1], axis=-1) / np.where(
        w[:, None, -1] == 0.0, 1.0, w[:, None, -1])
    got = dr.iv_dot(w[:, None, :], lo, hi)
    flat = dr.iv_dot(w, lo[:, 0], hi[:, 0])
    for r in range(n):
        alone = dr.iv_dot(w[r], lo[r], hi[r])  # 1-D weights, p rows
        for g, want in zip(got, alone):
            assert g[r].tobytes() == want.tobytes(), (r, k)
        for g, want in zip(flat, dr.iv_dot(w[r], lo[r, 0], hi[r, 0])):
            assert _bits(g[r]) == _bits(want), (r, k)


def test_trig_of_points_match_scalar():
    t = np.concatenate([np.linspace(-20.0, 20.0, 401), [0.0, -0.0, 1e15, -3e8],
                        HALF_PI.lo * np.arange(-12, 13), PI.hi * np.arange(-12, 13)])
    for fn, name in ((math.sin, "sin"), (math.cos, "cos")):
        lo, hi = dr._iv_trig_points(fn, t)
        for x, a, b in zip(t.tolist(), lo.tolist(), hi.tolist()):
            want = getattr(Interval.point(x), name)()
            assert (a, b) == (want.lo, want.hi), (name, x)


# ---------------------------------------------------------------------------
# Integer ulp steps and constants
# ---------------------------------------------------------------------------


def _special_floats():
    """Bit patterns a one-ulp step treats specially: both zeros, the
    infinities, NaNs of either sign with the smallest, largest and some
    quiet and signaling payloads, the subnormal and normal extremes, and
    +-1."""
    bits = [0, 1, 2, 0x000F_FFFF_FFFF_FFFF, 0x0010_0000_0000_0000, 0x3FF0_0000_0000_0000,
            0x7FEF_FFFF_FFFF_FFFF, 0x7FF0_0000_0000_0000, 0x7FF0_0000_0000_0001,
            0x7FF4_0000_0000_0000, 0x7FF8_0000_0000_0000, 0x7FF8_0000_0000_0001,
            0x7FFF_FFFF_FFFF_FFFF]
    bits += [b | (1 << 63) for b in bits]
    return np.array(bits, dtype=np.uint64).view(np.int64)


@pytest.mark.parametrize("size", [40, dr._ULP_STEP_MIN - 1, dr._ULP_STEP_MIN, 3000])
@pytest.mark.parametrize("outward", [True, False])
def test_ulp_steps_equal_nextafter(size, outward):
    """``next_down``/``next_up`` equal ``np.nextafter`` bit for bit below
    and above the size where they switch to the integer step, on every
    special pattern and on random int64 bit patterns; with outward
    rounding off they return x itself."""
    rng = np.random.default_rng(size)
    special = _special_floats()
    bits = np.concatenate([special, rng.integers(-2**63, 2**63 - 1, size, dtype=np.int64,
                                                 endpoint=True)])[:max(size, len(special))]
    bits[:len(special)] = special
    x = rng.permutation(bits).view(np.float64)
    before = x.copy()
    _set_outward_rounding(outward)
    try:
        for fn, target in ((dr.next_down, -np.inf), (dr.next_up, np.inf)):
            with np.errstate(over="ignore", invalid="ignore"):
                got = fn(x)
                want = np.nextafter(x, target) if outward else x
            assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
    finally:
        _set_outward_rounding(True)
    assert before.view(np.int64).tolist() == x.view(np.int64).tolist()  # x itself is kept


@pytest.mark.parametrize("size", [0, 1, 40, 3000])
def test_nudged_sums_equal_nextafter_of_inexact_sums(size):
    """``_sum_down``/``_sum_up`` step an inexact sum with an integer add;
    the result is the ``np.nextafter`` step wherever the TwoSum error
    points outward, also for sums that overflow, cancel to zero or land
    among the subnormals."""
    rng = np.random.default_rng(size)
    mags = 10.0 ** rng.integers(-320, 309, (2, size))
    a, b = rng.standard_normal((2, size)) * mags
    b[::7] = -a[::7]  # exact zero sums
    b[1::7] = np.where(np.abs(a[1::7]) > 1e300, a[1::7], 1e308)  # overflows
    b[2::7] = a[2::7] * -(1.0 - 2.0**-52)  # subnormal and tiny differences
    with np.errstate(over="ignore", invalid="ignore"):
        s = a + b
        bv = s - a
        err = (a - (s - bv)) + (b - bv)
        want_lo = np.where(err < 0.0, np.nextafter(s, -np.inf), s)
        want_hi = np.where(err > 0.0, np.nextafter(s, np.inf), s)
        got_lo, got_hi = dr._sum_down(a, b), dr._sum_up(a, b)
    assert got_lo.view(np.int64).tolist() == want_lo.view(np.int64).tolist()
    assert got_hi.view(np.int64).tolist() == want_hi.view(np.int64).tolist()


def _ulps_apart(lo: float, hi: float) -> int:
    return int(np.array(hi).view(np.int64)) - int(np.array(lo).view(np.int64))


def test_rigorous_constants_contain_their_values():
    """Each constant built inline contains its 50-digit value, and the pi
    family is one ulp wide: a constant rounded to nearest, or nudged the
    wrong way, fails here."""
    from greenbound import fundsol, interval, mfs

    with mp.workdps(50):
        pi = +mp.pi
        cases = [(interval.PI, pi), (interval.TWO_PI, 2 * pi), (interval.HALF_PI, pi / 2),
                 (fundsol.INV_2PI, 1 / (2 * pi)), (fundsol.INV_4PI, 1 / (4 * pi)),
                 (fundsol.NEG_INV_2PI, -1 / (2 * pi)), (fundsol.NEG_INV_4PI, -1 / (4 * pi))]
        for j in range(1, mfs.EXPANSION_DEGREE + 1):
            cases.append((Interval(mfs._VALUE_COEFS[0][j - 1], mfs._VALUE_COEFS[1][j - 1]),
                          (-1) ** j / (2 * pi * j)))
            cases.append((Interval(mfs._DERIV_COEFS[0][j - 1], mfs._DERIV_COEFS[1][j - 1]),
                          (-1) ** j / (2 * pi)))
        for c, exact in cases:
            assert mp.mpf(c.lo) < exact < mp.mpf(c.hi), (c, exact)
    for c in (interval.PI, interval.TWO_PI, interval.HALF_PI):
        assert _ulps_apart(c.lo, c.hi) == 1, c
