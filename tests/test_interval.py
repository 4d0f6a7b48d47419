import math
import operator
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from greenbound import _directed as dr
from greenbound.errors import DomainError
from greenbound.interval import (
    HALF_PI,
    PI,
    BoxEvaluator,
    Interval,
    _set_outward_rounding,
    _midpoints,
    hull,
    intersect,
    mean_value_form,
    rational,
    subdivide_min_max,
)

from conftest import assert_contains


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
def test_containment_random(a, b):
    """Midpoint arithmetic in extended precision lies inside the result."""
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


class TestSubdivideMinMax:
    def test_constant(self):
        res = subdivide_min_max(lambda t: Interval(5, 5), Interval(0, 1),
                                g_prime=lambda t: Interval(0, 0))
        assert res.m == Interval(5, 5) and res.M == Interval(5, 5)
        assert res.converged

    def test_parabola(self):
        res = subdivide_min_max(
            lambda t: t * (1.0 - t),
            Interval(0, 1),
            tol=1e-10,
            g_prime=lambda t: 1.0 - t * 2.0,
        )
        assert_contains(res.M, 0.25)
        assert_contains(res.m, 0.0)
        assert res.converged
        assert res.M.width() <= 1e-10

    def test_sine(self):
        res = subdivide_min_max(
            lambda t: t.sin(), Interval(0, 1), tol=1e-12, g_prime=lambda t: t.cos()
        )
        assert_contains(res.M, float(mp.sin(1)))
        assert res.M.width() <= 1e-12
        assert_contains(res.m, 0.0)

    def test_sandwich_property(self):
        g = lambda t: (t * 3.0).sin() + t.sqr()
        dg = lambda t: (t * 3.0).cos() * 3.0 + t * 2.0
        res = subdivide_min_max(g, Interval(0, 2), tol=1e-8, max_depth=30, g_prime=dg)
        for k in range(101):
            t = 2.0 * k / 100
            v = g(Interval.point(t))
            assert res.m.lo <= v.hi and v.lo <= res.M.hi

    def test_domain_error_propagates(self):
        with pytest.raises(DomainError):
            subdivide_min_max(lambda t: t.log(), Interval(0, 1), g_prime=lambda t: 1.0 / t)

    def test_degenerate_domain(self):
        res = subdivide_min_max(lambda t: t.sqr(), Interval(2, 2),
                                g_prime=lambda t: t * 2.0)
        assert_contains(res.M, 4.0)

    def test_tol_validation(self):
        with pytest.raises(DomainError):
            subdivide_min_max(lambda t: t, Interval(0, 1), tol=0.0,
                              g_prime=lambda t: Interval(1, 1))

    def test_scalar_g_without_derivative_is_rejected(self):
        with pytest.raises(DomainError, match="g_prime"):
            subdivide_min_max(lambda t: t.sqr(), Interval(0, 1))


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
            single = subdivide_min_max(lambda t: (t - c).sqr() + e, self.ROOTS[r],
                                       tol=1e-10, g_prime=lambda t: (t - c) * 2.0)
            assert whole.m.lo <= single.m.hi and whole.M.hi >= single.M.lo
        # one evaluator call per level (boxes, then points), not per box
        g = _Parabolas(self.CENTERS, self.OFFSETS)
        res = subdivide_min_max(g, self.ROOTS, tol=1e-10)
        assert g.calls <= 2 * res.depth + 3

    def test_root_inside_the_range_stops_refining(self):
        """A root whose values cannot move m or M is dropped at once."""

        class Humps(BoxEvaluator):  # s_r (t - t^2) + e_r, natural extension
            def __init__(self, scale, offset):
                self.s, self.e = np.asarray(scale), np.asarray(offset)

            def value(self, root, lo, hi):
                q = dr.iv_sub(lo, hi, *dr.iv_mul(lo, hi, lo, hi))
                return dr.iv_add(*dr.iv_mul(*q, self.s[root], self.s[root]),
                                 self.e[root], self.e[root])

            def __call__(self, root, lo, hi):
                mid = _midpoints(lo, hi)
                s = self.s[root]
                slope = dr.iv_mul(*dr.iv_sub(1.0, 1.0, 2.0 * lo, 2.0 * hi), s, s)
                return self.value(root, lo, hi) + self.value(root, mid, mid) + slope

        lone = subdivide_min_max(Humps([1.0], [0.0]), [Interval(0, 1)], tol=1e-9)
        both = subdivide_min_max(Humps([1.0, 0.1], [0.0, 0.1]),
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

    def test_scalar_and_point_roots_mix(self):
        res = subdivide_min_max(lambda t: t.sqr(), [Interval(2, 2), Interval(-1, 1)],
                                g_prime=lambda t: t * 2.0, tol=1e-12)
        assert_contains(res.M, 4.0)
        assert_contains(res.m, 0.0)


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


def test_hull_intersect():
    a, b = Interval(0, 2), Interval(1, 3)
    assert hull(a, b) == Interval(0, 3)
    assert intersect(a, b) == Interval(1, 2)
    with pytest.raises(DomainError):
        intersect(Interval(0, 1), Interval(2, 3))


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


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 5, 9, 40, 129, 300, 1100]))
def test_ragged_row_sums_match_each_row_alone(seed, longest):
    """Each ragged row's bounds equal, bit for bit and sign of zero
    included, those ``_row_sums(exact=True)`` gives that row alone, also
    where a row's sum cancels and the rounding errors decide, and for rows
    of -0.0; empty rows sum to 0.0."""
    rng = np.random.default_rng(seed)
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
    terms[rng.integers(12)] = np.full(rng.integers(1, longest + 1), -0.0)
    counts = np.array([len(row) for row in terms])
    flat = np.concatenate(terms)
    got = dr._ragged_row_sums(flat, -flat, np.repeat(np.arange(12), counts), counts, 64)
    for r, row in enumerate(terms):
        want = dr._row_sums(np.stack((row, -row)), exact=True)
        for g, w in ((got[0][r], want[0][0]), (got[1][r], want[1][1])):
            assert g == w and np.signbit(g) == np.signbit(w), (r, len(row))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([1, 5, 9, 40, 129, 300, 1100]))
def test_ragged_row_sums_match_padded_rows(seed, length):
    """Trailing zeros add no rounding error, so a compact ragged row and
    the same row zero-padded to ``length`` and summed by ``_iv_sums`` both
    enclose the exact sum, and are equal wherever the sum is exact.  (Other
    bits may differ: the a-priori factor and numpy's pairwise grouping of
    the error sum depend on the row width.)"""
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, length + 1, 12)
    counts[rng.integers(12)] = length
    terms = []
    for k in counts.tolist():
        row = rng.standard_normal(k) * 10.0 ** rng.integers(-20, 20, k)
        if rng.random() < 0.3:
            row = np.where(rng.random(k) < 0.7, -0.0, row)
        elif k > 1 and rng.random() < 0.5:  # the running sum cancels: errors decide
            row[-1] = -np.cumsum(row[:-1])[-1]
        terms.append(row)
    flat = np.concatenate(terms)
    got = dr._ragged_row_sums(flat, flat, np.repeat(np.arange(12), counts), counts, 64)
    grid = np.zeros((2, 12, length))
    for r, row in enumerate(terms):
        grid[:, r, :len(row)] = row
    want = dr._iv_sums(grid)
    for r, row in enumerate(terms):
        s = math.fsum(row.tolist())  # correctly rounded, so lo <= s <= hi holds for bounds
        assert got[0][r] <= s <= got[1][r] and want[0][r] <= s <= want[1][r], (r, len(row))
        if want[0][r] == want[1][r]:
            assert got[0][r] == got[1][r] == want[0][r], (r, len(row))


def test_trig_of_points_match_scalar():
    t = np.concatenate([np.linspace(-20.0, 20.0, 401), [0.0, -0.0, 1e15, -3e8],
                        HALF_PI.lo * np.arange(-12, 13), PI.hi * np.arange(-12, 13)])
    for fn, name in ((math.sin, "sin"), (math.cos, "cos")):
        lo, hi = dr._iv_trig_points(fn, t)
        for x, a, b in zip(t.tolist(), lo.tolist(), hi.tolist()):
            want = getattr(Interval.point(x), name)()
            assert (a, b) == (want.lo, want.hi), (name, x)
