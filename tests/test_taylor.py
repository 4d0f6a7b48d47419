import math
import random
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenbound import interval as iv
from greenbound.errors import DomainError, UnsupportedError
from greenbound.expr import parse
from greenbound.interval import Box2, Interval, intersect
from greenbound.taylor import (MAX_DEGREE, TaylorModel2, _factorial, _monomial_table,
                              _series_and_remainder, tm_compose_elem, tm_from_expr)

from conftest import assert_contains


def box(u_hi=0.5, k_lo=0.0, k_hi=1.0):
    return Box2(Interval(0.0, u_hi), Interval(k_lo, k_hi))


def sample_ok(tm, fn, n=100, seed=0):
    """fn(u, k) must lie inside the model evaluation at (u, k)."""
    rng = random.Random(seed)
    for _ in range(n):
        u = rng.uniform(tm.box.u.lo, tm.box.u.hi)
        k = rng.uniform(tm.box.k.lo, tm.box.k.hi)
        val = fn(u, k)
        enc = tm.eval(Interval.point(u), Interval.point(k))
        assert enc.lo <= val <= enc.hi, (u, k, val, enc)


class TestConstruction:
    def test_constant_one(self):
        tm = tm_from_expr(parse("1"), box(), (8, 8))
        assert tm.coefficient(0, 0) == Interval(1, 1)
        assert sum(1 for _ in tm.nonzero_terms()) == 1

    def test_linear_exact(self):
        tm = tm_from_expr(parse("x+y"), box(), (4, 4))
        assert_contains(tm.coefficient(0, 1), 1.0)  # u term
        assert_contains(tm.coefficient(1, 1), 1.0)  # ku term
        assert tm.coefficient(0, 0).width() == 0.0

    def test_sin_xy_enclosure(self):
        tm = tm_from_expr(parse("sin(x*y)"), box(0.5, 0.0, 1.0), (4, 4))
        sample_ok(tm, lambda u, k: float(mp.sin(mp.mpf(u) * (k * u))))

    def test_nonsmooth_rejected(self):
        with pytest.raises(UnsupportedError):
            tm_from_expr(parse("abs(x)"), box(), (4, 4))


class TestArith:
    def test_add_encloses_sum(self):
        f, g = parse("x^2"), parse("sin(y)")
        a = tm_from_expr(f, box(), (6, 6))
        b = tm_from_expr(g, box(), (6, 6))
        s = a + b
        sample_ok(s, lambda u, k: u * u + float(mp.sin(k * u)))

    def test_mul_truncation_sound(self):
        # (1 + u)^6 at degrees (2, 2): truncated but still an enclosure
        base = tm_from_expr(parse("1+x"), box(0.5), (2, 2))
        p = base.pow_int(6)
        sample_ok(p, lambda u, k: (1 + u) ** 6)

    def test_division(self):
        tm = tm_from_expr(parse("1/(2+x)"), box(0.5), (6, 6))
        sample_ok(tm, lambda u, k: 1.0 / (2.0 + u))

    def test_box_mismatch(self):
        a = tm_from_expr(parse("x"), box(0.5), (4, 4))
        b = tm_from_expr(parse("x"), box(0.25), (4, 4))
        with pytest.raises(DomainError):
            a + b


class TestCompose:
    def test_exp_of_zero(self):
        zero = TaylorModel2.constant(Interval(0, 0), box(), (4, 4))
        e = tm_compose_elem("exp", zero)
        assert_contains(e.range_enclosure(), 1.0)

    def test_sin_of_u(self):
        tm = tm_compose_elem("sin", TaylorModel2.variable_u(box(1.0), (8, 8)))
        enc = tm.eval(Interval.point(0.3), Interval.point(0.5))
        assert_contains(enc, float(mp.sin(mp.mpf("0.3"))))
        # Lagrange remainder at order 8 over [0,1]: (1/2)^9/9! ~ 5e-9
        assert enc.width() < 1e-7

    def test_log_requires_positive_range(self):
        tm = TaylorModel2.variable_u(box(1.0), (4, 4))
        with pytest.raises(DomainError):
            tm_compose_elem("log", tm)

    def test_order_above_the_series_tables_rejected(self):
        tm = TaylorModel2.variable_u(box(1.0), (1, MAX_DEGREE + 1)) + 2.0
        with pytest.raises(DomainError, match="MAX_DEGREE"):
            tm_compose_elem("sqrt", tm)

    def test_sqrt(self):
        tm = tm_compose_elem(
            "sqrt", TaylorModel2.variable_u(box(1.0), (8, 8)) + Interval(4.0, 4.0)
        )
        sample_ok(tm, lambda u, k: math.sqrt(4.0 + u))

    @pytest.mark.parametrize("t0", [0.3, 1.7, 4.0 + 1.0 / 3.0, 10.1])
    def test_sqrt_series_coefficients_exact(self, t0):
        """Every coefficient encloses binom(1/2, p) t0^(1/2 - p) exactly."""
        coeffs, _ = _series_and_remainder("sqrt", t0, Interval(t0 * 0.9, t0 * 1.1), 12)
        with mp.workdps(60):
            t = mp.mpf(t0)
            for p, c in enumerate(coeffs):
                want = mp.binomial(mp.mpf(1) / 2, p) * t ** (mp.mpf(1) / 2 - p)
                assert mp.mpf(c.lo) <= want <= mp.mpf(c.hi), (p, c, want)


_EXPRS = [
    "1", "x", "y", "x+y", "x*y", "x^2-y^3", "sin(x)", "cos(x*y)",
    "exp(x-y)", "x*sin(y)+1", "(x+2)*(y-3)", "1/(x+3)",
]


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(_EXPRS),
    st.floats(0.1, 1.0),
    st.floats(-1.0, 0.0),
    st.floats(0.1, 1.0),
)
def test_enclosure_property_grid(text, u_hi, k_lo, k_span):
    """Spec invariant: 30x30 sample grid lies inside every constructed model."""
    f = parse(text)
    b = Box2(Interval(0.0, u_hi), Interval(k_lo, k_lo + k_span))
    tm = tm_from_expr(f, b, (8, 8))
    for i in range(30):
        for j in range(30):
            u = b.u.lo + (b.u.hi - b.u.lo) * i / 29
            k = b.k.lo + (b.k.hi - b.k.lo) * j / 29
            val = f.eval_point(u, k * u)
            enc = tm.eval(Interval.point(u), Interval.point(k))
            assert enc.lo <= val <= enc.hi


def test_degree_increase_keeps_enclosure_and_shrinks():
    f = parse("sin(x*y)+exp(x)")
    b = box(0.5)
    widths = []
    for deg in (4, 6, 8):
        tm = tm_from_expr(f, b, (deg, deg))
        sample_ok(tm, lambda u, k: float(mp.sin(mp.mpf(u) * k * u) + mp.exp(mp.mpf(u))), n=40)
        widths.append(tm.range_enclosure().width())
    assert widths[2] <= widths[0] + 1e-12


# ---------------------------------------------------------------------------
# Independent oracles for the array core
# ---------------------------------------------------------------------------

GRAZING = Box2(Interval(0.0, 1e-3), Interval(-1e3, 1e3))


def _monomial_range_ref(b, i, j):
    """Scalar coupled-and-decoupled range of k^i u^j (the per-monomial form)."""
    if i == 0 and j == 0:
        return Interval(1.0, 1.0)
    ku = b.k * b.u
    if j >= i:
        coupled = ku.pow_int(i) * b.u.pow_int(j - i)
    else:
        coupled = ku.pow_int(j) * b.k.pow_int(i - j)
    return intersect(coupled, b.k.pow_int(i) * b.u.pow_int(j))


def _point_model(rng, b, deg, top):
    """Model of degrees ``deg`` with random point coefficients up to ``top``."""
    clo = np.zeros((deg[0] + 1, deg[1] + 1))
    for i in range(top[0] + 1):
        for j in range(top[1] + 1):
            if rng.random() < 0.8:
                clo[i, j] = rng.uniform(-2.0, 2.0)
    return TaylorModel2(clo, clo.copy(), b)


def _convolution_violations(seed, b, top):
    """Coefficients of products of point models that miss the exact
    rational convolution (the constant term only when nothing overflows)."""
    rng = random.Random(seed)
    deg, bad = (4, 4), 0
    for _ in range(20):
        p, q = _point_model(rng, b, deg, top), _point_model(rng, b, deg, top)
        prod = p * q
        exact = {}
        for i1, j1, a in p.nonzero_terms():
            for i2, j2, c in q.nonzero_terms():
                key = (i1 + i2, j1 + j2)
                exact[key] = exact.get(key, Fraction(0)) + Fraction(a.lo) * Fraction(c.lo)
        overflow = any(i > deg[0] or j > deg[1] for i, j in exact)
        for (i, j), want in exact.items():
            if i > deg[0] or j > deg[1] or ((i, j) == (0, 0) and overflow):
                continue
            got = prod.coefficient(i, j)
            bad += not (Fraction(got.lo) <= want <= Fraction(got.hi))
    return bad


def _grid_violations(b):
    """Product and composition models against 30-digit values on a 30x30 grid."""
    f, g = parse("sin(x*y) + x - 0.3"), parse("exp(x - y) * (1 + x*y)")
    a, c = tm_from_expr(f, b, (6, 6)), tm_from_expr(g, b, (6, 6))
    models = [(a * c, lambda u, y: (mp.sin(u * y) + u - mp.mpf("0.3"))
               * mp.exp(u - y) * (1 + u * y)),
              (tm_compose_elem("cos", a * a), lambda u, y: mp.cos(
                  (mp.sin(u * y) + u - mp.mpf("0.3")) ** 2))]
    bad = 0
    with mp.workdps(30):
        for tm, fn in models:
            for p in range(30):
                for q in range(30):
                    u = b.u.lo + (b.u.hi - b.u.lo) * p / 29
                    k = b.k.lo + (b.k.hi - b.k.lo) * q / 29
                    enc = tm.eval(Interval.point(u), Interval.point(k))
                    want = fn(mp.mpf(u), mp.mpf(k) * u)
                    bad += not (mp.mpf(enc.lo) <= want <= mp.mpf(enc.hi))
    return bad


class TestArrayCore:
    @pytest.mark.parametrize("b", [box(0.5, -1.0, 1.0), GRAZING])
    @pytest.mark.parametrize("top", [(2, 2), (3, 4)])
    def test_product_encloses_exact_convolution(self, b, top):
        assert _convolution_violations(0, b, top) == 0

    @pytest.mark.parametrize("b", [box(0.5, -1.0, 1.0), GRAZING])
    def test_product_and_compose_enclose_mpmath_grid(self, b):
        assert _grid_violations(b) == 0

    def test_grazing_box_overflows_most_products(self):
        c = tm_from_expr(parse("exp(x - y) * (1 + x*y)"), GRAZING, (6, 6))
        i, j = np.nonzero((c.clo != 0.0) | (c.chi != 0.0))
        over = (i[:, None] + i > 6) | (j[:, None] + j > 6)
        assert over.mean() > 0.5

    @pytest.mark.parametrize("b", [box(0.5, -1.0, 1.0), GRAZING,
                                   Box2(Interval(0.0, 0.25), Interval(0.0, 0.0))])
    def test_table_matches_scalar_ranges(self, b):
        lo, hi = _monomial_table(b, 12, 12)
        for i in range(13):
            for j in range(13):
                assert Interval(lo[i, j], hi[i, j]) == _monomial_range_ref(b, i, j)

    @pytest.mark.parametrize("text", _EXPRS)
    @pytest.mark.parametrize("b", [box(0.5, -1.0, 1.0), GRAZING])
    def test_range_no_wider_than_per_monomial_sum(self, text, b):
        tm = tm_from_expr(parse(text), b, (6, 6))
        ref = Interval(0.0, 0.0)
        for i, j, c in tm.nonzero_terms():
            ref = ref + c * _monomial_range_ref(b, i, j)
        got = tm.range_enclosure()
        assert got.width() <= ref.width()
        for u, k in [(b.u.lo, b.k.lo), (b.u.hi, b.k.hi), (b.u.hi / 3, b.k.lo / 7)]:
            assert_contains(got, parse(text).eval_point(u, k * u))

    def test_outward_rounding_is_what_makes_products_contain(self):
        iv._set_outward_rounding(False)
        try:
            bad = _convolution_violations(0, box(0.5, -1.0, 1.0), (3, 4))
        finally:
            iv._set_outward_rounding(True)
        assert bad > 0


@pytest.mark.parametrize("p", range(20, 31))
def test_factorial_encloses_exact_integer(p):
    fac = _factorial(p)
    exact = math.factorial(p)
    assert Fraction(fac.lo) <= exact <= Fraction(fac.hi)
    assert (fac.lo == fac.hi) == (p <= 22)
    assert (float(exact) == exact) == (p <= 22)
