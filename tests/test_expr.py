import math

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenbound.errors import DomainError, ParseError, UnsupportedError
from greenbound.expr import Bin, Call, Num, PiecewiseSource1D, Pow, Var, eval_tm, parse
from greenbound.interval import Interval
from greenbound.taylor import Boxes, TaylorModel2

ONE = Interval(1.0, 1.0)

from conftest import assert_contains


class TestParse:
    def test_constant(self):
        f = parse("1")
        assert isinstance(f.root, Num)
        assert f.eval_point(0.3) == 1.0

    def test_polynomial_source(self):
        f = parse("(x-0.125)^2+(y-0.25)^3")
        assert isinstance(f.root, Bin) and f.root.op == "+"
        assert isinstance(f.root.left, Pow) and f.root.left.exponent == 2
        assert isinstance(f.root.right, Pow) and f.root.right.exponent == 3
        assert f.eval_point(0.125, 0.25) == 0.0

    def test_trig_source(self):
        f = parse("x + sin((x+0.5)*y^2)")
        assert f.eval_point(0.0, 0.0) == 0.0
        got = f.eval_point(0.3, -0.2)
        assert abs(got - float(0.3 + mp.sin(0.8 * 0.04))) < 1e-15

    def test_precedence_and_unary(self):
        assert parse("-x^2").eval_point(3.0) == -9.0
        assert parse("2+3*4").eval_point(0.0) == 14.0
        assert parse("2*3^2").eval_point(0.0) == 18.0
        assert parse("-2-3").eval_point(0.0) == -5.0

    def test_min_max(self):
        f = parse("min(x, y) + max(x, 0)")
        assert f.eval_point(2.0, -1.0) == 1.0

    def test_errors_carry_position(self):
        with pytest.raises(ParseError):
            parse("")
        with pytest.raises(ParseError) as e:
            parse("x + ")
        assert e.value.position is not None
        with pytest.raises(ParseError):
            parse("foo(x)")
        with pytest.raises(ParseError):
            parse("sin(x, y)")
        with pytest.raises(ParseError):
            parse("x ^ 2.5")
        with pytest.raises(ParseError):
            parse("x + * y")
        with pytest.raises(ParseError):
            parse("x 3")
        with pytest.raises(ParseError):
            parse("x @ y")
        with pytest.raises(ParseError):
            parse("x + 1e400")

    def test_variables(self):
        assert parse("x*y").variables() == {"x", "y"}
        assert parse("sin(x)").variables() == {"x"}

    def test_literal_widening(self):
        exact = parse("0.125").root
        assert exact.ilo == exact.ihi == 0.125
        inexact = parse("0.1").root
        assert inexact.ilo < 0.1 < inexact.ihi or (
            inexact.ilo < inexact.ihi and inexact.ilo <= 0.1 <= inexact.ihi
        )
        assert inexact.ihi - inexact.ilo > 0.0


class TestBackends:
    def test_point_in_interval(self):
        f = parse("x + sin((x+0.5)*y^2)")
        p = f.eval_point(0.3, -0.2)
        iv = f.eval_interval(Interval.point(0.3), Interval.point(-0.2))
        assert_contains(iv, p)

    def test_division_by_zero(self):
        f = parse("1/x")
        with pytest.raises(DomainError):
            f.eval_point(0.0)
        with pytest.raises(DomainError):
            f.eval_interval(Interval(-1, 1))

    def test_missing_y(self):
        with pytest.raises(DomainError):
            parse("y").eval_point(0.0)

    def test_tm_backend_rejects_nonsmooth(self):
        f = parse("min(x, y)")
        b = Boxes(0.0, 1.0, 0.0, 1.0)
        x = TaylorModel2.affine(b, (4, 4), coef_u=ONE)
        y = TaylorModel2.affine(b, (4, 4), coef_ku=ONE)
        with pytest.raises(UnsupportedError):
            eval_tm(f, x, y)

    def test_interval_min_max(self):
        f = parse("min(x, y)")
        r = f.eval_interval(Interval(0, 2), Interval(1, 3))
        assert r.lo == 0.0 and r.hi == 2.0


_exprs = st.sampled_from(
    [
        "x", "y", "x+y", "x*y-1", "sin(x)+cos(y)", "exp(x*y)",
        "(x-0.5)^2", "x/(y+4)", "max(x, y)", "abs(x-y)",
        "sqrt(x*x + y*y + 1)", "log(x*x + 1)", "(y+3)^-2", "-x + -(x*y)",
        "max(x, y, 0.5)", "min(x, -y, sin(x))",
    ]
)


@settings(max_examples=200, deadline=None)
@given(_exprs, st.floats(-2, 2), st.floats(-2, 2))
def test_backend_consistency(text, x, y):
    """Point evaluation lies inside degenerate-box interval evaluation."""
    f = parse(text)
    p = f.eval_point(x, y)
    iv = f.eval_interval(Interval.point(x), Interval.point(y))
    assert iv.lo <= p <= iv.hi


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(["x+y", "x*y-1", "sin(x)+cos(y)", "(x-0.5)^2", "exp(x-y)",
                     "log(x+1)", "(x+2)^-2", "-x + -(x*y)", "x/(y+2)",
                     "max(x, y, 0.5)"]),
    st.floats(0.05, 0.5),
    st.floats(-0.5, 0.5),
)
def test_backend_consistency_tm(text, u, k):
    """Point value lies inside the Taylor-model range at the same point;
    the Taylor-model backend is the one that rejects abs/min/max."""
    f = parse(text)
    b = Boxes(0.0, 0.5, -0.5, 0.5)
    x = TaylorModel2.affine(b, (6, 6), coef_u=ONE)
    y = TaylorModel2.affine(b, (6, 6), coef_ku=ONE)
    if text.startswith("max"):
        with pytest.raises(UnsupportedError):
            eval_tm(f, x, y)
        return
    tm = eval_tm(f, x, y)
    p = f.eval_point(u, k * u)
    enc = tm.eval(Interval.point(u), Interval.point(k))
    assert enc.lo <= p <= enc.hi


class TestPiecewise:
    def test_validation(self):
        with pytest.raises(DomainError):
            PiecewiseSource1D((0.25,), (parse("1"),))
        with pytest.raises(DomainError):
            PiecewiseSource1D((0.5, 0.25), (parse("1"), parse("2"), parse("3")))
        with pytest.raises(DomainError):
            PiecewiseSource1D((1.5,), (parse("1"), parse("2")))

    def test_breakpoint_takes_right_piece(self):
        pw = PiecewiseSource1D((0.25,), (parse("1"), parse("1.125")))
        assert pw.eval_point(0.2) == 1.0
        assert pw.eval_point(0.25) == 1.125
        assert pw.eval_point(0.3) == 1.125
