import hashlib
import math
import time
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from greenbound import expr as expr_module
from greenbound import oned
from greenbound.errors import CertificationError, DomainError
from greenbound.expr import PiecewiseSource1D, parse
from greenbound.interval import Interval, _set_outward_rounding
from greenbound.oned import (
    GreenEvaluator,
    GridFunction1D,
    Verdict,
    build_sub,
    build_super,
    check_sub,
    check_super,
    green_value,
    optimal_constant_bounds,
    sweep,
    sweep_csv,
)
from greenbound.taylor import TaylorModel2

from conftest import assert_contains

ONE = parse("1")
FIVE = parse("5")
JUMP = PiecewiseSource1D((0.25,), (parse("1"), parse("1.125")))
MIXED = PiecewiseSource1D((0.5,), (parse("2*x"), parse("-1")))


def jump_exact(s, a=0.25, d=0.125):
    """Closed-form solution for f = 1 on (0,a), 1+d on (a,1)."""
    c2 = (1 + d) / 2 + d * a * a / 2
    c1 = c2 - d * a
    c3 = (1 + d) / 2 - c2
    if s < a:
        return -s * s / 2 + c1 * s
    return -(1 + d) * s * s / 2 + c2 * s + c3


class TestGreenValue:
    def test_constant_half(self):
        v = green_value(ONE, 0.5)
        assert_contains(v, 0.125)
        assert v.width() < 1e-13

    def test_constant_profile(self):
        for s in (0.1, 0.25, 0.6, 0.9):
            assert_contains(green_value(ONE, s), s * (1 - s) / 2)

    def test_jump_source(self):
        v = green_value(JUMP, 0.5)
        assert_contains(v, jump_exact(0.5))
        for s in (0.1, 0.25, 0.3, 0.8):
            assert_contains(green_value(JUMP, s), jump_exact(s))

    def test_interval_argument(self):
        v = green_value(ONE, Interval(0.4, 0.6))
        assert_contains(v, 0.125)
        assert_contains(v, 0.4 * 0.6 / 2)

    def test_domain(self):
        with pytest.raises(DomainError):
            green_value(ONE, 1.5)

    def test_trig_source_vs_symbolic(self):
        f = parse("sin(3*x)+2")
        x, s = sympy.symbols("x s", positive=True)
        fs = sympy.sin(3 * x) + 2
        A = sympy.integrate(x * fs, (x, 0, s))
        B = sympy.integrate((1 - x) * fs, (x, s, 1))
        u_sym = sympy.lambdify(s, (1 - s) * A + s * B, "mpmath")
        for sv in (0.12, 0.37, 0.5, 0.81):
            assert_contains(green_value(f, sv), float(u_sym(sv)))

    def test_representation_consistency_polynomial(self):
        """Double-antiderivative oracle at 50 random points."""
        f = parse("x^2 - x + 1")
        x, s = sympy.symbols("x s")
        fs = x**2 - x + 1
        A = sympy.integrate(x * fs, (x, 0, s))
        B = sympy.integrate((1 - x) * fs, (x, s, 1))
        expr = sympy.expand((1 - s) * A + s * B)
        rng = np.random.default_rng(2)
        ev = GreenEvaluator(f)
        for _ in range(50):
            sv = float(rng.uniform(0.01, 0.99))
            want = float(expr.subs(s, sympy.Float(sv, 30)))
            got = ev.u(Interval.point(sv))
            assert got.lo - 1e-13 <= want <= got.hi + 1e-13


class TestSegmentModels:
    def test_one_taylor_model_per_segment(self, monkeypatch):
        calls = []
        real = expr_module.eval_tm
        monkeypatch.setattr(expr_module, "eval_tm",
                            lambda *args: calls.append(args) or real(*args))
        GreenEvaluator(JUMP)
        assert len(calls) == 2 + 1  # two segments plus the right-end tail

    def test_segment_box_covers_exact_width(self, monkeypatch):
        boxes = []
        real = TaylorModel2.affine
        monkeypatch.setattr(
            TaylorModel2, "affine",
            staticmethod(lambda box, *a, **k: boxes.append(box) or real(box, *a, **k)),
        )
        GreenEvaluator(PiecewiseSource1D((0.3,), (parse("1"), parse("2"))))
        # fl(1 - 0.3) lies 2^-54 below the exact width of [0.3, 1]
        assert Fraction(float(boxes[0].uhi[0])) >= Fraction(0.3)
        assert Fraction(float(boxes[1].uhi[0])) >= 1 - Fraction(0.3)


    @pytest.mark.parametrize("text, c, segments", [
        ("2+sin(3*x)", 0.2 * 3.0 * 2.0**-18, 1),  # the benchmark's h = 2^-9
        ("exp(x)*sin(3*x)+2", 7.4e-4, 2),
        ("x*sin(3*x)+2", 5.1e-4, 2),
        ("exp(x)*sin(3*x)+2", 0.0, 1),
    ])
    def test_smooth_segments_halved_below_a_share_of_c(self, monkeypatch, text, c, segments):
        calls = []
        real = expr_module.eval_tm
        monkeypatch.setattr(expr_module, "eval_tm",
                            lambda *args: calls.append(len(args[1])) or real(*args))
        ev = GreenEvaluator(parse(text), c)
        assert len(ev._A.polys) == segments
        # one batched model per halving depth, plus the right-end tail
        assert calls == [2**d for d in range(segments.bit_length())] + [1]
        if c > 0.0:
            assert ev.u(Interval.point(0.9)).width() < c / 8


def _interval_horner(coeffs, t):
    acc = Interval(0.0, 0.0)
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def _bits(fn, *args):
    """The endpoint bits fn returns (-0.0 apart from 0.0), or "DomainError"."""
    try:
        v = fn(*args)
    except DomainError:
        return "DomainError"
    return v.lo.hex(), v.hi.hex()


_ENDS = [0.0, -0.0, 1.0, -1.0, 0.5, 3.0, -2.5, 5e-324, -5e-324, 2.2250738585072014e-308,
         1e-160, 1e300, -1e300, 1.7976931348623157e308]


@st.composite
def _intervals(draw):
    ends = st.one_of(st.sampled_from(_ENDS), st.floats(-4.0, 4.0),
                     st.floats(allow_nan=False, allow_infinity=False))
    a, b = draw(ends), draw(ends)
    return Interval(min(a, b), max(a, b))


_ZERO, _ONE_IV = Interval(0.0, 0.0), Interval(1.0, 1.0)
_MIXED = [_ONE_IV, Interval(-0.5, 0.75), _ZERO, Interval(0.25, 2.0), Interval(-3.0, -1.0),
          Interval(5e-324, 1e-310), Interval(-0.0, 0.0), Interval(-1e-320, 5e-324), _ONE_IV]


class TestPolyvalKernel:
    """``oned._polyval`` (float endpoints) against the Interval Horner loop."""

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.one_of(st.just(_ZERO), st.just(_ONE_IV), _intervals()), max_size=16),
           _intervals(), st.booleans())
    @example(_MIXED, _ZERO, True)
    @example(_MIXED, _ONE_IV, True)
    @example(_MIXED, Interval(0.0, 0.125), True)
    @example(_MIXED, Interval(-0.75, -0.25), True)
    @example(_MIXED, Interval(-0.5, 0.25), True)
    @example(_MIXED, Interval(5e-324, 1e-300), False)
    @example(_MIXED, Interval(-0.0, 1e-300), False)
    @example(_MIXED, Interval(-0.5, 0.25), False)
    # un-nudged products that tie at 0.0 and -0.0: min and max keep the first
    @example([Interval(-0.0, 0.0), Interval(-0.0, 1.0)], Interval(0.0, 1.0), False)
    @example([Interval(-0.0, 0.0), Interval(-1.0, 0.0)], Interval(0.0, 1.0), False)
    @example([Interval(-2.0, 1e300)] * 3, Interval(1e10, 1e10), True)  # product overflows
    @example([Interval(1e308, 1.7e308)] * 2, _ONE_IV, True)  # sum overflows
    @example([Interval(1e308, 1.7e308)] * 2, _ONE_IV, False)
    @example([], Interval(0.5, 2.0), True)
    def test_bits_match_the_interval_loop(self, coeffs, t, outward):
        _set_outward_rounding(outward)
        try:
            want = _bits(_interval_horner, coeffs, t)
            got = _bits(oned._polyval, oned._descending(coeffs), t)
        finally:
            _set_outward_rounding(True)
        assert got == want


class TestCheckWork:
    def test_deciding_first_form_walks_each_cumulative_once_per_argument(self, monkeypatch):
        """The mean-value form takes u_f and u_f' over s from one walk of A
        and of B there, and u_f at the centre from one more: 4 cumulative
        walks, not 6."""
        ev = GreenEvaluator(ONE, 1.0)
        assert len(ev._A.polys) == 1
        walks = []
        real = oned._Cumulative.eval
        monkeypatch.setattr(oned._Cumulative, "eval",
                            lambda self, s: walks.append(s) or real(self, s))
        grid = GridFunction1D(0.5, np.full(3, 1.0))  # far above u_f <= 1/8
        assert check_super(grid, ONE, 0, evaluator=ev) is Verdict.HOLDS
        assert walks == [Interval(0.0, 0.5)] * 2 + [Interval(0.25, 0.25)] * 2


class TestOptimalConstants:
    def test_f1(self):
        m, M = optimal_constant_bounds(ONE, tol=1e-10)
        assert_contains(M, 0.125)
        assert M.width() <= 1e-9
        assert_contains(m, 0.0)

    def test_f5(self):
        m, M = optimal_constant_bounds(FIVE, tol=1e-9)
        assert_contains(M, 0.625)
        assert M.width() <= 1e-8
        assert_contains(m, 0.0)

    def test_no_smaller_constant_passes(self):
        _, M = optimal_constant_bounds(ONE, tol=1e-10)
        c_bad = M.lo - 1e-6
        grid = GridFunction1D(2.0**-3, np.full(9, c_bad))
        ev = GreenEvaluator(ONE)
        verdicts = [check_super(grid, ONE, i, evaluator=ev) for i in range(8)]
        assert Verdict.VIOLATED in verdicts

    def test_unconverged_search_ends_in_bounded_time(self):
        """The degree-12 model of 2 + sin(3x) has a width floor above tol,
        so only the search budget ends the search; M still holds max u, for
        u = x(1 - x) + (sin 3x - x sin 3)/9."""
        u = lambda x: x * (1 - x) + (mp.sin(3 * x) - x * mp.sin(3)) / 9
        umax = u(mp.findroot(lambda x: mp.diff(u, x), 0.5))
        t0 = time.perf_counter()
        _, M = optimal_constant_bounds(parse("2+sin(3*x)"), tol=1e-10)
        assert time.perf_counter() - t0 < 10.0
        assert mp.mpf(M.lo) <= umax <= mp.mpf(M.hi)

    @pytest.mark.parametrize("name, reprs", [
        ('1',
         ('([-6.661338147750939e-16, 0.0], [0.12499999999999967, 0.12500000002910433])',
          '([-6.661338147750939e-16, 0.0], [0.12499999999999967, 0.12500000046566878])')),
        ('5',
         ('([-4.440892098500626e-15, 0.0], [0.6249999999999979, 0.625000000036382])',
          '([-4.440892098500626e-15, 0.0], [0.6249999999999979, 0.6250000005820833])')),
        ('exp(x)',
         ('([-1.6819878823071122e-13, 0.0], [0.2118668325154474, 0.21186683254644836])',
          '([-1.6819878823071122e-13, 0.0], [0.21186683250137786, 0.21186683317026278])')),
        ('x*(1-x)',
         ('([-6.938893903907228e-16, 0.0], [0.02604166666666647, 0.02604166670789855])',
          '([-6.938893903907228e-16, 0.0], [0.02604166666666647, 0.026041667326429558])')),
        ('-3',
         ('([-0.375000000087313, -0.3749999999999989], [0.0, 2.220446049250313e-15])',
          '([-0.3750000003492498, -0.3749999999999989], [0.0, 2.220446049250313e-15])')),
        ('2+sin(3*x)',
         ('([-9.376215182044234e-08, 0.0], [0.3530031477064813, 0.35300321852286043])',
          '([-9.376215182044234e-08, 0.0], [0.3530031477064813, 0.35300321852286043])')),
        ('jump',
         ('([-1.1102230246251565e-15, 0.0], [0.13867865668362309, 0.13867865677298136])',
          '([-1.1102230246251565e-15, 0.0], [0.13867865665815723, 0.1386786571174468])')),
        ('mixed',
         ('([-0.042534722308726375, -0.04253472221898797], [0.005670115145312298, 0.005670115173261528])',
          '([-0.04253472256823019, -0.042534722209286696], [0.005670115134382226, 0.0056701152879830895])')),
    ], ids=["one", "five", "exp", "x(1-x)", "minus-three", "2+sin(3x)", "jump", "mixed"])
    def test_bounds_pinned(self, name, reprs):
        """repr((m, M)) at tol 1e-10 and 1e-9, bit for bit."""
        f = {"jump": JUMP, "mixed": MIXED}.get(name) or parse(name)
        assert tuple(repr(optimal_constant_bounds(f, tol=tol)) for tol in (1e-10, 1e-9)) == reprs


def _mp_sup_abs(f):
    """max |f| over [0, 1] in mpmath: the best of a 2001-point grid,
    refined where f' vanishes next to it."""
    xs = [mp.mpf(k) / 2000 for k in range(2001)]
    best = max(xs, key=lambda x: abs(f(x)))
    if 0 < best < 1:
        best = mp.findroot(lambda x: mp.diff(f, x), best)
    return max(abs(f(best)), max(abs(f(x)) for x in xs))


class TestSupAbsSource:
    @pytest.mark.parametrize("f, want", [
        (ONE, 1.0),
        (PiecewiseSource1D((0.25,), (parse("1"), parse("1.125"))), 1.125),
        (PiecewiseSource1D((0.75,), (parse("1"), parse("1.5"))), 1.5),
        (parse("2+sin(3*x)"), 3.0),
    ])
    def test_exact_for_benchmark_sources(self, f, want):
        assert GreenEvaluator(f).sup_abs_source() == want

    @pytest.mark.parametrize("text, f", [
        ("exp(x)*sin(3*x)+2", lambda x: mp.exp(x) * mp.sin(3 * x) + 2),
        ("cos(7*x)-x^3", lambda x: mp.cos(7 * x) - x**3),
    ])
    def test_smooth_sources_within_one_percent(self, text, f):
        t0 = time.perf_counter()
        got = GreenEvaluator(parse(text)).sup_abs_source()
        assert time.perf_counter() - t0 < 0.1
        want = _mp_sup_abs(f)
        assert want <= got <= 1.01 * want


class TestChecks:
    def test_exact_plus_c_holds(self):
        h = 2.0**-6
        c = 0.2 * h * h
        n = round(1 / h)
        xs = np.arange(n + 1) * h
        grid = GridFunction1D(h, xs * (1 - xs) / 2 + c)
        ev = GreenEvaluator(ONE)
        assert all(
            check_super(grid, ONE, i, evaluator=ev) is Verdict.HOLDS
            for i in range(n)
        )

    def test_zero_grid_violated(self):
        grid = GridFunction1D(2.0**-3, np.zeros(9))
        ev = GreenEvaluator(ONE)
        for i in range(8):
            assert check_super(grid, ONE, i, evaluator=ev) is Verdict.VIOLATED

    def test_constant_above_sup_holds(self):
        grid = GridFunction1D(2.0**-3, np.full(9, 0.2))
        ev = GreenEvaluator(ONE)
        assert all(
            check_super(grid, ONE, i, evaluator=ev) is Verdict.HOLDS
            for i in range(8)
        )

    @pytest.mark.parametrize("check, h, values", [
        (check_super, 0.5, (-0.1, 0.0, -0.1)),
        (check_super, 0.5, (0.0, 0.0, 0.1)),
        (check_sub, 0.5, (0.1, 0.0, 0.1)),
        (check_sub, 0.5, (-0.1, 0.0, 0.0)),
        # last node 0.9: every subinterval held although g(0.9) = 0 < u(0.9)
        (check_super, 0.3, (0.0, 0.3, 0.3, 0.0)),
    ], ids=["super-negative", "super-unequal", "sub-positive", "sub-unequal",
            "super-short"])
    def test_grid_ends_rejected(self, check, h, values):
        grid = GridFunction1D(h, np.array(values))
        with pytest.raises(DomainError, match="end"):
            check(grid, ONE, 0)

    def test_untileable_mesh_rejected(self):
        # 49 * (1/49) rounds below 1.0, so the subintervals cannot tile (0,1)
        with pytest.raises(DomainError):
            build_super(ONE, 1.0 / 49.0, 0.01)

    @pytest.mark.parametrize("h", [0.0, math.nan, math.inf, -0.25, 0.3])
    def test_invalid_mesh_is_domain_error(self, h):
        with pytest.raises(DomainError, match="mesh width"):
            build_super(ONE, h, 0.01)
        with pytest.raises(DomainError, match="mesh width"):
            sweep(ONE, [h])


class TestBuild:
    def test_super_dominates_exact(self):
        h = 2.0**-4
        res = build_super(ONE, h, 0.2 * h * h)
        xs = np.arange(len(res.grid.values)) * h
        assert np.all(res.grid.values >= xs * (1 - xs) / 2 - 1e-15)

    def test_large_c_zero_iterations(self):
        res = build_super(ONE, 2.0**-4, 0.13)
        assert res.iterations == 0

    def test_zero_source_sub_immediate(self):
        res = build_sub(parse("0"), 2.0**-3, 0.01)
        assert res.iterations == 0
        assert np.allclose(res.grid.values, -0.01)

    def test_sub_mirror_symmetry(self):
        h, c = 2.0**-4, 0.2 * 2.0**-8
        sub = build_sub(ONE, h, c)
        neg_super = build_super(parse("-(1)"), h, c)
        assert np.array_equal(sub.grid.values, -neg_super.grid.values)
        assert sub.iterations == neg_super.iterations

    def test_post_hoc_certification(self):
        h = 2.0**-5
        c = 0.2 * h * h
        up = build_super(ONE, h, c)
        lo = build_sub(ONE, h, c)
        ev = GreenEvaluator(ONE)
        n = up.grid.n_intervals
        assert all(
            check_super(up.grid, ONE, i, evaluator=ev) is Verdict.HOLDS
            for i in range(n)
        )
        assert all(
            check_sub(lo.grid, ONE, i, evaluator=ev) is Verdict.HOLDS
            for i in range(n)
        )

    def test_enclosure_f5(self):
        h = 2.0**-4
        c = 0.2 * 5 * h * h
        up = build_super(FIVE, h, c)
        lo = build_sub(FIVE, h, c)
        xs = np.arange(len(up.grid.values)) * h
        exact = 5 * xs * (1 - xs) / 2
        assert np.all(lo.grid.values <= exact + 1e-14)
        assert np.all(up.grid.values >= exact - 1e-14)

    def test_jump_certified_enclosure(self):
        h = 2.0**-5
        c = 0.2 * 1.125 * h * h
        up = build_super(JUMP, h, c)
        lo = build_sub(JUMP, h, c)
        xs = np.arange(len(up.grid.values)) * h
        exact = np.array([jump_exact(x) for x in xs])
        assert np.all(lo.grid.values <= exact + 1e-14)
        assert np.all(up.grid.values >= exact - 1e-14)

    @pytest.mark.parametrize("f, digests", [
        (ONE,
         ("9d9485141e525bccd0d7823125f58a3a13d672141fa02f031482e68fa237bfe8",
          "944a1ddda3983df25cf526ca992dc88bb09aee9d42110cdb7b7b3cb04b51f0e3")),
        (JUMP,
         ("a0a56524fe71316b0ccc397d1f6a47579529275e25be758efd257a25a033d992",
          "26b454bc2d0e4fd6e1730093a6476550707ae5041be3e98847e5d63a4f150a32")),
    ], ids=["one", "jump"])
    def test_nodal_values_pinned(self, f, digests):
        """sha256 of repr(tuple(values)) of the super and sub builds at the
        enclose1d default c = 0.2 sup|f| h^2 and eps = 0.25 h sup|f|."""
        h = 2.0**-5
        c = 0.2 * GreenEvaluator(f).sup_abs_source() * h * h
        got = tuple(
            hashlib.sha256(repr(tuple(float(v) for v in res.grid.values)).encode())
            .hexdigest()
            for res in (build_super(f, h, c), build_sub(f, h, c))
        )
        assert got == digests

    @pytest.mark.parametrize("text, exact_f", [
        ("exp(x)*sin(3*x)+2", lambda x: mp.exp(x) * mp.sin(3 * x) + 2),
        ("x*sin(3*x)+2", lambda x: x * mp.sin(3 * x) + 2),
    ], ids=["exp-sin", "x-sin"])
    def test_smooth_product_source_certifies_quickly(self, text, exact_f):
        """The enclose1d defaults at h = 2^-5 certify, and the pair encloses
        u(s) = (1-s) int_0^s x f + s int_s^1 (1-x) f by mpmath quadrature."""
        f, h = parse(text), 2.0**-5
        t0 = time.perf_counter()
        supf = GreenEvaluator(f).sup_abs_source()
        c, eps = 0.2 * supf * h * h, 0.25 * h * supf
        up, lo = build_super(f, h, c, eps=eps), build_sub(f, h, c, eps=eps)
        assert time.perf_counter() - t0 < 5.0
        for i in range(0, len(up.grid.values), 4):
            s = mp.mpf(i * h)
            u = ((1 - s) * mp.quad(lambda x: x * exact_f(x), [0, s])
                 + s * mp.quad(lambda x: (1 - x) * exact_f(x), [s, 1]))
            assert lo.grid.values[i] <= u <= up.grid.values[i], (i, u)

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(oned, "MAX_SWEEPS", 1)
        with pytest.raises(CertificationError):
            build_super(ONE, 2.0**-4, 0.0)

    def test_zero_source_exact_zero_pair_quickly(self):
        t0 = time.perf_counter()
        zero = parse("0")
        up = build_super(zero, 2.0**-9, 0.0)
        lo = build_sub(zero, 2.0**-9, 0.0)
        assert time.perf_counter() - t0 < 5.0
        assert up.iterations == 0 and lo.iterations == 0
        assert up.eps == 0.0
        assert np.all(up.grid.values == 0.0) and np.all(lo.grid.values == 0.0)

    def test_eps_zero_failed_sweep_raises_at_once(self):
        t0 = time.perf_counter()
        with pytest.raises(CertificationError, match="eps = 0"):
            build_super(ONE, 2.0**-3, 0.0, eps=0.0)
        assert time.perf_counter() - t0 < 5.0


class TestSweep:
    def test_gap_monotone_f1(self):
        rows = sweep(ONE, [2.0**-4, 2.0**-5, 2.0**-6])
        gaps = [r.max_gap for r in rows]
        assert gaps[1] < gaps[0] and gaps[2] < gaps[1]
        csv = sweep_csv(rows)
        assert csv.splitlines()[0] == "h,c,eps,iterations,max_gap"
        assert len(csv.splitlines()) == 4

    def test_custom_rules(self):
        rows = sweep(
            ONE,
            [2.0**-4],
            c_rule=lambda h, sf: 0.3 * h * h,
            eps_rule=lambda h, sf: 0.5 * h,
        )
        assert rows[0].c == 0.3 * 2.0**-8
        assert rows[0].eps == 0.5 * 2.0**-4

    def test_rows_carry_the_certified_pair(self):
        """Each row holds the builds at its c and eps, which by default are
        those of build_super and build_sub with eps unset."""
        h = 2.0**-4
        (row,) = sweep(JUMP, [h])
        assert row.c == oned.C_FACTOR * GreenEvaluator(JUMP).sup_abs_source() * h * h
        for got, want in ((row.upper, build_super(JUMP, h, row.c)),
                          (row.lower, build_sub(JUMP, h, row.c))):
            assert got.eps == want.eps == row.eps
            assert np.array_equal(got.grid.values, want.grid.values)
        assert row.iterations == max(row.upper.iterations, row.lower.iterations)
