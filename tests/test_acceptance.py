"""Acceptance suite: one test per criterion, each with its stated tolerance
and runtime budget, printing a PASS/FAIL line (run with ``pytest -s`` to see
them live)."""

import math
import random
import time
from contextlib import contextmanager

import mpmath as mp
import numpy as np
import pytest

from greenbound.expr import PiecewiseSource1D, parse
from greenbound.geometry import Polygon, Triangle
from greenbound.interval import Interval
from greenbound.oned import (
    GreenEvaluator,
    Verdict,
    build_sub,
    build_super,
    check_sub,
    check_super,
    optimal_constant_bounds,
)
from greenbound.quad import singular_triangle
from greenbound.taylor import Boxes, tm_from_expr
from greenbound.twod import MfsConfig, enclose_point, shift_split

mp.mp.dps = 40

SQUARE = Polygon([[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]])
LSHAPE = Polygon([[-1, -1], [1, -1], [1, 0], [0, 0], [0, 1], [-1, 1]])


@contextmanager
def criterion(name: str, limit_s: float):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL {name} ({time.perf_counter() - t0:.1f}s)")
        raise
    elapsed = time.perf_counter() - t0
    ok = elapsed <= limit_s
    print(f"{'PASS' if ok else 'FAIL'} {name} ({elapsed:.1f}s / limit {limit_s:.0f}s)")
    assert ok, f"{name} exceeded its runtime budget: {elapsed:.1f}s > {limit_s}s"


def series_square_center() -> float:
    """u at the center of the unit-data square by the single fast series
    with an explicit tail bound below 1e-25."""
    total = mp.mpf(1) / 8
    K = 41
    for k in range(1, K, 2):
        sign = (-1) ** ((k - 1) // 2)
        total -= sign * 4 / (mp.pi**3 * k**3 * mp.cosh(k * mp.pi / 2))
    tail = 8 / (mp.pi**3 * K**3) * mp.e ** (-K * mp.pi / 2) / (1 - mp.e**-mp.pi)
    assert tail < mp.mpf("1e-25")
    return float(total)


def test_criterion_1_optimal_constants():
    with criterion("criterion-1 1D optimal constants", 5.0):
        m1, big1 = optimal_constant_bounds(parse("1"), tol=1e-10)
        assert big1.lo <= 0.125 <= big1.hi
        assert big1.width() <= 1e-9
        assert m1.lo <= 0.0 <= m1.hi
        m5, big5 = optimal_constant_bounds(parse("5"), tol=1e-9)
        assert big5.lo <= 0.625 <= big5.hi
        assert big5.width() <= 1e-8


def test_criterion_2_algorithm_certification():
    with criterion("criterion-2 1D certified pairs", 30.0):
        f = parse("1")
        ev = GreenEvaluator(f)
        gaps = []
        for h in (2.0**-5, 2.0**-6, 2.0**-7):
            c = 0.2 * h * h
            eps = 0.25 * h
            upper = build_super(f, h, c, eps=eps)
            lower = build_sub(f, h, c, eps=eps)
            n = upper.grid.n_intervals
            # (a) post-hoc certification with an independent evaluator
            assert all(
                check_super(upper.grid, f, i, evaluator=ev) is Verdict.HOLDS
                for i in range(n)
            )
            assert all(
                check_sub(lower.grid, f, i, evaluator=ev) is Verdict.HOLDS
                for i in range(n)
            )
            # (b) the exact solution x(1-x)/2 sits inside at every node
            xs = np.arange(n + 1) * h
            exact = xs * (1 - xs) / 2
            assert np.all(lower.grid.values <= exact + 1e-15)
            assert np.all(upper.grid.values >= exact - 1e-15)
            gaps.append(float(np.max(upper.grid.values - lower.grid.values)))
        # (c) strict monotone decrease of the maximal gap
        assert gaps[0] > gaps[1] > gaps[2]


def test_criterion_3_discontinuous_source():
    with criterion("criterion-3 1D discontinuous source", 30.0):
        a, jump = 0.25, 2.0**-5 * 4
        f = PiecewiseSource1D((a,), (parse("1"), parse("1.125")))
        assert jump == 0.125

        def exact(s):
            c2 = (1 + jump) / 2 + jump * a * a / 2
            c1 = c2 - jump * a
            c3 = (1 + jump) / 2 - c2
            if s < a:
                return -s * s / 2 + c1 * s
            return -(1 + jump) * s * s / 2 + c2 * s + c3

        gaps = {}
        for h in (2.0**-5, 2.0**-7):
            c = 0.2 * 1.125 * h * h
            upper = build_super(f, h, c)
            lower = build_sub(f, h, c)
            xs = np.arange(upper.grid.n_intervals + 1) * h
            ex = np.array([exact(x) for x in xs])
            assert np.all(lower.grid.values <= ex + 1e-14)
            assert np.all(upper.grid.values >= ex - 1e-14)
            gaps[h] = float(np.max(upper.grid.values - lower.grid.values))
        assert gaps[2.0**-7] < gaps[2.0**-5]


def test_criterion_4_singular_quadrature():
    with criterion("criterion-4 singular quadrature closed form", 2.0):
        tri = Triangle(
            np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]), singular_vertex=0
        )
        got = singular_triangle(parse("1"), tri)
        want = mp.mpf(-0.5) + (mp.log(2) - 2 + mp.pi / 2) / 2
        assert got.width() <= 1e-8
        assert mp.mpf(got.lo) <= want <= mp.mpf(got.hi)


def test_criterion_5_square_reproduction():
    with criterion("criterion-5 square domain, constant source", 60.0):
        truth = series_square_center()
        res = enclose_point(
            SQUARE, parse("1"), (0.0, 0.0), mfs_cfg=MfsConfig(n=69, tol=1e-9)
        )
        assert res.bound.lo <= truth <= res.bound.hi
        # overlap with the reference interval [7.367e-2, 7.368e-2]
        assert res.bound.lo <= 7.368e-2 and res.bound.hi >= 7.367e-2
        assert res.width <= 1e-3


def test_criterion_6_lshape_reproduction():
    with criterion("criterion-6 L-shaped domain, constant source", 120.0):
        cfg = MfsConfig(n=69, corner=(0.0, 0.0), tol=1e-9)
        reference = {
            (-0.5, -0.5): (1.234e-1, 1.330e-1),
            (0.5, -0.5): (9.855e-2, 1.034e-1),
        }
        for pt, (ref_lo, ref_hi) in reference.items():
            res = enclose_point(LSHAPE, parse("1"), pt, mfs_cfg=cfg)
            assert res.bound.lo <= ref_hi and res.bound.hi >= ref_lo, (pt, res.bound)
            assert res.width <= 5e-2, (pt, res.width)


def test_criterion_7_interval_soundness():
    with criterion("criterion-7 interval/model soundness", 60.0):
        rng = random.Random(987654321)
        failures = 0
        for _ in range(10_000):
            av = rng.uniform(-20, 20)
            bv = rng.uniform(-20, 20)
            a, b = Interval.point(av), Interval.point(bv)
            xa, xb = mp.mpf(av), mp.mpf(bv)
            pairs = [
                (a + b, xa + xb),
                (a - b, xa - xb),
                (a * b, xa * xb),
            ]
            if abs(bv) > 1e-12:
                pairs.append((a / b, xa / xb))
            pairs.append((a.sin(), mp.sin(xa)))
            pairs.append((a.cos(), mp.cos(xa)))
            pairs.append((abs(a), abs(xa)))
            pairs.append((a.pow_int(3), xa**3))
            if av > 1e-9:
                pairs.append((a.log(), mp.log(xa)))
                pairs.append((a.sqrt(), mp.sqrt(xa)))
                pairs.append((a.exp() if av < 500 else a, mp.exp(xa) if av < 500 else xa))
            for got, want in pairs:
                if not (mp.mpf(got.lo) <= want <= mp.mpf(got.hi)):
                    failures += 1
        assert failures == 0, f"{failures} containment violations"

        texts = ["1", "x", "y", "x+y", "x*y", "x^2-y^3", "sin(x*y)",
                 "exp(x-y)", "cos(x)+1", "x*sin(y)"]
        model_failures = 0
        for trial in range(1_000):
            f = parse(texts[trial % len(texts)])
            u_hi = rng.uniform(0.1, 1.0)
            k_lo = rng.uniform(-1.0, 0.5)
            k_hi = k_lo + rng.uniform(0.1, 1.0)
            tm = tm_from_expr(f, Boxes(0.0, u_hi, k_lo, k_hi), (5, 5))
            for _ in range(20):
                u = rng.uniform(0.0, u_hi)
                k = rng.uniform(k_lo, k_hi)
                val = f.eval_point(u, k * u)
                enc = tm.eval(Interval.point(u), Interval.point(k))
                if not (enc.lo <= val <= enc.hi):
                    model_failures += 1
        assert model_failures == 0, f"{model_failures} model enclosure violations"


def test_criterion_8_polynomial_source_cross_check():
    with criterion("criterion-8 polynomial source cross-check", 60.0):
        # stated cubic source: certified split, independent series oracle
        f_cubic = parse("(x-0.125)^2+(y-0.25)^3")
        res = enclose_point(
            SQUARE,
            f_cubic,
            (0.0, 0.0),
            split=shift_split(f_cubic, 0.43),
            mfs_cfg=MfsConfig(n=69, tol=1e-9),
        )
        oracle_band = (6.981e-4, 6.983e-4)
        assert res.bound.lo <= oracle_band[0] and oracle_band[1] <= res.bound.hi
        assert res.width <= 1e-3
        # quadratic variant: the configuration behind the reference interval
        # [1.134e-2, 1.135e-2] (cross-checked by two independent solvers)
        f_quad = parse("(x-0.125)^2+(y-0.25)^2")
        res_q = enclose_point(
            SQUARE, f_quad, (0.0, 0.0), mfs_cfg=MfsConfig(n=69, tol=1e-9)
        )
        assert res_q.bound.lo <= 1.135e-2 and res_q.bound.hi >= 1.134e-2
        assert res_q.width <= 1e-3
