"""The 1D engine on (0,1): representation, optimal constants, Algorithm-like
construction of certified piecewise-linear sub/super-solutions.

Representation.  With the hat test function phi_s (piecewise linear, 1 at s,
zero at the ends) and a_int = 1/(s(1-s)), the solution of -u'' = f satisfies

    u(s) = (1-s) A(s) + s B(s),   A(s) = int_0^s x f(x) dx,
                                  B(s) = int_s^1 (1-x) f(x) dx,

which this module evaluates rigorously from one Taylor model of f per
segment, shared by both integrands.  Segments are the source's pieces
(split at their breakpoints), halved until each segment's model is
narrower than a small share of the boundary shift c the values are
checked against; all models of a piece at one halving depth come from
one batched Taylor-model evaluation.

Certification.  Every grid function g the builder makes has equal end
values sign * c with c >= 0 (sign +1 for super-, -1 for sub-solutions).
Multiplying the super-solution condition by s(1-s) > 0 and using
u_f(s) = (1-s) A(s) + s B(s) then reduces it exactly to

    sign * (g(s) - u_f(s)) >= 0   for all s in (0,1),

decided per subinterval by interval bisection with the mean-value form,
whose derivative is sign * (slope - u_f'(s)).  A form takes u_f and u_f'
over the subinterval from one evaluation of A and B there and u_f at its
centre from one more, so it walks each cumulative polynomial twice; a
walk is Horner's rule on float endpoints with the bits of the Interval
loop (``_polyval``).  When c = 0 the condition degenerates at the
boundary; the boundary subintervals are then decided through the exactly
factored forms sign * (slope - u_f(s)/s) and sign * (-slope - u_f(s)/(1-s)),
whose antiderivative factors divide out symbolically.  The sub-solution
check decides the negated condition on the same evaluator of f (negation
is exact), and the sub-solution is the negated super-solution build of -f.

Drivers.  ``sweep`` builds the certified pair on each mesh of a list with
the default rules for c and eps, and is the one path of ``enclose1d``.
``optimal_constant_bounds`` runs the range search of ``interval`` on u,
its boxes bounded by the same mean-value form as the check.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from . import expr as _expr
from . import interval as _iv
from .errors import CertificationError, DomainError
from .expr import PiecewiseSource1D, SourceExpr
from .interval import BoxEvaluator, Interval, centred_form, hull, subdivide_min_max
from .taylor import Boxes, TaylorModel2

__all__ = [
    "Verdict",
    "GridFunction1D",
    "BuildResult",
    "GreenEvaluator",
    "green_value",
    "optimal_constant_bounds",
    "check_super",
    "check_sub",
    "build_super",
    "build_sub",
    "sweep",
    "SweepRow",
]

_DEG = 12  # Taylor degree for per-segment source models

# A smooth segment is halved while its model is wider than this share of
# the boundary shift c, at most MAX_SPLIT_DEPTH times.  2 + sin(3x) keeps
# one segment for c >= 1.0e-6 (its model is 6.3e-8 wide on [0, 1]);
# exp(x) sin(3x) + 2 needs two at the c = 7.4e-4 of h = 2^-5.
SPLIT_FRACTION = 1.0 / 16.0
MAX_SPLIT_DEPTH = 6

# Equal parts per source segment in sup |f|.  c and eps only need some
# upper bound; 256 parts give the exact sup of constant and jump sources
# and of 2 + sin(3x), and 0.2% above it for exp(x) sin(3x) + 2.
SUP_PARTS = 256

# Evaluations of one optimal-constant search (see interval.MAX_EVALS).  A converged
# search of 1, 5, exp(x), x(1 - x) or -3 at tol 1e-10 takes at most 141;
# 2 + sin(3x), whose degree-12 model has a width floor above that tol,
# would run to interval.MAX_EVALS and stops (unconverged, still sound)
# after 6,663 in about 3 s.
MAX_EVALS = 5_000

CHECK_EVALS = 6_000  # subintervals one check may try before it answers UNDECIDED

MAX_SWEEPS = 500  # sweeps of one build before it gives up

# The default rules of a sweep, from the constant-source parameter study:
# c = C_FACTOR |f| h^2 and eps = EPS_FACTOR h |f|, with |f| the bound of
# GreenEvaluator.sup_abs_source.
C_FACTOR = 0.2
EPS_FACTOR = 0.25

Source1D = Union[SourceExpr, PiecewiseSource1D]


class Verdict(enum.Enum):
    HOLDS = "holds"
    VIOLATED = "violated"
    UNDECIDED = "undecided"


def _source_segments(f: Source1D):
    if isinstance(f, PiecewiseSource1D):
        cuts = (0.0,) + f.breakpoints + (1.0,)
        return [(cuts[i], cuts[i + 1], f.pieces[i]) for i in range(len(f.pieces))]
    return [(0.0, 1.0, f)]


def _width(lo: float, hi: float) -> float:
    """Upper end of the enclosure of the exact width hi - lo."""
    return (Interval.point(hi) - Interval.point(lo)).hi


def _segment_models(f: Source1D, c: float) -> list:
    """(lo, hi, piece, coefficients) per segment, in order: each piece of
    f on its own segment, halved while its model is wider than
    SPLIT_FRACTION * c (c = 0 keeps one segment per piece)."""
    out = []
    for lo, hi, piece in _source_segments(f):
        todo = [(lo, hi)]
        for depth in range(MAX_SPLIT_DEPTH + 1):
            widths = [_width(a, b) for a, b in todo]
            models = _models_on(piece, [a for a, _b in todo], 1.0, widths)
            split = []
            for (a, b), w, coeffs in zip(todo, widths, models):
                spread = sum((cf.hi - cf.lo) * w**j for j, cf in enumerate(coeffs))
                if depth < MAX_SPLIT_DEPTH and c > 0.0 and spread > SPLIT_FRACTION * c:
                    split += [(a, 0.5 * (a + b)), (0.5 * (a + b), b)]
                else:
                    out.append((a, b, piece, coeffs))
            if not split:
                break
            todo = split
    return sorted(out, key=lambda seg: seg[0])


def _descending(coeffs: list) -> tuple:
    """The (lo, hi) endpoints of interval coefficients c_0..c_n, highest
    degree first: the form :func:`_polyval` takes."""
    return tuple([(c.lo, c.hi) for c in reversed(coeffs)])


def _polyval(poly: tuple, t: Interval) -> Interval:
    """Horner's rule acc = acc * t + c from acc = [0, 0] over the
    coefficients ``poly`` (see :func:`_descending`), on float endpoints and
    bit for bit as on Intervals: each step repeats ``Interval.__mul__``
    (the exact [0, 0] and [1, 1] rules, min/max in the same order, the
    clamp of a product of one-signed factors at 0) and ``Interval.__add__``
    (the exact [0, 0] rules, TwoSum nudges), nudging only under
    ``interval._outward_rounding``, and raises DomainError where an
    Interval of the loop would be unbounded."""
    nudge = _iv._outward_rounding
    tlo, thi = t.lo, t.hi
    t_zero = tlo == 0.0 and thi == 0.0
    t_one = tlo == 1.0 and thi == 1.0
    t_nonneg, t_nonpos = tlo >= 0.0, thi <= 0.0
    nextafter, inf = math.nextafter, math.inf
    alo = ahi = 0.0
    for clo, chi in poly:
        if t_zero or (alo == 0.0 and ahi == 0.0):
            plo = phi = 0.0
        elif t_one:
            plo, phi = alo, ahi
        elif alo == 1.0 and ahi == 1.0:
            plo, phi = tlo, thi
        else:
            p1, p2, p3, p4 = alo * tlo, alo * thi, ahi * tlo, ahi * thi
            plo, phi = min(p1, p2, p3, p4), max(p1, p2, p3, p4)
            if nudge:
                plo, phi = nextafter(plo, -inf), nextafter(phi, inf)
            if (alo >= 0.0 and t_nonneg) or (ahi <= 0.0 and t_nonpos):
                plo = max(plo, 0.0)
        if clo == 0.0 and chi == 0.0:
            alo, ahi = plo, phi
        elif plo == 0.0 and phi == 0.0:
            alo, ahi = clo, chi
        else:
            alo, ahi = plo + clo, phi + chi
            if nudge:  # TwoSum: nudge only a rounded sum on the wrong side
                bv = alo - plo
                if (plo - (alo - bv)) + (clo - bv) < 0.0:
                    alo = nextafter(alo, -inf)
                bv = ahi - phi
                if (phi - (ahi - bv)) + (chi - bv) > 0.0:
                    ahi = nextafter(ahi, inf)
    # t and the coefficients are finite, so an endpoint that overflows
    # stays infinite or NaN through every later step, and the last
    # Interval raises the DomainError an Interval step would have
    return Interval(alo, ahi)


def _models_on(expr: SourceExpr, consts: list, slope: float, widths: list) -> list:
    """Per segment, the coefficients c_0..c_DEG (intervals) of the Taylor
    model of expr(const + slope * t) on t in [0, width]: one batched
    Taylor-model evaluation for all segments."""
    consts, zeros = np.array(consts, dtype=float), np.zeros(len(consts))
    boxes = Boxes(zeros, widths, zeros, zeros)
    x = TaylorModel2.affine(boxes, (1, _DEG), const=(consts, consts), coef_u=(slope, slope))
    lo, hi = _expr.eval_tm(expr, x).grids()
    return [[Interval(a, b) for a, b in zip(lo[p, 0].tolist(), hi[p, 0].tolist())]
            for p in range(len(consts))]


def _weighted_antiderivative(coeffs_f: list, weight_const: Interval,
                             weight_slope: Interval) -> list:
    """Antiderivative coefficients of (weight_const + weight_slope t) f(t).

    Input: coefficients of f in t; output: coefficients of the
    antiderivative polynomial (zero constant term) valid on the segment.
    """
    n = len(coeffs_f)
    prod = [Interval(0.0, 0.0)] * (n + 1)
    for j, c in enumerate(coeffs_f):
        prod[j] = prod[j] + c * weight_const
        prod[j + 1] = prod[j + 1] + c * weight_slope
    anti = [Interval(0.0, 0.0)]
    for q, c in enumerate(prod):
        anti.append(c / float(q + 1))
    return anti


@dataclass(frozen=True)
class _Cumulative:
    """Rigorous evaluator of t -> integral_0^t g with per-segment
    antiderivative polynomials in local coordinates."""

    bounds: tuple  # segment boundaries, len nseg+1, bounds[0] = 0.0
    polys: tuple  # per segment: antiderivative coefficients (_descending)
    cums: tuple  # interval cumulative values at segment starts; [-1] = total

    def eval(self, s: Interval) -> Interval:
        s = Interval(max(s.lo, 0.0), min(max(s.hi, 0.0), self.bounds[-1]))
        out: Optional[Interval] = None
        for k in range(len(self.polys)):
            lo, hi = self.bounds[k], self.bounds[k + 1]
            if s.hi < lo or s.lo > hi:
                continue
            t = Interval(max(s.lo, lo), min(s.hi, hi)) - Interval.point(lo)
            t = Interval(max(t.lo, 0.0), t.hi)
            val = self.cums[k] + _polyval(self.polys[k], t)
            out = val if out is None else hull(out, val)
        if out is None:  # single point at a boundary
            k = 0 if s.hi <= self.bounds[0] else len(self.polys) - 1
            out = self.cums[k if s.hi <= self.bounds[0] else k + 1]
        return out

    def total(self) -> Interval:
        return self.cums[-1]

    def eval_over_t(self, s: Interval) -> Interval:
        """(integral_0^s g)/s for s inside the first segment (exact factoring:
        the antiderivative has no constant or linear offset)."""
        if s.hi > self.bounds[1] or s.lo < 0.0:
            raise DomainError("factored evaluation outside the first segment")
        return _polyval(self.polys[0][:-1], s)


def _build_cumulatives(segments) -> tuple:
    """Evaluators of s -> int_0^s x f(x) dx and s -> int_0^s (1-x) f(x) dx,
    both from the one Taylor model of f per segment."""
    one = Interval(1.0, 1.0)
    polys = ([], [])
    cums = ([Interval(0.0, 0.0)], [Interval(0.0, 0.0)])
    for lo, hi, _piece, coeffs in segments:
        x0 = Interval.point(lo)
        w = Interval.point(hi) - x0  # encloses the exact width hi - lo
        # with x = lo + t the weights are x = x0 + t and 1 - x = (1 - x0) - t
        for k, (wc, ws) in enumerate(((x0, one), (one - x0, -one))):
            anti = _descending(_weighted_antiderivative(coeffs, wc, ws))
            polys[k].append(anti)
            cums[k].append(cums[k][-1] + _polyval(anti, w))
    bounds = tuple([0.0] + [seg[1] for seg in segments])
    return tuple([_Cumulative(bounds, tuple(p), tuple(c)) for p, c in zip(polys, cums)])


def _build_reversed_tail(segments) -> tuple:
    """Antiderivative of tau -> tau * f(1 - tau) near tau = 0 (i.e. x near 1).

    Valid for tau in [0, w'] with w' covering the last source segment; used
    to evaluate B(s)/(1-s) exactly factored at the right boundary.
    """
    lo, _hi, piece, _coeffs = segments[-1]
    w = math.nextafter(1.0 - lo, math.inf)
    (coeffs,) = _models_on(piece, [1.0], -1.0, [w])
    anti = _weighted_antiderivative(coeffs, Interval(0.0, 0.0), Interval(1.0, 1.0))
    return _descending(anti), w


class GreenEvaluator:
    """Shared rigorous evaluator for u(s), u'(s) and the factored boundary
    forms, built once per source term.  ``c`` is the boundary shift its
    values are checked against, which sets how finely smooth sources are
    split (``_segment_models``)."""

    def __init__(self, f: Source1D, c: float = 0.0):
        self.source = f
        segments = _segment_models(f, c)
        self._A, self._C = _build_cumulatives(segments)
        self._tail, self._tail_width = _build_reversed_tail(segments)
        self._first_seg_hi = segments[0][1]

    # A(s) = int_0^s x f;  B(s) = int_s^1 (1-x) f = C(1) - C(s)
    def A(self, s: Interval) -> Interval:
        return self._A.eval(s)

    def B(self, s: Interval) -> Interval:
        return self._C.total() - self._C.eval(s)

    def u(self, s: Interval) -> Interval:
        return self.u_du(s)[0]

    # du has no caller in the library; the name stays, where the benchmark
    # tracer wraps it
    def du(self, s: Interval) -> Interval:
        return self.B(s) - self.A(s)

    def u_du(self, s: Interval) -> tuple[Interval, Interval]:
        """u(s) and u'(s) = B(s) - A(s) from one evaluation of A and B at s
        (clamped to [0, 1]): for s in [0, 1], the bits of du(s)."""
        lo = min(max(s.lo, 0.0), 1.0)
        s = Interval(lo, min(max(s.hi, lo), 1.0))
        a, b = self.A(s), self.B(s)
        return (Interval(1.0, 1.0) - s) * a + s * b, b - a

    def u_over_s(self, s: Interval) -> Interval:
        """u(s)/s continued through s = 0; s must sit in the first segment."""
        a_part = self._A.eval_over_t(s)
        return (Interval(1.0, 1.0) - s) * a_part + self.B(s)

    def u_over_1ms(self, s: Interval) -> Interval:
        """u(s)/(1-s) continued through s = 1 (within the last segment)."""
        tau = Interval(1.0, 1.0) - s
        if tau.hi > self._tail_width or tau.lo < 0.0:
            raise DomainError("factored evaluation outside the last segment")
        b_over = _polyval(self._tail[:-1], tau)
        return self.A(s) + s * b_over

    def sup_abs_source(self) -> float:
        """Rigorous upper bound of sup |f| over (0,1): the largest magnitude
        of the natural interval extension of each source piece over
        ``SUP_PARTS`` equal parts of its segment."""
        worst = 0.0
        for lo, hi, piece in _source_segments(self.source):
            cuts = [lo + (hi - lo) * k / SUP_PARTS for k in range(SUP_PARTS)] + [hi]
            for a, b in zip(cuts, cuts[1:]):
                worst = max(worst, piece.eval_interval(Interval(a, b)).mag())
        return worst


def green_value(f: Source1D, s) -> Interval:
    """Rigorous enclosure of u(s) for -u'' = f, u(0) = u(1) = 0."""
    s_iv = s if isinstance(s, Interval) else Interval.point(float(s))
    if not (0.0 <= s_iv.lo and s_iv.hi <= 1.0):
        raise DomainError("evaluation point must lie in [0, 1]")
    return GreenEvaluator(f).u(s_iv)


class _RangeOfU(BoxEvaluator):
    """u over boxes of [0, 1] for the range search: the mean-value form of
    each box from one ``u_du`` walk over it and ``u`` at its centre, as
    ``_check`` forms it."""

    def __init__(self, ev: GreenEvaluator):
        self.ev = ev

    def __call__(self, root, lo, hi):
        ends = []
        for a, b in zip(lo.tolist(), hi.tolist()):
            s = Interval(a, b)
            m = Interval.point(s.mid())
            u_s, du_s = self.ev.u_du(s)
            centre = self.ev.u(m)
            for v in (centred_form(u_s, centre, du_s, s, m), centre, du_s):
                ends += (v.lo, v.hi)
        return tuple(np.array(ends).reshape(-1, 6).T)


def optimal_constant_bounds(
    f: Source1D, tol: float = 1e-10
) -> tuple[Interval, Interval]:
    """Enclosures of inf u and sup u over the domain: the optimal constant
    sub- and super-solution levels."""
    res = subdivide_min_max(_RangeOfU(GreenEvaluator(f)), Interval(0.0, 1.0), tol=tol,
                            max_depth=60, max_evals=MAX_EVALS)
    return res.m, res.M


# ---------------------------------------------------------------------------
# Grid functions and the certified construction loop
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GridFunction1D:
    """Nodal values on the uniform grid x_i = i h, endpoints included."""

    h: float
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or len(v) < 3:
            raise DomainError("grid function needs at least 3 nodal values")
        if not np.all(np.isfinite(v)):
            raise DomainError("grid values must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def n_intervals(self) -> int:
        return len(self.values) - 1

    def node(self, i: int) -> float:
        return i * self.h

    def slope(self, i: int) -> Interval:
        # divide by the actual float node spacing so the interpolant is
        # exactly continuous across nodes
        dx = Interval.point(self.node(i + 1)) - Interval.point(self.node(i))
        return (
            Interval.point(float(self.values[i + 1]))
            - Interval.point(float(self.values[i]))
        ) / dx


def _check(
    grid: GridFunction1D,
    ev: GreenEvaluator,
    i: int,
    sign: float,
) -> Verdict:
    """Decide sign * (g(s) - u_f(s)) >= 0 on the i-th subinterval for the
    interpolant g, whose nodes must end at 1 and whose end values must be
    one value sign * c, c >= 0."""
    last = grid.node(grid.n_intervals)
    if last != 1.0:
        raise DomainError(f"grid must end at node 1.0, not {last!r}")
    end = float(grid.values[0])
    if float(grid.values[-1]) != end or sign * end < 0.0:
        raise DomainError(
            f"grid end values must be equal and {'>=' if sign > 0 else '<='} 0, "
            f"got {end!r} and {float(grid.values[-1])!r}"
        )
    lo = grid.node(i)
    hi = grid.node(i + 1)
    slope = grid.slope(i)
    g_lo = Interval.point(float(grid.values[i]))
    x_lo = Interval.point(lo)

    def signed(v: Interval) -> Interval:
        return v if sign > 0 else -v  # exact; a product by -1 would nudge

    def plain(s: Interval, u_s: Interval) -> Interval:  # given u_s = u_f(s)
        return signed(g_lo + slope * (s - x_lo) - u_s)

    # at c = 0 the condition vanishes at the end node; there g = slope * s
    # (first subinterval) or g = -slope * (1-s) (last), so the condition
    # divided by s or 1-s is decided instead
    use_left = end == 0.0 and i == 0
    use_right = end == 0.0 and i == grid.n_intervals - 1

    def forms(s: Interval):
        # the mean-value form, with u_f and u_f' at s from one A/B evaluation
        m = Interval.point(s.mid())
        u_s, du_s = ev.u_du(s)
        yield centred_form(plain(s, u_s), plain(m, ev.u(m)), signed(slope - du_s), s, m)
        if use_left and s.lo == lo and s.hi <= ev._first_seg_hi:
            yield signed(slope - ev.u_over_s(s))
        if use_right and s.hi == hi and 1.0 - s.lo <= ev._tail_width:
            yield signed(-slope - ev.u_over_1ms(s))

    evals = 0
    stack = [(lo, hi)]
    while stack:
        a, b = stack.pop()
        if evals >= CHECK_EVALS:
            return Verdict.UNDECIDED
        evals += 1
        for val in forms(Interval(a, b)):  # until one decides
            if val.hi < 0.0:
                return Verdict.VIOLATED
            if val.lo >= 0.0:
                break
        else:
            mid = 0.5 * (a + b)
            if not (a < mid < b):
                return Verdict.UNDECIDED
            stack.append((a, mid))
            stack.append((mid, b))
    return Verdict.HOLDS


def check_super(
    ubar: GridFunction1D, f: Source1D, i: int,
    evaluator: Optional[GreenEvaluator] = None,
) -> Verdict:
    """Super-solution condition on the i-th subinterval, decided rigorously.

    The grid's end values must be one value c >= 0."""
    return _check(ubar, evaluator or GreenEvaluator(f, float(ubar.values[0])), i, +1.0)


def check_sub(
    usub: GridFunction1D, f: Source1D, i: int,
    evaluator: Optional[GreenEvaluator] = None,
) -> Verdict:
    """Sub-solution condition on the i-th subinterval (mirror sign).

    The grid's end values must be one value -c <= 0."""
    return _check(usub, evaluator or GreenEvaluator(f, -float(usub.values[0])), i, -1.0)


@dataclass(frozen=True)
class BuildResult:
    grid: GridFunction1D
    iterations: int
    eps: float
    c: float


def _node_count(h: float) -> int:
    """Interior node count n of the uniform grid with (n + 1) h = 1."""
    inv = 1.0 / h if 0.0 < h < math.inf else math.nan
    n_plus_1 = round(inv) if math.isfinite(inv) else 0
    if n_plus_1 < 2 or abs(inv - n_plus_1) > 1e-9:
        raise DomainError(f"mesh width {h} must divide the unit interval")
    # the last node (n+1) h must land exactly on 1.0 so the certification
    # subintervals tile (0, 1) without a gap
    if n_plus_1 * h != 1.0:
        raise DomainError(
            f"mesh width {h} must tile [0, 1] exactly in binary64 (dyadic h works)"
        )
    return n_plus_1 - 1


def _fd_solve(fbar: np.ndarray, h: float) -> np.ndarray:
    """Dirichlet second-order finite differences: tridiagonal Thomas solve."""
    n = len(fbar)
    a = np.full(n, -1.0)  # sub
    b = np.full(n, 2.0)  # diag
    cc = np.full(n, -1.0)  # super
    d = fbar * h * h
    cp = np.empty(n)
    dp = np.empty(n)
    cp[0] = cc[0] / b[0]
    dp[0] = d[0] / b[0]
    for k in range(1, n):
        m = b[k] - a[k] * cp[k - 1]
        cp[k] = cc[k] / m
        dp[k] = (d[k] - a[k] * dp[k - 1]) / m
    x = np.empty(n)
    x[-1] = dp[-1]
    for k in range(n - 2, -1, -1):
        x[k] = dp[k] - cp[k] * x[k + 1]
    return x


def _build(f: Source1D, h: float, c: float, eps: Optional[float],
           sign: float) -> BuildResult:
    """Certified super- (sign +1) or sub-solution (sign -1) on the uniform
    grid; the sub-solution is the negated super-solution of -f, checked
    against the evaluator of f."""
    n = _node_count(h)
    if c < 0.0:
        raise DomainError("boundary shift c must be nonnegative")
    ev = GreenEvaluator(f, c)
    if eps is None:
        eps = EPS_FACTOR * h * ev.sup_abs_source()
    if eps == 0.0 and ev.sup_abs_source() == 0.0:
        grid = GridFunction1D(h, np.full(n + 2, sign * c))
        return BuildResult(grid=grid, iterations=0, eps=eps, c=c)
    nodes = np.arange(1, n + 1) * h
    fbar = sign * np.array([f.eval_point(x) for x in nodes])
    for it in range(MAX_SWEEPS):
        interior = _fd_solve(fbar, h)
        grid = GridFunction1D(h, sign * np.concatenate(([c], interior + c, [c])))
        bad = [
            i
            for i in range(grid.n_intervals)
            if _check(grid, ev, i, sign) is not Verdict.HOLDS
        ]
        if not bad:
            return BuildResult(grid=grid, iterations=it, eps=eps, c=c)
        if eps == 0.0:
            raise CertificationError(
                f"{len(bad)} subintervals fail with eps = 0 (h={h}, c={c}); "
                "every further sweep would re-solve the same grid"
            )
        for i in bad:
            if 1 <= i <= n:
                fbar[i - 1] += eps
            if 1 <= i + 1 <= n:
                fbar[i] += eps
    raise CertificationError(
        f"no certified {'super' if sign > 0 else 'sub'}-solution after {MAX_SWEEPS} sweeps "
        f"(h={h}, c={c}, eps={eps}); raise c or eps"
    )


def build_super(f: Source1D, h: float, c: float, eps: Optional[float] = None) -> BuildResult:
    """Certified piecewise-linear super-solution on the uniform grid.

    Starts from the finite-difference solution lifted by c, then repeatedly
    increments the discrete source by eps (default EPS_FACTOR h sup |f|)
    next to every subinterval where the rigorous check fails (undecided
    counts as failed), until every subinterval certifies, for at most
    MAX_SWEEPS sweeps.  All increments of a sweep are applied before the
    re-solve.  With eps = 0 a failed sweep would only repeat itself, so it
    raises at once; a source with sup |f| = 0 then gets the exact constant
    super-solution c.
    """
    return _build(f, h, c, eps, +1.0)


def build_sub(f: Source1D, h: float, c: float, eps: Optional[float] = None) -> BuildResult:
    """Certified sub-solution: the negated :func:`build_super` of -f."""
    return _build(f, h, c, eps, -1.0)


@dataclass(frozen=True)
class SweepRow:
    """One mesh of a sweep: its parameters and the certified pair."""

    h: float
    c: float
    eps: float
    upper: BuildResult
    lower: BuildResult

    @property
    def iterations(self) -> int:
        return max(self.upper.iterations, self.lower.iterations)

    @property
    def max_gap(self) -> float:
        return float(np.max(self.upper.grid.values - self.lower.grid.values))


def sweep(
    f: Source1D,
    h_list,
    c_rule: Optional[Callable[[float, float], float]] = None,
    eps_rule: Optional[Callable[[float, float], float]] = None,
) -> list:
    """The certified super/sub pair on each mesh of a list, one SweepRow
    per mesh.  ``c_rule(h, sup_f)`` and ``eps_rule(h, sup_f)`` give c and
    eps; the defaults are C_FACTOR sup_f h^2 and the eps of the builds.
    """
    supf = GreenEvaluator(f).sup_abs_source()
    rows = []
    for h in h_list:
        c = c_rule(h, supf) if c_rule else C_FACTOR * supf * h * h
        eps = eps_rule(h, supf) if eps_rule else None
        upper = build_super(f, h, c, eps=eps)
        rows.append(SweepRow(h, c, upper.eps, upper, build_sub(f, h, c, eps=eps)))
    return rows


def sweep_csv(rows) -> str:
    lines = ["h,c,eps,iterations,max_gap"]
    for r in rows:
        lines.append(f"{r.h!r},{r.c!r},{r.eps!r},{r.iterations},{r.max_gap!r}")
    return "\n".join(lines) + "\n"
