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
over the subinterval from one walk of A and of C there and u_f at its
centre from one more, each walk Horner's rule per segment (``_polyval``).
Horner's argument t is never negative, so each step forms only the two
endpoint products that the signs of the accumulator's ends pick, where
the general interval product forms four and takes their min and max.
The whole engine, from the segment models to the check, runs on float
endpoint pairs through the scalar ops that the Interval operators wrap
(``interval._add``, ``_mul``, ``_div``, ``_mid``), so it has the bits of
the Interval composition, raises the DomainError where an Interval step
would be unbounded, and honours ``interval._outward_rounding``; Intervals
appear only at the public methods.  When c = 0 the condition degenerates
at the boundary; the boundary subintervals are then decided through the
exactly factored forms sign * (slope - u_f(s)/s) and
sign * (-slope - u_f(s)/(1-s)), whose antiderivative factors divide out
symbolically.  The sub-solution check decides the negated condition on
the same evaluator of f (negation is exact), and the sub-solution is the
negated super-solution build of -f.

Drivers.  ``sweep`` builds the certified pair on each mesh of a list, c
fixed or C_FACTOR sup|f| h^2 and eps = eps_factor h sup|f|, and is the one
path of ``enclose1d``.  ``optimal_constant_bounds`` runs the range search
of ``interval`` on u, its boxes bounded by the same mean-value form as the
check.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from . import expr as _expr
from . import interval as _iv
from .errors import CertificationError, DomainError
from .expr import PiecewiseSource1D, SourceExpr
from .interval import BoxEvaluator, Interval, _add, _div, _mid, _mul, subdivide_min_max
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


def _segment_models(f: Source1D, c: float) -> list:
    """(lo, hi, piece, coefficients) per segment, in order: each piece of
    f on its own segment, halved while its model is wider than
    SPLIT_FRACTION * c (c = 0 keeps one segment per piece)."""
    out = []
    for lo, hi, piece in _source_segments(f):
        todo = [(lo, hi)]
        for depth in range(MAX_SPLIT_DEPTH + 1):
            widths = [_add(b, b, -a, -a)[1] for a, b in todo]  # >= the exact b - a
            models = _models_on(piece, [a for a, _b in todo], 1.0, widths)
            split = []
            for (a, b), w, coeffs in zip(todo, widths, models):
                spread = sum((chi - clo) * w**j for j, (clo, chi) in enumerate(coeffs))
                if depth < MAX_SPLIT_DEPTH and c > 0.0 and spread > SPLIT_FRACTION * c:
                    split += [(a, 0.5 * (a + b)), (0.5 * (a + b), b)]
                else:
                    out.append((a, b, piece, coeffs))
            if not split:
                break
            todo = split
    return sorted(out, key=lambda seg: seg[0])


def _bounded(lo: float, hi: float) -> tuple:
    """(lo, hi), or the DomainError the Interval [lo, hi] raises: the check
    the endpoint kernels make where a later step (a hull, an intersection,
    an exact-zero rule, a comparison) could drop an infinity or a NaN."""
    if -math.inf < lo <= hi < math.inf:
        return lo, hi
    raise DomainError(f"unbounded enclosure [{lo}, {hi}]")


def _clamp01(lo: float, hi: float) -> tuple:
    """[lo, hi] clamped to [0, 1] (a point at 0 or 1 when it lies outside)."""
    lo = min(max(lo, 0.0), 1.0)
    return lo, min(max(hi, lo), 1.0)


def _centred(val: tuple, centre: tuple, slope: tuple, slo: float, shi: float,
             m: float) -> tuple:
    """The centred form on endpoint pairs, with the bits of its Interval
    composition: val, an enclosure of g over s = [slo, shi], meets
    centre + slope (s - m) (val alone should the two not meet); the
    mean-value form when slope encloses g' over s and m lies in s."""
    vlo, vhi = _bounded(*val)
    clo, chi = _bounded(*centre)
    dlo, dhi = _bounded(*slope)
    clo, chi = _bounded(*_add(clo, chi, *_mul(dlo, dhi, *_add(slo, shi, -m, -m))))
    lo, hi = max(vlo, clo), min(vhi, chi)
    return (lo, hi) if lo <= hi else (vlo, vhi)


def _polyval(poly: tuple, tlo: float, thi: float) -> tuple:
    """Horner's rule acc = acc * t + c from acc = [0, 0] over the
    coefficients ``poly`` (highest degree first, as
    :func:`_weighted_antiderivative` returns them) for t = [tlo, thi] with
    0 <= tlo <= thi, on float endpoints and bit for bit as on Intervals:
    each step repeats ``Interval.__mul__`` (the exact [0, 0] and [1, 1]
    rules, the clamp of a product of one-signed factors at 0) and
    ``Interval.__add__`` (the exact [0, 0] rules, TwoSum nudges), nudging
    only under ``interval._outward_rounding``.  As t >= 0, the sign of each
    end of acc picks the one of the four endpoint products that min or max
    would return (Moore, Kearfott and Cloud, Introduction to Interval
    Analysis, 2009, sec. 2.3): acc >= 0 gives [alo tlo, ahi thi], acc <= 0
    [alo thi, ahi tlo], and acc straddling 0 [alo thi, ahi thi].  Returns
    the endpoints, and raises DomainError where an Interval of the loop
    would be unbounded, or for t not within [0, inf)."""
    if not 0.0 <= tlo <= thi:
        raise DomainError(f"Horner kernel needs 0 <= t, got [{tlo}, {thi}]")
    nudge = _iv._outward_rounding
    t_zero = tlo == 0.0 and thi == 0.0
    t_one = tlo == 1.0 and thi == 1.0
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
            # min and max keep the first of tied values, and alo * tlo is the
            # first of the four products: where a picked product is a zero,
            # alo * tlo may be a zero too, and is then what min or max keeps
            plo = alo * (tlo if alo >= 0.0 else thi) or alo * tlo
            phi = ahi * (thi if ahi > 0.0 else tlo)
            if not phi and alo * tlo >= phi:
                phi = alo * tlo
            if nudge:
                plo, phi = nextafter(plo, -inf), nextafter(phi, inf)
            if plo < 0.0 <= alo:  # max(plo, 0.0): the clamp of acc >= 0 times t
                plo = 0.0
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
    # stays infinite or NaN through every later step, and the last check
    # raises the DomainError an Interval step would have
    return _bounded(alo, ahi)


def _models_on(expr: SourceExpr, consts: list, slope: float, widths: list) -> list:
    """Per segment, the coefficients c_0..c_DEG ((lo, hi) pairs) of the
    Taylor model of expr(const + slope * t) on t in [0, width]: one batched
    Taylor-model evaluation for all segments."""
    consts, zeros = np.array(consts, dtype=float), np.zeros(len(consts))
    boxes = Boxes(zeros, widths, zeros, zeros)
    x = TaylorModel2.affine(boxes, (1, _DEG), const=(consts, consts), coef_u=(slope, slope))
    lo, hi = _expr.eval_tm(expr, x).grids()
    return [[_bounded(a, b) for a, b in zip(lo[p, 0].tolist(), hi[p, 0].tolist())]
            for p in range(len(consts))]


def _weighted_antiderivative(coeffs_f: list, weight_const: tuple,
                             weight_slope: tuple) -> tuple:
    """Antiderivative coefficients of (weight_const + weight_slope t) f(t).

    Input: coefficients c_0..c_n of f in t and the two weights, as (lo, hi)
    pairs; output: those of the antiderivative polynomial (zero constant
    term) valid on the segment, highest degree first, the form
    :func:`_polyval` takes.
    """
    prod = [(0.0, 0.0)] * (len(coeffs_f) + 1)
    for j, c in enumerate(coeffs_f):
        prod[j] = _add(*prod[j], *_mul(*c, *weight_const))
        prod[j + 1] = _add(*prod[j + 1], *_mul(*c, *weight_slope))
    anti = [_bounded(*_div(*c, q + 1.0, q + 1.0)) for q, c in enumerate(prod)]
    return tuple(anti[::-1]) + ((0.0, 0.0),)


@dataclass(frozen=True)
class _Cumulative:
    """Rigorous evaluator of t -> integral_0^t g with per-segment
    antiderivative polynomials in local coordinates."""

    bounds: tuple  # segment boundaries, len nseg+1, bounds[0] = 0.0, bounds[-1] = 1.0
    polys: tuple  # per segment: antiderivative coefficients, highest degree first
    cums: tuple  # (lo, hi) cumulative values at segment starts; [-1] = total

    def walk(self, slo: float, shi: float) -> tuple:
        """Endpoints of the enclosure of integral_0^s g over s = [slo, shi]
        within [0, 1]: per segment [lo, hi] that s meets, the cumulative
        value at lo plus Horner over t = (s within the segment) - lo,
        clamped at 0, hulled over the segments; the bits of the Interval
        composition.  The segments tile [0, 1], so s meets one."""
        bounds, out = self.bounds, None
        for k, poly in enumerate(self.polys):
            lo, hi = bounds[k], bounds[k + 1]
            if shi < lo:
                break
            if slo > hi:
                continue
            tlo, thi = _add(max(slo, lo), min(shi, hi), -lo, -lo)
            val = _bounded(*_add(*self.cums[k], *_polyval(poly, max(tlo, 0.0), thi)))
            out = val if out is None else (min(out[0], val[0]), max(out[1], val[1]))
        return out

    def over_t(self, slo: float, shi: float) -> tuple:
        """(integral_0^s g)/s for s = [slo, shi] inside the first segment
        (exact factoring: the antiderivative has no constant or linear
        offset); _polyval raises for s below 0."""
        if shi > self.bounds[1]:
            raise DomainError("factored evaluation outside the first segment")
        return _polyval(self.polys[0][:-1], slo, shi)


def _build_cumulatives(segments) -> tuple:
    """Evaluators of s -> int_0^s x f(x) dx and s -> int_0^s (1-x) f(x) dx,
    both from the one Taylor model of f per segment."""
    polys = ([], [])
    cums = ([(0.0, 0.0)], [(0.0, 0.0)])
    for lo, hi, _piece, coeffs in segments:
        w = _add(hi, hi, -lo, -lo)  # encloses the exact width hi - lo
        # with x = lo + t the weights are x = lo + t and 1 - x = (1 - lo) - t
        for k, weights in enumerate((((lo, lo), (1.0, 1.0)),
                                     (_add(1.0, 1.0, -lo, -lo), (-1.0, -1.0)))):
            anti = _weighted_antiderivative(coeffs, *weights)
            polys[k].append(anti)
            cums[k].append(_bounded(*_add(*cums[k][-1], *_polyval(anti, *w))))
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
    return _weighted_antiderivative(coeffs, (0.0, 0.0), (1.0, 1.0)), w


class GreenEvaluator:
    """Shared rigorous evaluator for u(s), u'(s) and the factored boundary
    forms, built once per source term.  ``c`` is the boundary shift its
    values are checked against, which sets how finely smooth sources are
    split (``_segment_models``).

    The kernel works on float endpoint pairs with the bits of the Interval
    composition and raises the DomainError it would raise; the methods
    that take and return Intervals wrap it."""

    def __init__(self, f: Source1D, c: float = 0.0):
        self.source = f
        segments = _segment_models(f, c)
        self._A, self._C = _build_cumulatives(segments)
        self._tail, self._tail_width = _build_reversed_tail(segments)
        self._first_seg_hi = segments[0][1]

    # A(s) = int_0^s x f;  B(s) = int_s^1 (1-x) f = C(1) - C(s)
    def _b(self, slo: float, shi: float) -> tuple:
        clo, chi = self._C.walk(slo, shi)
        return _add(*self._C.cums[-1], -chi, -clo)

    def _u(self, slo: float, shi: float) -> tuple:
        """u = (1-s) A + s B, A and B over s = [slo, shi] within [0, 1],
        from one walk of A and one of C."""
        a, b = self._A.walk(slo, shi), self._b(slo, shi)
        return _add(*_mul(*_add(1.0, 1.0, -shi, -slo), *a), *_mul(slo, shi, *b)), a, b

    def _mean_value_terms(self, slo: float, shi: float) -> tuple:
        """(u over s, u' over s, the centre m, u at m) for s = [slo, shi]
        within [0, 1]: the terms of the mean-value form of u, from one walk
        of A and of C over s and one at m.  u' at m is not formed; it lies
        in u' over s, so it is bounded wherever that is."""
        m = _mid(slo, shi)
        u, (alo, ahi), b = self._u(slo, shi)
        return u, _add(*b, -ahi, -alo), m, self._u(m, m)[0]

    def _u_over_s(self, slo: float, shi: float) -> tuple:
        a_part = self._A.over_t(slo, shi)  # s lies in the first segment
        return _add(*_mul(*_add(1.0, 1.0, -shi, -slo), *a_part), *self._b(slo, shi))

    def _u_over_1ms(self, slo: float, shi: float) -> tuple:
        tau_lo, tau_hi = _add(1.0, 1.0, -shi, -slo)
        if tau_hi > self._tail_width:  # _polyval raises for tau below 0
            raise DomainError("factored evaluation outside the last segment")
        b_over = _polyval(self._tail[:-1], tau_lo, tau_hi)
        return _add(*self._A.walk(*_clamp01(slo, shi)), *_mul(slo, shi, *b_over))

    def A(self, s: Interval) -> Interval:
        """A(s), s clamped to [0, 1]."""
        return Interval(*self._A.walk(*_clamp01(s.lo, s.hi)))

    def B(self, s: Interval) -> Interval:
        """B(s), s clamped to [0, 1]."""
        return Interval(*self._b(*_clamp01(s.lo, s.hi)))

    def u(self, s: Interval) -> Interval:
        return self.u_du(s)[0]

    # du has no caller in the library; the name stays, where the benchmark
    # tracer wraps it
    def du(self, s: Interval) -> Interval:
        return self.u_du(s)[1]

    def u_du(self, s: Interval) -> tuple[Interval, Interval]:
        """u(s) and u'(s) = B(s) - A(s) from one evaluation of A and B at s
        (clamped to [0, 1])."""
        u, (alo, ahi), b = self._u(*_clamp01(s.lo, s.hi))
        return Interval(*u), Interval(*_add(*b, -ahi, -alo))

    def u_over_s(self, s: Interval) -> Interval:
        """u(s)/s continued through s = 0; s must sit in the first segment."""
        return Interval(*self._u_over_s(s.lo, s.hi))

    def u_over_1ms(self, s: Interval) -> Interval:
        """u(s)/(1-s) continued through s = 1 (within the last segment)."""
        return Interval(*self._u_over_1ms(s.lo, s.hi))

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
    each box from the kernel ``_check`` uses."""

    def __init__(self, ev: GreenEvaluator):
        self.ev = ev

    def __call__(self, root, lo, hi):
        ends = []
        for a, b in zip(lo.tolist(), hi.tolist()):
            u, du, m, centre = self.ev._mean_value_terms(a, b)
            for v in (_centred(u, centre, du, a, b, m), centre, du):
                ends += v
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

    def slope(self, i: int) -> tuple:
        """(lo, hi) enclosing the slope of the interpolant on the i-th
        subinterval."""
        # divide by the actual float node spacing so the interpolant is
        # exactly continuous across nodes
        x0, x1 = self.node(i), self.node(i + 1)
        v0, v1 = float(self.values[i]), float(self.values[i + 1])
        return _bounded(*_div(*_add(v1, v1, -v0, -v0), *_add(x1, x1, -x0, -x0)))


def _check_grid_ends(grid: GridFunction1D, sign: float) -> None:
    """The contract of a checked grid: its nodes end at 1 and its end
    values are one value sign * c, c >= 0 (``_build``'s grids meet it by
    construction)."""
    last = grid.node(grid.n_intervals)
    if last != 1.0:
        raise DomainError(f"grid must end at node 1.0, not {last!r}")
    end = float(grid.values[0])
    if float(grid.values[-1]) != end or sign * end < 0.0:
        raise DomainError(
            f"grid end values must be equal and {'>=' if sign > 0 else '<='} 0, "
            f"got {end!r} and {float(grid.values[-1])!r}"
        )


def _check_forms(grid: GridFunction1D, ev: GreenEvaluator, i: int, sign: float):
    """``forms(a, b)``: the enclosures of sign * (g(s) - u_f(s)) over s in
    [a, b], within the i-th subinterval, that ``_check`` tries in turn, as
    lazily yielded endpoint pairs.  g is the interpolant of a grid that
    meets :func:`_check_grid_ends`."""
    end = float(grid.values[0])
    lo = grid.node(i)
    hi = grid.node(i + 1)
    klo, khi = grid.slope(i)
    g_lo = float(grid.values[i])

    def signed(v: tuple) -> tuple:
        return v if sign > 0 else (-v[1], -v[0])  # exact; a product by -1 would nudge

    def plain(slo: float, shi: float, u: tuple) -> tuple:  # given u = u_f(s)
        g = _add(g_lo, g_lo, *_mul(klo, khi, *_add(slo, shi, -lo, -lo)))
        return signed(_add(*g, -u[1], -u[0]))

    # at c = 0 the condition vanishes at the end node; there g = slope * s
    # (first subinterval) or g = -slope * (1-s) (last), so the condition
    # divided by s or 1-s is decided instead
    use_left = end == 0.0 and i == 0
    use_right = end == 0.0 and i == grid.n_intervals - 1

    def forms(a: float, b: float):
        # the mean-value form, whose derivative is sign * (slope - u_f')
        u, du, m, u_m = ev._mean_value_terms(a, b)
        yield _centred(plain(a, b, u), plain(m, m, u_m),
                       signed(_add(klo, khi, -du[1], -du[0])), a, b, m)
        if use_left and a == lo and b <= ev._first_seg_hi:
            v = ev._u_over_s(a, b)
            yield signed(_bounded(*_add(klo, khi, -v[1], -v[0])))
        if use_right and b == hi and 1.0 - a <= ev._tail_width:
            v = ev._u_over_1ms(a, b)
            yield signed(_bounded(*_add(-khi, -klo, -v[1], -v[0])))

    return forms


def _check(
    grid: GridFunction1D,
    ev: GreenEvaluator,
    i: int,
    sign: float,
) -> Verdict:
    """Decide sign * (g(s) - u_f(s)) >= 0 on the i-th subinterval for the
    interpolant g, by bisection until one of ``_check_forms`` decides."""
    forms = _check_forms(grid, ev, i, sign)
    evals = 0
    stack = [(grid.node(i), grid.node(i + 1))]
    while stack:
        a, b = stack.pop()
        if evals >= CHECK_EVALS:
            return Verdict.UNDECIDED
        evals += 1
        for vlo, vhi in forms(a, b):  # until one decides
            if vhi < 0.0:
                return Verdict.VIOLATED
            if vlo >= 0.0:
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
    _check_grid_ends(ubar, +1.0)
    return _check(ubar, evaluator or GreenEvaluator(f, float(ubar.values[0])), i, +1.0)


def check_sub(
    usub: GridFunction1D, f: Source1D, i: int,
    evaluator: Optional[GreenEvaluator] = None,
) -> Verdict:
    """Sub-solution condition on the i-th subinterval (mirror sign).

    The grid's end values must be one value -c <= 0."""
    _check_grid_ends(usub, -1.0)
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
    if not 0.0 <= c < math.inf:
        raise DomainError(f"boundary shift c must be finite and nonnegative, got {c!r}")
    if eps is not None and not 0.0 <= eps < math.inf:
        raise DomainError(f"source increment eps must be finite and nonnegative, got {eps!r}")
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
    super-solution c.  A c or eps that is negative, infinite or NaN is a
    DomainError.
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


def sweep(f: Source1D, h_list, c: Optional[float] = None,
          eps_factor: float = EPS_FACTOR) -> list:
    """The certified super/sub pair on each mesh of a list, one SweepRow
    per mesh, with eps = eps_factor h sup_f and the boundary shift c on
    every mesh (by default C_FACTOR sup_f h^2), sup_f bounded once for all
    meshes.  The default eps is that of the builds.
    """
    supf = GreenEvaluator(f).sup_abs_source()
    rows = []
    for h in h_list:
        c_h = C_FACTOR * supf * h * h if c is None else c
        eps = eps_factor * h * supf
        upper = build_super(f, h, c_h, eps=eps)
        rows.append(SweepRow(h, c_h, eps, upper, build_sub(f, h, c_h, eps=eps)))
    return rows


def sweep_csv(rows) -> str:
    lines = ["h,c,eps,iterations,max_gap"]
    for r in rows:
        lines.append(f"{r.h!r},{r.c!r},{r.eps!r},{r.iterations},{r.max_gap!r}")
    return "\n".join(lines) + "\n"
