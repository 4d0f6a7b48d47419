"""MFS collocation solve and rigorous boundary extrema of the candidate.

The collocation solve is plain binary64 LU: it only produces a *candidate*
test function, so no rigor is needed there and none is claimed.  All rigor
enters through ``boundary_extrema``, which bounds the candidate over all
polygon edges at once with one interval branch-and-bound in the edge
parameter; the enclosure built from the resulting m and M stays
mathematically sound no matter how badly the MFS system was conditioned
(bad conditioning only costs sharpness).  Boxes well separated from every
kernel are bounded by a local expansion of the kernel sum about the box
centre, which keeps the cancellation between the candidate's alternating
weights out of the box bound (:class:`EdgeKernel`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _directed as dr
from .errors import DomainError, SolveError
from .fundsol import INV_2PI, NEG_INV_2PI, NEG_INV_4PI, TestFunction2D
from .geometry import Polygon
from .interval import (BoxEvaluator, Interval, MinMaxResult, _midpoints, rational,
                       subdivide_min_max)

__all__ = ["EdgeKernel", "BoundaryExtrema", "collocation_system", "solve_coefficients",
           "boundary_extrema"]


def collocation_system(collocation: np.ndarray, sources: np.ndarray) -> tuple:
    """The collocation matrix Gamma(s_j, x_i) and its condition estimate.

    Both depend on the geometry only, so one matrix serves every
    evaluation point of a domain."""
    x = np.asarray(collocation, dtype=float).reshape(-1, 2)
    s = np.asarray(sources, dtype=float).reshape(-1, 2)
    if x.shape[0] != s.shape[0]:
        raise SolveError("collocation and source counts must match")
    diff = x[:, None, :] - s[None, :, :]
    d2 = np.sum(diff * diff, axis=2)
    if np.any(d2 <= 0.0):
        raise SolveError("a source point coincides with a collocation point")
    G = (-0.25 / np.pi) * np.log(d2)
    try:
        cond = float(np.linalg.cond(G))
    except np.linalg.LinAlgError:
        cond = float("inf")
    return G, cond


def solve_coefficients(
    collocation: np.ndarray, sources: np.ndarray, s_int, system=None
) -> tuple[np.ndarray, float, float]:
    """Solve the square collocation system for the source coefficients.

    Matrix entries Gamma(s_j, x_i), right-hand side -Gamma(s_int, x_i);
    ``system`` is the :func:`collocation_system` of the same points when
    the caller already has it.  Returns (coefficients, max collocation
    residual, condition estimate).
    """
    G, cond = system or collocation_system(collocation, sources)
    x = np.asarray(collocation, dtype=float).reshape(-1, 2)
    d2_int = np.sum((x - np.asarray(s_int, dtype=float)) ** 2, axis=1)
    rhs = -(-0.25 / np.pi) * np.log(d2_int)
    try:
        a = np.linalg.solve(G, rhs)
    except np.linalg.LinAlgError as e:
        raise SolveError(f"singular collocation matrix: {e}") from None
    if not np.all(np.isfinite(a)):
        raise SolveError("collocation solve produced non-finite coefficients")
    residual = float(np.max(np.abs(G @ a - rhs)))
    return a, residual, cond


# Degree p of the local expansion of phi^0 about a box centre, and the
# largest rho = |v| r / |z_m - s| (box radius over kernel distance) at which
# a box uses it.  At rho <= 1/2 the tail of kernel k is at most
# |w_k| 2^-p / (2 pi (p + 1)), and each halving of the box divides it by
# 2^(p+1); wider boxes keep the natural form.
EXPANSION_DEGREE = 6
EXPANSION_RHO = 0.5


# (-1)^j / (2 pi j) and (-1)^j / (2 pi) for j = 1..p as (lo, hi) arrays: the
# factors turning sum_k w_k a_kj / s_k^j into c_j and j c_j
_VALUE_COEFS = tuple(np.array([dr._ends(INV_2PI * Interval(*rational((-1) ** j, j)))
                               for j in range(1, EXPANSION_DEGREE + 1)]).T)
_DERIV_COEFS = tuple(np.array([dr._ends(NEG_INV_2PI if j % 2 else INV_2PI)
                               for j in range(1, EXPANSION_DEGREE + 1)]).T)


class EdgeKernel(BoxEvaluator):
    """phi^0 along every edge a + v t, t in [0, 1], as a BoxEvaluator.

    Root e of the search is edge e.  Each call returns, per box, its
    enclosure, the value at its centre t_m and, on expanded boxes, its
    t-derivative (``(-inf, inf)`` elsewhere).  For a kernel point s,

        |a + v t - s|^2 = |v|^2 ((t - t*)^2 + q),
        t* = ((s - a) . v) / |v|^2,   q = delta^2 / |v|^2,
        delta^2 = ((s - a) x v)^2 / |v|^2,

    so no bounding box of the edge enters: both forms below are exact for
    slanted edges too.  |v|^2, t*, delta^2 and q are computed once per
    candidate in exact integer arithmetic and rounded outward once, so
    T - t* loses nothing to rounding of t* beyond one ulp.

    A box T = [t_m - r, t_m + r] is bounded by a *local expansion* when
    every kernel has rho_k = r / sqrt(s_k) <= ``EXPANSION_RHO``, where
    tau_k = t_m - t*_k and s_k = tau_k^2 + q_k.  In h = t - t_m,

        phi^0 = c_0 + sum_{j=1..p} c_j h^j + E,
        c_j = ((-1)^j / (2 pi j)) sum_k w_k a_kj / s_k^j,

    with c_0 the centre value and a_kj = Re((tau_k + i sqrt(q_k))^j) from
    a_0 = 1, a_1 = tau, a_(j+1) = 2 tau a_j - s a_(j-1): the local
    expansion of the log kernel (Greengard & Rokhlin, J. Comput. Phys. 73,
    1987).  The kernels are summed in the point-valued coefficients, so
    their alternating weights cancel there instead of adding up their
    widths over the box (a centred form against the dependency problem).
    The tails are |E| <= (1/(2 pi)) sum_k |w_k| rho_k^(p+1) / ((p+1)(1 - rho_k))
    and, for the derivative sum_j j c_j h^(j-1), (1/(2 pi)) sum_k |w_k|
    s_k^(-1/2) rho_k^p / (1 - rho_k).

    Wider boxes, points (``lo == hi``) and every centre take the *natural
    form* with d^2 = |a + v T - s|^2 = |v|^2 (T - t*)^2 + delta^2,

        phi^0 = -(1/(4 pi)) sum_k w_k log d_k^2,

    all of them in one kernel sum per chunk.  ``expanded_boxes`` and
    ``natural_boxes`` count the boxes (not the points) each form bounded.
    Boxes are evaluated in chunks of about ``CHUNK_ELEMS`` (box, kernel)
    elements so the temporaries stay small.
    """

    CHUNK_ELEMS = 2048

    def __init__(self, tf0: TestFunction2D, poly: Polygon):
        self.weights = np.concatenate(([1.0], tf0.coeffs))
        self.roots = [Interval(0.0, 1.0)] * len(poly.vertices)
        self.chunk = max(1, self.CHUNK_ELEMS // len(self.weights))
        self.expanded_boxes = self.natural_boxes = 0
        # exact geometry in integers (every float times 2^k), each
        # quantity rounded outward once
        pts = np.vstack((poly.vertices, [tf0.s_int], tf0.sources))
        ints, k = _scaled_ints(pts.ravel())
        xy = list(zip(ints[0::2], ints[1::2]))
        a, s = xy[: len(poly.vertices)], xy[len(poly.vertices):]
        v2, tstar, delta2, q = [], [], [], []
        for (ax, ay), (bx, by) in zip(a, a[1:] + a[:1]):
            vx, vy = bx - ax, by - ay
            n2 = vx * vx + vy * vy
            cross2 = [((sx - ax) * vy - (sy - ay) * vx) ** 2 for sx, sy in s]
            v2.append(rational(n2, 1 << 2 * k))
            tstar.append([rational((sx - ax) * vx + (sy - ay) * vy, n2)
                          for sx, sy in s])
            delta2.append([rational(c2, n2 << 2 * k) for c2 in cross2])
            q.append([rational(c2, n2 * n2) for c2 in cross2])
        self.v2, self.tstar, self.delta2, self.q = (
            tuple(np.moveaxis(np.array(x), -1, 0)) for x in (v2, tstar, delta2, q))

    def __call__(self, root, lo, hi):
        c = self.chunk
        parts = [self._eval(root[i:i + c], lo[i:i + c], hi[i:i + c])
                 for i in range(0, len(root), c)]
        return tuple(np.concatenate(col) for col in zip(*parts))

    def _eval(self, e, lo, hi):
        tm = _midpoints(lo, hi)  # a point is its own centre
        h = dr.iv_sub(lo, hi, tm, tm)
        r = np.maximum(-h[0], h[1])
        tau = dr.iv_sub(tm[:, None], tm[:, None], self.tstar[0][e], self.tstar[1][e])
        tau2 = dr.iv_sqr(*tau)
        s = dr.iv_add(*tau2, self.q[0][e], self.q[1][e])
        # selects the form only: the tails use a rigorous rho_k, which this
        # float test keeps within a few ulps of EXPANSION_RHO < 1
        box = lo < hi
        near = box & np.all(r[:, None] <= EXPANSION_RHO * np.sqrt(s[0]), axis=1)
        wide = box & ~near
        self.expanded_boxes += int(near.sum())
        self.natural_boxes += int(wide.sum())
        # the natural form at every centre and over every wide box, in one sum
        tw2 = dr.iv_sqr(*dr.iv_sub(lo[wide, None], hi[wide, None],
                                   self.tstar[0][e[wide]], self.tstar[1][e[wide]]))
        nat = self._log_sum(np.concatenate((e, e[wide])),
                            *(np.concatenate(x) for x in zip(tau2, tw2)))
        n = len(e)
        out = np.empty((6, n))
        out[0:2] = out[2:4] = nat[0][:n], nat[1][:n]
        out[0:2, wide] = nat[0][n:], nat[1][n:]
        out[4], out[5] = -np.inf, np.inf  # the natural form gives no slope
        if near.any():
            val, der = self._expansion(r[near], (out[2, near], out[3, near]),
                                       *((x[0][near], x[1][near]) for x in (h, tau, s)))
            out[0:2, near], out[4:6, near] = val, der
        return tuple(out)

    def _log_sum(self, e, tau2_lo, tau2_hi):
        """-(1/(4 pi)) sum_k w_k log d_k^2 from (T - t*)^2."""
        d2lo, d2hi = dr.iv_add(*dr.iv_mul(self.v2[0][e, None], self.v2[1][e, None],
                                          tau2_lo, tau2_hi),
                               self.delta2[0][e], self.delta2[1][e])
        if np.any(d2lo <= 0.0):
            raise DomainError("a polygon edge passes through a kernel point")
        sums = dr.iv_dot(self.weights, *dr.iv_log(d2lo, d2hi))
        return dr.iv_mul(*sums, NEG_INV_4PI.lo, NEG_INV_4PI.hi)

    def _expansion(self, r, c0, h, tau, s):
        """Value and slope of each box from its centre value c_0."""
        p = EXPANSION_DEGREE
        # u_j = a_j / s^j: u_0 = 1, u_1 = tau / s, u_(j+1) = (2 tau u_j - u_(j-1)) / s
        inv_s = dr.iv_div(1.0, 1.0, *s)
        two_tau = (2.0 * tau[0], 2.0 * tau[1])
        prev, u = (1.0, 1.0), dr.iv_mul(*tau, *inv_s)
        sums = [dr.iv_dot(self.weights, *u)]
        for _ in range(p - 1):  # one (box, kernel) array at a time keeps the peak small
            prev, u = u, dr.iv_mul(*dr.iv_sub(*dr.iv_mul(*two_tau, *u), *prev), *inv_s)
            sums.append(dr.iv_dot(self.weights, *u))
        sums = dr._stack(sums)  # (box, j) for j = 1..p
        hp = [None, h]  # H^j, even powers by squaring
        for j in range(2, p + 1):
            hp.append(dr.iv_sqr(*hp[j // 2]) if j % 2 == 0 else dr.iv_mul(*hp[j - 1], *h))
        val_tail, der_tail = self._tails(r, s[0])
        terms = dr.iv_mul(*dr.iv_mul(*sums, *_VALUE_COEFS), *dr._stack(hp[1:]))
        val = dr.iv_add(*c0, dr._row_sums(terms[0])[0], dr._row_sums(terms[1])[1])
        val = dr.iv_add(*val, -val_tail, val_tail)
        d = dr.iv_mul(*sums, *_DERIV_COEFS)  # j c_j
        terms = dr.iv_mul(d[0][:, 1:], d[1][:, 1:], *dr._stack(hp[1:p]))
        der = dr.iv_add(dr._row_sums(terms[0])[0], dr._row_sums(terms[1])[1],
                        d[0][:, 0], d[1][:, 0])
        return val, dr.iv_add(*der, -der_tail, der_tail)

    def _tails(self, r, s_lo):
        """Upper bounds of the value and derivative tails of each box, from
        its radius r and lower bounds s_lo of every s_k; every step rounds up."""
        p = EXPANSION_DEGREE
        root_s = dr.next_down(np.sqrt(s_lo))
        rho = dr.next_up(r[:, None] / root_s)
        one_minus = dr.next_down(1.0 - rho)
        rho_p = rho
        for _ in range(p - 1):
            rho_p = dr.next_up(rho_p * rho)
        val = dr.next_up(dr.next_up(rho_p * rho) / dr.next_down((p + 1) * one_minus))
        der = dr.next_up(dr.next_up(rho_p / root_s) / one_minus)
        absw = np.abs(self.weights)
        return tuple(dr.next_up(dr.iv_dot(absw, x, x)[1] * INV_2PI.hi) for x in (val, der))


def _scaled_ints(values) -> tuple[list, int]:
    """Integers X_i and one k >= 0 with X_i = x_i 2^k exactly."""
    ratios = [float(x).as_integer_ratio() for x in values]
    k = max(d.bit_length() - 1 for _n, d in ratios)  # every d is a power of 2
    return [n << (k - d.bit_length() + 1) for n, d in ratios], k


# Total evaluations of one boundary search: 400x the 372 of the largest
# search any problem file, test or benchmark input makes (664 while box
# centres were evaluated twice, 11,858 before the local expansion), so
# only searches far beyond any measured one stop early (still sound).
MAX_EVALS = 150_000


@dataclass(slots=True)
class BoundaryExtrema(MinMaxResult):
    """The search result with the :class:`EdgeKernel` box counts of each
    bounding form."""

    expanded_boxes: int = 0
    natural_boxes: int = 0


MAX_DEPTH = 48  # halvings of [0, 1]: far below any box a tol needs


def boundary_extrema(tf0: TestFunction2D, poly: Polygon, tol: float) -> BoundaryExtrema:
    """Rigorous enclosures (m, M) of min/max of phi^0 over the boundary.

    One branch-and-bound runs over all edges together, each parameterized
    by t in [0, 1] through :class:`EdgeKernel`; the slope of phi^0 along
    the edge on expanded boxes finalizes monotone ones by their endpoints.
    """
    kernel = EdgeKernel(tf0, poly)
    res = subdivide_min_max(kernel, kernel.roots, tol=tol, max_depth=MAX_DEPTH,
                            max_evals=MAX_EVALS)
    return BoundaryExtrema(res.m, res.M, res.converged, res.evaluations, res.depth,
                           kernel.expanded_boxes, kernel.natural_boxes)
