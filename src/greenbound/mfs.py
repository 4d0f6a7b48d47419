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
from .interval import BoxEvaluator, Interval, MinMaxResult, rational, subdivide_min_max

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


def _endpoints(intervals):
    return np.array([c.lo for c in intervals]), np.array([c.hi for c in intervals])


# (-1)^j / (2 pi j) and (-1)^j / (2 pi) for j = 1..p as (lo, hi) arrays: the
# factors turning sum_k w_k a_kj / s_k^j into c_j and j c_j
_VALUE_COEFS = _endpoints([INV_2PI * Interval(*rational((-1) ** j, j))
                           for j in range(1, EXPANSION_DEGREE + 1)])
_DERIV_COEFS = _endpoints([NEG_INV_2PI if j % 2 else INV_2PI
                           for j in range(1, EXPANSION_DEGREE + 1)])


class EdgeKernel(BoxEvaluator):
    """phi^0 and its t-derivative along every edge a + v t, t in [0, 1].

    Root e of the search is edge e.  For a kernel point s,

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

    with c_0 the point value at t_m and a_kj = Re((tau_k + i sqrt(q_k))^j)
    from a_0 = 1, a_1 = tau, a_(j+1) = 2 tau a_j - s a_(j-1): the local
    expansion of the log kernel (Greengard & Rokhlin, J. Comput. Phys. 73,
    1987).  The kernels are summed in the point-valued coefficients, so
    their alternating weights cancel there instead of adding up their
    widths over the box (a centred form against the dependency problem).
    The tails are |E| <= (1/(2 pi)) sum_k |w_k| rho_k^(p+1) / ((p+1)(1 - rho_k))
    and, for the derivative sum_j j c_j h^(j-1), (1/(2 pi)) sum_k |w_k|
    s_k^(-1/2) rho_k^p / (1 - rho_k).

    Wider boxes, and points (``lo == hi``), take the *natural form*, with
    value and derivative sharing T - t* and d^2 = |a + v T - s|^2:

        phi^0 = -(1/(4 pi)) sum_k w_k log d_k^2,
        dphi^0/dt = -(1/(2 pi)) |v|^2 sum_k w_k (T - t*_k) / d_k^2.

    ``expanded_boxes`` and ``natural_boxes`` count the boxes (not the
    points) each form bounded.  Boxes are evaluated in chunks of about
    ``CHUNK_ELEMS`` (box, kernel) elements so the temporaries stay small.
    """

    has_derivative = True
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
        self.dscale = dr.iv_mul(*self.v2, NEG_INV_2PI.lo, NEG_INV_2PI.hi)

    def __call__(self, root, lo, hi, deriv: bool):
        c = self.chunk
        parts = [self._eval(root[i:i + c], lo[i:i + c], hi[i:i + c], deriv)
                 for i in range(0, len(root), c)]
        return tuple(np.concatenate(col) for col in zip(*parts))

    def _eval(self, e, lo, hi, deriv: bool):
        box = np.flatnonzero(lo < hi)
        eb = e[box]
        tm = 0.5 * (lo[box] + hi[box])
        h = dr.iv_sub(lo[box], hi[box], tm, tm)
        r = np.maximum(-h[0], h[1])
        tau = dr.iv_sub(tm[:, None], tm[:, None], self.tstar[0][eb], self.tstar[1][eb])
        tau2 = dr.iv_sqr(*tau)
        s = dr.iv_add(*tau2, self.q[0][eb], self.q[1][eb])
        # selects the form only: the tails use a rigorous rho_k, which this
        # float test keeps within a few ulps of EXPANSION_RHO < 1
        ok = np.all(r[:, None] <= EXPANSION_RHO * np.sqrt(s[0]), axis=1)
        self.expanded_boxes += int(ok.sum())
        self.natural_boxes += int(ok.size - ok.sum())
        near = np.zeros(len(e), dtype=bool)
        near[box[ok]] = True
        out = np.empty((4 if deriv else 2, len(e)))
        if ok.any():
            parts = [(x[0][ok], x[1][ok]) for x in (h, tau, tau2, s)]
            out[:, near] = self._expansion(eb[ok], r[ok], *parts, deriv)
        if not near.all():
            far = ~near
            out[:, far] = self._natural(e[far], lo[far], hi[far], deriv)
        return tuple(out)

    def _log_sum(self, e, tau2):
        """-(1/(4 pi)) sum_k w_k log d_k^2 from (T - t*)^2, and d^2."""
        d2lo, d2hi = dr.iv_add(*dr.iv_mul(self.v2[0][e, None], self.v2[1][e, None], *tau2),
                               self.delta2[0][e], self.delta2[1][e])
        if np.any(d2lo <= 0.0):
            raise DomainError("a polygon edge passes through a kernel point")
        sums = dr.iv_dot(self.weights, *dr.iv_log(d2lo, d2hi))
        return dr.iv_mul(*sums, NEG_INV_4PI.lo, NEG_INV_4PI.hi), (d2lo, d2hi)

    def _natural(self, e, lo, hi, deriv: bool):
        tau = dr.iv_sub(lo[:, None], hi[:, None], self.tstar[0][e], self.tstar[1][e])
        out, d2 = self._log_sum(e, dr.iv_sqr(*tau))
        if not deriv:
            return out
        sums = dr.iv_dot(self.weights, *dr.iv_div(*tau, *d2))
        return out + dr.iv_mul(*sums, self.dscale[0][e], self.dscale[1][e])

    def _expansion(self, e, r, h, tau, tau2, s, deriv: bool):
        p = EXPANSION_DEGREE
        # u_j = a_j / s^j: u_0 = 1, u_1 = tau / s, u_(j+1) = (2 tau u_j - u_(j-1)) / s
        inv_s = dr.iv_div(1.0, 1.0, *s)
        two_tau = (2.0 * tau[0], 2.0 * tau[1])
        prev, u = (1.0, 1.0), dr.iv_mul(*tau, *inv_s)
        sums = [dr.iv_dot(self.weights, *u)]
        for _ in range(p - 1):  # one (box, kernel) array at a time keeps the peak small
            prev, u = u, dr.iv_mul(*dr.iv_sub(*dr.iv_mul(*two_tau, *u), *prev), *inv_s)
            sums.append(dr.iv_dot(self.weights, *u))
        sums = _stack(sums)  # (box, j) for j = 1..p
        hp = [None, h]  # H^j, even powers by squaring
        for j in range(2, p + 1):
            hp.append(dr.iv_sqr(*hp[j // 2]) if j % 2 == 0 else dr.iv_mul(*hp[j - 1], *h))
        ones = np.ones(p)
        val_tail, der_tail = self._tails(r, s[0])
        val, _ = self._log_sum(e, tau2)  # c_0
        terms = dr.iv_mul(*dr.iv_mul(*sums, *_VALUE_COEFS), *_stack(hp[1:]))
        val = dr.iv_add(*dr.iv_add(*val, *dr.iv_dot(ones, *terms)), -val_tail, val_tail)
        if not deriv:
            return val
        d = dr.iv_mul(*sums, *_DERIV_COEFS)  # j c_j
        terms = dr.iv_mul(d[0][:, 1:], d[1][:, 1:], *_stack(hp[1:p]))
        der = dr.iv_add(*dr.iv_dot(ones[1:], *terms), d[0][:, 0], d[1][:, 0])
        return val + dr.iv_add(*der, -der_tail, der_tail)

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


def _stack(pairs):
    """(lo, hi) arrays of shape (n, ...) stacked along a new axis 1."""
    return tuple(np.stack([x[i] for x in pairs], axis=1) for i in (0, 1))


def _scaled_ints(values) -> tuple[list, int]:
    """Integers X_i and one k >= 0 with X_i = x_i 2^k exactly."""
    ratios = [float(x).as_integer_ratio() for x in values]
    k = max(d.bit_length() - 1 for _n, d in ratios)  # every d is a power of 2
    return [n << (k - d.bit_length() + 1) for n, d in ratios], k


# Total evaluations of one boundary search: more than 200x the 664 of the
# largest search any problem file, test or benchmark input makes (11,858
# before boxes used the local expansion), so only searches far beyond any
# measured one stop early (unconverged, still sound).
MAX_EVALS = 150_000


@dataclass(slots=True)
class BoundaryExtrema(MinMaxResult):
    """The search result with the :class:`EdgeKernel` box counts of each
    bounding form."""

    expanded_boxes: int = 0
    natural_boxes: int = 0


def boundary_extrema(
    tf0: TestFunction2D,
    poly: Polygon,
    tol: float,
    max_depth: int = 48,
) -> BoundaryExtrema:
    """Rigorous enclosures (m, M) of min/max of phi^0 over the boundary.

    One branch-and-bound runs over all edges together, each parameterized
    by t in [0, 1] through :class:`EdgeKernel`; the derivative of phi^0
    along the edge provides monotonicity pruning and mean-value tightening.
    """
    kernel = EdgeKernel(tf0, poly)
    res = subdivide_min_max(kernel, kernel.roots, tol=tol, max_depth=max_depth,
                            max_evals=MAX_EVALS)
    return BoundaryExtrema(res.m, res.M, res.converged, res.evaluations, res.depth,
                           kernel.expanded_boxes, kernel.natural_boxes)
