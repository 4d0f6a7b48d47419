"""MFS collocation solve and rigorous boundary extrema of the candidate.

The collocation solve is plain binary64 LU: it only produces a *candidate*
test function, so no rigor is needed there and none is claimed.  All rigor
enters through ``boundary_extrema``, which bounds the candidate over all
polygon edges at once with one interval branch-and-bound in the edge
parameter; the enclosure built from the resulting m and M stays
mathematically sound no matter how badly the MFS system was conditioned
(bad conditioning only costs sharpness).
"""

from __future__ import annotations

import numpy as np

from . import _directed as dr
from .errors import DomainError, SolveError
from .fundsol import NEG_INV_2PI, NEG_INV_4PI, TestFunction2D
from .geometry import Polygon
from .interval import BoxEvaluator, Interval, MinMaxResult, rational, subdivide_min_max

__all__ = ["EdgeKernel", "collocation_system", "solve_coefficients", "boundary_extrema"]


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


class EdgeKernel(BoxEvaluator):
    """phi^0 and its t-derivative along every edge a + v t, t in [0, 1].

    Root e of the search is edge e.  For a kernel point s,

        |a + v t - s|^2 = |v|^2 (t - t*)^2 + delta^2,
        t* = ((s - a) . v) / |v|^2,   delta^2 = ((s - a) x v)^2 / |v|^2,

    so a t-box T costs one interval square per kernel and no bounding box
    of the edge enters: the form is exact for slanted edges too.  |v|^2,
    t* and delta^2 are computed once per candidate in exact integer
    arithmetic and rounded outward once, so T - t* loses nothing to
    rounding of t* beyond one ulp.  Value and derivative share T - t* and
    d^2:

        phi^0 = -(1/(4 pi)) sum_k w_k log d_k^2,
        dphi^0/dt = -(1/(2 pi)) |v|^2 sum_k w_k (T - t*_k) / d_k^2.

    Boxes are evaluated in chunks of about ``CHUNK_ELEMS`` (box, kernel)
    elements so the temporaries stay small.
    """

    has_derivative = True
    CHUNK_ELEMS = 2048

    def __init__(self, tf0: TestFunction2D, poly: Polygon):
        self.weights = np.concatenate(([1.0], tf0.coeffs))
        self.roots = [Interval(0.0, 1.0)] * len(poly.vertices)
        self.chunk = max(1, self.CHUNK_ELEMS // len(self.weights))
        # exact geometry in integers (every float times 2^k), each
        # quantity rounded outward once
        pts = np.vstack((poly.vertices, [tf0.s_int], tf0.sources))
        ints, k = _scaled_ints(pts.ravel())
        xy = list(zip(ints[0::2], ints[1::2]))
        a, s = xy[: len(poly.vertices)], xy[len(poly.vertices):]
        v2, tstar, delta2 = [], [], []
        for (ax, ay), (bx, by) in zip(a, a[1:] + a[:1]):
            vx, vy = bx - ax, by - ay
            n2 = vx * vx + vy * vy
            v2.append(rational(n2, 1 << 2 * k))
            tstar.append([rational((sx - ax) * vx + (sy - ay) * vy, n2)
                          for sx, sy in s])
            delta2.append([rational(((sx - ax) * vy - (sy - ay) * vx) ** 2, n2 << 2 * k)
                           for sx, sy in s])
        self.v2, self.tstar, self.delta2 = (
            tuple(np.moveaxis(np.array(q), -1, 0)) for q in (v2, tstar, delta2))
        self.dscale = dr.iv_mul(*self.v2, NEG_INV_2PI.lo, NEG_INV_2PI.hi)

    def __call__(self, root, lo, hi, deriv: bool):
        c = self.chunk
        parts = [self._eval(root[i:i + c], lo[i:i + c], hi[i:i + c], deriv)
                 for i in range(0, len(root), c)]
        return tuple(np.concatenate(col) for col in zip(*parts))

    def _eval(self, e, lo, hi, deriv: bool):
        tlo, thi = self.tstar
        tau = dr.iv_sub(lo[:, None], hi[:, None], tlo[e], thi[e])
        v2lo, v2hi = self.v2[0][e, None], self.v2[1][e, None]
        d2lo, d2hi = dr.iv_add(*dr.iv_mul(v2lo, v2hi, *dr.iv_sqr(*tau)),
                               self.delta2[0][e], self.delta2[1][e])
        if np.any(d2lo <= 0.0):
            raise DomainError("a polygon edge passes through a kernel point")
        sums = dr.iv_dot(self.weights, *dr.iv_log(d2lo, d2hi))
        out = dr.iv_mul(*sums, NEG_INV_4PI.lo, NEG_INV_4PI.hi)
        if not deriv:
            return out
        sums = dr.iv_dot(self.weights, *dr.iv_div(*tau, d2lo, d2hi))
        return out + dr.iv_mul(*sums, self.dscale[0][e], self.dscale[1][e])


def _scaled_ints(values) -> tuple[list, int]:
    """Integers X_i and one k >= 0 with X_i = x_i 2^k exactly."""
    ratios = [float(x).as_integer_ratio() for x in values]
    k = max(d.bit_length() - 1 for _n, d in ratios)  # every d is a power of 2
    return [n << (k - d.bit_length() + 1) for n, d in ratios], k


# Total evaluations of one boundary search: more than 10x the 11,858 of the
# largest search any problem file, test or benchmark input makes, so only
# searches that would run for minutes stop early (unconverged, still sound).
MAX_EVALS = 150_000


def boundary_extrema(
    tf0: TestFunction2D,
    poly: Polygon,
    tol: float = 1e-9,
    max_depth: int = 48,
) -> MinMaxResult:
    """Rigorous enclosures (m, M) of min/max of phi^0 over the boundary.

    One branch-and-bound runs over all edges together, each parameterized
    by t in [0, 1] through :class:`EdgeKernel`; the derivative of phi^0
    along the edge provides monotonicity pruning and mean-value tightening.
    """
    kernel = EdgeKernel(tf0, poly)
    return subdivide_min_max(kernel, kernel.roots, tol=tol, max_depth=max_depth,
                             max_evals=MAX_EVALS)
