"""MFS collocation solve and rigorous boundary extrema of the candidate.

The collocation solve is plain binary64 LU: it only produces a *candidate*
test function, so no rigor is needed there and none is claimed.  All rigor
enters through ``boundary_extrema``, which bounds each candidate over all
polygon edges at once with one interval branch-and-bound in the edge
parameter; the enclosure built from the resulting m and M stays
mathematically sound no matter how badly the MFS system was conditioned
(bad conditioning only costs sharpness).  Boxes well separated from every
kernel are bounded by a local expansion of the kernel sum about the box
centre, which keeps the cancellation between the candidate's alternating
weights out of the box bound (:class:`EdgeKernel`).

The candidates of one domain plan share their exterior sources, so one
:class:`EdgeKernel` holds the exact source geometry once for all of them,
and their searches are stepped together: each level is one kernel call
over the pending boxes of every search, the per-source work of a box
the searches share is done once, and each candidate's result is bit for
bit that of its search alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _directed as dr
from .errors import DomainError, SolveError
from .fundsol import INV_2PI, NEG_INV_2PI, NEG_INV_4PI, TestFunction2D, log_kernel
from .geometry import Polygon
# subdivide_min_max is no longer called here; the name stays importable
# from this module, where the benchmark tracer wraps it
from .interval import (BoxEvaluator, Interval, MinMaxResult, _midpoints, lockstep_min_max,
                       rational, subdivide_min_max)  # noqa: F401

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
    G = log_kernel(d2)
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
    rhs = -log_kernel(d2_int)
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
    """phi^0 of candidates that share their exterior sources, along every
    edge a + v t, t in [0, 1], as one BoxEvaluator.

    The candidates are those of one domain plan: the same sources, each
    with its own s_int and weights.  Root r of a call is edge r % E of
    candidate r // E, for E edges; ``roots`` are the E roots of one
    candidate's search.  Each call returns, per box, its enclosure, the
    value at its centre t_m and, on expanded boxes, its t-derivative
    (``(-inf, inf)`` elsewhere).  For a kernel point s,

        |a + v t - s|^2 = |v|^2 ((t - t*)^2 + q),
        t* = ((s - a) . v) / |v|^2,   q = delta^2 / |v|^2,
        delta^2 = ((s - a) x v)^2 / |v|^2,

    so no bounding box of the edge enters: both forms below are exact for
    slanted edges too.  |v|^2, and t*, delta^2 and q of every source, are
    computed once for all candidates in exact integer arithmetic and
    rounded outward once (each s_int adds one more per edge), so
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

        phi^0 = -(1/(4 pi)) sum_k w_k log d_k^2.

    ``expanded_boxes`` and ``natural_boxes`` count, per candidate, the
    boxes (not the points) each form bounded.

    The candidates of a plan search the same boxes in their first levels,
    so a call's rows repeat (edge, lo, hi).  Everything but the weights and
    the own s_int kernel depends on the box alone: tau, s, the logs, the
    u_j and the tail terms of the sources are formed once per distinct
    box, those of each row's s_int once per row, in one pass, and each
    row's weighted sums gather them.  Distinct boxes are evaluated in
    chunks of about ``CHUNK_ELEMS`` (box, source) elements so the
    temporaries stay small; every box's bounds depend only on its own root
    and endpoints, whatever else a call or chunk holds.
    """

    CHUNK_ELEMS = 2048
    # sums per iv_dot, in chunks of rows: 3 keep the peak temporaries of an
    # evaluation, its element arrays included, below those of the p sums
    # of one chunk of rows alone (1.2 against 1.4 MB on poly-const)
    DOT_ROWS = 3

    def __init__(self, candidates: Sequence[TestFunction2D], poly: Polygon):
        tfs = list(candidates)
        sources = tfs[0].sources
        if any(not np.array_equal(tf.sources, sources) for tf in tfs):
            raise DomainError("the candidates of one EdgeKernel must share their sources")
        self.edges = len(poly.vertices)
        self.weights = np.array([np.concatenate(([1.0], tf.coeffs)) for tf in tfs])
        self.weight_table = np.vstack((self.weights, np.abs(self.weights)))
        self.roots = [Interval(0.0, 1.0)] * self.edges
        self.chunk = max(1, self.CHUNK_ELEMS // self.weights.shape[1])
        self.expanded_boxes = np.zeros(len(tfs), dtype=int)
        self.natural_boxes = np.zeros(len(tfs), dtype=int)
        # exact geometry in integers (every float times 2^k), each
        # quantity rounded outward once
        pts = np.vstack((poly.vertices, [tf.s_int for tf in tfs], sources))
        ints, k = _scaled_ints(pts.ravel())
        xy = list(zip(ints[0::2], ints[1::2]))
        a, own = xy[:self.edges], xy[self.edges:self.edges + len(tfs)]
        shared = xy[self.edges + len(tfs):]
        per_edge = [(rational((bx - ax) ** 2 + (by - ay) ** 2, 1 << 2 * k),
                     _edge_geometry((ax, ay), (bx, by), k, own),
                     _edge_geometry((ax, ay), (bx, by), k, shared))
                    for (ax, ay), (bx, by) in zip(a, a[1:] + a[:1])]
        # the geometry of every element of _eval: source k along edge e at
        # e S + k, then the s_int of candidate c along edge e at E S + c E + e
        self.sources = S = len(sources)
        elements = ([(v2, *(x[k] for x in theirs)) for v2, _mine, theirs in per_edge
                     for k in range(S)] +
                    [(v2, *(x[c] for x in mine)) for c in range(len(tfs))
                     for v2, mine, _theirs in per_edge])
        self.geometry = {name: tuple(np.array(x, dtype=float).reshape(-1, 2).T)
                         for name, x in zip(("v2", "tstar", "delta2", "q"), zip(*elements))}

    def __call__(self, root, lo, hi):
        # the distinct (edge, lo, hi) of the call, numbered by first row;
        # the candidates of a plan share most boxes of their first levels
        ids = {}
        box = np.array([ids.setdefault(key, len(ids)) for key in zip(
            (root % self.edges).tolist(), lo.view(np.int64).tolist(),
            hi.view(np.int64).tolist())], dtype=np.intp)
        out, near, wide = np.empty((6, len(root))), *np.zeros((2, len(root)), dtype=bool)
        for a in range(0, len(ids), self.chunk):
            rows = np.flatnonzero((box >= a) & (box < a + self.chunk))
            out[:, rows], near[rows], wide[rows] = self._eval(
                root[rows], lo[rows], hi[rows], box[rows] - a)
        # counted once the whole call succeeded
        cand, n = root // self.edges, len(self.weights)
        self.expanded_boxes += np.bincount(cand[near], minlength=n)
        self.natural_boxes += np.bincount(cand[wide], minlength=n)
        return tuple(out)

    def _eval(self, root, lo, hi, box):
        """The rows (root, lo, hi), whose distinct (edge, lo, hi) ``box``
        numbers 0..U-1 in order of first row.

        Every (box, source) is one element, and so is the s_int kernel of
        every row: tau, s, the logs, the u_j and the tail terms are formed
        once per element, so a box that several candidates share costs its
        sources once.  The weighted sums of the rows then gather their
        elements, ``DOT_ROWS`` chunks of sums to one ``iv_dot``."""
        E, S, n = self.edges, self.sources, len(root)
        p = EXPANSION_DEGREE
        # box numbers appear in increasing order, so a row is the first of
        # its box where its number exceeds every earlier one
        first = np.flatnonzero(box > np.concatenate(([-1], np.maximum.accumulate(box)[:-1])))
        nbox = len(first)
        tm = _midpoints(lo, hi)  # a point is its own centre
        h = dr.iv_sub(lo, hi, tm, tm)
        r = np.maximum(-h[0], h[1])
        ks = np.arange(S)
        # element b S + k is source k of box b, element U S + i the s_int of
        # row i; ``row`` is a row of each element's box, ``geo`` its
        # geometry and cols[i, k] the element of kernel k of row i
        row = np.concatenate((np.repeat(first, S), np.arange(n)))
        geo = np.concatenate((((root[first] % E * S)[:, None] + ks).ravel(), E * S + root))
        cols = np.column_stack((nbox * S + np.arange(n), (box * S)[:, None] + ks))
        g = {name: (x[0][geo], x[1][geo]) for name, x in self.geometry.items()}
        tmr = tm[row]
        tau = dr.iv_sub(tmr, tmr, *g["tstar"])
        tau2 = dr.iv_sqr(*tau)
        s = dr.iv_add(*tau2, *g["q"])
        # selects the form only: the tails use a rigorous rho_k, which this
        # float test keeps within a few ulps of EXPANSION_RHO < 1
        fits = r[row] <= EXPANSION_RHO * np.sqrt(s[0])
        isbox = lo < hi
        near = isbox & np.all(fits[cols], axis=1)
        wide = isbox & ~near
        wel, wcols = _elements(wide, box, nbox, S, cols)
        nel, ncols = _elements(near, box, nbox, S, cols)
        # the terms of the sums, per element: the logs of d^2 at every
        # centre and over every wide box, then on expanded boxes u_1..u_p
        # and the value and derivative tail terms
        F, Fw, Fn = row.size, wel.size, nel.size
        terms = np.empty((2, F + Fw + (p + 2) * Fn))
        wrow = row[wel]
        tw2 = dr.iv_sqr(*dr.iv_sub(lo[wrow], hi[wrow], *dr._take(g["tstar"], wel)))
        v2, delta2 = (dr._join(x, dr._take(x, wel)) for x in (g["v2"], g["delta2"]))
        d2lo, d2hi = dr.iv_add(*dr.iv_mul(*v2, *dr._join(tau2, tw2)), *delta2)
        if np.any(d2lo <= 0.0):
            raise DomainError("a polygon edge passes through a kernel point")
        terms[0, :F + Fw], terms[1, :F + Fw] = dr.iv_log(d2lo, d2hi)
        base = F + Fw
        if Fn:
            _powers(dr._take(tau, nel), dr._take(s, nel),
                    terms[:, base:base + p * Fn].reshape(2, p, Fn))
            terms[:, base + p * Fn:] = _tail_terms(r[row[nel]], s[0][nel]).ravel()
        del g, tau, tau2, s, tw2, v2, delta2, d2lo, d2hi, fits  # before the sums' temporaries
        # the sums, one per line: the centre of every row, every wide box,
        # then on expanded boxes sum_k w_k u_kj for j = 1..p and the two
        # tails with |w_k|; a line takes the elements of row ``line`` of
        # ``at`` (plus ``offset``) and row ``weight`` of the weight table
        nw, nn = int(wide.sum()), int(near.sum())
        cand, nrows = root // E, np.flatnonzero(near)
        at = np.concatenate((cols, F + wcols, base + ncols))
        line = np.concatenate([np.arange(n + nw)] + [np.arange(n + nw, n + nw + nn)] * (p + 2))
        offset = np.concatenate((np.zeros(n + nw, dtype=np.intp),
                                 np.repeat(np.arange(p + 2) * Fn, nn)))
        weight = np.concatenate([cand, cand[wide]] + [cand[nrows]] * p +
                                [cand[nrows] + len(self.weights)] * 2)
        size = self.DOT_ROWS * self.chunk
        sums = np.empty((2, line.size))
        for a in range(0, line.size, size):
            take = at[line[a:a + size]] + offset[a:a + size, None]
            sums[:, a:a + size] = dr.iv_dot(self.weight_table[weight[a:a + size]],
                                            terms[0][take], terms[1][take])
        m = n + nw
        nat = dr.iv_mul(sums[0][:m], sums[1][:m], NEG_INV_4PI.lo, NEG_INV_4PI.hi)
        out = np.empty((6, n))
        out[0:2] = out[2:4] = nat[0][:n], nat[1][:n]
        out[0:2, wide] = nat[0][n:], nat[1][n:]
        out[4], out[5] = -np.inf, np.inf  # the natural form gives no slope
        if nn:
            coef = [x[m:m + p * nn].reshape(p, nn).T for x in sums]  # (row, j)
            tail = dr.next_up(sums[1][m + p * nn:].reshape(2, nn) * INV_2PI.hi)
            val, der = _expansion((out[2, near], out[3, near]), (h[0][near], h[1][near]),
                                  coef, *tail)
            out[0:2, near], out[4:6, near] = val, der
        return out, near, wide


def _powers(tau, s, out):
    """u_j = a_j / s^j for j = 1..p into out[0] (lower) and out[1] (upper),
    (p, F) arrays: u_0 = 1, u_1 = tau / s, u_(j+1) = (2 tau u_j - u_(j-1)) / s."""
    p = EXPANSION_DEGREE
    inv_s = dr.iv_div(1.0, 1.0, *s)
    two_tau = (2.0 * tau[0], 2.0 * tau[1])
    prev, u = (1.0, 1.0), dr.iv_mul(*tau, *inv_s)
    out[0, 0], out[1, 0] = u
    for j in range(1, p):
        prev, u = u, dr.iv_mul(*dr.iv_sub(*dr.iv_mul(*two_tau, *u), *prev), *inv_s)
        out[0, j], out[1, j] = u


def _tail_terms(r, s_lo):
    """Upper bounds of rho^(p+1) / ((p+1)(1 - rho)) and s^(-1/2) rho^p /
    (1 - rho), with rho = r / sqrt(s), per element of its box radius r and
    lower bound s_lo of its s, as one (2, F) array; every step rounds up.
    Summed with weights |w_k| and times 1/(2 pi), they bound the value
    and derivative tails."""
    p = EXPANSION_DEGREE
    root_s = dr.next_down(np.sqrt(s_lo))
    rho = dr.next_up(r / root_s)
    one_minus = dr.next_down(1.0 - rho)
    rho_p = rho
    for _ in range(p - 1):
        rho_p = dr.next_up(rho_p * rho)
    val = dr.next_up(dr.next_up(rho_p * rho) / dr.next_down((p + 1) * one_minus))
    der = dr.next_up(dr.next_up(rho_p / root_s) / one_minus)
    return np.stack((val, der))


def _expansion(c0, h, sums, val_tail, der_tail):
    """Value and slope of each box from its centre value c_0, its offsets
    h = T - t_m, the weighted sums sum_k w_k u_kj (box, j) and the tails."""
    p = EXPANSION_DEGREE
    hp = [None, h]  # H^j, even powers by squaring
    for j in range(2, p + 1):
        hp.append(dr.iv_sqr(*hp[j // 2]) if j % 2 == 0 else dr.iv_mul(*hp[j - 1], *h))
    terms = dr.iv_mul(*dr.iv_mul(*sums, *_VALUE_COEFS), *dr._stack(hp[1:]))
    val = dr.iv_add(*c0, *dr._iv_sums(terms, exact=False))
    val = dr.iv_add(*val, -val_tail, val_tail)
    d = dr.iv_mul(*sums, *_DERIV_COEFS)  # j c_j
    terms = dr.iv_mul(d[0][:, 1:], d[1][:, 1:], *dr._stack(hp[1:p]))
    der = dr.iv_add(*dr._iv_sums(terms, exact=False), d[0][:, 0], d[1][:, 0])
    return val, dr.iv_add(*der, -der_tail, der_tail)


def _elements(rows, box, nbox: int, S: int, cols):
    """The elements of the rows selected by the mask ``rows`` (the sources
    of their boxes and their own kernels), and cols[rows] renumbered
    among them."""
    used = np.zeros(nbox, dtype=bool)
    used[box[rows]] = True
    mask = np.concatenate((np.repeat(used, S), rows))
    return np.flatnonzero(mask), (np.cumsum(mask) - 1)[cols[rows]]


def _edge_geometry(a, b, k: int, points) -> tuple[list, list, list]:
    """t*, delta^2 and q of each point along the edge from a to b, as
    (lo, hi) pairs; every coordinate is an integer, the float times 2^k."""
    (ax, ay), (bx, by) = a, b
    vx, vy = bx - ax, by - ay
    n2 = vx * vx + vy * vy
    cross2 = [((sx - ax) * vy - (sy - ay) * vx) ** 2 for sx, sy in points]
    return ([rational((sx - ax) * vx + (sy - ay) * vy, n2) for sx, sy in points],
            [rational(c2, n2 << 2 * k) for c2 in cross2],
            [rational(c2, n2 * n2) for c2 in cross2])


def _scaled_ints(values) -> tuple[list, int]:
    """Integers X_i and one k >= 0 with X_i = x_i 2^k exactly."""
    ratios = [float(x).as_integer_ratio() for x in values]
    k = max(d.bit_length() - 1 for _n, d in ratios)  # every d is a power of 2
    return [n << (k - d.bit_length() + 1) for n, d in ratios], k


# Total evaluations of one boundary search: 400x the 372 of the largest
# search any problem file, test or benchmark input makes (664 while box
# centres were evaluated twice, 11,858 before the local expansion), so
# only searches far beyond any measured one stop early (still sound).  An
# evaluation is a value the search takes: a box, an edge end, or either
# end value of a monotone box, though the kernel computes each end value
# once (an edge end, or the centre of an earlier box).
MAX_EVALS = 150_000


@dataclass(slots=True)
class BoundaryExtrema(MinMaxResult):
    """The search result with the :class:`EdgeKernel` box counts of each
    bounding form."""

    expanded_boxes: int = 0
    natural_boxes: int = 0


MAX_DEPTH = 48  # halvings of [0, 1]: far below any box a tol needs


def boundary_extrema(candidates: Sequence[TestFunction2D], poly: Polygon,
                     tol: float) -> list:
    """Rigorous enclosures (m, M) of min/max of phi^0 over the boundary, for
    each of several candidates that share their exterior sources.

    Each candidate gets one branch-and-bound over all edges together,
    each parameterized by t in [0, 1]; the slope of phi^0 along the edge
    on expanded boxes finalizes monotone ones by their endpoints.  One
    :class:`EdgeKernel` serves all candidates, and ``lockstep_min_max``
    steps their searches together, one kernel call per level.  Entry i is
    candidate i's :class:`BoundaryExtrema`, bit for bit that of its search
    alone, or the exception its search raised.
    """
    if not candidates:
        return []
    kernel = EdgeKernel(candidates, poly)
    results = lockstep_min_max(kernel, [kernel.roots] * len(candidates), tol=tol,
                               max_depth=MAX_DEPTH, max_evals=MAX_EVALS)
    return [res if isinstance(res, Exception) else
            BoundaryExtrema(res.m, res.M, res.converged, res.evaluations, res.depth,
                            int(kernel.expanded_boxes[i]), int(kernel.natural_boxes[i]))
            for i, res in enumerate(results)]
