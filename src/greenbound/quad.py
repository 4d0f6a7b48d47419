"""Rigorous integration: singular log-kernel triangles and the source pairing.

The fundamental integral is I = integral over a triangle of
f(x, y) log((x - x0)^2 + (y - y0)^2) with the singular point (x0, y0) at a
vertex.  After translating the singular vertex to the origin and rotating so
the opposite edge lies on the vertical line x' = d (a rotation about the
singular point leaves |x - s| unchanged), the substitution u = x', k = y'/x'
maps the triangle onto the box (0, d) x (k1, k2) and splits the kernel:

    log((x')^2 + (y')^2) = 2 log u + log(1 + k^2).

With a polynomial enclosure f(u, ku) in sum [c_ij] k^i u^j over the box,
both halves integrate in closed form:

  * the log u part uses int_0^a u^(j+1) log u du
    = a^(j+2) ((j+2) log a - 1) / (j+2)^2,
  * the log(1 + k^2) part uses moments int k^i log(1 + k^2) dk computed by
    an integration-by-parts recursion through atan/log antiderivatives.

All moments are assembled in the coupled form (k d)^(i+1) d^(j-i), which
stays bounded for grazing triangles where the raw k range is huge.  A fan
of such triangles over the polygon edges, signed by orientation, evaluates
integrals over the whole polygon for an arbitrary vertex point (inside or
outside), which covers both the evaluation-point kernel and the smooth
exterior-source kernels with one code path, ``_fans``: every fan of a call
(all exterior sources of a domain, say) is one pass over endpoint arrays.
The Taylor models of f on the fans' angular parts are one batch
(``taylor.TaylorModel2``), built in one tree walk of f, and the parts
whose models share a nonzero pattern (``taylor._pattern_groups``) take
their moments together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import _directed as dr
from . import expr as _expr
from .errors import DomainError
from .fundsol import NEG_INV_4PI, TestFunction2D
from .geometry import Polygon, Triangle
from .interval import PI, Interval, rational
from .taylor import MAX_DEGREE, Boxes, TaylorModel2, _passes, _pattern_groups

__all__ = ["QuadConfig", "singular_triangle", "pair_f_phi", "source_kernel_terms",
           "integrate_source"]


@dataclass(frozen=True)
class QuadConfig:
    """Free parameters of the verified integration engine."""

    tm_degrees: tuple = (8, 8)
    fan_splits: int = 1  # angular subdivisions per fan triangle

    def __post_init__(self):
        m, n = self.tm_degrees
        if m < 1 or n < 1:
            raise DomainError("tm_degrees must be at least (1, 1)")
        if m > MAX_DEGREE or n > MAX_DEGREE:
            raise DomainError(f"tm_degrees must be at most ({MAX_DEGREE}, {MAX_DEGREE})")
        if self.fan_splits < 1:
            raise DomainError("fan_splits must be >= 1")


_CHUNK_TERMS = 1024  # fan-part terms per array pass of the moments

# 2 / (q + 1) and 2 / (q + 2)^2 for q = 0..MAX_DEGREE, each enclosed by
# ``rational`` (a point exactly when the rational is a float).
_TWO_OVER = [rational(2, q + 1) for q in range(MAX_DEGREE + 1)]
_W_LO, _W_HI = np.array([rational(2, (q + 2) ** 2) for q in range(MAX_DEGREE + 1)]).T


def _log_poly_moments(a, log_a, t, top: int) -> list:
    """A_q = int_0^t y^q log(a^2 + y^2) dy for q = 0..top (signed in t),
    over arrays of a > 0 (with log a) and t.

    Through K_q = int_0^t y^q / (a^2 + y^2) dy, in closed form for q <= 1
    and by K_q = t^(q-1) / (q-1) - a^2 K_(q-2) above:
    A_q = t^(q+1) log(a^2 + t^2) / (q+1) - 2/(q+1) K_(q+2)."""
    a2 = dr.iv_sqr(*a)
    tp = dr._iv_powers(t, top + 1)
    log_r2 = dr._iv_libm(math.log, dr._iv_add_exact0(a2, dr.iv_sqr(*t)))
    ks = [dr._iv_div(dr._iv_libm(math.atan, dr._iv_div(t, a)), a),
          dr._iv_sub_exact0(dr._iv_mul_exact01(log_r2, (0.5, 0.5)), log_a)]
    for q in range(2, top + 3):
        ks.append(dr._iv_sub_exact0(dr._iv_div(tp[q - 1], (q - 1.0, q - 1.0)),
                                    dr._iv_mul_exact01(a2, ks[q - 2])))
    return [dr._iv_sub_exact0(
        dr._iv_div(dr._iv_mul_exact01(tp[q + 1], log_r2), (q + 1.0, q + 1.0)),
        dr._iv_mul_exact01(ks[q + 2], _TWO_OVER[q])) for q in range(top + 1)]


def _edge_vectors(c, v1, v2):
    """Enclosures of w1 = v1 - c, w2 = v2 - c and w1 x w2 for (F, 2) point
    arrays."""
    w1x, w1y, w2x, w2y = (dr._iv_sub_exact0((v[:, q], v[:, q]), (c[:, q], c[:, q]))
                          for v in (v1, v2) for q in (0, 1))
    cross = dr._iv_sub_exact0(dr._iv_mul_exact01(w1x, w2y), dr._iv_mul_exact01(w1y, w2x))
    return w1x, w1y, w2x, w2y, cross


def _frames(w1x, w1y, w2x, w2y):
    """Rotated frames of triangles (c, v1, v2) with a certain orientation:
    the edge (v1, v2) on the vertical line x' = d, c at the origin.

    Returns d, the unit normal (nx, ny) and direction (ex, ey) of the edge
    line and the edge ends y1, y2 along it; d.lo <= 0 marks a fan too
    thin to frame."""
    gx, gy = dr._iv_sub_exact0(w2x, w1x), dr._iv_sub_exact0(w2y, w1y)
    glen = dr._iv_sqrt(dr._iv_add_exact0(dr.iv_sqr(*gx), dr.iv_sqr(*gy)))
    ex, ey = dr._iv_div(gx, glen), dr._iv_div(gy, glen)
    d1 = dr._iv_sub_exact0(dr._iv_mul_exact01(ey, w1x), dr._iv_mul_exact01(ex, w1y))
    d2 = dr._iv_sub_exact0(dr._iv_mul_exact01(ey, w2x), dr._iv_mul_exact01(ex, w2y))
    d = np.maximum(d1[0], d2[0]), np.minimum(d1[1], d2[1])
    if np.any(d[0] > d[1]):
        raise DomainError("disjoint enclosures of a fan's edge distance: rigor violated upstream")
    # normal candidate (ey, -ex), flipped to point at the edge
    flip = d[1] < 0.0
    d = np.where(flip, -d[1], d[0]), np.where(flip, -d[0], d[1])
    nx = np.where(flip, -ey[1], ey[0]), np.where(flip, -ey[0], ey[1])
    ny = np.where(flip, ex[0], -ex[1]), np.where(flip, ex[1], -ex[0])
    y1 = dr._iv_add_exact0(dr._iv_mul_exact01(ex, w1x), dr._iv_mul_exact01(ey, w1y))
    y2 = dr._iv_add_exact0(dr._iv_mul_exact01(ex, w2x), dr._iv_mul_exact01(ey, w2y))
    return d, nx, ny, ex, ey, y1, y2


def _sliver_bounds(f: _expr.SourceExpr, center, v1, v2, w1x, w1y, w2x, w2y, cross):
    """Crude but rigorous bounds for a numerically degenerate fan triangle
    (center, v1, v2), given the Intervals of its edge vectors.

    |integral f log r^2| <= |f|_inf (int over {r < 1} of |log r^2|
    + area * max(0, log rmax^2)).  The triangle lies in the sector spanned
    by w1 = v1 - center and w2 = v2 - center; when w1 . w2 > 0 its angle
    theta <= (pi/2) |w1 x w2| / (|w1| |w2|) (Jordan's inequality) and the
    first part is at most (theta/2) r^2 (1 - log r^2) with r = min(rmax, 1),
    otherwise the whole disc's pi r^2 (1 - log r^2).
    """
    if cross.lo == 0.0 and cross.hi == 0.0:
        return Interval(0.0, 0.0), Interval(0.0, 0.0)
    pts = np.array([center, v1, v2], dtype=float)
    bx = Interval(float(pts[:, 0].min()), float(pts[:, 0].max()))
    by = Interval(float(pts[:, 1].min()), float(pts[:, 1].max()))
    fmag = Interval(0.0, abs(f.eval_interval(bx, by)).hi)
    area = abs(cross) * 0.5
    n1 = w1x.sqr() + w1y.sqr()
    n2 = w2x.sqr() + w2y.sqr()
    rmax2 = max(n1.hi, n2.hi)  # upper bound of rmax^2
    r2 = Interval.point(min(rmax2, 1.0))
    n12 = n1 * n2
    if (w1x * w2x + w1y * w2y).lo > 0.0 and n12.lo > 0.0:
        theta = PI * 0.5 * abs(cross) / n12.sqrt()
        bound = theta * 0.5 * r2 * (1.0 - r2.log())
    else:
        bound = PI * r2 * (1.0 - r2.log())
    if rmax2 > 1.0:
        bound = bound + area * Interval.point(rmax2).log()
    w = (fmag * bound).hi
    w_plain = (fmag * area).hi
    return Interval(-w, w), Interval(-w_plain, w_plain)


def _row_dot(clo, chi, term):
    """Float bounds of sum_t [c_t] [term_t] per row of (rows, T) arrays."""
    return dr._iv_sums(dr._iv_mul_exact01((clo, chi), term))


def _part_moments(i, j, clo, chi, d, log_d, ya, yb, want_log: bool, want_plain: bool):
    """Enclosures of the integrals of f log|x - c|^2 and of f over the fan
    parts whose models of f share the nonzero pattern (i, j): with
    coefficients [c_ij] (rows clo, chi), the parts' frame distance d (and
    log d) and their edge ends ya, yb, all arrays over the parts.

    In the frame, sum c_ij k^i u^j integrates over u in (0, d), k u in
    (ya, yb) through the moments (yb^(i+1) - ya^(i+1)) / (i+1) d^(j+1-i)
    / (j+2) (``plain``) and their log-weighted forms."""
    top = int(i.max())  # moments above the top k power are not needed
    at_i, at_q = (slice(None), i), (slice(None), j + 1 - i)
    dpow = [(np.ones_like(d[0]), np.ones_like(d[1]))]
    for _ in range(int((j + 1 - i).max())):
        dpow.append(dr._iv_mul_exact01(dpow[-1], d))
    dq = dr._take(dr._stack(dpow), at_q)
    # ya and yb side by side: rows :n are the ya ends, n: the yb ends
    n = len(d[0])
    at_a, at_b = slice(None, n), slice(n, None)
    y = dr._join(ya, yb)
    ypow = [y]
    for _ in range(top):
        ypow.append(dr._iv_mul_exact01(ypow[-1], y))
    s_q = [dr._iv_div(dr._iv_sub_exact0(dr._take(p, at_b), dr._take(p, at_a)), (q + 1.0, q + 1.0))
           for q, p in enumerate(ypow)]
    base = dr.iv_mul(*dr._take(dr._stack(s_q), at_i), *dq)
    j2 = (j + 2).astype(float)
    plain = _row_dot(clo, chi, dr.iv_div(*base, j2, j2)) if want_plain else None
    if not want_log:
        return None, plain
    mom = _log_poly_moments(dr._join(d, d), dr._join(log_d, log_d), y, top)
    da_i = dr._take(dr._stack([dr._iv_sub_exact0(dr._take(m, at_b), dr._take(m, at_a))
                               for m in mom]), at_i)
    # base ((j+2) log d - 1) 2/(j+2)^2 + (dA_i d^q - 2 base log d)/(j+2)
    lg = (log_d[0][:, None], log_d[1][:, None])
    t = dr.iv_sub(*dr.iv_mul(*lg, j2, j2), 1.0, 1.0)
    part1 = dr.iv_mul(*base, *dr.iv_mul(*t, _W_LO[j], _W_HI[j]))
    t = dr.iv_sub(*dr.iv_mul(*da_i, *dq), *dr.iv_mul(*dr.iv_mul(*lg, *base), 2.0, 2.0))
    part2 = dr.iv_div(*t, j2, j2)
    return _row_dot(clo, chi, dr.iv_add(*part1, *part2)), plain


def _part_integrals(f: _expr.SourceExpr, cfg: QuadConfig, c, d, nx, ny, ex, ey, y1, y2,
                    want_log: bool, want_plain: bool):
    """Unsigned integrals of f log|x - c|^2 and of f over the angular parts
    of framed fans (arrays over the fans, c their (F, 2) centres): two
    (lo, hi) arrays over the parts, fan-major, 0 where f's model is zero
    (None where not wanted).

    Each part gets its own (u, k) box and Taylor model of f, all built in
    one ``expr.eval_tm`` batch; the parts whose models of f share their
    nonzero (i, j) pattern (``taylor._pattern_groups``) then go through
    ``_part_moments`` together, in chunks of about ``_CHUNK_TERMS``
    terms."""
    # angular (k-range) cuts: exact because the frame is shared
    splits = cfg.fan_splits
    span = dr._iv_sub_exact0(y2, y1)
    cuts = [y1] + [dr._iv_add_exact0(y1, dr._iv_mul_exact01(span, (q / splits, q / splits)))
                   for q in range(1, splits)] + [y2]
    ya, yb = ([e.ravel() for e in dr._stack(ends)] for ends in (cuts[:-1], cuts[1:]))
    part_fan = np.repeat(np.arange(len(c)), splits)
    size = len(part_fan)
    part_log, part_plain = (np.zeros((2, size)) if want else None
                            for want in (want_log, want_plain))
    if not size:
        return part_log, part_plain
    d_part = dr._take(d, part_fan)
    ka, kb = dr._iv_div(ya, d_part), dr._iv_div(yb, d_part)
    klo, khi = np.minimum(ka[0], kb[0]), np.maximum(ka[1], kb[1])

    # x = cx + nx u + ex (k u), y = cy + ny u + ey (k u) on the parts'
    # (u, k) boxes
    boxes = Boxes(np.zeros(size), d[1][part_fan], klo, khi)
    cx, cy = c[part_fan, 0], c[part_fan, 1]
    tm = _expr.eval_tm(f, TaylorModel2.affine(boxes, cfg.tm_degrees, (cx, cx),
                                              dr._take(nx, part_fan), dr._take(ex, part_fan)),
                       TaylorModel2.affine(boxes, cfg.tm_degrees, (cy, cy),
                                           dr._take(ny, part_fan), dr._take(ey, part_fan)))
    mask, flo, fhi, nz = tm._support()
    log_d = dr._iv_libm(math.log, d) if want_log else None
    for rows, (cols,) in _pattern_groups(mask[:, nz]):
        if not cols.size:
            continue  # f's model is zero on these parts
        flat = nz[cols]
        # the (u, k u) substitution keeps i <= j + 1 in every product,
        # composition and truncation
        i, j = tm._ij(flat)
        if np.any(i > j + 1):
            raise DomainError("fan moments need coefficients with i <= j + 1")
        for at in _passes(rows, size, max(1, _CHUNK_TERMS // flat.size)):
            fans = part_fan[at]
            log, plain = _part_moments(
                i, j, flo[at][:, flat], fhi[at][:, flat], dr._take(d, fans),
                dr._take(log_d, fans) if want_log else None,
                dr._take(ya, at), dr._take(yb, at), want_log, want_plain)
            for out, ends in ((part_log, log), (part_plain, plain)):
                if out is not None:
                    out[0][at], out[1][at] = ends
    return part_log, part_plain


def _fans(f: _expr.SourceExpr, centers, edges, cfg: QuadConfig,
          want_log: bool = True, want_plain: bool = False):
    """Per centre c, the signed enclosures of the integrals of
    f log|x - c|^2 (``want_log``) and of f (``want_plain``) over the fan of
    triangles (c, a, b), one per edge (a, b) of ``edges``: two (lo, hi)
    pairs of arrays over the centres (None where not wanted).

    The signed triangle sum over the edges of a simple polygon reproduces
    the polygon integral exactly for any centre (winding-number argument),
    so this serves interior points and exterior sources alike.

    All fans of the call are one array pass: the frames of every fan at
    once, then ``_part_integrals``, and one rigorous row sum over each
    fan's parts and one over each centre's fans.  A fan without a certain
    orientation or a frame gets ``_sliver_bounds``.
    """
    centers = np.asarray(centers, dtype=float).reshape(-1, 2)
    edges = np.asarray(edges, dtype=float).reshape(-1, 2, 2)
    n_e = len(edges)
    c = np.repeat(centers, n_e, axis=0)  # fan r: centre r // n_e, edge r % n_e
    v1, v2 = np.tile(edges[:, 0], (len(centers), 1)), np.tile(edges[:, 1], (len(centers), 1))

    w = _edge_vectors(c, v1, v2)
    cross = w[4]
    reg = np.flatnonzero((cross[0] > 0.0) | (cross[1] < 0.0))
    frame = _frames(*[dr._take(v, reg) for v in w[:4]])
    framed = frame[0][0] > 0.0  # d.lo > 0
    reg = reg[framed]
    slivers = {r: _sliver_bounds(f, c[r], v1[r], v2[r],
                                 *[Interval(float(v[0][r]), float(v[1][r])) for v in w])
               for r in sorted(set(range(len(c))).difference(reg.tolist()))}

    parts = _part_integrals(f, cfg, c[reg], *[dr._take(v, framed) for v in frame],
                            want_log, want_plain)
    clockwise = cross[0][reg] <= 0.0  # these fans count negatively
    out = []
    for q, part in enumerate(parts):
        if part is None:
            out.append(None)
            continue
        fan = np.zeros((2, len(c)))
        total = dr._iv_sums(part.reshape(2, -1, cfg.fan_splits))
        fan[:, reg] = np.where(clockwise, dr._iv_neg(total), total)
        for r, bounds in slivers.items():
            fan[:, r] = bounds[q].lo, bounds[q].hi
        out.append(dr._iv_sums(fan.reshape(2, -1, n_e)))
    return out[0], out[1]


def _first(ends) -> Interval:
    """The first entry of a (lo, hi) pair of arrays, as an Interval."""
    return Interval(float(ends[0][0]), float(ends[1][0]))


def singular_triangle(f: _expr.SourceExpr, tri: Triangle,
                      cfg: Optional[QuadConfig] = None) -> Interval:
    """Enclosure of the integral of f(x,y) log((x-x0)^2 + (y-y0)^2) over a
    triangle whose flagged vertex is the singular point (x0, y0).

    The result is the raw log-squared integral; pairing against the 2D
    kernel multiplies by -1/(4 pi) at the assembly level.
    """
    cfg = cfg or QuadConfig()
    if tri.singular_vertex is None:
        raise DomainError("triangle does not flag a singular vertex")
    sv = tri.singular_vertex
    v = tri.vertices
    edge = [(v[(sv + 1) % 3], v[(sv + 2) % 3])]
    return _first(_fans(f, [v[sv]], edge, cfg, want_log=True, want_plain=False)[0])


# ---------------------------------------------------------------------------
# The pairing <f, phi> over a polygon
# ---------------------------------------------------------------------------


def integrate_source(
    f: _expr.SourceExpr, poly: Polygon, cfg: Optional[QuadConfig] = None
) -> Interval:
    """Enclosure of the integral of f over the polygon."""
    cfg = cfg or QuadConfig()
    center = poly.vertices.mean(axis=0)
    return _first(_fans(f, [center], poly.edges(), cfg, want_log=False, want_plain=True)[1])


def source_kernel_terms(
    f: _expr.SourceExpr, sources, poly: Polygon, cfg: Optional[QuadConfig] = None
) -> list:
    """Enclosures of -(1/(4 pi)) integral f log|x - s_k|^2 over the polygon,
    one per exterior source s_k.

    They depend on f, the polygon and the sources only, so a caller pairing
    several candidates on one domain computes them once."""
    cfg = cfg or QuadConfig()
    logs, _ = _fans(f, sources, poly.edges(), cfg, want_log=True, want_plain=False)
    lo, hi = dr._iv_mul_exact01(logs, dr._ends(NEG_INV_4PI))
    return [Interval(a, b) for a, b in zip(lo.tolist(), hi.tolist())]


def pair_f_phi(
    f: _expr.SourceExpr,
    tf0: TestFunction2D,
    poly: Polygon,
    cfg: Optional[QuadConfig] = None,
    offsets: Sequence[tuple] = ((0.0, 0.0),),
    source_terms: Optional[Sequence[Interval]] = None,
) -> list:
    """Rigorous enclosures of the pairings of f with phi^0 + c over the
    polygon, plus d, one for each offset (c, d) in ``offsets``.

    Assembled per kernel: the evaluation-point kernel and every exterior
    source kernel are integrated by the signed singular fan (each kernel's
    own point is a fan vertex, where the machinery is exact), and c
    contributes c * integral(f), with integral(f) from the evaluation
    point's fan.  d is a float or an Interval.  ``source_terms`` are the
    :func:`source_kernel_terms` of f and ``tf0.sources``, computed here
    when the caller does not already have them; their weighted sum is one
    rigorous dot product.  Each result sums the interior term,
    c * integral(f), d and that weighted sum, in this order.
    """
    cfg = cfg or QuadConfig()
    log, plain = _fans(f, [tf0.s_int], poly.edges(), cfg, want_log=True, want_plain=True)
    interior, plain_int = _first(log) * NEG_INV_4PI, _first(plain)
    if source_terms is None:
        source_terms = source_kernel_terms(f, tf0.sources, poly, cfg)
    ends = np.array([(term.lo, term.hi) for term in source_terms]).reshape(-1, 2)
    weighted = Interval(*[float(e) for e in dr.iv_dot(tf0.coeffs, ends[:, 0], ends[:, 1])])
    return [interior + Interval.point(c) * plain_int + d + weighted for c, d in offsets]
