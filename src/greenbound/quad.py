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
The Taylor models of f on the fans' angular parts are batches
(``taylor.TaylorModel2``): one tree walk of f per nonzero pattern of the
parts' models of x and y, not one per part.
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
from .taylor import MAX_DEGREE, Boxes, TaylorModel2

__all__ = ["QuadConfig", "log_moment", "singular_triangle", "pair_f_phi",
           "source_kernel_terms", "integrate_source"]


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


def log_moment(a: Interval, j: int) -> Interval:
    """Enclosure of int_0^a u^(j+1) log(u) du for a > 0, j >= 0."""
    if j < 0:
        raise DomainError("log_moment requires j >= 0")
    if a.lo <= 0.0:
        raise DomainError(f"log_moment requires a > 0, got {a}")
    j2 = float(j + 2)
    return a.pow_int(j + 2) * (a.log() * j2 - 1.0) / (j2 * j2)


# ---------------------------------------------------------------------------
# Interval arrays with the scalar Interval's rounding and exact 0/1 rules
# ---------------------------------------------------------------------------
# Each helper takes and returns (lo, hi) endpoint arrays.  Sums and products
# keep Interval's exact-0 and exact-1 shortcuts, so a value does not depend
# on which other fans share its array pass.


def _add(a, b):
    return dr._iv_add_exact0(*a, *b)


def _sub(a, b):
    return dr._iv_add_exact0(*a, -b[1], -b[0])


def _mul(a, b):
    return dr._iv_mul_exact01(*a, *b)


def _div(a, b):
    return dr.iv_div(*a, *b)


def _take(a, idx):
    return a[0][idx], a[1][idx]


def _join(a, b):
    return np.concatenate((a[0], b[0])), np.concatenate((a[1], b[1]))


def _stack(ivs: list):
    """(rows, len(ivs)) endpoint arrays of a list of interval arrays."""
    return np.stack([v[0] for v in ivs], axis=1), np.stack([v[1] for v in ivs], axis=1)


def _point(x: float):
    return x, x


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
    log_r2 = dr._iv_libm(math.log, *_add(a2, dr.iv_sqr(*t)))
    ks = [_div(dr._iv_libm(math.atan, *_div(t, a)), a),
          _sub(_mul(log_r2, _point(0.5)), log_a)]
    for q in range(2, top + 3):
        ks.append(_sub(_div(tp[q - 1], _point(q - 1.0)), _mul(a2, ks[q - 2])))
    return [_sub(_div(_mul(tp[q + 1], log_r2), _point(q + 1.0)), _mul(ks[q + 2], _TWO_OVER[q]))
            for q in range(top + 1)]


def _edge_vectors(c, v1, v2):
    """Enclosures of w1 = v1 - c, w2 = v2 - c and w1 x w2 for (F, 2) point
    arrays."""
    w1x, w1y = _sub(_point(v1[:, 0]), _point(c[:, 0])), _sub(_point(v1[:, 1]), _point(c[:, 1]))
    w2x, w2y = _sub(_point(v2[:, 0]), _point(c[:, 0])), _sub(_point(v2[:, 1]), _point(c[:, 1]))
    cross = _sub(_mul(w1x, w2y), _mul(w1y, w2x))
    return w1x, w1y, w2x, w2y, cross


def _frames(w1x, w1y, w2x, w2y):
    """Rotated frames of triangles (c, v1, v2) with a certain orientation:
    the edge (v1, v2) on the vertical line x' = d, c at the origin.

    Returns d, the unit normal (nx, ny) and direction (ex, ey) of the edge
    line and the edge ends y1, y2 along it; d.lo <= 0 marks a fan too
    thin to frame."""
    gx, gy = _sub(w2x, w1x), _sub(w2y, w1y)
    glen = dr._iv_sqrt(*_add(dr.iv_sqr(*gx), dr.iv_sqr(*gy)))
    ex, ey = _div(gx, glen), _div(gy, glen)
    d1 = _sub(_mul(ey, w1x), _mul(ex, w1y))
    d2 = _sub(_mul(ey, w2x), _mul(ex, w2y))
    d = np.maximum(d1[0], d2[0]), np.minimum(d1[1], d2[1])
    if np.any(d[0] > d[1]):
        raise DomainError("disjoint enclosures of a fan's edge distance: rigor violated upstream")
    # normal candidate (ey, -ex), flipped to point at the edge
    flip = d[1] < 0.0
    d = np.where(flip, -d[1], d[0]), np.where(flip, -d[0], d[1])
    nx = np.where(flip, -ey[1], ey[0]), np.where(flip, -ey[0], ey[1])
    ny = np.where(flip, ex[0], -ex[1]), np.where(flip, ex[1], -ex[0])
    y1 = _add(_mul(ex, w1x), _mul(ey, w1y))
    y2 = _add(_mul(ex, w2x), _mul(ey, w2y))
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
    lo, hi = dr._iv_mul_exact01(clo, chi, *term)
    return dr._row_sums(lo, exact=True)[0].tolist(), dr._row_sums(hi, exact=True)[1].tolist()


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
        dpow.append(_mul(dpow[-1], d))
    dq = _take(_stack(dpow), at_q)
    # ya and yb side by side: rows :n are the ya ends, n: the yb ends
    n = len(d[0])
    at_a, at_b = slice(None, n), slice(n, None)
    y = _join(ya, yb)
    ypow = [y]
    for _ in range(top):
        ypow.append(_mul(ypow[-1], y))
    s_q = [_div(_sub(_take(p, at_b), _take(p, at_a)), _point(q + 1.0))
           for q, p in enumerate(ypow)]
    base = dr.iv_mul(*_take(_stack(s_q), at_i), *dq)
    j2 = (j + 2).astype(float)
    plain = _row_dot(clo, chi, dr.iv_div(*base, j2, j2)) if want_plain else None
    if not want_log:
        return None, plain
    mom = _log_poly_moments(_join(d, d), _join(log_d, log_d), y, top)
    da_i = _take(_stack([_sub(_take(m, at_b), _take(m, at_a)) for m in mom]), at_i)
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
    lists over the parts, fan-major, with None where f's model is zero.

    Each part gets its own (u, k) box and Taylor model of f, built in one
    ``expr.eval_tm`` batch per nonzero pattern of the parts' models of x
    and y; the parts whose models of f share their nonzero (i, j) pattern
    then go through ``_part_moments`` together, in chunks of about
    ``_CHUNK_TERMS`` terms."""
    # angular (k-range) cuts: exact because the frame is shared
    splits = cfg.fan_splits
    span = _sub(y2, y1)
    cuts = [y1] + [_add(y1, _mul(span, _point(q / splits))) for q in range(1, splits)] + [y2]
    ya, yb = (tuple(e.ravel() for e in _stack(ends)) for ends in (cuts[:-1], cuts[1:]))
    part_fan = np.repeat(np.arange(len(c)), splits)
    d_part = _take(d, part_fan)
    ka, kb = _div(ya, d_part), _div(yb, d_part)
    klo, khi = np.minimum(ka[0], kb[0]), np.maximum(ka[1], kb[1])

    # one batch of models per nonzero pattern of (x, y): x = cx + nx u + ex
    # (k u), y = cy + ny u + ey (k u), on the parts' (u, k) boxes
    boxes = Boxes(np.zeros(len(part_fan)), d[1][part_fan], klo, khi)
    xy = [_point(c[part_fan, 0]), _take(nx, part_fan), _take(ex, part_fan),
          _point(c[part_fan, 1]), _take(ny, part_fan), _take(ey, part_fan)]
    pattern = sum(((lo != 0.0) | (hi != 0.0)) << q for q, (lo, hi) in enumerate(xy))
    models = []
    for key in sorted(set(pattern.tolist())):
        batch = np.flatnonzero(pattern == key)
        ends = [_take(v, batch) for v in xy]
        on = boxes.take(batch)
        models.append((batch, _expr.eval_tm(f, TaylorModel2.affine(on, cfg.tm_degrees, *ends[:3]),
                                            TaylorModel2.affine(on, cfg.tm_degrees, *ends[3:]))))
    m, n = cfg.tm_degrees
    flo, fhi = np.empty((2, len(part_fan), m + 1, n + 1))
    for batch, tm in models:
        flo[batch], fhi[batch] = tm.grids()

    groups = {}  # nonzero pattern -> (i, j, parts, coefficient rows)
    for p in range(len(part_fan)):
        # the (u, k u) substitution keeps i <= j + 1 in every product,
        # composition and truncation
        i, j = np.nonzero((flo[p] != 0.0) | (fhi[p] != 0.0))
        if i.size:
            group = groups.setdefault((i.tobytes(), j.tobytes()), (i, j, [], [], []))
            group[2].append(p)
            group[3].append(flo[p, i, j])
            group[4].append(fhi[p, i, j])

    part_log, part_plain = [None] * len(part_fan), [None] * len(part_fan)
    log_d = dr._iv_libm(math.log, *d) if want_log else None
    for i, j, parts, clo, chi in groups.values():
        if np.any(i > j + 1):
            raise DomainError("fan moments need coefficients with i <= j + 1")
        parts, clo, chi = np.array(parts), np.array(clo), np.array(chi)
        step = max(1, _CHUNK_TERMS // i.size)
        for s0 in range(0, len(parts), step):
            chunk = parts[s0:s0 + step]
            fans = part_fan[chunk]
            log, plain = _part_moments(
                i, j, clo[s0:s0 + step], chi[s0:s0 + step], _take(d, fans),
                _take(log_d, fans) if want_log else None,
                _take(ya, chunk), _take(yb, chunk), want_log, want_plain)
            for k, p in enumerate(chunk.tolist()):
                if want_log:
                    part_log[p] = Interval(log[0][k], log[1][k])
                if want_plain:
                    part_plain[p] = Interval(plain[0][k], plain[1][k])
    return part_log, part_plain


def _fans(f: _expr.SourceExpr, centers, edges, cfg: QuadConfig,
          want_log: bool = True, want_plain: bool = False):
    """Per centre c, the signed enclosures of the integrals of
    f log|x - c|^2 (``want_log``) and of f (``want_plain``) over the fan of
    triangles (c, a, b), one per edge (a, b) of ``edges``, summed in edge
    order; two lists of Intervals (zero where not wanted).

    The signed triangle sum over the edges of a simple polygon reproduces
    the polygon integral exactly for any centre (winding-number argument),
    so this serves interior points and exterior sources alike.

    All fans of the call are one array pass: the frames of every fan at
    once, then ``_part_integrals``.  A fan without a certain orientation or
    a frame gets ``_sliver_bounds``.
    """
    centers = np.asarray(centers, dtype=float).reshape(-1, 2)
    edges = np.asarray(edges, dtype=float).reshape(-1, 2, 2)
    n_e = len(edges)
    c = np.repeat(centers, n_e, axis=0)  # fan r: centre r // n_e, edge r % n_e
    v1, v2 = np.tile(edges[:, 0], (len(centers), 1)), np.tile(edges[:, 1], (len(centers), 1))
    fan_log = [Interval(0.0, 0.0)] * len(c)
    fan_plain = [Interval(0.0, 0.0)] * len(c)

    w = _edge_vectors(c, v1, v2)
    cross = w[4]
    reg = np.flatnonzero((cross[0] > 0.0) | (cross[1] < 0.0))
    frame = _frames(*(_take(v, reg) for v in w[:4]))
    framed = frame[0][0] > 0.0  # d.lo > 0
    reg = reg[framed]
    sliver = np.ones(len(c), dtype=bool)
    sliver[reg] = False
    for r in np.flatnonzero(sliver).tolist():
        wr = [Interval(float(v[0][r]), float(v[1][r])) for v in w]
        fan_log[r], fan_plain[r] = _sliver_bounds(f, c[r], v1[r], v2[r], *wr)

    part_log, part_plain = _part_integrals(
        f, cfg, c[reg], *(_take(v, framed) for v in frame), want_log, want_plain)
    splits = cfg.fan_splits
    signs = np.where(cross[0][reg] > 0.0, 1.0, -1.0).tolist()
    for r, (fan, sign) in enumerate(zip(reg.tolist(), signs)):
        total_log = total_plain = Interval(0.0, 0.0)
        for p in range(r * splits, (r + 1) * splits):
            if part_log[p] is not None:
                total_log = total_log + part_log[p]
            if part_plain[p] is not None:
                total_plain = total_plain + part_plain[p]
        fan_log[fan], fan_plain[fan] = total_log * sign, total_plain * sign

    logs, plains = [], []
    for k in range(len(centers)):
        total_log = total_plain = Interval(0.0, 0.0)
        for fan in range(k * n_e, (k + 1) * n_e):
            total_log = total_log + fan_log[fan]
            total_plain = total_plain + fan_plain[fan]
        logs.append(total_log)
        plains.append(total_plain)
    return logs, plains


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
    return _fans(f, [v[sv]], edge, cfg, want_log=True, want_plain=False)[0][0]


# ---------------------------------------------------------------------------
# The pairing <f, phi> over a polygon
# ---------------------------------------------------------------------------


def integrate_source(
    f: _expr.SourceExpr, poly: Polygon, cfg: Optional[QuadConfig] = None
) -> Interval:
    """Enclosure of the integral of f over the polygon."""
    cfg = cfg or QuadConfig()
    center = poly.vertices.mean(axis=0)
    return _fans(f, [center], poly.edges(), cfg, want_log=False, want_plain=True)[1][0]


def source_kernel_terms(
    f: _expr.SourceExpr, sources, poly: Polygon, cfg: Optional[QuadConfig] = None
) -> list:
    """Enclosures of -(1/(4 pi)) integral f log|x - s_k|^2 over the polygon,
    one per exterior source s_k.

    They depend on f, the polygon and the sources only, so a caller pairing
    several candidates on one domain computes them once."""
    cfg = cfg or QuadConfig()
    logs, _ = _fans(f, sources, poly.edges(), cfg, want_log=True, want_plain=False)
    return [term * NEG_INV_4PI for term in logs]


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
    when the caller does not already have them.  Each result sums the
    interior term, c * integral(f) and d first, then the source terms
    times their nonzero coefficients in index order.
    """
    cfg = cfg or QuadConfig()
    (log_int,), (plain_int,) = _fans(f, [tf0.s_int], poly.edges(), cfg,
                                     want_log=True, want_plain=True)
    interior = log_int * NEG_INV_4PI
    if source_terms is None:
        source_terms = source_kernel_terms(f, tf0.sources, poly, cfg)
    weighted = [term * coeff for term, coeff in zip(source_terms, tf0.coeffs.tolist())
                if coeff != 0.0]
    out = []
    for c, d in offsets:
        total = interior + Interval.point(c) * plain_int + d
        for term in weighted:
            total = total + term
        out.append(total)
    return out
