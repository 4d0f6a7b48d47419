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
exterior-source kernels with one code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import _directed as dr
from . import expr as _expr
from .errors import DomainError
from .fundsol import NEG_INV_4PI, TestFunction2D
from .geometry import Polygon, Triangle
from .interval import PI, Box2, Interval, intersect, rational
from .taylor import TaylorModel2

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
# Closed-form k-moments of log(1 + k^2) through y = k d rescaling
# ---------------------------------------------------------------------------


def _k_rational_moments(a: Interval, t: Interval, top: int) -> list:
    """K_i = int_0^t y^i / (a^2 + y^2) dy for i = 0..top (signed in t)."""
    a2 = a.sqr()
    out = [(t / a).atan() / a]
    if top >= 1:
        out.append((a2 + t.sqr()).log() * 0.5 - a.log())
    for i in range(2, top + 1):
        out.append(t.pow_int(i - 1) / float(i - 1) - a2 * out[i - 2])
    return out


def _log_poly_moments(a: Interval, t: Interval, top: int) -> list:
    """A_i = int_0^t y^i log(a^2 + y^2) dy for i = 0..top (signed in t)."""
    ks = _k_rational_moments(a, t, top + 2)
    log_term = (a.sqr() + t.sqr()).log()
    out = []
    for i in range(top + 1):
        out.append(t.pow_int(i + 1) * log_term / float(i + 1)
                   - ks[i + 2] * Interval(*rational(2, i + 1)))
    return out


@dataclass(frozen=True)
class _FanFrame:
    """Rotated frame of a triangle (center, v1, v2): the edge (v1, v2) lies
    on the vertical line x' = d and the center at the origin."""

    d: Interval
    y1: Interval
    y2: Interval
    nx: Interval
    ny: Interval
    ex: Interval
    ey: Interval
    sign: float


def _edge_vectors(center, v1, v2):
    """Enclosures of w1 = v1 - center, w2 = v2 - center and w1 x w2."""
    cx, cy = Interval.point(float(center[0])), Interval.point(float(center[1]))
    w1x = Interval.point(float(v1[0])) - cx
    w1y = Interval.point(float(v1[1])) - cy
    w2x = Interval.point(float(v2[0])) - cx
    w2y = Interval.point(float(v2[1])) - cy
    cross = w1x * w2y - w1y * w2x
    return w1x, w1y, w2x, w2y, cross


def _fan_frame(center, v1, v2) -> Optional[_FanFrame]:
    w1x, w1y, w2x, w2y, cross = _edge_vectors(center, v1, v2)
    if cross.lo <= 0.0 <= cross.hi:
        return None  # degenerate or numerically ambiguous orientation
    sign = 1.0 if cross.lo > 0.0 else -1.0
    gx = w2x - w1x
    gy = w2y - w1y
    glen = (gx.sqr() + gy.sqr()).sqrt()
    ex = gx / glen
    ey = gy / glen
    # normal candidate (ey, -ex); distance from center to the edge line
    d1 = ey * w1x - ex * w1y
    d2 = ey * w2x - ex * w2y
    d = intersect(d1, d2)
    nx, ny = ey, -ex
    if d.hi < 0.0:
        d, nx, ny = -d, -nx, -ny
    elif d.lo <= 0.0:
        return None
    y1 = ex * w1x + ey * w1y
    y2 = ex * w2x + ey * w2y
    return _FanFrame(d, y1, y2, nx, ny, ex, ey, sign)


def _sliver_bounds(f: _expr.SourceExpr, center, v1, v2):
    """Crude but rigorous bounds for a numerically degenerate fan triangle.

    |integral f log r^2| <= |f|_inf (int over {r < 1} of |log r^2|
    + area * max(0, log rmax^2)).  The triangle lies in the sector spanned
    by w1 = v1 - center and w2 = v2 - center; when w1 . w2 > 0 its angle
    theta <= (pi/2) |w1 x w2| / (|w1| |w2|) (Jordan's inequality) and the
    first part is at most (theta/2) r^2 (1 - log r^2) with r = min(rmax, 1),
    otherwise the whole disc's pi r^2 (1 - log r^2).
    """
    w1x, w1y, w2x, w2y, cross = _edge_vectors(center, v1, v2)
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


def _ends(ivs: list, idx: np.ndarray):
    """Endpoint arrays of the intervals ivs[idx]."""
    return np.array([v.lo for v in ivs])[idx], np.array([v.hi for v in ivs])[idx]


def _fan_moments(f: _expr.SourceExpr, center, v1, v2, cfg: QuadConfig,
                 want_log: bool = True, want_plain: bool = False):
    """Signed enclosures over the triangle (center, v1, v2) of
    f * log |x - center|^2 (``log``) and of f itself (``plain``)."""
    frame = _fan_frame(center, v1, v2)
    if frame is None:
        return _sliver_bounds(f, center, v1, v2)

    d = frame.d
    logd = d.log()
    m_deg, n_deg = cfg.tm_degrees
    total_log = Interval(0.0, 0.0)
    total_plain = Interval(0.0, 0.0)

    # angular (k-range) subdivision: exact because the frame is shared
    span = frame.y2 - frame.y1
    cuts = [frame.y1] + [frame.y1 + span * (q / cfg.fan_splits)
                         for q in range(1, cfg.fan_splits)] + [frame.y2]

    dpow = [Interval(1.0, 1.0)]
    for ya, yb in zip(cuts[:-1], cuts[1:]):
        ka = ya / d
        kb = yb / d
        box = Box2(u=Interval(0.0, d.hi), k=Interval(min(ka.lo, kb.lo), max(ka.hi, kb.hi)))
        # x = cx + nx u + ex (k u), y likewise; y shares x's monomial ranges
        x_tm = TaylorModel2.affine(box, (m_deg, n_deg), Interval.point(float(center[0])),
                                   frame.nx, frame.ex)
        y_tm = TaylorModel2.affine(box, (m_deg, n_deg), Interval.point(float(center[1])),
                                   frame.ny, frame.ey, x_tm.ranges)
        # one dot over the nonzero coefficients; the (u, k u) substitution
        # keeps i <= j in every product, composition and truncation
        i, j, clo, chi = _expr.eval_tm(f, x_tm, y_tm)._nonzero()
        if not i.size:
            continue
        if np.any(i > j + 1):
            raise DomainError("fan moments need coefficients with i <= j + 1")
        top = int(i.max())  # moments above the top k power are not needed
        while len(dpow) <= int((j + 1 - i).max()):
            dpow.append(dpow[-1] * d)
        ypow_a, ypow_b = [ya], [yb]
        for _ in range(top):
            ypow_a.append(ypow_a[-1] * ya)
            ypow_b.append(ypow_b[-1] * yb)
        s_i = [(ypow_b[q] - ypow_a[q]) / float(q + 1) for q in range(top + 1)]
        dq = _ends(dpow, j + 1 - i)
        base = dr.iv_mul(*_ends(s_i, i), *dq)
        j2 = (j + 2).astype(float)
        if want_plain:
            total_plain = total_plain + Interval(
                *dr._iv_dot_exact01(clo, chi, *dr.iv_div(*base, j2, j2)))
        if want_log:
            la = _log_poly_moments(d, ya, top)
            lb = _log_poly_moments(d, yb, top)
            da_i = [lb[q] - la[q] for q in range(top + 1)]
            w_iv = np.array([rational(2, (q + 2) ** 2) for q in range(j.max() + 1)]).T[:, j]
            # base ((j+2) log d - 1) 2/(j+2)^2 + (dA_i d^q - 2 base log d)/(j+2)
            lg = (logd.lo, logd.hi)
            t = dr.iv_sub(*dr.iv_mul(*lg, j2, j2), 1.0, 1.0)
            part1 = dr.iv_mul(*base, *dr.iv_mul(*t, *w_iv))
            t = dr.iv_sub(*dr.iv_mul(*_ends(da_i, i), *dq),
                          *dr.iv_mul(*dr.iv_mul(*lg, *base), 2.0, 2.0))
            part2 = dr.iv_div(*t, j2, j2)
            total_log = total_log + Interval(
                *dr._iv_dot_exact01(clo, chi, *dr.iv_add(*part1, *part2)))

    sgn = frame.sign
    return total_log * sgn, total_plain * sgn


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
    center = v[sv]
    v1 = v[(sv + 1) % 3]
    v2 = v[(sv + 2) % 3]
    out, _ = _fan_moments(f, center, v1, v2, cfg, want_log=True, want_plain=False)
    return out


# ---------------------------------------------------------------------------
# The pairing <f, phi> over a polygon
# ---------------------------------------------------------------------------


def _fan_over_polygon(f: _expr.SourceExpr, center, poly: Polygon, cfg: QuadConfig,
                      want_log: bool, want_plain: bool):
    """Signed fan of the polygon edges around an arbitrary center point.

    The signed triangle sum reproduces the polygon integral exactly for any
    simple polygon and any center (winding-number argument), so this serves
    interior evaluation points and exterior source points alike.
    """
    total_log = Interval(0.0, 0.0)
    total_plain = Interval(0.0, 0.0)
    for va, vb in poly.edges():
        part_log, part_plain = _fan_moments(
            f, center, va, vb, cfg, want_log=want_log, want_plain=want_plain
        )
        total_log = total_log + part_log
        total_plain = total_plain + part_plain
    return total_log, total_plain


def integrate_source(
    f: _expr.SourceExpr, poly: Polygon, cfg: Optional[QuadConfig] = None
) -> Interval:
    """Enclosure of the integral of f over the polygon."""
    cfg = cfg or QuadConfig()
    center = poly.vertices.mean(axis=0)
    _, plain = _fan_over_polygon(f, center, poly, cfg, want_log=False, want_plain=True)
    return plain


def source_kernel_terms(
    f: _expr.SourceExpr, sources, poly: Polygon, cfg: Optional[QuadConfig] = None
) -> list:
    """Enclosures of -(1/(4 pi)) integral f log|x - s_k|^2 over the polygon,
    one per exterior source s_k.

    They depend on f, the polygon and the sources only, so a caller pairing
    several candidates on one domain computes them once."""
    cfg = cfg or QuadConfig()
    return [
        _fan_over_polygon(f, s, poly, cfg, want_log=True, want_plain=False)[0]
        * NEG_INV_4PI
        for s in np.asarray(sources, dtype=float).reshape(-1, 2)
    ]


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
    log_int, plain_int = _fan_over_polygon(
        f, tf0.s_int, poly, cfg, want_log=True, want_plain=True
    )
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
