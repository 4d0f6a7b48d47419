"""2D pointwise enclosure engine: sign handling, pipeline orchestration.

At an interior point s, one MFS candidate phi^0 = Gamma(s, .) + (exterior
kernels) differs from the Green's function by a harmonic H with
m <= H <= M on the boundary, hence in the domain, so

    u(s) = <f, phi^0> - <f, H>.

Let P = <f, phi^0>, I = integral(f), and f = f_plus - f_minus with both
parts nonnegative (f_minus = 0 for f >= 0, -f for f <= 0, a verified
SignedSplit otherwise), I_minus = integral(f_minus) and
G = M.hi - m.lo.  Then

    P - M.hi I - G I_minus  <=  u(s)  <=  P - m.lo I + G I_minus,

a width of G (integral(f_plus) + integral(f_minus)) plus quadrature
error.  For f >= 0 these are the pairings of f with phi^0 - M.hi and
phi^0 - m.lo.  P and I come from one pairing pass of f itself; the split
parts are only certified and f_minus integrated once.

Only the candidate's weights depend on the evaluation point: the sign
certificate, I_minus, the collocation system and the exterior
source-kernel terms of the pairing are computed once per call by
``_DomainPlan`` and shared by every point of a batch.  The plan also
locates all points in one pass and integrates every point's
interior-kernel fan in the same fan pass as the source kernels.  The
boundary searches of a batch's points run as one: a single
``mfs.EdgeKernel`` holds the exact source geometry for all of them, and
each level of every search is one kernel call (``mfs.boundary_extrema``).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import mfs as _mfs
from .errors import DomainError, GeometryError, InputError, NeedsSplitError
from .expr import Bin, Num, SourceExpr
from .fundsol import TestFunction2D
from .geometry import CornerRefine, Polygon, Triangle, \
    amano_sources, discretize_boundary, _ear_clip
from .interval import Interval, _attempt
from .quad import QuadConfig, integrate_source, kernel_terms, pair_f_phi

__all__ = [
    "MfsConfig",
    "SignVerdict",
    "SignedSplit",
    "shift_split",
    "certify_sign",
    "EnclosureResult",
    "enclose_point",
    "enclose_batch",
    "batch_csv",
]


CORNER_RADIUS = 0.1  # sup-norm radius around the corner where R_near applies


@dataclass(frozen=True)
class MfsConfig:
    """Collocation/source placement and boundary-bounding parameters."""

    n: int = 69
    R_far: float = 1.2
    R_near: float = 1.05
    corner: Optional[tuple] = None  # reentrant corner getting refined spacing
    tol: float = 1e-11

    def r_rule(self):
        corner = self.corner

        def rule(x) -> float:
            if corner is not None and (
                abs(x[0] - corner[0]) <= CORNER_RADIUS
                and abs(x[1] - corner[1]) <= CORNER_RADIUS
            ):
                return self.R_near
            return self.R_far

        return rule


class SignVerdict(enum.Enum):
    NONNEGATIVE = "nonnegative"
    NONPOSITIVE = "nonpositive"
    MIXED = "mixed"
    UNDECIDED = "undecided"


SIGN_MAX_CELLS = 4000  # cells one certify_sign bounds before it gives up
SPLIT_SAMPLES = 400  # points at which SignedSplit.verify checks f = f_plus - f_minus


def certify_sign(f: SourceExpr, poly: Polygon) -> SignVerdict:
    """Rigorous sign verdict of f over the polygon.

    Bounds f over a recursive subdivision of a triangulation, using the
    bounding box of each cell (a superset of the cell, so the verdict is
    conservative and never wrongly sign-definite).  Cell centroids, always
    interior points, serve as witnesses for the ``mixed`` verdict.
    """
    tris = [Triangle(np.array([poly.vertices[i] for i in t]))
            for t in _ear_clip(poly)]
    queue = [tuple([tuple(v) for v in t.vertices]) for t in tris]
    has_pos = has_neg = False
    all_nonneg = all_nonpos = True
    exhausted = False
    boxes = 0
    while queue:
        tri = queue.pop()
        boxes += 1
        (ax, ay), (bx, by), (cx, cy) = tri
        gx = Interval(min(ax, bx, cx), max(ax, bx, cx))
        gy = Interval(min(ay, by, cy), max(ay, by, cy))
        rng = f.eval_interval(gx, gy)
        mx, my = (ax + bx + cx) / 3.0, (ay + by + cy) / 3.0
        witness = f.eval_interval(Interval.point(mx), Interval.point(my))
        has_pos = has_pos or witness.lo > 0.0
        has_neg = has_neg or witness.hi < 0.0
        if has_pos and has_neg:
            return SignVerdict.MIXED
        if rng.lo >= 0.0 or rng.hi <= 0.0:
            all_nonneg = all_nonneg and rng.lo >= 0.0
            all_nonpos = all_nonpos and rng.hi <= 0.0
            continue
        if boxes >= SIGN_MAX_CELLS:
            exhausted = True
            break
        m01 = ((ax + bx) / 2, (ay + by) / 2)
        m12 = ((bx + cx) / 2, (by + cy) / 2)
        m20 = ((cx + ax) / 2, (cy + ay) / 2)
        queue.extend(
            ((tri[0], m01, m20), (m01, tri[1], m12), (m20, m12, tri[2]),
             (m01, m12, m20))
        )
    if exhausted:
        return SignVerdict.MIXED if (has_pos and has_neg) else SignVerdict.UNDECIDED
    if all_nonneg:
        return SignVerdict.NONNEGATIVE
    if all_nonpos:
        return SignVerdict.NONPOSITIVE
    return SignVerdict.MIXED if (has_pos and has_neg) else SignVerdict.UNDECIDED


@dataclass(frozen=True)
class SignedSplit:
    """Decomposition f = f_plus - f_minus with both parts >= 0 on the domain.

    The bound pairs f itself and integrates only f_minus, so it needs
    exactly f_minus >= 0 and f + f_minus >= 0; ``verify`` certifies these
    two and checks the given f_plus against f + f_minus at sample points.
    The library never invents a split."""

    f_plus: SourceExpr
    f_minus: SourceExpr

    def verify(self, f: SourceExpr, poly: Polygon) -> None:
        shifted = SourceExpr(Bin("+", f.root, self.f_minus.root),
                             f"({f.text})+({self.f_minus.text})")
        for part, name in ((shifted, "f + minus"), (self.f_minus, "minus")):
            verdict = certify_sign(part, poly)
            if verdict is not SignVerdict.NONNEGATIVE:
                raise InputError(
                    f"split part {name!r} not certified nonnegative ({verdict.value})"
                )
        # uniform points of the polygon: a triangle of its triangulation,
        # chosen by area, then a uniform point of it (folded barycentric
        # coordinates)
        a, b, c = np.moveaxis(poly.vertices[np.array(_ear_clip(poly))], 1, 0)
        u, w = b - a, c - a
        area = np.abs(u[:, 0] * w[:, 1] - u[:, 1] * w[:, 0])
        rng = np.random.default_rng(20240905)
        pick = rng.choice(len(area), SPLIT_SAMPLES, p=area / area.sum())
        r = rng.random((SPLIT_SAMPLES, 2))
        r = np.where(r.sum(axis=1, keepdims=True) > 1.0, 1.0 - r, r)
        points = a[pick] + r[:, :1] * u[pick] + r[:, 1:] * w[pick]
        scale = max(1.0, _magnitude_scale(f, poly))
        for p in points:
            lhs = f.eval_point(p[0], p[1])
            rhs = self.f_plus.eval_point(p[0], p[1]) - self.f_minus.eval_point(
                p[0], p[1]
            )
            if abs(lhs - rhs) > 1e-9 * scale:
                raise InputError(
                    f"split identity violated at {tuple(p)}: f={lhs}, "
                    f"plus-minus={rhs}"
                )


def _magnitude_scale(f: SourceExpr, poly: Polygon) -> float:
    v = poly.vertices
    gx = Interval(float(v[:, 0].min()), float(v[:, 0].max()))
    gy = Interval(float(v[:, 1].min()), float(v[:, 1].max()))
    try:
        return abs(f.eval_interval(gx, gy)).hi
    except DomainError:
        return 1.0


def shift_split(f: SourceExpr, offset: float) -> SignedSplit:
    """The canonical split (f + offset) - offset, exact by construction."""
    if offset < 0.0:
        raise InputError("shift offset must be nonnegative")
    k = Num(float(offset), float(offset), float(offset))
    plus = SourceExpr(Bin("+", f.root, k), f"({f.text})+{offset!r}")
    minus = SourceExpr(k, f"{offset!r}")
    return SignedSplit(plus, minus)


@dataclass(frozen=True)
class EnclosureResult:
    s_int: tuple
    bound: Interval
    width: float
    rel_error: float
    diagnostics: dict = field(default_factory=dict)

    @staticmethod
    def from_bound(s_int, bound: Interval, diagnostics: dict) -> "EnclosureResult":
        width = bound.width()
        mid = bound.mid()
        rel = math.inf if mid == 0.0 else width / abs(mid)
        return EnclosureResult(
            s_int=(float(s_int[0]), float(s_int[1])),
            bound=bound,
            width=width,
            rel_error=rel,
            diagnostics=diagnostics,
        )


class _DomainPlan:
    """The work of one ``enclose_point``/``enclose_batch`` call that depends
    on (polygon, source or split, configs), and the kernel terms of its
    points.

    Built once per call: the sign certificate or split verification with
    I_minus = integral(f_minus), the collocation points and sources, the
    collocation matrix with its condition estimate, and, from one location
    pass and one fan pass (``quad.kernel_terms``), which points are
    interior, the source-kernel terms of f and each interior point's
    interior-kernel term and integral(f).  Per point, ``enclose`` solves
    for the coefficients; the candidates of all its points are bounded on
    the boundary by one stepped-together search, and each is paired from
    the finished terms.
    """

    def __init__(self, poly: Polygon, f: SourceExpr, split: Optional[SignedSplit],
                 mfs_cfg: MfsConfig, quad_cfg: QuadConfig, points):
        self.poly, self.f, self.mfs_cfg, self.quad_cfg = poly, f, mfs_cfg, quad_cfg
        if split is not None:
            split.verify(f, poly)
            self.sign = "split"
            self.minus_mass = integrate_source(split.f_minus, poly, quad_cfg)
        else:
            verdict = certify_sign(f, poly)
            if verdict in (SignVerdict.MIXED, SignVerdict.UNDECIDED):
                raise NeedsSplitError(
                    f"source sign is {verdict.value}; supply a SignedSplit "
                    "(e.g. shift_split(f, K) with f + K >= 0)"
                )
            self.sign = verdict.value
            self.minus_mass = (-integrate_source(f, poly, quad_cfg)
                               if verdict is SignVerdict.NONPOSITIVE
                               else Interval(0.0, 0.0))
        refine = None if mfs_cfg.corner is None else CornerRefine(corner=mfs_cfg.corner)
        self.collocation = discretize_boundary(poly, mfs_cfg.n, refine)
        self.sources = amano_sources(poly, self.collocation, mfs_cfg.r_rule())
        self.system = _mfs.collocation_system(self.collocation, self.sources)
        self.points = list(points)
        self.outside = _check_interior(poly, self.points)
        interior = [p for p, e in zip(self.points, self.outside) if e is None]
        self.source_terms, terms = kernel_terms(f, self.sources, interior, poly, quad_cfg)
        terms = iter(terms)
        self.point_terms = [next(terms) if e is None else None for e in self.outside]

    def enclose(self) -> list:
        """One outcome per point of the plan: its EnclosureResult, or the
        exception its interior check, solve, boundary search or pairing
        raised.

        The boundary searches of all points run together
        (``mfs.boundary_extrema``); everything else is per point, and each
        point's outcome is the one it gets alone."""
        terms = self.point_terms
        out = [e or _attempt(self._candidate, s_int)
               for s_int, e in zip(self.points, self.outside)]
        solved = [i for i, o in enumerate(out) if not isinstance(o, Exception)]
        extrema = _attempt(_mfs.boundary_extrema, [out[i][0] for i in solved], self.poly,
                           self.mfs_cfg.tol)
        if isinstance(extrema, Exception):  # nothing of one point: all fail alike
            extrema = [extrema] * len(solved)
        for i, ext in zip(solved, extrema):
            out[i] = (ext if isinstance(ext, Exception) else
                      _attempt(self._pair, *out[i], terms[i], ext))
        return out

    def _candidate(self, s_int) -> tuple:
        """The MFS candidate at an interior point, with the collocation
        residual and condition estimate."""
        coeffs, residual, cond = _mfs.solve_coefficients(
            self.collocation, self.sources, s_int, system=self.system)
        return TestFunction2D(s_int, self.sources, coeffs), residual, cond

    def _pair(self, tf0: TestFunction2D, residual: float, cond: float, terms,
              ext) -> EnclosureResult:
        """The enclosure at tf0.s_int from its candidate's boundary extrema
        and its kernel terms (or the exception their fan pass raised)."""
        m, M = ext.m, ext.M
        diagnostics = {
            "mfs_residual": residual,
            "mfs_condition": cond,
            "m": (m.lo, m.hi),
            "M": (M.lo, M.hi),
            "extrema_converged": ext.converged,
            "extrema_evaluations": ext.evaluations,
            "extrema_depth": ext.depth,
            "extrema_expanded_boxes": ext.expanded_boxes,
            "extrema_natural_boxes": ext.natural_boxes,
            "n_collocation": self.mfs_cfg.n,
            "sign": self.sign,
        }
        # <f, H> = <f_plus, H> - <f_minus, H> lies in
        # [m.lo I - G I_minus, M.hi I + G I_minus]
        gap = Interval.point((M - m).hi) * self.minus_mass
        upper, lower = pair_f_phi(self.f, tf0, self.poly, self.quad_cfg,
                                  ((-m.lo, gap), (-M.hi, -gap)), self.source_terms, terms)
        if lower.lo > upper.hi:
            raise DomainError("crossed enclosure; rigor violated upstream")
        return EnclosureResult.from_bound(tf0.s_int, Interval(lower.lo, upper.hi),
                                          diagnostics)


def _check_interior(poly: Polygon, points) -> list:
    """Per point, None when it is strictly interior, else the GeometryError
    that it is not: one ``Polygon.locate_many`` pass."""
    return [None if w == 1 else GeometryError(f"evaluation point {tuple(p)} must be interior")
            for p, w in zip(points, poly.locate_many(points))]


def enclose_point(
    poly: Polygon,
    f: SourceExpr,
    s_int,
    split: Optional[SignedSplit] = None,
    mfs_cfg: Optional[MfsConfig] = None,
    quad_cfg: Optional[QuadConfig] = None,
) -> EnclosureResult:
    """Rigorous enclosure of u(s_int) for -Laplace(u) = f, zero boundary data.

    f must be certified nonnegative or nonpositive, or a verified
    SignedSplit must be supplied.
    """
    (outside,) = _check_interior(poly, [s_int])
    if outside is not None:
        raise outside
    plan = _DomainPlan(poly, f, split, mfs_cfg or MfsConfig(), quad_cfg or QuadConfig(),
                       [s_int])
    (outcome,) = plan.enclose()
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


# ---------------------------------------------------------------------------
# Batch driver
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BatchItem:
    point: tuple
    result: Optional[EnclosureResult]
    error: Optional[str] = None
    needs_split: bool = False


def enclose_batch(
    poly: Polygon,
    f: SourceExpr,
    points,
    split: Optional[SignedSplit] = None,
    mfs_cfg: Optional[MfsConfig] = None,
    quad_cfg: Optional[QuadConfig] = None,
    threads: int = 1,
) -> list:
    """Independent enclosures for a list of interior points.

    The domain plan (sign certificate or split check, collocation system,
    and from one location pass and one fan pass the source-kernel terms
    and every interior point's interior-kernel terms) is built once; each
    point then solves for its own candidate test function and pairs it,
    and the boundary searches of all points are stepped together, one
    kernel call per level.  ``threads`` must be 1: points split over
    processes would lose those shared calls.  Per-point errors are
    recorded and the batch continues; a failure to build the plan (which
    holds f, the split, both configs and the points' kernel terms) is
    recorded on every interior point.  Results keep the input order.
    """
    if threads != 1:
        raise InputError(f"threads must be 1, got {threads}")
    points = [(float(p[0]), float(p[1])) for p in points]
    if not points:
        return []
    try:
        plan = _DomainPlan(poly, f, split, mfs_cfg or MfsConfig(), quad_cfg or QuadConfig(),
                           points)
    except Exception as e:
        outcomes = [err or e for err in _check_interior(poly, points)]
    else:
        outcomes = plan.enclose()
    return [BatchItem(point=p, result=o) if isinstance(o, EnclosureResult) else
            BatchItem(point=p, result=None, error=str(o),
                      needs_split=isinstance(o, NeedsSplitError))
            for p, o in zip(points, outcomes)]


def batch_csv(items) -> str:
    """CSV with the fixed column contract; failed points are omitted."""
    lines = ["point_x,point_y,lower,upper,width,rel_error"]
    for item in items:
        if item.result is None:
            continue
        r = item.result
        rel = "inf" if math.isinf(r.rel_error) else repr(r.rel_error)
        lines.append(
            f"{r.s_int[0]!r},{r.s_int[1]!r},{r.bound.lo!r},{r.bound.hi!r},"
            f"{r.width!r},{rel}"
        )
    return "\n".join(lines) + "\n"
