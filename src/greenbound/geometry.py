"""Polygonal domains, boundary discretization, source placement, triangulation.

Collocation points are spread over the boundary proportionally to edge
length, optionally with geometric grading toward a flagged reentrant corner.
Exterior sources follow the Amano arrangement

    s_k = x_k - (i r_k / 2) (x_{k+1} - x_{k-1}),   r_k = (R_k - 1) / sin(2 pi / n),

i.e. each collocation point is pushed outward along the neighbor chord
rotated by -90 degrees.  Ear clipping triangulates the polygon for the
sign certification of sources.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import GeometryError, PlacementError

__all__ = [
    "Polygon",
    "Triangle",
    "CornerRefine",
    "discretize_boundary",
    "amano_sources",
]


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _segments_properly_intersect(p1, p2, q1, q2) -> bool:
    d1 = _cross(q1, q2, p1)
    d2 = _cross(q1, q2, p2)
    d3 = _cross(p1, p2, q1)
    d4 = _cross(p1, p2, q2)
    return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0))


@dataclass(frozen=True)
class Polygon:
    """Simple polygon with counterclockwise vertices (normalized on input)."""

    vertices: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
            raise GeometryError("polygon needs at least three 2D vertices")
        if np.any(~np.isfinite(v)):
            raise GeometryError("polygon vertices must be finite")
        for i in range(len(v)):
            if np.all(v[i] == v[(i + 1) % len(v)]):
                raise GeometryError("consecutive polygon vertices must be distinct")
        area2 = float(
            np.sum(v[:, 0] * np.roll(v[:, 1], -1) - np.roll(v[:, 0], -1) * v[:, 1])
        )
        if area2 == 0.0:
            raise GeometryError("polygon has zero area")
        if area2 < 0.0:
            v = v[::-1].copy()
        m = len(v)
        for i in range(m):
            for j in range(i + 1, m):
                if abs(i - j) in (1, m - 1):
                    continue
                if _segments_properly_intersect(
                    v[i], v[(i + 1) % m], v[j], v[(j + 1) % m]
                ):
                    raise GeometryError("polygon is self-intersecting")
        v.setflags(write=False)
        object.__setattr__(self, "vertices", v)

    def __len__(self) -> int:
        return len(self.vertices)

    def area(self) -> float:
        v = self.vertices
        return 0.5 * float(
            np.sum(v[:, 0] * np.roll(v[:, 1], -1) - np.roll(v[:, 0], -1) * v[:, 1])
        )

    def diameter(self) -> float:
        v = self.vertices
        d2 = np.sum((v[:, None, :] - v[None, :, :]) ** 2, axis=2)
        return math.sqrt(float(np.max(d2)))

    def edges(self):
        v = self.vertices
        return [(v[i], v[(i + 1) % len(v)]) for i in range(len(v))]

    def locate(self, p, tol: Optional[float] = None) -> int:
        """+1 strictly inside, 0 on the boundary (within tol), -1 outside:
        the one-row case of :meth:`locate_many`."""
        return int(self.locate_many([p], tol)[0])

    def locate_many(self, points, tol: Optional[float] = None) -> np.ndarray:
        """Per point of an (N, 2) array: +1 strictly inside, 0 within tol
        (default 1e-12 times the diameter) of the boundary, -1 outside.

        Both tests run on (point, edge) arrays: the distance to each edge
        segment, and the crossings of the rightward ray from the point
        with the edges that straddle its height (even-odd rule)."""
        if tol is None:
            tol = 1e-12 * self.diameter()
        p = np.asarray(points, dtype=float).reshape(-1, 2)
        px, py = p[:, :1], p[:, 1:]
        a = self.vertices
        b = np.roll(a, -1, axis=0)
        ax, ay, bx, by = a[:, 0], a[:, 1], b[:, 0], b[:, 1]
        ex, ey = bx - ax, by - ay
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # the projection parameter clamped to [0, 1], a NaN to 1
            t = ((px - ax) * ex + (py - ay) * ey) / (ex * ex + ey * ey)
            t = np.where(t < 1.0, t, 1.0)
            t = np.where(t > 0.0, t, 0.0)
            dx, dy = px - (ax + t * ex), py - (ay + t * ey)
            on_edge = (dx * dx + dy * dy <= tol * tol).any(axis=1)
            straddle = (ay > py) != (by > py)
            xi = ax + (py - ay) / (by - ay) * (bx - ax)
        inside = np.count_nonzero(straddle & (px < xi), axis=1) % 2 == 1
        return np.where(on_edge, 0, np.where(inside, 1, -1))


@dataclass(frozen=True)
class Triangle:
    vertices: np.ndarray  # (3, 2), positively oriented
    singular_vertex: Optional[int] = None

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float).reshape(3, 2)
        if _cross(v[0], v[1], v[2]) <= 0.0:
            raise GeometryError("triangle must be positively oriented, nonzero area")
        if self.singular_vertex is not None and self.singular_vertex not in (0, 1, 2):
            raise GeometryError("singular_vertex must be 0, 1 or 2")
        v.setflags(write=False)
        object.__setattr__(self, "vertices", v)


@dataclass(frozen=True)
class CornerRefine:
    """Geometric grading toward a flagged (reentrant) corner."""

    corner: tuple
    ratio: float = 0.7


def _edge_points_uniform(a, b, k: int) -> np.ndarray:
    ts = (np.arange(k) + 0.5) / k
    return a[None, :] + ts[:, None] * (b - a)[None, :]


def _edge_points_graded(a, b, k: int, toward_start: bool, ratio: float) -> np.ndarray:
    """Midpoints of k segments whose widths grow geometrically away from
    the graded endpoint with factor 1/ratio."""
    q = 1.0 / ratio
    widths = q ** np.arange(k)
    widths = widths / widths.sum()
    if not toward_start:
        widths = widths[::-1]
    cuts = np.concatenate(([0.0], np.cumsum(widths)))
    ts = 0.5 * (cuts[:-1] + cuts[1:])
    return a[None, :] + ts[:, None] * (b - a)[None, :]


def discretize_boundary(
    poly: Polygon, n: int, refine: Optional[CornerRefine] = None
) -> np.ndarray:
    """n collocation points on the boundary, ordered counterclockwise.

    Points are allocated to edges proportionally to length (largest
    remainder) and placed at segment midpoints, so no point ever sits on a
    polygon vertex.  With a refinement rule, edges incident to the flagged
    corner get geometrically graded segments instead of uniform ones.
    """
    if n < 3:
        raise GeometryError("need at least 3 collocation points")
    edges = poly.edges()
    lengths = np.array([math.hypot(*(b - a)) for a, b in edges])
    raw = n * lengths / lengths.sum()
    counts = np.floor(raw).astype(int)
    remainder = raw - counts
    for i in np.argsort(-remainder)[: n - counts.sum()]:
        counts[i] += 1
    corner = None if refine is None else np.asarray(refine.corner, dtype=float)
    tol = 1e-12 * poly.diameter()
    pts = []
    for (a, b), k in zip(edges, counts):
        if k == 0:
            continue
        graded = None
        if corner is not None:
            if np.hypot(*(a - corner)) <= tol:
                graded = True  # grade toward the edge start
            elif np.hypot(*(b - corner)) <= tol:
                graded = False
        if graded is None:
            pts.append(_edge_points_uniform(a, b, k))
        else:
            pts.append(_edge_points_graded(a, b, k, graded, refine.ratio))
    return np.vstack(pts)


def amano_sources(
    poly: Polygon, collocation: np.ndarray, R_rule: Callable[[np.ndarray], float]
) -> np.ndarray:
    """Exterior sources from the Amano neighbor-chord arrangement."""
    x = np.asarray(collocation, dtype=float)
    n = len(x)
    if n < 3:
        raise GeometryError("need at least 3 collocation points")
    sn = math.sin(2.0 * math.pi / n)
    sources = np.empty_like(x)
    for k in range(n):
        R = float(R_rule(x[k]))
        if R <= 1.0:
            raise PlacementError(f"R rule must return R > 1, got {R} at {x[k]}")
        r = (R - 1.0) / sn
        chord = x[(k + 1) % n] - x[(k - 1) % n]
        sources[k, 0] = x[k, 0] + 0.5 * r * chord[1]
        sources[k, 1] = x[k, 1] - 0.5 * r * chord[0]
    outside = poly.locate_many(sources) == -1
    if not outside.all():
        s = sources[np.argmin(outside)]
        raise PlacementError(
            f"source {tuple(s)} is not strictly exterior; adjust the R rule"
        )
    return sources


# -- triangulation -----------------------------------------------------------


def _ear_clip(poly: Polygon) -> list:
    """Standard ear clipping; returns triangles as index triples."""
    v = poly.vertices
    idx = list(range(len(v)))
    tris = []
    eps = 1e-14 * poly.diameter() ** 2
    guard = 0
    while len(idx) > 3:
        guard += 1
        if guard > 10000:
            raise GeometryError("ear clipping failed to make progress")
        ear_found = False
        for pos in range(len(idx)):
            i0 = idx[pos - 1]
            i1 = idx[pos]
            i2 = idx[(pos + 1) % len(idx)]
            if _cross(v[i0], v[i1], v[i2]) <= eps:
                continue
            tri = (v[i0], v[i1], v[i2])
            blocked = False
            for j in idx:
                if j in (i0, i1, i2):
                    continue
                # a vertex on the candidate's boundary blocks the ear too
                if (
                    _cross(tri[0], tri[1], v[j]) >= -eps
                    and _cross(tri[1], tri[2], v[j]) >= -eps
                    and _cross(tri[2], tri[0], v[j]) >= -eps
                ):
                    blocked = True
                    break
            if not blocked:
                tris.append((i0, i1, i2))
                idx.pop(pos)
                ear_found = True
                break
        if not ear_found:
            raise GeometryError("no ear found; polygon may be degenerate")
    tris.append(tuple(idx))
    return tris
