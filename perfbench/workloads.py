"""Seeded inputs of the benchmark workloads and the code that runs them.

``generate`` is pure Python and imports nothing from greenbound: it turns a
workload name and a seed into plain data (JSON-compatible).  ``parse``
turns that data into library objects, and ``run_round`` runs every
operation of the workload once through the public API.

One operation (op) is one 2D evaluation point or one certified 1D
super/sub pair at one mesh width.

Points are drawn in a disc of radius ``JITTER`` around fixed anchors (and,
on the square, mapped by a seeded symmetry of the square).  The widths and
the branch-and-bound work of an enclosure change by a factor of several
across the domain, so points drawn uniformly would make one seed's run
incomparable with another's; small discs keep the seeds comparable while
still giving every seed different inputs.
"""

from __future__ import annotations

import math
import random
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("poly-const", "square-trig", "interval-1d")

SQUARE = [[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]]
LSHAPE = [[-1.0, -1.0], [1.0, -1.0], [1.0, 0.0], [0.0, 0.0], [0.0, 1.0], [-1.0, 1.0]]

MARGIN = 0.15  # every evaluation point is at least this far from the boundary
JITTER = 0.01

SQUARE_ANCHORS = [(0.0, 0.0), (0.25, 0.25), (-0.2, 0.1)]
# (0.5, -0.5) and (-0.5, 0.5) are mirror images across y = x, the L-shape's
# only symmetry, so the L-shape points get no seeded symmetry.
LSHAPE_ANCHORS = [(-0.5, -0.5), (0.5, -0.5), (-0.5, 0.5)]
TRIG_ANCHOR = (0.0, 0.0)
TRIG_SOURCE = "x + sin((x+0.5)*y^2)"
TRIG_SHIFT = 0.75

JUMP_BREAKPOINTS = (0.25, 0.375, 0.625, 0.75)
JUMP_HEIGHTS = ("1.125", "1.5")


def distance_to_boundary(vertices, p) -> float:
    """Euclidean distance from p to the polygon's boundary."""
    best = math.inf
    n = len(vertices)
    for i in range(n):
        (ax, ay), (bx, by) = vertices[i], vertices[(i + 1) % n]
        ex, ey = bx - ax, by - ay
        t = max(0.0, min(1.0, ((p[0] - ax) * ex + (p[1] - ay) * ey) / (ex * ex + ey * ey)))
        best = min(best, math.hypot(p[0] - ax - t * ex, p[1] - ay - t * ey))
    return best


def _jittered(rng: random.Random, anchor) -> list:
    angle = rng.uniform(0.0, 2.0 * math.pi)
    radius = JITTER * math.sqrt(rng.random())
    return [anchor[0] + radius * math.cos(angle), anchor[1] + radius * math.sin(angle)]


def _square_symmetry(rng: random.Random, p) -> list:
    x, y = (p[1], p[0]) if rng.random() < 0.5 else (p[0], p[1])
    return [x * rng.choice((-1.0, 1.0)), y * rng.choice((-1.0, 1.0))]


def generate(workload: str, seed: int) -> dict:
    """Inputs of one workload as plain data; the same seed gives equal data."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "poly-const":
        return {"batches": [
            {"domain": "square", "vertices": SQUARE, "source": "1",
             "mfs": {"n": 69},
             "points": [_square_symmetry(rng, _jittered(rng, a)) for a in SQUARE_ANCHORS]},
            {"domain": "lshape", "vertices": LSHAPE, "source": "1",
             "mfs": {"n": 69, "corner": [0.0, 0.0]},
             "points": [_jittered(rng, a) for a in LSHAPE_ANCHORS]},
        ], "ops1d": []}
    if workload == "square-trig":
        return {"batches": [
            {"domain": "square", "vertices": SQUARE, "source": TRIG_SOURCE,
             "shift": TRIG_SHIFT, "mfs": {"n": 69},
             "quad": {"tm_degrees": [6, 6], "fan_splits": 1},
             "points": [_jittered(rng, TRIG_ANCHOR)]},
        ], "ops1d": []}
    if workload == "interval-1d":
        # Both heights run in every round: the gap scales with the height,
        # so drawing one of them would split the seeds into two groups.
        jumps = [
            {"source": {"breakpoints": [rng.choice(JUMP_BREAKPOINTS)], "pieces": ["1", height]},
             "h": 2.0**-10}
            for height in JUMP_HEIGHTS
        ]
        return {"batches": [], "ops1d": [
            {"source": "1", "h": 2.0**-10},
            *jumps,
            {"source": "2+sin(3*x)", "h": 2.0**-9},
        ]}
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


# ---------------------------------------------------------------------------
# Parsing into library objects
# ---------------------------------------------------------------------------


def import_program():
    """The checkout's ``src/greenbound``, never an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import greenbound

    if Path(greenbound.__file__).resolve().parent != (src / "greenbound").resolve():
        raise ImportError(f"greenbound was imported from {greenbound.__file__}, not {src}")
    return greenbound


@dataclass
class Batch:
    """One ``enclose_batch`` call: several points on one domain."""

    data: dict
    poly: object
    f: object
    split: object
    mfs_cfg: object
    quad_cfg: object
    points: list


@dataclass
class Op1D:
    data: dict
    f: object
    h: float


@dataclass
class Parsed:
    batches: list
    ops1d: list

    @property
    def n_ops(self) -> int:
        return sum(len(b.points) for b in self.batches) + len(self.ops1d)


def parse(gb, inputs: dict) -> Parsed:
    """Library objects for generated inputs; ``gb`` is the imported package."""
    batches = []
    for b in inputs["batches"]:
        f = gb.expr.parse(b["source"])
        split = gb.twod.shift_split(f, b["shift"]) if "shift" in b else None
        mfs = b["mfs"]
        quad = b.get("quad", {})
        batches.append(Batch(
            data=b,
            poly=gb.geometry.Polygon(b["vertices"]),
            f=f,
            split=split,
            mfs_cfg=gb.twod.MfsConfig(
                n=mfs["n"], corner=tuple(mfs["corner"]) if "corner" in mfs else None),
            quad_cfg=gb.quad.QuadConfig(
                tm_degrees=tuple(quad.get("tm_degrees", (8, 8))),
                fan_splits=quad.get("fan_splits", 1)),
            points=[tuple(p) for p in b["points"]],
        ))
    ops1d = []
    for op in inputs["ops1d"]:
        src = op["source"]
        if isinstance(src, str):
            f = gb.expr.parse(src)
        else:
            f = gb.expr.PiecewiseSource1D(
                tuple(src["breakpoints"]), tuple(gb.expr.parse(p) for p in src["pieces"]))
        ops1d.append(Op1D(data=op, f=f, h=op["h"]))
    return Parsed(batches, ops1d)


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------


@dataclass
class OpResult:
    """Output of one op.  2D: ``bound`` is (lower, upper); 1D: ``lower`` and
    ``upper`` are the nodal values of the certified pair."""

    label: str
    width: float = math.nan
    bound: Optional[tuple] = None
    lower: Optional[tuple] = None
    upper: Optional[tuple] = None
    diagnostics: dict = field(default_factory=dict)
    error: Optional[str] = None

    def output(self):
        """Everything a rerun must reproduce bit for bit."""
        return (self.bound, self.lower, self.upper, self.error)


def _label_2d(batch: Batch, p) -> str:
    return f"{batch.data['domain']}({p[0]!r},{p[1]!r}) f={batch.f.text}"


def _label_1d(op: Op1D) -> str:
    src = op.data["source"]
    if not isinstance(src, str):
        src = f"jump(b={src['breakpoints'][0]!r},H={src['pieces'][1]})"
    return f"interval f={src} h={op.h!r}"


def run_batch(gb, batch: Batch) -> list:
    items = gb.twod.enclose_batch(
        batch.poly, batch.f, batch.points, split=batch.split,
        mfs_cfg=batch.mfs_cfg, quad_cfg=batch.quad_cfg, threads=1)
    out = []
    for p, item in zip(batch.points, items):
        res = OpResult(label=_label_2d(batch, p))
        if item.result is None:
            res.error = item.error
        else:
            r = item.result
            res.bound = (r.bound.lo, r.bound.hi)
            res.width = r.width
            res.diagnostics = r.diagnostics
        out.append(res)
    return out


def run_op1d(gb, op: Op1D) -> OpResult:
    """The ``enclose1d`` path with its default rules for c and eps."""
    res = OpResult(label=_label_1d(op))
    try:
        ev = gb.oned.GreenEvaluator(op.f)
        supf = ev.sup_abs_source()
        c = 0.2 * supf * op.h * op.h
        eps = 0.25 * op.h * supf
        upper = gb.oned.build_super(op.f, op.h, c, eps=eps)
        lower = gb.oned.build_sub(op.f, op.h, c, eps=eps)
    except Exception as e:  # a failed op is counted, the run goes on
        res.error = f"{type(e).__name__}: {e}"
        return res
    res.lower = tuple(float(v) for v in lower.grid.values)
    res.upper = tuple(float(v) for v in upper.grid.values)
    res.width = max(u - l for l, u in zip(res.lower, res.upper))
    return res


def run_round(gb, parsed: Parsed, tracer=None) -> tuple:
    """Run every op once; returns (results, wall seconds).

    With a tracer, each batch and each 1D op is a top-level span."""
    units = [(run_batch, b, "bench.batch", False) for b in parsed.batches]
    units += [(run_op1d, op, "bench.op1d", True) for op in parsed.ops1d]
    results = []
    t0 = time.perf_counter()
    for fn, unit, span, new_op in units:
        if tracer is None:
            out = fn(gb, unit)
        else:
            out = tracer.call(span, fn, gb, unit, new_op=new_op)
        results.extend(out if isinstance(out, list) else [out])
    return results, time.perf_counter() - t0
