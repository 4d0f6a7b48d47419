"""Command-line front end: problem files in, result tables out.

Subcommands
-----------
``greenbound enclose1d problem.json [--h H] [--c C] [--sweep] [--out PATH]``
    Certified sub/super-solution pair on the unit interval; writes the
    nodal table (x, lower, upper) and a gap summary.  ``--sweep`` runs the
    mesh study over ``oned.sweep_h`` instead and writes (h, c, eps,
    iterations, max_gap) rows; there ``--c`` fixes c for every mesh and
    ``--h`` is an input error.  Both are ``oned.sweep``, the single pair
    over a list of one mesh, and print one summary line per mesh.

``greenbound enclose2d problem.json [--out PATH] [--threads N]``
    Pointwise enclosures on a polygon; writes CSV rows
    point_x, point_y, lower, upper, width, rel_error.  ``--threads`` runs
    the points in that many worker processes.

``greenbound selftest``
    Fast containment/identity checks; nonzero exit on any failure.

Exit codes: 0 ok, 2 invalid input (also a source or split that does not
parse, a degenerate polygon, bad breakpoints, any problem-file key or flag
not listed in ``PROBLEM_SCHEMA`` or here or not read by the subcommand,
and any non-finite number), 3 engine failure, 4 sign-indefinite source
without a supplied split.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
import time
from typing import Optional

import jsonschema

from . import oned as _oned
from . import twod as _twod
from .errors import GreenboundError, InputError, NeedsSplitError
from .expr import PiecewiseSource1D, parse
from .geometry import Polygon
from .interval import Interval
from .quad import QuadConfig
from .taylor import MAX_DEGREE

_POINT = {"type": "array", "items": {"type": "number"}, "minItems": 2, "maxItems": 2}

PROBLEM_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["schema", "domain", "source"],
    "properties": {
        "schema": {"const": 1},
        "domain": {
            "oneOf": [
                {
                    "type": "object",
                    "required": ["type"],
                    "properties": {"type": {"const": "interval"}},
                    "additionalProperties": False,
                },
                {
                    "type": "object",
                    "required": ["type", "vertices"],
                    "properties": {
                        "type": {"const": "polygon"},
                        "vertices": {"type": "array", "minItems": 3, "items": _POINT},
                    },
                    "additionalProperties": False,
                },
            ]
        },
        "source": {
            "oneOf": [
                {"type": "string"},
                {
                    "type": "object",
                    "required": ["breakpoints", "pieces"],
                    "properties": {
                        "breakpoints": {"type": "array", "items": {"type": "number"}},
                        "pieces": {"type": "array", "items": {"type": "string"}},
                    },
                    "additionalProperties": False,
                },
            ]
        },
        "split": {
            "type": "object",
            "required": ["plus", "minus"],
            "properties": {
                "plus": {"type": "string"},
                "minus": {"type": "string"},
            },
            "additionalProperties": False,
        },
        "points": {"type": "array", "items": _POINT},
        "mfs": {
            "type": "object",
            "properties": {
                "n": {"type": "integer", "minimum": 3},
                "R_far": {"type": "number", "exclusiveMinimum": 1},
                "R_near": {"type": "number", "exclusiveMinimum": 1},
                "corner": _POINT,
                "tol": {"type": "number", "exclusiveMinimum": 0},
            },
            "dependentRequired": {"R_near": ["corner"]},  # R_near applies near the corner
            "additionalProperties": False,
        },
        "quad": {
            "type": "object",
            "properties": {
                "deg_u": {"type": "integer", "minimum": 1, "maximum": MAX_DEGREE},
                "deg_k": {"type": "integer", "minimum": 1, "maximum": MAX_DEGREE},
                "fan_splits": {"type": "integer", "minimum": 1},
            },
            "additionalProperties": False,
        },
        "oned": {
            "type": "object",
            "properties": {
                "h": {"type": "number", "exclusiveMinimum": 0},
                "c": {"type": "number", "minimum": 0},
                "eps_factor": {"type": "number", "exclusiveMinimum": 0},
                "sweep_h": {"type": "array", "items": {"type": "number"}},
            },
            "additionalProperties": False,
        },
    },
    "additionalProperties": False,
}

# the problem-file keys each command reads, by domain type
_COMMAND_KEYS = {
    "interval": ("enclose1d", {"schema", "domain", "source", "oned"}),
    "polygon": ("enclose2d", {"schema", "domain", "source", "split", "points", "mfs", "quad"}),
}

_DEFAULT_SWEEP_H = [2.0**-5, 2.0**-6, 2.0**-7, 2.0**-8, 2.0**-9]


def _finite(text: str) -> float:
    """JSON number hook: NaN, Infinity and overflowing literals are input errors."""
    value = float(text)
    if not math.isfinite(value):
        raise InputError(f"non-finite number {text} in problem file")
    return value


def _load_problem(path: str, domain: str) -> dict:
    """The validated problem file of the command for ``domain``; a key that
    command does not read is an input error."""
    try:
        with open(path) as fh:
            data = json.load(fh, parse_float=_finite, parse_constant=_finite)
    except OSError as e:
        raise InputError(f"cannot read problem file: {e}") from None
    except json.JSONDecodeError as e:
        raise InputError(f"malformed JSON: {e}") from None
    try:
        jsonschema.validate(data, PROBLEM_SCHEMA)
    except jsonschema.ValidationError as e:
        raise InputError(f"problem file rejected: {e.message}") from None
    command, keys = _COMMAND_KEYS[domain]
    if data["domain"]["type"] != domain:
        raise InputError(f"{command} needs a domain of type {domain!r}")
    unused = sorted(set(data) - keys)
    if unused:
        raise InputError(f"{command} does not use the problem-file key(s) {', '.join(unused)}")
    return data


@contextlib.contextmanager
def _problem_input():
    """Errors raised while the problem is built from its file (a source or
    split that does not parse, a degenerate polygon, bad breakpoints or mesh
    widths) are input errors; the engine's errors come later."""
    try:
        yield
    except GreenboundError as e:
        raise InputError(str(e)) from None


def _parse_source_1d(spec):
    pieces = tuple(parse(p) for p in ([spec] if isinstance(spec, str) else spec["pieces"]))
    if any("y" in p.variables() for p in pieces):
        raise InputError("1D source must not use the variable y")
    if isinstance(spec, str):
        return pieces[0]
    return PiecewiseSource1D(tuple(spec["breakpoints"]), pieces)


def _write_out(text: str, out: Optional[str]) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _cmd_enclose1d(args) -> int:
    problem = _load_problem(args.problem, "interval")
    cfg = problem.get("oned", {})
    with _problem_input():
        f = _parse_source_1d(problem["source"])
        if args.sweep and args.h is not None:
            raise InputError("--h does not apply to --sweep; set oned.sweep_h instead")
        # each mode reads one of oned.h and oned.sweep_h; both are checked
        for h in (cfg.get("sweep_h", []) + ([cfg["h"]] if "h" in cfg else [])
                  + ([args.h] if args.h is not None else [])):
            _oned._node_count(h)
    c = args.c if args.c is not None else cfg.get("c")
    if c is not None and not 0.0 <= c < math.inf:
        raise InputError(f"boundary shift c must be nonnegative and finite, got {c}")
    if args.sweep:
        h_list = cfg.get("sweep_h", _DEFAULT_SWEEP_H)
    else:
        h_list = [args.h if args.h is not None else cfg.get("h", 2.0**-5)]
    eps_factor = cfg.get("eps_factor", _oned.EPS_FACTOR)
    rows = _oned.sweep(f, h_list, c, eps_factor)
    if args.sweep:
        _write_out(_oned.sweep_csv(rows), args.out)
    else:
        (row,) = rows
        lines = ["x,lower,upper"] + [
            f"{i * row.h!r},{float(lo_v)!r},{float(hi_v)!r}"
            for i, (lo_v, hi_v) in enumerate(zip(row.lower.grid.values, row.upper.grid.values))
        ]
        _write_out("\n".join(lines) + "\n", args.out)
    for r in rows:
        print(
            f"h={r.h:.6g} c={r.c:.3e} eps={r.eps:.3e} "
            f"iterations={r.iterations} max_gap={r.max_gap:.6e}",
            file=sys.stderr,
        )
    return 0


def _cmd_enclose2d(args) -> int:
    problem = _load_problem(args.problem, "polygon")
    if not isinstance(problem["source"], str):
        raise InputError("2D sources must be a single expression string")
    points = problem.get("points", [])
    with _problem_input():
        poly = Polygon(problem["domain"]["vertices"])
        f = parse(problem["source"])
        split = None
        if "split" in problem:
            split = _twod.SignedSplit(parse(problem["split"]["plus"]),
                                      parse(problem["split"]["minus"]))
        for p in points:
            if poly.locate(p) != 1:
                raise InputError(f"evaluation point {p} is not strictly interior")
    if not points:
        _write_out("point_x,point_y,lower,upper,width,rel_error\n", args.out)
        return 0
    mfs_raw = dict(problem.get("mfs", {}))  # the schema admits MfsConfig fields only
    if "corner" in mfs_raw:
        mfs_raw["corner"] = tuple(mfs_raw["corner"])
    mfs_cfg = _twod.MfsConfig(**mfs_raw)
    quad_raw = problem.get("quad", {})
    quad_cfg = QuadConfig(
        tm_degrees=(quad_raw.get("deg_k", 8), quad_raw.get("deg_u", 8)),
        fan_splits=quad_raw.get("fan_splits", 1),
    )
    t0 = time.time()
    items = _twod.enclose_batch(
        poly, f, points, split=split, mfs_cfg=mfs_cfg, quad_cfg=quad_cfg,
        threads=args.threads,
    )
    _write_out(_twod.batch_csv(items), args.out)
    failures = [item for item in items if item.result is None]
    for item in failures:
        print(f"point {item.point}: {item.error}", file=sys.stderr)
    print(
        f"{len(items) - len(failures)}/{len(items)} points enclosed "
        f"in {time.time() - t0:.1f}s",
        file=sys.stderr,
    )
    if any(item.needs_split for item in failures):
        return 4
    return 0 if len(failures) < len(items) else 3


def _cmd_selftest(_args) -> int:
    import mpmath as mp

    from . import interval as iv
    from .oned import green_value
    from .quad import singular_triangle
    from .geometry import Triangle, amano_sources, discretize_boundary
    from .taylor import Boxes, TaylorModel2, tm_from_expr
    from .fundsol import TestFunction2D
    from .mfs import boundary_extrema, solve_coefficients
    import numpy as np
    import random

    mp.mp.dps = 40
    failures = []

    def report(name: str, ok: bool, detail: str = ""):
        status = "PASS" if ok else "FAIL"
        print(f"{status} {name}{(': ' + detail) if detail and not ok else ''}")
        if not ok:
            failures.append(name)

    rng = random.Random(12345)
    bad = 0
    for _ in range(2000):
        a = rng.uniform(-10, 10)
        b = rng.uniform(-10, 10)
        ia, ib = Interval.point(a), Interval.point(b)
        checks = [
            (ia + ib, mp.mpf(a) + mp.mpf(b)),
            (ia - ib, mp.mpf(a) - mp.mpf(b)),
            (ia * ib, mp.mpf(a) * mp.mpf(b)),
        ]
        if b != 0.0:
            checks.append((ia / ib, mp.mpf(a) / mp.mpf(b)))
        if a > 1e-6:
            checks.append((ia.log(), mp.log(a)))
            checks.append((ia.sqrt(), mp.sqrt(a)))
        checks.append((ia.sin(), mp.sin(a)))
        checks.append((ia.cos(), mp.cos(a)))
        for got, want in checks:
            if not (mp.mpf(got.lo) <= want <= mp.mpf(got.hi)):
                bad += 1
    report("interval-containment-2000-random", bad == 0, f"{bad} violations")

    tri = Triangle(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]),
                   singular_vertex=0)
    got = singular_triangle(parse("1"), tri)
    want = mp.mpf(-0.5) + (mp.log(2) - 2 + mp.pi / 2) / 2
    report(
        "singular-triangle-closed-form",
        mp.mpf(got.lo) <= want <= mp.mpf(got.hi) and got.width() < 1e-8,
    )

    v = green_value(parse("1"), 0.5)
    report("green-value-eighth", v.lo <= 0.125 <= v.hi and v.width() < 1e-10)
    v = green_value(parse("1"), 0.25)
    report("green-value-quarter-point", v.lo <= 0.09375 <= v.hi)

    s = Interval(0.0, iv.PI.hi).sin()
    report("sin-quadrant-max", s.hi >= 1.0 and s.lo <= 0.0)

    # Taylor-model products (exact rational coefficients) and compositions
    bx = Boxes(0.0, 0.5, -2.0, 2.0)
    a, b = (1 / 3, 1 / 7, 1 / 11), (1 / 5, 1 / 13, 1 / 17)
    prod = (TaylorModel2.affine(bx, (4, 4), *map(Interval.point, a))
            * TaylorModel2.affine(bx, (4, 4), *map(Interval.point, b)))
    a, b = [mp.mpf(v) for v in a], [mp.mpf(v) for v in b]
    checks = [(prod.coefficient(i, j), want) for i, j, want in [
        (0, 0, a[0] * b[0]), (0, 1, a[0] * b[1] + a[1] * b[0]), (0, 2, a[1] * b[1]),
        (1, 1, a[0] * b[2] + a[2] * b[0]), (1, 2, a[1] * b[2] + a[2] * b[1]),
        (2, 2, a[2] * b[2])]]
    comp = tm_from_expr(parse("sin(x*y) * exp(x - y)"), bx, (6, 6))
    for u, k in [(p / 8.0, q - 2.0) for p in range(5) for q in range(5)]:
        ku = mp.mpf(k) * u
        checks.append((comp.eval(Interval.point(u), Interval.point(k)),
                       mp.sin(u * ku) * mp.exp(u - ku)))
    report("taylor-product-compose-containment",
           all(mp.mpf(got.lo) <= want <= mp.mpf(got.hi) for got, want in checks))

    # rigorous boundary extrema of an MFS candidate on the centred unit square
    square = Polygon([[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]])
    cfg = _twod.MfsConfig(n=33)
    pts = discretize_boundary(square, cfg.n)
    src = amano_sources(square, pts, cfg.r_rule())
    tf0 = TestFunction2D((0.1, -0.2), src, solve_coefficients(pts, src, (0.1, -0.2))[0])
    (ext,) = boundary_extrema([tf0], square, tol=cfg.tol)
    if isinstance(ext, Exception):
        raise ext
    sample = np.random.default_rng(5)
    e, t = sample.integers(0, 4, 1000), sample.random((1000, 1))
    a, b = square.vertices[e], square.vertices[(e + 1) % 4]
    vals = tf0.phi0_points(a + t * (b - a))
    report("boundary-extrema-sandwich", ext.converged and ext.m.lo - 1e-12 <= vals.min()
           and vals.max() <= ext.M.hi + 1e-12)

    print(f"{'FAIL' if failures else 'PASS'}: {len(failures)} failing checks")
    return 1 if failures else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="greenbound",
        description="Rigorous pointwise enclosures for the Dirichlet Poisson problem",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p1 = sub.add_parser("enclose1d", help="certified 1D sub/super-solution pair")
    p1.add_argument("problem", help="problem file (JSON, schema 1)")
    p1.add_argument("--h", type=float, default=None, help="mesh width override")
    p1.add_argument("--c", type=float, default=None, help="boundary shift override")
    p1.add_argument("--sweep", action="store_true", help="run the mesh study")
    p1.add_argument("--out", default=None, help="output CSV path (default stdout)")
    p1.set_defaults(fn=_cmd_enclose1d)

    p2 = sub.add_parser("enclose2d", help="pointwise 2D enclosures")
    p2.add_argument("problem", help="problem file (JSON, schema 1)")
    p2.add_argument("--out", default=None, help="output CSV path (default stdout)")
    p2.add_argument("--threads", type=int, default=1)
    p2.set_defaults(fn=_cmd_enclose2d)

    p3 = sub.add_parser("selftest", help="fast verification subset")
    p3.set_defaults(fn=_cmd_selftest)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except NeedsSplitError as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except GreenboundError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
