#!/usr/bin/env python3
"""Reproduce the 2D enclosure tables for the square and L-shaped domains.

Runs the full pipeline (n = 69 collocation/source points) for the constant,
polynomial, and trigonometric sources at the tabulated evaluation points and
prints one row per (domain, source, point).  Each case is one
``enclose_batch`` call; its rows show the case's seconds.  The whole script
takes 1.1-1.8 s on a 2-core Xeon host, depending on its load, two thirds
of it for the trigonometric source, whose Taylor models need the angular
fan subdivision.

Usage: python scripts/reproduce_tables.py [--fast]
"""

import argparse
import time

from greenbound import MfsConfig, Polygon, QuadConfig, enclose_batch, parse, shift_split

SQUARE = Polygon([[-0.5, -0.5], [0.5, -0.5], [0.5, 0.5], [-0.5, 0.5]])
LSHAPE = Polygon([[-1, -1], [1, -1], [1, 0], [0, 0], [0, 1], [-1, 1]])

CASES = [
    ("square", SQUARE, MfsConfig(n=69), "1", None, [(0.0, 0.0), (0.25, 0.25)], 1),
    (
        "square",
        SQUARE,
        MfsConfig(n=69),
        "(x-0.125)^2+(y-0.25)^3",
        0.43,
        [(0.0, 0.0), (0.25, 0.25)],
        1,
    ),
    (
        "square",
        SQUARE,
        MfsConfig(n=69),
        "x + sin((x+0.5)*y^2)",
        0.75,
        [(0.0, 0.0), (0.25, 0.25)],
        4,
    ),
    (
        "lshape",
        LSHAPE,
        MfsConfig(n=69, corner=(0.0, 0.0)),
        "1",
        None,
        [(-0.5, -0.5), (0.5, -0.5)],
        1,
    ),
]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--fast", action="store_true",
                    help="skip the slow trigonometric source")
    args = ap.parse_args()
    print(f"{'domain':8s} {'source':28s} {'point':14s} "
          f"{'enclosure':44s} {'width':10s} {'case s':>6s}")
    for domain, poly, mfs_cfg, text, offset, points, fan_splits in CASES:
        f = parse(text)
        if args.fast and "sin" in text:
            continue
        split = None if offset is None else shift_split(f, offset)
        qcfg = QuadConfig(fan_splits=fan_splits)
        t0 = time.time()
        # one call per case: the domain plan is built once for its points
        items = enclose_batch(poly, f, points, split=split, mfs_cfg=mfs_cfg,
                              quad_cfg=qcfg, threads=1)
        secs = time.time() - t0
        for item in items:
            head = f"{domain:8s} {text:28s} {str(item.point):14s} "
            res = item.result
            if res is None:
                print(f"{head}failed: {item.error}")
                continue
            print(f"{head}[{res.bound.lo:.6e}, {res.bound.hi:.6e}]  "
                  f"{res.width:.2e} {secs:6.1f}")


if __name__ == "__main__":
    main()
