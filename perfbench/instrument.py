"""Which greenbound calls the traced run wraps, and the per-layer metrics
computed from the spans.

Each layer is named after the module that implements it.  Functions a
module imports by value are wrapped in the namespace that calls them:
``twod.pair_f_phi`` (quad), ``twod.discretize_boundary`` and
``twod.amano_sources`` (geometry), ``mfs.subdivide_min_max`` and
``oned.subdivide_min_max`` (interval), ``expr.tm_compose_elem`` (taylor).
Scalar ``Interval`` operations are not wrapped: there are more than 10^7
of them per run, and counting them from outside would distort the run.
"""

from __future__ import annotations

import inspect
import math

import numpy as np

# (metric name, unit, better): the per-layer metrics of a traced run, in
# the order BENCHMARK.json lists them.  A layer a workload bypasses
# reports 0.
LAYERS_WITH_SELF_TIME = (
    "bench.batch", "bench.op1d",
    "twod.enclose_point", "twod.split_verify", "twod.certify_sign",
    "geometry.discretize_boundary", "geometry.amano_sources",
    "mfs.solve_coefficients", "mfs.boundary_extrema", "interval.bnb",
    "fundsol.phi0_box", "fundsol.phi0_dir_deriv", "directed",
    "quad.pair_f_phi", "expr.eval_tm", "taylor.mul", "taylor.compose",
    "oned.build", "oned.green_evals", "oned.sup_abs_source",
)

PER_LAYER = [
    ("twod.enclose_point.s", "s", "lower"),
    ("twod.split_verify.s", "s", "lower"),
    ("twod.certify_sign.calls", "count", "lower"),
    ("twod.certify_sign.s", "s", "lower"),
    ("geometry.discretize_boundary.calls", "count", "lower"),
    ("geometry.amano_sources.calls", "count", "lower"),
    ("mfs.solve_coefficients.calls", "count", "lower"),
    ("mfs.solve_coefficients.s", "s", "lower"),
    ("mfs.boundary_extrema.s", "s", "lower"),
    ("mfs.boundary_gap_max", "1", "lower"),
    ("interval.bnb.calls", "count", "lower"),
    ("interval.bnb.s", "s", "lower"),
    ("interval.bnb.box_evals", "count", "lower"),
    ("interval.bnb.depth_max", "count", "lower"),
    ("interval.bnb.converged_frac", "ratio", "higher"),
    ("fundsol.phi0_box.calls", "count", "lower"),
    ("fundsol.phi0_box.s", "s", "lower"),
    ("fundsol.phi0_dir_deriv.calls", "count", "lower"),
    ("fundsol.phi0_dir_deriv.s", "s", "lower"),
    ("directed.calls", "count", "lower"),
    ("directed.elems", "count", "lower"),
    ("directed.elems_per_call", "count", "higher"),
    ("directed.s", "s", "lower"),
    ("quad.pair_f_phi.calls", "count", "lower"),
    ("quad.pair_f_phi.s", "s", "lower"),
    ("quad.kernels", "count", "lower"),
    ("quad.s_per_kernel", "s", "lower"),
    ("expr.eval_tm.calls", "count", "lower"),
    ("expr.eval_tm.s", "s", "lower"),
    ("taylor.mul.calls", "count", "lower"),
    ("taylor.mul.s", "s", "lower"),
    ("taylor.compose.calls", "count", "lower"),
    ("taylor.compose.s", "s", "lower"),
    ("oned.build.s", "s", "lower"),
    ("oned.sweeps", "count", "lower"),
    ("oned.checks", "count", "lower"),
    ("oned.green_evals.calls", "count", "lower"),
    ("oned.green_evals.s", "s", "lower"),
    ("oned.sup_abs_source.s", "s", "lower"),
    ("ledger.gap_share", "ratio", "lower"),
    *((f"{layer}.self_s", "s", "lower") for layer in LAYERS_WITH_SELF_TIME),
    ("trace.spans", "count", "lower"),
    ("trace.coverage_frac", "ratio", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
]


def instrument(tracer, gb) -> None:
    """Wrap the public functions of every layer the enclosure paths use."""
    T = tracer
    twod, mfs, oned = gb.twod, gb.mfs, gb.oned
    T.wrap(twod, "enclose_point", "twod.enclose_point", new_op=True)
    T.wrap(twod.SignedSplit, "verify", "twod.split_verify")
    T.wrap(twod, "certify_sign", "twod.certify_sign")
    T.wrap(twod, "discretize_boundary", "geometry.discretize_boundary")
    T.wrap(twod, "amano_sources", "geometry.amano_sources")
    T.wrap(mfs, "solve_coefficients", "mfs.solve_coefficients")
    T.wrap(mfs, "boundary_extrema", "mfs.boundary_extrema")

    bnb = T.layer("interval.bnb")
    bnb.counters.update(box_evals=0, depth_max=0, converged=0)

    def on_bnb(res):
        bnb.counters["box_evals"] += res.evaluations
        bnb.counters["depth_max"] = max(bnb.counters["depth_max"], res.depth)
        bnb.counters["converged"] += bool(res.converged)

    for mod in (mfs, oned):
        T.wrap(mod, "subdivide_min_max", "interval.bnb",
               span=f"{mod.__name__}.subdivide_min_max", on_result=on_bnb)

    fundsol = gb.fundsol
    T.wrap(fundsol.TestFunction2D, "phi0_box", "fundsol.phi0_box")
    T.wrap(fundsol.TestFunction2D, "phi0_dir_deriv", "fundsol.phi0_dir_deriv")

    directed = T.layer("directed")
    directed.counters["elems"] = 0
    ndarray = np.ndarray

    def on_directed(args):
        n = 0
        for a in args:
            if type(a) is ndarray:
                n += a.size
        directed.counters["elems"] += n

    dr = gb._directed
    for name, fn in vars(dr).copy().items():
        if not name.startswith("_") and inspect.isfunction(fn) and fn.__module__ == dr.__name__:
            T.wrap(dr, name, "directed", span=f"_directed.{name}",
                   on_call=on_directed, outer_only=True)

    pair = T.layer("quad.pair_f_phi")
    pair.counters["kernels"] = 0

    def on_pair(args):  # (f, tf, poly, cfg): kernels with a nonzero weight
        pair.counters["kernels"] += int(np.count_nonzero(args[1].coeffs)) + 1

    T.wrap(twod, "pair_f_phi", "quad.pair_f_phi", on_call=on_pair)
    T.wrap(gb.expr, "eval_tm", "expr.eval_tm")
    T.wrap(gb.taylor.TaylorModel2, "__mul__", "taylor.mul")
    T.wrap(gb.taylor.TaylorModel2, "__rmul__", "taylor.mul", span="taylor.rmul")
    T.wrap(gb.expr, "tm_compose_elem", "taylor.compose")

    build = T.layer("oned.build")
    build.counters.update(sweeps=0, checks=0)

    def on_build(res):  # every build_super, also the one inside build_sub
        build.counters["sweeps"] += res.iterations + 1
        build.counters["checks"] += (res.iterations + 1) * res.grid.n_intervals

    T.wrap(oned, "build_super", "oned.build", span="oned.build_super", on_result=on_build)
    T.wrap(oned, "build_sub", "oned.build", span="oned.build_sub")
    for name in ("A", "B", "u", "du", "u_over_s", "u_over_1ms"):
        T.wrap(oned.GreenEvaluator, name, "oned.green_evals",
               span=f"oned.GreenEvaluator.{name}", outer_only=True)
    T.wrap(oned.GreenEvaluator, "sup_abs_source", "oned.sup_abs_source")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(summary: dict, traced_wall: float, overhead: float,
                      gap_share: float, gap_max: float) -> dict:
    """Every PER_LAYER metric, as {name: value}.  ``overhead`` is the
    traced round's calibrated time over the untraced one's, minus 1."""
    lay = summary["layers"]

    def get(layer: str, key: str):
        return lay.get(layer, {}).get(key, 0)

    out = {}
    for name, _unit, _better in PER_LAYER:
        layer, _, key = name.rpartition(".")
        if key in ("calls", "s", "self_s"):
            out[name] = get(layer, key)
    bnb_calls = get("interval.bnb", "calls")
    directed_calls = get("directed", "calls")
    out.update({
        "mfs.boundary_gap_max": gap_max,
        "interval.bnb.box_evals": get("interval.bnb", "box_evals"),
        "interval.bnb.depth_max": get("interval.bnb", "depth_max"),
        "interval.bnb.converged_frac": _ratio(get("interval.bnb", "converged"), bnb_calls),
        "directed.elems": get("directed", "elems"),
        "directed.elems_per_call": _ratio(get("directed", "elems"), directed_calls),
        "quad.kernels": get("quad.pair_f_phi", "kernels"),
        "quad.s_per_kernel": _ratio(get("quad.pair_f_phi", "s"),
                                    get("quad.pair_f_phi", "kernels")),
        "oned.sweeps": get("oned.build", "sweeps"),
        "oned.checks": get("oned.build", "checks"),
        "ledger.gap_share": gap_share,
        "trace.spans": summary["spans"],
        "trace.coverage_frac": _ratio(summary["top_level_s"], traced_wall),
        "trace.overhead_frac": overhead,
    })
    return {name: out[name] for name, _u, _b in PER_LAYER}


def gap_ledger(gb, parsed, results) -> tuple:
    """(mean over 2D points of the MFS boundary-gap share of the width,
    largest M.hi - m.lo).

    The gap part of a width is (M.hi - m.lo) (int f_plus + int f_minus):
    the pairings against phi^0 - m.lo and phi^0 - M.hi differ only by
    that shift times the source integral, with a_int = 1."""
    shares, gaps = [], []
    it = iter(results)
    for batch in parsed.batches:
        parts = [batch.f] if batch.split is None else [batch.split.f_plus, batch.split.f_minus]
        mass = sum(gb.quad.integrate_source(p, batch.poly, batch.quad_cfg).mid() for p in parts)
        for _p in batch.points:
            res = next(it)
            if res.error is not None:
                continue
            gap = res.diagnostics["M"][1] - res.diagnostics["m"][0]
            gaps.append(gap)
            shares.append(gap * mass / res.width)
    mean = math.fsum(shares) / len(shares) if shares else 0.0
    return mean, max(gaps, default=0.0)
