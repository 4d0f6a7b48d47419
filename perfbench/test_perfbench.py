"""Tests of the benchmark itself: inputs, oracles, tracing, contract.

    python3 -m pytest perfbench -q
"""

import json
import math
import shutil
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import instrument  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

GB = workloads.import_program()


def _points(inputs):
    return [(b["vertices"], p) for b in inputs["batches"] for p in b["points"]]


# -- seeded inputs -------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    a = json.dumps(workloads.generate(workload, 7))
    assert a == json.dumps(workloads.generate(workload, 7))


@pytest.mark.parametrize("workload", ["poly-const", "square-trig"])
def test_seeds_give_different_points_at_the_margin(workload):
    seen = set()
    for seed in range(200):
        pts = _points(workloads.generate(workload, seed))
        seen.add(tuple(tuple(p) for _v, p in pts))
        for vertices, p in pts:
            poly = GB.geometry.Polygon(vertices)
            assert poly.locate(p) == 1
            assert workloads.distance_to_boundary(vertices, p) >= workloads.MARGIN
    assert len(seen) == 200


def test_interval_inputs_draw_breakpoints_and_run_both_heights():
    breakpoints = set()
    for seed in range(50):
        ops = workloads.generate("interval-1d", seed)["ops1d"]
        jumps = [op["source"] for op in ops if not isinstance(op["source"], str)]
        assert sorted(j["pieces"][1] for j in jumps) == sorted(workloads.JUMP_HEIGHTS)
        breakpoints.update(j["breakpoints"][0] for j in jumps)
    assert breakpoints == set(workloads.JUMP_BREAKPOINTS)


def test_unknown_workload_is_rejected():
    with pytest.raises(ValueError):
        workloads.generate("nope", 0)


# -- oracles -------------------------------------------------------------------


def test_rectangle_series_matches_known_values():
    u = oracles.rectangle_f1(0.0, 0.0, -0.5, 0.5, -0.5, 0.5)
    assert abs(float(u.mid) - 0.07367135328151382) < 1e-15
    assert float(u.delta) < 1e-30
    # a symmetry of the square and the swap of the strip's axes
    a = oracles.rectangle_f1(0.3, -0.1, -0.5, 0.5, -0.5, 0.5)
    b = oracles.rectangle_f1(-0.1, 0.3, -0.5, 0.5, -0.5, 0.5)
    assert abs(float(a.mid) - float(b.mid)) < 1e-25
    c = oracles.rectangle_f1(0.2, -0.5, -1.0, 1.0, -1.0, 0.0)
    d = oracles.rectangle_f1(-0.5, 0.2, -1.0, 0.0, -1.0, 1.0)
    assert abs(float(c.mid) - float(d.mid)) < 1e-25
    edge = oracles.rectangle_f1(1.0, 0.3, -1.0, 1.0, -1.0, 1.0)
    assert edge.a <= 0 <= edge.b and float(edge.delta) < 1e-30


def test_square_oracle_rejects_a_shifted_interval():
    v = float(oracles.rectangle_f1(0.1, 0.2, -0.5, 0.5, -0.5, 0.5).mid)
    assert oracles.check_square_f1(0.1, 0.2, v - 1e-6, v + 1e-6) is None
    assert oracles.check_square_f1(0.1, 0.2, v + 1e-6, v + 3e-6) is not None
    assert oracles.check_square_f1(0.1, 0.2, v - 3e-6, v - 1e-6) is not None


def test_lshape_oracle_rejects_an_interval_off_the_bracket():
    x, y = -0.5, -0.5
    lower = float(oracles.rectangle_f1(x, y, -1.0, 1.0, -1.0, 0.0).mid)
    upper = float(oracles.rectangle_f1(x, y, -1.0, 1.0, -1.0, 1.0).mid)
    assert lower < upper
    assert oracles.check_lshape_f1(x, y, lower + 1e-3, upper - 1e-3) is None
    assert oracles.check_lshape_f1(x, y, upper + 1e-3, upper + 2e-3) is not None
    assert oracles.check_lshape_f1(x, y, lower - 2e-3, lower - 1e-3) is not None
    # (0.5, -0.5) lies only in the bottom strip
    lo_b = float(oracles.rectangle_f1(0.5, -0.5, -1.0, 1.0, -1.0, 0.0).mid)
    assert oracles.check_lshape_f1(0.5, -0.5, lo_b - 2e-3, lo_b - 1e-3) is not None


@pytest.mark.parametrize("lo, hi", [(1.0, 0.0), (math.nan, 1.0), (0.0, math.inf)])
def test_ordered_oracle_rejects_bad_intervals(lo, hi):
    assert oracles.check_ordered(lo, hi) is not None


def test_jump_closed_form_solves_the_problem():
    b, H = Fraction(3, 8), Fraction(3, 2)
    assert oracles.u_jump(Fraction(0), b, H) == 0 == oracles.u_jump(Fraction(1), b, H)
    for x in (Fraction(1, 4), Fraction(1, 2), Fraction(7, 8)):
        d = Fraction(1, 64)
        second = (oracles.u_jump(x + d, b, H) - 2 * oracles.u_jump(x, b, H)
                  + oracles.u_jump(x - d, b, H)) / d**2
        assert second == -(1 if x < b else H)  # exact: u is cubic on each side
        assert oracles.u_jump(x, b, Fraction(1)) == oracles.u_const_one(x)


def _exact_nodes(source, h):
    n = round(1 / h)
    if source == "2+sin(3*x)":
        return [float(oracles.u_two_plus_sin3x(i * h).mid) for i in range(n + 1)]
    if source == "1":
        return [float(oracles.u_const_one(Fraction(i * h))) for i in range(n + 1)]
    b, H = Fraction(source["breakpoints"][0]), Fraction(source["pieces"][1])
    return [float(oracles.u_jump(Fraction(i * h), b, H)) for i in range(n + 1)]


@pytest.mark.parametrize("source", [
    "1", "2+sin(3*x)", {"breakpoints": [0.625], "pieces": ["1", "1.5"]}])
def test_1d_oracle_rejects_shifted_nodes(source):
    h, c = 2.0**-5, 1e-6
    u = _exact_nodes(source, h)
    lower = [v - c for v in u]
    upper = [v + c for v in u]
    assert oracles.check_nodes_1d(source, h, lower, upper) is None
    assert oracles.check_nodes_1d(source, h, [v + 2 * c for v in lower], upper) is not None
    assert oracles.check_nodes_1d(source, h, lower, [v - 2 * c for v in upper]) is not None


# -- tracing -------------------------------------------------------------------


def _toy_module():
    m = types.ModuleType("toy")

    def leaf(n):
        total = 0
        for i in range(n):
            total += i
        return total

    def inner(n):
        return m.leaf(n) + m.leaf(n)

    def outer(n):
        return m.inner(n) + m.leaf(n)

    m.leaf, m.inner, m.outer = leaf, inner, outer
    return m


def test_self_time_is_duration_minus_children():
    m = _toy_module()
    originals = (m.leaf, m.inner, m.outer)
    t = spans.Tracer()
    t.wrap(m, "outer", "outer", new_op=True)
    t.wrap(m, "inner", "inner")
    t.wrap(m, "leaf", "leaf")
    assert t.call("top", m.outer, 20000) == 3 * sum(range(20000))
    t.uninstall()
    assert (m.leaf, m.inner, m.outer) == originals

    a = t.arrays()
    dur = a["end"] - a["start"]
    assert (dur >= 0).all()
    names = [t.span_names[i] for i in a["name_id"]]
    assert names == ["top", "outer", "inner", "leaf", "leaf", "leaf"]
    assert list(a["parent"]) == [-1, 0, 1, 2, 2, 1]
    assert list(a["op"]) == [-1, 0, 0, 0, 0, 0]
    s = t.summary()
    lay = s["layers"]
    assert lay["leaf"]["calls"] == 3
    assert lay["inner"]["self_s"] == pytest.approx(dur[2] - dur[3] - dur[4], abs=1e-12)
    assert lay["outer"]["self_s"] == pytest.approx(dur[1] - dur[2] - dur[5], abs=1e-12)
    total_self = sum(v["self_s"] for v in lay.values())
    assert total_self == pytest.approx(s["top_level_s"], rel=1e-9)


def test_outer_only_layer_records_calls_from_outside():
    m = _toy_module()
    t = spans.Tracer()
    for name in ("leaf", "inner"):
        t.wrap(m, name, "lib", outer_only=True)
    t.call("top", m.outer, 100)
    t.uninstall()
    assert t.summary()["layers"]["lib"]["calls"] == 2  # inner and the last leaf


def test_traced_outputs_are_bit_identical(tmp_path):
    inputs = {"batches": [{
        "domain": "square", "vertices": workloads.SQUARE, "source": "1",
        "mfs": {"n": 16}, "points": [[0.05, -0.1]]}],
        "ops1d": [{"source": {"breakpoints": [0.375], "pieces": ["1", "1.5"]}, "h": 2.0**-5}]}
    parsed = workloads.parse(GB, inputs)
    plain, _wall = workloads.run_round(GB, parsed)
    tracer = spans.Tracer()
    instrument.instrument(tracer, GB)
    try:
        traced, wall = workloads.run_round(GB, parsed, tracer)
    finally:
        tracer.uninstall()
    assert run.fingerprint(traced) == run.fingerprint(plain)
    assert all(r.error is None for r in plain)
    summary = tracer.summary()
    assert summary["top_level_s"] / wall >= 0.95
    metrics = instrument.per_layer_metrics(summary, wall, 0.1, 0.5, 0.1)
    assert list(metrics) == [name for name, _u, _b in instrument.PER_LAYER]
    assert metrics["geometry.discretize_boundary.calls"] == 1
    assert metrics["quad.kernels"] > 1
    assert metrics["oned.sweeps"] >= 2
    assert run.check_results(GB, parsed, plain) == [None, None]


# -- contract --------------------------------------------------------------------


def test_benchmark_json_lists_what_the_benchmark_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in instrument.PER_LAYER]


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "interval-1d", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
