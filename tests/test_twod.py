import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import greenbound
from greenbound import twod
from greenbound.errors import DomainError, GeometryError, InputError, NeedsSplitError, SolveError
from greenbound.expr import parse
from greenbound.geometry import Polygon
from greenbound.quad import QuadConfig
from greenbound.twod import (
    EnclosureResult,
    MfsConfig,
    SignedSplit,
    SignVerdict,
    batch_csv,
    certify_sign,
    enclose_batch,
    enclose_point,
    shift_split,
)

from conftest import assert_contains

FAST_MFS = MfsConfig(n=33, tol=1e-8)
SQUARE_CENTER_TRUTH = 0.07367135328151381  # eigenfunction double series


class TestCertifySign:
    def test_constant(self, centered_square):
        assert certify_sign(parse("1"), centered_square) is SignVerdict.NONNEGATIVE

    def test_polynomial_mixed(self, centered_square):
        f = parse("(x-0.125)^2+(y-0.25)^3")
        assert certify_sign(f, centered_square) is SignVerdict.MIXED

    def test_positive_definite(self, centered_square):
        assert certify_sign(parse("x^2+1"), centered_square) is SignVerdict.NONNEGATIVE

    def test_nonpositive(self, centered_square):
        assert certify_sign(parse("-1-x^2"), centered_square) is SignVerdict.NONPOSITIVE

    def test_zero(self, centered_square):
        assert certify_sign(parse("0"), centered_square) is SignVerdict.NONNEGATIVE

    def test_lshape(self, lshape):
        assert certify_sign(parse("2+x"), lshape) is SignVerdict.NONNEGATIVE


class TestSignedSplit:
    def test_shift_split_verifies(self, centered_square):
        f = parse("(x-0.125)^2+(y-0.25)^3")
        split = shift_split(f, 0.43)
        split.verify(f, centered_square)

    def test_identity_violation_rejected(self, centered_square):
        f = parse("x")
        bad = SignedSplit(parse("x+0.6"), parse("0.5"))
        with pytest.raises(InputError):
            bad.verify(f, centered_square)

    def test_sign_violation_rejected(self, centered_square):
        f = parse("x")
        bad = SignedSplit(parse("x"), parse("0"))  # x is not nonnegative here
        with pytest.raises(InputError):
            bad.verify(f, centered_square)

    def test_shifted_source_must_be_nonnegative(self, centered_square):
        """f + f_minus < 0 on the strip x < -0.499, which the sampled
        identity check misses; the certificate of f + f_minus does not."""
        bad = SignedSplit(parse("max(x+0.499, 0)"), parse("0.499"))
        with pytest.raises(InputError, match="f \\+ minus"):
            bad.verify(parse("x"), centered_square)

    def test_thin_polygon_samples_inside(self):
        """The identity check draws its points inside the triangulation, so
        a sliver of a polygon that bounding-box draws almost never hit
        takes no longer than a square, and a wrong plus part is still
        caught there."""
        thin = Polygon(np.array([[0.0, 0.0], [1.0, 1.0], [1.0 - 1e-7, 1.0]]))
        f = parse("x-0.5")
        t0 = time.perf_counter()
        shift_split(f, 1.0).verify(f, thin)
        assert time.perf_counter() - t0 < 1.0
        with pytest.raises(InputError, match="identity"):
            SignedSplit(parse("x+0.5001"), parse("1")).verify(f, thin)

    def test_negative_offset_rejected(self):
        with pytest.raises(InputError):
            shift_split(parse("x"), -1.0)


class TestEnclosePoint:
    def test_square_center_contains_truth(self, centered_square):
        res = enclose_point(centered_square, parse("1"), (0.0, 0.0),
                            mfs_cfg=FAST_MFS)
        assert_contains(res.bound, SQUARE_CENTER_TRUTH)
        assert res.bound.lo < res.bound.hi
        assert res.width > 0.0
        assert res.rel_error == res.width / abs(res.bound.mid())

    def test_extrema_box_counts_in_diagnostics(self, centered_square):
        """Scalar counts of the boxes each bounding form took."""
        d = enclose_point(centered_square, parse("1"), (0.1, -0.2),
                          mfs_cfg=FAST_MFS).diagnostics
        expanded, natural = d["extrema_expanded_boxes"], d["extrema_natural_boxes"]
        assert type(expanded) is int and type(natural) is int
        assert expanded > 0 and natural > 0
        assert expanded + natural < d["extrema_evaluations"]

    def test_needs_split(self, centered_square):
        with pytest.raises(NeedsSplitError):
            enclose_point(centered_square, parse("(x-0.125)^2+(y-0.25)^3"),
                          (0.0, 0.0), mfs_cfg=FAST_MFS)

    def test_boundary_point_rejected(self, centered_square):
        with pytest.raises(GeometryError):
            enclose_point(centered_square, parse("1"), (0.5, 0.0),
                          mfs_cfg=FAST_MFS)

    def test_zero_source_trivial_split(self, centered_square):
        split = SignedSplit(parse("0"), parse("0"))
        res = enclose_point(centered_square, parse("0"), (0.1, 0.1),
                            split=split, mfs_cfg=FAST_MFS)
        assert_contains(res.bound, 0.0)
        assert math.isinf(res.rel_error) or res.bound.mid() != 0.0

    def test_nonpositive_source_mirror(self, centered_square):
        res = enclose_point(centered_square, parse("-1"), (0.0, 0.0),
                            mfs_cfg=FAST_MFS)
        assert_contains(res.bound, -SQUARE_CENTER_TRUTH)

    def test_split_consistency_with_direct(self, centered_square):
        direct = enclose_point(centered_square, parse("1"), (0.0, 0.0),
                               mfs_cfg=FAST_MFS)
        via_split = enclose_point(
            centered_square, parse("1"), (0.0, 0.0),
            split=SignedSplit(parse("1"), parse("0")), mfs_cfg=FAST_MFS,
        )
        assert direct.bound.intersects(via_split.bound)

    @pytest.mark.parametrize("source, split, passes", [
        ("1", None, 1),
        ("-1", None, 1),
        ("x+1", ("x+1", "0"), 1),
    ])
    def test_one_pairing_pass_per_part(self, centered_square, monkeypatch,
                                       source, split, passes):
        """Both bounds come from one pass of f itself, whatever its sign
        or split."""
        calls = []
        real = twod.pair_f_phi
        monkeypatch.setattr(twod, "pair_f_phi",
                            lambda *args: calls.append(args) or real(*args))
        if split is not None:
            split = SignedSplit(parse(split[0]), parse(split[1]))
        enclose_point(centered_square, parse(source), (0.1, 0.0), split=split,
                      mfs_cfg=FAST_MFS)
        assert len(calls) == passes
        assert all(len(args[4]) == 2 for args in calls)

    def test_monotone_sharpening_in_n(self, centered_square):
        coarse = enclose_point(centered_square, parse("1"), (0.0, 0.0),
                               mfs_cfg=MfsConfig(n=33, tol=1e-9))
        fine = enclose_point(centered_square, parse("1"), (0.0, 0.0),
                             mfs_cfg=MfsConfig(n=69, tol=1e-9))
        assert coarse.bound.intersects(fine.bound)
        assert fine.width <= coarse.width


class TestBatch:
    def test_empty(self, centered_square):
        items = enclose_batch(centered_square, parse("1"), [])
        assert items == []
        assert batch_csv(items) == "point_x,point_y,lower,upper,width,rel_error\n"

    def test_duplicate_point_deterministic(self, centered_square):
        items = enclose_batch(
            centered_square, parse("1"), [(0.1, 0.1), (0.1, 0.1)],
            mfs_cfg=FAST_MFS,
        )
        assert items[0].result.bound == items[1].result.bound
        csv = batch_csv(items)
        rows = csv.strip().splitlines()[1:]
        assert rows[0] == rows[1]

    def test_per_point_error_recorded(self, centered_square):
        """A boundary point fails alone; the other point is unaffected."""
        items = enclose_batch(
            centered_square, parse("1"), [(0.0, 0.0), (0.5, 0.0)],
            mfs_cfg=FAST_MFS,
        )
        assert items[0].result is not None
        assert items[1].result is None and items[1].error
        assert "must be interior" in items[1].error and not items[1].needs_split
        single = enclose_point(centered_square, parse("1"), (0.0, 0.0), mfs_cfg=FAST_MFS)
        assert items[0].result.bound == single.bound
        csv = batch_csv(items)
        assert len(csv.strip().splitlines()) == 2  # header + one good row

    def test_parallel_matches_serial(self, centered_square):
        """Two worker processes, each with a run of points (one of them not
        interior), give the BatchItems of one process."""
        pts = [(0.0, 0.0), (0.2, -0.1), (0.5, 0.0)]
        serial = enclose_batch(centered_square, parse("1"), pts,
                               mfs_cfg=FAST_MFS, threads=1)
        parallel = enclose_batch(centered_square, parse("1"), pts,
                                 mfs_cfg=FAST_MFS, threads=2)
        assert serial == parallel
        assert batch_csv(serial) == batch_csv(parallel)
        assert serial[2].result is None and "must be interior" in serial[2].error

    def test_import_leaves_the_process_pool_unloaded(self):
        """Only a run with threads > 1 loads the process pool, which costs a
        single-thread run memory and start-up time."""
        src = Path(greenbound.__file__).resolve().parent.parent
        code = "import sys, greenbound; print('concurrent.futures.process' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             timeout=120, check=True, env={**os.environ, "PYTHONPATH": str(src)})
        assert out.stdout.strip() == "False"

    @pytest.mark.parametrize("stage", ["solve", "search"])
    def test_failing_point_keeps_its_error(self, centered_square, monkeypatch, stage):
        """A point whose solve, or whose boundary search, raises reports its
        own error; the other points of its plan keep their results bit for
        bit, although their searches ran in the same kernel calls."""
        pts = [(0.0, 0.0), (0.1, 0.2), (-0.2, 0.1)]
        clean = enclose_batch(centered_square, parse("1"), pts, mfs_cfg=FAST_MFS)
        if stage == "solve":
            solve = twod._mfs.solve_coefficients

            def failing(collocation, sources, s_int, system=None):
                if tuple(s_int) == pts[1]:
                    raise SolveError("no candidate here")
                return solve(collocation, sources, s_int, system=system)

            monkeypatch.setattr(twod._mfs, "solve_coefficients", failing)
        else:
            call = twod._mfs.EdgeKernel.__call__

            def failing(self, root, lo, hi):  # candidate 1's boxes raise
                if np.any((root // self.edges == 1) & (lo < hi)):
                    raise DomainError("no bound here")
                return call(self, root, lo, hi)

            monkeypatch.setattr(twod._mfs.EdgeKernel, "__call__", failing)
        items = enclose_batch(centered_square, parse("1"), pts, mfs_cfg=FAST_MFS)
        assert items[1].result is None and not items[1].needs_split
        assert items[1].error == ("no candidate here" if stage == "solve" else "no bound here")
        assert [items[0], items[2]] == [clean[0], clean[2]]

    @pytest.mark.parametrize("domain, corner, points", [
        ("centered_square", None, [(0.0, 0.0), (0.25, 0.25), (-0.2, 0.1)]),
        ("lshape", (0.0, 0.0), [(-0.5, -0.5), (0.5, -0.5), (-0.5, 0.5)]),
    ])
    def test_batch_matches_single_points(self, request, domain, corner, points):
        """The shared domain plan and the stepped-together boundary searches
        change no bit of any bound or diagnostic (m, M and the search's
        evaluations, depth, convergence and box counts among them)."""
        poly = request.getfixturevalue(domain)
        cfg = MfsConfig(n=69, corner=corner)
        items = enclose_batch(poly, parse("1"), points, mfs_cfg=cfg)
        for p, item in zip(points, items):
            single = enclose_point(poly, parse("1"), p, mfs_cfg=cfg)
            assert item.result.bound == single.bound
            assert item.result.diagnostics == single.diagnostics

    @pytest.mark.parametrize("split", [None, ("x+1", "0")])
    def test_exterior_fans_once_per_batch(self, centered_square, monkeypatch, split):
        """Each exterior source kernel is integrated once per batch, with or
        without a split, however many points share the domain: all of them
        in one call of the batched fan kernel."""
        from greenbound import quad

        calls = []
        real = quad._fans

        def spy(f, centers, edges, cfg, want_log=True, want_plain=False):
            if not want_plain:  # only the source kernels skip integral(f)
                calls.append([tuple(c) for c in np.asarray(centers).reshape(-1, 2)])
            return real(f, centers, edges, cfg, want_log, want_plain)

        monkeypatch.setattr(quad, "_fans", spy)
        cfg = MfsConfig(n=17, tol=1e-8)
        if split is not None:
            split = SignedSplit(parse(split[0]), parse(split[1]))
        for points in ([(0.1, 0.0)], [(0.1, 0.0), (0.0, 0.2), (-0.2, -0.1)]):
            calls.clear()
            items = enclose_batch(centered_square, parse("x+1"), points,
                                  split=split, mfs_cfg=cfg)
            assert all(item.result is not None for item in items)
            assert len(calls) == 1
            exterior = calls[0]
            assert len(exterior) == cfg.n
            assert len(set(exterior)) == cfg.n

    def test_needs_split_on_every_point(self, centered_square):
        items = enclose_batch(centered_square, parse("(x-0.125)^2+(y-0.25)^3"),
                              [(0.0, 0.0), (0.1, 0.2), (0.5, 0.0)], mfs_cfg=FAST_MFS)
        assert [item.needs_split for item in items] == [True, True, False]
        assert "must be interior" in items[2].error
        assert all(item.result is None for item in items)


class TestMixedSignExactOracle:
    """Split sources whose solutions are polynomials; containment is
    decided in exact rational arithmetic.  Doubling the shift K of the
    split adds 2 G K |domain| to the width, so it must keep containment
    and not narrow the enclosure."""

    @pytest.mark.parametrize("domain, source, K, corner, truths", [
        # u = x (x^2 - 1/4)(y^2 - 1/4)
        ("centered_square", "2*x - 2*x^3 - 6*x*y^2", 1, None,
         {(0.25, 0.1): Fraction(9, 800)}),
        # u = (x^3 - x)(y^3 - y) vanishes on all six edges; K = 4 because
        # f + 3 touches 0 inside the domain
        ("lshape", "6*x*y*(2 - x^2 - y^2)", 4, (0.0, 0.0),
         {(-0.5, -0.5): Fraction(9, 64), (0.5, -0.5): Fraction(-9, 64)}),
    ])
    def test_split_contains_closed_form(self, request, domain, source, K, corner,
                                        truths):
        poly = request.getfixturevalue(domain)
        f = parse(source)
        cfg = MfsConfig(n=69, tol=1e-8, corner=corner)
        widths = []
        for k in (K, 2 * K):
            items = enclose_batch(poly, f, list(truths), split=shift_split(f, k),
                                  mfs_cfg=cfg)
            for item, want in zip(items, truths.values()):
                bound = item.result.bound
                assert Fraction(bound.lo) <= want <= Fraction(bound.hi), (k, bound)
            widths.append([item.result.width for item in items])
        assert all(wide >= narrow for narrow, wide in zip(*widths))


def test_rel_error_inf_sentinel():
    from greenbound.interval import Interval

    res = EnclosureResult.from_bound((0, 0), Interval(-1e-3, 1e-3), {})
    assert math.isinf(res.rel_error)
    assert "inf" in batch_csv(
        [type("I", (), {"result": res, "point": (0, 0), "error": None})()]
    )
