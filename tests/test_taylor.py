import math
import random
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from greenbound import interval as iv
from greenbound import taylor
from greenbound.errors import DomainError, UnsupportedError
from greenbound.expr import parse
from greenbound.interval import Interval
from greenbound.taylor import (MAX_DEGREE, Boxes, TaylorModel2, _factorial, _series_and_remainder,
                              tm_compose_elem, tm_from_expr)

from conftest import assert_contains


def box(u_hi=0.5, k_lo=0.0, k_hi=1.0):
    return Boxes(0.0, u_hi, k_lo, k_hi)


def sides(b):
    """The u and k sides of a batch of one box, as Intervals."""
    return (Interval(float(b.ulo[0]), float(b.uhi[0])),
            Interval(float(b.klo[0]), float(b.khi[0])))


def var_u(b, degrees):
    """The model of u on the boxes b."""
    return TaylorModel2.affine(b, degrees, coef_u=Interval(1.0, 1.0))


def range_of(tm):
    """The range bound of a batch of one, as an Interval."""
    lo, hi = tm.range_bounds()
    return Interval(float(lo[0]), float(hi[0]))


def sample_ok(tm, fn, n=100, seed=0):
    """fn(u, k) must lie inside the model evaluation at (u, k)."""
    rng = random.Random(seed)
    for _ in range(n):
        bu, bk = sides(tm.boxes)
        u = rng.uniform(bu.lo, bu.hi)
        k = rng.uniform(bk.lo, bk.hi)
        val = fn(u, k)
        enc = tm.eval(Interval.point(u), Interval.point(k))
        assert enc.lo <= val <= enc.hi, (u, k, val, enc)


class TestConstruction:
    def test_constant_one(self):
        tm = tm_from_expr(parse("1"), box(), (8, 8))
        assert tm.coefficient(0, 0) == Interval(1, 1)
        assert sum(1 for _ in tm.nonzero_terms()) == 1

    def test_linear_exact(self):
        tm = tm_from_expr(parse("x+y"), box(), (4, 4))
        assert_contains(tm.coefficient(0, 1), 1.0)  # u term
        assert_contains(tm.coefficient(1, 1), 1.0)  # ku term
        assert tm.coefficient(0, 0).width() == 0.0

    def test_sin_xy_enclosure(self):
        tm = tm_from_expr(parse("sin(x*y)"), box(0.5, 0.0, 1.0), (4, 4))
        sample_ok(tm, lambda u, k: float(mp.sin(mp.mpf(u) * (k * u))))

    def test_nonsmooth_rejected(self):
        with pytest.raises(UnsupportedError):
            tm_from_expr(parse("abs(x)"), box(), (4, 4))


class TestArith:
    def test_add_encloses_sum(self):
        f, g = parse("x^2"), parse("sin(y)")
        a = tm_from_expr(f, box(), (6, 6))
        b = tm_from_expr(g, box(), (6, 6))
        s = a + b
        sample_ok(s, lambda u, k: u * u + float(mp.sin(k * u)))

    def test_mul_truncation_sound(self):
        # (1 + u)^6 at degrees (2, 2): truncated but still an enclosure
        base = tm_from_expr(parse("1+x"), box(0.5), (2, 2))
        p = base.pow_int(6)
        sample_ok(p, lambda u, k: (1 + u) ** 6)

    def test_division(self):
        tm = tm_from_expr(parse("1/(2+x)"), box(0.5), (6, 6))
        sample_ok(tm, lambda u, k: 1.0 / (2.0 + u))

    def test_box_mismatch(self):
        a = tm_from_expr(parse("x"), box(0.5), (4, 4))
        b = tm_from_expr(parse("x"), box(0.25), (4, 4))
        with pytest.raises(DomainError):
            a + b


class TestCompose:
    def test_exp_of_zero(self):
        zero = TaylorModel2.constant(Interval(0, 0), box(), (4, 4))
        e = tm_compose_elem("exp", zero)
        assert_contains(range_of(e), 1.0)

    def test_sin_of_u(self):
        tm = tm_compose_elem("sin", var_u(box(1.0), (8, 8)))
        enc = tm.eval(Interval.point(0.3), Interval.point(0.5))
        assert_contains(enc, float(mp.sin(mp.mpf("0.3"))))
        # Lagrange remainder at order 8 over [0,1]: (1/2)^9/9! ~ 5e-9
        assert enc.width() < 1e-7

    def test_log_requires_positive_range(self):
        tm = var_u(box(1.0), (4, 4))
        with pytest.raises(DomainError):
            tm_compose_elem("log", tm)

    def test_order_above_the_series_tables_rejected(self):
        tm = var_u(box(1.0), (1, MAX_DEGREE + 1)) + 2.0
        with pytest.raises(DomainError, match="MAX_DEGREE"):
            tm_compose_elem("sqrt", tm)

    def test_sqrt(self):
        tm = tm_compose_elem(
            "sqrt", var_u(box(1.0), (8, 8)) + Interval(4.0, 4.0)
        )
        sample_ok(tm, lambda u, k: math.sqrt(4.0 + u))

    @pytest.mark.parametrize("t0", [-800.0, -1.5, -0.0, 0.7, 700.0])
    def test_exp_series_matches_scalar(self, t0):
        """The exp series coefficients are the scalar Interval.exp(t0) / p!
        bit for bit, the clamp of exp's lower end at 0 included."""
        r = (np.array([t0]), np.array([t0 + 1.0]))
        coeffs, _ = _series_and_remainder("exp", np.array([t0]), r, 6)
        base = Interval.point(t0).exp()
        for p, (lo, hi) in enumerate(coeffs):
            want = base / Interval(*_factorial(p))
            assert (lo[0].hex(), hi[0].hex()) == (want.lo.hex(), want.hi.hex())

    def test_exp_overflow_rejected(self):
        r = (np.array([709.0]), np.array([710.0]))
        with pytest.raises(DomainError, match="overflow"):
            _series_and_remainder("exp", np.array([709.5]), r, 4)

    @pytest.mark.parametrize("t0", [0.3, 1.7, 4.0 + 1.0 / 3.0, 10.1])
    def test_sqrt_series_coefficients_exact(self, t0):
        """Every coefficient encloses binom(1/2, p) t0^(1/2 - p) exactly."""
        coeffs, _ = _series_and_remainder("sqrt", np.array([t0]),
                                          (np.array([t0 * 0.9]), np.array([t0 * 1.1])), 12)
        with mp.workdps(60):
            t = mp.mpf(t0)
            for p, (lo, hi) in enumerate(coeffs):
                want = mp.binomial(mp.mpf(1) / 2, p) * t ** (mp.mpf(1) / 2 - p)
                assert mp.mpf(lo[0]) <= want <= mp.mpf(hi[0]), (p, lo, hi, want)


_EXPRS = [
    "1", "x", "y", "x+y", "x*y", "x^2-y^3", "sin(x)", "cos(x*y)",
    "exp(x-y)", "x*sin(y)+1", "(x+2)*(y-3)", "1/(x+3)",
]


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(_EXPRS),
    st.floats(0.1, 1.0),
    st.floats(-1.0, 0.0),
    st.floats(0.1, 1.0),
)
def test_enclosure_property_grid(text, u_hi, k_lo, k_span):
    """Spec invariant: 30x30 sample grid lies inside every constructed model."""
    f = parse(text)
    b = box(u_hi, k_lo, k_lo + k_span)
    tm = tm_from_expr(f, b, (8, 8))
    bu, bk = sides(b)
    for i in range(30):
        for j in range(30):
            u = bu.lo + (bu.hi - bu.lo) * i / 29
            k = bk.lo + (bk.hi - bk.lo) * j / 29
            val = f.eval_point(u, k * u)
            enc = tm.eval(Interval.point(u), Interval.point(k))
            assert enc.lo <= val <= enc.hi


def test_degree_increase_keeps_enclosure_and_shrinks():
    f = parse("sin(x*y)+exp(x)")
    b = box(0.5)
    widths = []
    for deg in (4, 6, 8):
        tm = tm_from_expr(f, b, (deg, deg))
        sample_ok(tm, lambda u, k: float(mp.sin(mp.mpf(u) * k * u) + mp.exp(mp.mpf(u))), n=40)
        widths.append(range_of(tm).width())
    assert widths[2] <= widths[0] + 1e-12


# ---------------------------------------------------------------------------
# Independent oracles for the array core
# ---------------------------------------------------------------------------

GRAZING = box(1e-3, -1e3, 1e3)


def _monomial_range_ref(b, i, j):
    """Scalar coupled-and-decoupled range of k^i u^j (the per-monomial form)."""
    if i == 0 and j == 0:
        return Interval(1.0, 1.0)
    bu, bk = sides(b)
    ku = bk * bu
    if j >= i:
        coupled = ku.pow_int(i) * bu.pow_int(j - i)
    else:
        coupled = ku.pow_int(j) * bk.pow_int(i - j)
    apart = bk.pow_int(i) * bu.pow_int(j)
    return Interval(max(coupled.lo, apart.lo), min(coupled.hi, apart.hi))


def _point_model(rng, b, deg, top):
    """Model of degrees ``deg`` with random point coefficients up to ``top``."""
    clo = np.zeros((deg[0] + 1, deg[1] + 1))
    for i in range(top[0] + 1):
        for j in range(top[1] + 1):
            if rng.random() < 0.8:
                clo[i, j] = rng.uniform(-2.0, 2.0)
    return TaylorModel2(clo[None], clo[None].copy(), b)


def _convolution_violations(seed, b, top):
    """Coefficients of products of point models that miss the exact
    rational convolution (the constant term only when nothing overflows)."""
    rng = random.Random(seed)
    deg, bad = (4, 4), 0
    for _ in range(20):
        p, q = _point_model(rng, b, deg, top), _point_model(rng, b, deg, top)
        prod = p * q
        exact = {}
        for i1, j1, a in p.nonzero_terms():
            for i2, j2, c in q.nonzero_terms():
                key = (i1 + i2, j1 + j2)
                exact[key] = exact.get(key, Fraction(0)) + Fraction(a.lo) * Fraction(c.lo)
        overflow = any(i > deg[0] or j > deg[1] for i, j in exact)
        for (i, j), want in exact.items():
            if i > deg[0] or j > deg[1] or ((i, j) == (0, 0) and overflow):
                continue
            got = prod.coefficient(i, j)
            bad += not (Fraction(got.lo) <= want <= Fraction(got.hi))
    return bad


def _grid_violations(b):
    """Product and composition models against 30-digit values on a 30x30 grid."""
    f, g = parse("sin(x*y) + x - 0.3"), parse("exp(x - y) * (1 + x*y)")
    a, c = tm_from_expr(f, b, (6, 6)), tm_from_expr(g, b, (6, 6))
    models = [(a * c, lambda u, y: (mp.sin(u * y) + u - mp.mpf("0.3"))
               * mp.exp(u - y) * (1 + u * y)),
              (tm_compose_elem("cos", a * a), lambda u, y: mp.cos(
                  (mp.sin(u * y) + u - mp.mpf("0.3")) ** 2))]
    bad = 0
    bu, bk = sides(b)
    with mp.workdps(30):
        for tm, fn in models:
            for p in range(30):
                for q in range(30):
                    u = bu.lo + (bu.hi - bu.lo) * p / 29
                    k = bk.lo + (bk.hi - bk.lo) * q / 29
                    enc = tm.eval(Interval.point(u), Interval.point(k))
                    want = fn(mp.mpf(u), mp.mpf(k) * u)
                    bad += not (mp.mpf(enc.lo) <= want <= mp.mpf(enc.hi))
    return bad


class TestArrayCore:
    @pytest.mark.parametrize("b", [box(0.5, -1.0, 1.0), GRAZING])
    @pytest.mark.parametrize("top", [(2, 2), (3, 4)])
    def test_product_encloses_exact_convolution(self, b, top):
        assert _convolution_violations(0, b, top) == 0

    @pytest.mark.parametrize("b", [box(0.5, -1.0, 1.0), GRAZING])
    def test_product_and_compose_enclose_mpmath_grid(self, b):
        assert _grid_violations(b) == 0

    def test_grazing_box_overflows_most_products(self):
        c = tm_from_expr(parse("exp(x - y) * (1 + x*y)"), GRAZING, (6, 6))
        i, j = np.nonzero((c.clo[0] != 0.0) | (c.chi[0] != 0.0))
        over = (i[:, None] + i > 6) | (j[:, None] + j > 6)
        assert over.mean() > 0.5

    @pytest.mark.parametrize("b", [box(0.5, -1.0, 1.0), GRAZING,
                                   box(0.25, 0.0, 0.0)])
    def test_table_matches_scalar_ranges(self, b):
        i, j = (v.ravel() for v in np.indices((13, 13)))
        lo, hi = b.ranges(slice(None), i, j)
        for t in range(13 * 13):
            assert Interval(lo[0, t], hi[0, t]) == _monomial_range_ref(b, i[t], j[t])

    @pytest.mark.parametrize("text", _EXPRS)
    @pytest.mark.parametrize("b", [box(0.5, -1.0, 1.0), GRAZING])
    def test_range_no_wider_than_per_monomial_sum(self, text, b):
        tm = tm_from_expr(parse(text), b, (6, 6))
        ref = Interval(0.0, 0.0)
        for i, j, c in tm.nonzero_terms():
            ref = ref + c * _monomial_range_ref(b, i, j)
        got = range_of(tm)
        assert got.width() <= ref.width()
        bu, bk = sides(b)
        for u, k in [(bu.lo, bk.lo), (bu.hi, bk.hi), (bu.hi / 3, bk.lo / 7)]:
            assert_contains(got, parse(text).eval_point(u, k * u))

    def test_outward_rounding_is_what_makes_products_contain(self):
        iv._set_outward_rounding(False)
        try:
            bad = _convolution_violations(0, box(0.5, -1.0, 1.0), (3, 4))
        finally:
            iv._set_outward_rounding(True)
        assert bad > 0


@pytest.mark.parametrize("p", range(20, 31))
def test_factorial_encloses_exact_integer(p):
    lo, hi = _factorial(p)
    exact = math.factorial(p)
    assert Fraction(lo) <= exact <= Fraction(hi)
    assert (lo == hi) == (p <= 22)
    assert (float(exact) == exact) == (p <= 22)


# ---------------------------------------------------------------------------
# Batches: every member equals the same model built alone
# ---------------------------------------------------------------------------


def _random_batch(rng, size, degrees, grazing, zero_share, cancel=False):
    """A batch of ``size`` models with mixed nonzero patterns: each
    coefficient is 0.0, -0.0, a point or an interval.  With ``cancel`` the
    values come from a few inexact decimals of both signs, so that terms
    of a product cancel and their rounding errors decide the sums."""
    m, n = degrees
    kind = rng.choice(4, size=(size, m + 1, n + 1),
                      p=[zero_share / 2] * 2 + [(1 - zero_share) / 2] * 2)
    if cancel:
        mid = rng.choice([0.1, -0.1, 0.3, -0.3, 1.0 / 3.0, -1.0 / 3.0, 0.7, -0.7], kind.shape)
    else:
        mid = rng.uniform(-2.0, 2.0, kind.shape) * 10.0 ** rng.integers(-3, 1, kind.shape)
    rad = np.where(kind == 3, rng.uniform(0.0, 1e-3, kind.shape), 0.0)
    clo = np.where(kind == 0, 0.0, np.where(kind == 1, -0.0, mid - rad))
    chi = np.where(kind == 0, 0.0, np.where(kind == 1, -0.0, mid + rad))
    if grazing:  # long thin fans: huge k, tiny u, some boxes on k = 0
        uhi = rng.uniform(1e-4, 1e-3, size)
        klo = np.where(rng.random(size) < 0.3, 0.0, -rng.uniform(1.0, 1e3, size))
        khi = klo + rng.uniform(0.0, 2e3, size)
    else:
        uhi = rng.uniform(0.1, 1.0, size)
        klo = rng.uniform(-2.0, 0.0, size)
        khi = klo + rng.uniform(0.0, 2.0, size)
    return TaylorModel2(clo, chi, Boxes(np.zeros(size), uhi, klo, khi), degrees)


def _same_member(batch, p, alone):
    """Member p of ``batch`` has the coefficients of the batch of one
    ``alone``: equal endpoints, with equal signs on nonzero coefficients."""
    (blo, bhi), (alo, ahi) = batch.grids(), alone.grids()
    blo, bhi = blo[p], bhi[p]
    nonzero = (alo[0] != 0.0) | (ahi[0] != 0.0)
    return (np.array_equal(blo, alo[0]) and np.array_equal(bhi, ahi[0])
            and np.array_equal(np.signbit(blo[nonzero]), np.signbit(alo[0][nonzero]))
            and np.array_equal(np.signbit(bhi[nonzero]), np.signbit(ahi[0][nonzero])))


def _memberwise(op, *batches):
    """op on the batches and on each member alone agree member by member;
    when the batch raises DomainError, some member alone raises too."""
    try:
        got = op(*batches)
    except DomainError:
        raised = 0
        for p in range(len(batches[0])):
            try:
                op(*(b.member(p) for b in batches))
            except DomainError:
                raised += 1
        assert raised
        return
    for p in range(len(batches[0])):
        alone = op(*(b.member(p) for b in batches))
        if isinstance(got, TaylorModel2):
            assert _same_member(got, p, alone), p
        else:
            want = (alone[0][0], alone[1][0])
            assert (got[0][p], got[1][p]) == want, p
            assert np.signbit([got[0][p], got[1][p]]).tolist() == np.signbit(want).tolist(), p


_BATCH_OPS = {
    "mul": lambda a, b: a * b,
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "pow2": lambda a, b: a.pow_int(2),
    "pow3": lambda a, b: a.pow_int(3),
    "range": lambda a, b: a.range_bounds(),
    "exp": lambda a, b: tm_compose_elem("exp", a),
    "sin": lambda a, b: tm_compose_elem("sin", a),
    "cos": lambda a, b: tm_compose_elem("cos", a * b),
}


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 12), st.integers(0, 20), st.integers(0, 20),
       st.booleans())
@example(0, 0, 5, 3, False)
def test_pattern_groups_partition_members_by_pattern(seed, size, ka, kb, fortran):
    """Members with equal joint masks, and only those, share a group, whose
    columns are the nonzero ones of each mask, whatever the masks' memory
    layout.  An empty batch has no group."""
    rng = np.random.default_rng(seed)
    joint = (rng.random((3, ka + kb)) < 0.5)[rng.integers(0, 3, size)]
    if fortran:
        joint = np.asfortranarray(joint)
    want = {}
    for p, row in enumerate(joint.tolist()):
        want.setdefault(tuple(row), []).append(p)
    got = {}
    for rows, (ca, cb) in taylor._pattern_groups(joint[:, :ka], joint[:, ka:]):
        pattern = np.zeros(ka + kb, dtype=bool)
        pattern[ca], pattern[ka + cb] = True, True
        got[tuple(pattern.tolist())] = np.arange(size)[rows].tolist()
    assert got == want


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(sorted(_BATCH_OPS)),
    st.integers(0, 2**32 - 1),
    st.integers(1, 4),
    st.tuples(st.integers(1, 8), st.integers(1, 8)),
    st.tuples(st.integers(1, 8), st.integers(1, 8)),
    st.booleans(),
    st.sampled_from([0.0, 0.3, 0.7]),
    st.booleans(),
)
def test_batch_members_equal_models_built_alone(op, seed, size, deg_a, deg_b, grazing, zeros,
                                                cancel):
    rng = np.random.default_rng(seed)
    a = _random_batch(rng, size, deg_a, grazing, zeros, cancel)
    b = _random_batch(rng, size, deg_b, grazing, zeros, cancel)
    b = TaylorModel2(b.clo, b.chi, a.boxes, b.degrees)  # on a's boxes
    _memberwise(_BATCH_OPS[op], a, b)


@settings(max_examples=25, deadline=None)
@given(
    st.sampled_from(["log", "sqrt", "recip"]),
    st.integers(0, 2**32 - 1),
    st.integers(1, 4),
    st.tuples(st.integers(1, 8), st.integers(1, 8)),
    st.booleans(),
    st.sampled_from([0.0, 0.3, 0.7]),
)
def test_batch_compositions_on_positive_ranges(fn, seed, size, degrees, grazing, zeros):
    """log, sqrt and 1/x of models shifted to positive ranges (the shift is
    one float for the batch and for every member alone)."""
    rng = np.random.default_rng(seed)
    a = _random_batch(rng, size, degrees, grazing, zeros)
    lo, hi = a.range_bounds()
    shifted = a + (float(np.max(np.abs(np.concatenate((lo, hi))))) + 1.0)
    op = (lambda x: 1.0 / x) if fn == "recip" else (lambda x: tm_compose_elem(fn, x))
    _memberwise(op, shifted)


def test_batch_of_one_queries():
    a = tm_from_expr(parse("x*y + 1"), box(), (4, 4))
    batch = TaylorModel2(np.concatenate([a.clo] * 2), np.concatenate([a.chi] * 2),
                         Boxes(*(np.repeat(v, 2) for v in (a.boxes.ulo, a.boxes.uhi,
                                                          a.boxes.klo, a.boxes.khi))),
                         a.degrees)
    assert batch.member(1).coefficient(1, 2) == a.coefficient(1, 2)
    with pytest.raises(DomainError, match="batch of 2"):
        batch.coefficient(1, 2)


def test_batch_rows_keep_their_members_error_factor():
    """The running sums of 0.1 + 0.2 - fl(0.1 + 0.2) cancel to 0, so the
    a-priori bound of the rounding errors, which grows with the row length,
    sets the bounds.  Member 0 keeps the factor of its own longest row
    next to a denser member 1."""
    b0 = box(0.5, -1.0, 1.0)
    clo = np.zeros((2, 3, 3))
    clo[0, 0, :] = [0.1, 0.2, -(0.1 + 0.2)]
    clo[1] = np.arange(1.0, 10.0).reshape(3, 3) / 7.0
    ones = np.ones((2, 1, 3))  # b = 1 + u + u^2: products by an exact 1
    boxes = Boxes(*(np.repeat(v, 2) for v in (b0.ulo, b0.uhi, b0.klo, b0.khi)))
    a, b = TaylorModel2(clo, clo.copy(), boxes), TaylorModel2(ones, ones.copy(), boxes)
    prod = a * b
    assert prod.clo[0, 0, 2] < prod.chi[0, 0, 2] < 0.0  # the cancelling cell
    for p in range(2):
        assert _same_member(prod, p, a.member(p) * b.member(p))


@pytest.mark.parametrize("grazing", [False, True])
def test_batch_budget_changes_no_bit(monkeypatch, grazing):
    """Products, compositions and range bounds of a batch of mixed nonzero
    patterns give the same bits in passes of one member, of the default
    size and of the whole batch."""
    rng = np.random.default_rng(7)
    a = _random_batch(rng, 12, (6, 6), grazing, 0.3)
    b = _random_batch(rng, 12, (5, 7), grazing, 0.3)
    b = TaylorModel2(b.clo, b.chi, a.boxes, b.degrees)
    shift = float(np.max(np.abs(np.concatenate(a.range_bounds())))) + 1.0

    def outputs():
        prod = a * b
        return [prod.grids(), (a * a).grids(), tm_compose_elem("sin", a).grids(),
                tm_compose_elem("cos", prod).grids(), (1.0 / (a + shift)).grids(),
                a.range_bounds(), prod.range_bounds()]

    def bits(out):
        return [np.asarray(v).view(np.int64).tolist() for pair in out for v in pair]

    want = bits(outputs())
    patterns = {m.tobytes() for m in a._support()[0]}
    assert len(patterns) > 1  # members differ in their nonzero patterns
    for budget in (1, 1 << 20):
        monkeypatch.setattr(taylor, "_BATCH_ELEMS", budget)
        assert bits(outputs()) == want, budget
