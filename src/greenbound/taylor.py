"""Bivariate power-series arithmetic with interval coefficients, in batches.

A :class:`TaylorModel2` is a batch of P models.  Member p encloses a
function g_p(u, k) on its own box by a polynomial
sum_{i<=m, j<=n} [c_pij] k^i u^j whose coefficients are intervals.  All
operations preserve the enclosure property: products truncate above the
declared degrees with the excess range-bounded over the box and folded into
the constant coefficient, and elementary functions are applied by truncated
Taylor expansion about the midpoint of the operand's range enclosure with a
rigorous Lagrange remainder.

The intended use keeps u as a radial-like variable and k as a slope, with
the physical coordinates affine in u and k*u.  Monomial ranges are therefore
bounded in the coupled form (k*u)^i * u^(j-i) whenever j >= i, which stays
bounded even when the k side of the box is huge (grazing triangles).

The batch axis comes first: coefficients are (lo, hi) grids of shape
(P, a+1, b+1) for truncation degrees (m, n), a <= m and b <= n (past the
highest degrees an operation can make nonzero every coefficient is 0 and
is not stored), and the boxes are endpoint arrays of length P
(:class:`Boxes`, which also holds the powers and the monomial ranges
that bound its members' terms).  Every operation is a few array passes
over the batch, each over at most ``_BATCH_ELEMS`` elements.  Each
member's result equals, bit for bit, the same model built alone (a batch
of one): a member keeps its own nonzero coefficients, and a product sums
that member's terms per coefficient, in the same order, by one
TwoSum-compensated row sum per coefficient.  The truncated terms, each
bounded by its monomial range, form a row of their own, folded into the
constant coefficient.

Members with the same nonzero pattern share one way to lay out their
terms (``_product_plan``, kept per pattern): the outer product of their
coefficient lists in one broadcast pass, and one row-sum pass per width
class of coefficients (``_directed._width_classes``), whose rows are
padded to a common length without moving a bit.  A batch whose members
differ in pattern is taken group by group.  The ranges of the truncated
monomials are computed once per boxes and list of monomials, and reused
by every later product on the same patterns, such as the Horner steps of
a composition.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _directed as dr
from .errors import DomainError, UnsupportedError
from .interval import Interval, _midpoints, rational

__all__ = ["TaylorModel2", "Boxes", "tm_from_expr", "tm_compose_elem"]

_DEFAULT_DEGREES = (8, 8)

# Largest series order of an elementary composition (the larger degree of
# the model), which sizes the constant tables below.
MAX_DEGREE = 32

# The sqrt series ratios binom(1/2, p) / binom(1/2, p - 1) = (3 - 2p) / (2p),
# indexed by p = 1..MAX_DEGREE, each enclosed by ``rational``.
_SQRT_RATIOS = [None] + [Interval(*rational(3 - 2 * p, 2 * p))
                         for p in range(1, MAX_DEGREE + 1)]

# Elements (members times terms, or padded row terms) per array pass over
# a batch.  Longer passes save numpy calls, but every live temporary of a
# pass raises the heap's high-water mark: a product pass holds its (lo, hi)
# terms, two arrays of this many floats, and while it sums one width class
# about four more.
_BATCH_ELEMS = 1 << 14


class Boxes:
    """The (u, k) boxes of a batch of models as endpoint arrays, one entry
    per member, with the powers of k, u and k u and the monomial ranges
    that bound its members' terms, built on first use and shared by every
    model on these boxes."""

    __slots__ = ("ulo", "uhi", "klo", "khi", "_powers", "_ranges")

    def __init__(self, ulo, uhi, klo, khi):
        self.ulo, self.uhi, self.klo, self.khi = (
            np.asarray(v, dtype=float).reshape(-1) for v in (ulo, uhi, klo, khi))
        ends = np.concatenate((self.ulo, self.uhi, self.klo, self.khi))
        if not (np.all(np.isfinite(ends)) and np.all(self.ulo <= self.uhi)
                and np.all(self.klo <= self.khi)):
            raise DomainError("every box needs finite endpoints lo <= hi")
        self._powers, self._ranges = {}, {}

    def __len__(self) -> int:
        return len(self.ulo)

    def take(self, idx) -> "Boxes":
        return Boxes(self.ulo[idx], self.uhi[idx], self.klo[idx], self.khi[idx])

    def matches(self, other: "Boxes") -> bool:
        return self is other or all(
            np.array_equal(a, b) for a, b in zip((self.ulo, self.uhi, self.klo, self.khi),
                                                  (other.ulo, other.uhi, other.klo, other.khi)))

    def _power_table(self, var: str, top: int):
        """(P, at least top + 1) endpoint arrays of the powers 0, 1, ... of
        var ('k', 'u' or 'ku'), as ``Interval.pow_int`` forms them."""
        have = self._powers.get(var)
        if have is None or have[0].shape[1] <= top:
            k, u = (self.klo, self.khi), (self.ulo, self.uhi)
            base = k if var == "k" else u if var == "u" else dr._iv_mul_exact01(k, u)
            have = self._powers[var] = dr._stack(dr._iv_powers(base, top))
        return have

    def ranges(self, at, i, j):
        """Ranges of k^i u^j over the boxes of members ``at`` (a slice or
        an index array), for index arrays i, j: the coupled form
        (k u)^i u^(j-i), or (k u)^j k^(i-j), intersected with k^i u^j.
        Powers follow ``Interval.pow_int`` and products
        ``Interval.__mul__``, so each entry equals the scalar bound bit for
        bit.  The ranges of each distinct (i, j) are computed once, for
        every member, and kept for the next request of the same lists."""
        key = (i.tobytes(), j.tobytes())
        have = self._ranges.get(key)
        if have is None:
            have = self._ranges[key] = self._monomial_ranges(i, j)
        lo, hi, which = have
        return lo[at][:, which], hi[at][:, which]

    def _monomial_ranges(self, i, j):
        """(lo, hi, which): the ranges (P, U) of the U distinct monomials
        of the lists i, j, and which of them each list entry is."""
        ij, which = np.unique(np.stack((i, j)), axis=1, return_inverse=True)
        i, j = ij
        w = np.minimum(i, j)
        up, eu, ek = j >= i, np.maximum(j - i, 0), np.maximum(i - j, 0)
        klo, khi = self._power_table("k", int(i.max(initial=0)))
        ulo, uhi = self._power_table("u", int(j.max(initial=0)))
        wlo, whi = self._power_table("ku", int(w.max(initial=0)))
        clo, chi = dr._iv_mul_exact01((wlo[:, w], whi[:, w]),
                                      (np.where(up, ulo[:, eu], klo[:, ek]),
                                       np.where(up, uhi[:, eu], khi[:, ek])))
        dlo, dhi = dr._iv_mul_exact01((klo[:, i], khi[:, i]), (ulo[:, j], uhi[:, j]))
        lo, hi = np.maximum(clo, dlo), np.minimum(chi, dhi)
        if np.any(lo > hi):
            raise DomainError("disjoint monomial enclosures: rigor violated upstream")
        return lo, hi, which.reshape(-1)


def _pattern_groups(*masks):
    """The members of a batch grouped by their nonzero patterns: per group,
    (members, columns), members a slice (the whole batch) or an index
    array, and per mask (P, K) the columns nonzero in those members.  An
    empty batch has no group.

    A member's key is its joint mask packed into one byte string, so
    grouping is one ``np.unique`` over P keys; the packed rows must be
    contiguous for the view as one void item each."""
    joint = np.concatenate(masks, axis=1)
    if not len(joint):
        return []
    if joint.all():
        return [(slice(None), [np.arange(m.shape[1]) for m in masks])]
    packed = np.ascontiguousarray(np.packbits(joint, axis=1))
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).reshape(-1)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    splits = np.cumsum([m.shape[1] for m in masks])[:-1]
    return [(np.flatnonzero(inverse == g), [np.flatnonzero(c) for c in np.split(joint[p], splits)])
            for g, p in enumerate(first.tolist())]


def _passes(rows, size: int, step: int):
    """The members of each pass of ``step`` members over a group of
    ``_pattern_groups`` in a batch of ``size``: slices of the batch, or
    index arrays."""
    for s0 in range(0, size if isinstance(rows, slice) else len(rows), step):
        yield slice(s0, s0 + step) if isinstance(rows, slice) else rows[s0:s0 + step]


@dataclass(frozen=True, eq=False)
class _ProductPlan:
    """How the terms of a product of two coefficient patterns are summed.

    Term t multiplies coefficient t // Kb of the first pattern by t % Kb
    of the second (the outer product, row-major).  The kept grid has
    ``gk`` x ``gu`` cells; cell ``gk * gu`` collects the ``over`` terms,
    past the degrees, whose monomials are ``mono``.  Each entry of
    ``classes`` is (cells, idx, lengths): idx[r] lists the terms of cell
    cells[r] in (first, second) order, padded with the index Kb * Ka of a
    -0.0 column to a common width, and lengths[r] counts them.  A pass
    holds ``width`` elements per member in its largest array: the terms,
    or the (lo, hi) rows of one class."""

    gk: int
    gu: int
    over: np.ndarray
    mono: tuple
    classes: list
    width: int


def _term_degrees(ua: bytes, ub: bytes, a_cols: int, b_cols: int):
    """Degrees (in k, in u) of the terms of the outer product of the nonzero
    flat coefficients ua (bytes of an intp array, grid width a_cols) by ub
    (grid width b_cols), in row-major order."""
    ai, aj = np.divmod(np.frombuffer(ua, dtype=np.intp), a_cols)
    bi, bj = np.divmod(np.frombuffer(ub, dtype=np.intp), b_cols)
    return (ai[:, None] + bi).reshape(-1), (aj[:, None] + bj).reshape(-1)


@functools.lru_cache(maxsize=64)
def _kept_grid(ua: bytes, ub: bytes, a_cols: int, b_cols: int, m: int, n: int) -> tuple:
    """(gk, gu): the grid of the terms of degree <= (m, n) of a product of
    the nonzero flat coefficients ua by ub (as ``_term_degrees`` takes
    them)."""
    ti, tj = _term_degrees(ua, ub, a_cols, b_cols)
    kept = (ti <= m) & (tj <= n)
    return int(ti[kept].max(initial=0)) + 1, int(tj[kept].max(initial=0)) + 1


@functools.lru_cache(maxsize=64)
def _product_plan(ua: bytes, ub: bytes, a_cols: int, b_cols: int, m: int, n: int) -> _ProductPlan:
    """The plan of a product of the nonzero flat coefficients ua by ub (as
    ``_term_degrees`` takes them), truncated at degrees (m, n)."""
    ti, tj = _term_degrees(ua, ub, a_cols, b_cols)
    over = (ti > m) | (tj > n)
    gk, gu = _kept_grid(ua, ub, a_cols, b_cols, m, n)
    cell = np.where(over, gk * gu, ti * gu + tj)
    order = np.argsort(cell, kind="stable")
    lengths = np.bincount(cell, minlength=gk * gu + 1)
    starts = np.cumsum(lengths) - lengths
    classes = []
    for cells in dr._width_classes(lengths):
        pos = np.arange(int(lengths[cells].max()))
        take = np.minimum(starts[cells, None] + pos, len(cell) - 1)
        idx = np.where(pos < lengths[cells, None], order[take], len(cell))
        classes.append((cells, idx, lengths[cells]))
    width = max([len(cell), gk * gu + 1] + [2 * idx.size for _, idx, _ in classes])
    return _ProductPlan(gk, gu, np.flatnonzero(over), (ti[over], tj[over]), classes, width)


@dataclass(slots=True, eq=False)
class TaylorModel2:
    """A batch of interval-coefficient polynomial enclosures, one per (u, k)
    box of ``boxes``.

    ``clo[p, i, j]``/``chi[p, i, j]`` bound the coefficient of k^i u^j of
    member p; the batch asserts g_p(u, k) in sum [c_pij] k^i u^j for every
    (u, k) in box p.  ``degrees`` (m, n) are the truncation degrees; the
    grids stop at the highest (i, j) an operation can make nonzero, and
    every coefficient past them is 0 (default: the grids' own extents).
    Instances are treated as immutable values.  A single model is a batch
    of one; the scalar queries (``coefficient``, ``nonzero_terms``,
    ``eval``) need one, and ``member`` takes one out of a batch.
    """

    clo: np.ndarray
    chi: np.ndarray
    boxes: Boxes
    degrees: Optional[tuple] = None

    def __post_init__(self):
        if self.degrees is None:
            self.degrees = (self.clo.shape[1] - 1, self.clo.shape[2] - 1)

    @property
    def deg_k(self) -> int:
        return self.degrees[0]

    @property
    def deg_u(self) -> int:
        return self.degrees[1]

    def __len__(self) -> int:
        return self.clo.shape[0]

    def _like(self, clo, chi, degrees=None) -> "TaylorModel2":
        return TaylorModel2(clo, chi, self.boxes, degrees or self.degrees)

    def member(self, p: int) -> "TaylorModel2":
        return TaylorModel2(self.clo[p:p + 1], self.chi[p:p + 1], self.boxes.take([p]),
                            self.degrees)

    def grids(self):
        """(lo, hi) coefficient grids of shape (P, m+1, n+1)."""
        (m, n), (a, b) = self.degrees, self.clo.shape[1:]
        lo, hi = np.zeros((2, len(self), m + 1, n + 1))
        lo[:, :a, :b], hi[:, :a, :b] = self.clo, self.chi
        return lo, hi

    # -- constructors ---------------------------------------------------

    @staticmethod
    def constant(c, boxes: Boxes, degrees=_DEFAULT_DEGREES) -> "TaylorModel2":
        """The constant c (an Interval, or (lo, hi) arrays over the batch)
        on ``boxes``."""
        clo, chi = np.zeros((2, len(boxes), 1, 1))
        clo[:, 0, 0], chi[:, 0, 0] = dr._ends(c)
        return TaylorModel2(clo, chi, boxes, tuple(degrees))

    @staticmethod
    def affine(boxes: Boxes, degrees=_DEFAULT_DEGREES, const=Interval(0.0, 0.0),
               coef_u=Interval(0.0, 0.0), coef_ku=Interval(0.0, 0.0)) -> "TaylorModel2":
        """Model of const + coef_u * u + coef_ku * (k u) on ``boxes``; each
        coefficient an Interval or (lo, hi) arrays over the batch."""
        m, n = degrees
        if m < 1 or n < 1:
            raise DomainError("affine models need degrees >= (1, 1)")
        clo, chi = np.zeros((2, len(boxes), 2, 2))
        for (i, j), c in (((0, 0), const), ((0, 1), coef_u), ((1, 1), coef_ku)):
            clo[:, i, j], chi[:, i, j] = dr._ends(c)
        return TaylorModel2(clo, chi, boxes, tuple(degrees))

    # -- queries ----------------------------------------------------------

    def _single(self) -> None:
        if len(self) != 1:
            raise DomainError(f"a query of one model on a batch of {len(self)}; take member(p)")

    def coefficient(self, i: int, j: int) -> Interval:
        self._single()
        if i >= self.clo.shape[1] or j >= self.clo.shape[2]:
            return Interval(0.0, 0.0)
        return Interval(float(self.clo[0, i, j]), float(self.chi[0, i, j]))

    def nonzero_terms(self):
        self._single()
        for i, j in zip(*np.nonzero((self.clo[0] != 0.0) | (self.chi[0] != 0.0))):
            yield int(i), int(j), self.coefficient(i, j)

    def _support(self):
        """(mask, lo, hi) flat over the coefficients, shape (P, K), and the
        flat indices of the coefficients nonzero in some member, in
        row-major order."""
        lo, hi = self.clo.reshape(len(self), -1), self.chi.reshape(len(self), -1)
        mask = (lo != 0.0) | (hi != 0.0)
        return mask, lo, hi, np.flatnonzero(mask.any(axis=0))

    def _ij(self, flat):
        """(i, j) of flat coefficient indices."""
        return np.divmod(flat, self.clo.shape[2])

    def range_bounds(self):
        """(lo, hi) arrays over the batch: per member, an interval containing
        every value of the model over its box."""
        mask, clo, chi, nz = self._support()
        lo, hi = np.zeros(len(self)), np.zeros(len(self))
        for rows, (cols,) in _pattern_groups(mask[:, nz]):
            flat = nz[cols]
            if not flat.size:
                continue  # a zero member: its range is 0
            i, j = self._ij(flat)
            for at in _passes(rows, len(self), max(1, _BATCH_ELEMS // len(flat))):
                terms = dr._iv_mul_exact01((clo[at][:, flat], chi[at][:, flat]),
                                           self.boxes.ranges(at, i, j))
                lo[at], hi[at] = dr._iv_sums(terms)
        bad = np.flatnonzero(~(np.isfinite(lo) & np.isfinite(hi) & (lo <= hi)))
        if bad.size:
            raise DomainError(f"invalid range enclosure [{lo[bad[0]]}, {hi[bad[0]]}]")
        return lo, hi

    def eval(self, u: Interval, k: Interval) -> Interval:
        """Natural evaluation at (sub)interval arguments inside the box."""
        total = Interval(0.0, 0.0)
        ku = k * u
        for i, j, c in self.nonzero_terms():
            if j >= i:
                mono = ku.pow_int(i) * u.pow_int(j - i)
            else:
                mono = k.pow_int(i - j) * ku.pow_int(j)
            total = total + c * mono
        return total

    # -- arithmetic -------------------------------------------------------

    def _check_compatible(self, other: "TaylorModel2") -> None:
        if not self.boxes.matches(other.boxes):
            raise DomainError("TaylorModel2 operands must share their validity boxes")

    def _padded_to(self, shape):
        clo, chi = np.zeros((2, len(self)) + shape)
        a, b = self.clo.shape[1:]
        clo[:, :a, :b], chi[:, :a, :b] = self.clo, self.chi
        return clo, chi

    def _shift(self, lo, hi) -> "TaylorModel2":
        """The model plus [lo, hi] (floats, or arrays over the batch)."""
        clo, chi = self.clo.copy(), self.chi.copy()
        clo[:, 0, 0], chi[:, 0, 0] = dr.iv_add(clo[:, 0, 0], chi[:, 0, 0], lo, hi)
        return self._like(clo, chi)

    def __add__(self, other) -> "TaylorModel2":
        if isinstance(other, Interval):
            return self._shift(other.lo, other.hi)
        if isinstance(other, (int, float)):
            return self + Interval.point(float(other))
        self._check_compatible(other)
        degrees = (max(self.deg_k, other.deg_k), max(self.deg_u, other.deg_u))
        if self.clo.shape == other.clo.shape:
            return self._like(*dr.iv_add(self.clo, self.chi, other.clo, other.chi), degrees)
        shape = tuple(np.maximum(self.clo.shape[1:], other.clo.shape[1:]).tolist())
        return self._like(*dr.iv_add(*self._padded_to(shape), *other._padded_to(shape)), degrees)

    __radd__ = __add__

    def __neg__(self) -> "TaylorModel2":
        return self._like(-self.chi, -self.clo)

    def __sub__(self, other) -> "TaylorModel2":
        if isinstance(other, (int, float, Interval)):
            return self + (-Interval._coerce(other))
        return self + (-other)

    def __rsub__(self, other) -> "TaylorModel2":
        return (-self) + other

    def scale(self, c: Interval) -> "TaylorModel2":
        return self._like(*dr._iv_mul_exact01((self.clo, self.chi), (c.lo, c.hi)))

    def __mul__(self, other) -> "TaylorModel2":
        """Product truncated at the larger degrees (m, n): per member, the
        outer product of its nonzero coefficients; products of degree
        <= (m, n) are summed per coefficient, the rest bounded by their
        monomial ranges and summed into the constant coefficient."""
        if isinstance(other, Interval):
            return self.scale(other)
        if isinstance(other, (int, float)):
            return self.scale(Interval.point(float(other)))
        self._check_compatible(other)
        m = max(self.deg_k, other.deg_k)
        n = max(self.deg_u, other.deg_u)
        (amask, alo, ahi, ua), (bmask, blo, bhi, ub) = self._support(), other._support()
        cols = (self.clo.shape[2], other.clo.shape[2], m, n)
        lo, hi = np.zeros((2, len(self), *_kept_grid(ua.tobytes(), ub.tobytes(), *cols)))
        for rows, (ga, gb) in _pattern_groups(amask[:, ua], bmask[:, ub]):
            fa, fb = ua[ga], ub[gb]
            plan = _product_plan(fa.tobytes(), fb.tobytes(), *cols)
            for at in _passes(rows, len(self), max(1, _BATCH_ELEMS // plan.width)):
                a = alo[at][:, fa], ahi[at][:, fa]
                b = blo[at][:, fb], bhi[at][:, fb]
                lo[at, :plan.gk, :plan.gu], hi[at, :plan.gk, :plan.gu] = \
                    self._product_sums(plan, a, b, at)
        return self._like(lo, hi, (m, n))

    def _product_sums(self, plan: _ProductPlan, a, b, members):
        """(2, p, gk, gu) coefficient sums of the product of the coefficient
        lists a (p, Ka) and b (p, Kb) of members ``members`` by ``plan``."""
        p, t = len(a[0]), a[0].shape[1] * b[0].shape[1]
        prod = dr._iv_mul_exact01((a[0][:, :, None], a[1][:, :, None]),
                                  (b[0][:, None, :], b[1][:, None, :]))
        terms = np.empty((2, p, t + 1))
        terms[0, :, :t], terms[1, :, :t] = prod[0].reshape(p, t), prod[1].reshape(p, t)
        terms[:, :, t] = -0.0
        del prod
        if plan.over.size:
            ov = plan.over
            terms[0][:, ov], terms[1][:, ov] = dr._iv_mul_exact01(
                (terms[0][:, ov], terms[1][:, ov]), self.boxes.ranges(members, *plan.mono))
        size = plan.gk * plan.gu
        sums = np.zeros((2, p, size + 1))
        for cells, idx, lengths in plan.classes:
            sums[0][:, cells], sums[1][:, cells] = dr._iv_sums(terms[:, :, idx], lengths=lengths)
        del terms
        fold = (sums[0, :, size] != 0.0) | (sums[1, :, size] != 0.0)
        flo, fhi = dr.iv_add(sums[0, :, 0], sums[1, :, 0], sums[0, :, size], sums[1, :, size])
        sums[0, :, 0] = np.where(fold, flo, sums[0, :, 0])
        sums[1, :, 0] = np.where(fold, fhi, sums[1, :, 0])
        return sums[:, :, :size].reshape(2, p, plan.gk, plan.gu)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "TaylorModel2":
        if isinstance(other, (int, float, Interval)):
            c = Interval._coerce(other)
            return self.scale(Interval(1.0, 1.0) / c)
        return self * _compose_series(other, "recip")

    def __rtruediv__(self, other) -> "TaylorModel2":
        rec = _compose_series(self, "recip")
        return rec * other

    def pow_int(self, n: int) -> "TaylorModel2":
        if n != int(n):
            raise DomainError("pow_int requires an integer exponent")
        n = int(n)
        if n < 0:
            return 1.0 / self.pow_int(-n)
        if n == 0:
            return TaylorModel2.constant(Interval(1.0, 1.0), self.boxes, (self.deg_k, self.deg_u))
        result = None
        base = self
        while n > 0:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return result


# ---------------------------------------------------------------------------
# Elementary composition via truncated Taylor series + Lagrange remainder
# ---------------------------------------------------------------------------
def _factorial(p: int):
    """p! enclosed outward as (lo, hi), a point for p <= 22 (a float)."""
    return rational(math.factorial(p), 1)


def _series_and_remainder(fn: str, t0, r, order: int):
    """Taylor coefficients of fn about t0 and a remainder bound over r, per
    member: t0 an array over the batch, r its (lo, hi) ranges.

    Returns (coeffs, remainder): coeffs[p] (lo, hi) arrays enclosing
    fn^(p)(t0)/p!, and the array of bounds of
    |fn^(order+1)(xi)/(order+1)! * (t-t0)^(order+1)| for all t, xi in r.
    """
    if order > MAX_DEGREE:
        raise DomainError(f"series order {order} exceeds MAX_DEGREE = {MAX_DEGREE}")
    t0_iv = (t0, t0)
    dev = dr._iv_sub_exact0(r, t0_iv)
    dev_mag = (np.zeros_like(t0), np.maximum(np.abs(dev[1]), np.abs(dev[0])))
    p1 = order + 1

    def at_first(bad, what):
        if bad.any():
            p = int(np.flatnonzero(bad)[0])
            raise DomainError(f"{what}: {Interval(float(r[0][p]), float(r[1][p]))}")

    if fn == "exp":
        base = dr._iv_libm(math.exp, t0_iv)
        coeffs = [dr._iv_div(base, _factorial(p)) for p in range(order + 1)]
        rem = dr._iv_mul_exact01(dr._iv_libm(math.exp, r), dr._iv_powers(dev_mag, p1)[p1])
        rem = dr._iv_div(rem, _factorial(p1))[1]
    elif fn == "log":
        at_first(r[0] <= 0.0, "log composition on range touching zero")
        powers = dr._iv_powers(t0_iv, order)
        coeffs = [dr._iv_libm(math.log, t0_iv)]
        for p in range(1, order + 1):
            c = dr._iv_div((1.0, 1.0), dr._iv_mul_exact01(powers[p], (float(p), float(p))))
            coeffs.append(c if p % 2 == 1 else dr._iv_neg(c))
        rem = dr._iv_powers(dr._iv_div(dev_mag, (r[0], r[0])), p1)[p1]
        rem = dr._iv_div(rem, (float(p1), float(p1)))[1]
    elif fn == "sqrt":
        at_first(r[0] <= 0.0, "sqrt composition on range touching zero")
        coeffs = [dr._iv_sqrt(t0_iv)]
        for p in range(1, order + 1):
            # binom(1/2, p) = binom(1/2, p - 1) (3 - 2p) / (2p)
            c = dr._iv_mul_exact01(coeffs[-1], dr._ends(_SQRT_RATIOS[p]))
            coeffs.append(dr._iv_div(c, t0_iv))
        # |f^(p1)(xi)| / p1! <= |prod (1/2 - q)| / p1! * xi^(1/2 - p1)
        fac = Interval(1.0, 1.0)
        for q in range(p1):
            fac = fac * abs(Interval.point(0.5 - q))
        lo_iv = (r[0], r[0])
        rem = dr._iv_mul_exact01(dr._iv_div(dr._ends(fac), _factorial(p1)), dr._iv_sqrt(lo_iv))
        rem = dr._iv_div(rem, dr._iv_powers(lo_iv, p1)[p1])
        rem = dr._iv_mul_exact01(rem, dr._iv_powers(dev_mag, p1)[p1])[1]
    elif fn in ("sin", "cos"):
        s, c = dr._iv_trig_points(math.sin, t0), dr._iv_trig_points(math.cos, t0)
        ms, mc = dr._iv_neg(s), dr._iv_neg(c)
        cycle = [s, c, ms, mc] if fn == "sin" else [c, ms, mc, s]
        coeffs = [dr._iv_div(cycle[p % 4], _factorial(p)) for p in range(order + 1)]
        rem = dr._iv_div(dr._iv_powers(dev_mag, p1)[p1], _factorial(p1))[1]
    elif fn == "recip":
        at_first((r[0] <= 0.0) & (r[1] >= 0.0), "reciprocal of model whose range contains zero")
        powers = dr._iv_powers(t0_iv, order + 1)
        coeffs = []
        for p in range(order + 1):
            c = dr._iv_div((1.0, 1.0), powers[p + 1])
            coeffs.append(c if p % 2 == 0 else dr._iv_neg(c))
        near = np.minimum(np.abs(r[1]), np.abs(r[0]))
        rem = dr._iv_powers(dr._iv_div(dev_mag, (near, near)), p1)[p1]
        rem = dr._iv_div(rem, (near, near))[1]
    else:
        raise UnsupportedError(f"no Taylor-model composition for {fn!r}")
    ends = np.concatenate([np.ravel(e) for c in coeffs for e in c] + [rem])
    if not np.all(np.isfinite(ends)):
        raise DomainError(f"unbounded enclosure in the {fn} series")
    return coeffs, rem


def _compose_series(model: TaylorModel2, fn: str) -> TaylorModel2:
    r = model.range_bounds()
    t0 = _midpoints(*r)
    order = max(model.deg_k, model.deg_u)
    coeffs, remainder = _series_and_remainder(fn, t0, r, order)
    shifted = model._shift(-t0, -t0)
    acc = TaylorModel2.constant(coeffs[order], model.boxes, (model.deg_k, model.deg_u))
    for p in range(order - 1, -1, -1):
        acc = acc * shifted
        acc.clo[:, 0, 0], acc.chi[:, 0, 0] = dr.iv_add(  # acc is a new product: add in place
            acc.clo[:, 0, 0], acc.chi[:, 0, 0], *coeffs[p])
    return acc._shift(-remainder, remainder)


# ---------------------------------------------------------------------------
# Spec-facing front ends
# ---------------------------------------------------------------------------


def tm_from_expr(f, boxes: Boxes, degrees=_DEFAULT_DEGREES) -> TaylorModel2:
    """Models of (u, k) -> f(u, k*u) over ``boxes`` (substitution x=u, y=k*u)."""
    from . import expr as _expr

    one = Interval(1.0, 1.0)
    x = TaylorModel2.affine(boxes, degrees, coef_u=one)
    y = TaylorModel2.affine(boxes, degrees, coef_ku=one)
    return _expr.eval_tm(f, x, y)


def tm_compose_elem(fn: str, a: TaylorModel2) -> TaylorModel2:
    return _compose_series(a, fn)
