"""Bivariate power-series arithmetic with interval coefficients.

A :class:`TaylorModel2` encloses a function g(u, k) on a box by a polynomial
sum_{i<=m, j<=n} [c_ij] k^i u^j whose coefficients are intervals.  All
operations preserve the enclosure property: products truncate above the
declared degrees with the excess range-bounded over the box and folded into
the constant coefficient, and elementary functions are applied by truncated
Taylor expansion about the midpoint of the operand's range enclosure with a
rigorous Lagrange remainder.

The intended use keeps u as a radial-like variable and k as a slope, with
the physical coordinates affine in u and k*u.  Monomial ranges are therefore
bounded in the coupled form (k*u)^i * u^(j-i) whenever j >= i, which stays
bounded even when the k side of the box is huge (grazing triangles).

Coefficients are (lo, hi) grids: a product is one outer interval product
of the nonzero coefficients, every sum of terms one TwoSum-compensated row
sum, and each box's monomial ranges one table shared by derived models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import _directed as dr
from .errors import DomainError, UnsupportedError
from .interval import Box2, Interval, rational

__all__ = ["TaylorModel2", "tm_from_expr", "tm_compose_elem"]

_DEFAULT_DEGREES = (8, 8)

# Largest series order of an elementary composition (the larger degree of
# the model), which sizes the constant tables below.
MAX_DEGREE = 32

# The sqrt series ratios binom(1/2, p) / binom(1/2, p - 1) = (3 - 2p) / (2p),
# indexed by p = 1..MAX_DEGREE, each enclosed by ``rational``.
_SQRT_RATIOS = [None] + [Interval(*rational(3 - 2 * p, 2 * p))
                         for p in range(1, MAX_DEGREE + 1)]


def _zero_grids(m: int, n: int):
    return np.zeros((m + 1, n + 1)), np.zeros((m + 1, n + 1))


def _powers(x: Interval, top: int):
    ps = [x.pow_int(e) for e in range(top + 1)]
    return np.array([p.lo for p in ps]), np.array([p.hi for p in ps])


def _monomial_table(box: Box2, mi: int, nj: int):
    """Ranges of k^i u^j over the box for i <= mi, j <= nj: the coupled form
    (k u)^i u^(j-i), or (k u)^j k^(i-j), intersected with k^i u^j.  Powers
    are scalar ``pow_int`` values and products follow ``Interval.__mul__``,
    so each entry equals the scalar bound bit for bit."""
    (klo, khi), (ulo, uhi) = _powers(box.k, mi), _powers(box.u, nj)
    wlo, whi = _powers(box.k * box.u, min(mi, nj))
    i, j = np.arange(mi + 1)[:, None], np.arange(nj + 1)[None, :]
    w, eu, ek = np.minimum(i, j), np.clip(j - i, 0, nj), np.clip(i - j, 0, mi)
    up = j >= i
    clo, chi = dr._iv_mul_exact01(wlo[w], whi[w], np.where(up, ulo[eu], klo[ek]),
                                  np.where(up, uhi[eu], khi[ek]))
    dlo, dhi = dr._iv_mul_exact01(klo[i], khi[i], ulo[j], uhi[j])
    lo, hi = np.maximum(clo, dlo), np.minimum(chi, dhi)
    if np.any(lo > hi):
        raise DomainError("disjoint monomial enclosures: rigor violated upstream")
    return lo, hi


def _cell_sums(cell: np.ndarray, lo: np.ndarray, hi: np.ndarray, size: int):
    """Rigorous sums of the terms [lo_t, hi_t] per cell index < size: one
    zero-padded row per cell and endpoint, all through one compensated
    row sum."""
    counts = np.bincount(cell, minlength=size)
    order = np.argsort(cell, kind="stable")
    cell = cell[order]
    pos = np.arange(cell.size) - (np.cumsum(counts) - counts)[cell]
    g = np.zeros((2, size, max(int(counts.max()), 1)))
    g[0, cell, pos], g[1, cell, pos] = lo[order], hi[order]
    lower, upper = dr._row_sums(g, exact=True)
    return lower[0], upper[1]


@dataclass(slots=True, eq=False)
class TaylorModel2:
    """Interval-coefficient polynomial enclosure over a (u, k) box.

    ``clo[i, j]``/``chi[i, j]`` bound the coefficient of k^i u^j; the model
    asserts g(u, k) in sum [c_ij] k^i u^j for every (u, k) in ``box``.
    ``ranges`` holds the monomial-range tables by (box, m, n) and is passed
    on to every derived model.  Instances are treated as immutable values.
    """

    clo: np.ndarray
    chi: np.ndarray
    box: Box2
    ranges: dict = field(default_factory=dict)

    @property
    def deg_k(self) -> int:
        return self.clo.shape[0] - 1

    @property
    def deg_u(self) -> int:
        return self.clo.shape[1] - 1

    def _like(self, clo, chi) -> "TaylorModel2":
        return TaylorModel2(clo, chi, self.box, self.ranges)

    def _table(self, m: int, n: int):
        """Monomial ranges of the box up to the degrees of a product of two
        degree-(m, n) models, built on first use."""
        key = (self.box, m, n)
        if key not in self.ranges:
            self.ranges[key] = _monomial_table(self.box, 2 * m, 2 * n)
        return self.ranges[key]

    # -- constructors ---------------------------------------------------

    @staticmethod
    def constant(c: Interval, box: Box2, degrees=_DEFAULT_DEGREES,
                 ranges: Optional[dict] = None) -> "TaylorModel2":
        m, n = degrees
        clo, chi = _zero_grids(m, n)
        clo[0, 0], chi[0, 0] = c.lo, c.hi
        return TaylorModel2(clo, chi, box, {} if ranges is None else ranges)

    @staticmethod
    def affine(
        box: Box2,
        degrees=_DEFAULT_DEGREES,
        const: Interval = Interval(0.0, 0.0),
        coef_u: Interval = Interval(0.0, 0.0),
        coef_ku: Interval = Interval(0.0, 0.0),
        ranges: Optional[dict] = None,
    ) -> "TaylorModel2":
        """Model of const + coef_u * u + coef_ku * (k u)."""
        m, n = degrees
        if m < 1 or n < 1:
            raise DomainError("affine models need degrees >= (1, 1)")
        clo, chi = _zero_grids(m, n)
        clo[0, 0], chi[0, 0] = const.lo, const.hi
        clo[0, 1], chi[0, 1] = coef_u.lo, coef_u.hi
        clo[1, 1], chi[1, 1] = coef_ku.lo, coef_ku.hi
        return TaylorModel2(clo, chi, box, {} if ranges is None else ranges)

    @staticmethod
    def variable_u(box: Box2, degrees=_DEFAULT_DEGREES) -> "TaylorModel2":
        return TaylorModel2.affine(box, degrees, coef_u=Interval(1.0, 1.0))

    @staticmethod
    def variable_ku(box: Box2, degrees=_DEFAULT_DEGREES, ranges=None) -> "TaylorModel2":
        return TaylorModel2.affine(box, degrees, coef_ku=Interval(1.0, 1.0), ranges=ranges)

    # -- queries ----------------------------------------------------------

    def coefficient(self, i: int, j: int) -> Interval:
        return Interval(float(self.clo[i, j]), float(self.chi[i, j]))

    def _nonzero(self):
        """Indices (i, j) and endpoints of the nonzero coefficients."""
        i, j = np.nonzero((self.clo != 0.0) | (self.chi != 0.0))
        return i, j, self.clo[i, j], self.chi[i, j]

    def nonzero_terms(self):
        for i, j, lo, hi in zip(*self._nonzero()):
            yield int(i), int(j), Interval(float(lo), float(hi))

    def range_enclosure(self) -> Interval:
        """Interval containing every value of the model over its box."""
        i, j, lo, hi = self._nonzero()
        rlo, rhi = self._table(self.deg_k, self.deg_u)
        return Interval(*dr._iv_dot_exact01(lo, hi, rlo[i, j], rhi[i, j]))

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
        if self.box != other.box:
            raise DomainError("TaylorModel2 operands must share a validity box")

    def _padded_to(self, m: int, n: int):
        clo, chi = _zero_grids(m, n)
        clo[: self.deg_k + 1, : self.deg_u + 1] = self.clo
        chi[: self.deg_k + 1, : self.deg_u + 1] = self.chi
        return clo, chi

    def __add__(self, other) -> "TaylorModel2":
        if isinstance(other, Interval):
            clo, chi = self.clo.copy(), self.chi.copy()
            lo, hi = dr.iv_add(clo[0, 0], chi[0, 0], other.lo, other.hi)
            clo[0, 0], chi[0, 0] = lo, hi
            return self._like(clo, chi)
        if isinstance(other, (int, float)):
            return self + Interval.point(float(other))
        self._check_compatible(other)
        m = max(self.deg_k, other.deg_k)
        n = max(self.deg_u, other.deg_u)
        return self._like(*dr.iv_add(*self._padded_to(m, n), *other._padded_to(m, n)))

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
        return self._like(*dr._iv_mul_exact01(self.clo, self.chi, c.lo, c.hi))

    def __mul__(self, other) -> "TaylorModel2":
        """Product truncated at the larger degrees (m, n): one outer product
        of the nonzero coefficients; products of degree <= (m, n) are summed
        per coefficient, the rest bounded by their monomial ranges and
        summed into the constant coefficient."""
        if isinstance(other, Interval):
            return self.scale(other)
        if isinstance(other, (int, float)):
            return self.scale(Interval.point(float(other)))
        self._check_compatible(other)
        m = max(self.deg_k, other.deg_k)
        n = max(self.deg_u, other.deg_u)
        ia, ja, alo, ahi = self._nonzero()
        ib, jb, blo, bhi = other._nonzero()
        plo, phi = (t.ravel() for t in dr._iv_mul_exact01(alo[:, None], ahi[:, None], blo, bhi))
        ti, tj = (ia[:, None] + ib).ravel(), (ja[:, None] + jb).ravel()
        over, size = (ti > m) | (tj > n), (m + 1) * (n + 1)
        if over.any():
            rlo, rhi = self._table(m, n)
            ri, rj = ti[over], tj[over]
            plo[over], phi[over] = dr._iv_mul_exact01(plo[over], phi[over], rlo[ri, rj], rhi[ri, rj])
        # cell `size` collects the truncated terms, bounded over the box
        lo, hi = _cell_sums(np.where(over, size, ti * (n + 1) + tj), plo, phi, size + 1)
        if lo[size] != 0.0 or hi[size] != 0.0:
            lo[0], hi[0] = dr.iv_add(lo[0], hi[0], lo[size], hi[size])
        return self._like(lo[:size].reshape(m + 1, n + 1), hi[:size].reshape(m + 1, n + 1))

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
            return TaylorModel2.constant(Interval(1.0, 1.0), self.box,
                                         (self.deg_k, self.deg_u), self.ranges)
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


def _factorial(p: int) -> Interval:
    """p! enclosed outward (a point for p <= 22, where it is a float)."""
    return Interval(*rational(math.factorial(p), 1))


def _series_and_remainder(fn: str, t0: float, r: Interval, order: int):
    """Taylor coefficients of fn about t0 and a remainder bound over r.

    Returns (coeffs, remainder) with coeffs[p] enclosing fn^(p)(t0)/p! and
    remainder an interval containing fn^(order+1)(xi)/(order+1)! * (t-t0)^(order+1)
    for all t, xi in r.
    """
    if order > MAX_DEGREE:
        raise DomainError(f"series order {order} exceeds MAX_DEGREE = {MAX_DEGREE}")
    t0_iv = Interval.point(t0)
    dev = r - t0_iv
    dev_mag = Interval(0.0, dev.mag())
    p1 = order + 1
    coeffs: list[Interval] = []
    if fn == "exp":
        base = t0_iv.exp()
        for p in range(order + 1):
            coeffs.append(base / _factorial(p))
        rem_mag = (r.exp() * dev_mag.pow_int(p1) / _factorial(p1)).hi
    elif fn == "log":
        if r.lo <= 0.0:
            raise DomainError(f"log composition on range touching zero: {r}")
        coeffs.append(t0_iv.log())
        for p in range(1, order + 1):
            c = Interval(1.0, 1.0) / (t0_iv.pow_int(p) * float(p))
            coeffs.append(c if p % 2 == 1 else -c)
        rem_mag = ((dev_mag / Interval.point(r.lo)).pow_int(p1) / float(p1)).hi
    elif fn == "sqrt":
        if r.lo <= 0.0:
            raise DomainError(f"sqrt composition on range touching zero: {r}")
        coeffs.append(t0_iv.sqrt())
        for p in range(1, order + 1):
            # binom(1/2, p) = binom(1/2, p - 1) (3 - 2p) / (2p)
            c = coeffs[-1] * _SQRT_RATIOS[p]
            coeffs.append(c / t0_iv)
        # |f^(p1)(xi)| / p1! <= |prod (1/2 - q)| / p1! * xi^(1/2 - p1)
        fac = Interval(1.0, 1.0)
        for q in range(p1):
            fac = fac * abs(Interval.point(0.5 - q))
        lo_iv = Interval.point(r.lo)
        rem_mag = (fac / _factorial(p1) * lo_iv.sqrt() / lo_iv.pow_int(p1)
                   * dev_mag.pow_int(p1)).hi
    elif fn in ("sin", "cos"):
        s, c = t0_iv.sin(), t0_iv.cos()
        cycle = [s, c, -s, -c] if fn == "sin" else [c, -s, -c, s]
        for p in range(order + 1):
            coeffs.append(cycle[p % 4] / _factorial(p))
        rem_mag = (dev_mag.pow_int(p1) / _factorial(p1)).hi
    elif fn == "recip":
        if r.contains(0.0):
            raise DomainError(f"reciprocal of model whose range contains zero: {r}")
        for p in range(order + 1):
            c = Interval(1.0, 1.0) / t0_iv.pow_int(p + 1)
            coeffs.append(c if p % 2 == 0 else -c)
        near = min(abs(r.lo), abs(r.hi))
        rem_mag = ((dev_mag / Interval.point(near)).pow_int(p1) / Interval.point(near)).hi
    else:
        raise UnsupportedError(f"no Taylor-model composition for {fn!r}")
    return coeffs, Interval(-rem_mag, rem_mag)


def _compose_series(model: TaylorModel2, fn: str) -> TaylorModel2:
    r = model.range_enclosure()
    t0 = r.mid()
    order = max(model.deg_k, model.deg_u)
    coeffs, remainder = _series_and_remainder(fn, t0, r, order)
    shifted = model - Interval.point(t0)
    acc = TaylorModel2.constant(coeffs[order], model.box, (model.deg_k, model.deg_u),
                                model.ranges)
    for p in range(order - 1, -1, -1):
        acc = acc * shifted + coeffs[p]
    return acc + remainder


# ---------------------------------------------------------------------------
# Spec-facing front ends
# ---------------------------------------------------------------------------


def tm_from_expr(f, box: Box2, degrees=_DEFAULT_DEGREES) -> TaylorModel2:
    """Model of (u, k) -> f(u, k*u) over the box (substitution x=u, y=k*u)."""
    from . import expr as _expr

    x = TaylorModel2.variable_u(box, degrees)
    y = TaylorModel2.variable_ku(box, degrees, x.ranges)
    return _expr.eval_tm(f, x, y)


def tm_compose_elem(fn: str, a: TaylorModel2) -> TaylorModel2:
    return _compose_series(a, fn)
