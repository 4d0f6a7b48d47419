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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _directed as dr
from .errors import DomainError, UnsupportedError
from .interval import Box2, Interval, intersect

__all__ = ["TaylorModel2", "tm_from_expr", "tm_compose_elem"]

_DEFAULT_DEGREES = (8, 8)


def _zero_grids(m: int, n: int):
    return np.zeros((m + 1, n + 1)), np.zeros((m + 1, n + 1))


@dataclass(slots=True, eq=False)
class TaylorModel2:
    """Interval-coefficient polynomial enclosure over a (u, k) box.

    ``clo[i, j]``/``chi[i, j]`` bound the coefficient of k^i u^j; the model
    asserts g(u, k) in sum [c_ij] k^i u^j for every (u, k) in ``box``.
    Instances are treated as immutable values.
    """

    clo: np.ndarray
    chi: np.ndarray
    box: Box2

    @property
    def deg_k(self) -> int:
        return self.clo.shape[0] - 1

    @property
    def deg_u(self) -> int:
        return self.clo.shape[1] - 1

    # -- constructors ---------------------------------------------------

    @staticmethod
    def constant(c: Interval, box: Box2, degrees=_DEFAULT_DEGREES) -> "TaylorModel2":
        m, n = degrees
        clo, chi = _zero_grids(m, n)
        clo[0, 0] = c.lo
        chi[0, 0] = c.hi
        return TaylorModel2(clo, chi, box)

    @staticmethod
    def affine(
        box: Box2,
        degrees=_DEFAULT_DEGREES,
        const: Interval = Interval(0.0, 0.0),
        coef_u: Interval = Interval(0.0, 0.0),
        coef_ku: Interval = Interval(0.0, 0.0),
    ) -> "TaylorModel2":
        """Model of const + coef_u * u + coef_ku * (k u)."""
        m, n = degrees
        if m < 1 or n < 1:
            raise DomainError("affine models need degrees >= (1, 1)")
        clo, chi = _zero_grids(m, n)
        clo[0, 0], chi[0, 0] = const.lo, const.hi
        clo[0, 1], chi[0, 1] = coef_u.lo, coef_u.hi
        clo[1, 1], chi[1, 1] = coef_ku.lo, coef_ku.hi
        return TaylorModel2(clo, chi, box)

    @staticmethod
    def variable_u(box: Box2, degrees=_DEFAULT_DEGREES) -> "TaylorModel2":
        return TaylorModel2.affine(box, degrees, coef_u=Interval(1.0, 1.0))

    @staticmethod
    def variable_ku(box: Box2, degrees=_DEFAULT_DEGREES) -> "TaylorModel2":
        return TaylorModel2.affine(box, degrees, coef_ku=Interval(1.0, 1.0))

    # -- queries ----------------------------------------------------------

    def coefficient(self, i: int, j: int) -> Interval:
        return Interval(float(self.clo[i, j]), float(self.chi[i, j]))

    def nonzero_terms(self):
        mask = ~((self.clo == 0.0) & (self.chi == 0.0))
        for i, j in zip(*np.nonzero(mask)):
            yield int(i), int(j), Interval(float(self.clo[i, j]), float(self.chi[i, j]))

    def range_enclosure(self) -> Interval:
        """Interval containing every value of the model over its box."""
        total = Interval(0.0, 0.0)
        for i, j, c in self.nonzero_terms():
            total = total + c * _monomial_range(self.box, i, j)
        return total

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

    def _padded_to(self, m: int, n: int) -> "TaylorModel2":
        if self.deg_k == m and self.deg_u == n:
            return self
        clo, chi = _zero_grids(m, n)
        clo[: self.clo.shape[0], : self.clo.shape[1]] = self.clo
        chi[: self.chi.shape[0], : self.chi.shape[1]] = self.chi
        return TaylorModel2(clo, chi, self.box)

    def __add__(self, other) -> "TaylorModel2":
        if isinstance(other, Interval):
            clo, chi = self.clo.copy(), self.chi.copy()
            lo, hi = dr.iv_add(clo[0, 0], chi[0, 0], other.lo, other.hi)
            clo[0, 0], chi[0, 0] = lo, hi
            return TaylorModel2(clo, chi, self.box)
        if isinstance(other, (int, float)):
            return self + Interval.point(float(other))
        self._check_compatible(other)
        m = max(self.deg_k, other.deg_k)
        n = max(self.deg_u, other.deg_u)
        a, b = self._padded_to(m, n), other._padded_to(m, n)
        lo, hi = dr.iv_add(a.clo, a.chi, b.clo, b.chi)
        return TaylorModel2(lo, hi, self.box)

    __radd__ = __add__

    def __neg__(self) -> "TaylorModel2":
        return TaylorModel2(-self.chi, -self.clo, self.box)

    def __sub__(self, other) -> "TaylorModel2":
        if isinstance(other, (int, float, Interval)):
            return self + (-Interval._coerce(other))
        return self + (-other)

    def __rsub__(self, other) -> "TaylorModel2":
        return (-self) + other

    def scale(self, c: Interval) -> "TaylorModel2":
        if c.lo == 0.0 and c.hi == 0.0:
            lo, hi = _zero_grids(self.deg_k, self.deg_u)
            return TaylorModel2(lo, hi, self.box)
        lo, hi = dr.iv_mul(self.clo, self.chi, c.lo, c.hi)
        zero = (self.clo == 0.0) & (self.chi == 0.0)
        lo[zero] = 0.0
        hi[zero] = 0.0
        return TaylorModel2(lo, hi, self.box)

    def __mul__(self, other) -> "TaylorModel2":
        if isinstance(other, Interval):
            return self.scale(other)
        if isinstance(other, (int, float)):
            return self.scale(Interval.point(float(other)))
        self._check_compatible(other)
        m = max(self.deg_k, other.deg_k)
        n = max(self.deg_u, other.deg_u)
        a, b = self._padded_to(m, n), other._padded_to(m, n)
        out_lo, out_hi = _zero_grids(m, n)
        overflow = Interval(0.0, 0.0)
        for i2, j2, cb in b.nonzero_terms():
            # in-range block of a shifted by (i2, j2)
            mi, nj = m - i2, n - j2
            if mi >= 0 and nj >= 0:
                blk_lo, blk_hi = dr.iv_mul(
                    a.clo[: mi + 1, : nj + 1], a.chi[: mi + 1, : nj + 1], cb.lo, cb.hi
                )
                zero = (a.clo[: mi + 1, : nj + 1] == 0.0) & (
                    a.chi[: mi + 1, : nj + 1] == 0.0
                )
                blk_lo[zero] = 0.0
                blk_hi[zero] = 0.0
                tgt_lo = out_lo[i2:, j2:]
                tgt_hi = out_hi[i2:, j2:]
                new_lo, new_hi = dr.iv_add(tgt_lo, tgt_hi, blk_lo, blk_hi)
                exact = (tgt_lo == 0.0) & (tgt_hi == 0.0)
                out_lo[i2:, j2:] = np.where(exact, blk_lo, new_lo)
                out_hi[i2:, j2:] = np.where(exact, blk_hi, new_hi)
            # out-of-range terms: bound over the box, absorb later
            for i1, j1, ca in a.nonzero_terms():
                ti, tj = i1 + i2, j1 + j2
                if ti <= m and tj <= n:
                    continue
                overflow = overflow + (ca * cb) * _monomial_range(self.box, ti, tj)
        if overflow.lo != 0.0 or overflow.hi != 0.0:
            lo, hi = dr.iv_add(out_lo[0, 0], out_hi[0, 0], overflow.lo, overflow.hi)
            out_lo[0, 0], out_hi[0, 0] = lo, hi
        return TaylorModel2(out_lo, out_hi, self.box)

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
            return TaylorModel2.constant(
                Interval(1.0, 1.0), self.box, (self.deg_k, self.deg_u)
            )
        result = None
        base = self
        while n > 0:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return result


def _monomial_range(box: Box2, i: int, j: int) -> Interval:
    """Range of k^i u^j over the box, bounded in coupled form.

    Writing the monomial as (ku)^a * u^b or (ku)^a * k^b keeps the bound
    proportional to physical extents even when the k interval is wide.
    """
    if i == 0 and j == 0:
        return Interval(1.0, 1.0)
    ku = box.k * box.u
    if j >= i:
        coupled = ku.pow_int(i) * box.u.pow_int(j - i)
    else:
        coupled = ku.pow_int(j) * box.k.pow_int(i - j)
    decoupled = box.k.pow_int(i) * box.u.pow_int(j)
    return intersect(coupled, decoupled)


# ---------------------------------------------------------------------------
# Elementary composition via truncated Taylor series + Lagrange remainder
# ---------------------------------------------------------------------------


def _factorial(p: int) -> float:
    return float(math.factorial(p))


def _series_and_remainder(fn: str, t0: float, r: Interval, order: int):
    """Taylor coefficients of fn about t0 and a remainder bound over r.

    Returns (coeffs, remainder) with coeffs[p] enclosing fn^(p)(t0)/p! and
    remainder an interval containing fn^(order+1)(xi)/(order+1)! * (t-t0)^(order+1)
    for all t, xi in r.
    """
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
            # binom(1/2, p) = binom(1/2, p - 1) (1/2 - (p - 1)) / p; the
            # quotient is inexact for most p, so it is enclosed, not rounded
            c = coeffs[-1] * (Interval.point(0.5 - (p - 1)) / float(p))
            coeffs.append(c / t0_iv)
        # |f^(p1)(xi)| / p1! <= |prod (1/2 - q)| / p1! * xi^(1/2 - p1)
        fac = Interval(1.0, 1.0)
        for q in range(p1):
            fac = fac * abs(Interval.point(0.5 - q))
        lo_iv = Interval.point(r.lo)
        rem_mag = (
            fac / _factorial(p1) * lo_iv.sqrt() / lo_iv.pow_int(p1)
            * dev_mag.pow_int(p1)
        ).hi
    elif fn in ("sin", "cos"):
        cycle = (
            [t0_iv.sin(), t0_iv.cos(), -t0_iv.sin(), -t0_iv.cos()]
            if fn == "sin"
            else [t0_iv.cos(), -t0_iv.sin(), -t0_iv.cos(), t0_iv.sin()]
        )
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
        rem_mag = (
            (dev_mag / Interval.point(near)).pow_int(p1) / Interval.point(near)
        ).hi
    else:
        raise UnsupportedError(f"no Taylor-model composition for {fn!r}")
    return coeffs, Interval(-rem_mag, rem_mag)


def _compose_series(model: TaylorModel2, fn: str) -> TaylorModel2:
    r = model.range_enclosure()
    t0 = r.mid()
    order = max(model.deg_k, model.deg_u)
    coeffs, remainder = _series_and_remainder(fn, t0, r, order)
    shifted = model - Interval.point(t0)
    acc = TaylorModel2.constant(coeffs[order], model.box, (model.deg_k, model.deg_u))
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
    y = TaylorModel2.variable_ku(box, degrees)
    return _expr.eval_tm(f, x, y)


def tm_compose_elem(fn: str, a: TaylorModel2) -> TaylorModel2:
    if fn == "abs" or fn in ("min", "max"):
        raise UnsupportedError(f"{fn} is not smooth; Taylor models unsupported")
    if fn == "pow_int":
        raise DomainError("use TaylorModel2.pow_int for integer powers")
    return _compose_series(a, fn)
