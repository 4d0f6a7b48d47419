"""Fundamental solutions and the MFS candidate test function.

The 2D Laplace kernel is -(1/(2 pi)) log |x-s|, evaluated internally as
-(1/(4 pi)) log |x-s|^2 so no square root enters the hot path.  A test
function is

    phi^0(x) = Gamma(s_int, x) + sum_i a_i Gamma(s_i, x),

with the exterior sources forming the harmonic part.  Box evaluations over
all sources are vectorized with directed rounding.  The boundary
extrema m and M of phi^0 enter the enclosure only as constants, which the
pairing applies as offsets c * integral(f) + d
(:func:`greenbound.quad.pair_f_phi`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _directed as dr
from .errors import DomainError
from .interval import PI, Interval

__all__ = ["TestFunction2D", "gamma", "INV_2PI", "INV_4PI"]

INV_2PI = Interval(1.0, 1.0) / (PI * 2.0)
INV_4PI = Interval(1.0, 1.0) / (PI * 4.0)
NEG_INV_2PI = -INV_2PI
NEG_INV_4PI = -INV_4PI


def _as_interval(v) -> Interval:
    return v if isinstance(v, Interval) else Interval.point(float(v))


def log_kernel(d2: np.ndarray) -> np.ndarray:
    """Plain float64 Gamma from squared distances: -(1/(4 pi)) log d2.
    Off the rigorous path: the MFS collocation system and ``phi0_points``
    use it."""
    return (-0.25 / np.pi) * np.log(d2)


def gamma(s, x) -> Interval:
    """Rigorous enclosure of Gamma(s, x); x may be a point or a box."""
    sx, sy = float(s[0]), float(s[1])
    bx, by = x
    dx = _as_interval(bx) - sx
    dy = _as_interval(by) - sy
    d2 = dx.sqr() + dy.sqr()
    if d2.lo <= 0.0:
        raise DomainError(
            f"kernel evaluated on a region containing its source ({sx}, {sy})"
        )
    return d2.log() * NEG_INV_4PI


@dataclass(frozen=True)
class TestFunction2D:
    """Gamma(s_int, .) + sum_i a_i Gamma(s_i, .)."""

    s_int: tuple
    sources: np.ndarray  # (n, 2)
    coeffs: np.ndarray  # (n,)

    def __post_init__(self):
        src = np.asarray(self.sources, dtype=float).reshape(-1, 2)
        cof = np.asarray(self.coeffs, dtype=float).reshape(-1)
        if src.shape[0] != cof.shape[0]:
            raise DomainError("sources and coefficients must have equal length")
        object.__setattr__(self, "sources", src)
        object.__setattr__(self, "coeffs", cof)
        object.__setattr__(self, "s_int", (float(self.s_int[0]), float(self.s_int[1])))

    # -- rigorous evaluations -----------------------------------------

    def _sources_term(self, bx: Interval, by: Interval) -> Interval:
        if self.sources.shape[0] == 0:
            return Interval(0.0, 0.0)
        sx = self.sources[:, 0]
        sy = self.sources[:, 1]
        dxlo, dxhi = dr.iv_sub(bx.lo, bx.hi, sx, sx)
        dylo, dyhi = dr.iv_sub(by.lo, by.hi, sy, sy)
        x2lo, x2hi = dr.iv_sqr(dxlo, dxhi)
        y2lo, y2hi = dr.iv_sqr(dylo, dyhi)
        d2lo, d2hi = dr.iv_add(x2lo, x2hi, y2lo, y2hi)
        if np.any(d2lo <= 0.0):
            raise DomainError("evaluation region touches an exterior source point")
        llo, lhi = dr.iv_log(d2lo, d2hi)
        glo, ghi = dr.iv_mul(llo, lhi, NEG_INV_4PI.lo, NEG_INV_4PI.hi)
        return Interval(*map(float, dr.iv_dot(self.coeffs, glo, ghi)))

    def phi0_box(self, bx: Interval, by: Interval) -> Interval:
        """Enclosure of phi^0 = Gamma(s_int, .) + sum a_i Gamma(s_i, .)."""
        return gamma(self.s_int, (bx, by)) + self._sources_term(bx, by)

    def phi0_dir_deriv(
        self, bx: Interval, by: Interval, vx: Interval, vy: Interval
    ) -> Interval:
        """Enclosure of the derivative of t -> phi^0(p + t v) over a box.

        grad Gamma(s, x) . v = -(1/(2 pi)) ((x-s) . v) / |x-s|^2.
        """
        sx = np.concatenate(([self.s_int[0]], self.sources[:, 0]))
        sy = np.concatenate(([self.s_int[1]], self.sources[:, 1]))
        weights = np.concatenate(([1.0], self.coeffs))
        dxlo, dxhi = dr.iv_sub(bx.lo, bx.hi, sx, sx)
        dylo, dyhi = dr.iv_sub(by.lo, by.hi, sy, sy)
        x2lo, x2hi = dr.iv_sqr(dxlo, dxhi)
        y2lo, y2hi = dr.iv_sqr(dylo, dyhi)
        d2lo, d2hi = dr.iv_add(x2lo, x2hi, y2lo, y2hi)
        if np.any(d2lo <= 0.0):
            raise DomainError("derivative region touches a kernel source")
        pxlo, pxhi = dr.iv_mul(dxlo, dxhi, vx.lo, vx.hi)
        pylo, pyhi = dr.iv_mul(dylo, dyhi, vy.lo, vy.hi)
        nlo, nhi = dr.iv_add(pxlo, pxhi, pylo, pyhi)
        qlo, qhi = dr.iv_div(nlo, nhi, d2lo, d2hi)
        glo, ghi = dr.iv_mul(qlo, qhi, NEG_INV_2PI.lo, NEG_INV_2PI.hi)
        return Interval(*map(float, dr.iv_dot(weights, glo, ghi)))

    # -- approximate evaluations (candidate quality only) ---------------

    def phi0_points(self, pts: np.ndarray) -> np.ndarray:
        """Plain float64 phi^0 at an (m, 2) array of points."""
        pts = np.asarray(pts, dtype=float).reshape(-1, 2)
        d2_int = np.sum((pts - np.asarray(self.s_int)) ** 2, axis=1)
        vals = log_kernel(d2_int)
        if self.sources.shape[0]:
            diff = pts[:, None, :] - self.sources[None, :, :]
            vals = vals + log_kernel(np.sum(diff**2, axis=2)) @ self.coeffs
        return vals

