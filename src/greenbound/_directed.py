"""Interval arrays: (lo, hi) float64 ndarray pairs, rounded outward.

The one module that knows how an interval array is stored and rounded:
endpoints are nudged outward with ``np.nextafter``, so exact arithmetic
stays exact.

* The plain ops ``iv_add``, ``iv_sub``, ``iv_mul``, ``iv_div``, ``iv_sqr``,
  ``iv_log`` and ``iv_dot`` take the endpoints as separate arrays.  The
  boundary search (``mfs``, ``fundsol``) calls them: its bounds need only
  be sound, so it takes the fewest numpy passes.
* The parity ops, private ``_iv_*`` names on (lo, hi) pairs (and
  ``iv_sqr``), equal the scalar :class:`~greenbound.interval.Interval`
  operation bit for bit: its exact-0 and exact-1 rules, sign rules and
  libm per element.  ``taylor`` and ``quad`` call them, so that a member
  of a batch, or a fan of an array pass, gets the bits it would get alone.
* Every sum of many terms is one rigorous row sum, ``_row_sums``: running
  sums with their exact TwoSum errors, and an a-priori bound on the sum of
  those errors.  A row's bounds depend only on its own terms, whatever
  else shares the array: ``iv_dot`` (weighted rows), ``_iv_sums``
  (interval rows) and ``_ragged_row_sums`` (rows of different lengths)
  all go through it.
"""

from __future__ import annotations

import math

import numpy as np

from . import interval as _iv
from .errors import DomainError

_INF = np.inf
_NP_LIBM_ULPS = 4
_ETA = 5e-324  # smallest positive subnormal


def next_down(x: np.ndarray) -> np.ndarray:
    if not _iv._outward_rounding:
        return x
    return np.nextafter(x, -_INF)


def next_up(x: np.ndarray) -> np.ndarray:
    if not _iv._outward_rounding:
        return x
    return np.nextafter(x, _INF)


_INF_BITS = 0x7FF0_0000_0000_0000  # +inf viewed as int64
_SIGN_BITS = -(1 << 63)  # -0.0 viewed as int64
_NEG_INF_BITS = _SIGN_BITS + _INF_BITS


def _step_n(x: np.ndarray, n: int, down: bool) -> np.ndarray:
    """x moved n ulps toward -inf (``down``) or +inf, bit-identical to n
    ``np.nextafter`` passes.

    Viewed as int64, a positive float moves by -n (down) or +n (up) and a
    negative one by +n or -n.  Elements where that integer step would
    cross zero or pass an infinity, and NaNs, take the nextafter loop.
    """
    x = np.asarray(x, dtype=float)
    if not _iv._outward_rounding or n == 0:
        return x
    b = x.view(np.int64)
    pos = b >= 0
    if down:
        r = b + np.where(pos, -n, n)
        ok = np.where(pos, (b >= n) & (b <= _INF_BITS), b <= _NEG_INF_BITS - n)
    else:
        r = b + np.where(pos, n, -n)
        ok = np.where(pos, b <= _INF_BITS - n,
                      (b >= _SIGN_BITS + n) & (b <= _NEG_INF_BITS))
    out = np.where(ok, r, b).view(np.float64)
    bad = ~ok
    if bad.any():
        y, target = x[bad], -_INF if down else _INF
        for _ in range(n):
            y = np.nextafter(y, target)
        out[bad] = y
    return out


def _down_n(x: np.ndarray, n: int) -> np.ndarray:
    return _step_n(x, n, down=True)


def _up_n(x: np.ndarray, n: int) -> np.ndarray:
    return _step_n(x, n, down=False)


def _sum_down(a, b):
    """Largest float array <= a + b elementwise (TwoSum-compensated)."""
    s = a + b
    bv = s - a
    err = (a - (s - bv)) + (b - bv)
    return np.where(err < 0.0, next_down(s), s)


def _sum_up(a, b):
    s = a + b
    bv = s - a
    err = (a - (s - bv)) + (b - bv)
    return np.where(err > 0.0, next_up(s), s)


def iv_add(alo, ahi, blo, bhi):
    return _sum_down(alo, blo), _sum_up(ahi, bhi)


def iv_sub(alo, ahi, blo, bhi):
    return _sum_down(alo, -bhi), _sum_up(ahi, -blo)


def iv_mul(alo, ahi, blo, bhi):
    p1 = alo * blo
    p2 = alo * bhi
    p3 = ahi * blo
    p4 = ahi * bhi
    lo = np.minimum(np.minimum(p1, p2), np.minimum(p3, p4))
    hi = np.maximum(np.maximum(p1, p2), np.maximum(p3, p4))
    return next_down(lo), next_up(hi)


def iv_div(alo, ahi, blo, bhi):
    """Interval quotient; no divisor interval may contain zero."""
    if np.any((blo <= 0.0) & (bhi >= 0.0)):
        raise DomainError("division by interval array containing zero")
    q1 = alo / blo
    q2 = alo / bhi
    q3 = ahi / blo
    q4 = ahi / bhi
    lo = np.minimum(np.minimum(q1, q2), np.minimum(q3, q4))
    hi = np.maximum(np.maximum(q1, q2), np.maximum(q3, q4))
    return next_down(lo), next_up(hi)


def iv_sqr(lo, hi):
    a = np.abs(lo)
    b = np.abs(hi)
    lo_m = np.minimum(a, b)
    hi_m = np.maximum(a, b)
    straddles = (lo <= 0.0) & (hi >= 0.0)
    out_lo = np.where(straddles, 0.0, np.maximum(0.0, next_down(lo_m * lo_m)))
    out_hi = next_up(hi_m * hi_m)
    return out_lo, out_hi


def iv_log(lo, hi):
    if np.any(lo <= 0.0):
        raise DomainError("log of interval array touching nonpositive reals")
    return _down_n(np.log(lo), _NP_LIBM_ULPS), _up_n(np.log(hi), _NP_LIBM_ULPS)


# -- parity ops on (lo, hi) pairs ---------------------------------------------


def _iv_add_exact0(a, b):
    """``Interval.__add__``: an exact point 0 operand returns the other
    operand unchanged (zero signs included)."""
    (alo, ahi), (blo, bhi) = a, b
    lo, hi = iv_add(alo, ahi, blo, bhi)
    az = (alo == 0.0) & (ahi == 0.0)
    bz = (blo == 0.0) & (bhi == 0.0)
    return (np.where(bz, alo, np.where(az, blo, lo)),
            np.where(bz, ahi, np.where(az, bhi, hi)))


def _iv_neg(a):
    return -a[1], -a[0]


def _iv_sub_exact0(a, b):
    """``Interval.__sub__``: a plus the negation of b."""
    return _iv_add_exact0(a, _iv_neg(b))


def _iv_mul_exact01(a, b):
    """``Interval.__mul__``: a product by an exact point 0 or 1 is exact,
    and the lower end of a product of two factors of one sign is at least
    0."""
    (alo, ahi), (blo, bhi) = a, b
    lo, hi = iv_mul(alo, ahi, blo, bhi)
    same_sign = ((alo >= 0.0) & (blo >= 0.0)) | ((ahi <= 0.0) & (bhi <= 0.0))
    lo = np.where(same_sign, np.maximum(lo, 0.0), lo)
    zero = ((alo == 0.0) & (ahi == 0.0)) | ((blo == 0.0) & (bhi == 0.0))
    a1, b1 = (alo == 1.0) & (ahi == 1.0), (blo == 1.0) & (bhi == 1.0)
    lo = np.where(zero, 0.0, np.where(b1, alo, np.where(a1, blo, lo)))
    hi = np.where(zero, 0.0, np.where(b1, ahi, np.where(a1, bhi, hi)))
    return lo, hi


def _iv_div(a, b):
    """``Interval.__truediv__``; no divisor interval may contain zero."""
    return iv_div(*a, *b)


def _iv_powers(t, top: int) -> list:
    """[1, t, t^2, ..., t^top] as ``Interval.pow_int`` forms each power:
    t^e = t^(e - 2^h) * t^(2^h) for the top bit h of e, from the chain of
    tight squares t^(2^h)."""
    squares, out = [t], [(np.ones_like(t[0]), np.ones_like(t[1])), t]
    for e in range(2, top + 1):
        h = e.bit_length() - 1
        while len(squares) <= h:
            squares.append(iv_sqr(*squares[-1]))
        rest = e - (1 << h)
        out.append(squares[h] if rest == 0 else _iv_mul_exact01(out[rest], squares[h]))
    return out[:top + 1]


def _iv_sqrt(a):
    """``Interval.sqrt`` (IEEE sqrt is correctly rounded)."""
    lo, hi = a
    if np.any(lo < 0.0):
        raise DomainError("sqrt of interval array with negative part")
    return np.maximum(0.0, next_down(np.sqrt(lo))), next_up(np.sqrt(hi))


def _iv_libm(fn, a):
    """``Interval.log``, ``.exp`` or ``.atan`` (``fn`` math.log, math.exp
    or math.atan) per element of 1-D arrays, domain errors included."""
    lo, hi = a
    if fn is math.log and np.any(lo <= 0.0):
        raise DomainError("log of interval array touching nonpositive reals")
    n = _iv._LIBM_ULPS
    try:
        out_lo = _down_n(np.array([fn(v) for v in lo.tolist()], dtype=float), n)
        out_hi = _up_n(np.array([fn(v) for v in hi.tolist()], dtype=float), n)
        if np.any(np.isinf(out_hi)):  # exp near the largest float, nudged past it
            raise OverflowError
    except OverflowError:
        raise DomainError("exp overflow on an interval array") from None
    return (np.maximum(0.0, out_lo) if fn is math.exp else out_lo), out_hi


def _crit_points(t, base):
    """``interval._crit_in`` for the points t: whether some point of
    {base + 2 pi k : k integer} may equal t_i, per element."""
    two_pi = _iv.TWO_PI
    k_lo = np.floor((t - base.hi) / two_pi.lo) - 1.0
    k_hi = np.ceil((t - base.lo) / two_pi.lo) + 1.0
    hit = np.zeros(t.shape, dtype=bool)
    for d in range(int(np.max(k_hi - k_lo, initial=-1.0)) + 1):
        k = k_lo + d
        clo, chi = _iv_add_exact0(_ends(base), _iv_mul_exact01(_ends(two_pi), (k, k)))
        hit |= (k <= k_hi) & (chi >= t) & (clo <= t)
    return hit


def _iv_trig_points(fn, t):
    """``Interval.point(t_i).sin()`` (``fn`` math.sin) or ``.cos()``
    (math.cos) per element of the 1-D array t, bit for bit: the libm value
    padded by ``Interval``'s libm ulps, widened to 1 or -1 where a maximum
    or minimum of fn may sit at t_i."""
    max_at, min_at = (_iv.HALF_PI, -_iv.HALF_PI) if fn is math.sin else (_iv._ZERO, _iv.PI)
    n = _iv._LIBM_ULPS
    v = np.array([fn(x) for x in t.tolist()], dtype=float)
    lo, hi = _down_n(v, n), _up_n(v, n)
    hi = np.where(_crit_points(t, max_at), 1.0, hi)
    lo = np.where(_crit_points(t, min_at), -1.0, lo)
    return np.maximum(-1.0, lo), np.minimum(1.0, hi)


def _ends(c):
    """(lo, hi) of an Interval, or the (lo, hi) pair itself."""
    return (c.lo, c.hi) if isinstance(c, _iv.Interval) else c


def _take(a, idx):
    return a[0][idx], a[1][idx]


def _join(a, b):
    return np.concatenate((a[0], b[0])), np.concatenate((a[1], b[1]))


def _stack(pairs: list):
    """The pairs of a list, each over n entries, stacked along axis 1."""
    return np.stack([v[0] for v in pairs], axis=1), np.stack([v[1] for v in pairs], axis=1)


# -- rigorous row sums ---------------------------------------------------------


def _sum_error_factor(n: int) -> float:
    """Upper bound of x (1 + 3 x) for x = (n - 1) 2^-53.

    For n floats y_k, any summation order gives |fl(sum y_k) - sum y_k|
    <= gamma_(n-1) sum |y_k| (Higham, *Accuracy and Stability of
    Numerical Algorithms*, section 4.2), and sum |y_k| <= fl(sum |y_k|) /
    (1 - x).  With x <= 0.1 the error is therefore at most
    x / (1 - x)^2 fl(sum |y_k|) <= x (1 + 3 x) fl(sum |y_k|).
    """
    x = max(n - 1, 0) * 2.0**-53  # exact
    if x > 0.1:
        raise DomainError(f"too many terms ({n}) for the a-priori sum bound")
    return math.nextafter(x * math.nextafter(1.0 + 3.0 * x, _INF), _INF)


def _row_sums(x: np.ndarray, exact: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Float bounds (lower, upper) of the exact sum of each row of x.

    ``np.cumsum`` forms the running sums c_i = fl(c_(i-1) + x_i) in order
    (ufunc accumulate semantics); the TwoSum errors e_i = c_(i-1) + x_i -
    c_i are computed exactly, so sum x = c_n + sum e_i exactly.  Only the
    sum of the tiny e_i is bounded a priori (``_sum_error_factor``), plus
    one smallest subnormal in case that bound's product underflows.  With
    ``exact``, a row whose e_i are all zero returns its sum c_n as both
    bounds, so a row with a single nonzero entry stays that entry.  Rows
    are independent: a row's bounds are those it gets alone.
    """
    if not x.shape[-1]:
        z = np.zeros(x.shape[:-1])
        return z, z
    if exact and x.shape[-1] == 1:  # a single term is its own sum
        return x[..., 0], x[..., 0]
    c = x.cumsum(axis=-1)
    a, b, s = c[..., :-1], x[..., 1:], c[..., 1:]
    bv = s - a
    err = (a - (s - bv)) + (b - bv)
    top, es = c[..., -1], err.sum(axis=-1)
    if not _iv._outward_rounding:
        return top + es, top + es
    abs_err = np.abs(err).sum(axis=-1)
    eb = next_up(_sum_error_factor(err.shape[-1]) * abs_err) + _ETA
    lo, hi = _sum_down(top, next_down(es - eb)), _sum_up(top, next_up(es + eb))
    if exact:
        clean = abs_err == 0.0
        return np.where(clean, top, lo), np.where(clean, top, hi)
    return lo, hi


def _iv_sums(a):
    """Bounds of the sums of the interval array a = (lo, hi) over its last
    axis: ``_row_sums(..., exact=True)`` of the rows of lo and of hi."""
    lower, upper = _row_sums(np.asarray(a), exact=True)
    return lower[0], upper[1]


def _ragged_row_sums(lo, hi, row, counts, budget: int):
    """``_row_sums(..., exact=True)`` of ragged rows: the lower bound of
    the sum of ``lo`` and the upper bound of the sum of ``hi`` per row.

    Terms come grouped by row, in summation order (``row`` nondecreasing),
    and row r holds ``counts[r]`` of them.  Rows of one count are summed
    together at that width, in passes of at most ``budget`` elements, so
    each row gets the bits it gets alone.  Empty rows sum to 0.0."""
    order = np.argsort(counts[row], kind="stable")  # rows of one count side by side
    terms = np.stack((lo[order], hi[order]))
    rows = np.argsort(counts, kind="stable")
    widths, first = np.unique(counts[rows], return_index=True)
    ends = first.tolist()[1:] + [len(rows)]
    out = np.zeros((2, len(counts)))
    t0 = 0
    for w, a, b in zip(widths.tolist(), first.tolist(), ends):
        if not w:
            continue  # empty rows sum to 0.0
        step = max(1, budget // (2 * w))
        for s0 in range(a, b, step):
            chunk = rows[s0:min(s0 + step, b)]
            t1 = t0 + len(chunk) * w
            out[0, chunk], out[1, chunk] = _iv_sums(terms[:, t0:t1].reshape(2, len(chunk), w))
            t0 = t1
    return out[0], out[1]


def iv_dot(weights, lo, hi):
    """Rigorous enclosure of sum_k w_k [lo_k, hi_k] over the last axis.

    ``weights`` are exact floats broadcasting against ``lo``/``hi``; the
    result has the shape of ``lo`` without its last axis.  The products
    are rounded outward, except those by a weight of exactly 0 or +-1,
    which are exact, and each row is summed by ``_row_sums``.
    """
    pos = weights >= 0.0
    tlo = np.where(pos, weights * lo, weights * hi)
    thi = np.where(pos, weights * hi, weights * lo)
    exact = (weights == 0.0) | (np.abs(weights) == 1.0)
    tlo, thi = np.where(exact, tlo, next_down(tlo)), np.where(exact, thi, next_up(thi))
    return _row_sums(tlo)[0], _row_sums(thi)[1]
