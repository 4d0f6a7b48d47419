"""Interval arrays: (lo, hi) float64 ndarray pairs, rounded outward.

The one module that knows how an interval array is stored and rounded:
endpoints are nudged outward by one ulp, so exact arithmetic stays exact.
The nudge equals ``np.nextafter`` bit for bit.  One stepper,
``_ulp_step``, moves floats n ulps at once by an integer step on the
int64 view (a float's neighbour is the next integer, toward or away from
zero by its sign), with n ``np.nextafter`` passes only where that step
does not move the float the right way: across zero, past an infinity and
at NaN.  It serves the one-ulp nudges on arrays of at least
``_ULP_STEP_MIN`` elements and the n-ulp libm nudges of every size.
TwoSum-compensated sums nudge only where the rounding error is nonzero,
which implies a finite nonzero sum, so there the step is a plain integer
add.

* The plain ops ``iv_add``, ``iv_sub``, ``iv_mul``, ``iv_div``, ``iv_sqr``,
  ``iv_log`` and ``iv_dot`` take the endpoints as separate arrays.  The
  boundary search (``mfs``, ``fundsol``) calls them: its bounds need only
  be sound, so it takes the fewest numpy passes.
* The parity ops, private ``_iv_*`` names on (lo, hi) pairs (and
  ``iv_sqr``), equal the scalar :class:`~greenbound.interval.Interval`
  operation bit for bit: its exact-0 and exact-1 rules, sign rules and
  libm per element.  ``taylor`` and ``quad`` call them, so that a member
  of a batch, or a fan of an array pass, gets the bits it would get alone.
  They broadcast: flags such as the exact-0 and exact-1 tests are taken on
  the operands before broadcasting, so an outer product of two short
  coefficient lists tests each coefficient once.
* Every sum of many terms is one rigorous row sum, ``_row_sums``: running
  sums with their exact TwoSum errors, and an a-priori bound on the sum of
  those errors.  A row's bounds depend only on its own terms, whatever
  else shares the array: ``iv_dot`` (weighted rows) and ``_iv_sums``
  (interval rows) go through it.  Rows of different lengths share one
  pass when ``_width_classes`` puts them in one class: padded with
  trailing -0.0 to the longest of the class and given their own lengths,
  they keep their bits.

Products form their four endpoint products in three buffers, and no op
uses a masked ufunc (``where=``), which numpy runs several times slower
than the plain op it masks.
"""

from __future__ import annotations

import math

import numpy as np

from . import interval as _iv
from .errors import DomainError

_INF = np.inf
_NP_LIBM_ULPS = 4
_ETA = 5e-324  # smallest positive subnormal

# Below this many elements one np.nextafter call is faster than the
# integer step's five passes.
_ULP_STEP_MIN = 600


def _ulp_step(x: np.ndarray, n: int) -> np.ndarray:
    """x moved |n| ulps toward +inf (n > 0) or -inf (n < 0), bit for bit
    as |n| ``np.nextafter`` passes, on the int64 view of an array x of at
    least one dimension: b + 1 moves a float with the sign bit clear away
    from zero and one with it set toward zero, so the step is
    b + n (1 | (b >> 63)).  A step across zero or past an infinity lands
    on a NaN pattern, so where the stepped value does not lie strictly
    beyond x (x NaN too) the passes decide."""
    b = x.view(np.int64)
    step = b >> 63
    step |= 1
    if abs(n) != 1:
        step *= abs(n)
    (np.add if n > 0 else np.subtract)(b, step, out=step)
    y = step.view(np.float64)
    ok = y > x if n > 0 else y < x
    if not ok.all():
        bad = ~ok
        z, target = x[bad], _INF if n > 0 else -_INF
        for _ in range(abs(n)):
            z = np.nextafter(z, target)
        y[bad] = z
    return y


def next_down(x: np.ndarray) -> np.ndarray:
    if not _iv._outward_rounding:
        return x
    if not isinstance(x, np.ndarray) or x.size < _ULP_STEP_MIN:
        return np.nextafter(x, -_INF)
    return _ulp_step(x, -1)


def next_up(x: np.ndarray) -> np.ndarray:
    if not _iv._outward_rounding:
        return x
    if not isinstance(x, np.ndarray) or x.size < _ULP_STEP_MIN:
        return np.nextafter(x, _INF)
    return _ulp_step(x, 1)


def _down_n(x: np.ndarray, n: int) -> np.ndarray:
    return _ulp_step(x, -n) if _iv._outward_rounding else x


def _up_n(x: np.ndarray, n: int) -> np.ndarray:
    return _ulp_step(x, n) if _iv._outward_rounding else x


def _sum_nudged(a, b, down: bool):
    """fl(a + b) moved one ulp toward -inf (``down``) or +inf where the
    TwoSum error of the sum points that way.  A nonzero error means a
    finite nonzero sum, whose neighbour is the int64 view plus or minus
    one (``_ulp_step``), so no NaN or infinity check is needed.  a or b
    is an array of at least one dimension, so that the sum is an array
    the step can write into."""
    s = np.add(a, b)
    if not _iv._outward_rounding:
        return s
    # err = (a - (s - bv)) + (b - bv) with bv = s - a, in two buffers
    bv = s - a
    err = s - bv
    np.subtract(a, err, out=err)
    np.subtract(b, bv, out=bv)
    err += bv
    del bv
    inexact = err < 0.0 if down else err > 0.0
    bits, step = s.view(np.int64), err.view(np.int64)
    np.right_shift(bits, 63, out=step)
    step |= 1
    step *= inexact  # a multiply: a masked ufunc (where=) is several times slower
    (np.subtract if down else np.add)(bits, step, out=bits)
    return s


def _sum_down(a, b):
    """Largest float array <= a + b elementwise (TwoSum-compensated)."""
    return _sum_nudged(a, b, down=True)


def _sum_up(a, b):
    return _sum_nudged(a, b, down=False)


def iv_add(alo, ahi, blo, bhi):
    return _sum_down(alo, blo), _sum_up(ahi, bhi)


def iv_sub(alo, ahi, blo, bhi):
    return _sum_down(alo, -bhi), _sum_up(ahi, -blo)


def iv_mul(alo, ahi, blo, bhi):
    """Interval product: the extremes of the four endpoint products, formed
    in three buffers (lo and hi of each operand share a shape)."""
    lo, r = alo * blo, alo * bhi
    if not isinstance(lo, np.ndarray):  # scalar operands
        lo, r = np.array(lo), np.array(r)
    hi = np.maximum(lo, r, out=np.empty_like(lo))
    np.minimum(lo, r, out=lo)
    np.multiply(ahi, blo, out=r)
    np.minimum(lo, r, out=lo)
    np.maximum(hi, r, out=hi)
    np.multiply(ahi, bhi, out=r)
    np.minimum(lo, r, out=lo)
    np.maximum(hi, r, out=hi)
    del r
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
    0.  The operands may broadcast against each other; each rule is
    tested on the operands as given."""
    (alo, ahi), (blo, bhi) = a, b
    lo, hi = iv_mul(alo, ahi, blo, bhi)
    # max(lo, 0) for factors of one sign: lo <= 0 there only after a zero
    # or underflowing product, so it is rarely needed
    fix = (lo <= 0.0) & (((alo >= 0.0) & (blo >= 0.0)) | ((ahi <= 0.0) & (bhi <= 0.0)))
    if fix.any():
        lo = np.where(fix, 0.0, lo)
    del fix
    # later rules win: a factor of exactly 1 (b before a), then one of 0
    zero_a, zero_b = _point(a, 0.0), _point(b, 0.0)
    zero = zero_a if zero_b is None else zero_b if zero_a is None else zero_a | zero_b
    for hit, vlo, vhi in ((_point(a, 1.0), blo, bhi), (_point(b, 1.0), alo, ahi),
                          (zero, 0.0, 0.0)):
        if hit is not None:
            lo, hi = np.where(hit, vlo, lo), np.where(hit, vhi, hi)
    return lo, hi


def _point(a, v: float):
    """Where the interval array a = (lo, hi) is the point v, or None where
    it nowhere is."""
    hit = np.equal(a[0], v)
    return (hit & np.equal(a[1], v)) if hit.any() else None


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


def _row_sums(x: np.ndarray, exact: bool = False,
              lengths=None) -> tuple[np.ndarray, np.ndarray]:
    """Float bounds (lower, upper) of the exact sum of each row of x.

    ``np.cumsum`` forms the running sums c_i = fl(c_(i-1) + x_i) in order
    (ufunc accumulate semantics); the TwoSum errors e_i = c_(i-1) + x_i -
    c_i are computed exactly, so sum x = c_n + sum e_i exactly.  Only the
    sum of the tiny e_i is bounded a priori (``_sum_error_factor``), plus
    one smallest subnormal in case that bound's product underflows.  With
    ``exact``, a row whose e_i are all zero returns its sum c_n as both
    bounds, so a row with a single nonzero entry stays that entry.  Rows
    are independent: a row's bounds are those it gets alone.

    ``lengths`` (integers broadcasting against the rows) gives each row's
    own number of terms, when rows of one ``_width_classes`` class come
    padded with trailing -0.0: each row then gets the bits it gets alone,
    unpadded.
    """
    w = x.shape[-1]
    if not w:
        z = np.zeros(x.shape[:-1])
        return z, z
    if exact and w == 1:  # a single term is its own sum
        return x[..., 0], x[..., 0]
    top, es, abs_err = _row_errors(x)
    if not _iv._outward_rounding:
        return top + es, top + es
    if lengths is None:
        factor = _sum_error_factor(w - 1)
    else:
        factor = np.array([_sum_error_factor(n - 1) for n in np.ravel(lengths).tolist()])
        factor = factor.reshape(np.shape(lengths))
    eb = next_up(factor * abs_err) + _ETA
    lo, hi = _sum_down(top, next_down(es - eb)), _sum_up(top, next_up(es + eb))
    if exact:
        clean = abs_err == 0.0
        if lengths is not None:  # a padded single term: c_n is that term, also an infinite one
            clean |= np.equal(lengths, 1)
        return np.where(clean, top, lo), np.where(clean, top, hi)
    return lo, hi


def _row_errors(x):
    """(c_n, sum e_i, sum |e_i|) of the rows of x, as ``_row_sums``
    describes them, the sums by numpy's pairwise ``sum``."""
    c = x.cumsum(axis=-1)
    a, b, s = c[..., :-1], x[..., 1:], c[..., 1:]
    # err = (a - (s - bv)) + (b - bv) with bv = s - a, in two buffers
    bv = s - a
    err = s - bv
    np.subtract(a, err, out=err)
    np.subtract(b, bv, out=bv)
    err += bv
    del bv
    es = err.sum(axis=-1)
    return c[..., -1], es, np.abs(err, out=err).sum(axis=-1)


def _iv_sums(a, exact: bool = True, lengths=None):
    """Bounds of the sums of the interval array a = (lo, hi) over its last
    axis: ``_row_sums(..., exact, lengths)`` of the rows of lo and of hi,
    in one pass."""
    lower, upper = _row_sums(np.asarray(a), exact, lengths)
    return lower[0], upper[1]


def _width_classes(lengths) -> list:
    """Indices of the rows of ``lengths`` terms (those with at least one),
    grouped so that every row of a group, padded with trailing -0.0 to the
    group's longest, sums by ``_row_sums(..., lengths=...)`` to the bits it
    gets alone.

    Padding appends +0.0 error terms, and numpy sums a row of L error
    terms pairwise: below 8 terms in order, from 8 to 128 terms in eight
    interleaved partial sums over the first 8 (L // 8) terms and then in
    order, and above 128 by halving.  So trailing zeros change no bit of
    a sum with L < 8, nor within one block 8 q <= L < 8 q + 8 (q <= 16),
    and a longer row keeps its own width.  (The sum of zeros may turn a
    -0.0 error sum into +0.0, which the outward bound ignores.)
    """
    lengths = np.asarray(lengths)
    errs = lengths - 1
    key = np.where(errs < 8, 0, np.where(errs <= 128, errs // 8, lengths + 16))
    key = np.where(lengths > 0, key, -1)
    return [np.flatnonzero(key == k) for k in sorted(set(key.tolist())) if k >= 0]


def iv_dot(weights, lo, hi):
    """Rigorous enclosure of sum_k w_k [lo_k, hi_k] over the last axis.

    ``weights`` are exact floats broadcasting against ``lo``/``hi``; the
    result has the shape of ``lo`` without its last axis.  The products
    are rounded outward, except those by a weight of exactly 0 or +-1,
    which are exact, and the rows of lower and upper products are summed
    in one ``_row_sums`` pass.
    """
    pos = weights >= 0.0
    wlo, whi = weights * lo, weights * hi
    t = np.stack((np.where(pos, wlo, whi), np.where(pos, whi, wlo)))
    del wlo, whi
    exact = (weights == 0.0) | (np.abs(weights) == 1.0)
    t[0] = np.where(exact, t[0], next_down(t[0]))
    t[1] = np.where(exact, t[1], next_up(t[1]))
    return _iv_sums(t, exact=False)
