"""Correctness oracles that share no code with greenbound.

Each check takes plain floats and returns ``None`` when the output passes
or a one-line reason when it does not.  The reference values come from
closed forms in exact rational arithmetic, or from series evaluated in
mpmath interval arithmetic with a bounded tail, so a check can only fail
when the enclosure really misses the solution.
"""

from __future__ import annotations

import math
from fractions import Fraction

from mpmath import iv

_PREC = 120  # bits of the mpmath interval context


def _with_prec(fn):
    def wrapper(*args):
        saved = iv.prec
        iv.prec = _PREC
        try:
            return fn(*args)
        finally:
            iv.prec = saved
    wrapper.__doc__ = fn.__doc__
    return wrapper


@_with_prec
def rectangle_f1(x: float, y: float, x0: float, x1: float, y0: float, y1: float):
    """Interval (mpmath ``iv``) enclosing u(x, y) for -Laplace u = 1 on the
    rectangle [x0, x1] x [y0, y1] with u = 0 on its boundary.

    With half-sides A, B and (X, Y) relative to the centre,
    u = (A^2 - X^2)/2 - (16 A^2/pi^3) sum_{k odd} (-1)^((k-1)/2) / k^3
        cos(k pi X / 2A) cosh(k pi Y / 2A) / cosh(k pi B / 2A),
    and the terms from k = K on are bounded by
    32 A^2 / (pi^3 K^3) e^(-K r) / (1 - e^(-2r)), r = pi (B - |Y|) / 2A.
    The axes are swapped when that makes r larger.
    """
    A = (iv.mpf(x1) - iv.mpf(x0)) / 2
    B = (iv.mpf(y1) - iv.mpf(y0)) / 2
    X = iv.mpf(x) - (iv.mpf(x0) + iv.mpf(x1)) / 2
    Y = iv.mpf(y) - (iv.mpf(y0) + iv.mpf(y1)) / 2
    if not (abs(X).b <= A.a and abs(Y).b <= B.a):
        raise ValueError("point outside the rectangle")
    rate = float(((B - abs(Y)) / A).a)
    if float(((A - abs(X)) / B).a) > rate:
        A, B, X, Y = B, A, Y, X
        rate = float(((B - abs(Y)) / A).a)
    rate *= math.pi / 2
    if rate <= 0.0:  # on the boundary
        return iv.mpf(0)
    K = 2 * math.ceil(45.0 / rate) + 1  # e^(-K r) < 1e-39
    q = iv.pi / (2 * A)
    total = iv.mpf(0)
    for k in range(1, K, 2):
        a, b = k * q * Y, k * q * B
        ratio = (iv.exp(a - b) + iv.exp(-a - b)) / (1 + iv.exp(-2 * b))
        term = iv.cos(k * q * X) * ratio / k**3
        total = total + term if (k // 2) % 2 == 0 else total - term
    r = iv.mpf(rate)
    tail = 32 * A**2 / (iv.pi**3 * K**3) * iv.exp(-K * r) / (1 - iv.exp(-2 * r))
    return (A**2 - X**2) / 2 - 16 * A**2 / iv.pi**3 * total + iv.mpf([-tail.b, tail.b])


def _iv_text(v) -> str:
    return f"[{float(v.a)!r}, {float(v.b)!r}]"


def check_square_f1(x: float, y: float, lo: float, hi: float):
    """The series value on [-1/2, 1/2]^2 must lie inside [lo, hi]."""
    u = rectangle_f1(x, y, -0.5, 0.5, -0.5, 0.5)
    if lo <= u.a and u.b <= hi:
        return None
    return f"square series value {_iv_text(u)} not inside [{lo!r}, {hi!r}]"


def check_lshape_f1(x: float, y: float, lo: float, hi: float):
    """Domain monotonicity for f = 1 >= 0: u on an inner rectangle that
    holds the point <= u on the L-shape <= u on [-1, 1]^2, so the
    enclosure must meet that bracket."""
    lower = 0.0
    for rect in ((-1.0, 1.0, -1.0, 0.0), (-1.0, 0.0, -1.0, 1.0)):
        x0, x1, y0, y1 = rect
        if x0 <= x <= x1 and y0 <= y <= y1:
            lower = max(lower, float(rectangle_f1(x, y, *rect).a))
    upper = rectangle_f1(x, y, -1.0, 1.0, -1.0, 1.0).b
    if hi >= lower and lo <= upper:
        return None
    return f"L-shape enclosure [{lo!r}, {hi!r}] misses the bracket [{lower!r}, {float(upper)!r}]"


def check_ordered(lo: float, hi: float):
    """Lower <= upper and both finite: the only check for sources without
    a closed form."""
    if math.isfinite(lo) and math.isfinite(hi) and lo <= hi:
        return None
    return f"enclosure [{lo!r}, {hi!r}] is not a finite ordered interval"


# ---------------------------------------------------------------------------
# 1D: every node of the certified pair must bracket the exact solution
# ---------------------------------------------------------------------------


def u_const_one(x: Fraction) -> Fraction:
    """-u'' = 1 on (0, 1): u = x (1 - x) / 2."""
    return x * (1 - x) / 2


def u_jump(x: Fraction, b: Fraction, H: Fraction) -> Fraction:
    """-u'' = 1 on (0, b), H on (b, 1): u = (1 - x) A(x) + x B(x) with
    A(x) = int_0^x t f(t) dt and B(x) = int_x^1 (1 - t) f(t) dt."""
    if x <= b:
        A = x * x / 2
        B = ((1 - x) ** 2 - (1 - b) ** 2) / 2 + H * (1 - b) ** 2 / 2
    else:
        A = b * b / 2 + H * (x * x - b * b) / 2
        B = H * (1 - x) ** 2 / 2
    return (1 - x) * A + x * B


@_with_prec
def u_two_plus_sin3x(x: float):
    """-u'' = 2 + sin(3x) on (0, 1): u = x (1 - x) + (sin 3x - x sin 3) / 9."""
    X = iv.mpf(x)
    return X * (1 - X) + (iv.sin(3 * X) - X * iv.sin(iv.mpf(3))) / 9


def check_nodes_1d(source, h: float, lower, upper):
    """lower[i] <= u(i h) <= upper[i] at every node, where ``source`` is
    the generated 1D source: "1", "2+sin(3*x)" or a jump dictionary."""
    for i, (lo, hi) in enumerate(zip(lower, upper)):
        x = i * h
        if source == "2+sin(3*x)":
            u = u_two_plus_sin3x(x)
            ok = lo <= u.a and u.b <= hi
        else:
            if source == "1":
                u = u_const_one(Fraction(x))
            else:
                u = u_jump(Fraction(x), Fraction(source["breakpoints"][0]),
                           Fraction(source["pieces"][1]))
            ok = Fraction(lo) <= u <= Fraction(hi)
        if not ok:
            return f"node x={x!r}: [{lo!r}, {hi!r}] misses the exact solution"
    return None


def check_op(data: dict, point, result) -> str | None:
    """Check one op.  ``data`` is the generated batch (2D, with ``point``)
    or 1D op dictionary, ``result`` its ``OpResult``."""
    if result.error is not None:
        return result.error
    if "h" in data:
        return check_nodes_1d(data["source"], data["h"], result.lower, result.upper)
    lo, hi = result.bound
    bad = check_ordered(lo, hi)
    if bad is not None or data["source"] != "1":
        return bad
    if data["domain"] == "square":
        return check_square_f1(point[0], point[1], lo, hi)
    return check_lshape_f1(point[0], point[1], lo, hi)
