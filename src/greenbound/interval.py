"""Self-contained interval arithmetic with outward rounding.

Every operation returns an interval that is guaranteed to contain the exact
real-valued image of its input intervals.  Outward rounding is realized by
next-representable-value nudging after each floating-point operation instead
of switching the hardware rounding mode, so the module is safe under
unrestricted parallel use.  The scalar rules are functions of endpoint
floats (``_add``, ``_mul``, ``_div``, ``_mid``); the ``Interval``
operators wrap them, and the 1D engine calls them on (lo, hi) pairs.

Rounding policy
---------------
* ``+``/``-`` use an error-compensated sum (TwoSum) and nudge an endpoint
  only when the rounded result actually lies on the wrong side, so exact
  endpoint arithmetic stays exact.
* ``*``, ``/`` and ``sqrt`` are correctly rounded by IEEE 754; one ulp of
  outward nudging is a strict bound.
* libm transcendentals (``log``, ``exp``, ``sin``, ``cos``, ``atan``) are
  faithful but not correctly rounded; endpoints are nudged by
  ``_LIBM_ULPS`` ulps to cover the documented error of glibc's libm.
* ``sin``/``cos`` locate interior extrema through a rigorous two-interval
  enclosure of pi, so large arguments are handled correctly.

Range bounding
--------------
``lockstep_min_max`` runs any number of branch-and-bound searches as one
array search: the open boxes of all searches are one set of arrays with a
search-id column, grouped by search, each search's boxes in the order of
its solo run; witnesses, finalized bounds and evaluation counts hold one
entry per search.  Each level is one set of array passes and one
evaluator call, so the evaluator sees each search's solo rows in order.
When a merged call raises, each search's rows are retried alone, and only
a search whose own rows raise ends with that exception.
``subdivide_min_max`` is the one-search case.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError

__all__ = [
    "Interval",
    "PI",
    "TWO_PI",
    "HALF_PI",
    "subdivide_min_max",
    "lockstep_min_max",
    "MinMaxResult",
    "BoxEvaluator",
    "rational",
]

_INF = math.inf

# Outward nudging for results of faithful (<= 1 ulp error) libm calls.
_LIBM_ULPS = 2

# Fault-injection hook used by the CLI selftest: when False, all outward
# nudging is disabled, which must make the containment self-checks fail.
_outward_rounding = True


def _set_outward_rounding(enabled: bool) -> None:
    global _outward_rounding
    _outward_rounding = bool(enabled)
    rational.cache_clear()


def _next_down(x: float) -> float:
    if not _outward_rounding:
        return x
    return math.nextafter(x, -_INF)


def _next_up(x: float) -> float:
    if not _outward_rounding:
        return x
    return math.nextafter(x, _INF)


def _down_n(x: float, n: int) -> float:
    if not _outward_rounding:
        return x
    for _ in range(n):
        x = math.nextafter(x, -_INF)
    return x


def _up_n(x: float, n: int) -> float:
    if not _outward_rounding:
        return x
    for _ in range(n):
        x = math.nextafter(x, _INF)
    return x


def _add_down(a: float, b: float) -> float:
    """Largest float <= a + b (exact when the sum is representable)."""
    s = a + b
    bv = s - a
    err = (a - (s - bv)) + (b - bv)
    if err < 0.0:
        return _next_down(s)
    return s


def _add_up(a: float, b: float) -> float:
    s = a + b
    bv = s - a
    err = (a - (s - bv)) + (b - bv)
    if err > 0.0:
        return _next_up(s)
    return s


def _add(alo: float, ahi: float, blo: float, bhi: float) -> tuple:
    """[alo, ahi] + [blo, bhi] on endpoints: an exact [0, 0] operand gives
    the other one back, else the TwoSum-nudged sum."""
    if blo == 0.0 and bhi == 0.0:
        return alo, ahi
    if alo == 0.0 and ahi == 0.0:
        return blo, bhi
    return _add_down(alo, blo), _add_up(ahi, bhi)


def _mul(alo: float, ahi: float, blo: float, bhi: float) -> tuple:
    """[alo, ahi] * [blo, bhi] on endpoints: exact for a [0, 0] or [1, 1]
    operand, else the nudged hull of the four endpoint products, clamped
    at 0 when the factors prove the product nonnegative.  The order of the
    factors sets which of tied signed zeros min and max keep."""
    if (alo == 0.0 and ahi == 0.0) or (blo == 0.0 and bhi == 0.0):
        return 0.0, 0.0
    if blo == 1.0 and bhi == 1.0:
        return alo, ahi
    if alo == 1.0 and ahi == 1.0:
        return blo, bhi
    p1, p2, p3, p4 = alo * blo, alo * bhi, ahi * blo, ahi * bhi
    lo = _next_down(min(p1, p2, p3, p4))
    if (alo >= 0.0 and blo >= 0.0) or (ahi <= 0.0 and bhi <= 0.0):
        lo = max(lo, 0.0)
    return lo, _next_up(max(p1, p2, p3, p4))


def _div(alo: float, ahi: float, blo: float, bhi: float) -> tuple:
    """[alo, ahi] / [blo, bhi] on endpoints: the nudged hull of the four
    endpoint quotients; a divisor that contains 0 is a DomainError."""
    if blo <= 0.0 <= bhi:
        raise DomainError(f"division by interval containing zero: [{blo!r}, {bhi!r}]")
    q1, q2, q3, q4 = alo / blo, alo / bhi, ahi / blo, ahi / bhi
    return _next_down(min(q1, q2, q3, q4)), _next_up(max(q1, q2, q3, q4))


def _mid(lo: float, hi: float) -> float:
    """A float centre of [lo, hi], within it."""
    m = 0.5 * (lo + hi)
    if not math.isfinite(m):
        m = 0.5 * lo + 0.5 * hi
    # Clamp: midpoint of adjacent floats can round outside.
    return min(max(m, lo), hi)


@functools.lru_cache(maxsize=4096)
def rational(p: int, q: int) -> tuple[float, float]:
    """Tightest float interval (lo, hi) around the rational p / q, q > 0:
    a point when p / q is a float, else one ulp wide.  Memoized, because
    the rigorous paths ask for the same few constants (2 / (j + 2)^2, p!,
    ...) once per fan or series."""
    f = p / q  # int true division is correctly rounded
    a, b = f.as_integer_ratio()
    above = a * q - p * b  # sign of f - p / q
    return (_next_down(f) if above > 0 else f, _next_up(f) if above < 0 else f)


@dataclass(frozen=True, slots=True)
class Interval:
    """Closed interval [lo, hi] with finite binary64 endpoints."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (self.lo <= self.hi):  # also catches NaN endpoints
            raise DomainError(f"invalid interval endpoints [{self.lo}, {self.hi}]")
        if math.isinf(self.lo) or math.isinf(self.hi):
            raise DomainError(f"unbounded enclosure [{self.lo}, {self.hi}]")

    # -- constructors -------------------------------------------------

    @staticmethod
    def point(v: float) -> "Interval":
        v = float(v)
        return Interval(v, v)

    # -- queries ------------------------------------------------------

    def mid(self) -> float:
        return _mid(self.lo, self.hi)

    def width(self) -> float:
        return self.hi - self.lo

    def mag(self) -> float:
        """sup |x| over the interval."""
        return max(abs(self.lo), abs(self.hi))

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def encloses(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def __repr__(self) -> str:
        return f"[{self.lo!r}, {self.hi!r}]"

    # -- arithmetic ---------------------------------------------------

    @staticmethod
    def _coerce(v) -> "Interval":
        if isinstance(v, Interval):
            return v
        if isinstance(v, (int, float)):
            return Interval.point(float(v))
        return NotImplemented

    def __add__(self, other) -> "Interval":
        o = Interval._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Interval(*_add(self.lo, self.hi, o.lo, o.hi))

    __radd__ = __add__

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other) -> "Interval":
        o = Interval._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Interval(*_add(self.lo, self.hi, -o.hi, -o.lo))

    def __rsub__(self, other) -> "Interval":
        o = Interval._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Interval(*_add(o.lo, o.hi, -self.hi, -self.lo))

    def __mul__(self, other) -> "Interval":
        o = Interval._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Interval(*_mul(self.lo, self.hi, o.lo, o.hi))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Interval":
        o = Interval._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return Interval(*_div(self.lo, self.hi, o.lo, o.hi))

    def __rtruediv__(self, other) -> "Interval":
        o = Interval._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    # -- elementary functions ------------------------------------------

    def sqr(self) -> "Interval":
        """Tight square: never returns negative lower bound."""
        a, b = abs(self.lo), abs(self.hi)
        lo_m, hi_m = min(a, b), max(a, b)
        hi = _next_up(hi_m * hi_m)
        if self.lo <= 0.0 <= self.hi:
            return Interval(0.0, hi)
        return Interval(max(0.0, _next_down(lo_m * lo_m)), hi)

    def pow_int(self, n: int) -> "Interval":
        if n != int(n):
            raise DomainError(f"pow_int requires an integer exponent, got {n}")
        n = int(n)
        if n < 0:
            return _ONE / self.pow_int(-n)
        if n == 0:
            return _ONE
        # binary exponentiation with a tight square at every step
        result: Optional[Interval] = None
        base = self
        while n > 0:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base.sqr()
        return result

    def sqrt(self) -> "Interval":
        if self.lo < 0.0:
            raise DomainError(f"sqrt of interval with negative part: {self}")
        return Interval(
            max(0.0, _next_down(math.sqrt(self.lo))), _next_up(math.sqrt(self.hi))
        )

    def log(self) -> "Interval":
        if self.lo <= 0.0:
            raise DomainError(f"log of interval touching nonpositive reals: {self}")
        return Interval(
            _down_n(math.log(self.lo), _LIBM_ULPS), _up_n(math.log(self.hi), _LIBM_ULPS)
        )

    def exp(self) -> "Interval":
        try:
            lo = max(0.0, _down_n(math.exp(self.lo), _LIBM_ULPS))
            hi = _up_n(math.exp(self.hi), _LIBM_ULPS)
        except OverflowError:
            raise DomainError(f"exp overflow on {self}") from None
        if math.isinf(hi):
            raise DomainError(f"exp overflow on {self}")
        return Interval(lo, hi)

    def atan(self) -> "Interval":
        return Interval(
            _down_n(math.atan(self.lo), _LIBM_ULPS),
            _up_n(math.atan(self.hi), _LIBM_ULPS),
        )

    def __abs__(self) -> "Interval":
        if self.lo >= 0.0:
            return self
        if self.hi <= 0.0:
            return -self
        return Interval(0.0, max(-self.lo, self.hi))

    def _trig_range(self, fn: Callable[[float], float], max_at, min_at) -> "Interval":
        """Range of a 2*pi-periodic function with known critical points.

        ``max_at``/``min_at`` give the interval base point of the critical
        set {base + 2*pi*k}; inclusion is decided conservatively, so an
        uncertain critical point widens the result (sound direction).
        """
        if self.width() >= TWO_PI.hi:
            return Interval(-1.0, 1.0)
        lo = min(_down_n(fn(self.lo), _LIBM_ULPS), _down_n(fn(self.hi), _LIBM_ULPS))
        hi = max(_up_n(fn(self.lo), _LIBM_ULPS), _up_n(fn(self.hi), _LIBM_ULPS))
        if _crit_in(self, max_at):
            hi = 1.0
        if _crit_in(self, min_at):
            lo = -1.0
        return Interval(max(lo, -1.0), min(hi, 1.0))

    def sin(self) -> "Interval":
        return self._trig_range(math.sin, HALF_PI, -HALF_PI)

    def cos(self) -> "Interval":
        return self._trig_range(math.cos, _ZERO, PI)


_ZERO = Interval(0.0, 0.0)
_ONE = Interval(1.0, 1.0)

# math.pi underestimates pi, so [pi, nextafter(pi)] is a rigorous enclosure.
PI = Interval(math.pi, math.nextafter(math.pi, _INF))
TWO_PI = Interval(2.0 * PI.lo, 2.0 * PI.hi)
HALF_PI = Interval(0.5 * PI.lo, 0.5 * PI.hi)


def _crit_in(x: Interval, base: Interval) -> bool:
    """Whether some point of {base + 2*pi*k : k integer} may lie in x."""
    k_lo = math.floor((x.lo - base.hi) / TWO_PI.lo) - 1
    k_hi = math.ceil((x.hi - base.lo) / TWO_PI.lo) + 1
    for k in range(k_lo, k_hi + 1):
        lo, hi = _add(base.lo, base.hi, *_mul(TWO_PI.lo, TWO_PI.hi, float(k), float(k)))
        if hi >= x.lo and lo <= x.hi:
            return True
    return False


# ---------------------------------------------------------------------------
# Rigorous range bounding over an interval domain
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class MinMaxResult:
    m: Interval  # encloses inf g over the domain
    M: Interval  # encloses sup g over the domain
    converged: bool
    evaluations: int
    depth: int


class BoxEvaluator:
    """Interval extension of g over arrays of boxes.

    ``self(root, lo, hi)`` receives, per box, the index of the root
    interval it came from and its endpoints (``lo == hi`` for a point).
    It returns ``(glo, ghi, clo, chi, dlo, dhi)`` enclosing g over the box
    (in whatever bounding form the evaluator owns), g at the centre
    ``_midpoints(lo, hi)`` (a point is its own centre) and g' over the
    box, ``(-inf, inf)`` where no slope is known.

    The centre value must equal, bit for bit, the value (``glo, ghi``) the
    evaluator returns for the point ``_midpoints(lo, hi)`` itself, whatever
    else either call holds: the search carries it as an endpoint value of
    both halves of the box and settles monotone boxes from such values."""

    def __call__(self, root, lo, hi):
        raise NotImplementedError


def _midpoints(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """``Interval.mid`` of every [lo_i, hi_i], bit for bit: m comes second,
    as numpy's min and max return their second argument on ties (Python's
    their first), so [-5e-324, 0.0] keeps -0.0."""
    with np.errstate(over="ignore"):
        m = 0.5 * (lo + hi)
    m = np.where(np.isfinite(m), m, 0.5 * lo + 0.5 * hi)
    return np.minimum(hi, np.maximum(lo, m))


def _select(arrays: tuple, index) -> tuple:
    """Every array of a tuple, indexed alike (a mask or indices)."""
    # built from a list: CPython makes tuple(generator) 10 long and shrinks
    # it, so each one freed joins its size's free list, which grows to
    # 2,000 tuples (about 0.3 MB for the search's box tuples)
    return tuple([a[index] for a in arrays])


# Total evaluations of one search when the caller sets no budget of its
# own (mfs and oned do): the largest such search of the tests takes 240,
# the largest budgeted one 6,663.  An evaluation is a value the search
# takes: a box, a root end, or either end of a monotone box (carried from
# an earlier request, so counted but not evaluated again).
MAX_EVALS = 10_000_000
MAX_BOXES = 20_000  # open boxes per search and level; the least promising excess is finalized


def subdivide_min_max(
    g: BoxEvaluator,
    domain: Interval | Sequence[Interval],
    tol: float = 1e-12,
    max_depth: int = 40,
    max_evals: int = MAX_EVALS,
) -> MinMaxResult:
    """Rigorous enclosures of inf g and sup g over the union of the roots.

    ``domain`` is one root Interval or a sequence of them.

    Level-synchronous branch-and-bound: each level halves every open box
    of every root and evaluates all children in one evaluator call.  A box
    whose slope has one strict sign is finalized by its endpoint values;
    every other box's centre value is a witness, and the box is dropped
    when it can move neither bound past the global witnesses.  Both the
    true infimum and supremum are contained in the returned ``m`` and
    ``M``; ``converged`` reports whether both widths reached ``tol``
    within ``max_depth`` levels, with at most ``MAX_BOXES`` boxes kept
    open per level.  No new level starts once ``max_evals`` evaluations
    (boxes, root ends and the end values of monotone boxes) are spent; the
    bounds reached so far are returned, still sound.  This is the
    one-search case of :func:`lockstep_min_max`, and raises what the
    search raises.
    """
    roots = [domain] if isinstance(domain, Interval) else list(domain)
    (res,) = lockstep_min_max(g, [roots], tol, max_depth, max_evals)
    if isinstance(res, Exception):
        raise res
    return res


def lockstep_min_max(g: BoxEvaluator, domains: Sequence[Sequence[Interval]],
                     tol: float = 1e-12, max_depth: int = 40,
                     max_evals: int = MAX_EVALS) -> list:
    """:func:`subdivide_min_max` over each root sequence of ``domains``, all
    searches stepped together as one array search (see the module notes).

    Roots are numbered across the searches: root j of search i is root
    j + (the root count of searches 0..i-1) to ``g``.  Each level makes
    one ``g`` call over every unfinished search's next level (the first:
    its root ends as points and its root boxes), grouped by search; the
    per-search witnesses and bounds are folded by max and min, exact in
    any grouping.  So with an evaluator whose boxes do not depend on the
    other boxes of a call, each search gets the bits of its solo run.  A
    search stops on its own tests (converged, no open box, ``max_evals``
    spent, or ``max_depth`` levels), at the shared depth.  Entry i is
    search i's :class:`MinMaxResult`, or the exception its own rows raised.
    """
    if tol <= 0.0:
        raise DomainError("tol must be positive")
    n, roots = len(domains), [r for d in domains for r in d]
    if not n:
        return []
    rsid = np.repeat(np.arange(n), [len(d) for d in domains])
    rlo, rhi = np.array([(r.lo, r.hi) for r in roots], dtype=float).reshape(-1, 2).T
    # per search: values g provably reaches (some point has g >= sup_wit,
    # some point has g <= inf_wit), and the bounds of g over boxes that
    # left the search without being split
    bounds = np.array([[-_INF], [_INF]] * 2).repeat(n, axis=1)
    sup_wit, inf_wit, fin_sup, fin_inf = bounds
    live, out = np.ones(n, dtype=bool), [None] * n

    # the first call: every root end as a point, then the root boxes, each
    # search's rows together
    ridx, span = np.arange(len(roots)), rlo < rhi
    ends = np.concatenate((ridx, ridx[span]))
    at = np.concatenate((rlo, rhi[span]))
    rows = (np.concatenate((ends, ridx[span])), np.concatenate((at, rlo[span])),
            np.concatenate((at, rhi[span])))
    sid = rsid[rows[0]]
    order = np.argsort(sid, kind="stable")
    evals = np.bincount(sid, minlength=n)  # evaluations spent, per search
    cols = np.empty((6, sid.size))
    cols[:, order] = _evaluate(g, sid[order], _select(rows, order), out, live)
    nr, vlo, vhi = len(roots), cols[0][:ends.size], cols[1][:ends.size]
    _fold(sup_wit, inf_wit, rsid[ends], vlo, vhi)
    _fold(fin_sup, fin_inf, rsid[~span], vhi[:nr][~span], vlo[:nr][~span])  # point roots
    elo, ehi = (np.column_stack((v[:nr][span], v[nr:])) for v in (vlo, vhi))
    box, keep = _settle(bounds, evals, (rsid[span], ridx[span], rlo[span], rhi[span]),
                        elo, ehi, cols[:, ends.size:], prune=False)
    box = _select(box, keep & live[box[0]])

    depth = 0
    while True:
        sid, glo, ghi = box[0], box[4], box[5]
        sup_hi = np.maximum(np.maximum(_per_search(np.maximum, sid, ghi, n), sup_wit), fin_sup)
        inf_lo = np.minimum(np.minimum(_per_search(np.minimum, sid, glo, n), inf_wit), fin_inf)
        # only searches with finite witnesses can converge: the others
        # (no roots) would subtract inf from inf
        a = np.flatnonzero(live & np.isfinite(sup_wit) & np.isfinite(inf_wit))
        conv = np.zeros(n, dtype=bool)
        conv[a] = (sup_hi[a] - sup_wit[a] <= tol) & (inf_wit[a] - inf_lo[a] <= tol)
        stop = live & (conv | (np.bincount(sid, minlength=n) == 0) | (evals >= max_evals)
                       | (depth >= max_depth))
        if stop.any():
            for s in np.flatnonzero(stop).tolist():
                out[s] = _attempt(_result, inf_lo[s], inf_wit[s], sup_wit[s], sup_hi[s],
                                  conv[s], evals[s], depth)
            live &= ~stop
            box = _select(box, live[sid])
        if not live.any():
            return out
        depth += 1
        # the useful boxes are split where their centre lies strictly
        # inside, and finalized where it does not
        sid, root, lo, hi, glo, ghi, vlo, vhi = box
        use = (ghi > sup_wit[sid]) | (glo < inf_wit[sid])  # may move m or M past the witnesses
        mid = _midpoints(lo, hi)
        split = use & (lo < mid) & (mid < hi)
        end = use & ~split
        _fold(fin_sup, fin_inf, sid[end], ghi[end], glo[end])
        sid, root, lo, hi, mid, vlo, vhi = _select((sid, root, lo, hi, mid, vlo, vhi), split)
        if sid.size:
            # children (lo, mid) and (mid, hi) of each parent, side by
            # side; the parent's centre value is an end of each
            evals += 2 * np.bincount(sid, minlength=n)
            clo, chi = np.empty((2, 2 * sid.size))
            clo[0::2], clo[1::2], chi[0::2], chi[1::2] = lo, mid, mid, hi
            children = (np.repeat(sid, 2), np.repeat(root, 2), clo, chi)
            cols = _evaluate(g, children[0], children[1:], out, live)
            ends = np.empty((2, 2 * sid.size, 2))
            for e, v in zip(ends, (vlo, vhi)):
                e[0::2], e[1::2] = v[:, 0:2], v[:, 1:3]
            box, keep = _settle(bounds, evals, children, *ends, cols, prune=True)
            box = _select(box, keep & live[box[0]])
        else:
            box = _select(box, split)  # empty: no box could be split
        if box[0].size > MAX_BOXES:
            box = _cap(box, bounds)


def _per_search(ufunc, sid, v, n: int) -> np.ndarray:
    """``ufunc`` (np.maximum or np.minimum) of v over the rows of each of
    n searches, -inf or inf for a search without rows."""
    r = np.full(n, -_INF if ufunc is np.maximum else _INF)
    ufunc.at(r, sid, v)
    return r


def _fold(top, bottom, sid, up, down) -> None:
    """Raise each search's ``top`` to the max of its ``up``, and lower its
    ``bottom`` to the min of its ``down``.  As with Python's max and min,
    a tie keeps the old value (numpy's keep their second argument, which
    could swap 0.0 and -0.0)."""
    np.maximum(_per_search(np.maximum, sid, up, top.size), top, out=top)
    np.minimum(_per_search(np.minimum, sid, down, top.size), bottom, out=bottom)


def _evaluate(g, sid, rows, out: list, live: np.ndarray) -> np.ndarray:
    """g's (6, n) columns over ``rows`` = (root, lo, hi), whose searches
    ``sid`` are grouped.  When the call raises and holds several searches,
    each search's rows are evaluated alone; a search whose own rows raise
    (or the one search of the call) ends with that exception in ``out``
    and ``live``, its columns left 0."""
    try:
        return np.array(g(*rows), dtype=float)
    except Exception as e:
        cols, searches = np.zeros((6, sid.size)), np.unique(sid).tolist()
        for s in searches:
            at = sid == s
            part = e if len(searches) == 1 else _attempt(g, *[x[at] for x in rows])
            if isinstance(part, Exception):
                out[s], live[s] = part, False
            else:
                cols[:, at] = part
        return cols


def _settle(bounds, evals, rows, elo, ehi, cols, prune: bool) -> tuple:
    """Take the evaluator's columns for the boxes ``rows`` = (sid, root,
    lo, hi), with elo/ehi the (n, 2) bounds of g at lo and hi; ``bounds``
    are the rows sup_wit, inf_wit, fin_sup, fin_inf, one entry per search.

    A box on which g is strictly monotone is finalized by its endpoint
    values, which count as two evaluations; every other box gives the
    value at its centre as a witness.  Returns every box as (sid, root,
    lo, hi, glo, ghi, vlo, vhi), with vlo/vhi the (n, 3) bounds of g at
    lo, the centre and hi, and the mask of those still open: with
    ``prune``, only those that may still move m or M past the witnesses.

    Each open box carries g at its two endpoints.  Either is a root end,
    evaluated as a point in the first call, or the centre of the ancestor
    box whose split made it, which the evaluator returned, bit for bit the
    point value there.  So a monotone box is finalized without an
    evaluation of its own, and every carried value is already a witness.
    """
    sup_wit, inf_wit, fin_sup, fin_inf = bounds
    glo, ghi, clo, chi, dlo, dhi = cols
    sid = rows[0]
    mono = (dlo > 0.0) | (dhi < 0.0)
    if mono.any():
        evals += 2 * np.bincount(sid[mono], minlength=evals.size)
        _fold(fin_sup, fin_inf, np.repeat(sid[mono], 2), ehi[mono].ravel(), elo[mono].ravel())
    keep = ~mono
    _fold(sup_wit, inf_wit, sid[keep], clo[keep], chi[keep])
    if prune:
        keep &= (ghi > sup_wit[sid]) | (glo < inf_wit[sid])
    vlo, vhi = np.empty((2, sid.size, 3))
    for v, e, c in ((vlo, elo, clo), (vhi, ehi, chi)):
        v[:, 0::2], v[:, 1] = e, c
    return (*rows, glo, ghi, vlo, vhi), keep


def _cap(box, bounds) -> tuple:
    """The boxes with at most ``MAX_BOXES`` per search.  A search over the
    cap finalizes its least promising boxes and keeps the rest in the
    order of a stable argsort of their gain; every other search's boxes
    stay as they are."""
    sid, glo, ghi = box[0], box[4], box[5]
    sup_wit, inf_wit, fin_sup, fin_inf = bounds
    counts = np.bincount(sid)
    stops = np.cumsum(counts)
    take, at = [], 0
    for s in np.flatnonzero(counts > MAX_BOXES).tolist():
        a, b = stops[s] - counts[s], stops[s]
        gain = np.maximum(ghi[a:b] - sup_wit[s], inf_wit[s] - glo[a:b])
        order = a + np.argsort(gain, kind="stable")
        drop = order[:b - a - MAX_BOXES]
        _fold(fin_sup, fin_inf, sid[drop], ghi[drop], glo[drop])
        take += [np.arange(at, a), order[b - a - MAX_BOXES:]]
        at = b
    return _select(box, np.concatenate(take + [np.arange(at, sid.size)]))


def _result(inf_lo, inf_wit, sup_wit, sup_hi, conv, evals, depth: int) -> MinMaxResult:
    return MinMaxResult(Interval(float(inf_lo), float(inf_wit)),
                        Interval(float(sup_wit), float(sup_hi)), bool(conv), int(evals), depth)


def _attempt(fn, *args):
    """fn(*args), or the exception it raised: a failure that ends one search
    (or one point of a batch), not the others."""
    try:
        return fn(*args)
    except Exception as e:
        return e
