"""Self-contained interval arithmetic with outward rounding.

Every operation returns an interval that is guaranteed to contain the exact
real-valued image of its input intervals.  Outward rounding is realized by
next-representable-value nudging after each floating-point operation instead
of switching the hardware rounding mode, so the module is safe under
unrestricted parallel use.

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
    "hull",
    "subdivide_min_max",
    "lockstep_min_max",
    "MinMaxResult",
    "BoxEvaluator",
    "centred_form",
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
        m = 0.5 * (self.lo + self.hi)
        if not math.isfinite(m):
            m = 0.5 * self.lo + 0.5 * self.hi
        # Clamp: midpoint of adjacent floats can round outside.
        return min(max(m, self.lo), self.hi)

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
        if o.lo == 0.0 and o.hi == 0.0:
            return self
        if self.lo == 0.0 and self.hi == 0.0:
            return o
        return Interval(_add_down(self.lo, o.lo), _add_up(self.hi, o.hi))

    __radd__ = __add__

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other) -> "Interval":
        o = Interval._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "Interval":
        o = Interval._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other) -> "Interval":
        o = Interval._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if (self.lo == 0.0 and self.hi == 0.0) or (o.lo == 0.0 and o.hi == 0.0):
            return _ZERO
        if o.lo == 1.0 and o.hi == 1.0:
            return self
        if self.lo == 1.0 and self.hi == 1.0:
            return o
        p1 = self.lo * o.lo
        p2 = self.lo * o.hi
        p3 = self.hi * o.lo
        p4 = self.hi * o.hi
        lo = _next_down(min(p1, p2, p3, p4))
        if (self.lo >= 0.0 and o.lo >= 0.0) or (self.hi <= 0.0 and o.hi <= 0.0):
            lo = max(lo, 0.0)  # the factors prove the product nonnegative
        return Interval(lo, _next_up(max(p1, p2, p3, p4)))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Interval":
        o = Interval._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.lo <= 0.0 <= o.hi:
            raise DomainError(f"division by interval containing zero: {o}")
        q1 = self.lo / o.lo
        q2 = self.lo / o.hi
        q3 = self.hi / o.lo
        q4 = self.hi / o.hi
        return Interval(_next_down(min(q1, q2, q3, q4)), _next_up(max(q1, q2, q3, q4)))

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
        crit = base + TWO_PI * float(k)
        if crit.hi >= x.lo and crit.lo <= x.hi:
            return True
    return False


def hull(a: Interval, b: Interval) -> Interval:
    return Interval(min(a.lo, b.lo), max(a.hi, b.hi))


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


def centred_form(val: Interval, centre: Interval, slope: Interval, s: Interval,
                 m: Interval) -> Interval:
    """val, an enclosure of g over s, intersected with the centred form
    centre + slope (s - m) from enclosures of g(m) and of g' over s (val
    alone should the two not meet).  This is the mean-value form when
    slope encloses g' over s and m is a point of s; it kills the
    first-order dependency overestimate of g(s) (Neumaier, *Interval
    Methods for Systems of Equations*, 1990)."""
    centred = centre + slope * (s - m)
    lo, hi = max(val.lo, centred.lo), min(val.hi, centred.hi)
    return Interval(lo, hi) if lo <= hi else val


def _midpoints(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """``Interval.mid`` of every [lo_i, hi_i], bit for bit: m comes second,
    as numpy's min and max return their second argument on ties (Python's
    their first), so [-5e-324, 0.0] keeps -0.0."""
    with np.errstate(over="ignore"):
        m = 0.5 * (lo + hi)
    m = np.where(np.isfinite(m), m, 0.5 * lo + 0.5 * hi)
    return np.minimum(hi, np.maximum(lo, m))


class _Search:
    """One branch-and-bound over the roots of one domain, as a generator.

    ``run`` yields one evaluator request ``(root, lo, hi)`` per level, with
    roots numbered within this search, is sent back the evaluator's
    columns for it, and returns the :class:`MinMaxResult`;
    :func:`lockstep_min_max` steps any number of these together.
    ``sup_wit``/``inf_wit`` are values g provably reaches (some point has
    g >= sup_wit, some point has g <= inf_wit); ``final_sup``/``final_inf``
    bound g over boxes that left the search without being split.

    Each open box carries g at its two endpoints.  Either is a root end,
    evaluated as a point in the first request, or the centre of the
    ancestor box whose split made it, which the evaluator returned, bit
    for bit the point value there.  So a monotone box is finalized without
    a request of its own, and every carried value is already a witness.
    """

    def __init__(self, roots: Sequence[Interval], tol: float, max_depth: int,
                 max_evals: int):
        self.roots = list(roots)
        self.tol, self.max_depth, self.max_evals = tol, max_depth, max_evals
        self.evals = 0
        self.sup_wit, self.inf_wit = -_INF, _INF
        self.final_sup, self.final_inf = -_INF, _INF

    def finalize(self, glo: np.ndarray, ghi: np.ndarray) -> None:
        if glo.size:
            self.final_sup = max(self.final_sup, float(ghi.max()))
            self.final_inf = min(self.final_inf, float(glo.min()))

    def witness(self, vlo: np.ndarray, vhi: np.ndarray) -> None:
        if vlo.size:
            self.sup_wit = max(self.sup_wit, float(vlo.max()))
            self.inf_wit = min(self.inf_wit, float(vhi.min()))

    def settle(self, box, cols):
        """Take the evaluator's columns for the boxes ``box`` = (root, lo,
        hi, elo, ehi), with elo/ehi the (n, 2) bounds of g at lo and hi.

        A box on which g is strictly monotone is finalized by its endpoint
        values, which count as two evaluations; every other box gives the
        value at its centre as a witness.  Returns the boxes still open as
        (root, lo, hi, glo, ghi, vlo, vhi), with vlo/vhi the (n, 3) bounds
        of g at lo, the centre and hi.
        """
        root, lo, hi, elo, ehi = box
        glo, ghi, clo, chi, dlo, dhi = cols
        mono = (dlo > 0.0) | (dhi < 0.0)
        if mono.any():
            self.evals += 2 * int(mono.sum())
            self.finalize(elo[mono], ehi[mono])
        keep = ~mono
        self.witness(clo[keep], chi[keep])
        vlo, vhi = (np.column_stack((e[keep, 0], c[keep], e[keep, 1]))
                    for e, c in ((elo, clo), (ehi, chi)))
        return _select((root, lo, hi, glo, ghi), keep) + (vlo, vhi)

    def run(self):
        """The level loop of :func:`subdivide_min_max`."""
        nr = len(self.roots)
        rlo = np.array([r.lo for r in self.roots], dtype=float)
        rhi = np.array([r.hi for r in self.roots], dtype=float)
        ridx = np.arange(nr)
        flat = rlo == rhi
        # the first request: every root end as a point, then the root boxes
        pr, pt = np.concatenate((ridx, ridx[~flat])), np.concatenate((rlo, rhi[~flat]))
        br, blo, bhi = ridx[~flat], rlo[~flat], rhi[~flat]
        self.evals += pr.size + br.size
        cols = yield (np.concatenate((pr, br)), np.concatenate((pt, blo)),
                      np.concatenate((pt, bhi)))
        npts = pr.size
        vlo, vhi = cols[0][:npts], cols[1][:npts]
        self.witness(vlo, vhi)
        self.finalize(vlo[:nr][flat], vhi[:nr][flat])  # point roots
        ends = tuple([np.column_stack((v[:nr][~flat], v[nr:])) for v in (vlo, vhi)])
        box = self.settle((br, blo, bhi) + ends, [c[npts:] for c in cols])

        def bounds():
            ghi, glo = box[4], box[3]
            sup_hi = max(self.final_sup, self.sup_wit, float(ghi.max()) if ghi.size else -_INF)
            inf_lo = min(self.final_inf, self.inf_wit, float(glo.min()) if glo.size else _INF)
            return sup_hi, inf_lo

        def useful(box):
            return (box[4] > self.sup_wit) | (box[3] < self.inf_wit)

        tol = self.tol
        depth = 0
        converged = False
        while depth < self.max_depth:
            sup_hi, inf_lo = bounds()
            if sup_hi - self.sup_wit <= tol and self.inf_wit - inf_lo <= tol:
                converged = True
                break
            if not box[0].size or self.evals >= self.max_evals:
                break
            depth += 1
            box = _select(box, useful(box))
            root, lo, hi, glo, ghi, vlo, vhi = box
            mid = _midpoints(lo, hi)
            split = (lo < mid) & (mid < hi)
            self.finalize(glo[~split], ghi[~split])
            root, lo, hi, mid, vlo, vhi = _select((root, lo, hi, mid, vlo, vhi), split)
            if root.size:
                # children (lo, mid) and (mid, hi) of each parent, side by
                # side; the parent's centre value is an end of each
                self.evals += 2 * root.size
                children = (np.repeat(root, 2), np.stack((lo, mid), axis=1).ravel(),
                            np.stack((mid, hi), axis=1).ravel())
                cols = yield children
                ends = tuple([np.stack((v[:, 0:2], v[:, 1:3]), axis=1).reshape(-1, 2)
                              for v in (vlo, vhi)])
                box = self.settle(children + ends, cols)
            else:
                box = _select(box, split)  # empty: no box could be split
            box = _select(box, useful(box))
            if box[0].size > MAX_BOXES:
                glo, ghi = box[3], box[4]
                gain = np.maximum(ghi - self.sup_wit, self.inf_wit - glo)
                order = np.argsort(gain, kind="stable")
                drop, keep = order[: gain.size - MAX_BOXES], order[gain.size - MAX_BOXES:]
                self.finalize(glo[drop], ghi[drop])
                box = _select(box, keep)

        sup_hi, inf_lo = bounds()
        if not converged:
            converged = sup_hi - self.sup_wit <= tol and self.inf_wit - inf_lo <= tol
        return MinMaxResult(
            m=Interval(inf_lo, self.inf_wit),
            M=Interval(self.sup_wit, sup_hi),
            converged=converged,
            evaluations=self.evals,
            depth=depth,
        )


def _select(arrays: tuple, index) -> tuple:
    """Every array of a tuple, indexed alike (a mask or indices)."""
    # built from a list: CPython makes tuple(generator) 10 long and shrinks
    # it, so each one freed joins its size's free list, which grows to
    # 2,000 tuples (about 0.3 MB for the searches' 5- and 7-tuples)
    return tuple([a[index] for a in arrays])


# Total evaluations of one search when the caller sets no budget of its
# own (mfs and oned do): the largest such search of the tests takes 240,
# the largest budgeted one 6,663.  An evaluation is a value the search
# takes: a box, a root end, or either end of a monotone box (carried from
# an earlier request, so counted but not evaluated again).
MAX_EVALS = 10_000_000
MAX_BOXES = 20_000  # open boxes per level; the least promising excess is finalized


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
    searches stepped together.

    Roots are numbered across the searches: root j of search i is root
    j + (the root count of searches 0..i-1) to ``g``.  Each step makes one
    ``g`` call over every unfinished search's next level (the first: its
    root ends as points and its root boxes), so with an evaluator whose
    boxes do not depend on the other boxes of a call, each search gets the
    bits of its solo run.  Entry i is search i's
    :class:`MinMaxResult`, or the exception it raised: when a merged call
    raises, each request of the step is evaluated alone, and a search
    whose own request raises ends with that exception while the others
    go on.
    """
    if tol <= 0.0:
        raise DomainError("tol must be positive")
    searches = [_Search(d, tol, max_depth, max_evals) for d in domains]
    offsets = np.cumsum([0] + [len(s.roots) for s in searches]).tolist()
    runs = [s.run() for s in searches]
    out: list = [None] * len(runs)
    pending = {}

    def send(i, cols):
        try:
            root, lo, hi = runs[i].send(cols)
            pending[i] = (root + offsets[i], lo, hi)
        except StopIteration as stop:
            out[i] = stop.value
        except Exception as e:
            out[i] = e

    for i in range(len(runs)):
        send(i, None)
    while pending:
        step, requests = list(pending), list(pending.values())
        pending.clear()
        try:
            # star-arguments from lists, not generators (see _select)
            cols = g(*[np.concatenate(x) for x in zip(*requests)])
            cuts = np.cumsum([len(r[0]) for r in requests])[:-1]
            parts = list(zip(*[np.split(c, cuts) for c in cols]))
        except Exception as e:
            parts = [e] if len(step) == 1 else [_attempt(g, *r) for r in requests]
        for i, part in zip(step, parts):
            if isinstance(part, Exception):
                out[i] = part
            else:
                send(i, part)
    return out


def _attempt(fn, *args):
    """fn(*args), or the exception it raised: a failure that ends one search
    (or one point of a batch), not the others."""
    try:
        return fn(*args)
    except Exception as e:
        return e
