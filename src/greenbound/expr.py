"""Parser and multi-backend evaluator for source-term expressions.

The grammar is a small infix language over the variables ``x`` and ``y``::

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' integer)?          # integer literal exponents only
    atom   := NUMBER | 'x' | 'y' | FUNC '(' expr (',' expr)* ')' | '(' expr ')'
    FUNC   := sin | cos | exp | log | sqrt | abs | min | max

A parsed tree evaluates over three backends that are consistent by
construction: binary64 points, intervals, and bivariate Taylor models.
Decimal literals that are not exactly representable are widened one ulp
each way for the rigorous backends.  Piecewise behaviour in 2D is limited
to min/max (no branching), which keeps interval evaluation sound; genuinely
discontinuous 1D sources use :class:`PiecewiseSource1D`.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .errors import DomainError, ParseError, UnsupportedError
from .interval import Interval
from .taylor import TaylorModel2, tm_compose_elem

__all__ = ["SourceExpr", "PiecewiseSource1D", "parse", "eval_point", "eval_interval", "eval_tm"]


# -- syntax tree -------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Num:
    value: float
    ilo: float
    ihi: float


@dataclass(frozen=True, slots=True)
class Var:
    name: str  # 'x' or 'y'


@dataclass(frozen=True, slots=True)
class Bin:
    op: str  # '+', '-', '*', '/'
    left: "Node"
    right: "Node"


@dataclass(frozen=True, slots=True)
class Neg:
    arg: "Node"


@dataclass(frozen=True, slots=True)
class Pow:
    base: "Node"
    exponent: int


@dataclass(frozen=True, slots=True)
class Call:
    fn: str
    args: tuple


Node = Union[Num, Var, Bin, Neg, Pow, Call]

_FUNCTIONS = {"sin": 1, "cos": 1, "exp": 1, "log": 1, "sqrt": 1, "abs": 1,
              "min": 2, "max": 2}


class SourceExpr:
    """Immutable parsed source expression f(x) or f(x, y)."""

    __slots__ = ("root", "text")

    def __init__(self, root: Node, text: str):
        self.root = root
        self.text = text

    def __repr__(self) -> str:
        return f"SourceExpr({self.text!r})"

    def variables(self) -> set:
        out: set = set()
        _collect_vars(self.root, out)
        return out

    def has_nonsmooth(self) -> bool:
        return _has_nonsmooth(self.root)

    def eval_point(self, x: float, y: Optional[float] = None) -> float:
        return eval_point(self, x, y)

    def eval_interval(self, x: Interval, y: Optional[Interval] = None) -> Interval:
        return eval_interval(self, x, y)

    def eval_tm(self, x: TaylorModel2, y: Optional[TaylorModel2] = None) -> TaylorModel2:
        return eval_tm(self, x, y)


@dataclass(frozen=True)
class PiecewiseSource1D:
    """1D source given piecewise on (0,1): pieces[i] applies on the i-th
    subinterval delimited by the ascending breakpoints."""

    breakpoints: tuple
    pieces: tuple

    def __post_init__(self):
        bps = tuple(float(b) for b in self.breakpoints)
        if any(not (0.0 < b < 1.0) for b in bps):
            raise DomainError("breakpoints must lie strictly inside (0,1)")
        if any(b2 <= b1 for b1, b2 in zip(bps, bps[1:])):
            raise DomainError("breakpoints must be strictly increasing")
        if len(self.pieces) != len(bps) + 1:
            raise DomainError(
                f"need {len(bps) + 1} pieces for {len(bps)} breakpoints, "
                f"got {len(self.pieces)}"
            )
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "pieces", tuple(self.pieces))

    def piece_at(self, x: float) -> SourceExpr:
        """Piece in effect at x; at a breakpoint the right piece applies."""
        idx = 0
        for b in self.breakpoints:
            if x >= b:
                idx += 1
        return self.pieces[idx]

    def eval_point(self, x: float) -> float:
        return self.piece_at(x).eval_point(x)


# -- tokenizer / parser ------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?"
    r"|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _tokenize(text: str):
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(text) - len(stripped)
            raise ParseError(f"unexpected character {text[bad_at]!r}", bad_at)
        if m.lastgroup is not None:
            tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


def _literal_interval(text: str, value: float):
    """Exact decimal literals stay degenerate; others widen one ulp each way."""
    try:
        exact = Fraction(text) == Fraction(value)
    except (ValueError, OverflowError):
        exact = False
    if exact:
        return value, value
    return math.nextafter(value, -math.inf), math.nextafter(value, math.inf)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}, found {val or 'end of input'!r}", pos)

    def parse(self) -> Node:
        node = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {val!r}", pos)
        return node

    def expr(self) -> Node:
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                node = Bin(val, node, self.term())
            else:
                return node

    def term(self) -> Node:
        node = self.unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                node = Bin(val, node, self.unary())
            else:
                return node

    def unary(self) -> Node:
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.next()
            return Neg(self.unary())
        return self.power()

    def power(self) -> Node:
        base = self.atom()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.next()
            return Pow(base, self.int_exponent())
        return base

    def int_exponent(self) -> int:
        sign = 1
        kind, val, pos = self.peek()
        if kind == "op" and val == "-":
            self.next()
            sign = -1
        kind, val, pos = self.next()
        if kind != "num":
            raise ParseError("exponent must be an integer literal", pos)
        f = float(val)
        if f != int(f):
            raise ParseError(f"exponent must be an integer, got {val}", pos)
        return sign * int(f)

    def atom(self) -> Node:
        kind, val, pos = self.next()
        if kind == "num":
            value = float(val)
            ilo, ihi = _literal_interval(val, value)
            return Num(value, ilo, ihi)
        if kind == "ident":
            if val in ("x", "y"):
                return Var(val)
            if val in _FUNCTIONS:
                self.expect_op("(")
                args = [self.expr()]
                while True:
                    k, v, p = self.peek()
                    if k == "op" and v == ",":
                        self.next()
                        args.append(self.expr())
                    else:
                        break
                self.expect_op(")")
                min_arity = _FUNCTIONS[val]
                if min_arity == 1 and len(args) != 1:
                    raise ParseError(f"{val} takes one argument", pos)
                if min_arity == 2 and len(args) < 2:
                    raise ParseError(f"{val} takes at least two arguments", pos)
                return Call(val, tuple(args))
            raise ParseError(f"unknown identifier {val!r}", pos)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ParseError(f"unexpected token {val or 'end of input'!r}", pos)


def parse(text: str) -> SourceExpr:
    if not text or not text.strip():
        raise ParseError("empty expression", 0)
    return SourceExpr(_Parser(text).parse(), text)


def _collect_vars(node: Node, out: set) -> None:
    if isinstance(node, Var):
        out.add(node.name)
    elif isinstance(node, Bin):
        _collect_vars(node.left, out)
        _collect_vars(node.right, out)
    elif isinstance(node, Neg):
        _collect_vars(node.arg, out)
    elif isinstance(node, Pow):
        _collect_vars(node.base, out)
    elif isinstance(node, Call):
        for a in node.args:
            _collect_vars(a, out)


def _has_nonsmooth(node: Node) -> bool:
    if isinstance(node, Call):
        if node.fn in ("abs", "min", "max"):
            return True
        return any(_has_nonsmooth(a) for a in node.args)
    if isinstance(node, Bin):
        return _has_nonsmooth(node.left) or _has_nonsmooth(node.right)
    if isinstance(node, Neg):
        return _has_nonsmooth(node.arg)
    if isinstance(node, Pow):
        return _has_nonsmooth(node.base)
    return False


# -- evaluation backends -----------------------------------------------------


def eval_point(f: SourceExpr, x: float, y: Optional[float] = None) -> float:
    return _ev_point(f.root, float(x), None if y is None else float(y))


def _ev_point(node: Node, x: float, y: Optional[float]) -> float:
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        if node.name == "y":
            if y is None:
                raise DomainError("expression uses y but no y value was given")
            return y
        return x
    if isinstance(node, Neg):
        return -_ev_point(node.arg, x, y)
    if isinstance(node, Bin):
        a = _ev_point(node.left, x, y)
        b = _ev_point(node.right, x, y)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if b == 0.0:
            raise DomainError("division by zero in point evaluation")
        return a / b
    if isinstance(node, Pow):
        base = _ev_point(node.base, x, y)
        if node.exponent < 0 and base == 0.0:
            raise DomainError("zero raised to a negative power")
        return base ** node.exponent
    a = [_ev_point(arg, x, y) for arg in node.args]
    try:
        if node.fn == "sin":
            return math.sin(a[0])
        if node.fn == "cos":
            return math.cos(a[0])
        if node.fn == "exp":
            return math.exp(a[0])
        if node.fn == "log":
            return math.log(a[0])
        if node.fn == "sqrt":
            return math.sqrt(a[0])
        if node.fn == "abs":
            return abs(a[0])
        if node.fn == "min":
            return min(a)
        return max(a)
    except (ValueError, OverflowError) as e:
        raise DomainError(f"{node.fn}: {e}") from None


def eval_interval(f: SourceExpr, x: Interval, y: Optional[Interval] = None) -> Interval:
    return _ev_interval(f.root, x, y)


def _ev_interval(node: Node, x: Interval, y: Optional[Interval]) -> Interval:
    if isinstance(node, Num):
        return Interval(node.ilo, node.ihi)
    if isinstance(node, Var):
        if node.name == "y":
            if y is None:
                raise DomainError("expression uses y but no y interval was given")
            return y
        return x
    if isinstance(node, Neg):
        return -_ev_interval(node.arg, x, y)
    if isinstance(node, Bin):
        a = _ev_interval(node.left, x, y)
        b = _ev_interval(node.right, x, y)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        return a / b
    if isinstance(node, Pow):
        return _ev_interval(node.base, x, y).pow_int(node.exponent)
    a = [_ev_interval(arg, x, y) for arg in node.args]
    if node.fn == "sin":
        return a[0].sin()
    if node.fn == "cos":
        return a[0].cos()
    if node.fn == "exp":
        return a[0].exp()
    if node.fn == "log":
        return a[0].log()
    if node.fn == "sqrt":
        return a[0].sqrt()
    if node.fn == "abs":
        return abs(a[0])
    if node.fn == "min":
        lo = min(v.lo for v in a)
        hi = min(v.hi for v in a)
        return Interval(lo, hi)
    lo = max(v.lo for v in a)
    hi = max(v.hi for v in a)
    return Interval(lo, hi)


def eval_tm(
    f: SourceExpr, x: TaylorModel2, y: Optional[TaylorModel2] = None
) -> TaylorModel2:
    return _ev_tm(f.root, x, y)


def _ev_tm(node: Node, x: TaylorModel2, y: Optional[TaylorModel2]) -> TaylorModel2:
    if isinstance(node, Num):
        return TaylorModel2.constant(
            Interval(node.ilo, node.ihi), x.box, (x.deg_k, x.deg_u), x.ranges
        )
    if isinstance(node, Var):
        if node.name == "y":
            if y is None:
                raise DomainError("expression uses y but no y model was given")
            return y
        return x
    if isinstance(node, Neg):
        return -_ev_tm(node.arg, x, y)
    if isinstance(node, Bin):
        a = _ev_tm(node.left, x, y)
        b = _ev_tm(node.right, x, y)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        return a / b
    if isinstance(node, Pow):
        return _ev_tm(node.base, x, y).pow_int(node.exponent)
    if node.fn in ("abs", "min", "max"):
        raise UnsupportedError(
            f"{node.fn} has no Taylor-model backend (not smooth)"
        )
    return tm_compose_elem(node.fn, _ev_tm(node.args[0], x, y))
