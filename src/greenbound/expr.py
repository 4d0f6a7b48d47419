"""Parser and multi-backend evaluator for source-term expressions.

The grammar is a small infix language over the variables ``x`` and ``y``::

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' integer)?          # integer literal exponents only
    atom   := NUMBER | 'x' | 'y' | FUNC '(' expr (',' expr)* ')' | '(' expr ')'
    FUNC   := sin | cos | exp | log | sqrt | abs | min | max

A parsed tree evaluates over three backends through one walk: binary64
points, intervals, and bivariate Taylor models.  The walk applies each
operand type's own +, -, *, / and negation, and a backend supplies only
its literal leaf, integer power and function call, so all three evaluate
the same f; abs, min and max have no Taylor-model call and raise there.
Decimal literals that are not exactly representable are widened one ulp
each way for the rigorous backends.  Piecewise behaviour in 2D is limited
to min/max (no branching), which keeps interval evaluation sound; genuinely
discontinuous 1D sources use :class:`PiecewiseSource1D`.
"""

from __future__ import annotations

import math
import operator
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
        return {node.name for node in _nodes(self.root) if isinstance(node, Var)}

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
    if Fraction(text) == Fraction(value):
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
        if not math.isfinite(f) or f != int(f):
            raise ParseError(f"exponent must be an integer, got {val}", pos)
        return sign * int(f)

    def atom(self) -> Node:
        kind, val, pos = self.next()
        if kind == "num":
            value = float(val)
            if not math.isfinite(value):
                raise ParseError(f"literal {val} overflows binary64", pos)
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


def _nodes(node: Node):
    """Every node of the tree, parents before children."""
    yield node
    if isinstance(node, Bin):
        children = (node.left, node.right)
    elif isinstance(node, Neg):
        children = (node.arg,)
    elif isinstance(node, Pow):
        children = (node.base,)
    else:
        children = node.args if isinstance(node, Call) else ()
    for child in children:
        yield from _nodes(child)


# -- evaluation: one walk, three backends ------------------------------------

_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


class _Walk:
    """One evaluation of a tree at (x, y).  The operators +, -, *, / and
    unary minus are the operand type's own, so every backend computes the
    same f; a backend supplies only ``const`` (the leaf of a literal),
    ``power`` (integer exponent) and ``call`` (a named function)."""

    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x, self.y = x, y

    def walk(self, node: Node):
        kind = type(node)
        if kind is Bin:
            return _BINARY[node.op](self.walk(node.left), self.walk(node.right))
        if kind is Var:
            if node.name == "x":
                return self.x
            if self.y is None:
                raise DomainError("expression uses y but no y argument was given")
            return self.y
        if kind is Num:
            return self.const(node)
        if kind is Neg:
            return -self.walk(node.arg)
        if kind is Pow:
            return self.power(self.walk(node.base), node.exponent)
        return self.call(node.fn, *[self.walk(arg) for arg in node.args])


_POINT_FUNCTIONS = {"sin": math.sin, "cos": math.cos, "exp": math.exp, "log": math.log,
                    "sqrt": math.sqrt, "abs": abs, "min": min, "max": max}


class _PointWalk(_Walk):
    __slots__ = ()

    def const(self, node: Num) -> float:
        return node.value

    def power(self, base: float, n: int) -> float:
        return base ** n

    def call(self, fn: str, *args: float) -> float:
        return _POINT_FUNCTIONS[fn](*args)


class _IntervalWalk(_Walk):
    __slots__ = ()

    def const(self, node: Num) -> Interval:
        return Interval(node.ilo, node.ihi)

    def power(self, base: Interval, n: int) -> Interval:
        return base.pow_int(n)

    def call(self, fn: str, *args: Interval) -> Interval:
        if fn in ("min", "max"):
            pick = min if fn == "min" else max
            return Interval(pick(a.lo for a in args), pick(a.hi for a in args))
        return abs(args[0]) if fn == "abs" else getattr(args[0], fn)()


class _TaylorWalk(_Walk):
    __slots__ = ()

    def const(self, node: Num) -> TaylorModel2:
        x = self.x
        return TaylorModel2.constant(Interval(node.ilo, node.ihi), x.boxes,
                                     (x.deg_k, x.deg_u))

    def power(self, base: TaylorModel2, n: int) -> TaylorModel2:
        return base.pow_int(n)

    def call(self, fn: str, *args: TaylorModel2) -> TaylorModel2:
        if fn in ("abs", "min", "max"):
            raise UnsupportedError(f"{fn} has no Taylor-model backend (not smooth)")
        return tm_compose_elem(fn, args[0])


def eval_point(f: SourceExpr, x: float, y: Optional[float] = None) -> float:
    try:
        return _PointWalk(float(x), None if y is None else float(y)).walk(f.root)
    except (ArithmeticError, ValueError) as e:  # division by zero, overflow, log(-1)
        raise DomainError(f"point evaluation: {e}") from None


def eval_interval(f: SourceExpr, x: Interval, y: Optional[Interval] = None) -> Interval:
    return _IntervalWalk(x, y).walk(f.root)


def eval_tm(
    f: SourceExpr, x: TaylorModel2, y: Optional[TaylorModel2] = None
) -> TaylorModel2:
    return _TaylorWalk(x, y).walk(f.root)
