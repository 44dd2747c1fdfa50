"""A small total expression language for bounded-to-bounded real functions.

Grammar (whitespace insensitive, numbers are decimal doubles):

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ['^' uint]
    atom   := number | 'x' | '(' expr ')' | func '(' expr (',' expr)* ')'
    func   := abs | min | max | step | ind | clamp

`step(a)` is the indicator of [a, inf) applied to the evaluation point,
`ind(a, b)` the indicator of the closed interval [a, b], and
`clamp(lo, hi)` clips the evaluation point into [lo, hi].  Every
production maps bounded subsets of the reals into bounded subsets:
there is no division and no unbounded-on-bounded primitive, so
evaluation is total on the reals and a finite bound over any box is
computable from the tree by interval arithmetic.

The leading sign is an extension of the core grammar so that negative
literals such as ``ind(-1, 0)`` parse.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ArityError, ExprSyntaxError, NaNInput

# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Neg:
    arg: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str  # '+', '-', '*'
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: int  # nonneg integer: keeps bounded sets bounded


@dataclass(frozen=True)
class Abs:
    arg: "Node"


@dataclass(frozen=True)
class MinMax:
    op: str  # 'min' or 'max'
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Step:
    # indicator of {subject >= threshold}; subject starts as Var and may
    # become any node under composition
    subject: "Node"
    threshold: "Node"


@dataclass(frozen=True)
class Ind:
    # indicator of {lower <= subject <= upper}, both ends closed
    subject: "Node"
    lower: "Node"
    upper: "Node"


@dataclass(frozen=True)
class Clamp:
    subject: "Node"
    lower: "Node"
    upper: "Node"


Node = Union[Num, Var, Neg, BinOp, Pow, Abs, MinMax, Step, Ind, Clamp]


# ---------------------------------------------------------------------------
# Evaluation (scalar floats or numpy arrays)


def _int_power(base, n: int):
    """base**n by binary exponentiation.

    Plain multiplies give bit-identical results for scalars, 0-d arrays
    and vectors, which `**` (libm pow on some paths) does not; exact
    composition and scalar/vector agreement depend on this.
    """
    if n == 0:
        return base * 0.0 + 1.0
    result = None
    acc = base
    while n:
        if n & 1:
            result = acc if result is None else result * acc
        n >>= 1
        if n:
            acc = acc * acc
    return result


def _eval(node: Node, x):
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return x
    if isinstance(node, Neg):
        return -_eval(node.arg, x)
    if isinstance(node, BinOp):
        a = _eval(node.left, x)
        b = _eval(node.right, x)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        return a * b
    if isinstance(node, Pow):
        return _int_power(_eval(node.base, x), node.exponent)
    if isinstance(node, Abs):
        return np.abs(_eval(node.arg, x))
    if isinstance(node, MinMax):
        a = _eval(node.left, x)
        b = _eval(node.right, x)
        return np.minimum(a, b) if node.op == "min" else np.maximum(a, b)
    if isinstance(node, Step):
        s = _eval(node.subject, x)
        t = _eval(node.threshold, x)
        return np.where(s >= t, 1.0, 0.0)
    if isinstance(node, Ind):
        s = _eval(node.subject, x)
        lo = _eval(node.lower, x)
        hi = _eval(node.upper, x)
        return np.where((s >= lo) & (s <= hi), 1.0, 0.0)
    if isinstance(node, Clamp):
        s = _eval(node.subject, x)
        lo = _eval(node.lower, x)
        hi = _eval(node.upper, x)
        return np.minimum(np.maximum(s, lo), hi)
    raise TypeError(f"unknown node {node!r}")


def _substitute(node: Node, replacement: Node) -> Node:
    if isinstance(node, Var):
        return replacement
    if isinstance(node, (Num,)):
        return node
    if isinstance(node, Neg):
        return Neg(_substitute(node.arg, replacement))
    if isinstance(node, BinOp):
        return BinOp(node.op, _substitute(node.left, replacement), _substitute(node.right, replacement))
    if isinstance(node, Pow):
        return Pow(_substitute(node.base, replacement), node.exponent)
    if isinstance(node, Abs):
        return Abs(_substitute(node.arg, replacement))
    if isinstance(node, MinMax):
        return MinMax(node.op, _substitute(node.left, replacement), _substitute(node.right, replacement))
    if isinstance(node, Step):
        return Step(_substitute(node.subject, replacement), _substitute(node.threshold, replacement))
    if isinstance(node, Ind):
        return Ind(
            _substitute(node.subject, replacement),
            _substitute(node.lower, replacement),
            _substitute(node.upper, replacement),
        )
    if isinstance(node, Clamp):
        return Clamp(
            _substitute(node.subject, replacement),
            _substitute(node.lower, replacement),
            _substitute(node.upper, replacement),
        )
    raise TypeError(f"unknown node {node!r}")


# ---------------------------------------------------------------------------
# Interval arithmetic: a finite enclosure of the range over a box


def _bound(node: Node, lo: float, hi: float) -> tuple[float, float]:
    if isinstance(node, Num):
        return node.value, node.value
    if isinstance(node, Var):
        return lo, hi
    if isinstance(node, Neg):
        a, b = _bound(node.arg, lo, hi)
        return -b, -a
    if isinstance(node, BinOp):
        a1, b1 = _bound(node.left, lo, hi)
        a2, b2 = _bound(node.right, lo, hi)
        if node.op == "+":
            return a1 + a2, b1 + b2
        if node.op == "-":
            return a1 - b2, b1 - a2
        prods = (a1 * a2, a1 * b2, b1 * a2, b1 * b2)
        return min(prods), max(prods)
    if isinstance(node, Pow):
        a, b = _bound(node.base, lo, hi)
        n = node.exponent
        if n == 0:
            return 1.0, 1.0
        if n % 2 == 1:
            return _int_power(a, n), _int_power(b, n)
        top = _int_power(max(abs(a), abs(b)), n)
        bot = 0.0 if a <= 0.0 <= b else _int_power(min(abs(a), abs(b)), n)
        return bot, top
    if isinstance(node, Abs):
        a, b = _bound(node.arg, lo, hi)
        top = max(abs(a), abs(b))
        bot = 0.0 if a <= 0.0 <= b else min(abs(a), abs(b))
        return bot, top
    if isinstance(node, MinMax):
        a1, b1 = _bound(node.left, lo, hi)
        a2, b2 = _bound(node.right, lo, hi)
        if node.op == "min":
            return min(a1, a2), min(b1, b2)
        return max(a1, a2), max(b1, b2)
    if isinstance(node, (Step, Ind)):
        return 0.0, 1.0
    if isinstance(node, Clamp):
        s = _bound(node.subject, lo, hi)
        a = _bound(node.lower, lo, hi)
        b = _bound(node.upper, lo, hi)
        m0, m1 = max(s[0], a[0]), max(s[1], a[1])
        return min(m0, b[0]), min(m1, b[1])
    raise TypeError(f"unknown node {node!r}")


# ---------------------------------------------------------------------------
# Pretty-printing back into the grammar

_PREC_SUM, _PREC_PROD, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4


def _fmt_num(v: float) -> str:
    # negative literals, including -0.0, only parse at expression heads
    text = repr(float(v))
    return f"({text})" if text.startswith("-") else text


def _fmt(node: Node, parent_prec: int) -> str:
    if isinstance(node, Num):
        return _fmt_num(node.value)
    if isinstance(node, Var):
        return "x"
    if isinstance(node, Neg):
        return f"(-{_fmt(node.arg, _PREC_PROD)})"
    if isinstance(node, BinOp):
        prec = _PREC_SUM if node.op in "+-" else _PREC_PROD
        # the right operand always gets the next level: parsing is
        # left-associative, and preserving association keeps the printed
        # form bit-identical under floating-point evaluation
        text = f"{_fmt(node.left, prec)} {node.op} {_fmt(node.right, prec + 1)}"
        return f"({text})" if prec < parent_prec else text
    if isinstance(node, Pow):
        text = f"{_fmt(node.base, _PREC_ATOM)}^{node.exponent}"
        return f"({text})" if parent_prec > _PREC_POW else text
    if isinstance(node, Abs):
        return f"abs({_fmt(node.arg, _PREC_SUM)})"
    if isinstance(node, MinMax):
        return f"{node.op}({_fmt(node.left, _PREC_SUM)}, {_fmt(node.right, _PREC_SUM)})"
    if isinstance(node, Step):
        _require_var_subject(node.subject, "step")
        return f"step({_fmt(node.threshold, _PREC_SUM)})"
    if isinstance(node, Ind):
        _require_var_subject(node.subject, "ind")
        return f"ind({_fmt(node.lower, _PREC_SUM)}, {_fmt(node.upper, _PREC_SUM)})"
    if isinstance(node, Clamp):
        _require_var_subject(node.subject, "clamp")
        return f"clamp({_fmt(node.lower, _PREC_SUM)}, {_fmt(node.upper, _PREC_SUM)})"
    raise TypeError(f"unknown node {node!r}")


def _require_var_subject(subject: Node, name: str) -> None:
    if not isinstance(subject, Var):
        raise ValueError(
            f"{name} applied to a substituted argument has no surface syntax; "
            "composed expressions can be evaluated but not always printed"
        )


# ---------------------------------------------------------------------------
# Parser (recursive descent over a token list)

_TOKEN_RE = re.compile(
    r"""
    (?P<num>(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*^(),])
  | (?P<ws>\s+)
  | (?P<bad>.)
    """,
    re.VERBOSE,
)

_FUNCTIONS = {"abs": 1, "min": 2, "max": 2, "step": 1, "ind": 2, "clamp": 2}


@dataclass(frozen=True)
class _Token:
    kind: str  # 'num' | 'name' | 'op' | 'end'
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "ws":
            continue
        if kind == "bad":
            raise ExprSyntaxError(f"unexpected character {m.group()!r}", m.start())
        tokens.append(_Token(kind, m.group(), m.start()))
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str) -> _Token:
        tok = self.peek()
        if tok.kind != "op" or tok.text != op:
            raise ExprSyntaxError(f"expected {op!r}", tok.pos)
        return self.advance()

    def parse(self) -> Node:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExprSyntaxError(f"trailing input {tok.text!r}", tok.pos)
        return node

    def expr(self) -> Node:
        tok = self.peek()
        negate = False
        if tok.kind == "op" and tok.text in "+-":
            self.advance()
            negate = tok.text == "-"
        node = self.term()
        if negate:
            node = Neg(node)
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Node:
        node = self.factor()
        while self.peek().kind == "op" and self.peek().text == "*":
            self.advance()
            node = BinOp("*", node, self.factor())
        return node

    def factor(self) -> Node:
        node = self.atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.advance()
            tok = self.peek()
            if tok.kind != "num" or not tok.text.isdigit():
                raise ExprSyntaxError("exponent must be an unsigned integer", tok.pos)
            self.advance()
            node = Pow(node, int(tok.text))
        return node

    def atom(self) -> Node:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Num(float(tok.text))
        if tok.kind == "name":
            self.advance()
            if tok.text == "x":
                return Var()
            if tok.text in _FUNCTIONS:
                return self.call(tok)
            raise ExprSyntaxError(f"unknown identifier {tok.text!r}", tok.pos)
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(f"expected a value, got {tok.text or 'end of input'!r}", tok.pos)

    def call(self, name_tok: _Token) -> Node:
        self.expect_op("(")
        args = [self.expr()]
        while self.peek().kind == "op" and self.peek().text == ",":
            self.advance()
            args.append(self.expr())
        self.expect_op(")")
        want = _FUNCTIONS[name_tok.text]
        if len(args) != want:
            raise ArityError(f"{name_tok.text} takes {want} argument(s), got {len(args)}")
        name = name_tok.text
        if name == "abs":
            return Abs(args[0])
        if name in ("min", "max"):
            return MinMax(name, args[0], args[1])
        if name == "step":
            return Step(Var(), args[0])
        if name == "ind":
            return Ind(Var(), args[0], args[1])
        return Clamp(Var(), args[0], args[1])


# ---------------------------------------------------------------------------
# Public surface


@dataclass(frozen=True)
class BorelExpr:
    """A parsed bounded-preserving real function of one variable."""

    ast: Node
    source: str

    def eval(self, x):
        """Evaluate at a float or an ndarray of floats. Total; rejects NaN.

        Array input yields array output of the same shape, also for
        constant expressions.
        """
        arr = np.asarray(x, dtype=float)
        if np.isnan(arr).any():
            raise NaNInput("expression input contains NaN")
        out = _eval(self.ast, arr)
        if arr.ndim == 0:
            return float(out)
        return np.asarray(np.broadcast_to(out, arr.shape), dtype=float)

    __call__ = eval

    def __str__(self) -> str:
        return self.source


def parse(text: str) -> BorelExpr:
    """Parse expression text into a BorelExpr."""
    if not text or not text.strip():
        raise ExprSyntaxError("empty expression", 0)
    return BorelExpr(ast=_Parser(text).parse(), source=text)


def compose(outer: BorelExpr, inner: BorelExpr) -> BorelExpr:
    """Substitute `inner` for the variable of `outer`.

    eval(compose(b, c), x) reproduces eval(b, eval(c, x)) exactly,
    including at indicator boundaries.
    """
    ast = _substitute(outer.ast, inner.ast)
    try:
        source = _fmt(ast, _PREC_SUM)
    except ValueError:
        source = f"compose[{outer.source} ; {inner.source}]"
    return BorelExpr(ast=ast, source=source)


def format_expr(b: BorelExpr) -> str:
    """Canonical grammar text for the expression tree.

    Raises ValueError for composed trees whose indicators no longer
    test the evaluation point directly (they have no surface syntax).
    """
    return _fmt(b.ast, _PREC_SUM)


def interval_bound(b: BorelExpr, lo: float, hi: float) -> tuple[float, float]:
    """A finite interval enclosing b([lo, hi]), by interval arithmetic."""
    if math.isnan(lo) or math.isnan(hi):
        raise NaNInput("interval ends must not be NaN")
    if lo > hi:
        raise ValueError("lo > hi")
    return _bound(b.ast, lo, hi)


def identity() -> BorelExpr:
    return parse("x")
