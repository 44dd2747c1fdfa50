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
there is no division, powers take only unsigned integer exponents, and
no primitive is unbounded on a bounded set, so evaluation is total on
the reals and every expression is bounded on every bounded interval.

The leading sign is an extension of the core grammar so that negative
literals such as ``ind(-1, 0)`` parse.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, replace

import numpy as np

from .errors import ArityError, ExprSyntaxError, NaNInput

# ---------------------------------------------------------------------------
# Expression tree


@dataclass(frozen=True)
class Node:
    """One production of the grammar, named by `op`, over the subtrees `args`.

    op is 'num' (the literal `value`), 'x', 'neg', '+', '-', '*', '^'
    (the nonnegative integer exponent in `value`, which keeps bounded
    sets bounded), 'abs', 'min', 'max', 'step', 'ind' or 'clamp'.
    step/ind/clamp carry their subject as args[0]: the variable at parse
    time, any node after composition.
    """

    op: str
    args: tuple["Node", ...] = ()
    value: float = 0.0


_X = Node("x")
_SUBJECT_FUNCTIONS = frozenset({"step", "ind", "clamp"})


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


_EVAL = {
    "neg": operator.neg,
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "abs": np.abs,
    "min": np.minimum,
    "max": np.maximum,
    # indicator of {subject >= threshold}
    "step": lambda s, t: np.where(s >= t, 1.0, 0.0),
    # indicator of {lower <= subject <= upper}, both ends closed
    "ind": lambda s, lo, hi: np.where((s >= lo) & (s <= hi), 1.0, 0.0),
    "clamp": lambda s, lo, hi: np.minimum(np.maximum(s, lo), hi),
}


def _eval(node: Node, x):
    if node.op == "num":
        return node.value
    if node.op == "x":
        return x
    args = [_eval(arg, x) for arg in node.args]
    if node.op == "^":
        return _int_power(args[0], node.value)
    return _EVAL[node.op](*args)


def _substitute(node: Node, replacement: Node) -> Node:
    if node.op == "x":
        return replacement
    return replace(node, args=tuple(_substitute(arg, replacement) for arg in node.args))


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
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def accept(self, ops: str) -> _Token | None:
        """Consume and return the next token if it is one of the operator characters `ops`."""
        tok = self.peek()
        return self.advance() if tok.kind == "op" and tok.text in ops else None

    def expect_op(self, op: str) -> None:
        if self.accept(op) is None:
            raise ExprSyntaxError(f"expected {op!r}", self.peek().pos)

    def parse(self) -> Node:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExprSyntaxError(f"trailing input {tok.text!r}", tok.pos)
        return node

    def expr(self) -> Node:
        sign = self.accept("+-")
        node = self.term()
        if sign is not None and sign.text == "-":
            node = Node("neg", (node,))
        while (tok := self.accept("+-")) is not None:
            node = Node(tok.text, (node, self.term()))
        return node

    def term(self) -> Node:
        node = self.factor()
        while self.accept("*"):
            node = Node("*", (node, self.factor()))
        return node

    def factor(self) -> Node:
        node = self.atom()
        if self.accept("^"):
            tok = self.peek()
            if tok.kind != "num" or not tok.text.isdigit():
                raise ExprSyntaxError("exponent must be an unsigned integer", tok.pos)
            self.advance()
            node = Node("^", (node,), int(tok.text))
        return node

    def atom(self) -> Node:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Node("num", value=float(tok.text))
        if tok.kind == "name":
            self.advance()
            if tok.text == "x":
                return _X
            if tok.text in _FUNCTIONS:
                return self.call(tok)
            raise ExprSyntaxError(f"unknown identifier {tok.text!r}", tok.pos)
        if self.accept("("):
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(f"expected a value, got {tok.text or 'end of input'!r}", tok.pos)

    def call(self, name_tok: _Token) -> Node:
        self.expect_op("(")
        args = [self.expr()]
        while self.accept(","):
            args.append(self.expr())
        self.expect_op(")")
        want = _FUNCTIONS[name_tok.text]
        if len(args) != want:
            raise ArityError(f"{name_tok.text} takes {want} argument(s), got {len(args)}")
        if name_tok.text in _SUBJECT_FUNCTIONS:
            args.insert(0, _X)
        return Node(name_tok.text, tuple(args))


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
    return BorelExpr(ast=_substitute(outer.ast, inner.ast), source=f"compose[{outer.source} ; {inner.source}]")
