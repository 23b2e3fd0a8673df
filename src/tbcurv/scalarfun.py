"""Univariate scalar functions of t with exact derivative jets up to order 2.

The metric families on the tangent bundle are parameterized by two scalar
functions alpha(t), beta(t).  Everything downstream (the fiber block, the
vertical curvature coefficients, validity checks) consumes not just values
but first and second derivatives, so expressions are evaluated as order-2
jets (f, f', f'') propagated structurally through the syntax tree.  t may be
a number or an array: one walk of the tree covers every t.

Grammar (precedence high to low): unary minus, ``^`` with a numeric
exponent, ``*`` ``/``, ``+`` ``-``.  Parentheses group.  The only variable
is ``t``; the only functions are ``exp``, ``ln`` and ``sqrt``.  Note that
unary minus binds tighter than the power operator, so ``-t^2`` is
``(-t)^2``.

    >>> f = parse("1/(1+t)")
    >>> jet = eval_jet(f, 0.0)
    >>> float(jet.value), float(jet.d1), float(jet.d2)
    (1.0, -1.0, 2.0)
    >>> eval_jet(f, [0.0, 1.0]).d1
    array([-1.  , -0.25])
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Union

import numpy as np

from .errors import DomainError, ParseError, UnknownIdentifierError

__all__ = [
    "Expr",
    "Const",
    "Var",
    "Unary",
    "Binary",
    "Pow",
    "Jet2",
    "parse",
    "eval_jet",
    "to_text",
    "ScalarFunction",
]


# --------------------------------------------------------------------------
# AST
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Expr:
    """Base node; concrete nodes are Const, Var, Unary, Binary, Pow."""


@dataclass(frozen=True)
class Const(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    """The variable t."""


@dataclass(frozen=True)
class Unary(Expr):
    op: str  # "neg" | "exp" | "ln" | "sqrt"
    arg: Expr


@dataclass(frozen=True)
class Binary(Expr):
    op: str  # "+" | "-" | "*" | "/"
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Pow(Expr):
    """Power with a constant (rational) exponent, e.g. t^2 or (1+t)^-0.5."""

    base: Expr
    exponent: float


_FUNCTIONS = ("exp", "ln", "sqrt")


# --------------------------------------------------------------------------
# Lexer / parser
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class _Token:
    kind: str  # "num" | "name" | "op" | "end"
    text: str
    pos: int


def _tokenize(src: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and src[i + 1].isdigit()):
            j = i
            while j < n and (src[j].isdigit() or src[j] == "."):
                j += 1
            if j < n and src[j] in "eE":
                k = j + 1
                if k < n and src[k] in "+-":
                    k += 1
                if k < n and src[k].isdigit():
                    j = k
                    while j < n and src[j].isdigit():
                        j += 1
            text = src[i:j]
            try:
                float(text)
            except ValueError:
                raise ParseError(f"bad numeric literal {text!r}", i)
            tokens.append(_Token("num", text, i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            tokens.append(_Token("name", src[i:j], i))
            i = j
            continue
        if src.startswith("**", i):
            tokens.append(_Token("op", "^", i))
            i += 2
            continue
        if c in "+-*/^()":
            tokens.append(_Token("op", c, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {c!r}", i)
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> _Token:
        tok = self.peek()
        if tok.kind != "op" or tok.text != op:
            raise ParseError(f"expected {op!r}", tok.pos)
        return self.advance()

    # additive := multiplicative (("+"|"-") multiplicative)*
    def additive(self) -> Expr:
        node = self.multiplicative()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            node = Binary(op, node, self.multiplicative())
        return node

    # multiplicative := power (("*"|"/") power)*
    def multiplicative(self) -> Expr:
        node = self.power()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            node = Binary(op, node, self.power())
        return node

    # power := unary ("^" exponent)?   (right-assoc through recursion)
    def power(self) -> Expr:
        base = self.unary()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.advance()
            exponent = self.exponent()
            return Pow(base, exponent)
        return base

    def exponent(self) -> float:
        sign = 1.0
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            sign = -1.0
        tok = self.peek()
        if tok.kind != "num":
            raise ParseError("exponent must be a numeric constant", tok.pos)
        self.advance()
        return sign * float(tok.text)

    # unary := "-" unary | atom     (binds tighter than "^")
    def unary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            return Unary("neg", self.unary())
        return self.atom()

    def atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "num":
            self.advance()
            return Const(float(tok.text))
        if tok.kind == "name":
            self.advance()
            if tok.text == "t":
                return Var()
            if tok.text in _FUNCTIONS:
                self.expect_op("(")
                arg = self.additive()
                self.expect_op(")")
                return Unary(tok.text, arg)
            raise UnknownIdentifierError(f"unknown identifier {tok.text!r}", tok.pos)
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            node = self.additive()
            self.expect_op(")")
            return node
        raise ParseError("expected a value", tok.pos)


def parse(src: str) -> Expr:
    """Parse expression text into an AST.

    Raises ParseError (with byte offset) on malformed input and
    UnknownIdentifierError for names other than t/exp/ln/sqrt.
    """
    if not src or not src.strip():
        raise ParseError("empty expression", 0)
    parser = _Parser(src)
    node = parser.additive()
    tok = parser.peek()
    if tok.kind != "end":
        raise ParseError(f"trailing input {tok.text!r}", tok.pos)
    return node


# --------------------------------------------------------------------------
# Jets
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Jet2:
    """Value with first and second derivative: (f(t), f'(t), f''(t)).

    The fields are numbers for a number t, or arrays of the shape of t.
    """

    value: np.ndarray
    d1: np.ndarray
    d2: np.ndarray

    def __add__(self, other: "Jet2") -> "Jet2":
        return Jet2(self.value + other.value, self.d1 + other.d1, self.d2 + other.d2)

    def __sub__(self, other: "Jet2") -> "Jet2":
        return Jet2(self.value - other.value, self.d1 - other.d1, self.d2 - other.d2)

    def __neg__(self) -> "Jet2":
        return Jet2(-self.value, -self.d1, -self.d2)

    def __mul__(self, other: "Jet2") -> "Jet2":
        return Jet2(
            self.value * other.value,
            self.d1 * other.value + self.value * other.d1,
            self.d2 * other.value + 2.0 * self.d1 * other.d1 + self.value * other.d2,
        )

    def __truediv__(self, other: "Jet2") -> "Jet2":
        q = self.value / other.value
        q1 = (self.d1 - q * other.d1) / other.value
        q2 = (self.d2 - 2.0 * q1 * other.d1 - q * other.d2) / other.value
        return Jet2(q, q1, q2)


def _jet_exp(a: Jet2) -> Jet2:
    e = np.exp(a.value)
    return Jet2(e, e * a.d1, e * (a.d1 * a.d1 + a.d2))


def _jet_ln(a: Jet2) -> Jet2:
    r = a.d1 / a.value
    return Jet2(np.log(a.value), r, a.d2 / a.value - r * r)


def _jet_sqrt(a: Jet2) -> Jet2:
    s = np.sqrt(a.value)
    d1 = a.d1 / (2.0 * s)
    return Jet2(s, d1, a.d2 / (2.0 * s) - a.d1 * a.d1 / (4.0 * np.power(s, 3)))


# np.power, not **: numpy scalars and arrays take different routes for **.
def _jet_pow(a: Jet2, p: float) -> Jet2:
    v = np.power(a.value, p)
    vp1 = p * np.power(a.value, p - 1.0)
    vp2 = p * (p - 1.0) * np.power(a.value, p - 2.0)
    return Jet2(v, vp1 * a.d1, vp2 * a.d1 * a.d1 + vp1 * a.d2)


def _check(bad, message: str, node: str, t) -> None:
    """Raise DomainError at the first t where ``bad`` holds."""
    if np.count_nonzero(bad):
        raise DomainError(message, node, float(np.ravel(t)[np.argmax(bad)]))


def eval_jet(node: Expr, t) -> Jet2:
    """Evaluate (f, f', f'') at t by forward propagation through the AST.

    t is a number or an array; one walk of the tree covers every t.  Raises
    DomainError naming the offending node and the first t outside the real
    domain (division by zero, ln of a nonpositive value, sqrt of a
    nonpositive value, a negative power of zero or a fractional power of a
    nonpositive base), or where exp or a power overflows.
    """
    t = np.asarray(t, dtype=float)
    zero = np.zeros_like(t)[()]
    with np.errstate(all="ignore"):
        return _walk(node, t[()], zero)


def _walk(node: Expr, t, zero) -> Jet2:
    if isinstance(node, Const):
        return Jet2(zero + node.value, zero, zero)
    if isinstance(node, Var):
        return Jet2(t, zero + 1.0, zero)
    if isinstance(node, Unary):
        arg = _walk(node.arg, t, zero)
        if node.op == "neg":
            return -arg
        if node.op == "exp":
            out = _jet_exp(arg)
            _check(np.isinf(out.value), "exp overflows", "exp", t)
            return out
        if node.op == "ln":
            _check(arg.value <= 0.0, "ln of a nonpositive value", "ln", t)
            return _jet_ln(arg)
        if node.op == "sqrt":
            # 0 is excluded: the jet has infinite slope there.
            _check(arg.value <= 0.0, "sqrt of a nonpositive value", "sqrt", t)
            return _jet_sqrt(arg)
        raise AssertionError(node.op)
    if isinstance(node, Binary):
        left = _walk(node.left, t, zero)
        right = _walk(node.right, t, zero)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        if node.op == "/":
            _check(right.value == 0.0, "division by zero", "division", t)
            return left / right
        raise AssertionError(node.op)
    if isinstance(node, Pow):
        base = _walk(node.base, t, zero)
        p = node.exponent
        if p != int(p):
            _check(base.value <= 0.0, "fractional power of a nonpositive base", "power", t)
        elif p < 0:
            _check(base.value == 0.0, "zero base with negative exponent", "power", t)
        out = _jet_pow(base, p)
        _check(np.isinf(out.value), "power overflows", "power", t)
        return out
    raise AssertionError(type(node))


# --------------------------------------------------------------------------
# Printing
# --------------------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_POW, _PREC_NEG, _PREC_ATOM = 1, 2, 3, 4, 5


def _fmt_number(x: float) -> str:
    if x == int(x) and abs(x) < 1e16:
        return str(int(x))
    return repr(x)


def _print(node: Expr, parent_prec: int) -> str:
    if isinstance(node, Const):
        return _fmt_number(node.value)
    if isinstance(node, Var):
        return "t"
    if isinstance(node, Unary):
        if node.op == "neg":
            text = "-" + _print(node.arg, _PREC_NEG)
            return f"({text})" if parent_prec > _PREC_NEG else text
        return f"{node.op}({_print(node.arg, 0)})"
    if isinstance(node, Binary):
        prec = _PREC_ADD if node.op in "+-" else _PREC_MUL
        left = _print(node.left, prec)
        right = _print(node.right, prec + 1)  # left-associative
        text = f"{left}{node.op}{right}"
        return f"({text})" if parent_prec > prec else text
    if isinstance(node, Pow):
        base = _print(node.base, _PREC_NEG)
        text = f"{base}^{_fmt_number(node.exponent)}"
        return f"({text})" if parent_prec > _PREC_POW else text
    raise AssertionError(type(node))


def to_text(node: Expr) -> str:
    """Render an AST back to expression text; parse(to_text(a)) == a for
    parsed ASTs (programmatic trees with negative Const literals print as
    a unary minus instead)."""
    return _print(node, 0)


# --------------------------------------------------------------------------
# ScalarFunction
# --------------------------------------------------------------------------


class ScalarFunction:
    """A function of t >= 0 given by its order-2 jet function, which takes a
    number or an array of t.

    Expression-backed instances evaluate the syntax tree.  Derived functions
    such as the flatness beta supply their own jet function; its second
    derivative may be NaN where it is not available.
    """

    def __init__(self, jet: Callable[[np.ndarray], Jet2], name: str = "<callable>"):
        self._jet = jet
        self.name = name

    @classmethod
    def from_expression(cls, src: str, name: str = "") -> "ScalarFunction":
        return cls(partial(eval_jet, parse(src)), name=name or src)

    @classmethod
    def constant(cls, c: float) -> "ScalarFunction":
        node = Const(float(c))
        return cls(partial(eval_jet, node), name=to_text(node))

    def jet(self, t) -> Jet2:
        return self._jet(t)

    def value(self, t):
        return self._jet(t).value

    __call__ = value

    def __repr__(self) -> str:
        return f"ScalarFunction({self.name!r})"


FunctionLike = Union[ScalarFunction, str, float]


def as_scalar_function(f: FunctionLike) -> ScalarFunction:
    """Coerce a ScalarFunction, expression text, or number."""
    if isinstance(f, ScalarFunction):
        return f
    if isinstance(f, str):
        return ScalarFunction.from_expression(f)
    return ScalarFunction.constant(float(f))
