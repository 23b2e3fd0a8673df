"""Univariate scalar functions of t with exact derivative jets up to order 2.

The metric families on the tangent bundle are parameterized by two scalar
functions alpha(t), beta(t).  Everything downstream (the fiber block, the
vertical curvature coefficients, validity checks) consumes not just values
but first and second derivatives, so expressions are evaluated as order-2
jets (f, f', f'') propagated structurally through the syntax tree, which is
compiled once into closures.  t may be a number or an array: one evaluation
covers every t.

An evaluation runs numpy operations only where t enters the tree.  A subtree
of constants is a numpy scalar until it meets t, exp, ln, sqrt and powers
included.  A derivative that the tree makes zero is a structural zero: a
constant's, the second derivative of t, one whose power coefficient p or
p (p - 1) is 0, and every term formed from those alone.  It is never formed,
reads as an exact +0.0, and drops out of every sum and product, so where the
full chain rule would form 0 * x only the other terms remain.  That is visible
in two ways: such a derivative is +0.0 where 0 * x would have made it -0.0,
and it is the remaining term where 0 * inf, next to an overflowed factor,
would have made it NaN; t^1 and t^0 have the jets of t and of 1 at t = 0 too.
Every value, every DomainError and every derivative that the full rule makes
finite and nonzero is the same, bit for bit.

Grammar (precedence high to low): unary minus, ``^`` with a numeric
exponent, ``*`` ``/``, ``+`` ``-``.  Parentheses group.  The only variable
is ``t``; the only functions are ``exp``, ``ln`` and ``sqrt``.  Note that
unary minus binds tighter than the power operator, so ``-t^2`` is
``(-t)^2``.  An expression nests at most 100 levels deep: its tree holds at
most 100 operators on a path, and its text at most 100 open parentheses and
unary minus signs at a place; ``parse`` rejects a deeper one.

    >>> jet = compile_jet(parse("1/(1+t)"))
    >>> j = jet(0.0)
    >>> float(j.value), float(j.d1), float(j.d2)
    (1.0, -1.0, 2.0)
    >>> jet([0.0, 1.0]).d1
    array([-1.  , -0.25])
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple, Optional, Union

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
    "compile_jet",
    "ScalarFunction",
]


# --------------------------------------------------------------------------
# AST
# --------------------------------------------------------------------------


class Const(NamedTuple):
    value: float


class Var(NamedTuple):
    """The variable t."""


class Unary(NamedTuple):
    op: str  # "neg" | "exp" | "ln" | "sqrt"
    arg: Expr


class Binary(NamedTuple):
    op: str  # "+" | "-" | "*" | "/"
    left: Expr
    right: Expr


class Pow(NamedTuple):
    """Power with a constant (rational) exponent, e.g. t^2 or (1+t)^-0.5."""

    base: Expr
    exponent: float


# A node is a tuple, equal to another when their fields are.  The kinds of
# node differ in their number of fields or, for Unary and Pow, in the type of
# the first one, so equal nodes are of one kind.
Expr = Union[Const, Var, Unary, Binary, Pow]


_FUNCTIONS = ("exp", "ln", "sqrt")


# --------------------------------------------------------------------------
# Lexer / parser
# --------------------------------------------------------------------------


class _Token(NamedTuple):
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


# The bound on nesting (see the module docstring): parsing, compiling,
# evaluating, comparing and printing a tree recurse once or a few times per
# level, so they stay far from the interpreter's recursion limit.
_MAX_DEPTH = 100


class _Parser:
    """Recursive descent.  Each rule returns its node with the node's depth,
    the number of operators on its longest path; ``nesting`` counts the
    parentheses and unary minus signs open at the current token."""

    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.pos = 0
        self.nesting = 0

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

    def node(self, tok: _Token, node: Expr, *depths: int) -> tuple[Expr, int]:
        """node, the operator at tok over operands of the given depths."""
        depth = 1 + max(depths)
        if depth > _MAX_DEPTH:
            raise ParseError(f"expression deeper than {_MAX_DEPTH} operators", tok.pos)
        return node, depth

    def enter(self, tok: _Token) -> None:
        """One more level of nesting, opened at tok."""
        self.nesting += 1
        if self.nesting > _MAX_DEPTH:
            raise ParseError(f"expression nested deeper than {_MAX_DEPTH} levels", tok.pos)

    # additive := multiplicative (("+"|"-") multiplicative)*
    def additive(self) -> tuple[Expr, int]:
        node, depth = self.multiplicative()
        while self.peek().kind == "op" and self.peek().text in "+-":
            tok = self.advance()
            right, right_depth = self.multiplicative()
            node, depth = self.node(tok, Binary(tok.text, node, right), depth, right_depth)
        return node, depth

    # multiplicative := power (("*"|"/") power)*
    def multiplicative(self) -> tuple[Expr, int]:
        node, depth = self.power()
        while self.peek().kind == "op" and self.peek().text in "*/":
            tok = self.advance()
            right, right_depth = self.power()
            node, depth = self.node(tok, Binary(tok.text, node, right), depth, right_depth)
        return node, depth

    # power := unary ("^" exponent)?   (the exponent is one numeric constant,
    # so powers do not chain: t^2^3 leaves "^3" as trailing input)
    def power(self) -> tuple[Expr, int]:
        base, depth = self.unary()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            return self.node(tok, Pow(base, self.exponent()), depth)
        return base, depth

    def exponent(self) -> float:
        sign = 1.0
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            sign = -1.0
        tok = self.peek()
        if tok.kind != "num":
            raise ParseError("exponent must be a numeric constant", tok.pos)
        if math.isinf(float(tok.text)):
            raise ParseError("exponent must be finite", tok.pos)
        self.advance()
        return sign * float(tok.text)

    # unary := "-" unary | atom     (binds tighter than "^")
    def unary(self) -> tuple[Expr, int]:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            self.enter(tok)
            arg, depth = self.unary()
            self.nesting -= 1
            return self.node(tok, Unary("neg", arg), depth)
        return self.atom()

    # atom := number | "t" | function "(" additive ")" | "(" additive ")"
    def atom(self) -> tuple[Expr, int]:
        tok = self.advance()
        if tok.kind == "num":
            return Const(float(tok.text)), 0
        if tok.kind == "name" and tok.text == "t":
            return Var(), 0
        if tok.kind == "name" and tok.text not in _FUNCTIONS:
            raise UnknownIdentifierError(f"unknown identifier {tok.text!r}", tok.pos)
        if tok.kind == "name":
            opening = self.expect_op("(")
        elif tok.kind == "op" and tok.text == "(":
            opening = tok
        else:
            raise ParseError("expected a value", tok.pos)
        self.enter(opening)
        node, depth = self.additive()
        self.expect_op(")")
        self.nesting -= 1
        if tok.kind == "name":
            return self.node(tok, Unary(tok.text, node), depth)
        return node, depth


def parse(src: str) -> Expr:
    """Parse expression text into an AST.

    Raises ParseError (with byte offset) on malformed input, and on input
    nested deeper than the bound of the module docstring (at the operator,
    parenthesis or minus sign that crosses it), and UnknownIdentifierError
    for names other than t/exp/ln/sqrt.
    """
    if not src or not src.strip():
        raise ParseError("empty expression", 0)
    parser = _Parser(src)
    node, _ = parser.additive()
    tok = parser.peek()
    if tok.kind != "end":
        raise ParseError(f"trailing input {tok.text!r}", tok.pos)
    return node


# --------------------------------------------------------------------------
# Jets
# --------------------------------------------------------------------------


class Jet2(NamedTuple):
    """Value with first and second derivative: (f(t), f'(t), f''(t)).

    The fields are numbers for a number t, or arrays of the shape of t.
    """

    value: np.ndarray
    d1: np.ndarray
    d2: np.ndarray


def _check(bad, message: str, node: str, t) -> None:
    """Raise DomainError at the first t where ``bad`` holds.  A ``bad`` that
    is one number, a constant's, holds at every t, and so at none of an
    empty t."""
    if np.count_nonzero(bad) and np.size(t):
        raise DomainError(message, node, float(np.ravel(t)[np.argmax(bad)]))


# A structural zero (see the module docstring) is None, and these drop it
# from sums and products.  The terms that remain are formed and added in the
# order of the full formula, so that they round as they would there.


def _plus(x, y):
    return y if x is None else x if y is None else x + y


def _minus(x, y):
    return x if y is None else -y if x is None else x - y


def _times(x, y):
    return None if x is None or y is None else x * y


def _twice_times(x, y):
    return None if x is None or y is None else 2.0 * x * y


def _over(x, y):
    return None if x is None else x / y


# The chain rule of each node, from the jets (f, f', f'') of its operands to
# its own, after the check of the node's real domain at t.


def _neg(a, t):
    v, d1, d2 = a
    return -v, None if d1 is None else -d1, None if d2 is None else -d2


def _exp(a, t):
    v, d1, d2 = a
    e = np.exp(v)
    _check(np.isinf(e), "exp overflows", "exp", t)
    return e, _times(e, d1), _times(e, _plus(_times(d1, d1), d2))


def _ln(a, t):
    v, d1, d2 = a
    _check(v <= 0.0, "ln of a nonpositive value", "ln", t)
    r = _over(d1, v)
    return np.log(v), r, _minus(_over(d2, v), _times(r, r))


def _sqrt(a, t):
    v, d1, d2 = a
    # 0 is excluded: the jet has infinite slope there.
    _check(v <= 0.0, "sqrt of a nonpositive value", "sqrt", t)
    s = np.sqrt(v)
    two_s = 2.0 * s
    slope_sq = None if d1 is None else d1 * d1 / (4.0 * np.power(s, 3))
    return s, _over(d1, two_s), _minus(_over(d2, two_s), slope_sq)


def _add(a, b, t):
    return a[0] + b[0], _plus(a[1], b[1]), _plus(a[2], b[2])


def _sub(a, b, t):
    return a[0] - b[0], _minus(a[1], b[1]), _minus(a[2], b[2])


def _mul(a, b, t):
    (av, a1, a2), (bv, b1, b2) = a, b
    d2 = _plus(_plus(_times(a2, bv), _twice_times(a1, b1)), _times(av, b2))
    return av * bv, _plus(_times(a1, bv), _times(av, b1)), d2


def _div(a, b, t):
    (av, a1, a2), (bv, b1, b2) = a, b
    _check(bv == 0.0, "division by zero", "division", t)
    q = av / bv
    q1 = _over(_minus(a1, _times(q, b1)), bv)
    return q, q1, _over(_minus(_minus(a2, _twice_times(q1, b1)), _times(q, b2)), bv)


# np.power, not **: numpy scalars and arrays take different routes for **.
# The coefficients p and p (p - 1) = p_p1 of the derivatives are constants of
# the node, and one that is 0 is a structural zero: t^1 and t^0 form no 0 * inf
# at t = 0.
def _pow(a, t, p, fractional, negative, p_p1):
    v, d1, d2 = a
    if fractional:
        _check(v <= 0.0, "fractional power of a nonpositive base", "power", t)
    elif negative:
        _check(v == 0.0, "zero base with negative exponent", "power", t)
    out = np.power(v, p)
    _check(np.isinf(out), "power overflows", "power", t)
    if p == 0.0 or d1 is None and d2 is None:
        return out, None, None
    vp1 = p * np.power(v, p - 1.0)
    bend = None if p_p1 == 0.0 or d1 is None else p_p1 * np.power(v, p - 2.0) * d1 * d1
    return out, _times(vp1, d1), _plus(bend, _times(vp1, d2))


_UNARY = {"neg": _neg, "exp": _exp, "ln": _ln, "sqrt": _sqrt}
_BINARY = {"+": _add, "-": _sub, "*": _mul, "/": _div}


def _spread(x, zero):
    """x, a number or an array in the shape of zero, in the shape of zero:
    x - (+0.0) is x, -0.0 and NaN included."""
    return x if type(x) is np.ndarray else x - zero


def _compile(node: Expr):
    """node as a function of (t, zero) that returns its jet as a tuple; zero
    is 0 in the shape of t.  The tree is dispatched on once, here.

    A subtree free of t is a numpy scalar, with structural zeros for its
    derivatives, until it meets t."""
    if isinstance(node, Const):
        c = np.float64(0.0 + node.value)  # a constant -0 reads as 0
        return lambda t, zero: (c, None, None)
    if isinstance(node, Var):
        one = np.float64(1.0)
        return lambda t, zero: (t, one, None)
    if isinstance(node, Binary):
        left, right, rule = _compile(node.left), _compile(node.right), _BINARY[node.op]
        return lambda t, zero: rule(left(t, zero), right(t, zero), t)
    if isinstance(node, Unary):
        arg, rule = _compile(node.arg), _UNARY[node.op]
        return lambda t, zero: rule(arg(t, zero), t)
    if isinstance(node, Pow):
        base, p = _compile(node.base), node.exponent
        fractional, negative, p_p1 = p != int(p), p < 0, p * (p - 1.0)
        return lambda t, zero: _pow(base(t, zero), t, p, fractional, negative, p_p1)
    raise AssertionError(type(node))


def compile_jet(node: Expr) -> Callable[[np.ndarray], Jet2]:
    """The jet function of node: (f, f', f'') at t by forward propagation
    through the tree, which is compiled once into closures, so that an
    evaluation runs numpy operations only, and only where t enters:
    arithmetic on constants stays on numpy scalars, and the derivatives that
    the tree makes zero are never formed (see the module docstring).  The
    fields are arrays in the shape of t, numbers for a number t.

    t is a number or an array; one evaluation covers every t.  The function
    raises DomainError naming the offending node and the first t outside
    the real domain (division by zero, ln of a nonpositive value, sqrt of a
    nonpositive value, a negative power of zero or a fractional power of a
    nonpositive base), or where exp or a power overflows.  The checks run
    in evaluation order: a node's operands before the node, the left
    operand before the right.
    """
    run = _compile(node)

    def jet(t) -> Jet2:
        t = np.asarray(t, dtype=float)
        zero = np.zeros(t.shape)[()]
        with np.errstate(all="ignore"):
            fields = run(t[()], zero)
        return Jet2(*(zero if f is None else _spread(f, zero) for f in fields))

    return jet


# --------------------------------------------------------------------------
# ScalarFunction
# --------------------------------------------------------------------------


class ScalarFunction:
    """A function of t >= 0 given by its order-2 jet function, which takes a
    number or an array of t.

    Expression-backed instances run their syntax tree, compiled once, and
    keep it as ``expr``.  Derived functions such as the flatness beta supply
    their own jet function (``expr`` is None); its second derivative may be
    NaN where it is not available.
    """

    def __init__(
        self,
        jet: Callable[[np.ndarray], Jet2],
        name: str = "<callable>",
        expr: Optional[Expr] = None,
    ):
        self._jet = jet
        self.name = name
        self.expr = expr

    @classmethod
    def from_expr(cls, node: Expr, name: str) -> "ScalarFunction":
        return cls(compile_jet(node), name=name, expr=node)

    @classmethod
    def from_expression(cls, src: str, name: str = "") -> "ScalarFunction":
        return cls.from_expr(parse(src), name or src)

    @classmethod
    def constant(cls, c: float) -> "ScalarFunction":
        try:
            value = float(c)
        except OverflowError:  # an integer beyond the range of a double
            raise ValueError(f"constant {c!r} is beyond the range of a double") from None
        return cls.from_expr(Const(value), repr(value))

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
    return ScalarFunction.constant(f)
