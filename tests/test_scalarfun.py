"""Tests for the expression DSL and derivative jets."""

import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tbcurv.errors import DomainError, ParseError, UnknownIdentifierError
from tbcurv.scalarfun import (
    Binary,
    Const,
    Jet2,
    Pow,
    ScalarFunction,
    Unary,
    Var,
    compile_jet,
    parse,
)


class TestParse:
    def test_reciprocal(self):
        ast = parse("1/(1+t)")
        assert ast == Binary("/", Const(1.0), Binary("+", Const(1.0), Var()))

    def test_exp_product(self):
        ast = parse("exp(-t)*(1+t)")
        assert ast == Binary(
            "*", Unary("exp", Unary("neg", Var())), Binary("+", Const(1.0), Var())
        )

    def test_truncated_input_offset(self):
        with pytest.raises(ParseError) as err:
            parse("1/(1+")
        assert err.value.offset == 5

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifierError):
            parse("1 + x")

    def test_empty(self):
        with pytest.raises(ParseError):
            parse("   ")

    def test_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse("1+t )")

    def test_power_binds_below_unary_minus(self):
        # -t^2 is (-t)^2 under the declared precedence
        assert parse("-t^2") == Pow(Unary("neg", Var()), 2.0)

    def test_double_star_alias(self):
        assert parse("t**2") == parse("t^2")

    def test_nonconstant_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse("t^t")

    def test_scientific_literals(self):
        assert parse("1e-3") == Const(1e-3)

    def test_powers_do_not_chain(self):
        # the exponent is one numeric constant, not a power
        with pytest.raises(ParseError, match=r"trailing input '\^'") as err:
            parse("t^2^3")
        assert err.value.offset == 3

    def test_subtraction_left_associative(self):
        assert parse("1-t-2") == Binary("-", Binary("-", Const(1.0), Var()), Const(2.0))

    # past 100 levels, at the token that crosses the bound; the first three
    # used to raise RecursionError in the parser or in compile_jet
    @pytest.mark.parametrize(
        "src,offset,what",
        [
            ("(" * 600 + "t" + ")" * 600, 100, "nested deeper than 100 levels"),
            ("-" * 1200 + "t", 100, "nested deeper than 100 levels"),
            ("1" + "+t" * 2999, 201, "deeper than 100 operators"),
            ("(" * 101 + "t" + ")" * 101, 100, "nested deeper than 100 levels"),
            ("exp(" * 101 + "t" + ")" * 101, 403, "nested deeper than 100 levels"),
            ("sqrt(" * 100 + "1+t" + ")" * 100, 0, "deeper than 100 operators"),
            ("(t" + "*t" * 100 + ")^2", 203, "deeper than 100 operators"),
        ],
        ids=["parentheses", "minus-signs", "sum", "101-parentheses", "101-functions",
             "101-operators", "power"],
    )
    def test_deeper_than_the_bound_is_a_parse_error(self, src, offset, what):
        with pytest.raises(ParseError, match=f"^expression {what} ") as err:
            parse(src)
        assert err.value.offset == offset

    @pytest.mark.parametrize(
        "src,value",
        [
            ("(" * 100 + "t" + ")" * 100, [0.5, 2.0]),
            ("-" * 100 + "t", [0.5, 2.0]),
            ("1" + "+t" * 100, [51.0, 201.0]),
            ("-(" * 50 + "1+t" + ")" * 50, [1.5, 3.0]),
            ("ln(" + "sqrt(" * 98 + "1+t" + ")" * 99, None),
        ],
        ids=["parentheses", "minus-signs", "sum", "both", "operators"],
    )
    def test_expression_at_the_bound_parses_compiles_and_evaluates(self, src, value):
        tree = parse(src)
        assert tree == parse(src) and repr(tree)
        j = compile_jet(tree)(np.array([0.5, 2.0]))
        if value is None:  # ln((1+t)^(2^-98)), rounded
            value = np.log(np.array([1.5, 3.0]) ** 2.0**-98)
            assert np.allclose(j.value, value, rtol=1e-6, atol=0)
        else:
            assert j.value.tolist() == value
        assert np.isfinite(j.d1).all() and np.isfinite(j.d2).all()


class TestEvalJet:
    def test_square(self):
        jet = compile_jet(parse("t^2"))(3.0)
        assert (jet.value, jet.d1, jet.d2) == (9.0, 6.0, 2.0)

    def test_exp(self):
        jet = compile_jet(parse("exp(t)"))(0.0)
        assert (jet.value, jet.d1, jet.d2) == (1.0, 1.0, 1.0)

    def test_reciprocal(self):
        # analytic: -1/(1+t)^2 and 2/(1+t)^3 at t = 0
        jet = compile_jet(parse("1/(1+t)"))(0.0)
        assert (jet.value, jet.d1, jet.d2) == (1.0, -1.0, 2.0)

    def test_log_chain(self):
        jet = compile_jet(parse("ln(1+t)"))(1.0)
        assert jet.value == pytest.approx(math.log(2.0), abs=1e-15)
        assert jet.d1 == pytest.approx(0.5, abs=1e-15)
        assert jet.d2 == pytest.approx(-0.25, abs=1e-15)

    def test_sqrt(self):
        jet = compile_jet(parse("sqrt(t)"))(4.0)
        assert jet.value == 2.0
        assert jet.d1 == pytest.approx(0.25, abs=1e-15)
        assert jet.d2 == pytest.approx(-1.0 / 32.0, abs=1e-15)

    @pytest.mark.parametrize(
        "src,t",
        [
            ("1/t", 0.0),
            ("ln(t-1)", 0.5),
            ("sqrt(-1-t)", 0.0),
            ("(t-2)^0.5", 1.0),
            ("t^-1", 0.0),
        ],
    )
    def test_domain_errors(self, src, t):
        with pytest.raises(DomainError) as err:
            compile_jet(parse(src))(t)
        assert type(err.value.t) is float and err.value.t == t
        assert str(err.value).endswith(f"at t={t!r}")  # a plain float, not np.float64(...)

    @pytest.mark.parametrize(
        "src,ts,node,first_bad",
        [
            ("1/(t-2)", [0.0, 1.0, 2.0, 3.0, 2.0], "division", 2.0),
            ("ln(t-1)", [3.0, 2.0, 0.5, 0.25, 2.0], "ln", 0.5),
            ("sqrt(2-t)", [[0.0, 1.0], [2.5, 3.0]], "sqrt", 2.5),
            ("(t-2)^0.5", [3.0, 2.5, 1.5, 4.0], "power", 1.5),
            ("(t-1)^-2", [0.0, 1.0, 2.0, 1.0], "power", 1.0),
            ("exp(t^3)", [1.0, 2.0, 9.0, 3.0, 10.0], "exp", 9.0),
            ("(t+1)^400", [0.0, 1.0, 6.0, 2.0, 7.0], "power", 6.0),
            ("t+1/(2-2)", [5.0, 1.0], "division", 5.0),  # a constant fails at every t
        ],
    )
    def test_domain_errors_of_an_array_name_its_first_bad_t(self, src, ts, node, first_bad):
        with pytest.raises(DomainError) as err:
            compile_jet(parse(src))(np.array(ts))
        assert err.value.node == node
        assert type(err.value.t) is float and err.value.t == first_bad
        assert str(err.value).endswith(f"{node} at t={first_bad!r}")

    # a power coefficient p or p (p - 1) of 0 is a structural zero, so no
    # 0 * inf forms where the base is 0 (each was NaN)
    @pytest.mark.parametrize(
        "src,t,want",
        [
            ("(t-1)^1", 1.0, (0.0, 1.0, 0.0)),
            ("t^1", 0.0, (0.0, 1.0, 0.0)),
            ("t^0", 0.0, (1.0, 0.0, 0.0)),
            ("t^-0", 0.0, (1.0, 0.0, 0.0)),
            ("1+t^1", np.array([0.0, 2.0]), ([1.0, 3.0], [1.0, 1.0], [0.0, 0.0])),
        ],
    )
    def test_zero_power_coefficient_at_a_zero_base(self, src, t, want):
        jet = compile_jet(parse(src))(t)
        for got, expected in zip(jet, want):
            assert np.asarray(got).tobytes() == np.broadcast_to(expected, np.shape(t)).tobytes()

    def test_constant_domain_error_has_no_t_in_an_empty_array(self):
        jet = compile_jet(parse("t+1/0+ln(-1)"))(np.zeros((2, 0)))
        assert [np.shape(field) for field in jet] == [(2, 0)] * 3

    def test_integer_power_of_negative_base_ok(self):
        jet = compile_jet(parse("(t-2)^3"))(1.0)
        assert jet.value == -1.0
        assert jet.d1 == 3.0
        assert jet.d2 == -6.0


# -- properties --------------------------------------------------------------

_leaf = st.one_of(
    st.just(Var()),
    st.builds(Const, st.floats(min_value=0.1, max_value=5.0).map(lambda x: round(x, 4))),
)


def _combine(children):
    return st.one_of(
        st.builds(lambda a, b: Binary("+", a, b), children, children),
        st.builds(lambda a, b: Binary("-", a, b), children, children),
        st.builds(lambda a, b: Binary("*", a, b), children, children),
        st.builds(lambda a, b: Binary("/", a, b), children, children),
        st.builds(lambda a: Unary("neg", a), children),
        st.builds(lambda a: Unary("exp", a), children),
        st.builds(lambda a: Unary("ln", a), children),
        st.builds(lambda a: Unary("sqrt", a), children),
        st.builds(Pow, children, st.sampled_from([2.0, 3.0, -1.0, 0.5, 1.5])),
    )


_ast = st.recursive(_leaf, _combine, max_leaves=10)


def _parenthesized(node) -> str:
    """The text of a tree with every operation in parentheses."""
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, Var):
        return "t"
    if isinstance(node, Unary):
        arg = _parenthesized(node.arg)
        return f"(-{arg})" if node.op == "neg" else f"{node.op}({arg})"
    if isinstance(node, Binary):
        return f"({_parenthesized(node.left)}{node.op}{_parenthesized(node.right)})"
    return f"({_parenthesized(node.base)}^{node.exponent!r})"


@given(_ast)
def test_parse_reads_parenthesized_text_back_to_its_tree(ast):
    assert parse(_parenthesized(ast)) == ast


@given(_ast, st.floats(min_value=0.05, max_value=3.0))
@example(parse("(t+1)*exp(15)"), 1.0)  # |f| ~ 6.5e6: the reference d2 rounds off by ~5e-3
@example(parse("t/(t-1)"), 0.994140625)  # a pole 5.9 steps away: the reference is off
@settings(max_examples=200)
def test_jets_match_finite_differences(ast, t):
    """d1/d2 agree with Richardson-extrapolated central differences
    wherever the expression is smooth around t; the jets of an array of t
    equal the jets of each t."""
    h = 1e-3 * max(1.0, abs(t))
    steps = (-1.0, -0.5, -0.25, 0.25, 0.5, 1.0)
    jet_at = compile_jet(ast)
    try:
        jet = jet_at(t)
        samples = {s: jet_at(t + s * h).value for s in steps}
        f0 = jet.value
    except DomainError:
        assume(False)
    ts = np.array([t] + [t + s * h for s in steps])
    array_jet = jet_at(ts.reshape(7, 1))
    for field in ("value", "d1", "d2"):
        got = getattr(array_jet, field)
        assert got.shape == (7, 1)
        want = [getattr(jet_at(float(ti)), field) for ti in ts]
        np.testing.assert_array_equal(got[:, 0], want)
    values = [f0] + list(samples.values()) + [jet.d1, jet.d2]
    assume(all(math.isfinite(x) and abs(x) < 1e8 for x in values))

    def fd1(step_scale):
        return (samples[step_scale] - samples[-step_scale]) / (2.0 * step_scale * h)

    def fd2(step_scale):
        return (samples[step_scale] - 2.0 * f0 + samples[-step_scale]) / (
            step_scale * h
        ) ** 2

    def richardson(fd):
        """The reference, from steps h and h/2, and its own error estimate:
        how far it moves when both steps halve."""
        value = (4.0 * fd(0.5) - fd(1.0)) / 3.0
        return value, abs(value - (4.0 * fd(0.25) - fd(0.5)) / 3.0)

    # Skip violently non-smooth neighborhoods (poles between stencil points).
    assume(abs(fd1(1.0) - fd1(0.5)) < 0.05 * (1.0 + abs(jet.d1)))
    assume(abs(fd2(1.0) - fd2(0.5)) < 0.05 * (1.0 + abs(jet.d2)))

    # A pole a few steps from t (t/(t-1) at t = 0.994, h = 1e-3) leaves the
    # reference itself off by more than the tolerance: such a draw is skipped
    # where the reference's error estimate exceeds a quarter of it.
    rich1, err1 = richardson(fd1)
    tol1 = max(1e-4 * abs(rich1), 1e-5)
    assume(err1 <= 0.25 * tol1)
    assert jet.d1 == pytest.approx(rich1, rel=1e-4, abs=1e-5)
    # The reference's own rounding: each sample is good to about one ulp of
    # max|f|, and the Richardson d2 combination scales that by at most
    # (4/3 * 16 + 1/3 * 4) / h^2, about 23 / h^2, and 16 times that at the
    # halved steps of the error estimate.
    f_max = max(abs(x) for x in [f0] + list(samples.values()))
    rounding = 24.0 * sys.float_info.epsilon * f_max / h**2
    rich2, err2 = richardson(fd2)
    tol2 = max(1e-3 * abs(rich2), 1e-3 + rounding)
    assume(err2 <= 0.25 * tol2 + 16.0 * rounding)
    assert jet.d2 == pytest.approx(rich2, rel=1e-3, abs=1e-3 + rounding)


@pytest.mark.parametrize(
    "src", ["exp(-t)*(1+t)", "1/(1+t)", "sqrt(1+2*t)", "ln(2+t)+t^2", "(1+t)^1.5"]
)
def test_fd_error_scales_quadratically(src):
    """Central-difference errors of d1 and d2 fall like h^2 over the swept
    decades."""
    jet_at = compile_jet(parse(src))
    t = 0.7
    jet = jet_at(t)

    def err1(h):
        fd = (jet_at(t + h).value - jet_at(t - h).value) / (2 * h)
        return abs(fd - jet.d1)

    def err2(h):
        fd = (jet_at(t + h).value - 2 * jet.value + jet_at(t - h).value) / h**2
        return abs(fd - jet.d2)

    assert err1(1e-3) <= 0.05 * err1(1e-2) + 1e-12
    assert err1(1e-4) <= 1e-6
    assert err2(1e-3) <= 0.05 * err2(1e-2) + 1e-9
    assert err2(1e-3) <= 1e-4


class TestScalarFunction:
    def test_expression_backed(self):
        f = ScalarFunction.from_expression("exp(t)")
        assert f(0.0) == 1.0
        assert f.jet(0.0).d2 == 1.0

    def test_callable_backed_without_d2(self):
        f = ScalarFunction(lambda t: Jet2(t, 1.0, math.nan))
        assert f(2.0) == 2.0 and math.isnan(f.jet(1.0).d2)

    def test_constant(self):
        f = ScalarFunction.constant(2.5)
        jet = f.jet(7.0)
        assert (jet.value, jet.d1, jet.d2) == (2.5, 0.0, 0.0)

    def test_constant_is_named_by_its_repr(self):
        assert [ScalarFunction.constant(c).name for c in (2, 2.5, math.inf, math.nan)] == [
            "2.0", "2.5", "inf", "nan"]

    def test_constant_beyond_a_double_is_a_value_error(self):
        with pytest.raises(ValueError, match=r"constant -10{400} is beyond the range of a double"):
            ScalarFunction.constant(-10**400)

    def test_expression_backed_keeps_its_tree(self):
        assert ScalarFunction.from_expression("1/(1+t)").expr == parse("1/(1+t)")
        assert ScalarFunction.constant(2.5).expr == Const(2.5)
        assert ScalarFunction(lambda t: Jet2(t, 1.0, math.nan)).expr is None


def test_infinite_exponent_is_a_parse_error():
    # int(inf) used to crash the evaluation with OverflowError
    with pytest.raises(ParseError) as err:
        parse("1+t^1e400")
    assert err.value.offset == 4


# -- compiled jets against reference tree walks --------------------------------


class _FullJet:
    """A jet of the tree walk that forms every term of the chain rule, with a
    zero array for each derivative of a constant."""

    def __init__(self, value, d1, d2):
        self.value, self.d1, self.d2 = value, d1, d2

    def __add__(self, other):
        return _FullJet(self.value + other.value, self.d1 + other.d1, self.d2 + other.d2)

    def __sub__(self, other):
        return _FullJet(self.value - other.value, self.d1 - other.d1, self.d2 - other.d2)

    def __neg__(self):
        return _FullJet(-self.value, -self.d1, -self.d2)

    def __mul__(self, other):
        return _FullJet(
            self.value * other.value,
            self.d1 * other.value + self.value * other.d1,
            self.d2 * other.value + 2.0 * self.d1 * other.d1 + self.value * other.d2,
        )

    def __truediv__(self, other):
        q = self.value / other.value
        q1 = (self.d1 - q * other.d1) / other.value
        q2 = (self.d2 - 2.0 * q1 * other.d1 - q * other.d2) / other.value
        return _FullJet(q, q1, q2)


def _ref_check(bad, message, node, t):
    if np.count_nonzero(bad):
        raise DomainError(message, node, float(np.ravel(t)[np.argmax(bad)]))


def _full_walk(node, t, zero):
    """The per-node tree walk that forms every term: 0 * x where a factor is
    a zero derivative, so 0 * inf gives NaN and 0 * (-x) gives -0.0."""
    if isinstance(node, Const):
        return _FullJet(zero + node.value, zero, zero)
    if isinstance(node, Var):
        return _FullJet(t, zero + 1.0, zero)
    if isinstance(node, Unary):
        a = _full_walk(node.arg, t, zero)
        if node.op == "neg":
            return -a
        if node.op == "exp":
            e = np.exp(a.value)
            out = _FullJet(e, e * a.d1, e * (a.d1 * a.d1 + a.d2))
            _ref_check(np.isinf(out.value), "exp overflows", "exp", t)
            return out
        if node.op == "ln":
            _ref_check(a.value <= 0.0, "ln of a nonpositive value", "ln", t)
            r = a.d1 / a.value
            return _FullJet(np.log(a.value), r, a.d2 / a.value - r * r)
        _ref_check(a.value <= 0.0, "sqrt of a nonpositive value", "sqrt", t)
        s = np.sqrt(a.value)
        d1 = a.d1 / (2.0 * s)
        return _FullJet(s, d1, a.d2 / (2.0 * s) - a.d1 * a.d1 / (4.0 * np.power(s, 3)))
    if isinstance(node, Binary):
        left = _full_walk(node.left, t, zero)
        right = _full_walk(node.right, t, zero)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        _ref_check(right.value == 0.0, "division by zero", "division", t)
        return left / right
    a = _full_walk(node.base, t, zero)
    p = node.exponent
    if p != int(p):
        _ref_check(a.value <= 0.0, "fractional power of a nonpositive base", "power", t)
    elif p < 0:
        _ref_check(a.value == 0.0, "zero base with negative exponent", "power", t)
    v = np.power(a.value, p)
    vp1 = p * np.power(a.value, p - 1.0)
    vp2 = p * (p - 1.0) * np.power(a.value, p - 2.0)
    out = _FullJet(v, vp1 * a.d1, vp2 * a.d1 * a.d1 + vp1 * a.d2)
    _ref_check(np.isinf(out.value), "power overflows", "power", t)
    return out


def _full_eval_jet(node, t):
    t = np.asarray(t, dtype=float)
    zero = np.zeros_like(t)[()]
    with np.errstate(all="ignore"):
        return _full_walk(node, t[()], zero)


# The structural zero of the reference walk below: a derivative that is None
# is never formed, and the terms it would enter are dropped.


def _z_add(x, y):
    return y if x is None else x if y is None else x + y


def _z_sub(x, y):
    return x if y is None else -y if x is None else x - y


def _z_mul(x, y):
    return None if x is None or y is None else x * y


def _z_div(x, y):
    return None if x is None else x / y


class _RefJet:
    """A jet whose derivatives are arrays or structural zeros (None)."""

    def __init__(self, value, d1, d2):
        self.value, self.d1, self.d2 = value, d1, d2

    def __add__(self, other):
        return _RefJet(
            self.value + other.value, _z_add(self.d1, other.d1), _z_add(self.d2, other.d2)
        )

    def __sub__(self, other):
        return _RefJet(
            self.value - other.value, _z_sub(self.d1, other.d1), _z_sub(self.d2, other.d2)
        )

    def __neg__(self):
        return _RefJet(-self.value, _z_sub(None, self.d1), _z_sub(None, self.d2))

    def __mul__(self, other):
        cross = _z_mul(_z_mul(2.0, self.d1), other.d1)
        return _RefJet(
            self.value * other.value,
            _z_add(_z_mul(self.d1, other.value), _z_mul(self.value, other.d1)),
            _z_add(
                _z_add(_z_mul(self.d2, other.value), cross), _z_mul(self.value, other.d2)
            ),
        )

    def __truediv__(self, other):
        q = self.value / other.value
        q1 = _z_div(_z_sub(self.d1, _z_mul(q, other.d1)), other.value)
        cross = _z_mul(_z_mul(2.0, q1), other.d1)
        q2 = _z_div(_z_sub(_z_sub(self.d2, cross), _z_mul(q, other.d2)), other.value)
        return _RefJet(q, q1, q2)


def _ref_walk(node, t, zero):
    """The per-node tree walk with the structural zero rule, on arrays in the
    shape of t throughout: a constant is zero + c, and its derivatives, the
    second derivative of t and a power's coefficient p or p (p - 1) that is 0
    are None."""
    if isinstance(node, Const):
        return _RefJet(zero + node.value, None, None)
    if isinstance(node, Var):
        return _RefJet(t, zero + 1.0, None)
    if isinstance(node, Unary):
        a = _ref_walk(node.arg, t, zero)
        if node.op == "neg":
            return -a
        if node.op == "exp":
            e = np.exp(a.value)
            out = _RefJet(e, _z_mul(e, a.d1), _z_mul(e, _z_add(_z_mul(a.d1, a.d1), a.d2)))
            _ref_check(np.isinf(out.value), "exp overflows", "exp", t)
            return out
        if node.op == "ln":
            _ref_check(a.value <= 0.0, "ln of a nonpositive value", "ln", t)
            r = _z_div(a.d1, a.value)
            return _RefJet(np.log(a.value), r, _z_sub(_z_div(a.d2, a.value), _z_mul(r, r)))
        _ref_check(a.value <= 0.0, "sqrt of a nonpositive value", "sqrt", t)
        s = np.sqrt(a.value)
        d1 = _z_div(a.d1, 2.0 * s)
        d2 = _z_sub(
            _z_div(a.d2, 2.0 * s), _z_div(_z_mul(a.d1, a.d1), 4.0 * np.power(s, 3))
        )
        return _RefJet(s, d1, d2)
    if isinstance(node, Binary):
        left = _ref_walk(node.left, t, zero)
        right = _ref_walk(node.right, t, zero)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        _ref_check(right.value == 0.0, "division by zero", "division", t)
        return left / right
    a = _ref_walk(node.base, t, zero)
    p = node.exponent
    if p != int(p):
        _ref_check(a.value <= 0.0, "fractional power of a nonpositive base", "power", t)
    elif p < 0:
        _ref_check(a.value == 0.0, "zero base with negative exponent", "power", t)
    v = np.power(a.value, p)
    vp1 = None if p == 0.0 else p * np.power(a.value, p - 1.0)
    vp2 = None if p * (p - 1.0) == 0.0 else p * (p - 1.0) * np.power(a.value, p - 2.0)
    d2 = _z_add(_z_mul(_z_mul(vp2, a.d1), a.d1), _z_mul(vp1, a.d2))
    out = _RefJet(v, _z_mul(vp1, a.d1), d2)
    _ref_check(np.isinf(out.value), "power overflows", "power", t)
    return out


def _ref_eval_jet(node, t):
    t = np.asarray(t, dtype=float)
    zero = np.zeros_like(t)[()]
    with np.errstate(all="ignore"):
        jet = _ref_walk(node, t[()], zero)
    return Jet2(jet.value, *(zero if d is None else d for d in (jet.d1, jet.d2)))


def _jet_outcome(evaluate):
    """The three fields as (dtype, shape, bytes), or the DomainError."""
    try:
        jet = evaluate()
    except DomainError as exc:
        return ("DomainError", str(exc), exc.node, exc.t)
    return [(np.asarray(f).dtype, np.shape(f), np.asarray(f).tobytes()) for f in (jet.value, jet.d1, jet.d2)]


# Every node and every exponent case of the grammar, with constants and t
# that reach the domain checks, overflow, underflow, NaN and signed zeros.
_any_const = st.floats(min_value=-10.0, max_value=10.0) | st.sampled_from(
    [0.0, -0.0, 1e-300, 1e300, 700.0, math.inf]
)
_any_leaf = st.one_of(st.just(Var()), st.builds(Const, _any_const))


def _any_combine(children):
    return st.one_of(
        st.builds(Binary, st.sampled_from("+-*/"), children, children),
        st.builds(Unary, st.sampled_from(["neg", "exp", "ln", "sqrt"]), children),
        st.builds(
            Pow,
            children,
            st.sampled_from([0.0, -0.0, 1.0, 2.0, 3.0, -1.0, -2.0, 0.5, 1.5, -0.5, 400.0, 1e300]),
        ),
    )


_any_ast = st.recursive(_any_leaf, _any_combine, max_leaves=8)
_any_t = st.floats(allow_nan=False, min_value=-1e3, max_value=1e3) | st.sampled_from(
    [0.0, -0.0, 1.0, 1e-300, 1e300, math.inf]
)


# bit for bit against the per-node walk, whose constants are arrays in the
# shape of t: so it also checks that numpy rounds exp, ln, sqrt and powers of
# a float64 scalar as it rounds the same value in an array
@given(_any_ast, st.one_of(_any_t, st.lists(_any_t, min_size=1, max_size=6)))
@settings(max_examples=500, deadline=None)
def test_compiled_jets_equal_the_tree_walk(ast, t):
    assert _jet_outcome(lambda: compile_jet(ast)(t)) == _jet_outcome(lambda: _ref_eval_jet(ast, t))
    f = ScalarFunction.from_expr(ast, "f")
    assert _jet_outcome(lambda: f.jet(t)) == _jet_outcome(lambda: _ref_eval_jet(ast, t))


@given(_any_ast, st.one_of(_any_t, st.lists(_any_t, min_size=1, max_size=6)))
@settings(max_examples=500, deadline=None)
def test_jets_keep_every_finite_nonzero_field_of_the_full_walk(ast, t):
    """Structural zeros change only what 0 * x formed: derivatives that the
    full walk makes zero or not finite.  Values, DomainErrors and every
    derivative that the full walk makes finite and nonzero keep their bits."""
    try:
        full = _full_eval_jet(ast, t)
    except DomainError as exc:
        with pytest.raises(DomainError) as err:
            compile_jet(ast)(t)
        assert (str(err.value), err.value.node, err.value.t) == (str(exc), exc.node, exc.t)
        return
    got = compile_jet(ast)(t)
    for name, want, field in zip(("value", "d1", "d2"), (full.value, full.d1, full.d2), got):
        want, field = np.asarray(want), np.asarray(field)
        assert (field.dtype, field.shape) == (want.dtype, want.shape)
        kept = np.ones(want.shape, bool) if name == "value" else np.isfinite(want) & (want != 0)
        assert field[kept].tobytes() == want[kept].tobytes(), name


@pytest.mark.parametrize(
    "src",
    [
        "exp(0.3*t)*sqrt(1+t)/(ln(2+t)+t^1.5)",
        "sqrt(exp(-t)*(1+t^2))/ln(3+t)*exp(0.7*t)",
        "ln(1+t)*exp(t/3)*sqrt(2+t)-(-t)^3/(1+t)^-0.5",
        "(1+t)^-0.4665*(0.881024*t/(1+t))+(2+t)^-2",
    ],
)
def test_compiled_jets_equal_the_tree_walk_on_smooth_functions(src):
    # every product, quotient and chain rule rounds here, so a reordered
    # term shows in some of the 64 points
    t = np.linspace(0.1, 3.0, 64)
    assert _jet_outcome(lambda: compile_jet(parse(src))(t)) == _jet_outcome(
        lambda: _ref_eval_jet(parse(src), t)
    )
