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
    eval_jet,
    parse,
    to_text,
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

    def test_subtraction_left_associative(self):
        assert parse("1-t-2") == Binary("-", Binary("-", Const(1.0), Var()), Const(2.0))


class TestEvalJet:
    def test_square(self):
        jet = eval_jet(parse("t^2"), 3.0)
        assert (jet.value, jet.d1, jet.d2) == (9.0, 6.0, 2.0)

    def test_exp(self):
        jet = eval_jet(parse("exp(t)"), 0.0)
        assert (jet.value, jet.d1, jet.d2) == (1.0, 1.0, 1.0)

    def test_reciprocal(self):
        # analytic: -1/(1+t)^2 and 2/(1+t)^3 at t = 0
        jet = eval_jet(parse("1/(1+t)"), 0.0)
        assert (jet.value, jet.d1, jet.d2) == (1.0, -1.0, 2.0)

    def test_log_chain(self):
        jet = eval_jet(parse("ln(1+t)"), 1.0)
        assert jet.value == pytest.approx(math.log(2.0), abs=1e-15)
        assert jet.d1 == pytest.approx(0.5, abs=1e-15)
        assert jet.d2 == pytest.approx(-0.25, abs=1e-15)

    def test_sqrt(self):
        jet = eval_jet(parse("sqrt(t)"), 4.0)
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
            eval_jet(parse(src), t)
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
        ],
    )
    def test_domain_errors_of_an_array_name_its_first_bad_t(self, src, ts, node, first_bad):
        with pytest.raises(DomainError) as err:
            eval_jet(parse(src), np.array(ts))
        assert err.value.node == node
        assert type(err.value.t) is float and err.value.t == first_bad
        assert str(err.value).endswith(f"{node} at t={first_bad!r}")

    def test_integer_power_of_negative_base_ok(self):
        jet = eval_jet(parse("(t-2)^3"), 1.0)
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


@given(_ast)
def test_parse_print_roundtrip(ast):
    assert parse(to_text(ast)) == ast


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
    try:
        jet = eval_jet(ast, t)
        samples = {s: eval_jet(ast, t + s * h).value for s in steps}
        f0 = jet.value
    except DomainError:
        assume(False)
    ts = np.array([t] + [t + s * h for s in steps])
    array_jet = eval_jet(ast, ts.reshape(7, 1))
    for field in ("value", "d1", "d2"):
        got = getattr(array_jet, field)
        assert got.shape == (7, 1)
        want = [getattr(eval_jet(ast, float(ti)), field) for ti in ts]
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
    ast = parse(src)
    t = 0.7
    jet = eval_jet(ast, t)

    def err1(h):
        fd = (eval_jet(ast, t + h).value - eval_jet(ast, t - h).value) / (2 * h)
        return abs(fd - jet.d1)

    def err2(h):
        fd = (
            eval_jet(ast, t + h).value
            - 2 * jet.value
            + eval_jet(ast, t - h).value
        ) / h**2
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

    def test_expression_backed_keeps_its_tree(self):
        assert ScalarFunction.from_expression("1/(1+t)").expr == parse("1/(1+t)")
        assert ScalarFunction.constant(2.5).expr == Const(2.5)
        assert ScalarFunction(lambda t: Jet2(t, 1.0, math.nan)).expr is None


def test_infinite_exponent_is_a_parse_error():
    # int(inf) used to crash the evaluation with OverflowError
    with pytest.raises(ParseError) as err:
        parse("1+t^1e400")
    assert err.value.offset == 4


# -- compiled jets against the tree walk they replace ----------------------------


class _RefJet:
    def __init__(self, value, d1, d2):
        self.value, self.d1, self.d2 = value, d1, d2

    def __add__(self, other):
        return _RefJet(self.value + other.value, self.d1 + other.d1, self.d2 + other.d2)

    def __sub__(self, other):
        return _RefJet(self.value - other.value, self.d1 - other.d1, self.d2 - other.d2)

    def __neg__(self):
        return _RefJet(-self.value, -self.d1, -self.d2)

    def __mul__(self, other):
        return _RefJet(
            self.value * other.value,
            self.d1 * other.value + self.value * other.d1,
            self.d2 * other.value + 2.0 * self.d1 * other.d1 + self.value * other.d2,
        )

    def __truediv__(self, other):
        q = self.value / other.value
        q1 = (self.d1 - q * other.d1) / other.value
        q2 = (self.d2 - 2.0 * q1 * other.d1 - q * other.d2) / other.value
        return _RefJet(q, q1, q2)


def _ref_check(bad, message, node, t):
    if np.count_nonzero(bad):
        raise DomainError(message, node, float(np.ravel(t)[np.argmax(bad)]))


def _ref_walk(node, t, zero):
    """The per-node tree walk that evaluated jets before they were compiled."""
    if isinstance(node, Const):
        return _RefJet(zero + node.value, zero, zero)
    if isinstance(node, Var):
        return _RefJet(t, zero + 1.0, zero)
    if isinstance(node, Unary):
        a = _ref_walk(node.arg, t, zero)
        if node.op == "neg":
            return -a
        if node.op == "exp":
            e = np.exp(a.value)
            out = _RefJet(e, e * a.d1, e * (a.d1 * a.d1 + a.d2))
            _ref_check(np.isinf(out.value), "exp overflows", "exp", t)
            return out
        if node.op == "ln":
            _ref_check(a.value <= 0.0, "ln of a nonpositive value", "ln", t)
            r = a.d1 / a.value
            return _RefJet(np.log(a.value), r, a.d2 / a.value - r * r)
        _ref_check(a.value <= 0.0, "sqrt of a nonpositive value", "sqrt", t)
        s = np.sqrt(a.value)
        d1 = a.d1 / (2.0 * s)
        return _RefJet(s, d1, a.d2 / (2.0 * s) - a.d1 * a.d1 / (4.0 * np.power(s, 3)))
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
    vp1 = p * np.power(a.value, p - 1.0)
    vp2 = p * (p - 1.0) * np.power(a.value, p - 2.0)
    out = _RefJet(v, vp1 * a.d1, vp2 * a.d1 * a.d1 + vp1 * a.d2)
    _ref_check(np.isinf(out.value), "power overflows", "power", t)
    return out


def _ref_eval_jet(node, t):
    t = np.asarray(t, dtype=float)
    zero = np.zeros_like(t)[()]
    with np.errstate(all="ignore"):
        return _ref_walk(node, t[()], zero)


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


@given(_any_ast, st.one_of(_any_t, st.lists(_any_t, min_size=1, max_size=6)))
@settings(max_examples=500, deadline=None)
def test_compiled_jets_equal_the_tree_walk(ast, t):
    assert _jet_outcome(lambda: eval_jet(ast, t)) == _jet_outcome(lambda: _ref_eval_jet(ast, t))
    f = ScalarFunction.from_expr(ast, "f")
    assert _jet_outcome(lambda: f.jet(t)) == _jet_outcome(lambda: _ref_eval_jet(ast, t))


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
    assert _jet_outcome(lambda: eval_jet(parse(src), t)) == _jet_outcome(
        lambda: _ref_eval_jet(parse(src), t)
    )
