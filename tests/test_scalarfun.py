"""Tests for the expression DSL and derivative jets."""

import math
import sys

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tbcurv.errors import DomainError, ParseError, UnknownIdentifierError
from tbcurv.scalarfun import (
    Binary,
    Const,
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
        with pytest.raises(DomainError):
            eval_jet(parse(src), t)

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
@settings(max_examples=200)
def test_jets_match_finite_differences(ast, t):
    """d1/d2 agree with Richardson-extrapolated central differences
    wherever the expression is smooth around t."""
    h = 1e-3 * max(1.0, abs(t))
    try:
        jet = eval_jet(ast, t)
        samples = {
            s: eval_jet(ast, t + s * h).value
            for s in (-1.0, -0.5, 0.5, 1.0)
        }
        f0 = jet.value
    except (DomainError, OverflowError):
        assume(False)
    values = [f0] + list(samples.values()) + [jet.d1, jet.d2]
    assume(all(math.isfinite(x) and abs(x) < 1e8 for x in values))

    def fd1(step_scale):
        return (samples[step_scale] - samples[-step_scale]) / (2.0 * step_scale * h)

    def fd2(step_scale):
        return (samples[step_scale] - 2.0 * f0 + samples[-step_scale]) / (
            step_scale * h
        ) ** 2

    # Skip violently non-smooth neighborhoods (poles between stencil points).
    assume(abs(fd1(1.0) - fd1(0.5)) < 0.05 * (1.0 + abs(jet.d1)))
    assume(abs(fd2(1.0) - fd2(0.5)) < 0.05 * (1.0 + abs(jet.d2)))

    rich1 = (4.0 * fd1(0.5) - fd1(1.0)) / 3.0
    rich2 = (4.0 * fd2(0.5) - fd2(1.0)) / 3.0
    assert jet.d1 == pytest.approx(rich1, rel=1e-4, abs=1e-5)
    # The reference's own rounding: each sample is good to about one ulp of
    # max|f|, and the Richardson d2 combination scales that by at most
    # (4/3 * 16 + 1/3 * 4) / h^2, about 23 / h^2.
    f_max = max(abs(x) for x in [f0] + list(samples.values()))
    rounding = 24.0 * sys.float_info.epsilon * f_max / h**2
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
        f = ScalarFunction.from_callables(lambda t: t, lambda t: 1.0)
        assert math.isnan(f.jet(1.0).d2)

    def test_constant(self):
        f = ScalarFunction.constant(2.5)
        jet = f.jet(7.0)
        assert (jet.value, jet.d1, jet.d2) == (2.5, 0.0, 0.0)
