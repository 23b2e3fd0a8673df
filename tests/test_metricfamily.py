"""Tests for natural-metric families, their validity, and F/H."""

import dataclasses
import math
import random
import warnings
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tbcurv.errors import DomainError, ValidityError
from tbcurv.metricfamily import (
    PRESET_NAMES,
    FamilyValidation,
    NaturalMetricFamily,
    _defined_prefix,
    _first_nonpositive,
    flatness_beta,
    preset,
)
from tbcurv.scalarfun import Binary, Const, ScalarFunction

from references import fiber_block
from test_scalarfun import _any_ast


def fd_family_F(fam, t, h=1e-5):
    """Independent F oracle: the defining combination with finite-difference
    derivatives of the alpha values."""
    j = fam.jets(t)
    a, b = j.alpha, j.beta
    ad1 = (fam.jets(t + h).alpha - fam.jets(max(t - h, 0.0)).alpha) / (h + min(t, h))
    return (a * b - t * ad1**2 - 2 * a * ad1) / (a + t * b)


class TestPresets:
    def test_expansions(self):
        sas = preset("sasaki").jets(3.0)
        assert sas.alpha == 1.0 and sas.beta == 0.0
        cg = preset("cheeger-gromoll").jets(1.0)
        assert cg.alpha == pytest.approx(0.5, abs=1e-15)
        assert cg.beta == pytest.approx(0.5, abs=1e-15)
        assert preset("exp+").jets(1.0).alpha == pytest.approx(math.e, rel=1e-15)
        assert preset("exp-").jets(1.0).beta == pytest.approx(1.0 / math.e, rel=1e-15)

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            preset("nope")
        with pytest.raises(KeyError, match="unknown family preset 'SASAKI'"):
            preset("SASAKI")  # only the exact name

    # t_max bounds every validity check: a horizon that is not a positive
    # finite number is rejected by name, for a preset and a custom family;
    # a boolean or a string is not a number, though float(True) is 1.0
    @pytest.mark.parametrize("t_max", [-1.0, 0.0, math.nan, math.inf, "abc", "5", None, True,
                                       10**400])
    def test_bad_t_max_is_rejected(self, t_max):
        got = "inf" if t_max == 10**400 else repr(t_max)  # as the command line reads it
        message = f"t_max must be a positive finite number, got {got}"
        with pytest.raises(ValueError, match=message):
            preset("sasaki", t_max=t_max)
        with pytest.raises(ValueError, match=message):
            NaturalMetricFamily("1", "0", t_max=t_max)


class TestValidate:
    def test_sasaki_valid(self):
        v = preset("sasaki").validate()
        assert v.valid and v.phi_positive

    def test_exp_plus_valid(self):
        fam = preset("exp+")
        v = fam.validate()
        assert v.valid
        # Delta(t) = e^t (1 + t) > 0
        assert fam.jets(2.0).delta == pytest.approx(3.0 * math.exp(2.0), rel=1e-14)

    def test_exp_minus_valid_despite_tiny_values(self):
        # alpha = e^-t decays to ~1e-11 on [0, 25] but never vanishes; the
        # tangential-zero detector must not flag smallness as a violation
        v = preset("exp-").validate()
        assert v.valid
        # phi = e^-t (1 - t) does cross zero at t = 1, and that IS reported
        assert not v.phi_positive
        assert v.phi_violation_t == pytest.approx(1.0, abs=0.05)

    def test_tangential_zero_located_by_bisection(self):
        # alpha = e^-t with the flatness beta: alpha + t*beta = e^-t (1-t)^2
        # touches zero exactly at t = 1 without crossing; the grid alone
        # cannot see it, the derivative bisection must.
        fam = NaturalMetricFamily("exp(-t)", flatness_beta("exp(-t)"), t_max=25.0)
        closed_form = lambda t: math.exp(-t) * (1.0 + t * (t - 2.0))
        slope = lambda t: -math.exp(-t) * (t - 1.0) * (t - 3.0)
        # locate the minimum of the closed form by bisection on its slope
        lo, hi = 0.5, 1.5
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if slope(mid) < 0.0:
                lo = mid
            else:
                hi = mid
        root = 0.5 * (lo + hi)
        assert root == pytest.approx(1.0, abs=1e-12)
        assert closed_form(root) == pytest.approx(0.0, abs=1e-12)
        v = fam.validate()
        assert not v.valid
        assert v.violation_kind == "delta"
        assert v.violation_t == pytest.approx(1.0, abs=1e-6)
        assert not v.phi_positive
        assert v.phi_violation_t == pytest.approx(1.0, abs=0.05)

    def test_samples_guard(self):
        with pytest.raises(ValueError):
            preset("sasaki").validate(samples=1)


class TestFiberBlock:
    def test_sasaki_identity(self):
        block = fiber_block(preset("sasaki"), np.array([0.3, -0.8, 1.1]))
        assert np.allclose(block, np.eye(3), atol=1e-15)

    def test_zero_vector(self):
        fam = preset("cheeger-gromoll")
        block = fiber_block(fam, np.zeros(2))
        assert np.allclose(block, fam.jets(0.0).alpha * np.eye(2), atol=1e-15)

    def test_exp_plus_example(self):
        # xi = (1, 0): alpha(1) Id + beta(1) xi^T xi = [[2e, 0], [0, e]]
        block = fiber_block(preset("exp+"), np.array([1.0, 0.0]))
        assert np.allclose(block, np.diag([2.0 * math.e, math.e]), rtol=1e-14)
        # eigenvalues are alpha and alpha + t beta
        eig = np.linalg.eigvalsh(block)
        assert eig == pytest.approx([math.e, 2.0 * math.e], rel=1e-14)

    def test_spd_for_random_valid_xi(self):
        rng = np.random.default_rng(7)
        for fam in (preset("cheeger-gromoll"), preset("exp-")):
            for _ in range(20):
                xi = rng.normal(size=3)
                eig = np.linalg.eigvalsh(fiber_block(fam, xi))
                assert np.all(eig > 0)

    def test_invalid_point_raises(self):
        fam = NaturalMetricFamily("exp(-t)", flatness_beta("exp(-t)"), t_max=25.0)
        with pytest.raises(ValidityError):
            fiber_block(fam, np.array([1.0, 0.0]))  # |xi|^2 = 1, the zero of Delta

    def test_beyond_t_max_raises(self):
        with pytest.raises(ValidityError):
            fiber_block(preset("sasaki", t_max=4.0), np.array([3.0, 0.0]))


class TestFH:
    def test_sasaki_all_zero(self):
        fam = preset("sasaki")
        for t in np.linspace(0.0, 25.0, 40):
            j = fam.jets(float(t))
            assert j.F == 0.0 and j.H == 0.0

    def test_cheeger_gromoll_F0(self):
        fam = preset("cheeger-gromoll")
        # substitution: alpha(0) = beta(0) = 1, alpha'(0) = -1 -> F(0) = 3
        assert fam.jets(0.0).F == pytest.approx(3.0, abs=1e-14)
        # cross-check against finite-difference jets of the values
        assert fd_family_F(fam, 0.0) == pytest.approx(3.0, abs=1e-4)
        # closed form F(t) = (t^2 + 3 t + 3) / (1 + t)^4
        for t in (0.5, 2.0, 10.0):
            expected = (t * t + 3 * t + 3) / (1 + t) ** 4
            assert fam.jets(t).F == pytest.approx(expected, rel=1e-13)

    def test_exp_minus_F0(self):
        assert preset("exp-").jets(0.0).F == pytest.approx(3.0, abs=1e-14)
        assert fd_family_F(preset("exp-"), 0.0) == pytest.approx(3.0, abs=1e-4)

    def test_exp_plus_H_is_minus_exp(self):
        # phi = Delta = e^t (1 + t) gives H(t) = -e^t identically
        fam = preset("exp+")
        for t in (0.0, 0.7, 3.0, 10.0):
            assert fam.jets(t).H == pytest.approx(-math.exp(t), rel=1e-12)
        assert fam.jets(0.0).H == pytest.approx(-1.0, abs=1e-14)

    def test_cheeger_gromoll_H(self):
        # phi = 1/(1+t)^2, Delta = 1: H(t) = 3/(1+t)^3
        fam = preset("cheeger-gromoll")
        for t in (0.0, 1.0, 4.0):
            assert fam.jets(t).H == pytest.approx(3.0 / (1 + t) ** 3, rel=1e-12)

    def test_F_zero_implies_H_zero(self):
        for alpha in ("exp(0.2*t)", "1+0.5*t", "2/(1+t)"):
            fam = NaturalMetricFamily(alpha, flatness_beta(alpha), t_max=10.0)
            v = fam.validate()
            assert v.valid and v.phi_positive
            t = np.linspace(0.0, 10.0, 512)
            max_f, max_h, _, _ = fam.jets(t).flatness(t)
            assert max_f <= 1e-10 and max_h <= 1e-8

    def test_alpha_delta_equals_phi_squared_when_F_zero(self):
        alpha = "exp(0.1*t)"
        fam = NaturalMetricFamily(alpha, flatness_beta(alpha), t_max=10.0)
        for t in np.linspace(0.0, 10.0, 64):
            j = fam.jets(float(t))
            assert j.alpha * j.delta == pytest.approx((j.alpha + t * j.alpha_d1) ** 2, rel=1e-12)


# Any tree of the grammar, and 1 + c*tree with c up to 1e308: products,
# sums and chain rules overflow somewhere on [0, t_max] without any node
# raising, so F or H is not finite where alpha and Delta look positive.
_huge_tree = st.builds(
    lambda c, tree: Binary("+", Const(1.0), Binary("*", Const(c), tree)),
    st.floats(min_value=0.0, max_value=1e308),
    _any_ast,
)


@given(alpha=_any_ast | _huge_tree, beta=_any_ast | _huge_tree)
@settings(max_examples=300, deadline=None)
def test_a_valid_family_has_finite_jets_on_its_grid(alpha, beta):
    fam = NaturalMetricFamily(
        ScalarFunction.from_expr(alpha, "alpha"), ScalarFunction.from_expr(beta, "beta")
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            valid = fam.validate(samples=512).valid
        except DomainError:  # undefined before any violation
            return
        if valid:
            jets = fam.jets(np.linspace(0.0, fam.t_max, 512))
    if valid:
        assert all(np.isfinite(field).all() for field in vars(jets).values())


class TestFlatnessBeta:
    def test_constant_alpha(self):
        beta = flatness_beta("1")
        assert beta.value(3.0) == 0.0

    def test_exponential_alpha(self):
        # beta(t) = e^t (t + 2)
        beta = flatness_beta("exp(t)")
        assert beta.value(0.0) == pytest.approx(2.0, abs=1e-14)
        for t in (0.5, 2.0):
            assert beta.value(t) == pytest.approx(math.exp(t) * (t + 2), rel=1e-13)

    def test_linear_alpha(self):
        # beta(t) = (3 t + 2) / (1 + t)
        beta = flatness_beta("1+t")
        assert beta.value(0.0) == pytest.approx(2.0, abs=1e-14)
        for t in (1.0, 4.0):
            assert beta.value(t) == pytest.approx((3 * t + 2) / (1 + t), rel=1e-14)

    def test_first_derivative_against_fd(self):
        beta = flatness_beta("exp(0.3*t)+1")
        for t in (0.2, 1.5, 6.0):
            h = 1e-6
            fd = (beta.value(t + h) - beta.value(t - h)) / (2 * h)
            assert beta.jet(t).d1 == pytest.approx(fd, rel=1e-7)

    def test_second_derivative_is_nan(self):
        assert math.isnan(flatness_beta("exp(t)").jet(1.0).d2)


def _random_positive_alpha_texts(count, seed=20240811):
    rng = random.Random(seed)

    def rnd(lo, hi):
        return round(rng.uniform(lo, hi), 3)

    out = []
    while len(out) < count:
        form = rng.randrange(8)
        if form == 0:
            out.append(f"{rnd(0.3, 2.5)} + {rnd(0.05, 1.5)}*t")
        elif form == 1:
            out.append(f"{rnd(0.3, 2.5)} + {rnd(0.05, 0.8)}*t + {rnd(0.01, 0.3)}*t^2")
        elif form == 2:
            out.append(f"exp({rnd(-0.25, 0.25)}*t)")
        elif form == 3:
            out.append(f"{rnd(0.3, 2.0)}*exp({rnd(-0.25, 0.25)}*t) + {rnd(0.1, 1.0)}")
        elif form == 4:
            out.append(f"{rnd(0.5, 2.5)}/({rnd(0.5, 2.0)} + t)")
        elif form == 5:
            out.append(f"{rnd(0.3, 1.5)} + {rnd(0.3, 1.5)}/({rnd(0.5, 2.0)} + t)")
        elif form == 6:
            out.append(
                f"{rnd(0.3, 1.5)}*({rnd(0.5, 2.0)} + t)^{rng.choice([0.5, 1.5, -0.5])}"
            )
        else:
            out.append(f"sqrt({rnd(0.3, 2.0)} + {rnd(0.1, 1.0)}*t)")
    return out


def random_flatness_families(count, seed=20240811):
    """Valid random (alpha, flatness_beta(alpha)) families on [0, 10]."""
    fams = []
    batch = 0
    while len(fams) < count:
        for text in _random_positive_alpha_texts(count, seed=seed + batch):
            fam = NaturalMetricFamily(text, flatness_beta(text), name="random", t_max=10.0)
            v = fam.validate(samples=1024)
            if v.valid and v.phi_positive:
                fams.append(fam)
                if len(fams) == count:
                    break
        batch += 1
    return fams


def test_random_flatness_families_have_zero_F_and_H():
    for fam in random_flatness_families(12):
        t = np.linspace(0.0, 10.0, 512)
        max_f, max_h, _, _ = fam.jets(t).flatness(t)
        assert max_f <= 1e-10 and max_h <= 1e-8


# --------------------------------------------------------------------------
# The bisection stops at its fixed point, and validate walks alpha once per
# grid: both must leave every result as the plain 80-step loop below, run
# once per kind on the whole grid, gives it.
# --------------------------------------------------------------------------


KINDS = ("alpha", "delta", "phi")


def _reference_first_nonpositive(value_slope, grid, dip_rtol, iters=80):
    error = None
    while True:
        try:
            v, s = value_slope(grid)
            break
        except DomainError as exc:
            error, grid = exc, grid[grid < exc.t]
    bad = np.flatnonzero(v <= 0.0)
    end = bad[0] if bad.size else v.size
    ends = np.flatnonzero((s[:-1] < 0.0) & (0.0 <= s[1:])) + 1
    ends = ends[ends < end]
    if ends.size:
        lo, hi = grid[ends - 1], grid[ends]
        for _ in range(iters):
            mid = 0.5 * (lo + hi)
            down = value_slope(mid)[1] < 0.0
            lo, hi = np.where(down, mid, lo), np.where(down, hi, mid)
        tm = 0.5 * (lo + hi)
        dips = value_slope(tm)[0] <= dip_rtol * np.maximum(v[ends - 1], v[ends])
        if dips.any():
            return float(tm[np.argmax(dips)])
    if end < v.size:
        return float(grid[end])
    if error is not None:
        raise error
    return None


def _outcome(call):
    """What call returns, or the DomainError it raises as (message, t)."""
    try:
        return call()
    except DomainError as exc:
        return ("DomainError", str(exc), exc.t)


def _reference_validate(fam, samples, dip_rtol=1e-8):
    grid = np.linspace(0.0, fam.t_max, samples)
    bad_alpha, bad_delta, bad_phi = (
        _reference_first_nonpositive(partial(fam._value_slope, kind), grid, dip_rtol)
        for kind in KINDS
    )
    candidates = [(t, k) for t, k in ((bad_alpha, "alpha"), (bad_delta, "delta")) if t is not None]
    violation_t, kind = min(candidates) if candidates else (None, None)
    return FamilyValidation(
        valid=not candidates,
        violation_t=violation_t,
        violation_kind=kind,
        phi_positive=bad_phi is None,
        phi_violation_t=bad_phi,
        samples=samples,
        t_max=fam.t_max,
    )


def assert_bisection_matches_reference(fam, samples=4096):
    grid = np.linspace(0.0, fam.t_max, samples)
    for kind in KINDS:
        value_slope = partial(fam._value_slope, kind)
        new = _outcome(
            lambda: _first_nonpositive(value_slope, _defined_prefix(value_slope, grid))
        )
        assert new == _outcome(lambda: _reference_first_nonpositive(value_slope, grid, 1e-8))
    new = _outcome(lambda: fam.validate(samples=samples))
    assert new == _outcome(lambda: _reference_validate(fam, samples))


def assert_same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())


def _coefficient(lo, hi):
    return st.floats(min_value=lo, max_value=hi).map(lambda x: round(x, 6))


class TestBisectionFixedPoint:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    @pytest.mark.parametrize("samples", [2, 3, 97, 4096])
    def test_presets(self, name, samples):
        assert_bisection_matches_reference(preset(name), samples)

    @pytest.mark.parametrize(
        "alpha,beta",
        [
            ("(t-3.3)^2+1e-14", "0"),  # a tangential zero only the bisection finds
            ("1", "(t-3.3)^2+1e-14"),
            ("exp(-t)", flatness_beta("exp(-t)")),
            ("ln(5-t)", "1"),  # undefined from t = 5 on: alpha only
            ("sqrt(3-t)", "0"),
            ("1", "ln(5-t)"),  # beta only
            ("1", "sqrt(3-t)"),
            ("ln(5-t)", "sqrt(3-t)"),  # both
            ("sqrt(3-t)", "ln(5-t)"),
            ("ln(5-t)+sqrt(3-t)", "0"),
        ],
    )
    def test_tangential_zeros_and_domain_errors(self, alpha, beta):
        assert_bisection_matches_reference(NaturalMetricFamily(alpha, beta))

    def test_tangential_zero_is_found(self):
        v = NaturalMetricFamily("(t-3.3)^2+1e-14", "0").validate()
        assert (v.valid, v.violation_kind) == (False, "alpha")
        assert v.violation_t == pytest.approx(3.3, abs=1e-9)

    @given(
        template=st.sampled_from(
            [("1/(1+{a}*t)", "{b}/(1+t)"), ("exp(-{a}*t)", "{b}*exp(-t)"),
             ("1+{a}*t", "{b}"), ("(1+t)^-{a}", "{b}*t/(1+t)")]
        ),
        a=_coefficient(0.3, 0.6),
        b=_coefficient(0.5, 1.5),
    )
    @settings(max_examples=25, deadline=None)
    def test_valid_pairs(self, template, a, b):
        alpha, beta = (text.format(a=a, b=b) for text in template)
        assert_bisection_matches_reference(NaturalMetricFamily(alpha, beta))

    @given(
        template=st.sampled_from(["1/(1+{c}*t)", "sqrt(1+{c}*t)", "(1+{c}*t)^2", "exp({c}*t)"]),
        c=_coefficient(0.05, 0.4),
    )
    @settings(max_examples=25, deadline=None)
    def test_flat_families(self, template, c):
        alpha = template.format(c=c)
        assert_bisection_matches_reference(NaturalMetricFamily(alpha, flatness_beta(alpha)))

    @given(
        template=st.sampled_from([("1", "-1/{c}"), ("1-t/{c}", "0"), ("(t-{c})^2", "1")]),
        c=_coefficient(0.5, 24.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_invalid_pairs(self, template, c):
        alpha, beta = (text.format(c=c) for text in template)
        assert_bisection_matches_reference(NaturalMetricFamily(alpha, beta))

    def test_cheeger_gromoll_delta_call_count(self):
        # Delta = 1 exactly, so its slope is rounding noise and brackets 561
        # sign changes; the halving reaches its fixed point after 50 steps,
        # not 80: one call on the grid, 50 halvings, one at the minima.
        fam = preset("cheeger-gromoll")
        calls = []

        def value_slope(t):
            calls.append(np.size(t))
            return fam._value_slope("delta", t)

        scan = _defined_prefix(value_slope, np.linspace(0.0, fam.t_max, 4096))
        assert _first_nonpositive(value_slope, scan) is None
        assert calls[:2] == [4096, 561]
        assert len(calls) == 52

    @pytest.mark.parametrize(
        "alpha,beta,outcome",
        [
            # undefined on (3.3 - 1e-5, 3.3 + 1e-5), inside one grid step:
            # the bisection's own midpoints meet the gap
            ("sqrt((t-3.3)^2-1e-10)", "0",
             ("DomainError", "sqrt of a nonpositive value: sqrt at t=3.2999942765567765",
              3.2999942765567765)),
            ("1", "sqrt((t-7.1)^2-1e-9)",
             ("DomainError", "sqrt of a nonpositive value: sqrt at t=7.100026709401709",
              7.100026709401709)),
            # two tangential zeros, two brackets
            ("((t-3.3)*(t-9.1))^2+1e-14", "0", 3.3),
        ],
    )
    def test_several_halvings_per_evaluation(self, alpha, beta, outcome):
        fam = NaturalMetricFamily(alpha, beta)
        assert_bisection_matches_reference(fam)
        kind = "alpha" if beta == "0" else "delta"
        value_slope = partial(fam._value_slope, kind)
        grid = np.linspace(0.0, fam.t_max, 4096)
        assert _outcome(lambda: _first_nonpositive(value_slope, _defined_prefix(value_slope, grid))) == outcome

    @pytest.mark.parametrize(
        "alpha,beta,kind,brackets,count",
        [
            # one bracket: 6 halvings per evaluation, so the 47 halvings of the
            # plain loop take 8; one call on the grid, one at the minimum
            ("(1+t)^-0.4665", "0.881024*t/(1+t)", "delta", 1, 10),
            # two brackets: 5 halvings per evaluation, 45 halvings in 9
            ("((t-3.3)*(t-9.1))^2+1e-14", "0", "alpha", 2, 11),
        ],
    )
    def test_few_bracket_call_count(self, alpha, beta, kind, brackets, count):
        fam = NaturalMetricFamily(alpha, beta)
        calls = []

        def value_slope(t):
            calls.append(np.size(t))
            return fam._value_slope(kind, t)

        scan = _defined_prefix(value_slope, np.linspace(0.0, fam.t_max, 4096))
        expected = _reference_first_nonpositive(partial(fam._value_slope, kind), scan[0], 1e-8)
        assert _first_nonpositive(value_slope, scan) == expected
        assert calls[0] == 4096 and calls[-1] == brackets
        assert len(calls) == count

    @pytest.mark.parametrize("off_path", ["undefined", "overflows"])
    def test_midpoints_off_the_path_raise_and_warn_nothing(self, off_path):
        # the bracket [1, 2] halves towards its minimum at 1.3, and never
        # reaches 1.75, the midpoint of [1.5, 2] where the function is
        # undefined or sets numpy's overflow flag; one evaluation of six
        # halvings does reach it, and must not raise or warn for it
        def value_slope(t):
            near = np.abs(t - 1.75) < 0.01
            if off_path == "undefined" and near.any():
                raise DomainError("undefined", "test", t[near][0])
            np.multiply(1e308, np.where(near, 10.0, 1.0))
            return (t - 1.3) ** 2 + 1e-12, 2.0 * (t - 1.3)

        grid = np.arange(4.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _first_nonpositive(value_slope, _defined_prefix(value_slope, grid))
        assert got == _reference_first_nonpositive(value_slope, grid, 1e-8)


class TestSharedAlphaWalk:
    """A beta that is alpha's own expression, or the flatness beta of it,
    is read from alpha's jet: alpha is walked once per evaluation."""

    @pytest.mark.parametrize(
        "fam",
        [
            preset("cheeger-gromoll"),
            preset("exp+"),
            preset("exp-"),
            NaturalMetricFamily("1/(1+0.3*t)", flatness_beta("1/(1+0.3*t)")),
            NaturalMetricFamily("sqrt(1+0.3*t)", "sqrt(1+0.3*t)"),
        ],
        ids=["cheeger-gromoll", "exp+", "exp-", "flat", "equal-text"],
    )
    @pytest.mark.parametrize("t", [0.5, np.linspace(0.0, 3.0, 7)], ids=["number", "array"])
    def test_one_alpha_walk_per_jets_call(self, fam, t):
        reference = NaturalMetricFamily(
            fam.alpha, ScalarFunction(fam.beta.jet, name="opaque"), t_max=fam.t_max
        )
        with mock.patch.object(ScalarFunction, "jet", autospec=True, side_effect=ScalarFunction.jet) as jet:
            got = fam.jets(t)
        assert [call.args[0] for call in jet.call_args_list] == [fam.alpha]
        want = reference.jets(t)
        for field in dataclasses.fields(got):
            assert_same_bits(getattr(got, field.name), getattr(want, field.name))
        assert _outcome(lambda: fam.validate(97)) == _outcome(lambda: reference.validate(97))

    @pytest.mark.parametrize(
        "alpha,beta,shared",
        [
            ("1/(1+t)", "1/(1+t)", True),
            ("exp(t)", flatness_beta("exp(t)"), True),
            ("t^0", "t^-0", False),  # equal but for the sign of a zero exponent
            ("1", flatness_beta("2"), False),
            ("1+t", "1+t+0", False),
        ],
    )
    def test_only_equal_trees_are_shared(self, alpha, beta, shared):
        assert (NaturalMetricFamily(alpha, beta)._beta_from_alpha is not None) == shared

    def test_signed_zero_exponent_keeps_its_own_walk(self):
        # t^-0 has the slope -0.0 * t^-1 and t^0 the slope 0.0 * t^-1: a
        # shared walk would give beta the sign of alpha's zero
        jets = NaturalMetricFamily("t^0", "t^-0").jets(np.array([1.0]))
        assert not np.signbit(jets.alpha_d1).any()
        assert np.signbit(jets.beta_d1).all()
