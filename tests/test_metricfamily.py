"""Tests for natural-metric families, their validity, and F/H."""

import math
import random
import warnings
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from tbcurv.errors import DomainError, ValidityError
from tbcurv.metricfamily import (
    PRESET_NAMES,
    FamilyValidation,
    NaturalMetricFamily,
    _VALIDATION_SAMPLES,
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

    def test_power_to_one_has_the_jets_of_its_base(self):
        # t^1 at t = 0 formed 0 * t^-1 = 0 * inf, a NaN alpha'' (ValidityError)
        t = np.linspace(0.0, 25.0, 9)
        got, want = NaturalMetricFamily("1+t^1", "0"), NaturalMetricFamily("1+t", "0")
        for name, field in want.jets(t)._asdict().items():
            assert_same_bits(getattr(got.jets(t), name), field)
        assert got.jets(0.0).alpha_d2 == 0.0
        assert got.validate() == want.validate()

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
            valid = fam.validate().valid
        except DomainError:  # undefined before any violation
            return
        if valid:
            jets = fam.jets(np.linspace(0.0, fam.t_max, _VALIDATION_SAMPLES))
    if valid:
        assert all(np.isfinite(field).all() for field in jets._asdict().values())


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
            v = fam.validate()
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
        t_max=fam.t_max,
    )


def assert_bisection_matches_reference(fam, samples=_VALIDATION_SAMPLES):
    """The bisection on a grid of ``samples`` points, and ``validate`` on
    its own grid, each against the reference loop."""
    grid = np.linspace(0.0, fam.t_max, samples)
    for kind in KINDS:
        value_slope = partial(fam._value_slope, kind)
        new = _outcome(
            lambda: _first_nonpositive(value_slope, _defined_prefix(value_slope, grid))
        )
        assert new == _outcome(lambda: _reference_first_nonpositive(value_slope, grid, 1e-8))
    new = _outcome(fam.validate)
    assert new == _outcome(lambda: _reference_validate(fam, _VALIDATION_SAMPLES))


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

    def test_cheeger_gromoll_delta_takes_only_the_grid_call(self):
        # Delta = 1 exactly, so its slope is rounding noise and changes sign
        # 561 times on the grid; no sign change moves the value by an ulp
        # over a grid step, so none is halved: one call, on the grid.
        fam = preset("cheeger-gromoll")
        calls = []

        def value_slope(t):
            calls.append(np.size(t))
            return fam._value_slope("delta", t)

        scan = _defined_prefix(value_slope, np.linspace(0.0, fam.t_max, 4096))
        assert _first_nonpositive(value_slope, scan) is None
        assert calls == [4096]

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


def _counted_scan(fam, kind):
    """``_first_nonpositive`` of the kind on ``validate``'s grid, and the
    number of points of each evaluation it made."""
    calls = []

    def value_slope(t):
        calls.append(np.size(t))
        return fam._value_slope(kind, t)

    scan = _defined_prefix(value_slope, np.linspace(0.0, fam.t_max, _VALIDATION_SAMPLES))
    return _first_nonpositive(value_slope, scan), calls


def _slope_sign_changes(fam, kind):
    """The slope sign changes from below 0 to at least 0 of the kind on
    ``validate``'s grid, each the bracket of a local minimum."""
    s = fam._value_slope(kind, np.linspace(0.0, fam.t_max, _VALIDATION_SAMPLES))[1]
    return np.count_nonzero((s[:-1] < 0.0) & (0.0 <= s[1:]))


class TestResolution:
    """A slope sign change is halved only where the slope at one of its
    ends moves the value by more than one ulp over the grid step."""

    def assert_flat_to_rounding(self, fam, kind):
        assert _slope_sign_changes(fam, kind) >= 100  # rounding noise
        assert _counted_scan(fam, kind) == (None, [_VALIDATION_SAMPLES])
        assert fam.validate().valid
        assert_bisection_matches_reference(fam)

    @pytest.mark.parametrize(
        "fam,kind",
        [(preset("cheeger-gromoll"), "delta"),
         (NaturalMetricFamily("1/(1+t)+t/(1+t)", "0"), "alpha")],
        ids=["cheeger-gromoll", "alpha"],
    )
    def test_flat_to_rounding(self, fam, kind):
        self.assert_flat_to_rounding(fam, kind)

    @given(c=st.floats(min_value=0.1, max_value=10.0))
    @seed(37)
    @settings(max_examples=10, deadline=None)
    def test_delta_flat_to_rounding(self, c):
        # Delta = 1/(1+c t) + t c/(1+c t) is exactly 1
        self.assert_flat_to_rounding(
            NaturalMetricFamily(f"1/(1+{c!r}*t)", f"{c!r}/(1+{c!r}*t)"), "delta"
        )

    def test_a_minimum_flat_to_rounding_is_skipped(self):
        fam = NaturalMetricFamily("1+1e-13*(t-3.3)^2", "0")
        assert _counted_scan(fam, "alpha") == (None, [_VALIDATION_SAMPLES])
        assert fam.validate().valid
        assert_bisection_matches_reference(fam)

    def test_a_minimum_the_grid_resolves_is_halved(self):
        fam = NaturalMetricFamily("1e-13*(t-3.3)^2+1e-30", "0")
        t, calls = _counted_scan(fam, "alpha")
        assert t == pytest.approx(3.3, abs=1e-9) and len(calls) > 2
        assert fam.validate().summary().startswith("INVALID: alpha <= 0 near t=3.3;")
        assert_bisection_matches_reference(fam)

    @pytest.mark.parametrize(
        "alpha,beta",
        [("1/(1+t)", "1/(1+t)"), ("1+1e-13*(t-3.3)^2", "0"), ("1e-13*(t-3.3)^2+1e-30", "0"),
         ("(t-3.3)^2+1e-14", "0"), ("(1+t)^-0.4665", "0.881024*t/(1+t)")],
    )
    @pytest.mark.parametrize("k", [-40, -17, 1, 29, 40])
    def test_scaling_by_a_power_of_two_keeps_the_validation(self, alpha, beta, k):
        scaled = NaturalMetricFamily(f"{2.0**k!r}*({alpha})", f"{2.0**k!r}*({beta})")
        assert scaled.validate() == NaturalMetricFamily(alpha, beta).validate()
        assert_bisection_matches_reference(scaled)

    @pytest.mark.parametrize(
        "s_lo,s_hi,halved", [(-1.0, 1.0, False), (-2.0, 1.0, True), (-1.0, 2.0, True)]
    )
    def test_a_bracket_is_halved_above_one_ulp_per_step(self, s_lo, s_hi, halved):
        # value 1, grid step 1: the slope moves the value by max(|s|) ulps
        calls = []

        def value_slope(t):
            calls.append(np.size(t))
            eps = np.finfo(float).eps
            return np.ones_like(t), np.where(t < 1.5, s_lo * eps, s_hi * eps)

        assert _first_nonpositive(value_slope, _defined_prefix(value_slope, np.arange(4.0))) is None
        assert (len(calls) > 1) == halved

    @pytest.mark.parametrize(
        "value",
        [
            lambda t: np.full_like(t, 1e-300),  # one ulp of it is subnormal
            lambda t: np.where(t == 2.0, np.inf, 1.0),  # one ulp of it is infinite
        ],
        ids=["subnormal-ulp", "infinite-value"],
    )
    def test_a_bracket_the_rule_cannot_measure_is_halved(self, value):
        calls = []

        def value_slope(t):
            calls.append(np.size(t))
            return value(t), 1e-320 * (t - 1.3)

        grid = np.arange(4.0)
        got = _first_nonpositive(value_slope, _defined_prefix(value_slope, grid))
        assert len(calls) > 2
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
        for name in got._fields:
            assert_same_bits(getattr(got, name), getattr(want, name))
        assert _outcome(fam.validate) == _outcome(reference.validate)

    @pytest.mark.parametrize(
        "alpha,beta,shared",
        [
            ("1/(1+t)", "1/(1+t)", True),
            ("exp(t)", flatness_beta("exp(t)"), True),
            ("t^0", "t^-0", True),  # equal but for the sign of a zero exponent
            ("1", flatness_beta("2"), False),
            ("1+t", "1+t+0", False),
        ],
    )
    def test_only_equal_trees_are_shared(self, alpha, beta, shared):
        assert (NaturalMetricFamily(alpha, beta)._beta_from_alpha is not None) == shared

    def test_signed_zero_exponent_shares_the_walk(self):
        # a zero exponent's coefficients p and p (p - 1) are structural
        # zeros whatever the sign of the zero, so t^0 and t^-0 have jets of
        # equal bits, and beta is read from alpha's walk: 1 with derivatives
        # +0.0, also at t = 0, where p * t^(p-1) would be 0 * inf
        fam = NaturalMetricFamily("t^0", "t^-0")
        assert fam._beta_from_alpha is not None
        assert_same_bits(ScalarFunction.from_expression("t^-0").jet(np.array([0.0, 1.0])).d1,
                         np.zeros(2))
        jets = fam.jets(np.array([0.0, 1.0]))
        assert_same_bits(jets.alpha, jets.beta)
        assert_same_bits(jets.alpha_d1, jets.beta_d1)
        assert_same_bits(jets.beta_d1, np.zeros(2))
        assert_same_bits(jets.alpha_d2, np.zeros(2))
