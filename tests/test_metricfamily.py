"""Tests for natural-metric families, their validity, and F/H."""

import math
import random
from functools import partial

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


def fd_family_F(fam, t, h=1e-5):
    """Independent F oracle: the defining combination with finite-difference
    derivatives of the alpha values."""
    a = fam.alpha_at(t)
    b = fam.beta_at(t)
    ad1 = (fam.alpha_at(t + h) - fam.alpha_at(max(t - h, 0.0))) / (
        h + min(t, h)
    )
    return (a * b - t * ad1**2 - 2 * a * ad1) / (a + t * b)


class TestPresets:
    def test_expansions(self):
        sas = preset("sasaki")
        assert sas.alpha_at(3.0) == 1.0 and sas.beta_at(3.0) == 0.0
        cg = preset("cheeger-gromoll")
        assert cg.alpha_at(1.0) == pytest.approx(0.5, abs=1e-15)
        assert cg.beta_at(1.0) == pytest.approx(0.5, abs=1e-15)
        ep = preset("exp+")
        assert ep.alpha_at(1.0) == pytest.approx(math.e, rel=1e-15)
        em = preset("exp-")
        assert em.beta_at(1.0) == pytest.approx(1.0 / math.e, rel=1e-15)

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            preset("nope")

    # t_max bounds every validity check: a horizon that is not a positive
    # finite number is rejected by name, for a preset and a custom family
    @pytest.mark.parametrize("t_max", [-1.0, 0.0, math.nan, math.inf, "abc", None])
    def test_bad_t_max_is_rejected(self, t_max):
        message = f"t_max must be a positive finite number, got {t_max!r}"
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
        assert fam.delta_at(2.0) == pytest.approx(3.0 * math.exp(2.0), rel=1e-14)

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
        block = preset("sasaki").fiber_block(np.array([0.3, -0.8, 1.1]))
        assert np.allclose(block, np.eye(3), atol=1e-15)

    def test_zero_vector(self):
        fam = preset("cheeger-gromoll")
        block = fam.fiber_block(np.zeros(2))
        assert np.allclose(block, fam.alpha_at(0.0) * np.eye(2), atol=1e-15)

    def test_exp_plus_example(self):
        # xi = (1, 0): alpha(1) Id + beta(1) xi^T xi = [[2e, 0], [0, e]]
        block = preset("exp+").fiber_block(np.array([1.0, 0.0]))
        assert np.allclose(block, np.diag([2.0 * math.e, math.e]), rtol=1e-14)
        # eigenvalues are alpha and alpha + t beta
        eig = np.linalg.eigvalsh(block)
        assert eig == pytest.approx([math.e, 2.0 * math.e], rel=1e-14)

    def test_spd_for_random_valid_xi(self):
        rng = np.random.default_rng(7)
        for fam in (preset("cheeger-gromoll"), preset("exp-")):
            for _ in range(20):
                xi = rng.normal(size=3)
                eig = np.linalg.eigvalsh(fam.fiber_block(xi))
                assert np.all(eig > 0)

    def test_invalid_point_raises(self):
        fam = NaturalMetricFamily("exp(-t)", flatness_beta("exp(-t)"), t_max=25.0)
        with pytest.raises(ValidityError):
            fam.fiber_block(np.array([1.0, 0.0]))  # |xi|^2 = 1, the zero of Delta

    def test_beyond_t_max_raises(self):
        with pytest.raises(ValidityError):
            preset("sasaki", t_max=4.0).fiber_block(np.array([3.0, 0.0]))


class TestFH:
    def test_sasaki_all_zero(self):
        fam = preset("sasaki")
        for t in np.linspace(0.0, 25.0, 40):
            assert fam.F(float(t)) == 0.0
            assert fam.H(float(t)) == 0.0

    def test_cheeger_gromoll_F0(self):
        fam = preset("cheeger-gromoll")
        # substitution: alpha(0) = beta(0) = 1, alpha'(0) = -1 -> F(0) = 3
        assert fam.F(0.0) == pytest.approx(3.0, abs=1e-14)
        # cross-check against finite-difference jets of the values
        assert fd_family_F(fam, 0.0) == pytest.approx(3.0, abs=1e-4)
        # closed form F(t) = (t^2 + 3 t + 3) / (1 + t)^4
        for t in (0.5, 2.0, 10.0):
            expected = (t * t + 3 * t + 3) / (1 + t) ** 4
            assert fam.F(t) == pytest.approx(expected, rel=1e-13)

    def test_exp_minus_F0(self):
        assert preset("exp-").F(0.0) == pytest.approx(3.0, abs=1e-14)
        assert fd_family_F(preset("exp-"), 0.0) == pytest.approx(3.0, abs=1e-4)

    def test_exp_plus_H_is_minus_exp(self):
        # phi = Delta = e^t (1 + t) gives H(t) = -e^t identically
        fam = preset("exp+")
        for t in (0.0, 0.7, 3.0, 10.0):
            assert fam.H(t) == pytest.approx(-math.exp(t), rel=1e-12)
        assert fam.H(0.0) == pytest.approx(-1.0, abs=1e-14)

    def test_cheeger_gromoll_H(self):
        # phi = 1/(1+t)^2, Delta = 1: H(t) = 3/(1+t)^3
        fam = preset("cheeger-gromoll")
        for t in (0.0, 1.0, 4.0):
            assert fam.H(t) == pytest.approx(3.0 / (1 + t) ** 3, rel=1e-12)

    def test_F_zero_implies_H_zero(self):
        for alpha in ("exp(0.2*t)", "1+0.5*t", "2/(1+t)"):
            fam = NaturalMetricFamily(alpha, flatness_beta(alpha), t_max=10.0)
            v = fam.validate()
            assert v.valid and v.phi_positive
            assert fam.max_abs_F(10.0, 512) <= 1e-10
            assert fam.max_abs_H(10.0, 512) <= 1e-8

    def test_alpha_delta_equals_phi_squared_when_F_zero(self):
        alpha = "exp(0.1*t)"
        fam = NaturalMetricFamily(alpha, flatness_beta(alpha), t_max=10.0)
        for t in np.linspace(0.0, 10.0, 64):
            t = float(t)
            assert fam.alpha_at(t) * fam.delta_at(t) == pytest.approx(
                fam.phi_at(t) ** 2, rel=1e-12
            )


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
        assert fam.max_abs_F(10.0, 512) <= 1e-10
        assert fam.max_abs_H(10.0, 512) <= 1e-8


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
