"""Natural-metric families (alpha, beta) on the tangent bundle.

A family is a pair of scalar functions alpha, beta with alpha(t) > 0 and
alpha(t) + t*beta(t) > 0.  The fiber inner product at a point with frame
components xi is alpha(|xi|^2)*Id + beta(|xi|^2)*xi^T xi.  Two derived
scalar functions F and H control the purely vertical curvature of the
bundle metric; both vanish identically exactly when the fibers are flat,
which happens iff beta equals the flatness combination
(t*alpha'^2 + 2*alpha*alpha')/alpha.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ValidityError
from .scalarfun import FunctionLike, ScalarFunction, as_scalar_function

__all__ = [
    "FamilyJets",
    "FamilyValidation",
    "NaturalMetricFamily",
    "PRESET_NAMES",
    "preset",
    "flatness_beta",
]

PRESET_NAMES = ("sasaki", "cheeger-gromoll", "exp+", "exp-")

_PRESET_EXPRESSIONS = {
    "sasaki": ("1", "0"),
    "cheeger-gromoll": ("1/(1+t)", "1/(1+t)"),
    "exp+": ("exp(t)", "exp(t)"),
    "exp-": ("exp(-t)", "exp(-t)"),
}


@dataclass(frozen=True)
class FamilyJets:
    """The five numbers every consumer of a family needs at one t."""

    alpha: float
    alpha_d1: float
    alpha_d2: float
    beta: float
    beta_d1: float


@dataclass(frozen=True)
class FamilyValidation:
    """Outcome of dense positivity sampling on [0, t_max].

    ``violation_t`` is the first t where alpha or alpha + t*beta fails to
    be positive (local minima dipping to zero are located by bisection on
    the derivative, so tangential zeros between grid points are caught).
    ``phi_violation_t`` reports the same for phi = alpha + t*alpha', whose
    positivity is a precondition of the flat-fiber construction.
    """

    valid: bool
    violation_t: Optional[float]
    violation_kind: Optional[str]  # "alpha" | "delta"
    phi_positive: bool
    phi_violation_t: Optional[float]
    samples: int
    t_max: float

    def summary(self) -> str:
        if self.valid:
            head = "valid"
        else:
            head = f"INVALID: {self.violation_kind} <= 0 near t={self.violation_t:.6g}"
        phi = (
            "phi > 0"
            if self.phi_positive
            else f"phi <= 0 near t={self.phi_violation_t:.6g}"
        )
        return f"{head}; {phi} on [0, {self.t_max:g}] ({self.samples} samples)"


def _refine_minimum(value, slope, a: float, b: float, iters: int = 80) -> float:
    """Bisect slope over [a, b] (slope(a) < 0 <= slope(b)) to locate a local
    minimum of value."""
    lo, hi = a, b
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if slope(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _first_nonpositive(value, slope, grid: np.ndarray, dip_rtol: float):
    """First t in [grid[0], grid[-1]] where value(t) fails to be positive.

    Grid nodes are checked for outright nonpositivity.  A local minimum
    bracketed by a sign change of the slope is refined by bisection and
    counted as a violation when the refined value collapses relative to
    the bracketing values (a tangential zero); an everywhere-positive
    function that merely decays to tiny values is not flagged.
    """
    prev_t = grid[0]
    prev_v = value(prev_t)
    prev_s = slope(prev_t)
    if prev_v <= 0.0:
        return float(prev_t)
    for t in grid[1:]:
        v = value(t)
        s = slope(t)
        if v <= 0.0:
            return float(t)
        if prev_s < 0.0 <= s:
            tm = _refine_minimum(value, slope, prev_t, t)
            if value(tm) <= dip_rtol * max(prev_v, v):
                return float(tm)
        prev_t, prev_v, prev_s = t, v, s
    return None


class NaturalMetricFamily:
    """Pair (alpha, beta) with a validity horizon t_max.

    Both functions must expose order-1 jets; alpha additionally needs a
    second derivative (consumed by H).  Instances are immutable values and
    all methods are pure.
    """

    def __init__(
        self,
        alpha: FunctionLike,
        beta: FunctionLike,
        name: str = "custom",
        t_max: float = 25.0,
    ):
        self.alpha = as_scalar_function(alpha)
        self.beta = as_scalar_function(beta)
        self.name = name
        self.t_max = float(t_max)

    def __repr__(self) -> str:
        return (
            f"NaturalMetricFamily({self.name!r}, alpha={self.alpha.name!r}, "
            f"beta={self.beta.name!r})"
        )

    # -- raw jets ----------------------------------------------------------

    def jets(self, t: float) -> FamilyJets:
        a = self.alpha.jet(t)
        b = self.beta.jet(t)
        return FamilyJets(a.value, a.d1, a.d2, b.value, b.d1)

    def alpha_at(self, t: float) -> float:
        return self.alpha.value(t)

    def beta_at(self, t: float) -> float:
        return self.beta.value(t)

    def delta_at(self, t: float) -> float:
        """alpha(t) + t*beta(t), the squared-norm weight along xi."""
        return self.alpha.value(t) + t * self.beta.value(t)

    def phi_at(self, t: float) -> float:
        """alpha(t) + t*alpha'(t)."""
        a = self.alpha.jet(t)
        return a.value + t * a.d1

    # -- validity ----------------------------------------------------------

    def check_point(self, t: float) -> tuple[float, float]:
        """Raise ValidityError unless alpha > 0 and alpha + t*beta > 0 at t
        and t lies inside the validated horizon; return (alpha(t), beta(t))."""
        if not 0.0 <= t <= self.t_max:
            raise ValidityError(
                f"t={t:g} outside validated range [0, {self.t_max:g}] "
                f"for family {self.name!r}"
            )
        a = self.alpha.value(t)
        b = self.beta.value(t)
        d = a + t * b
        if a <= 0.0 or d <= 0.0:
            raise ValidityError(
                f"family {self.name!r} invalid at t={t:g}: alpha={a:g}, "
                f"alpha+t*beta={d:g}"
            )
        return a, b

    def weights(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(alpha(t), beta(t)) at each t of an array, each t passing
        ``check_point`` first; the first invalid t raises ValidityError."""
        t = np.asarray(t, dtype=float)
        ab = np.array([self.check_point(ti) for ti in t.ravel().tolist()])
        return ab[:, 0].reshape(t.shape), ab[:, 1].reshape(t.shape)

    def validate(self, samples: int = 4096, dip_rtol: float = 1e-8) -> FamilyValidation:
        """Densely sample positivity of alpha and alpha + t*beta on
        [0, t_max]; also report where phi = alpha + t*alpha' fails.

        ``dip_rtol`` controls the tangential-zero detector: a bisected
        local minimum counts as a violation when it is that small relative
        to its bracketing grid values.
        """
        if samples < 2:
            raise ValueError("samples must be >= 2")
        grid = np.linspace(0.0, self.t_max, samples)

        def alpha_v(t):
            return self.alpha.value(t)

        def alpha_s(t):
            return self.alpha.jet(t).d1

        def delta_v(t):
            return self.alpha.value(t) + t * self.beta.value(t)

        def delta_s(t):
            a = self.alpha.jet(t)
            b = self.beta.jet(t)
            return a.d1 + b.value + t * b.d1

        def phi_v(t):
            a = self.alpha.jet(t)
            return a.value + t * a.d1

        def phi_s(t):
            a = self.alpha.jet(t)
            return 2.0 * a.d1 + t * a.d2

        bad_alpha = _first_nonpositive(alpha_v, alpha_s, grid, dip_rtol)
        bad_delta = _first_nonpositive(delta_v, delta_s, grid, dip_rtol)
        candidates = [
            (t, kind)
            for t, kind in ((bad_alpha, "alpha"), (bad_delta, "delta"))
            if t is not None
        ]
        if candidates:
            violation_t, kind = min(candidates)
            valid = False
        else:
            violation_t, kind = None, None
            valid = True
        bad_phi = _first_nonpositive(phi_v, phi_s, grid, dip_rtol)
        return FamilyValidation(
            valid=valid,
            violation_t=violation_t,
            violation_kind=kind,
            phi_positive=bad_phi is None,
            phi_violation_t=bad_phi,
            samples=samples,
            t_max=self.t_max,
        )

    # -- derived quantities --------------------------------------------------

    def fiber_block(self, xi: np.ndarray) -> np.ndarray:
        """alpha(|xi|^2)*Id + beta(|xi|^2)*xi^T xi, the vertical Gram block.

        Symmetric positive definite whenever the family is valid at |xi|^2
        (eigenvalues alpha with multiplicity n-1 and alpha + |xi|^2 beta).
        """
        xi = np.asarray(xi, dtype=float)
        t = float(xi @ xi)
        self.check_point(t)
        n = xi.shape[0]
        return self.alpha.value(t) * np.eye(n) + self.beta.value(t) * np.outer(xi, xi)

    def F(self, t: float) -> float:
        """Vertical plane coefficient away from the radial direction:
        (alpha*beta - t*alpha'^2 - 2*alpha*alpha') / (alpha + t*beta)."""
        self.check_point(t)
        j = self.jets(t)
        num = j.alpha * j.beta - t * j.alpha_d1**2 - 2.0 * j.alpha * j.alpha_d1
        return num / (j.alpha + t * j.beta)

    def H(self, t: float) -> float:
        """Radial vertical plane coefficient:
        phi * d/dt ln(alpha*Delta) - 2*phi', with phi = alpha + t*alpha'
        and Delta = alpha + t*beta."""
        self.check_point(t)
        j = self.jets(t)
        delta = j.alpha + t * j.beta
        delta_d1 = j.alpha_d1 + j.beta + t * j.beta_d1
        phi = j.alpha + t * j.alpha_d1
        phi_d1 = 2.0 * j.alpha_d1 + t * j.alpha_d2
        log_d1 = (j.alpha_d1 * delta + j.alpha * delta_d1) / (j.alpha * delta)
        return phi * log_d1 - 2.0 * phi_d1

    def max_abs_F(self, t_hi: float, samples: int = 2048) -> float:
        ts = np.linspace(0.0, t_hi, samples)
        return max(abs(self.F(float(t))) for t in ts)

    def max_abs_H(self, t_hi: float, samples: int = 2048) -> float:
        ts = np.linspace(0.0, t_hi, samples)
        return max(abs(self.H(float(t))) for t in ts)


def flatness_beta(alpha: FunctionLike) -> ScalarFunction:
    """The beta making the fibers flat over a flat base:
    beta = (t*alpha'^2 + 2*alpha*alpha') / alpha.

    The returned function carries an exact first derivative (it is needed
    by H); its second derivative is undefined (NaN) since it would require
    the third derivative of alpha.
    """
    alpha = as_scalar_function(alpha)

    def value(t: float) -> float:
        a = alpha.jet(t)
        return (t * a.d1**2 + 2.0 * a.value * a.d1) / a.value

    def d1(t: float) -> float:
        a = alpha.jet(t)
        num_d1 = 3.0 * a.d1**2 + 2.0 * t * a.d1 * a.d2 + 2.0 * a.value * a.d2
        return num_d1 / a.value - value(t) * a.d1 / a.value

    return ScalarFunction.from_callables(
        value, d1, None, name=f"flatness_beta({alpha.name})"
    )


def preset(name: str, t_max: float = 25.0) -> NaturalMetricFamily:
    """Look up one of the named families: sasaki, cheeger-gromoll, exp+, exp-."""
    key = name.lower()
    if key not in _PRESET_EXPRESSIONS:
        raise KeyError(f"unknown family preset {name!r}; choose from {PRESET_NAMES}")
    alpha_src, beta_src = _PRESET_EXPRESSIONS[key]
    return NaturalMetricFamily(alpha_src, beta_src, name=key, t_max=t_max)
