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

import math
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .errors import DomainError, ValidityError
from .scalarfun import FunctionLike, Jet2, ScalarFunction, as_scalar_function

__all__ = [
    "FamilyJets",
    "FamilyValidation",
    "NaturalMetricFamily",
    "PRESET_NAMES",
    "preset",
    "flatness_beta",
    "flatness_jet",
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
    """Everything consumers of a family need at t, for a number or an
    array of t: the jets of alpha and beta, Delta = alpha + t*beta, F and H."""

    alpha: np.ndarray
    alpha_d1: np.ndarray
    alpha_d2: np.ndarray
    beta: np.ndarray
    beta_d1: np.ndarray
    delta: np.ndarray
    F: np.ndarray
    H: np.ndarray


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


def _defined_prefix(evaluate, grid: np.ndarray):
    """``(nodes, evaluate(nodes), error)``: evaluate at the grid nodes before
    the first t where it raises DomainError, and the last DomainError it
    raised (None if it raised none).  Where the function is undefined from
    some node on, each retry drops that node and every later one."""
    error = None
    while True:
        try:
            return grid, evaluate(grid), error
        except DomainError as exc:
            error, grid = exc, grid[grid < exc.t]


def _value_slope_of(kind: str, t, a: Jet2, b: Optional[Jet2] = None):
    """Value and slope at t of alpha, Delta = alpha + t*beta or
    phi = alpha + t*alpha', from the jets a of alpha and b of beta there
    (b is read for Delta only)."""
    if kind == "alpha":
        return a.value, a.d1
    if kind == "phi":
        return a.value + t * a.d1, 2.0 * a.d1 + t * a.d2
    return a.value + t * b.value, a.d1 + b.value + t * b.d1


# A bisected local minimum counts as a tangential zero when its value is at
# most this fraction of the larger of its bracketing grid values: a minimum
# eight orders below its neighbours one grid step away is a zero at the
# grid's resolution, while a positive function that only decays keeps the
# order of its neighbours.
_DIP_RTOL = 1e-8
# At most this many halvings of a bracket.  2^-80 of a grid step is below
# the float64 spacing at any t more than 2^-28 grid steps from 0, so the
# halving reaches its fixed point first except at minima next to t = 0.
_BISECTION_STEPS = 80


def _first_nonpositive(value_slope, scan):
    """First t in a grid where a function fails to be positive;
    ``value_slope(t)`` gives its value and slope at an array of t, and
    ``scan`` is ``_defined_prefix(value_slope, grid)``.

    Grid nodes are checked for outright nonpositivity.  A local minimum
    bracketed by a sign change of the slope is refined by bisection and
    counted as a violation when the refined value collapses relative to
    the bracketing values (a tangential zero); an everywhere-positive
    function that merely decays to tiny values is not flagged.  Events are
    taken in grid order, a node before the bracket that ends at it.  All
    brackets are halved together, at most ``_BISECTION_STEPS`` times, and
    the halving stops at the first step that moves none of them: each step
    depends only on the brackets, so every later step would repeat it.
    Where the function is undefined from some node on, the nodes before it
    are scanned, and the DomainError is raised if they hold no event.
    """
    grid, (v, s), error = scan
    bad = np.flatnonzero(v <= 0.0)
    end = bad[0] if bad.size else v.size
    ends = np.flatnonzero((s[:-1] < 0.0) & (0.0 <= s[1:])) + 1
    ends = ends[ends < end]
    if ends.size:
        lo, hi = grid[ends - 1], grid[ends]
        for _ in range(_BISECTION_STEPS):
            mid = 0.5 * (lo + hi)
            down = value_slope(mid)[1] < 0.0
            lo_next, hi_next = np.where(down, mid, lo), np.where(down, hi, mid)
            if np.array_equal(lo_next, lo) and np.array_equal(hi_next, hi):
                break
            lo, hi = lo_next, hi_next
        tm = 0.5 * (lo + hi)
        dips = value_slope(tm)[0] <= _DIP_RTOL * np.maximum(v[ends - 1], v[ends])
        if dips.any():
            return float(tm[np.argmax(dips)])
    if end < v.size:
        return float(grid[end])
    if error is not None:
        raise error
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
        try:
            self.t_max = float(t_max)
        except (TypeError, ValueError):
            self.t_max = math.nan
        if not 0.0 < self.t_max < math.inf:
            raise ValueError(f"t_max must be a positive finite number, got {t_max!r}")

    def __repr__(self) -> str:
        return (
            f"NaturalMetricFamily({self.name!r}, alpha={self.alpha.name!r}, "
            f"beta={self.beta.name!r})"
        )

    # -- jets ------------------------------------------------------------

    def jets(self, t) -> FamilyJets:
        """The record at t (a number or an array), from one walk of alpha
        and one of beta; raises ValidityError unless every t lies inside
        [0, t_max] with alpha > 0 and alpha + t*beta > 0, naming the first
        t that does not."""
        t = np.asarray(t, dtype=float)
        outside = ~((0.0 <= t) & (t <= self.t_max))
        if np.count_nonzero(outside):
            raise ValidityError(
                f"t={np.ravel(t)[np.argmax(outside)]:g} outside validated range "
                f"[0, {self.t_max:g}] for family {self.name!r}"
            )
        t = t[()]
        a = self.alpha.jet(t)
        b = self.beta.jet(t)
        delta = a.value + t * b.value
        bad = (a.value <= 0.0) | (delta <= 0.0)
        if np.count_nonzero(bad):
            i = np.argmax(bad)
            raise ValidityError(
                f"family {self.name!r} invalid at t={np.ravel(t)[i]:g}: "
                f"alpha={np.ravel(a.value)[i]:g}, alpha+t*beta={np.ravel(delta)[i]:g}"
            )
        # F: vertical plane coefficient away from the radial direction,
        # (alpha*beta - t*alpha'^2 - 2*alpha*alpha') / Delta.
        num = a.value * b.value - t * (a.d1 * a.d1) - 2.0 * a.value * a.d1
        # H: radial vertical plane coefficient, phi * d/dt ln(alpha*Delta)
        # - 2*phi', with phi = alpha + t*alpha'.
        delta_d1 = a.d1 + b.value + t * b.d1
        phi = a.value + t * a.d1
        phi_d1 = 2.0 * a.d1 + t * a.d2
        log_d1 = (a.d1 * delta + a.value * delta_d1) / (a.value * delta)
        return FamilyJets(
            alpha=a.value,
            alpha_d1=a.d1,
            alpha_d2=a.d2,
            beta=b.value,
            beta_d1=b.d1,
            delta=delta,
            F=num / delta,
            H=phi * log_d1 - 2.0 * phi_d1,
        )

    def alpha_at(self, t):
        return self.alpha.value(t)

    def beta_at(self, t):
        return self.beta.value(t)

    def delta_at(self, t):
        """alpha(t) + t*beta(t), the squared-norm weight along xi."""
        return self.alpha.value(t) + t * self.beta.value(t)

    def phi_at(self, t):
        """alpha(t) + t*alpha'(t)."""
        a = self.alpha.jet(t)
        return a.value + t * a.d1

    # -- validity ----------------------------------------------------------

    def check_point(self, t):
        """(alpha(t), beta(t)) for a number or an array t, after the checks
        of ``jets``."""
        j = self.jets(t)
        return j.alpha, j.beta

    def _value_slope(self, kind: str, t: np.ndarray):
        """Value and slope of alpha, Delta = alpha + t*beta or
        phi = alpha + t*alpha' at t."""
        a = self.alpha.jet(t)
        return _value_slope_of(kind, t, a, self.beta.jet(t) if kind == "delta" else None)

    def validate(self, samples: int = 4096) -> FamilyValidation:
        """Densely sample positivity of alpha and alpha + t*beta on
        [0, t_max]; also report where phi = alpha + t*alpha' fails.  A
        bisected local minimum counts as a violation when it is at most
        ``_DIP_RTOL`` of its bracketing grid values.
        """
        if samples < 2:
            raise ValueError("samples must be >= 2")
        grid = np.linspace(0.0, self.t_max, samples)
        # One walk of alpha on the grid serves all three kinds, and beta is
        # walked on alpha's nodes when Delta's turn comes: each scan is what
        # ``_defined_prefix`` gives for the kind's ``_value_slope``.
        t_a, a, error_a = _defined_prefix(self.alpha.jet, grid)

        def scan(kind: str):
            if kind != "delta":
                return t_a, _value_slope_of(kind, t_a, a), error_a
            t_d, b, error_b = _defined_prefix(self.beta.jet, t_a)
            a_d = Jet2(*(field[: t_d.size] for field in (a.value, a.d1, a.d2)))
            error = error_a if error_b is None else error_b
            return t_d, _value_slope_of(kind, t_d, a_d, b), error

        bad_alpha, bad_delta, bad_phi = (
            _first_nonpositive(partial(self._value_slope, kind), scan(kind))
            for kind in ("alpha", "delta", "phi")
        )
        candidates = [
            (t, kind)
            for t, kind in ((bad_alpha, "alpha"), (bad_delta, "delta"))
            if t is not None
        ]
        violation_t, kind = min(candidates) if candidates else (None, None)
        return FamilyValidation(
            valid=not candidates,
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
        alpha, beta = self.check_point(float(xi @ xi))
        return alpha * np.eye(xi.shape[0]) + beta * np.outer(xi, xi)

    def F(self, t):
        """Vertical plane coefficient away from the radial direction:
        (alpha*beta - t*alpha'^2 - 2*alpha*alpha') / (alpha + t*beta)."""
        return self.jets(t).F

    def H(self, t):
        """Radial vertical plane coefficient:
        phi * d/dt ln(alpha*Delta) - 2*phi', with phi = alpha + t*alpha'
        and Delta = alpha + t*beta."""
        return self.jets(t).H

    def max_abs_F(self, t_hi: float, samples: int = 2048) -> float:
        return float(np.max(np.abs(self.F(np.linspace(0.0, t_hi, samples)))))

    def max_abs_H(self, t_hi: float, samples: int = 2048) -> float:
        return float(np.max(np.abs(self.H(np.linspace(0.0, t_hi, samples)))))


def flatness_jet(a: Jet2, t) -> Jet2:
    """The jet of the flatness beta at t, from the jet ``a`` of alpha there:
    its value and exact first derivative; the second derivative is NaN.
    Where alpha is 0 they are not finite, with no numpy warning (as in
    ``eval_jet``); the family's checks reject such t."""
    with np.errstate(all="ignore"):
        value = (t * (a.d1 * a.d1) + 2.0 * a.value * a.d1) / a.value
        num_d1 = 3.0 * (a.d1 * a.d1) + 2.0 * t * a.d1 * a.d2 + 2.0 * a.value * a.d2
        d1 = num_d1 / a.value - value * a.d1 / a.value
        return Jet2(value, d1, value * math.nan)


def flatness_beta(alpha: FunctionLike) -> ScalarFunction:
    """The beta making the fibers flat over a flat base:
    beta = (t*alpha'^2 + 2*alpha*alpha') / alpha.

    Its value and exact first derivative (needed by H) come from one walk of
    alpha (``flatness_jet``); its second derivative is undefined (NaN) since
    it would require the third derivative of alpha.
    """
    alpha = as_scalar_function(alpha)
    return ScalarFunction(
        lambda t: flatness_jet(alpha.jet(t), t), name=f"flatness_beta({alpha.name})"
    )


def preset(name: str, t_max: float = 25.0) -> NaturalMetricFamily:
    """Look up one of the named families: sasaki, cheeger-gromoll, exp+, exp-."""
    key = name.lower()
    if key not in _PRESET_EXPRESSIONS:
        raise KeyError(f"unknown family preset {name!r}; choose from {PRESET_NAMES}")
    alpha_src, beta_src = _PRESET_EXPRESSIONS[key]
    return NaturalMetricFamily(alpha_src, beta_src, name=key, t_max=t_max)
