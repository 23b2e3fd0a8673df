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
from functools import partial
from typing import NamedTuple, Optional

import numpy as np

from .errors import DomainError, ValidityError, check_positive
from .scalarfun import FunctionLike, Jet2, ScalarFunction, as_scalar_function

__all__ = [
    "F_ZERO",
    "FamilyJets",
    "FamilyValidation",
    "NaturalMetricFamily",
    "PRESET_NAMES",
    "preset",
    "flatness_beta",
    "flatness_jet",
]

PRESET_NAMES = ("sasaki", "cheeger-gromoll", "exp+", "exp-")

# max |F| at most this on a grid reads as F == 0 there: flat fibers, whose
# consequences ``FamilyJets.flatness`` measures.
F_ZERO = 1e-10

_PRESET_EXPRESSIONS = {
    "sasaki": ("1", "0"),
    "cheeger-gromoll": ("1/(1+t)", "1/(1+t)"),
    "exp+": ("exp(t)", "exp(t)"),
    "exp-": ("exp(-t)", "exp(-t)"),
}


class FamilyJets(NamedTuple):
    """Everything consumers of a family need at t, for a number or an
    array of t: the jets of alpha and beta, Delta = alpha + t*beta, F and H.
    Indexing selects points; fields are read by name (iterating gives the
    eight fields)."""

    alpha: np.ndarray
    alpha_d1: np.ndarray
    alpha_d2: np.ndarray
    beta: np.ndarray
    beta_d1: np.ndarray
    delta: np.ndarray
    F: np.ndarray
    H: np.ndarray

    def __getitem__(self, index) -> "FamilyJets":
        """The record at the points that ``index`` selects."""
        return FamilyJets._make(field[index] for field in self)

    def flatness(self, t) -> tuple:
        """How far the fibers are from flat at t, the points of this record:
        ``(max |F|, max |H|, beta_dev, product_dev)``.  Where F vanishes
        (max |F| <= F_ZERO), beta_dev is the deviation of beta from the
        flatness combination of alpha and product_dev that of alpha*Delta
        from phi^2, phi = alpha + t*alpha', two consequences of F == 0;
        elsewhere both are None.  Deviations are relative to the reference
        value (absolute below 1), so a 1e-8 bound stays above one ulp where
        the family grows large.  The products are compared scaled by
        max(1, |phi|) in each factor, so neither is formed: they overflow
        for a large flat family whose F and H are exact zeros."""
        max_f, max_h = float(np.max(np.abs(self.F))), float(np.max(np.abs(self.H)))
        if max_f > F_ZERO:
            return max_f, max_h, None, None
        flat = flatness_jet(Jet2(self.alpha, self.alpha_d1, self.alpha_d2), t).value
        with np.errstate(all="ignore"):
            beta_dev = np.abs(self.beta - flat) / np.maximum(1.0, np.abs(flat))
            phi = self.alpha + t * self.alpha_d1
            s = np.maximum(1.0, np.abs(phi))
            product_dev = np.abs((self.alpha / s) * (self.delta / s) - (phi / s) ** 2)
        return max_f, max_h, float(np.max(beta_dev)), float(np.max(product_dev))


class FamilyValidation(NamedTuple):
    """Outcome of dense positivity sampling on [0, t_max], at
    ``_VALIDATION_SAMPLES`` evenly spaced points.

    ``violation_t`` is the first t where alpha or alpha + t*beta fails to
    be positive (local minima dipping to zero are located by bisection on
    the derivative, so tangential zeros between grid points are caught),
    or where a field of the family's ``jets`` record is not finite
    (``nonfinite``; ``violation_kind`` then names the field).
    ``phi_violation_t`` reports the same for phi = alpha + t*alpha', whose
    positivity is a precondition of the flat-fiber construction.

    Only the minima the grid resolves are bisected: a slope sign change
    whose slope at both ends moves the value by at most one ulp over the
    grid step is rounding noise or a minimum flat to rounding (the slope of
    a constant alpha + t*beta, as Cheeger-Gromoll's, changes sign hundreds
    of times).  It hides no dip the grid resolves: to fall to ``_DIP_RTOL``
    of its neighbours within one step, a function needs end slopes of the
    order of value/step, some 1e16 times above that bound, and a dip
    narrower than a step with flatter ends is below the grid's resolution.
    """

    valid: bool
    violation_t: Optional[float]
    violation_kind: Optional[str]  # "alpha" | "delta", or a FamilyJets field
    phi_positive: bool
    phi_violation_t: Optional[float]
    t_max: float
    nonfinite: bool = False

    def summary(self) -> str:
        scope = f"on [0, {self.t_max:g}] ({_VALIDATION_SAMPLES} samples)"
        if self.nonfinite:  # every scan stopped there, phi's too
            head = f"INVALID: {self.violation_kind} is not finite at t={self.violation_t:.6g}"
            return f"{head} {scope}"
        if self.valid:
            head = "valid"
        else:
            head = f"INVALID: {self.violation_kind} <= 0 near t={self.violation_t:.6g}"
        phi = "phi > 0" if self.phi_positive else f"phi <= 0 near t={self.phi_violation_t:.6g}"
        return f"{head}; {phi} {scope}"


def _record(t, a: Jet2, b: Jet2, delta_vs: tuple, phi_vs: tuple) -> FamilyJets:
    """The record at t from the jets a of alpha and b of beta there, and the
    value and slope there of Delta and of phi (``_value_slope_of``).  The
    callers run it under ``np.errstate``: a value may be NaN or infinite,
    and ``_fault`` names it."""
    (delta, delta_d1), (phi, phi_d1) = delta_vs, phi_vs
    # F: vertical plane coefficient away from the radial direction,
    # (alpha*beta - t*alpha'^2 - 2*alpha*alpha') / Delta.
    num = a.value * b.value - t * (a.d1 * a.d1) - 2.0 * a.value * a.d1
    # H: radial vertical plane coefficient, phi * d/dt ln(alpha*Delta)
    # - 2*phi', with phi = alpha + t*alpha'.
    log_d1 = (a.d1 * delta + a.value * delta_d1) / (a.value * delta)
    return FamilyJets(
        alpha=a.value, alpha_d1=a.d1, alpha_d2=a.d2, beta=b.value, beta_d1=b.d1,
        delta=delta, F=num / delta, H=phi * log_d1 - 2.0 * phi_d1,
    )


def _nonfinite(j: FamilyJets) -> np.ndarray:
    """Where some field of j is not finite.  F and H are built from every
    other field, and a NaN or an infinity in any field leaves H not finite,
    so F and H tell for all."""
    return ~(np.isfinite(j.F) & np.isfinite(j.H))


def _fault(j: FamilyJets, i) -> tuple:
    """Why the record j fails at index i: ``(kind, False)`` for the first
    of alpha and Delta (kind "delta") that is <= 0 there, else
    ``(field, True)`` for the first field that is not finite there."""
    alpha, delta = np.ravel(j.alpha)[i], np.ravel(j.delta)[i]
    if alpha <= 0.0 or delta <= 0.0:
        return ("alpha" if alpha <= 0.0 else "delta"), False
    return next(k for k, x in j._asdict().items() if not np.isfinite(np.ravel(x)[i])), True


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
_FLOAT = np.finfo(float)
# ``validate`` samples [0, t_max] at this many evenly spaced points.
_VALIDATION_SAMPLES = 4096
# At most this many halvings of a bracket.  2^-80 of a grid step is below
# the float64 spacing at any t more than 2^-28 grid steps from 0, so the
# halving reaches its fixed point first except at minima next to t = 0.
_BISECTION_STEPS = 80
# One evaluation takes the midpoints of the next k halvings of every
# bracket, 2^k - 1 per bracket, for the largest k that keeps them within
# this many points (k >= 1).  On arrays this small an evaluation costs
# about the same whatever its size, nearly all of it the fixed cost of
# walking the expressions, so one bracket takes 6 halvings per evaluation.
_HALVING_POINTS = 64


def _halvings_per_call(brackets: int, steps_left: int) -> int:
    k = 1
    while k < steps_left and (2 ** (k + 1) - 1) * brackets <= _HALVING_POINTS:
        k += 1
    return k


def _halving_midpoints(lo: float, hi: float, k: int) -> list:
    """The midpoints of the brackets that fewer than k halvings of [lo, hi]
    reach, each ``0.5 * (lo + hi)`` of its own bracket, in heap order: the
    halves of bracket n are 2n + 1 (the lower) and 2n + 2."""
    brackets, mids = [(lo, hi)], []
    for n in range(2**k - 1):
        a, b = brackets[n]
        mids.append(0.5 * (a + b))
        brackets += [(a, mids[n]), (mids[n], b)]
    return mids


def _speculative_halvings(value_slope, lo: np.ndarray, hi: np.ndarray, k: int):
    """The next k halvings of the brackets [lo, hi], read from one
    evaluation at the midpoints of every bracket they can reach:
    ``(lo, hi, fixed)``, where ``fixed`` tells that a halving moved none of
    the brackets and the halving stopped there.  The midpoints on the
    taken path are the floats the plain halving evaluates.

    None where the function is undefined at some midpoint, or where
    evaluating one sets a floating-point flag that numpy's error state does
    not ignore (it would warn): the plain halving evaluates only the
    midpoints it takes, and raises or warns only there."""
    brackets = list(zip(lo.tolist(), hi.tolist()))
    mids = [_halving_midpoints(a, b, k) for a, b in brackets]
    heeded = {flag: "raise" for flag, action in np.geterr().items() if action != "ignore"}
    try:
        with np.errstate(**heeded):
            slopes = value_slope(np.array(mids).ravel())[1]
    except (DomainError, FloatingPointError):
        return None
    down = (slopes < 0.0).reshape(len(mids), -1).tolist()
    at, fixed = [0] * len(mids), False
    for _ in range(k):
        halves = [
            (m[n], b) if d[n] else (a, m[n]) for (a, b), m, d, n in zip(brackets, mids, down, at)
        ]
        fixed = halves == brackets
        if fixed:
            break
        brackets = halves
        at = [2 * n + 2 if d[n] else 2 * n + 1 for d, n in zip(down, at)]
    lo, hi = (np.array(side) for side in zip(*brackets))
    return lo, hi, fixed


def _halve(value_slope, lo: np.ndarray, hi: np.ndarray):
    """Halve every bracket towards the sign change of the slope, together,
    at most ``_BISECTION_STEPS`` times, and stop at the first halving that
    moves none of them: each halving depends only on the brackets, so every
    later one would repeat it.  A few brackets take several halvings per
    evaluation (``_speculative_halvings``); a halving is still one bracket
    update at a time, so lo and hi are those of the plain loop."""
    steps = 0
    while steps < _BISECTION_STEPS:
        k = _halvings_per_call(lo.size, _BISECTION_STEPS - steps)
        taken = _speculative_halvings(value_slope, lo, hi, k) if k > 1 else None
        if taken is not None:
            lo, hi, fixed = taken
            if fixed:
                break
            steps += k
            continue
        mid = 0.5 * (lo + hi)
        down = value_slope(mid)[1] < 0.0
        lo_next, hi_next = np.where(down, mid, lo), np.where(down, hi, mid)
        if np.array_equal(lo_next, lo) and np.array_equal(hi_next, hi):
            break
        lo, hi, steps = lo_next, hi_next, steps + 1
    return lo, hi


def _below_resolution(grid, v, s, ends) -> np.ndarray:
    """Which brackets (ends - 1, ends) of the slope's sign changes the grid
    cannot resolve: at both ends the slope moves the value by at most one
    ulp over the bracket's own step, ``max(|s|) * dt <= eps * max(v)``.
    Where the product overflows, or ``eps * max(v)`` is below the smallest
    normal float or not finite, the bracket counts as resolved."""
    lo, hi = ends - 1, ends
    with np.errstate(over="ignore", under="ignore"):
        move = np.maximum(np.abs(s[lo]), np.abs(s[hi])) * (grid[hi] - grid[lo])
        ulp = _FLOAT.eps * np.maximum(v[lo], v[hi])
    return (move <= ulp) & (_FLOAT.tiny <= ulp) & (ulp <= _FLOAT.max)


def _first_nonpositive(value_slope, scan):
    """First t in a grid where a function fails to be positive;
    ``value_slope(t)`` gives its value and slope at an array of t, and
    ``scan`` is ``_defined_prefix(value_slope, grid)``.

    Grid nodes are checked for outright nonpositivity.  A local minimum
    bracketed by a sign change of the slope is refined by bisection
    (``_halve``) and counted as a violation when the refined value
    collapses relative to the bracketing values (a tangential zero); an
    everywhere-positive function that merely decays to tiny values is not
    flagged.  Events are taken in grid order, a node before the bracket
    that ends at it.  Where the function is undefined from some node on,
    the nodes before it are scanned, and the DomainError is raised if they
    hold no event.

    A bracket the grid cannot resolve (``_below_resolution``: the slope at
    both ends moves the value by at most one ulp over the bracket's step)
    is not refined.  That hides no collapse the grid resolves: to fall to
    ``_DIP_RTOL`` of its value within one step, a function whose end
    slopes follow its fall has slopes of the order of value/step there,
    some 1e16 times above the bound.  A dip narrower than the step, with
    flatter ends, is below the grid's resolution: halving all brackets
    finds it or not depending on whether its tails' slope underflows to 0
    at the nodes.  The rule is relative, so scaling the function by 2^k
    keeps what it drops.
    """
    grid, (v, s), error = scan
    bad = np.flatnonzero(v <= 0.0)
    end = bad[0] if bad.size else v.size
    ends = np.flatnonzero((s[:-1] < 0.0) & (0.0 <= s[1:])) + 1
    ends = ends[ends < end]
    if ends.size:  # most scans bracket nothing: skip the rule's numpy calls
        ends = ends[~_below_resolution(grid, v, s, ends)]
    if ends.size:
        lo, hi = _halve(value_slope, grid[ends - 1], grid[ends])
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
        self._beta_from_alpha = _beta_rule(self.alpha, self.beta)
        self.name = name
        check_positive(t_max, "t_max")
        self.t_max = float(t_max)

    def __repr__(self) -> str:
        return (
            f"NaturalMetricFamily({self.name!r}, alpha={self.alpha.name!r}, "
            f"beta={self.beta.name!r})"
        )

    # -- jets ------------------------------------------------------------

    def beta_jet(self, a: Jet2, t) -> Jet2:
        """beta's jet at t, given alpha's jet ``a`` there: read from ``a``
        where beta is a function of alpha's jet (``_beta_rule``), else
        from beta's own walk."""
        if self._beta_from_alpha is None:
            return self.beta.jet(t)
        return self._beta_from_alpha(a, t)

    def jets(self, t) -> FamilyJets:
        """The record at t (a number or an array), from one walk of alpha
        and, unless beta is read from alpha's jet, one of beta; raises
        ValidityError unless every t lies inside [0, t_max] with alpha > 0,
        alpha + t*beta > 0 and every field finite, naming the first t that
        does not."""
        t = np.asarray(t, dtype=float)
        outside = ~((0.0 <= t) & (t <= self.t_max))
        if np.count_nonzero(outside):
            raise ValidityError(
                f"t={np.ravel(t)[np.argmax(outside)]:g} outside validated range "
                f"[0, {self.t_max:g}] for family {self.name!r}"
            )
        t = t[()]
        with np.errstate(all="ignore"):
            a = self.alpha.jet(t)
            b = self.beta_jet(a, t)
            delta, phi = _value_slope_of("delta", t, a, b), _value_slope_of("phi", t, a)
            j = _record(t, a, b, delta, phi)
        bad = (j.alpha <= 0.0) | (j.delta <= 0.0) | _nonfinite(j)
        if np.count_nonzero(bad):
            i = np.argmax(bad)
            kind, nonfinite = _fault(j, i)
            why = (f"{kind} is not finite" if nonfinite else
                   f"alpha={np.ravel(j.alpha)[i]:g}, alpha+t*beta={np.ravel(j.delta)[i]:g}")
            raise ValidityError(f"family {self.name!r} invalid at t={np.ravel(t)[i]:g}: {why}")
        return j

    # -- validity ----------------------------------------------------------

    def _value_slope(self, kind: str, t: np.ndarray):
        """Value and slope of alpha, Delta = alpha + t*beta or
        phi = alpha + t*alpha' at t."""
        a = self.alpha.jet(t)
        return _value_slope_of(kind, t, a, self.beta_jet(a, t) if kind == "delta" else None)

    def validate(self) -> FamilyValidation:
        """Densely sample positivity of alpha and alpha + t*beta, and the
        finiteness of the ``jets`` record, on ``_VALIDATION_SAMPLES`` evenly
        spaced points of [0, t_max]; also report where phi = alpha +
        t*alpha' fails.  A bisected local minimum counts as a violation when
        it is at most ``_DIP_RTOL`` of its bracketing grid values.
        """
        grid = np.linspace(0.0, self.t_max, _VALIDATION_SAMPLES)
        with np.errstate(all="ignore"):
            # One walk of alpha on the grid serves all three kinds and the
            # record, and beta is had on alpha's nodes; beta read from
            # alpha's jet is defined wherever alpha is.
            t_a, a, error_a = _defined_prefix(self.alpha.jet, grid)
            if self._beta_from_alpha is None:
                t_d, b, error_b = _defined_prefix(self.beta.jet, t_a)
                error_d = error_a if error_b is None else error_b
            else:
                t_d, b, error_d = t_a, self.beta_jet(a, t_a), error_a
            a_d = Jet2(*(field[: t_d.size] for field in (a.value, a.d1, a.d2)))
            delta, phi = _value_slope_of("delta", t_d, a_d, b), _value_slope_of("phi", t_a, a)
            record = _record(t_d, a_d, b, delta, [field[: t_d.size] for field in phi])
            # A value that is not finite is a violation, and every scan stops
            # before it, as it does at a value <= 0; up to there, each scan is
            # what ``_defined_prefix`` gives for the kind's ``_value_slope``.
            stop = np.flatnonzero(_nonfinite(record))[:1]
            end = stop[0] if stop.size else None
            bad_alpha, bad_delta, bad_phi = (
                _first_nonpositive(
                    partial(self._value_slope, kind),
                    (t[:end], (v[:end], s[:end]), None if stop.size else error),
                )
                for kind, t, (v, s), error in (("alpha", t_a, (a.value, a.d1), error_a),
                                               ("delta", t_d, delta, error_d),
                                               ("phi", t_a, phi, error_a))
            )
        candidates = [
            (t, kind, False)
            for t, kind in ((bad_alpha, "alpha"), (bad_delta, "delta"))
            if t is not None
        ] + [(float(t_d[k]), *_fault(record, k)) for k in stop]
        violation_t, kind, nonfinite = min(candidates) if candidates else (None, None, False)
        return FamilyValidation(
            valid=not candidates,
            violation_t=violation_t,
            violation_kind=kind,
            phi_positive=bad_phi is None,
            phi_violation_t=bad_phi,
            t_max=self.t_max,
            nonfinite=nonfinite,
        )


def flatness_jet(a: Jet2, t) -> Jet2:
    """The jet of the flatness beta at t, from the jet ``a`` of alpha there:
    its value and exact first derivative; the second derivative is NaN.
    Where alpha is 0 they are not finite, with no numpy warning (as in
    ``compile_jet``); the family's checks reject such t."""
    with np.errstate(all="ignore"):
        value = (t * (a.d1 * a.d1) + 2.0 * a.value * a.d1) / a.value
        num_d1 = 3.0 * (a.d1 * a.d1) + 2.0 * t * a.d1 * a.d2 + 2.0 * a.value * a.d2
        d1 = num_d1 / a.value - value * a.d1 / a.value
        return Jet2(value, d1, value * math.nan)


class _FlatnessBeta(ScalarFunction):
    """The flatness beta of ``alpha``, which it keeps as ``of``."""

    def __init__(self, alpha: ScalarFunction):
        super().__init__(
            lambda t: flatness_jet(alpha.jet(t), t), name=f"flatness_beta({alpha.name})"
        )
        self.of = alpha


def flatness_beta(alpha: FunctionLike) -> ScalarFunction:
    """The beta making the fibers flat over a flat base:
    beta = (t*alpha'^2 + 2*alpha*alpha') / alpha.

    Its value and exact first derivative (needed by H) come from alpha's jet
    (``flatness_jet``), one walk of alpha per evaluation; a family whose
    alpha has the same expression reads it from the jet of its own alpha,
    so its alpha is walked once for both.  The second derivative is
    undefined (NaN) since it would require the third derivative of alpha.
    """
    return _FlatnessBeta(as_scalar_function(alpha))


def _same_expr(f: ScalarFunction, g: ScalarFunction) -> bool:
    """f and g run equal syntax trees, so their jets are equal bit for bit.
    Distinct trees that compare equal are also compared by their repr,
    which tells 0.0 from -0.0.  That is stricter than the jets need: a
    constant -0 reads as 0, and the derivatives of a power to -0 are
    structural zeros, as those of a power to 0 are."""
    if f.expr is None or f.expr is g.expr:
        return f.expr is not None
    return f.expr == g.expr and repr(f.expr) == repr(g.expr)


def _beta_rule(alpha: ScalarFunction, beta: ScalarFunction):
    """How beta's jet at t follows from alpha's jet ``a`` there, as a
    function of (a, t), or None when it does not: beta is alpha itself, or
    the flatness beta of alpha, where each runs an equal syntax tree (a
    caller may pass the same text twice, so identity is not required)."""
    if _same_expr(beta, alpha):
        return lambda a, t: a
    if isinstance(beta, _FlatnessBeta) and _same_expr(beta.of, alpha):
        return flatness_jet
    return None


def preset(name: str, t_max: float = 25.0) -> NaturalMetricFamily:
    """Look up one of the named families by its exact name: sasaki,
    cheeger-gromoll, exp+, exp-."""
    if name not in _PRESET_EXPRESSIONS:
        raise KeyError(f"unknown family preset {name!r}; choose from {PRESET_NAMES}")
    alpha_src, beta_src = _PRESET_EXPRESSIONS[name]
    alpha = ScalarFunction.from_expression(alpha_src)
    beta = alpha if beta_src == alpha_src else beta_src
    return NaturalMetricFamily(alpha, beta, name=name, t_max=t_max)
