"""Closed-form curvature of (TM, G) at an adapted-frame point.

Every formula is evaluated at a normal-form point: base point q, a
g-orthonormal frame u with u_0 parallel to v, and t = |v|_g, so the fiber
components of v in the frame are (t, 0, ..., 0).  Frame index 0 plays the
distinguished radial role ("index equal to one" in 1-based notation).

The (2n)^4 component table splits into six symmetry classes by the
horizontal/vertical pattern of the four slots:

    hhhh  purely horizontal          (base curvature plus t^2 corrections)
    vvvv  purely vertical            (epsilon pattern with F / H weights)
    hvvv  one horizontal among three vertical: identically zero
    vvhh  vertical pair against horizontal pair
    hvhv  mixed plane block
    hhvh  one vertical among three horizontal (the nabla-R block)

Each class is produced by its own formula; every other index placement is
generated from these by the algebraic curvature symmetries, never by new
formulas.

``on_points`` runs a computation over the stack of frames of the points
(x, v) and returns one (t, result) per point.  A point that must
run alone runs as a stack of one and its result is kept; a failing point
gets the error it gets alone.  The CLI tables, the scan and the oracle
comparison all run on it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .basemanifold import (
    AdaptedFramePoint,
    ChartManifold,
    FrameCurvature,
    adapted_frame,
    frame_curvature,
)
from .errors import TbcurvError
from .metricfamily import FamilyJets, NaturalMetricFamily

__all__ = [
    "TMSectional",
    "ConstCurvSectional",
    "tm_curvature",
    "tm_sectional",
    "tm_sectional_constcurv",
    "tm_ricci",
    "tm_scalar",
    "scalar_exp_specials",
    "minus_exp_flat_threshold",
    "component_class_labels",
    "component_class_masks",
    "on_points",
    "CLASS_NAMES",
]

CLASS_NAMES = ("hhhh", "vvvv", "hvvv", "vvhh", "hvhv", "hhvh")


def _epsilon(n: int) -> np.ndarray:
    """epsilon_ijkl = delta_il delta_jk - delta_jl delta_ik."""
    eye = np.eye(n)
    return np.einsum("il,jk->ijkl", eye, eye) - np.einsum("jl,ik->ijkl", eye, eye)


@functools.lru_cache(maxsize=None)
def component_class_labels(n: int) -> np.ndarray:
    """The symmetry class of each component of the (2n)^4 table, as its
    position in CLASS_NAMES; read-only.  The class is fixed by how many of
    the four slots are vertical and, for two, whether they form the pair
    (a, b) or (c, d)."""
    is_v = np.arange(2 * n) >= n
    a, b, c, d = np.meshgrid(is_v, is_v, is_v, is_v, indexing="ij", sparse=True)
    count = a.astype(int) + b + c + d
    paired = (a & b) | (c & d)
    labels = np.empty(count.shape, dtype=int)
    for name, where in (
        ("hhhh", count == 0),
        ("vvvv", count == 4),
        ("hvvv", count == 3),
        ("hhvh", count == 1),
        ("vvhh", (count == 2) & paired),
        ("hvhv", (count == 2) & ~paired),
    ):
        labels[where] = CLASS_NAMES.index(name)
    labels.flags.writeable = False
    return labels


def component_class_masks(n: int) -> dict[str, np.ndarray]:
    """Boolean masks over the (2n)^4 table, one per symmetry class, in
    CLASS_NAMES order."""
    labels = component_class_labels(n)
    return {name: labels == k for k, name in enumerate(CLASS_NAMES)}


def _w(x, axes: int) -> np.ndarray:
    """A per-point number (or stack of them) with ``axes`` trailing axes, to
    weigh the tables of its point."""
    return np.asarray(x)[(...,) + (None,) * axes]


def _perm(a: np.ndarray, src: str, dst: str) -> np.ndarray:
    """The view ``np.einsum(f"...{src}->...{dst}", a)`` of a permutation
    of the last axes, as a transpose."""
    k = a.ndim - len(src)
    return a.transpose(*range(k), *(k + src.index(c) for c in dst))


def _check_normal_form(fp: AdaptedFramePoint) -> None:
    """u_0 g v = t and u_i g v = 0 at every point with t > 0, with the metric
    that ``adapted_frame`` evaluated at q."""
    xi = fp.u @ (fp.g @ fp.v[..., None])
    expected = np.zeros_like(xi)
    expected[..., 0, 0] = fp.t
    atol = _w(1e-9 * np.maximum(1.0, fp.t), 2)
    close = np.abs(xi - expected) <= atol + 1e-5 * np.abs(expected)
    if not np.all(np.all(close, axis=(-2, -1)) | (fp.t == 0.0)):
        raise ValueError(
            "frame point is not in normal form (u_0 not aligned with v); "
            "build it with adapted_frame()"
        )


def _point_inputs(
    M: ChartManifold, fam: NaturalMetricFamily, fp: AdaptedFramePoint, include_nabla: bool
) -> tuple[FamilyJets, FrameCurvature]:
    """The family record at t = |v|^2_g and the base curvature at fp, after
    the normal-form check, for a point or a stack of points.  The family
    goes first, so a t outside its valid range fails before any base
    curvature is computed.  nabla R enters only through the one-vertical
    block: the curvature table and the mixed Ricci block need it, sectional
    and scalar curvature do not."""
    _check_normal_form(fp)
    jets = fam.jets(fp.t * fp.t)
    frame = frame_curvature(M, fp, include_nabla=include_nabla)
    fp.require_finite("closed form: base curvature R", frame.Rtable)
    if include_nabla:
        fp.require_finite("closed form: base nabla R", frame.dRtable)
    return jets, frame


def _finite(quantity: str, values: Callable = lambda out: out) -> Callable:
    """A closed form computed under ``np.errstate``, whose values(result)
    are checked: where one overflowed, a NonFiniteError names the quantity
    and the first such point, so a non-finite number is never a result."""

    def decorate(form: Callable) -> Callable:
        @functools.wraps(form)
        def checked(M: ChartManifold, fam: NaturalMetricFamily, fp: AdaptedFramePoint):
            with np.errstate(all="ignore"):
                out = form(M, fam, fp)
            fp.require_finite(f"closed form: {quantity}", values(out))
            return out

        return checked

    return decorate


def _blocks(j: FamilyJets, fp: AdaptedFramePoint, frame: FrameCurvature) -> dict:
    n = fp.dim
    t = _w(fp.t, 4)
    t_sq = t * t
    alpha, alpha_d1, beta = _w(j.alpha, 4), _w(j.alpha_d1, 4), _w(j.beta, 4)

    rt = frame.Rtable
    r1 = rt[..., 0]  # R_{abc1}
    dr1 = frame.dRtable[..., 0]  # (nabla_p R)_{abc1}

    # hhhh: base curvature plus quadratic t^2 corrections.
    hhhh = (
        t_sq
        * alpha
        * (
            0.5 * np.einsum("...ijr,...klr->...ijkl", r1, r1)
            + 0.25 * np.einsum("...ilr,...kjr->...ijkl", r1, r1)
            + 0.25 * np.einsum("...jlr,...ikr->...ijkl", r1, r1)
        )
        + rt
    )

    # vvvv: epsilon pattern, weight F away from the radial index, H with it.
    radial = np.zeros((n, n, n, n), dtype=bool)
    radial[0], radial[:, 0], radial[:, :, 0], radial[:, :, :, 0] = (
        True,
        True,
        True,
        True,
    )
    vvvv = _epsilon(n) * np.where(radial, _w(j.H, 4), _w(j.F, 4))

    # vvhh: vertical pair against horizontal pair.
    delta_i0 = np.zeros(n)
    delta_i0[0] = 1.0
    radial_pair = (delta_i0[:, None] + delta_i0[None, :])[:, :, None, None]
    vvhh = 0.5 * (2.0 * alpha + radial_pair * beta * t_sq) * rt
    vvhh += (
        0.5
        * (beta - 2.0 * alpha_d1)
        * t_sq
        * (
            np.einsum("i,...klj->...ijkl", delta_i0, r1)
            - np.einsum("j,...kli->...ijkl", delta_i0, r1)
        )
    )
    vvhh += (alpha**2 * t_sq / 4.0) * (
        np.einsum("...krj,...rli->...ijkl", r1, r1)
        - np.einsum("...kri,...rlj->...ijkl", r1, r1)
    )

    # hvhv: mixed plane block, with the radial correction
    # (delta_j0 + delta_l0) * alpha' * t^2 / 2 * (R_{kil1} - R_{kij1}).
    dsum = delta_i0[None, :, None, None] + delta_i0[None, None, None, :]
    hvhv = (
        0.5 * alpha * _perm(rt, "kilj", "ijkl")
        + (alpha**2 * t_sq / 4.0) * np.einsum("...krj,...ril->...ijkl", r1, r1)
        + 0.5
        * t_sq
        * alpha_d1
        * dsum
        * (
            _perm(r1, "kil", "ikl")[..., :, None, :, :]
            - _perm(r1, "kij", "ijk")[..., None]
        )
    )

    # hhvh: the nabla-R block,
    # (alpha t / 2) [ (nabla_j R)(u_i, u_l) u_k - (nabla_i R)(u_j, u_l) u_k ]_1.
    hhvh = (alpha * t / 2.0) * (
        _perm(dr1, "jilk", "ijkl") - _perm(dr1, "ijlk", "ijkl")
    )

    return {
        "hhhh": hhhh,
        "vvvv": vvvv,
        "vvhh": vvhh,
        "hvhv": hvhv,
        "hhvh": hhvh,
    }


def _assemble(blocks: dict, n: int) -> np.ndarray:
    """Populate the full (2n)^4 table (per point of a stack) from the class
    blocks using the curvature symmetries for every other index placement."""
    two_n = 2 * n
    hhhh, vvvv = blocks["hhhh"], blocks["vvvv"]
    vvhh, hvhv, hhvh = blocks["vvhh"], blocks["hvhv"], blocks["hhvh"]
    T = np.zeros(hhhh.shape[:-4] + (two_n, two_n, two_n, two_n))
    H = slice(0, n)
    V = slice(n, two_n)

    T[..., H, H, H, H] = hhhh
    T[..., V, V, V, V] = vvvv
    # hvvv class vanishes in all placements.
    T[..., V, V, H, H] = vvhh
    T[..., H, H, V, V] = _perm(vvhh, "klij", "ijkl")  # pair symmetry
    T[..., H, V, H, V] = hvhv
    T[..., V, H, H, V] = -_perm(hvhv, "jikl", "ijkl")
    T[..., H, V, V, H] = -_perm(hvhv, "ijlk", "ijkl")
    T[..., V, H, V, H] = _perm(hvhv, "jilk", "ijkl")
    T[..., H, H, V, H] = hhvh
    T[..., H, H, H, V] = -_perm(hhvh, "ijlk", "ijkl")
    T[..., V, H, H, H] = _perm(hhvh, "klij", "ijkl")  # pair symmetry
    T[..., H, V, H, H] = -_perm(hhvh, "klji", "ijkl")
    return T


@_finite("curvature of (TM, G)")
def tm_curvature(
    M: ChartManifold, fam: NaturalMetricFamily, fp: AdaptedFramePoint
) -> np.ndarray:
    """Full closed-form curvature table of (TM, G) at a normal-form point,
    the components <Rbar(e_a, e_b) e_c, e_d> for a, b, c, d in 0..2n-1 of
    shape (2n, 2n, 2n, 2n), or one table per point of a stack of them.  A
    class block is a slice of it: hhhh is ``table[..., :n, :n, :n, :n]``,
    vvvv ``table[..., n:, n:, n:, n:]``."""
    jets, frame = _point_inputs(M, fam, fp, include_nabla=True)
    return _assemble(_blocks(jets, fp, frame), fp.dim)


# --------------------------------------------------------------------------
# Sectional curvature
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TMSectional:
    """Sectional curvature tables over adapted-frame planes.  Diagonals of
    the hh and vv tables are not planes and are left at zero."""

    hh: np.ndarray  # Kbar(e_i, e_j)
    vv: np.ndarray  # Kbar(e_{n+i}, e_{n+j})
    hv: np.ndarray  # Kbar(e_i, e_{n+j})


def _vertical_sectional(j: FamilyJets, n: int) -> np.ndarray:
    """Kbar(e_{n+i}, e_{n+j}): F / alpha^2, and H / (alpha Delta) on planes
    holding the radial index 0; zero on the diagonal."""
    off = _w(j.F / j.alpha**2, 2)
    vv = np.broadcast_to(off, off.shape[:-2] + (n, n)).copy()
    radial = _w(j.H / (j.alpha * j.delta), 1)
    vv[..., 0, :] = vv[..., :, 0] = radial
    vv[..., range(n), range(n)] = 0.0
    return vv


@_finite("sectional curvature of (TM, G)",
         lambda out: np.stack((out.hh, out.vv, out.hv), axis=-3))
def tm_sectional(
    M: ChartManifold, fam: NaturalMetricFamily, fp: AdaptedFramePoint
) -> TMSectional:
    j, frame = _point_inputs(M, fam, fp, include_nabla=False)
    n = fp.dim
    t_sq = _w(fp.t * fp.t, 2)
    alpha = _w(j.alpha, 2)
    rt = frame.Rtable
    r1 = rt[..., 0]

    kbase = np.einsum("...ijji->...ij", rt)
    # |R(u_i, u_j) v|^2 = t^2 sum_r R_{ij1r}^2 = t^2 sum_r R_{ijr1}^2
    hh = kbase - 0.75 * alpha * t_sq * np.einsum("...ijr,...ijr->...ij", r1, r1)

    vv = _vertical_sectional(j, n)

    # |R(u_j, v) u_i|^2 = t^2 sum_r R_{j 1 i r}^2
    r0 = rt[..., :, 0, :, :]
    hv = (alpha / 4.0) * t_sq * np.einsum("...jir,...jir->...ij", r0, r0)
    return TMSectional(hh=hh, vv=vv, hv=hv)


@dataclass(frozen=True)
class ConstCurvSectional:
    """Sectional shortcut for a constant-curvature base.

    ``hv`` comes from substituting the constant-curvature tensor into the
    general mixed-plane formula: quadratic in the curvature constant and
    zero on the aligned plane.  ``hv_shortcut`` is the simpler variant that
    is linear in the constant and nonzero at i = j = 0; the two disagree
    there, so reports must surface ``shortcut_deviation`` instead of
    silently preferring one.
    """

    hh: np.ndarray
    vv: np.ndarray
    hv: np.ndarray
    hv_shortcut: np.ndarray
    shortcut_deviation: float


def tm_sectional_constcurv(
    k0: float, fam: NaturalMetricFamily, t: float, n: int
) -> ConstCurvSectional:
    t_sq = t * t
    j = fam.jets(t_sq)
    alpha = j.alpha
    d0 = np.zeros(n)
    d0[0] = 1.0

    hh = k0 - 0.75 * k0 * k0 * alpha * t_sq * (d0[:, None] + d0[None, :])
    np.fill_diagonal(hh, 0.0)

    vv = _vertical_sectional(j, n)

    # General-theorem mixed planes with the constant-curvature tensor:
    # sum_r R_{j1ir}^2 = k0^2 (delta_i0 + delta_ij - 2 [i == j == 0]).
    pattern = d0[:, None] + np.eye(n)
    pattern[0, 0] = 0.0
    hv = (alpha / 4.0) * t_sq * k0 * k0 * pattern

    shortcut = (alpha / 4.0) * k0 * t_sq * (np.eye(n) + d0[:, None])
    return ConstCurvSectional(
        hh=hh,
        vv=vv,
        hv=hv,
        hv_shortcut=shortcut,
        shortcut_deviation=float(np.max(np.abs(hv - shortcut))),
    )


# --------------------------------------------------------------------------
# Ricci and scalar curvature
# --------------------------------------------------------------------------


@_finite("ricci curvature of (TM, G)")
def tm_ricci(
    M: ChartManifold, fam: NaturalMetricFamily, fp: AdaptedFramePoint
) -> np.ndarray:
    """Closed-form Ricci table of (TM, G) over the (unnormalized) adapted
    frame, as a symmetric 2n x 2n matrix.

    The horizontal-horizontal and vertical-vertical blocks are closed
    forms; the vertical R^2 coefficient is alpha^2 t^2 / 4, the value
    forced by tracing the curvature table (and the one consistent with the
    scalar-curvature closed form).  The mixed block is obtained by tracing
    the one-vertical curvature block against the orthonormalized frame.
    """
    j, frame = _point_inputs(M, fam, fp, include_nabla=True)
    n = fp.dim
    t = _w(fp.t, 2)
    t_sq = _w(fp.t * fp.t, 2)
    alpha, delta, f_val, h_val = (_w(x, 2) for x in (j.alpha, j.delta, j.F, j.H))
    rt = frame.Rtable
    r1 = rt[..., 0]
    ricci_base = np.einsum("...illj->...ij", rt)

    hh = ricci_base - (alpha * t_sq / 2.0) * np.einsum("...irl,...jrl->...ij", r1, r1)

    vv = (alpha**2 * t_sq / 4.0) * np.einsum("...rli,...rlj->...ij", r1, r1)
    vv += np.eye(n) * ((n - 2) * f_val / alpha + h_val / delta)
    vv[..., 0, :] = 0.0
    vv[..., :, 0] = 0.0
    vv[..., 0, 0] = (n - 1) * j.H / j.alpha

    dr1 = frame.dRtable[..., 0]
    hv = (alpha * t / 2.0) * (
        np.einsum("...illj->...ij", dr1) - np.einsum("...lilj->...ij", dr1)
    )

    out = np.zeros(hh.shape[:-2] + (2 * n, 2 * n))
    out[..., :n, :n] = 0.5 * (hh + np.swapaxes(hh, -1, -2))
    out[..., n:, n:] = 0.5 * (vv + np.swapaxes(vv, -1, -2))
    out[..., :n, n:] = hv
    out[..., n:, :n] = np.swapaxes(hv, -1, -2)
    return out


@_finite("scalar curvature of (TM, G)")
def tm_scalar(M: ChartManifold, fam: NaturalMetricFamily, fp: AdaptedFramePoint):
    """Scalar curvature of (TM, G) at v, a number (or one per point of a
    stack):

    S(q) - (t^2 alpha / 4) sum R_{irl1}^2 + 2(n-1) H / (alpha Delta)
    + (n-1)(n-2) F / alpha^2, everything evaluated at t^2.
    """
    j, frame = _point_inputs(M, fam, fp, include_nabla=False)
    n = fp.dim
    t_sq = fp.t * fp.t
    alpha = j.alpha
    rt = frame.Rtable
    r1 = rt[..., 0]
    s_base = np.einsum("...illi->...", rt)
    value = (
        s_base
        - (t_sq * alpha / 4.0) * np.einsum("...irl,...irl->...", r1, r1)
        + 2.0 * (n - 1) * j.H / (alpha * j.delta)
        + (n - 1) * (n - 2) * j.F / alpha**2
    )
    return value[()]


# --------------------------------------------------------------------------
# Exponential-metric scalar specials
# --------------------------------------------------------------------------


def minus_exp_flat_threshold(n: int) -> float:
    """Positivity threshold of the flat-base minus-exponential scalar:
    |v|^2 = ((n-1) + sqrt(4 n (n-2) + 1)) / (n-2), for n >= 3."""
    if n < 3:
        raise ValueError("threshold defined for dim >= 3")
    return ((n - 1) + math.sqrt(4.0 * n * (n - 2) + 1.0)) / (n - 2)


def scalar_exp_specials(k0: float, n: int, v_sq: float, which: str) -> float:
    """Specialized scalar curvature of the exponential metrics over a
    constant-curvature base (curvature k0), as a function of |v|^2.  The
    flat-base minus-exponential value crosses zero at
    ``minus_exp_flat_threshold(n)``."""
    s = float(v_sq)
    if which == "plus":
        return (n - 1) * (
            k0 * (n - 0.5 * k0 * s * math.exp(s))
            - math.exp(-s) * (2.0 + (n - 2) * (1.0 + s)) / (1.0 + s)
        )
    if which == "minus":
        return (n - 1) * (
            k0 * (n - 0.5 * k0 * s * math.exp(-s))
            + (math.exp(s) / (1.0 + s))
            * ((n - 2) * (3.0 - s) + (6.0 + 2.0 * s) / (1.0 + s))
        )
    raise ValueError("which must be 'plus' or 'minus'")


# --------------------------------------------------------------------------
# Stacks of bundle points, each bad point isolated
# --------------------------------------------------------------------------


def on_points(
    M: ChartManifold, fam: NaturalMetricFamily, x: np.ndarray, v: np.ndarray, fun: Callable
) -> list[tuple]:
    """fun on the adapted frames of the points (x, v), base points and
    vectors of shape (m, n), as one stack; ``fun(fp)`` returns one result
    per point of the stack fp.

    Returns one ``(t, result)`` per point: t = |v|_g, the t of its frame,
    or where no frame was built sqrt((v^T g) v) with the metric at x, nan
    outside the chart, where the metric is not evaluated, or where the
    metric gives no real norm; and fun's result at the point, or the
    ``TbcurvError`` the point gets alone.  Checks that evaluate nothing flag
    the points a computation may refuse: the chart box, t^2 outside the
    family's range, and the chart's edge within the reach of the nabla R
    stencil (which the curvature and Ricci tables need) or of the oracle's
    stencil (which verify needs).  A flagged point runs alone, as a stack of
    one on the frame already built, and so does every point of a stack that
    still fails.  Every result is kept: apart from the failed stack, no
    point is computed twice."""
    q, v = np.asarray(x, dtype=float), np.asarray(v, dtype=float)
    t = np.full(len(q), np.nan)
    framed = np.zeros(len(q), dtype=bool)
    results: list = [None] * len(q)

    def run(sel: np.ndarray, fp: Optional[AdaptedFramePoint] = None) -> bool:
        """fun on the points at positions sel as one stack, on their frames
        fp (built here if not given); False if a stack of several fails."""
        try:
            fp = adapted_frame(M, q[sel], v[sel]) if fp is None else fp
            t[sel], framed[sel] = fp.t, True
            out = fun(fp)
        except TbcurvError as exc:
            if len(sel) > 1:
                return False
            out = [exc]
        for k, result in zip(sel, out):
            results[k] = result
        return True

    def alone(sel: np.ndarray, fp: Optional[AdaptedFramePoint] = None) -> None:
        for j in range(len(sel)):
            run(sel[j : j + 1], None if fp is None else fp[j : j + 1])

    every = np.arange(len(q))
    outside = M.outside(q)
    alone(every[outside])  # each fails on the chart box
    rest, fp = every[~outside], None
    try:
        fp = adapted_frame(M, q[rest], v[rest]) if rest.size else None
    except TbcurvError:
        alone(rest)
    if fp is not None:
        t_sq = fp.t * fp.t
        reach = np.maximum(M.nabla_reach(fp.q), M.oracle_reach(fp.q))
        flagged = ~((0.0 <= t_sq) & (t_sq <= fam.t_max)) | M.outside(fp.q, reach)
        alone(rest[flagged], fp[flagged])
        good = ~flagged
        if good.any() and not run(rest[good], fp[good]):
            alone(rest[good], fp[good])
    bare = ~(framed | outside)  # a frame that failed: the metric at x was evaluated
    if bare.any():
        g, w = M.metric(q[bare]), v[bare]
        with np.errstate(invalid="ignore", over="ignore"):
            t[bare] = np.sqrt(((w[:, None, :] @ g) @ w[:, :, None])[:, 0, 0])
    return list(zip(t.tolist(), results))
