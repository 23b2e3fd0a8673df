"""Acceptance suite: one test per criterion, each printing a verdict line.

Tolerances are pinned here and nowhere else; run with ``pytest -s
tests/test_acceptance.py`` to see the PASS lines as they happen.
"""

import math
import time

import numpy as np

from tbcurv.basemanifold import (
    adapted_frame,
    base_invariants,
    conformal_polynomial,
    euclidean,
    hyperbolic,
    sphere,
)
from tbcurv.cli import main as cli_main
from tbcurv.closedform import (
    CLASS_NAMES,
    component_class_labels,
    minus_exp_flat_threshold,
    scalar_exp_specials,
    tm_curvature,
    tm_ricci,
    tm_scalar,
    tm_sectional,
)
from tbcurv.metricfamily import NaturalMetricFamily, flatness_beta, preset
from tbcurv.oracle import OracleConfig, compare, numeric_tm_curvature

from references import frame_gram, space_form_sectional
from test_metricfamily import random_flatness_families

ABS_TOL = 1e-5
REL_TOL = 1e-3
FAMILIES = ("sasaki", "cheeger-gromoll", "exp+", "exp-")
SPEEDS = (0.0, 0.5, 1.5)


def _acceptance_manifolds():
    return [
        ("unit S2", sphere(2), np.array([0.9, 0.3]), np.array([0.3, 0.7])),
        (
            "unit S3",
            sphere(3),
            np.array([0.2, -0.1, 0.15]),
            np.array([0.3, 0.7, -0.2]),
        ),
        ("Poincare disk", hyperbolic(2), np.array([0.2, -0.1]), np.array([0.5, 0.3])),
        (
            "flat R3",
            euclidean(3),
            np.array([0.1, 0.4, -0.3]),
            np.array([0.6, -0.2, 0.7]),
        ),
    ]


def _points_for(M, q, direction, speeds=SPEEDS):
    g = M.metric(q)
    unit = direction / math.sqrt(direction @ g @ direction)
    return [q] * len(speeds), [unit * s for s in speeds]


def _verdict(number, ok, text):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {text}", flush=True)
    assert ok, f"criterion {number} failed: {text}"


def test_criterion_1_oracle_equivalence_theorem_coverage():
    cfg = OracleConfig(tol_abs=ABS_TOL, tol_rel=REL_TOL)
    started = time.perf_counter()
    worst = 0.0
    count = 0
    for label, M, q, d in _acceptance_manifolds():
        for fam_name in FAMILIES:
            reports = compare(M, preset(fam_name), *_points_for(M, q, d), cfg)
            for r in reports:
                assert r.status == "ok", f"{label}+{fam_name}: {r.error}"
                assert r.passed, (
                    f"{label}+{fam_name} t={r.t}: max_abs={r.max_abs_dev:.2e} "
                    f"max_rel={r.max_rel_dev:.2e}"
                )
                worst = max(worst, r.max_abs_dev)
                count += 1
    elapsed = time.perf_counter() - started
    _verdict(
        1,
        elapsed < 60.0,
        f"{count} closed-form tables match the oracle (worst abs dev "
        f"{worst:.2e}, {elapsed:.1f}s < 60s)",
    )


def test_criterion_2_nabla_r_block_on_conformal_metric():
    M = conformal_polynomial(3, [[0.1, 1, 1, 0]])
    cfg = OracleConfig(tol_abs=ABS_TOL, tol_rel=REL_TOL)
    hhvh = component_class_labels(3) == CLASS_NAMES.index("hhvh")
    xs, vs = [], []
    for q in (
        np.array([0.2, -0.3, 0.4]),
        np.array([-0.5, 0.1, 0.3]),
        np.array([0.4, 0.5, -0.2]),
    ):
        g = M.metric(q)
        d = np.array([0.5, -0.3, 0.8])
        xs.append(q)
        vs.append(d / math.sqrt(d @ g @ d))
    fam = preset("exp+")
    for r in compare(M, fam, xs, vs, cfg):
        assert r.status == "ok" and r.passed, r.error or r.max_abs_dev
    closed = tm_curvature(M, fam, adapted_frame(M, np.array(xs), np.array(vs)))
    hhvh_max = float(np.max(np.abs(closed[:, hhvh])))
    _verdict(
        2,
        hhvh_max > 1e-4,
        f"one-vertical (nabla R) components reach {hhvh_max:.2e} > 1e-4 and "
        f"match the oracle at |v| = 1",
    )


def test_criterion_3_flatness():
    q = np.array([0.3, -0.2])
    v = np.array([0.8, 0.4])
    M = euclidean(2)
    fp = adapted_frame(M, q, v)

    closed_sasaki = tm_curvature(M, preset("sasaki"), fp)
    oracle_sasaki, _ = numeric_tm_curvature(M, preset("sasaki"), fp)
    ok_i = np.max(np.abs(closed_sasaki)) <= 1e-9 and np.max(np.abs(oracle_sasaki)) <= 1e-6

    fam = NaturalMetricFamily("exp(t)", flatness_beta("exp(t)"), name="exp-flat", t_max=10.0)
    closed_c = tm_curvature(M, fam, fp)
    oracle_c, _ = numeric_tm_curvature(M, fam, fp)
    ok_ii = np.max(np.abs(closed_c)) <= 1e-9 and np.max(np.abs(oracle_c)) <= 1e-6

    M3 = euclidean(3)
    fp0 = adapted_frame(M3, np.zeros(3), np.zeros(3))
    cg_table = tm_curvature(M3, preset("cheeger-gromoll"), fp0)
    vertical_max = float(np.max(np.abs(cg_table[..., 3:, 3:, 3:, 3:])))
    ok_iii = vertical_max >= 1.0

    _verdict(
        3,
        ok_i and ok_ii and ok_iii,
        f"flat+Sasaki and flat+flatness-beta give flat bundles; "
        f"Cheeger-Gromoll vertical component reaches {vertical_max:g} >= 1 at t=0",
    )


def test_criterion_4_F_H_function_suite():
    sas = preset("sasaki")
    jets = sas.jets(np.linspace(0.0, 25.0, 64))
    exact_zero = np.all(jets.F == 0.0) and np.all(jets.H == 0.0)
    t = np.linspace(0.0, 10.0, 512)
    fams = random_flatness_families(50)
    worst_f, worst_h = np.max([fam.jets(t).flatness(t)[:2] for fam in fams], axis=0)
    _verdict(
        4,
        exact_zero and worst_f <= 1e-10 and worst_h <= 1e-8,
        f"Sasaki F = H = 0 exactly; 50 random flatness families: "
        f"max|F| = {worst_f:.2e} <= 1e-10, max|H| = {worst_h:.2e} <= 1e-8",
    )


def test_criterion_5_sectional_properties():
    min_mixed = math.inf
    radial_exact = True
    for label, M, q, d in _acceptance_manifolds():
        for fam_name in FAMILIES:
            fam = preset(fam_name)
            for x, v in zip(*_points_for(M, q, d)):
                fp = adapted_frame(M, x, v)
                sec = tm_sectional(M, fam, fp)
                min_mixed = min(min_mixed, float(np.min(sec.hv)))
                radial_exact &= bool(np.all(sec.hv[:, 0] == 0.0))
    # t = 0: horizontal sectional table equals the base sectional table
    t0_ok = True
    for label, M, q, d in _acceptance_manifolds():
        fp = adapted_frame(M, q, np.zeros(M.dim))
        base = base_invariants(M, fp).sectional
        for fam_name in FAMILIES:
            sec = tm_sectional(M, preset(fam_name), fp)
            t0_ok &= bool(np.max(np.abs(sec.hh - base)) <= 1e-10)
    _verdict(
        5,
        min_mixed >= -1e-12 and radial_exact and t0_ok,
        f"mixed planes >= {min_mixed:.1e} (never negative), radial mixed plane "
        f"exactly zero, horizontal table at t=0 equals the base table",
    )


def test_criterion_6_scalar_specials():
    worst = 0.0
    all_plus_negative = True
    for n in (2, 3):
        M = euclidean(n)
        for which, fam_name in (("plus", "exp+"), ("minus", "exp-")):
            fam = preset(fam_name)
            for v_sq in (0.0, 1.0, 4.0, 6.0):
                v = np.zeros(n)
                v[0] = math.sqrt(v_sq)
                fp = adapted_frame(M, np.zeros(n), v)
                general = tm_scalar(M, fam, fp)
                special = scalar_exp_specials(0.0, n, v_sq, which)
                worst = max(worst, abs(general - special))
                if which == "plus":
                    all_plus_negative &= special < 0.0
    threshold = minus_exp_flat_threshold(3)
    residual = abs(scalar_exp_specials(0.0, 3, threshold, "minus"))
    bracketed = (
        scalar_exp_specials(0.0, 3, threshold - 1e-6, "minus") > 0.0
        and scalar_exp_specials(0.0, 3, threshold + 1e-6, "minus") < 0.0
    )
    _verdict(
        6,
        worst <= 1e-9
        and residual <= 1e-9
        and bracketed
        and all_plus_negative
        and abs(threshold - (2.0 + math.sqrt(13.0))) < 1e-12,
        f"general scalar matches the exponential closed forms (worst {worst:.1e}); "
        f"minus-exponential sign change at |v|^2 = {threshold:.6f} with residual "
        f"{residual:.1e}; plus-exponential negative everywhere sampled",
    )


def test_criterion_7_constant_curvature_adjudication():
    M = sphere(2)
    q = np.array([0.9, 0.3])
    g = M.metric(q)
    d = np.array([0.3, 0.7])
    v = d / math.sqrt(d @ g @ d)
    fam = preset("sasaki")
    fp = adapted_frame(M, q, v)

    # general theorem mixed planes vs oracle sectional
    cfg = OracleConfig(tol_abs=ABS_TOL, tol_rel=REL_TOL)
    rep = next(compare(M, fam, [q], [v], cfg))
    assert rep.passed
    sec = tm_sectional(M, fam, fp)
    orc, _ = numeric_tm_curvature(M, fam, fp)
    gd = np.diag(frame_gram(M, fam, fp))
    mixed_dev = 0.0
    for i in range(2):
        for j in range(2):
            k_oracle = orc[i, 2 + j, 2 + j, i] / (gd[i] * gd[2 + j])
            mixed_dev = max(mixed_dev, abs(sec.hv[i, j] - k_oracle))
    general_matches = mixed_dev <= ABS_TOL

    # and it is the space-form literal, whose aligned mixed plane is flat
    hh, hv = space_form_sectional(1.0, float(fam.jets(fp.t**2).alpha), fp.t, 2)
    literal_dev = max(float(np.max(np.abs(sec.hh - hh))), float(np.max(np.abs(sec.hv - hv))))
    literal_matches = literal_dev <= 1e-13 and sec.hv[0, 0] == 0.0
    _verdict(
        7,
        general_matches and literal_matches,
        f"general mixed-plane formula matches the oracle (dev {mixed_dev:.1e}) "
        f"and the constant-curvature literal (dev {literal_dev:.1e}); the aligned "
        f"mixed plane is flat",
    )


def test_criterion_8_ricci():
    M = euclidean(3)
    fp = adapted_frame(M, np.zeros(3), np.array([0.7, -0.2, 0.4]))
    flat_ok = np.max(np.abs(tm_ricci(M, preset("sasaki"), fp))) <= 1e-9

    M2 = sphere(2)
    q = np.array([0.9, 0.3])
    g = M2.metric(q)
    d = np.array([0.3, 0.7])
    v = d / math.sqrt(d @ g @ d)
    fp2 = adapted_frame(M2, q, v)
    fam = preset("sasaki")
    closed = tm_ricci(M2, fam, fp2)
    orc, _ = numeric_tm_curvature(M2, fam, fp2)
    gd = np.diag(frame_gram(M2, fam, fp2))
    oracle_ricci = np.einsum("accb,c->ab", orc, 1.0 / gd)
    dev = float(np.max(np.abs(closed - oracle_ricci)))
    _verdict(
        8,
        flat_ok and dev <= 1e-4,
        f"flat+Sasaki Ricci vanishes; sphere+Sasaki closed-form Ricci matches "
        f"the oracle trace within {dev:.1e} <= 1e-4",
    )


def test_criterion_9_determinism(tmp_path):
    args_template = [
        "verify",
        "--manifold",
        "sphere",
        "--dim",
        "2",
        "--family",
        "exp-",
        "--grid",
        '{"base_points": [[0.9, 0.3]], "v_norms": [0.0, 1.0]}',
    ]
    payloads = []
    for idx in (0, 1):
        out = tmp_path / f"run{idx}.json"
        code = cli_main(args_template + ["--out", str(out)])
        assert code == 0
        payloads.append(out.read_bytes())
    identical = payloads[0] == payloads[1]
    _verdict(
        9,
        identical,
        f"two consecutive verify runs produced byte-identical JSON "
        f"({len(payloads[0])} bytes)",
    )
