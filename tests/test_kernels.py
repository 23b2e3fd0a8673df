"""The tensor contractions of the verify path, written as matrix products,
against their einsum definitions: Levi-Civita, Riemann, the Gamma
corrections of nabla R and the bundle metric G.  The products sum in
another order, so they agree within a relative 1e-13, not bit for bit."""

import numpy as np
import pytest

from tbcurv.basemanifold import ChartManifold, _slot_corrections, hyperbolic
from tbcurv.bundlemetric import induced_metric
from tbcurv.metricfamily import preset
from tbcurv.numdiff import levi_civita, riemann_from_christoffels

RTOL = 1e-13
STACKS = [(), (3,), (2, 3)]


def _agree(new, reference):
    new, reference = np.asarray(new), np.asarray(reference)
    assert new.shape == reference.shape
    scale = np.max(np.abs(reference))
    assert np.max(np.abs(new - reference)) <= RTOL * scale


def _spd(rng, lead, dim):
    a = rng.normal(size=lead + (dim, dim))
    g = a @ np.swapaxes(a, -1, -2) + dim * np.eye(dim)
    return 0.5 * (g + np.swapaxes(g, -1, -2))


def _metric_partials(rng, lead, dim):
    """dg symmetric in its metric axes, d2g also in its derivative axes, as
    finite differences of a symmetric metric give them."""
    dg = rng.normal(size=lead + (dim,) * 3)
    dg = dg + np.swapaxes(dg, -1, -2)
    d2g = rng.normal(size=lead + (dim,) * 4)
    d2g = d2g + np.swapaxes(d2g, -1, -2)
    return dg, d2g + np.swapaxes(d2g, -4, -3)


def levi_civita_reference(g, dg, d2g):
    ginv = np.linalg.inv(g)
    s = np.swapaxes(dg, -3, -2) + np.swapaxes(dg, -3, -1) - dg
    gamma = 0.5 * np.einsum("...ad,...dbc->...abc", ginv, s)
    dginv = -np.einsum("...ae,...pef,...fd->...pad", ginv, dg, ginv)
    ds = np.swapaxes(d2g, -3, -2) + np.swapaxes(d2g, -3, -1) - d2g
    dgamma = 0.5 * (
        np.einsum("...pad,...dbc->...pabc", dginv, s)
        + np.einsum("...ad,...pdbc->...pabc", ginv, ds)
    )
    return gamma, dgamma


def riemann_reference(g, gamma, dgamma):
    r = (
        np.swapaxes(dgamma, -4, -3)
        - np.moveaxis(dgamma, -4, -2)
        + np.einsum("...aim,...mjk->...aijk", gamma, gamma)
        - np.einsum("...ajm,...mik->...aijk", gamma, gamma)
    )
    return np.einsum("...la,...aijk->...ijkl", g, r)


def slot_corrections_reference(gamma, rlow):
    return (
        np.einsum("...mpa,...mbcd->...pabcd", gamma, rlow)
        + np.einsum("...mpb,...amcd->...pabcd", gamma, rlow)
        + np.einsum("...mpc,...abmd->...pabcd", gamma, rlow)
        + np.einsum("...mpd,...abcm->...pabcd", gamma, rlow)
    )


def induced_metric_reference(M, fam, x, v):
    """G(A, B) = g(pi_* A, pi_* B) + alpha g(KA, KB) + beta g(KA, v) g(KB, v)
    on the coordinate vectors A, B, with K A = A_v + Gamma(v, A_x)."""
    n = M.dim
    g, gamma, _ = M.connection(x, second=False)
    t_sq = np.einsum("...a,...ab,...b->...", v, g, v)
    jets = fam.jets(t_sq)
    alpha, beta = jets.alpha[..., None, None], jets.beta[..., None, None]
    basis = np.eye(2 * n)
    hor = basis[:, :n]  # pi_* of each coordinate vector, as rows
    ver = basis[:, n:] + np.einsum("...abc,...b,ic->...ia", gamma, v, hor)
    gv = np.einsum("...ab,...b->...a", g, v)
    kv = np.einsum("...ia,...a->...i", ver, gv)
    return (
        np.einsum("ia,...ab,jb->...ij", hor, g, hor)
        + alpha * np.einsum("...ia,...ab,...jb->...ij", ver, g, ver)
        + beta * kv[..., :, None] * kv[..., None, :]
    )


@pytest.mark.parametrize("lead", STACKS)
@pytest.mark.parametrize("dim", range(2, 11))
def test_levi_civita_and_riemann_equal_their_einsum_forms(dim, lead):
    rng = np.random.default_rng(dim * 10 + len(lead))
    g = _spd(rng, lead, dim)
    dg, d2g = _metric_partials(rng, lead, dim)
    gamma, dgamma = levi_civita(g, dg, d2g)
    gamma_ref, dgamma_ref = levi_civita_reference(g, dg, d2g)
    _agree(gamma, gamma_ref)
    _agree(dgamma, dgamma_ref)
    assert levi_civita(g, dg)[1] is None
    _agree(levi_civita(g, dg)[0], gamma_ref)
    # on its own inputs, so that the Riemann check does not inherit the
    # Levi-Civita difference
    _agree(riemann_from_christoffels(g, gamma_ref, dgamma_ref),
           riemann_reference(g, gamma_ref, dgamma_ref))


@pytest.mark.parametrize("lead", STACKS)
@pytest.mark.parametrize("dim", range(2, 11))
def test_slot_corrections_equal_their_einsum_form(dim, lead):
    # Gamma and R without their symmetries: every slot is its own product
    rng = np.random.default_rng(dim * 10 + len(lead))
    gamma = rng.normal(size=lead + (dim,) * 3)
    rlow = rng.normal(size=lead + (dim,) * 4)
    _agree(_slot_corrections(gamma, rlow), slot_corrections_reference(gamma, rlow))


def _twisted_chart(n):
    """An analytic chart whose metric is not conformally flat and whose
    connection is not symmetric in its lower indices: G must follow its
    definition, not a symmetry of Gamma."""
    rng = np.random.default_rng(n)
    base, tilt = _spd(rng, (), n), 0.1 * rng.normal(size=(n, n, n))
    skew = rng.normal(size=(n, n, n))

    def metric(x):
        a = np.eye(n) + np.einsum("...i,ijk->...jk", x, tilt)
        return a @ base @ np.swapaxes(a, -1, -2)

    def christoffels(x):
        return skew * (1.0 + np.sum(x, axis=-1))[..., None, None, None]

    def jacobian(x):
        return np.zeros(x.shape[:-1] + (n,) * 4)

    return ChartManifold(n, metric, -np.ones(n), np.ones(n), christoffels, jacobian)


@pytest.mark.parametrize("lead", STACKS)
@pytest.mark.parametrize("chart", ["hyperbolic", "twisted"])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_induced_metric_equals_its_componentwise_definition(n, chart, lead):
    M = hyperbolic(n) if chart == "hyperbolic" else _twisted_chart(n)
    rng = np.random.default_rng(n)
    x = rng.uniform(-0.1, 0.1, size=lead + (n,))
    v = rng.normal(scale=0.4, size=lead + (n,))
    for name in ("sasaki", "cheeger-gromoll", "exp+"):
        fam = preset(name)
        G, _ = induced_metric(M, fam, x, v)
        _agree(G, induced_metric_reference(M, fam, x, v))
        assert np.array_equal(G, np.swapaxes(G, -1, -2))
