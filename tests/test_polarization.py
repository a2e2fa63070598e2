import numpy as np
import pytest

from photon_angmom.grid import GridSpec, build_grid
from photon_angmom.polarization import eps_minus, eps_plus, helicity_basis


def _directions(seed=7, n=500):
    rng = np.random.default_rng(seed)
    d = rng.standard_normal((n, 3))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    # keep away from the excluded south pole
    return d[d[:, 2] > -0.999]


def test_north_pole_value():
    ep = eps_plus(np.array([0.0, 0.0, 1.0]))
    np.testing.assert_allclose(ep, np.array([1.0, 1j, 0.0]) / np.sqrt(2), atol=1e-15)


def test_transversality_and_orthonormality():
    d = _directions()
    ep = eps_plus(d)
    em = eps_minus(d)
    for e in (ep, em):
        np.testing.assert_allclose(
            np.einsum("nc,nc->n", d, e), 0.0, atol=1e-14
        )
        np.testing.assert_allclose(
            np.einsum("nc,nc->n", np.conj(e), e), 1.0, atol=1e-14
        )
    np.testing.assert_allclose(
        np.einsum("nc,nc->n", np.conj(ep), em), 0.0, atol=1e-14
    )


def test_helicity_eigenvector_relation():
    # n x eps_a = -i a eps_a
    d = _directions(seed=11)
    ep, em = helicity_basis(d)
    np.testing.assert_allclose(np.cross(d, ep), -1j * ep, atol=1e-14)
    np.testing.assert_allclose(np.cross(d, em), 1j * em, atol=1e-14)


def test_triad_completeness():
    # eps_plus x eps_minus = n
    d = _directions(seed=3)
    ep, em = helicity_basis(d)
    np.testing.assert_allclose(np.cross(ep, em), d.astype(complex), atol=1e-14)


def test_parity_relation():
    # eps_a(-n) = i a e^{2 i a phi} eps_{-a}(n)
    d = _directions(seed=5)
    keep = np.abs(d[:, 2]) < 0.999  # -n must also avoid the poles' branch
    d = d[keep]
    phi = np.arctan2(d[:, 1], d[:, 0])
    ep_m = eps_plus(-d)
    em_m = eps_minus(-d)
    np.testing.assert_allclose(
        ep_m, 1j * np.exp(2j * phi)[:, None] * eps_minus(d), atol=1e-13
    )
    np.testing.assert_allclose(
        em_m, -1j * np.exp(-2j * phi)[:, None] * eps_plus(d), atol=1e-13
    )


def test_south_pole_rejected():
    with pytest.raises(ValueError):
        eps_plus(np.array([0.0, 0.0, -1.0]))
    with pytest.raises(ValueError):
        eps_plus(np.array([0.0, 0.0, 0.0]))


def test_single_direction_shape():
    e = eps_plus(np.array([1.0, 0.0, 0.0]))
    assert e.shape == (3,)


def test_norm_invariance():
    # basis depends only on direction, not magnitude
    d = np.array([0.3, -0.4, 0.7])
    np.testing.assert_allclose(eps_plus(d), eps_plus(5.0 * d), atol=1e-15)


def test_grid_nodes_avoid_poles():
    g = build_grid(GridSpec(n_k=2, k_min=0.5, k_max=1.0, n_theta=64, n_phi=8))
    ep, em = helicity_basis(g.khat)
    assert ep.shape == (g.n_nodes, 3)
    np.testing.assert_allclose(
        np.einsum("nc,nc->n", g.khat, ep), 0.0, atol=1e-13
    )
    np.testing.assert_allclose(
        np.einsum("nc,nc->n", np.conj(em), em), 1.0, atol=1e-13
    )

