import numpy as np
import pytest

from oracles import cartesian_inner, khat_dot
from photon_angmom.grid import GridSpec, build_grid
from photon_angmom.polarization import helicity_basis
from photon_angmom.wavefunction import (
    WaveFunction,
    inner_product,
    norm,
    normalize,
    random_state,
    transverse_residual,
)


@pytest.fixture(scope="module")
def grid():
    return build_grid(GridSpec(n_k=10, k_min=0.3, k_max=2.0, n_theta=12, n_phi=16))


def test_shape_check(grid):
    with pytest.raises(ValueError):
        WaveFunction(grid, np.zeros((5, 3), dtype=complex))


def test_longitudinal_rejected(grid):
    vals = grid.khat.astype(complex)  # purely longitudinal
    with pytest.raises(ValueError):
        WaveFunction(grid, vals)
    # check=False admits it for intermediate algebra
    w = WaveFunction(grid, vals, check=False)
    assert transverse_residual(w) > 0.9


def test_random_state_normalized(grid):
    v = random_state(grid, seed=42)
    np.testing.assert_allclose(norm(v), 1.0, rtol=1e-13)
    assert transverse_residual(v) < 1e-13


def test_random_state_deterministic(grid):
    a = random_state(grid, seed=5)
    b = random_state(grid, seed=5)
    np.testing.assert_array_equal(a.values, b.values)


def test_inner_product_conjugate_symmetry(grid):
    u = random_state(grid, seed=1)
    v = random_state(grid, seed=2)
    np.testing.assert_allclose(
        inner_product(u, v), np.conj(inner_product(v, u)), atol=1e-14
    )


def test_inner_product_matches_helicity_sum(grid):
    # the frame is unitary, so the sum over the rows c equals the Cartesian
    # int conj(u) . v, here on states with longitudinal rows
    u = random_state(grid, seed=3)
    u = u + WaveFunction(grid, grid.khat * u.values[:, 1:2], check=False)
    v = random_state(grid, seed=4)
    v = v + WaveFunction(grid, grid.khat * v.values[:, :1], check=False)
    ref = cartesian_inner(grid, u.values, v.values)
    np.testing.assert_allclose(inner_product(u, v), ref, rtol=0, atol=1e-14)
    np.testing.assert_allclose(norm(u) ** 2, cartesian_inner(grid, u.values, u.values).real,
                               rtol=1e-14)


def test_projection_recovers_transverse_part(grid):
    v = random_state(grid, seed=6)
    polluted = WaveFunction(
        grid, v.values + 0.5 * grid.khat.astype(complex), check=False
    )
    cleaned = polluted.project_transverse()
    np.testing.assert_allclose(cleaned.values, v.values, atol=1e-13)


def test_helicity_components_roundtrip(grid):
    v = random_state(grid, seed=8)
    cp, cm, c0 = v.c.reshape(3, -1)
    assert not c0.any()
    ep, em = helicity_basis(grid.khat)
    rebuilt = cp[:, None] * ep + cm[:, None] * em
    np.testing.assert_allclose(rebuilt, v.values, atol=1e-14)
    # and back through the one forward conversion
    np.testing.assert_allclose(WaveFunction(grid, v.values).c, v.c, rtol=0, atol=1e-14)


def test_transverse_residual_matches_cartesian_oracle(grid):
    # max |khat . v| over the largest node amplitude max ||v(n)||
    v = random_state(grid, seed=12)
    polluted = v + WaveFunction(grid, 1e-3 * grid.khat * v.values[:, 2:], check=False)
    want = np.abs(khat_dot(polluted)).max() / np.linalg.norm(polluted.values, axis=1).max()
    np.testing.assert_allclose(transverse_residual(polluted), want, rtol=1e-13)
    assert np.abs(khat_dot(v)).max() <= 1e-15 * np.abs(v.values).max()
    assert transverse_residual(v) == 0.0


def test_arithmetic(grid):
    u = random_state(grid, seed=9)
    v = random_state(grid, seed=10)
    s = u + v
    d = s - v
    np.testing.assert_allclose(d.values, u.values, atol=1e-14)
    np.testing.assert_allclose((2.0 * u).values, 2.0 * u.values, atol=1e-15)


def test_normalize_zero_rejected(grid):
    z = WaveFunction(grid, np.zeros((grid.n_nodes, 3), dtype=complex), check=False)
    with pytest.raises(ValueError):
        normalize(z)


def test_grid_mismatch_rejected(grid):
    other = build_grid(GridSpec(n_k=4, k_min=0.3, k_max=2.0, n_theta=6, n_phi=8))
    u = random_state(grid, seed=11)
    w = random_state(other, seed=11)
    with pytest.raises(ValueError):
        inner_product(u, w)
