import numpy as np
import pytest
from scipy.integrate import quad

from photon_angmom.grid import (
    GridSpec,
    angular_integrate,
    build_grid,
    gauss_legendre,
    integrate,
)
from photon_angmom.operators import expansion_inner
from photon_angmom.vsh import VshExpansion
from photon_angmom.wavefunction import inner_product, random_state


@pytest.fixture(scope="module")
def grid():
    return build_grid(GridSpec(n_k=24, k_min=0.2, k_max=3.0, n_theta=20, n_phi=24))


def test_spec_validation():
    with pytest.raises(ValueError):
        GridSpec(n_k=0, k_min=0.1, k_max=1.0, n_theta=4, n_phi=8)
    with pytest.raises(ValueError):
        GridSpec(n_k=4, k_min=0.0, k_max=1.0, n_theta=4, n_phi=8)
    with pytest.raises(ValueError):
        GridSpec(n_k=4, k_min=2.0, k_max=1.0, n_theta=4, n_phi=8)
    with pytest.raises(ValueError):
        GridSpec(n_k=4, k_min=0.1, k_max=1.0, n_theta=1, n_phi=8)
    with pytest.raises(ValueError):
        GridSpec(n_k=4, k_min=0.1, k_max=1.0, n_theta=4, n_phi=3)


def test_spec_roundtrip():
    spec = GridSpec(n_k=8, k_min=0.5, k_max=2.5, n_theta=6, n_phi=12)
    assert GridSpec.from_dict(spec.to_dict()) == spec
    # an integral float is an integer; a fraction is not
    assert GridSpec.from_dict({**spec.to_dict(), "n_k": 8.0}) == spec
    with pytest.raises(ValueError, match="'n_k'"):
        GridSpec.from_dict({**spec.to_dict(), "n_k": 8.5})
    with pytest.raises(KeyError):
        GridSpec.from_dict({"n_k": 8})


def test_spec_constructor_shares_the_config_checks():
    # the library constructor runs the same typed coercion as from_dict
    with pytest.raises(ValueError, match="'k_max'"):
        GridSpec(n_k=8, k_min=0.5, k_max=float("inf"), n_theta=6, n_phi=12)


def test_node_arrays_match_meshgrid_bit_for_bit(grid):
    # the node arrays are formed on first read from the per-axis nodes
    K, TH, PH = np.meshgrid(grid.k_nodes, grid.theta_nodes, grid.phi_nodes, indexing="ij")
    k, theta, phi = K.ravel(), TH.ravel(), PH.ravel()
    weights = (grid.radial_weights[:, None, None] * grid.x_weights[None, :, None]
               * np.full(grid.spec.n_phi, 2.0 * np.pi / grid.spec.n_phi)[None, None, :])
    st = np.sin(theta)
    khat = np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)], axis=1)
    want = {"k": k, "theta": theta, "phi": phi, "weights": weights.ravel(),
            "khat": khat, "kvec": k[:, None] * khat}
    for name, value in want.items():
        got = getattr(grid, name)
        assert got.shape == value.shape and got.tobytes() == value.tobytes(), name
        assert getattr(grid, name) is got, name


def test_node_order(grid):
    # radial-major order: index = (ik*n_theta + ith)*n_phi + iph
    spec = grid.spec
    ik, ith, iph = 5, 3, 7
    idx = (ik * spec.n_theta + ith) * spec.n_phi + iph
    assert grid.k[idx] == grid.k_nodes[ik]
    assert grid.theta[idx] == grid.theta_nodes[ith]
    assert grid.phi[idx] == grid.phi_nodes[iph]


def test_gauss_legendre_nodes_match_roots():
    # two-point rule on [-1, 1] must sit at the P2 roots +-1/sqrt(3)
    g = build_grid(GridSpec(n_k=2, k_min=1.0, k_max=2.0, n_theta=2, n_phi=4))
    np.testing.assert_allclose(
        np.sort(g.x_nodes), [-1.0 / np.sqrt(3.0), 1.0 / np.sqrt(3.0)], atol=1e-15
    )
    np.testing.assert_allclose(g.x_weights, [1.0, 1.0], atol=1e-15)


@pytest.mark.parametrize("n", [1, 2, 12, 56, 512])
def test_shared_rule_is_leggauss_bit_for_bit(n):
    for got, want in zip(gauss_legendre(n), np.polynomial.legendre.leggauss(n)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert not got.flags.writeable


def test_grid_polar_rule_is_the_shared_read_only_rule():
    grid = build_grid(GridSpec(n_k=2, k_min=0.5, k_max=1.5, n_theta=9, n_phi=4))
    x, w = gauss_legendre(grid.spec.n_theta)
    assert grid.x_nodes is x and grid.x_weights is w
    for name in ("x_nodes", "x_weights"):
        with pytest.raises(ValueError):
            getattr(grid, name)[0] = 0.0


def test_grids_of_one_n_theta_compute_the_rule_once(monkeypatch):
    # the rule of each order is computed once per process, whatever asks
    calls = []
    leggauss = np.polynomial.legendre.leggauss

    def counted(n):
        calls.append(n)
        return leggauss(n)
    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counted)
    gauss_legendre.cache_clear()
    try:
        spec = GridSpec(n_k=3, k_min=0.5, k_max=1.5, n_theta=17, n_phi=8)
        a, b = build_grid(spec), build_grid(spec)
    finally:
        gauss_legendre.cache_clear()
    assert sorted(calls) == [3, 17]
    assert a.x_nodes is b.x_nodes
    assert a.k_nodes.tobytes() == b.k_nodes.tobytes()


def test_total_measure(grid):
    spec = grid.spec
    vol = 4.0 * np.pi * (spec.k_max**3 - spec.k_min**3) / 3.0
    np.testing.assert_allclose(grid.weights.sum(), vol, rtol=1e-13)


def test_khat_unit_and_consistent(grid):
    np.testing.assert_allclose(
        np.linalg.norm(grid.khat, axis=1), 1.0, atol=1e-14
    )
    np.testing.assert_allclose(
        grid.kvec, grid.k[:, None] * grid.khat, atol=1e-14
    )


def test_radial_gaussian_against_quad(grid):
    # int d^3k e^{-k^2} over the shell, isotropic integrand
    val = integrate(grid, np.exp(-grid.k**2)).real
    ref, _ = quad(lambda k: 4.0 * np.pi * k**2 * np.exp(-(k**2)), 0.2, 3.0)
    np.testing.assert_allclose(val, ref, rtol=1e-12)


def test_polar_polynomial_exactness(grid):
    # GL with n_theta nodes is exact for cos(theta)^p up to p = 2 n_theta - 1
    for p in (2, 7, 16):
        val = integrate(grid, np.cos(grid.theta) ** p).real
        x_int = (1.0 - (-1.0) ** (p + 1)) / (p + 1)  # int_{-1}^{1} x^p dx
        k_int = (grid.spec.k_max**3 - grid.spec.k_min**3) / 3.0
        np.testing.assert_allclose(val, 2.0 * np.pi * k_int * x_int, atol=1e-12)


def test_azimuthal_orthogonality(grid):
    # uniform rule integrates e^{i m phi} exactly for |m| < n_phi
    for m in (1, 5, 23):
        val = integrate(grid, np.exp(1j * m * grid.phi))
        assert abs(val) < 1e-10
    val0 = integrate(grid, np.exp(0j * grid.phi)).real
    vol = 4.0 * np.pi * (grid.spec.k_max**3 - grid.spec.k_min**3) / 3.0
    np.testing.assert_allclose(val0, vol, rtol=1e-13)


def test_angular_integrate_shapes(grid):
    ones = np.ones(grid.n_nodes)
    per_shell = angular_integrate(grid, ones)
    assert per_shell.shape == (grid.spec.n_k,)
    np.testing.assert_allclose(per_shell, 4.0 * np.pi, rtol=1e-13)

    vec = np.ones((grid.n_nodes, 3), dtype=complex)
    per_shell_vec = angular_integrate(grid, vec)
    assert per_shell_vec.shape == (grid.spec.n_k, 3)
    np.testing.assert_allclose(per_shell_vec.real, 4.0 * np.pi, rtol=1e-13)


def test_integrate_rejects_wrong_length(grid):
    with pytest.raises(ValueError):
        integrate(grid, np.ones(7))


def test_node_fields_reshape(grid):
    flat = np.arange(grid.n_nodes, dtype=float)
    cube = grid.node_fields(flat)
    assert cube.shape == grid.shape
    spec = grid.spec
    assert cube[2, 1, 3] == flat[(2 * spec.n_theta + 1) * spec.n_phi + 3]


def _axis_weight_products(grid):
    """The weights of each split, written out as products of the axis
    weights (radial, polar, azimuthal), in the order they are formed."""
    n_phi = grid.spec.n_phi
    r = grid.radial_weights[:, None, None]
    x = grid.x_weights[:, None]
    phi = np.full(n_phi, 2.0 * np.pi / n_phi)
    return {0: (1.0, (r * x) * phi), 1: (r, x * phi), 2: (r * x, phi),
            3: ((r * x) * phi, 1.0)}


def test_grid_weights_are_the_axis_products_bit_for_bit():
    grid = build_grid(GridSpec(n_k=5, k_min=0.3, k_max=1.7, n_theta=7, n_phi=9))
    assert "angular_weights" not in vars(grid) and "weights" not in vars(grid)
    n_phi = grid.spec.n_phi
    full = (grid.radial_weights[:, None, None] * grid.x_weights[None, :, None]
            * np.full(n_phi, 2.0 * np.pi / n_phi)[None, None, :]).ravel()
    solid = np.repeat(grid.x_weights, n_phi) * (2.0 * np.pi / n_phi)
    for got, want in ((grid.weights, full), (grid.angular_weights, solid)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert not got.flags.writeable
    for split, pair in _axis_weight_products(grid).items():
        for got, want in zip(grid.factor_weights(split), pair):
            assert not got.flags.writeable
            want = np.asarray(want)
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), split
        assert grid.factor_weights(split) is grid.factor_weights(split)
    assert grid.phi_weight == 2.0 * np.pi / n_phi


@pytest.mark.parametrize("first", [0, 3])
def test_all_axes_split_serves_the_split_0_product(first):
    # split 3 puts every axis before the split, so its first factor is
    # split 0's product: one array, whichever split is read first
    grid = build_grid(GridSpec(n_k=12, k_min=0.5, k_max=1.5, n_theta=64, n_phi=64))
    grid.factor_weights(first)
    whole, unit = grid.factor_weights(3)
    assert np.shares_memory(whole, grid.factor_weights(0)[1])
    assert np.shares_memory(whole, grid.weights)
    assert unit.shape == () and unit == 1.0 and not unit.flags.writeable


def _combine(op, grid, other):
    """op on a pair of states or expansions, the first on `grid`, the
    second on `other`."""
    u, w = random_state(grid, seed=1), random_state(other, seed=2)
    rad = np.ones(grid.spec.n_k)
    e = VshExpansion.single(grid, 4, 1, 2, 1, rad)
    f = VshExpansion.single(other, 4, 2, 3, -1, rad)
    return {
        "u + w": lambda: u + w,
        "u - w": lambda: u - w,
        "inner_product": lambda: inner_product(u, w),
        "expansion_inner": lambda: expansion_inner(e, f),
        "e + f": lambda: e + f,
    }[op]()


@pytest.mark.parametrize("op", ["u + w", "u - w", "inner_product", "expansion_inner", "e + f"])
def test_one_identity_rule_for_states_and_expansions(op):
    # the same grid, or a twin of equal spec, is accepted; a grid of
    # another spec is refused with the one message of `require_same`
    spec = GridSpec(n_k=3, k_min=0.5, k_max=1.5, n_theta=6, n_phi=10)
    grid = build_grid(spec)
    _combine(op, grid, grid)
    _combine(op, grid, build_grid(spec))
    other = build_grid(GridSpec(n_k=3, k_min=0.5, k_max=1.6, n_theta=6, n_phi=10))
    with pytest.raises(ValueError) as err:
        _combine(op, grid, other)
    assert str(err.value) == f"grids are not compatible: {other.spec} is not {spec}"


@pytest.mark.parametrize("op", [lambda e, f: e + f, expansion_inner])
def test_one_l_max_rule_for_expansions(op):
    grid = build_grid(GridSpec(n_k=3, k_min=0.5, k_max=1.5, n_theta=6, n_phi=10))
    with pytest.raises(ValueError) as err:
        op(VshExpansion.zero(grid, 4), VshExpansion.zero(grid, 3))
    assert str(err.value) == "expansions are not compatible: l_max 3 is not 4"
