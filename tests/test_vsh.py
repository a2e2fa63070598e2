import json
import tracemalloc

import numpy as np
import pytest
from oracles import order_rows, per_order_analyze, per_order_synthesize
from scipy.special import sph_harm_y

from photon_angmom import vsh
from photon_angmom.grid import GridSpec, build_grid
from photon_angmom.modes import ModeSpec, build_mode
from photon_angmom.operators import apply_J, azimuthal_window, observable_report
from photon_angmom.vsh import (
    VshExpansion,
    analyze,
    legendre_normalized,
    scalar_ylm,
    synthesize,
    vsh_basis,
    vsh_pair,
)
from photon_angmom.wavefunction import WaveFunction, norm, random_state


@pytest.fixture(scope="module")
def grid():
    # resolves l_max = 10 with headroom
    return build_grid(GridSpec(n_k=6, k_min=0.4, k_max=1.6, n_theta=16, n_phi=25))


def _random_angles(seed, n=200):
    rng = np.random.default_rng(seed)
    theta = np.arccos(rng.uniform(-0.999, 0.999, n))
    phi = rng.uniform(0.0, 2.0 * np.pi, n)
    return theta, phi


def test_legendre_against_scipy():
    theta, _ = _random_angles(0)
    table = legendre_normalized(12, np.cos(theta))
    for l, m in [(0, 0), (1, 0), (1, 1), (5, 3), (12, 12), (9, 0), (11, 7)]:
        ref = sph_harm_y(l, m, theta, 0.0)
        np.testing.assert_allclose(table[l, m], ref.real, atol=1e-13)


def test_legendre_orthogonality():
    # int P_lm P_l'm dx = 1/(2 pi) delta_ll' in this normalization
    x, w = np.polynomial.legendre.leggauss(40)
    table = legendre_normalized(14, x)
    for m in (0, 2, 5):
        for l in range(m, 15):
            for lp in range(m, 15):
                val = np.sum(w * table[l, m] * table[lp, m])
                ref = (1.0 if l == lp else 0.0) / (2.0 * np.pi)
                np.testing.assert_allclose(val, ref, atol=2e-14)


def test_legendre_order_cap_keeps_rows_and_refilled_grid_rows_are_bit_identical():
    x, _ = np.polynomial.legendre.leggauss(30)
    full = legendre_normalized(20, x)
    for m_max in (0, 1, 4, 19, 20, 25):
        capped = legendre_normalized(20, x, m_max)
        assert capped.shape == (21, min(m_max, 20) + 1, 30)
        assert np.array_equal(capped, full[:, : min(m_max, 20) + 1])
    # each fill of the grid's rows builds its own Legendre table, capped at
    # the orders it fills; the table refilled for a larger band and more
    # orders from a larger Legendre table keeps its rows, bit for bit
    g = build_grid(GridSpec(n_k=2, k_min=0.94, k_max=1.06, n_theta=256, n_phi=12))
    first = vsh._grid_rows(g, 10, -1, 1).copy()
    refilled = vsh._grid_rows(g, 97, -6, 6)
    assert refilled.shape == (13, 2, 98, 256)
    assert refilled[5:8, :, :11].tobytes() == first.tobytes()
    assert not hasattr(g, "legendre") and not hasattr(g, "_legendre")


def test_scalar_ylm_closed_forms():
    theta, phi = _random_angles(1)
    np.testing.assert_allclose(
        scalar_ylm(0, 0, theta, phi), np.full_like(theta, 1.0 / np.sqrt(4 * np.pi)),
        atol=1e-15,
    )
    np.testing.assert_allclose(
        scalar_ylm(1, 0, theta, phi), np.sqrt(3 / (4 * np.pi)) * np.cos(theta),
        atol=1e-14,
    )
    # Condon-Shortley: Y_{1,1} carries the minus sign
    np.testing.assert_allclose(
        scalar_ylm(1, 1, theta, phi),
        -np.sqrt(3 / (8 * np.pi)) * np.sin(theta) * np.exp(1j * phi),
        atol=1e-14,
    )
    np.testing.assert_allclose(
        scalar_ylm(1, -1, theta, phi),
        np.sqrt(3 / (8 * np.pi)) * np.sin(theta) * np.exp(-1j * phi),
        atol=1e-14,
    )


def test_scalar_ylm_against_scipy():
    theta, phi = _random_angles(2)
    for l, m in [(2, -2), (3, 2), (4, 0), (7, -5), (10, 10), (6, 1)]:
        np.testing.assert_allclose(
            scalar_ylm(l, m, theta, phi), sph_harm_y(l, m, theta, phi), atol=1e-13
        )


def test_scalar_ylm_rejects_bad_m():
    with pytest.raises(ValueError):
        scalar_ylm(2, 3, 0.5, 0.5)


def test_vsh_pair_closed_form_l1_m0():
    theta, phi = _random_angles(3)
    y1, y2 = vsh_pair(1, 0, theta, phi)
    amp = 1j * np.sqrt(3 / (8 * np.pi)) * np.sin(theta)
    ref = np.stack([-amp * np.sin(phi), amp * np.cos(phi), np.zeros_like(amp)], axis=-1)
    np.testing.assert_allclose(y1, ref, atol=1e-14)
    khat = np.stack(
        [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)],
        axis=-1,
    )
    np.testing.assert_allclose(y2, np.cross(khat, y1), atol=1e-14)


def test_vsh_transversality():
    theta, phi = _random_angles(4)
    khat = np.stack(
        [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)],
        axis=-1,
    )
    for l, m in [(1, 1), (3, -2), (5, 0), (8, 8), (6, -6)]:
        y1, y2 = vsh_pair(l, m, theta, phi)
        np.testing.assert_allclose(np.einsum("nc,nc->n", khat, y1), 0.0, atol=1e-13)
        np.testing.assert_allclose(np.einsum("nc,nc->n", khat, y2), 0.0, atol=1e-13)


def test_vsh_rejects_l0():
    with pytest.raises(ValueError):
        vsh_pair(0, 0, 0.5, 0.5)


def _basis_matrix(grid, l_cut):
    """All Y^(a)_lm with l <= l_cut sampled on the angular subgrid."""
    th = np.repeat(grid.theta_nodes, grid.spec.n_phi)
    ph = np.tile(grid.phi_nodes, grid.spec.n_theta)
    rows = []
    labels = []
    for a in (1, 2):
        for l in range(1, l_cut + 1):
            for m in range(-l, l + 1):
                y1, y2 = vsh_pair(l, m, th, ph)
                rows.append((y1 if a == 1 else y2).reshape(-1))
                labels.append((a, l, m))
    return np.array(rows), labels


def test_vsh_basis_is_vsh_pair_bit_for_bit():
    x, _ = np.polynomial.legendre.leggauss(12)
    theta = np.arccos(x)
    phi = 2.0 * np.pi * np.arange(20) / 20
    basis = vsh_basis(8, theta, phi)
    assert basis.shape == (80, 2, 12, 20, 3)
    th, ph = np.repeat(theta, 20), np.tile(phi, 12)
    for l in range(1, 9):
        for m in range(-l, l + 1):
            pair = basis[l * l - 1 + l + m]
            for got, want in zip(pair, vsh_pair(l, m, th, ph)):
                assert got.reshape(-1, 3).tobytes() == want.tobytes(), (l, m)


def test_orthonormality_up_to_l8():
    grid = build_grid(GridSpec(n_k=1, k_min=0.9, k_max=1.1, n_theta=12, n_phi=20))
    basis, _ = _basis_matrix(grid, 8)
    w3 = np.repeat(grid.angular_weights, 3)
    gram = (basis.conj() * w3[None, :]) @ basis.T
    dev = np.abs(gram - np.eye(len(basis))).max()
    assert dev < 1e-10


def test_analyze_single_basis_element(grid):
    th = grid.theta
    ph = grid.phi
    y1, y2 = vsh_pair(2, 1, th, ph)
    v = WaveFunction(grid, y1, check=False)
    e = analyze(v, l_max=6)
    np.testing.assert_allclose(e.coefficient(1, 2, 1), 1.0, atol=1e-12)
    total = np.abs(e.coeffs).sum()
    np.testing.assert_allclose(total, grid.spec.n_k, atol=1e-10)

    g = 1.0 + 0.5 * grid.k_nodes  # radial profile recovered per node
    vals = (g[:, None, None] * y2.reshape(grid.shape + (3,)).reshape(grid.spec.n_k, -1, 3)).reshape(-1, 3)
    v2 = WaveFunction(grid, vals, check=False)
    e2 = analyze(v2, l_max=6)
    np.testing.assert_allclose(e2.coefficient(2, 2, 1), g, atol=1e-12)


def test_round_trip_random_bandlimited(grid):
    rng = np.random.default_rng(17)
    e = VshExpansion.zero(grid, l_max=10)
    for a in (1, 2):
        for l in range(1, 11):
            for m in range(-l, l + 1):
                e.coeffs[a - 1, :, l, m + 10] = rng.standard_normal(
                    grid.spec.n_k
                ) + 1j * rng.standard_normal(grid.spec.n_k)
    v = synthesize(e)
    e_back = analyze(v, l_max=10)
    np.testing.assert_allclose(e_back.coeffs, e.coeffs, atol=1e-10)
    v_back = synthesize(e_back)
    np.testing.assert_allclose(v_back.values, v.values, atol=1e-10)


def test_parseval(grid):
    rng = np.random.default_rng(23)
    e = VshExpansion.zero(grid, l_max=5)
    e.coeffs[:] = rng.standard_normal(e.coeffs.shape) + 1j * rng.standard_normal(
        e.coeffs.shape
    )
    # zero out structural slots (|m| > l and l = 0)
    for l in range(6):
        for m in range(-5, 6):
            if l == 0 or abs(m) > l:
                e.coeffs[:, :, l, m + 5] = 0.0
    v = synthesize(e)
    np.testing.assert_allclose(norm(v) ** 2, e.norm_squared(), rtol=1e-12)


def test_windowed_analyze_matches_full(grid):
    rng = np.random.default_rng(29)
    e = VshExpansion.zero(grid, l_max=8)
    for l in range(2, 9):
        e.coeffs[0, :, l, 2 + 8] = rng.standard_normal(grid.spec.n_k)
        e.coeffs[1, :, l, 2 + 8] = rng.standard_normal(grid.spec.n_k)
    v = synthesize(e)
    full = analyze(v, l_max=8)
    windowed = analyze(v, l_max=8, m_window=(1, 3))
    for a in (1, 2):
        for l in range(1, 9):
            for m in (1, 2, 3):
                np.testing.assert_allclose(
                    windowed.coefficient(a, l, m),
                    full.coefficient(a, l, m),
                    atol=1e-12,
                )


def test_analyze_resolution_preconditions(grid):
    v = WaveFunction(grid, np.zeros((grid.n_nodes, 3)), check=False)
    with pytest.raises(ValueError):
        analyze(v, l_max=20)  # n_theta too small
    with pytest.raises(ValueError):
        analyze(v, l_max=13)  # n_phi too small for full window
    # windowed form lifts only the azimuthal requirement
    e = analyze(v, l_max=13, m_window=(-1, 1))
    assert e.l_max == 13


def test_expansion_arithmetic(grid):
    rad = np.ones(grid.spec.n_k)
    a = VshExpansion.single(grid, 6, 1, 3, 2, rad)
    b = VshExpansion.single(grid, 6, 2, 4, -1, rad)
    s = a + 2.0 * b
    np.testing.assert_allclose(s.coefficient(1, 3, 2), 1.0)
    np.testing.assert_allclose(s.coefficient(2, 4, -1), 2.0)
    d = s - a
    np.testing.assert_allclose(d.coefficient(1, 3, 2), 0.0, atol=1e-15)


def test_expansion_window_lies_within_l_max(grid):
    shape = (2, grid.spec.n_k, 4)
    VshExpansion(grid, 3, -3, 3, np.zeros(shape + (7,)))
    for m_min, m_max in ((-4, 0), (0, 4), (-4, 4), (2, 1)):
        with pytest.raises(ValueError, match="azimuthal window"):
            VshExpansion(grid, 3, m_min, m_max, np.zeros(shape + (max(m_max - m_min + 1, 0),)))
    with pytest.raises(ValueError, match="azimuthal window"):
        VshExpansion.zero(grid, 3, 2, 4)


def test_expansions_on_grids_of_one_spec_add(grid):
    # the rule of `expansion_inner` and of adding states: the same grid
    # object or a grid of equal spec
    twin = build_grid(grid.spec)
    rad = np.ones(grid.spec.n_k)
    a = VshExpansion.single(grid, 6, 1, 3, 2, rad)
    b = VshExpansion.single(twin, 6, 2, 4, -1, rad)
    for s in (a + b, b - a):
        np.testing.assert_array_equal(abs(s.coefficient(1, 3, 2)), 1.0)
        np.testing.assert_array_equal(s.coefficient(2, 4, -1), 1.0)
    other = build_grid(GridSpec(n_k=grid.spec.n_k, k_min=0.5, k_max=1.5, n_theta=12, n_phi=13))
    for bad in (VshExpansion.single(other, 6, 1, 3, 2, rad), VshExpansion.zero(grid, 5)):
        with pytest.raises(ValueError, match="not compatible"):
            a + bad


def test_to_rows_dump(grid):
    rad = np.linspace(1.0, 2.0, grid.spec.n_k)
    e = VshExpansion.single(grid, 4, 2, 3, -2, rad)
    rows = e.to_rows()
    assert len(rows) == 1
    row = rows[0]
    assert (row["a"], row["l"], row["m"]) == (2, 3, -2)
    np.testing.assert_allclose([c[0] for c in row["radial"]], rad)


# Oracle for the transforms: scipy's Y_lm and the ladder closed form of Y1,
# written out here so the reference shares no code with photon_angmom.vsh.


def _oracle_y1(l, m, theta, phi):
    """Y1_lm from the ladder closed form, c+- = sqrt(l(l+1) - m(m+-1)):

        x = (c+ Y_{l,m+1} + c- Y_{l,m-1}) / 2N
        y = (c+ Y_{l,m+1} - c- Y_{l,m-1}) / 2iN
        z = m Y_lm / N,  N = sqrt(l(l+1))
    """
    def ylm(mu):
        if abs(mu) > l:
            return np.zeros(theta.shape, dtype=complex)
        return sph_harm_y(l, mu, theta, phi)

    n = np.sqrt(l * (l + 1.0))
    up = np.sqrt(l * (l + 1.0) - m * (m + 1.0)) * ylm(m + 1)
    dn = np.sqrt(l * (l + 1.0) - m * (m - 1.0)) * ylm(m - 1)
    return np.stack([(up + dn) / (2 * n), (up - dn) / (2j * n), m * ylm(m) / n], axis=-1)


def _oracle_basis(grid, l_max, m_lo, m_hi):
    """{(a, l, m): Y^(a)_lm on the angular subgrid, shape (n_theta * n_phi, 3)}."""
    th = np.repeat(grid.theta_nodes, grid.spec.n_phi)
    ph = np.tile(grid.phi_nodes, grid.spec.n_theta)
    khat = np.stack([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)],
                    axis=-1)
    basis = {}
    for l in range(1, l_max + 1):
        for m in range(max(-l, m_lo), min(l, m_hi) + 1):
            y1 = _oracle_y1(l, m, th, ph)
            basis[(1, l, m)] = y1
            basis[(2, l, m)] = np.cross(khat, y1)
    return basis


def _oracle_sum(grid, coeffs, basis):
    """sum_(a,l,m) c_alm(k) Y^(a)_lm at every node, shape (n_nodes, 3)."""
    vals = sum(c[:, None, None] * basis[key][None] for key, c in coeffs.items())
    return vals.reshape(-1, 3)


def _random_coeffs(grid, basis, seed):
    rng = np.random.default_rng(seed)
    n_k = grid.spec.n_k
    return {key: rng.standard_normal(n_k) + 1j * rng.standard_normal(n_k)
            for key in basis}


def _assert_rel(got, ref, rtol=1e-12):
    err = np.abs(np.asarray(got) - np.asarray(ref)).max()
    assert err <= rtol * np.abs(ref).max(), err


def test_analyze_matches_direct_quadrature(grid):
    v = random_state(grid, seed=31)
    basis = _oracle_basis(grid, 10, -10, 10)
    e = analyze(v, l_max=10)
    vals = v.values.reshape(grid.spec.n_k, -1, 3)
    w = grid.angular_weights
    keys = sorted(basis)
    ref = np.array([np.einsum("ac,a,kac->k", np.conj(basis[key]), w, vals)
                    for key in keys])
    got = np.array([e.coefficient(*key) for key in keys])
    _assert_rel(got, ref)


@pytest.fixture(scope="module")
def coarse_grid():
    # n_phi = 4: the orders of an l_max = 4 expansion share FFT bins
    return build_grid(GridSpec(n_k=3, k_min=0.5, k_max=1.5, n_theta=6, n_phi=4))


def test_synthesize_sums_aliasing_orders(coarse_grid):
    basis = _oracle_basis(coarse_grid, 4, -4, 4)
    coeffs = _random_coeffs(coarse_grid, basis, seed=37)
    e = VshExpansion.zero(coarse_grid, l_max=4)
    for (a, l, m), c in coeffs.items():
        e.coeffs[a - 1, :, l, m + 4] = c
    _assert_rel(synthesize(e).values, _oracle_sum(coarse_grid, coeffs, basis))


def test_windowed_analyze_on_coarse_azimuthal_grid(coarse_grid):
    basis = _oracle_basis(coarse_grid, 4, 1, 2)
    coeffs = _random_coeffs(coarse_grid, basis, seed=41)
    vals = _oracle_sum(coarse_grid, coeffs, basis)
    v = WaveFunction(coarse_grid, vals, check=False)
    e = analyze(v, l_max=4, m_window=(1, 2))
    keys = sorted(coeffs)
    _assert_rel([e.coefficient(*key) for key in keys], [coeffs[key] for key in keys])


def test_vsh_pair_at_the_poles_matches_oracle():
    # theta = 0 and pi, where eps_plus as a function of the direction is
    # singular; Y1 and Y2 stay single valued there
    phi = np.linspace(0.0, 2.0 * np.pi, 7, endpoint=False) + 0.3
    for pole in (0.0, np.pi):
        theta = np.full_like(phi, pole)
        khat = np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
                         np.cos(theta)], axis=-1)
        for l in range(1, 6):
            for m in range(-l, l + 1):
                y1, y2 = vsh_pair(l, m, theta, phi)
                ref = _oracle_y1(l, m, theta, phi)
                np.testing.assert_allclose(y1, ref, rtol=0, atol=1e-13)
                np.testing.assert_allclose(y2, np.cross(khat, ref), rtol=0, atol=1e-13)


LG_GRID = GridSpec(n_k=4, k_min=0.94, k_max=1.06, n_theta=64, n_phi=12)
LG_MODE = ModeSpec(kind="vector_lg", m=2, w=-1, p=1, w0=25.0, k_fixed=1.0)


@pytest.mark.parametrize("state", ["random", "vector_lg"])
def test_analyze_ignores_longitudinal_content(grid, state):
    if state == "random":
        v, l_max = random_state(grid, seed=43), 10
    else:
        g = build_grid(LG_GRID)
        v, l_max = build_mode(LG_MODE, g), 5
    f = (0.7 + 0.4j * v.grid.k) * np.abs(v.values).max()
    polluted = WaveFunction(v.grid, v.values + f[:, None] * v.grid.khat, check=False)
    ref = analyze(v, l_max).coeffs
    _assert_rel(analyze(polluted, l_max).coeffs, ref)


@pytest.mark.parametrize("w", [1, -1])
@pytest.mark.parametrize("kind", ["j3_w_eigenstate", "sam_wavepacket"])
def test_helicity_eigenstate_coefficients_pair_up(grid, kind, w):
    # Y2 = khat x Y1 and khat x eps_h = -i h eps_h: a state with W = w has
    # a2 = i w a1 on every (l, m)
    if kind == "j3_w_eigenstate":
        spec = ModeSpec(kind=kind, m=2, w=w, radial_profile={"k0": 1.0, "sigma_k": 0.3},
                        theta_profile={"kind": "gaussian_in_theta", "theta0": 0.6,
                                       "sigma_theta": 0.4})
    else:
        spec = ModeSpec(kind=kind, w=w, s_direction=[0.3, 0.2, 1.0], kappa=4.0,
                        radial_profile={"k0": 1.0, "sigma_k": 0.3})
    a1, a2 = analyze(build_mode(spec, grid), l_max=10).coeffs
    _assert_rel(a2, 1j * w * a1)


# The kspace-sweep grids of the benchmark, each with the largest full
# window it resolves, and a packet at the wide end of its 12x64x64 family.
SWEEP = (
    (GridSpec(n_k=8, k_min=0.94, k_max=1.06, n_theta=256, n_phi=12), 5),
    (GridSpec(n_k=12, k_min=0.5, k_max=1.5, n_theta=32, n_phi=32), 15),
    (GridSpec(n_k=12, k_min=0.5, k_max=1.5, n_theta=64, n_phi=64), 31),
)
SWEEP_PACKET = ModeSpec(
    kind="sam_wavepacket", w=1, kappa=7.0,
    s_direction=[np.sin(0.25), 0.0, np.cos(0.25)],
    radial_profile={"k0": 1.0, "sigma_k": 0.1},
)


def _assert_grid_rows_are_built_rows(g, l_max, m_min, m_max):
    """The rows the grid serves for the orders m_min..m_max equal
    `_helicity_rows` built afresh with the analysis quadrature, bit for bit,
    on every order and degree: column 0 holds H_+ of m, column 1 H_+ of -m
    in decreasing m, which is -(-1)^m H_- of m in value."""
    rows = vsh._grid_rows(g, l_max, m_min, m_max)
    assert rows.shape == (m_max - m_min + 1, 2, l_max + 1, g.spec.n_theta)
    assert not rows.flags.writeable
    for i, m in enumerate(range(m_min, m_max + 1)):
        h_plus, h_minus = order_rows(g, l_max, m)
        assert rows[i, 0].tobytes() == h_plus.tobytes(), m
        assert rows[-1 - i, 1].tobytes() == order_rows(g, l_max, -m)[0].tobytes(), m
        assert np.array_equal(-(-1.0) ** m * rows[-1 - i, 1], h_minus), m


@pytest.mark.parametrize("spec, l_max", SWEEP, ids=["8x256x12", "12x32x32", "12x64x64"])
def test_grid_rows_are_the_builders_rows(spec, l_max):
    g = build_grid(spec)
    _assert_grid_rows_are_built_rows(g, l_max, -l_max, l_max)
    # the report's band on an off-centre window, as the report reads it,
    # gets its own table; then a wider window at that band, whose table
    # replaces both and serves the sweep's band
    top = min(spec.n_theta - 1, 96)
    _assert_grid_rows_are_built_rows(g, top, -1, 2)
    assert sorted(g._helicity_rows) == [2, l_max]
    _assert_grid_rows_are_built_rows(g, top, -l_max, l_max)
    assert list(g._helicity_rows) == [l_max]
    _assert_grid_rows_are_built_rows(g, l_max, -l_max, l_max)


@pytest.mark.parametrize("bands", [(63, 31), (31, 63)], ids=["shrink", "grow"])
def test_grid_rows_serve_either_band_order(bands):
    g = build_grid(SWEEP[2][0])
    for l_max in bands:
        _assert_grid_rows_are_built_rows(g, l_max, -31, 31)
    assert {rows.shape[1] for rows in g._helicity_rows.values()} == {64}


def test_grid_rows_build_in_bounded_blocks():
    # 121 orders at 97 rows on 256 nodes: a 24 MB table, whose input rows
    # built in one call would take about six times that in temporaries
    g = build_grid(GridSpec(n_k=1, k_min=0.5, k_max=1.5, n_theta=256, n_phi=12))
    tracemalloc.start()
    try:
        vsh._grid_rows(g, 96, -60, 60)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    (table,) = g._helicity_rows.values()
    assert table.shape == (121, 97, 256)
    assert peak < 2.5 * table.nbytes


def test_warm_grid_analyze_and_report_equal_a_fresh_grid():
    spec = SWEEP[2][0]
    warm = build_grid(spec)
    # other content, a larger band first: the rows are held at l_max 63
    observable_report(random_state(warm, seed=47))
    synthesize(analyze(random_state(warm, seed=53), 31))

    def outputs(analysis_grid, report_grid):
        e = analyze(build_mode(SWEEP_PACKET, analysis_grid), 31)
        report = observable_report(build_mode(SWEEP_PACKET, report_grid))
        return e.coeffs.tobytes(), json.dumps(report.to_dict())

    assert outputs(warm, warm) == outputs(build_grid(spec), build_grid(spec))


def test_grid_rows_memory_stays_within_budget():
    # the report and a full-window round trip of one sweep op on 12x64x64:
    # 63 orders at l_max 31, those of the report's window at l_max 63
    g = build_grid(SWEEP[2][0])
    v = build_mode(SWEEP_PACKET, g)
    assert g._helicity_rows == {}           # no transform ran yet
    observable_report(v)
    synthesize(analyze(v, 31))
    assert sum(rows.nbytes for rows in g._helicity_rows.values()) <= 3_000_000


# The batched transforms against the per-order oracle, bit for bit: each
# sweep grid with its kind of state and with an unfactored random state,
# an odd n_phi and a single radial node.
SWEEP_MODES = (
    LG_MODE,
    ModeSpec(kind="j3_w_eigenstate", m=-2, w=1, radial_profile={"k0": 1.0, "sigma_k": 0.12},
             theta_profile={"kind": "gaussian_in_theta", "theta0": 0.3, "sigma_theta": 0.3}),
    SWEEP_PACKET,
)
ORACLE_CASES = [
    pytest.param(spec, l_max, mode, id=f"{spec.n_k}x{spec.n_theta}x{spec.n_phi}-{name}")
    for (spec, l_max), sweep_mode in zip(SWEEP, SWEEP_MODES)
    for name, mode in (("random", None), (sweep_mode.kind, sweep_mode))
] + [
    pytest.param(GridSpec(n_k=6, k_min=0.4, k_max=1.6, n_theta=16, n_phi=25), 10, None,
                 id="odd-n_phi-random"),
    pytest.param(GridSpec(n_k=1, k_min=0.5, k_max=1.5, n_theta=12, n_phi=13), 6, None,
                 id="one-radial-node-random"),
]


@pytest.mark.parametrize("spec, l_max, mode", ORACLE_CASES)
def test_transforms_equal_the_per_order_oracle(spec, l_max, mode):
    g = build_grid(spec)
    v = random_state(g, seed=59) if mode is None else build_mode(mode, g)
    e = analyze(v, l_max)
    assert e.coeffs.tobytes() == per_order_analyze(v, l_max).tobytes()
    # J1 and J2 widen the window by one order each way, within +-l_max
    for f in (e, apply_J(1, e), apply_J(2, e)):
        assert synthesize(f).c.tobytes() == per_order_synthesize(f).c.tobytes()
    # windowed: the report's band on the state's own window, and one
    # window off centre
    top = min(spec.n_theta - 1, 96)
    for l_band, window in ((top, azimuthal_window(v, top)), (l_max, (1, l_max))):
        got = analyze(v, l_band, window).coeffs
        assert got.tobytes() == per_order_analyze(v, l_band, window).tobytes(), window


def test_transforms_equal_the_per_order_oracle_on_aliasing_orders(coarse_grid):
    rng = np.random.default_rng(61)
    e = VshExpansion.zero(coarse_grid, l_max=4)
    e.coeffs[:] = rng.standard_normal(e.coeffs.shape) + 1j * rng.standard_normal(e.coeffs.shape)
    v = synthesize(e)
    assert v.c.tobytes() == per_order_synthesize(e).c.tobytes()
    got = analyze(v, 4, (1, 2)).coeffs
    assert got.tobytes() == per_order_analyze(v, 4, (1, 2)).tobytes()
