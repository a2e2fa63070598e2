import math
import warnings

import numpy as np
import pytest
from scipy.special import eval_genlaguerre, gammaln

from photon_angmom import modes, wavefunction
from photon_angmom.grid import GridSpec, build_grid
from photon_angmom.modes import (
    _KIND_KEYS,
    ModeSpec,
    build_j3_w_eigenstate,
    build_mode,
    build_sam_wavepacket,
    build_vector_lg,
    scalar_lg,
    theta_distribution,
)
from photon_angmom.operators import (
    apply_J3_azimuthal,
    apply_S,
    apply_W,
    observable_report,
)
from photon_angmom.polarization import eps_plus, helicity_basis
from photon_angmom.wavefunction import (
    FrameMoments,
    WaveFunction,
    inner_product,
    norm,
    normalize,
    random_state,
    transverse_residual,
)


@pytest.fixture(scope="module")
def grid():
    return build_grid(GridSpec(n_k=12, k_min=0.4, k_max=1.8, n_theta=48, n_phi=14))


def _counted(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def _helicity_rows(amp, w):
    """Frame rows (c_+, c_-, c_0) with amp on the helicity-w row only."""
    rows = np.zeros((3,) + amp.shape, dtype=complex)
    rows[0 if w == 1 else 1] = amp
    return rows


# The builders normalize from their factors: 1/||v|| multiplies the smaller
# factor of each row before the one product that writes it, and ||v|| is
# summed per factor, not over the grid.  The rows then differ from the
# node-by-node product normalized by the full-grid norm by a few ulp.
_BUILD_ULP = 4


def _assert_rows_within_ulp(got, want):
    """Frame rows equal to within _BUILD_ULP on their real and imaginary parts."""
    np.testing.assert_array_max_ulp(got.view(float), want.view(float), maxulp=_BUILD_ULP)


def _j3w_spec(m, w, theta_profile=None):
    return ModeSpec(
        kind="j3_w_eigenstate",
        m=m,
        w=w,
        radial_profile={"k0": 1.0, "sigma_k": 0.12},
        theta_profile=theta_profile or {"kind": "uniform_band"},
    )


def test_mode_spec_validation():
    with pytest.raises(ValueError):
        ModeSpec(kind="nope")
    with pytest.raises(ValueError):
        ModeSpec(kind="j3_w_eigenstate", w=2)
    with pytest.raises(ValueError):
        ModeSpec(kind="sam_wavepacket", kappa=-1.0)
    with pytest.raises(ValueError):
        ModeSpec(kind="j3_w_eigenstate", radial_profile={"k0": 1.0, "sigma_k": 2.0})
    with pytest.raises(ValueError):
        ModeSpec(kind="vector_lg", w0=1.0, k_fixed=1.0)  # w0 k ~ 2 pi


def test_mode_spec_roundtrip():
    spec = _j3w_spec(2, -1, {"kind": "gaussian_in_theta", "theta0": 0.5, "sigma_theta": 0.2})
    back = ModeSpec.from_dict(spec.to_dict())
    assert back == spec
    with pytest.raises(KeyError):
        ModeSpec.from_dict({"kind": "vector_lg", "bogus": 1})
    with pytest.raises(KeyError):
        ModeSpec.from_dict({"m": 1})


def test_mode_spec_dict_holds_only_read_fields(lg_grid):
    # to_dict writes the fields the kind reads, from_dict reads them back,
    # and the rebuilt spec builds the same state
    for spec in (
        ModeSpec(kind="vector_lg", m=2, w=-1, p=1, w0=25.0),
        ModeSpec(kind="j3_w_eigenstate", m=1, w=1, kappa=7.0,
                 theta_profile={"kind": "uniform_band", "x_lo": 0.2, "theta0": 1.0}),
        ModeSpec(kind="sam_wavepacket", w=-1, kappa=30.0, m=4),
    ):
        d = spec.to_dict()
        back = ModeSpec.from_dict(d)
        assert back.to_dict() == d
        assert np.array_equal(build_mode(back, lg_grid).values,
                              build_mode(spec, lg_grid).values)
    assert set(ModeSpec(kind="vector_lg").to_dict()) == {
        "kind", "m", "w", "p", "w0", "k_fixed", "radial_profile"}
    assert ModeSpec(kind="vector_lg").to_dict()["radial_profile"] == {"sigma_k": 0.1}


def test_vector_lg_has_one_sigma_k_default(lg_grid):
    # a radial_profile without sigma_k reads the default profile's 0.1
    default = build_mode(ModeSpec(kind="vector_lg", m=2, w=-1, p=1), lg_grid)
    for profile in ({}, {"sigma_k": 0.1}):
        spec = ModeSpec.from_dict({"kind": "vector_lg", "m": 2, "w": -1, "p": 1,
                                   "radial_profile": profile})
        assert build_mode(spec, lg_grid).c.tobytes() == default.c.tobytes()


def _lg_amplitude_nodewise(grid, m, w, p, w0, k_fixed, sigma_k):
    """a = scalar_lg(m - w, p, w0, k sin(theta), 0) carrier forward / sqrt 2,
    the vector LG amplitude without its phase e^{i (m - w) phi}, evaluated
    node by node, with the nodes k, theta, phi it was evaluated on."""
    k, theta, phi = grid.k, grid.theta, grid.phi
    am = abs(m - w)
    rho = k * np.sin(theta)
    u = 0.5 * w0 * w0 * rho * rho
    norm_factor = (w0 / np.sqrt(2.0 * np.pi)) * np.exp(
        0.5 * (gammaln(p + 1.0) - gammaln(p + am + 1.0))
    )
    radial = (w0 * rho / np.sqrt(2.0)) ** am * eval_genlaguerre(p, am, u) * np.exp(-0.5 * u)
    carrier = np.exp(-((k - k_fixed) ** 2) / (4.0 * sigma_k**2))
    a = norm_factor * (1j**am) * radial * carrier * (theta <= 0.5 * np.pi) / np.sqrt(2.0)
    return a, k, theta, phi


def _lg_nodewise(grid, m, w, p, w0, k_fixed, sigma_k):
    """Vector LG from its Cartesian paraxial spinor, node by node, converted
    to frame rows by the `WaveFunction` constructor."""
    a, k, theta, phi = _lg_amplitude_nodewise(grid, m, w, p, w0, k_fixed, sigma_k)
    amp = a * np.exp(1j * (m - w) * phi)
    if w == 1:
        cols = (amp, 1j * amp, -theta * np.exp(1j * phi) * amp)
    else:
        cols = (1j * amp, amp, -1j * theta * np.exp(-1j * phi) * amp)
    return normalize(WaveFunction(grid, np.stack(cols, axis=1), check=False))


def _lg_frame_nodewise(grid, m, w, p, w0, k_fixed, sigma_k):
    """Vector LG from its frame closed form, node by node, each row a polar
    factor times the phase of its own azimuthal order:
      c_w  = a (1 + cos + theta sin) / sqrt 2 e^{i (m - w) phi}
      c_-w = a (-i w (cos - 1 + theta sin) / sqrt 2) e^{i (m + w) phi}
      c_0  = a (i^{(1 - w)/2} (sin - theta cos)) e^{i m phi}"""
    a, k, theta, phi = _lg_amplitude_nodewise(grid, m, w, p, w0, k_fixed, sigma_k)
    cos, sin = np.cos(theta), np.sin(theta)
    rows = np.empty((3, grid.n_nodes), dtype=complex)
    rows[0 if w == 1 else 1] = (a * ((1.0 + cos + theta * sin) / np.sqrt(2.0))
                                * np.exp(1j * (m - w) * phi))
    rows[1 if w == 1 else 0] = (a * (-1j * w * (cos - 1.0 + theta * sin) / np.sqrt(2.0))
                                * np.exp(1j * (m + w) * phi))
    rows[2] = a * (1j ** ((1 - w) // 2) * (sin - theta * cos)) * np.exp(1j * m * phi)
    return normalize(WaveFunction.from_frame(grid, rows))


@pytest.mark.parametrize("gs", [
    GridSpec(n_k=8, k_min=0.87, k_max=1.13, n_theta=64, n_phi=12),
    GridSpec(n_k=5, k_min=0.9, k_max=1.1, n_theta=33, n_phi=13),
])
def test_vector_lg_factor_axes_match_nodewise_closed_form(gs):
    grid = build_grid(gs)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # w0 = 10 is below the paraxial threshold
        for m, w, p, w0, sigma_k in [(2, -1, 1, 25.0, 0.02), (-2, 1, 0, 20.0, 0.1),
                                     (0, 1, 2, 45.0, 0.05), (3, -1, 0, 10.0, 0.03)]:
            spec = ModeSpec(kind="vector_lg", m=m, w=w, p=p, w0=w0, k_fixed=1.0,
                            radial_profile={"sigma_k": sigma_k})
            want = _lg_frame_nodewise(grid, m, w, p, w0, 1.0, sigma_k)
            _assert_rows_within_ulp(build_vector_lg(spec, grid).c, want.c)


@pytest.mark.parametrize("theta_profile", [
    {"kind": "gaussian_in_theta", "theta0": 0.4, "sigma_theta": 0.3},
    {"kind": "uniform_band", "x_lo": -0.3, "x_hi": 0.8},
])
def test_j3_w_factor_axes_match_nodewise_closed_form(grid, theta_profile):
    for m, w in [(1, 1), (-2, -1), (3, 1)]:
        spec = _j3w_spec(m, w, theta_profile)
        g = np.exp(-((grid.k - 1.0) ** 2) / (4.0 * 0.12**2))
        if theta_profile["kind"] == "uniform_band":
            x = np.cos(grid.theta)
            h = ((x >= -0.3) & (x <= 0.8)).astype(float)
        else:
            h = np.exp(-((grid.theta - 0.4) ** 2) / (4.0 * 0.3**2))
        amp = g * h * np.exp(1j * (m - w) * grid.phi)
        want = normalize(WaveFunction.from_frame(grid, _helicity_rows(amp, w)))
        _assert_rows_within_ulp(build_j3_w_eigenstate(spec, grid).c, want.c)


# grid.frame is shared by the spin packet builder and every `values` read;
# it must equal polarization.helicity_basis evaluated node by node, bit for
# bit.  The 128 x 130 angular nodes put one basis vector array past 256 KiB,
# the size from which numpy reuses temporaries in place.
@pytest.fixture(scope="module")
def wide_grid():
    return build_grid(GridSpec(n_k=2, k_min=0.5, k_max=1.5, n_theta=128, n_phi=130))


@pytest.fixture(scope="module")
def nodewise_basis(wide_grid):
    """(eps_plus, eps_minus) evaluated one node at a time: (2, n_nodes, 3)."""
    n_ang = wide_grid.spec.n_theta * wide_grid.spec.n_phi
    shell = wide_grid.khat[:n_ang]
    # every radial shell holds the same directions, so one shell serves all
    assert np.array_equal(wide_grid.khat[n_ang:], shell)
    pairs = np.array([np.stack(helicity_basis(d)) for d in shell])
    return np.tile(np.moveaxis(pairs, 1, 0), (1, wide_grid.spec.n_k, 1))


@pytest.mark.parametrize("w", [1, -1])
def test_sam_helicity_carrier_matches_nodewise_closed_form(wide_grid, nodewise_basis, w):
    spec = ModeSpec(kind="sam_wavepacket", w=w, s_direction=(0.3, 0.2, 1.0), kappa=6.0,
                    radial_profile={"k0": 1.0, "sigma_k": 0.2})
    s = np.array([0.3, 0.2, 1.0])
    s = s / np.linalg.norm(s)
    kernel = np.exp(6.0 * (wide_grid.khat @ (w * s) - 1.0))
    g = np.exp(-((wide_grid.k - 1.0) ** 2) / (4.0 * 0.2**2))
    pol = nodewise_basis[0 if w == 1 else 1]
    amp = np.einsum("nc,c->n", np.conj(pol), eps_plus(s))
    want = normalize(WaveFunction.from_frame(wide_grid, _helicity_rows(g * kernel * amp, w)))
    _assert_rows_within_ulp(build_sam_wavepacket(spec, wide_grid).c, want.c)


@pytest.mark.parametrize("w", [1, -1])
def test_sam_projected_carrier_matches_nodewise_closed_form(wide_grid, nodewise_basis, w):
    # the builder evaluates the kernel per angular node and the Gaussian per
    # shell; both rows must equal the node-by-node products bit for bit
    spec = ModeSpec(kind="sam_wavepacket", w=w, s_direction=(-0.4, 0.7, 0.5), kappa=9.0,
                    carrier="projected", radial_profile={"k0": 1.1, "sigma_k": 0.3})
    s = np.array([-0.4, 0.7, 0.5])
    s = s / np.linalg.norm(s)
    packet = (np.exp(-((wide_grid.k - 1.1) ** 2) / (4.0 * 0.3**2))
              * np.exp(9.0 * (wide_grid.khat @ (w * s) - 1.0)))
    same, opposite = np.einsum("hnc,c->hn", np.conj(nodewise_basis), eps_plus(s))[::w]
    rows = np.zeros((3, wide_grid.n_nodes), dtype=complex)
    rows[0 if w == 1 else 1] = packet * same
    rows[1 if w == 1 else 0] = packet * opposite
    want = normalize(WaveFunction.from_frame(wide_grid, rows))
    _assert_rows_within_ulp(build_sam_wavepacket(spec, wide_grid).c, want.c)


def test_random_state_matches_nodewise_closed_form(wide_grid, nodewise_basis):
    rng = np.random.default_rng(5)
    n = wide_grid.n_nodes
    cp = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    cm = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v = random_state(wide_grid, seed=5)
    want = normalize(WaveFunction.from_frame(wide_grid, np.stack([cp, cm])))
    assert np.array_equal(v.c, want.c)
    # the Cartesian samples, formed on the grid's frame
    (ep, em), (vp, vm) = nodewise_basis, v.c[:2].reshape(2, -1)
    assert np.array_equal(v.values, vp[:, None] * ep + vm[:, None] * em)


_FACTOR_NORM_CASES = [
    (GridSpec(n_k=8, k_min=0.87, k_max=1.13, n_theta=512, n_phi=12),
     [ModeSpec(kind="vector_lg", m=m, p=p, w=w, w0=w0, k_fixed=1.0,
               radial_profile={"sigma_k": 0.02})
      for m, p, w, w0 in ((-2, 0, 1, 20.0), (3, 2, -1, 20.0), (1, 1, 1, 67.0))]),
    (GridSpec(n_k=12, k_min=0.4, k_max=1.8, n_theta=48, n_phi=14),
     [_j3w_spec(m, w, prof) for m, w in ((1, 1), (-2, -1), (0, -1)) for prof in (
         None, {"kind": "gaussian_in_theta", "theta0": 0.4, "sigma_theta": 0.3},
         {"kind": "uniform_band", "x_lo": -0.3, "x_hi": 0.8})]),
    (GridSpec(n_k=10, k_min=0.5, k_max=1.5, n_theta=64, n_phi=64),
     [ModeSpec(kind="sam_wavepacket", w=w, kappa=kappa, s_direction=(0.3, 0.2, 1.0),
               carrier=carrier, radial_profile={"k0": 1.0, "sigma_k": 0.1})
      for w in (1, -1) for kappa in (2.0, 400.0) for carrier in ("helicity", "projected")]),
]


@pytest.mark.parametrize("gs, specs", _FACTOR_NORM_CASES, ids=["vector_lg", "j3_w", "sam"])
def test_factor_summed_norm_matches_full_grid_norm(gs, specs):
    # the builders sum ||v||^2 per factor; the full-grid sum of the
    # normalized rows must read 1, and the moments' one power pass must
    # give the wavefunction readers' peak and transversality exactly
    grid = build_grid(gs)
    for spec in specs:
        v = build_mode(spec, grid)
        assert abs(norm(v) - 1.0) <= 1e-15, spec
        moments = FrameMoments(v)
        assert moments.peak_amplitude == v.peak_amplitude()
        assert moments.transverse_residual == transverse_residual(v)


def test_j3_w_eigenstate_eigenvalues(grid):
    for m, w in [(1, 1), (0, -1), (3, 1), (-2, -1)]:
        v = build_j3_w_eigenstate(_j3w_spec(m, w), grid)
        np.testing.assert_allclose(norm(v), 1.0, rtol=1e-12)
        assert transverse_residual(v) < 1e-13
        jv = apply_J3_azimuthal(v)
        assert norm(jv - float(m) * v) < 1e-12
        wv = apply_W(v)
        assert norm(wv - float(w) * v) < 1e-13


def test_j3_w_azimuthal_dependence(grid):
    # m=0, w=-1 must oscillate as e^{+i phi} against the polarization vector
    v = build_j3_w_eigenstate(_j3w_spec(0, -1), grid)
    cube = v.values.reshape(grid.shape + (3,))
    spectrum = np.abs(np.fft.fft(cube[:, :, :, 2], axis=2)).sum(axis=(0, 1))
    # z component carries exactly the order m = 0
    assert spectrum[0] > 1e3 * spectrum[1:].max()


def test_j3_w_orthogonality(grid):
    a = build_j3_w_eigenstate(_j3w_spec(1, 1), grid)
    b = build_j3_w_eigenstate(_j3w_spec(2, 1), grid)
    c = build_j3_w_eigenstate(_j3w_spec(1, -1), grid)
    assert abs(inner_product(a, b)) < 1e-12
    assert abs(inner_product(a, c)) < 1e-12


def test_j3_w_rejects_coarse_azimuthal_grid(grid):
    with pytest.raises(ValueError):
        build_j3_w_eigenstate(_j3w_spec(8, 1), grid)


@pytest.mark.parametrize("n_phi", [5, 7, 8, 20])
def test_builders_reject_unresolved_azimuthal_orders(n_phi):
    # vector_lg, m = 9, w = -1 carries the orders 10 (x, y) and 9 (z);
    # j3_w_eigenstate, m = 9 the orders 8, 9, 10: both need n_phi >= 21
    g = build_grid(GridSpec(n_k=3, k_min=0.9, k_max=1.1, n_theta=16, n_phi=n_phi))
    lg = ModeSpec(kind="vector_lg", m=9, w=-1, p=0, w0=25.0, k_fixed=1.0)
    with pytest.raises(ValueError, match="n_phi"):
        build_vector_lg(lg, g)
    with pytest.raises(ValueError, match="n_phi"):
        build_j3_w_eigenstate(_j3w_spec(9, 1), g)


@pytest.mark.parametrize("n_phi", [5, 6])
def test_vector_lg_rejects_unresolved_opposite_helicity_order(n_phi):
    # m = 2, w = 1 puts x, y on order 1 and z on order 2, which n_phi = 5
    # resolves; its opposite-helicity frame row c_- sits on order 3, which
    # aliases (on n_phi = 6 onto the Nyquist bin) and would corrupt J3
    g = build_grid(GridSpec(n_k=4, k_min=0.94, k_max=1.06, n_theta=64, n_phi=n_phi))
    lg = ModeSpec(kind="vector_lg", m=2, w=1, p=1, w0=25.0, k_fixed=1.0)
    with pytest.raises(ValueError, match="n_phi"):
        build_vector_lg(lg, g)
    v = build_vector_lg(lg, build_grid(GridSpec(n_k=4, k_min=0.94, k_max=1.06,
                                                n_theta=64, n_phi=7)))
    assert norm(apply_J3_azimuthal(v) - 2.0 * v) < 1e-13


@pytest.mark.parametrize("n_phi", [21, 22])
def test_builders_resolve_orders_up_to_the_band_edge(n_phi):
    # the highest order 10 fits both the odd and the even band: J3 stays exact
    g = build_grid(GridSpec(n_k=4, k_min=0.9, k_max=1.1, n_theta=64, n_phi=n_phi))
    for v, m in ((build_vector_lg(ModeSpec(kind="vector_lg", m=9, w=-1, p=0,
                                           w0=25.0, k_fixed=1.0), g), 9),
                 (build_j3_w_eigenstate(_j3w_spec(9, 1), g), 9),
                 (build_j3_w_eigenstate(_j3w_spec(-9, -1), g), -9)):
        assert norm(apply_J3_azimuthal(v) - float(m) * v) < 1e-11


def test_theta_distribution_uniform(grid):
    spec = _j3w_spec(1, 1)
    dist = theta_distribution(spec, grid)
    np.testing.assert_allclose(dist.p, 0.5, atol=1e-12)
    np.testing.assert_allclose(dist.mean_x, 0.0, atol=1e-13)
    np.testing.assert_allclose(dist.mean_x2, 1.0 / 3.0, atol=1e-12)
    np.testing.assert_allclose(
        dist.sam_variance(), np.diag([1.0 / 3.0] * 3), atol=1e-12
    )


def test_theta_distribution_narrow_equatorial(grid):
    spec = _j3w_spec(1, 1, {"kind": "gaussian_in_theta", "theta0": np.pi / 2, "sigma_theta": 0.04})
    dist = theta_distribution(spec, grid)
    assert abs(dist.mean_x) < 1e-10
    assert dist.mean_x2 < 0.01
    var = dist.sam_variance()
    np.testing.assert_allclose(np.diag(var), [0.5, 0.5, 0.0], atol=0.01)


def test_report_matches_theta_distribution(grid):
    spec = _j3w_spec(2, 1, {"kind": "gaussian_in_theta", "theta0": np.pi / 6, "sigma_theta": 0.3})
    v = build_j3_w_eigenstate(spec, grid)
    dist = theta_distribution(spec, grid)
    rep = observable_report(v)
    np.testing.assert_allclose(rep.sam, dist.sam_expectation(), atol=1e-10)
    np.testing.assert_allclose(
        rep.sam_second_moments, dist.sam_second_moments(), atol=1e-10
    )
    np.testing.assert_allclose(rep.sam_variance, dist.sam_variance(), atol=1e-10)
    np.testing.assert_allclose(rep.total_am, [0.0, 0.0, 2.0], atol=1e-10)
    np.testing.assert_allclose(rep.helicity, 1.0, atol=1e-12)


def test_never_an_s3_eigenstate(grid):
    for prof in (
        {"kind": "uniform_band"},
        {"kind": "gaussian_in_theta", "theta0": np.pi / 2, "sigma_theta": 0.35},
        {"kind": "gaussian_in_theta", "theta0": np.pi / 6, "sigma_theta": 0.3},
    ):
        v = build_j3_w_eigenstate(_j3w_spec(1, 1, prof), grid)
        rep = observable_report(v)
        assert rep.eigen_residuals["S3"] > 0.05
        assert rep.eigen_residuals["L3"] > 0.05
        assert rep.sam_variance[2, 2] > 0.0


@pytest.fixture(scope="module")
def packet_grid():
    return build_grid(GridSpec(n_k=10, k_min=0.4, k_max=1.8, n_theta=128, n_phi=8))


def _packet_spec(kappa, w=1, carrier="helicity"):
    return ModeSpec(
        kind="sam_wavepacket",
        w=w,
        s_direction=(0.0, 0.0, 1.0),
        kappa=kappa,
        radial_profile={"k0": 1.0, "sigma_k": 0.12},
        carrier=carrier,
    )


def _oracle_moment(kappa, f, weight):
    # 1D reduction over x = cos(theta); radial factor cancels for s = zhat
    x, wx = np.polynomial.legendre.leggauss(400)
    lam = 2.0 * kappa
    mu = np.exp(lam * (x - 1.0)) * weight(x)
    return np.sum(wx * mu * f(x)) / np.sum(wx * mu)


def test_sam_packet_helicity_carrier(packet_grid):
    v = build_sam_wavepacket(_packet_spec(50.0), packet_grid)
    assert transverse_residual(v) < 1e-13
    rep = observable_report(v)
    np.testing.assert_allclose(rep.helicity, 1.0, atol=1e-12)
    # <S3> oracle: weight (1+x)^2/4 from the projected helicity amplitude
    s3_ref = _oracle_moment(50.0, lambda x: x, lambda x: (1.0 + x) ** 2 / 4.0)
    np.testing.assert_allclose(rep.sam[2], s3_ref, atol=1e-9)
    assert np.linalg.norm(rep.sam - np.array([0, 0, 1])) < 2.0 / 50.0


def test_sam_packet_projected_carrier(packet_grid):
    v = build_sam_wavepacket(_packet_spec(50.0, carrier="projected"), packet_grid)
    rep = observable_report(v)
    # helicity weights (1 +- x)^2/4 give <W> = E[x] / E[(1+x^2)/2] under the
    # plain vMF weight e^{2 kappa (x-1)}
    x, wx = np.polynomial.legendre.leggauss(400)
    e = np.exp(100.0 * (x - 1.0))
    w_ref = np.sum(wx * e * x) / np.sum(wx * e * 0.5 * (1.0 + x * x))
    np.testing.assert_allclose(rep.helicity, w_ref, atol=1e-9)
    assert abs(rep.helicity - 1.0) < 2e-4  # O(1/kappa^2) deficit


@pytest.mark.parametrize("w", [1, -1])
@pytest.mark.parametrize("s_direction", [(0.0, 0.0, 1.0), (0.3, 0.2, 1.0), (1.0, -0.4, 0.0),
                                         (0.2, -0.5, -0.7)])
def test_sam_projected_carrier_matches_cartesian_projection(grid, w, s_direction):
    # the carrier's two frame rows against the Cartesian field
    # g kernel eps^(+)(s), converted and projected transverse
    spec = ModeSpec(kind="sam_wavepacket", w=w, s_direction=s_direction, kappa=8.0,
                    carrier="projected", radial_profile={"k0": 1.0, "sigma_k": 0.2})
    s = np.asarray(s_direction) / np.linalg.norm(s_direction)
    kernel = np.exp(8.0 * (grid.khat @ (w * s) - 1.0))
    g = np.exp(-((grid.k - 1.0) ** 2) / (4.0 * 0.2**2))
    raw = (g * kernel)[:, None] * eps_plus(s)
    want = normalize(WaveFunction(grid, raw, check=False).project_transverse()).c
    got = build_sam_wavepacket(spec, grid).c
    assert not got[2].any()
    err = np.abs(got - want).max() / np.abs(want).max()
    assert err <= 1e-14, err


@pytest.mark.parametrize("kind, carrier", [
    (kind, carrier) for kind in _KIND_KEYS
    for carrier in (("helicity", "projected") if "carrier" in _KIND_KEYS[kind] else ("helicity",))
])
def test_builders_write_frame_rows(lg_grid, monkeypatch, kind, carrier):
    # every builder writes its frame rows: no forward conversion of
    # Cartesian samples, and no Cartesian samples formed; and it normalizes
    # from its factors: no rescaled copy of the state, and no power taken
    # on the full grid
    calls = {"_frame_rows": 0, "values": 0, "__mul__": 0}
    monkeypatch.setattr(wavefunction, "_frame_rows",
                        _counted(calls, "_frame_rows", wavefunction._frame_rows))
    monkeypatch.setattr(WaveFunction, "values",
                        property(_counted(calls, "values", WaveFunction.values.fget)))
    monkeypatch.setattr(WaveFunction, "__mul__",
                        _counted(calls, "__mul__", WaveFunction.__mul__))
    sizes = []
    monkeypatch.setattr(modes, "_power",
                        lambda a: sizes.append(np.size(a)) or wavefunction._power(a))
    spec = ModeSpec(kind=kind, m=1, s_direction=(0.3, 0.2, 1.0), carrier=carrier)
    v = build_mode(spec, lg_grid)
    assert calls == {"_frame_rows": 0, "values": 0, "__mul__": 0}
    assert sizes and max(sizes) < lg_grid.n_nodes
    assert abs(norm(v) - 1.0) < 1e-12


def test_sam_packet_negative_w_support(packet_grid):
    v = build_sam_wavepacket(_packet_spec(50.0, w=-1), packet_grid)
    dens = np.einsum("nc,nc->n", np.conj(v.values), v.values).real
    x = packet_grid.khat[:, 2]
    mean_x = np.sum(packet_grid.weights * dens * x)
    assert mean_x < -0.97
    rep = observable_report(v)
    np.testing.assert_allclose(rep.helicity, -1.0, atol=1e-12)
    # <S> converges to +s even though the support sits at -s
    assert np.linalg.norm(rep.sam - np.array([0, 0, 1])) < 2.0 / 50.0


def test_sam_packets_far_apart_overlap(packet_grid):
    a = build_sam_wavepacket(_packet_spec(200.0), packet_grid)
    spec_b = ModeSpec(
        kind="sam_wavepacket",
        w=1,
        s_direction=(0.0, 1.0, 1.0),
        kappa=200.0,
        radial_profile={"k0": 1.0, "sigma_k": 0.12},
    )
    b = build_sam_wavepacket(spec_b, packet_grid)
    assert abs(inner_product(a, b)) < 1e-6


def test_scalar_lg_values_and_norms():
    assert np.isclose(scalar_lg(0, 0, 2.5, 0.0, 0.0), 2.5 / np.sqrt(2 * np.pi))
    # Gauss-Laguerre oracle for the transverse-plane L2 norm
    for m, p in [(0, 0), (2, 1), (-3, 2)]:
        u, wu = np.polynomial.laguerre.laggauss(60)
        w0 = 2.0
        rho = np.sqrt(2.0 * u) / w0
        vals = scalar_lg(m, p, w0, rho, 0.0)
        # d^2k = 2 pi rho drho = (2 pi / w0^2) du; e^{-u} folded into weights
        nrm = np.sum(wu * np.exp(u) * np.abs(vals) ** 2) * 2.0 * np.pi / w0**2
        np.testing.assert_allclose(nrm, 1.0, rtol=1e-10)
    # p-orthogonality at fixed m
    u, wu = np.polynomial.laguerre.laggauss(60)
    rho = np.sqrt(2.0 * u) / 2.0
    a = scalar_lg(1, 0, 2.0, rho, 0.0)
    b = scalar_lg(1, 2, 2.0, rho, 0.0)
    ov = np.sum(wu * np.exp(u) * np.conj(a) * b) * 2.0 * np.pi / 4.0
    assert abs(ov) < 1e-12


def test_laguerre_is_scipys_bit_for_bit():
    u = np.concatenate([np.linspace(0.0, 5000.0, 20001), [1e-300, 1e-8, 0.5, 1.0, 2.5]])
    for p in range(9):
        for alpha in range(13):
            np.testing.assert_array_equal(
                modes._laguerre(p, alpha, u), eval_genlaguerre(p, alpha, u))


def _scalar_lg_scipy(m, p, w0, rho, phi):
    """The scipy closed form that `scalar_lg` replaced: gammaln for the
    norm factor and eval_genlaguerre for the radial polynomial."""
    am = abs(m)
    u = 0.5 * w0 * w0 * rho * rho
    norm_factor = (w0 / np.sqrt(2.0 * np.pi)) * np.exp(
        0.5 * (gammaln(p + 1.0) - gammaln(p + am + 1.0))
    )
    radial = (w0 * rho / np.sqrt(2.0)) ** am * eval_genlaguerre(p, am, u) * np.exp(-0.5 * u)
    return norm_factor * (1j**am) * radial * np.exp(1j * m * phi)


def test_scalar_lg_is_the_scipy_closed_form_bit_for_bit_up_to_order_12():
    # gammaln(x) is log((x - 1)!) bit for bit for x <= 13, so every mode
    # with p + |m| <= 12 keeps its bytes
    phi = np.linspace(0.0, 2.0 * np.pi, 601)
    for w0 in (3.0, 20.0, 25.0, 45.0):
        rho = np.linspace(0.0, 6.0 / w0, 601)
        for m in range(-12, 13):
            for p in range(13 - abs(m)):
                np.testing.assert_array_equal(
                    scalar_lg(m, p, w0, rho, phi), _scalar_lg_scipy(m, p, w0, rho, phi),
                    err_msg=f"m={m}, p={p}, w0={w0}")


def test_scalar_lg_norm_factor_is_accurate_above_order_12():
    # the factor is |phi_{m,p}| over the radial part that scalar_lg forms,
    # against the correctly rounded sqrt(p! / (p + |m|)!)
    w0 = 3.0
    rho = np.array([0.2, 0.5, 1.0]) / w0
    u = 0.5 * w0 * w0 * rho * rho
    for n in range(13, 41):
        for p in range(n + 1):
            am = n - p
            radial = (w0 * rho / np.sqrt(2.0)) ** am * modes._laguerre(p, am, u) \
                * np.exp(-0.5 * u)
            factor = np.abs(scalar_lg(am, p, w0, rho, 0.0)) / np.abs(radial)
            exact = (w0 / np.sqrt(2.0 * np.pi)) \
                * math.sqrt(math.factorial(p) / math.factorial(p + am))
            np.testing.assert_allclose(factor, exact, rtol=2e-14, atol=0.0,
                                       err_msg=f"p={p}, |m|={am}")


@pytest.fixture(scope="module")
def lg_grid():
    return build_grid(GridSpec(n_k=8, k_min=0.92, k_max=1.08, n_theta=256, n_phi=12))


def test_vector_lg_j3_exact(lg_grid):
    for m, w in [(1, 1), (-2, -1), (0, 1), (3, -1)]:
        spec = ModeSpec(kind="vector_lg", m=m, w=w, p=1, w0=25.0, k_fixed=1.0)
        v = build_vector_lg(spec, lg_grid)
        jv = apply_J3_azimuthal(v)
        assert norm(jv - float(m) * v) < 1e-12


def test_vector_lg_approximate_helicity(lg_grid):
    spec = ModeSpec(kind="vector_lg", m=1, w=1, p=0, w0=25.0, k_fixed=1.0)
    v = build_vector_lg(spec, lg_grid)
    res = norm(apply_W(v) - v)
    # paraxial residual at the (2/(w0 k))^2 scale
    assert 1e-5 < res < 0.05
    assert transverse_residual(v) < 1e-3


@pytest.fixture(scope="module")
def paraxial_grid():
    return build_grid(GridSpec(n_k=8, k_min=0.87, k_max=1.13, n_theta=512, n_phi=12))


def test_vector_lg_frame_rows_match_closed_form(paraxial_grid):
    # the rows the builder writes against its Cartesian paraxial spinor,
    # converted by the forward conversion
    grid = paraxial_grid
    for m in (-2, 0, 1, 3):
        for p in (0, 2):
            for w in (1, -1):
                spec = ModeSpec(kind="vector_lg", m=m, p=p, w=w, w0=20.0, k_fixed=1.0,
                                radial_profile={"sigma_k": 0.02})
                got = build_vector_lg(spec, grid).c
                want = _lg_nodewise(grid, m, w, p, 20.0, 1.0, 0.02).c
                err = np.abs(got - want).max() / np.abs(want).max()
                assert err <= 1e-14, (m, p, w, err)


def test_vector_lg_paraxiality_warning(lg_grid):
    spec = ModeSpec(kind="vector_lg", m=1, w=1, p=0, w0=10.0, k_fixed=1.0)
    with pytest.warns(UserWarning, match="paraxial"):
        build_vector_lg(spec, lg_grid)


def test_build_mode_dispatch(grid):
    v = build_mode(_j3w_spec(1, 1), grid)
    s3v = apply_S(3, v)
    assert norm(s3v) > 0.1
