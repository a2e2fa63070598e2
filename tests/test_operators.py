import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import cartesian_inner, cartesian_norm, composed_J, cross_S, cross_W
from photon_angmom import operators, wavefunction
from photon_angmom.grid import GridSpec, build_grid
from photon_angmom.modes import ModeSpec, build_mode
from photon_angmom.operators import (
    apply_J,
    apply_J3_azimuthal,
    apply_J_squared,
    apply_L,
    apply_P,
    apply_S,
    apply_W,
    azimuthal_support,
    azimuthal_window,
    expansion_inner,
    observable_report,
)
from photon_angmom.polarization import helicity_basis
from photon_angmom.vsh import VshExpansion, analyze, synthesize
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
    # resolves full-window analysis at l_max = 12
    return build_grid(GridSpec(n_k=8, k_min=0.4, k_max=2.0, n_theta=18, n_phi=28))


def _rel(diff: WaveFunction, ref: WaveFunction) -> float:
    return norm(diff) / norm(ref)


def test_apply_P_actions(grid):
    v = random_state(grid, seed=0)
    p0 = apply_P(0, v)
    np.testing.assert_allclose(p0.values, grid.k[:, None] * v.values, atol=1e-15)
    p2 = apply_P(2, v)
    np.testing.assert_allclose(p2.values, grid.kvec[:, 1][:, None] * v.values, atol=1e-15)
    with pytest.raises(ValueError):
        apply_P(4, v)


def test_momentum_components_commute(grid):
    v = random_state(grid, seed=1)
    d = apply_P(1, apply_P(2, v)) - apply_P(2, apply_P(1, v))
    assert norm(d) < 1e-14 * norm(v)


def test_energy_dominates_momentum(grid):
    # omega = |k| pointwise, so <P0> >= |<P>|
    for seed in range(5):
        v = random_state(grid, seed=seed)
        e = inner_product(v, apply_P(0, v)).real
        p = np.array([inner_product(v, apply_P(j, v)).real for j in (1, 2, 3)])
        assert e >= np.linalg.norm(p)


def test_S_squared_is_identity(grid):
    v = random_state(grid, seed=2)
    ssv = apply_S(1, apply_S(1, v)) + apply_S(2, apply_S(2, v)) + apply_S(3, apply_S(3, v))
    assert _rel(ssv - v, v) < 1e-14


def test_S_components_commute(grid):
    v = random_state(grid, seed=3)
    for a, b in [(1, 2), (2, 3), (3, 1)]:
        d = apply_S(a, apply_S(b, v)) - apply_S(b, apply_S(a, v))
        assert norm(d) < 1e-14


def test_P_wedge_S_vanishes(grid):
    v = random_state(grid, seed=4)
    eps = np.zeros((3, 3, 3))
    eps[0, 1, 2] = eps[1, 2, 0] = eps[2, 0, 1] = 1.0
    eps[0, 2, 1] = eps[2, 1, 0] = eps[1, 0, 2] = -1.0
    for j in range(3):
        acc = WaveFunction(grid, np.zeros((grid.n_nodes, 3)), check=False)
        for m in range(3):
            for n in range(3):
                if eps[j, m, n] != 0.0:
                    acc = acc + eps[j, m, n] * apply_P(m + 1, apply_S(n + 1, v))
        assert norm(acc) < 1e-13 * norm(v)


def test_W_squared_and_helicity_eigenstates(grid):
    v = random_state(grid, seed=5)
    wwv = apply_W(apply_W(v))
    assert _rel(wwv - v, v) < 1e-14

    ep, em = helicity_basis(grid.khat)
    g = np.exp(-((grid.k - 1.0) ** 2))
    vp = normalize(WaveFunction(grid, g[:, None] * ep, check=False))
    vm = normalize(WaveFunction(grid, g[:, None] * em, check=False))
    assert _rel(apply_W(vp) - vp, vp) < 1e-14
    assert _rel(apply_W(vm) + vm, vm) < 1e-14
    mix = normalize(vp + vm)
    assert abs(inner_product(mix, apply_W(mix)).real) < 1e-13


def test_S_along_khat_equals_W(grid):
    # khat_l S_l = W pointwise
    v = random_state(grid, seed=6)
    sv = [apply_S(ax, v) for ax in (1, 2, 3)]
    proj = grid.khat[:, 0][:, None] * sv[0].values \
        + grid.khat[:, 1][:, None] * sv[1].values \
        + grid.khat[:, 2][:, None] * sv[2].values
    np.testing.assert_allclose(proj, apply_W(v).values, atol=1e-14)


def test_J3_and_J_squared_on_basis_elements(grid):
    rad = np.exp(-((grid.k_nodes - 1.0) ** 2))
    e = VshExpansion.single(grid, 6, 1, 2, 2, rad)
    j3 = apply_J(3, e)
    np.testing.assert_allclose(j3.coefficient(1, 2, 2), 2.0 * rad, atol=1e-14)
    jj = apply_J_squared(e)
    np.testing.assert_allclose(jj.coefficient(1, 2, 2), 6.0 * rad, atol=1e-14)

    e2 = VshExpansion.single(grid, 6, 2, 3, -1, rad)
    jsq = (
        apply_J(1, apply_J(1, e2))
        + apply_J(2, apply_J(2, e2))
        + apply_J(3, apply_J(3, e2))
    )
    np.testing.assert_allclose(jsq.coefficient(2, 3, -1), 12.0 * rad, atol=1e-13)
    # ladder annihilation at the top of the multiplet
    top = VshExpansion.single(grid, 6, 1, 3, 3, rad)
    jp = apply_J(1, top) + 1j * apply_J(2, top)  # proportional to J_plus
    assert np.abs(jp.coeffs).max() < 1e-13


def test_J_commutator_exact_in_coefficient_space(grid):
    rng = np.random.default_rng(7)
    e = VshExpansion.zero(grid, l_max=8)
    e.coeffs[:] = 0.0
    for a in (1, 2):
        for l in range(1, 9):
            for m in range(-l, l + 1):
                e.coeffs[a - 1, :, l, m + 8] = rng.standard_normal(grid.spec.n_k)
    lhs = apply_J(1, apply_J(2, e)) - apply_J(2, apply_J(1, e))
    rhs = 1j * apply_J(3, e)
    d = lhs - rhs
    assert np.abs(d.coeffs).max() < 1e-12


@pytest.mark.parametrize(
    "window", [None, (3, 7), (9, 12), (-12, -10), (5, 5), (12, 12), (-12, -12)],
    ids=["full", "off-centre", "top", "bottom", "one-order", "one-order-top", "one-order-bottom"])
def test_apply_J_is_the_composed_oracle_within_l_max(grid, window):
    # the oracle puts each ladder term on its own shifted window and embeds
    # both in one window past +-l_max; apply_J writes them into one
    # expansion clipped at +-l_max, where the oracle holds only zeros
    analyzed = analyze(random_state(grid, seed=21), 12, window)
    rng = np.random.default_rng(22)
    shape = analyzed.coeffs.shape
    # every slot filled, |m| > l and l = 0 included
    filled = VshExpansion(grid, 12, analyzed.m_min, analyzed.m_max,
                          rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    for e in (analyzed, filled):
        for axis in (1, 2):
            got = apply_J(axis, e)
            assert (got.m_min, got.m_max) == (max(e.m_min - 1, -12), min(e.m_max + 1, 12))
            m_min, _, want = composed_J(axis, e)
            lo, hi = got.m_min - m_min, got.m_max + 1 - m_min
            # every value the same float: the oracle's sum adds the zeros it
            # embeds, so only the sign of a zero may differ
            np.testing.assert_array_equal(got.coeffs, want[..., lo:hi])
            assert not np.any(want[..., :lo]) and not np.any(want[..., hi:])


@st.composite
def _band_and_two_windows(draw):
    l_max = draw(st.integers(1, 8))

    def window():
        lo = draw(st.integers(-l_max, l_max))
        return lo, draw(st.integers(lo, l_max))

    return l_max, window(), window()


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(case=_band_and_two_windows(), seed=st.integers(0, 2**32 - 1))
def test_J_algebra_on_random_windows(case, seed):
    # coefficients on 1 <= l <= l_max, |m| <= l, of two random windows
    l_max, *windows = case
    g = build_grid(GridSpec(n_k=3, k_min=0.5, k_max=1.5, n_theta=4, n_phi=4))
    rng = np.random.default_rng(seed)
    e, f = (VshExpansion.zero(g, l_max, *w) for w in windows)
    for x in (e, f):
        ls = np.arange(l_max + 1)[:, None]
        mask = (ls >= 1) & (np.abs(x.m_values) <= ls)
        x.coeffs[:] = mask * (rng.standard_normal(x.coeffs.shape)
                              + 1j * rng.standard_normal(x.coeffs.shape))
    d = apply_J(1, apply_J(2, e)) - apply_J(2, apply_J(1, e)) - 1j * apply_J(3, e)
    assert np.abs(d.coeffs).max() < 1e-12
    for ax in (1, 2, 3):
        lhs = expansion_inner(e, apply_J(ax, f))
        rhs = expansion_inner(apply_J(ax, e), f)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
        for x in (e, f, apply_J(1, e), apply_J(2, f)):
            jx = apply_J(ax, x)
            widen = 0 if ax == 3 else 1
            assert (jx.m_min, jx.m_max) == (max(x.m_min - widen, -l_max),
                                            min(x.m_max + widen, l_max))


def test_J_spectral_matches_azimuthal_J3(grid):
    rng = np.random.default_rng(8)
    e = VshExpansion.zero(grid, l_max=10)
    for a in (1, 2):
        for l in range(1, 11):
            for m in range(-l, l + 1):
                e.coeffs[a - 1, :, l, m + 10] = rng.standard_normal(
                    grid.spec.n_k
                ) + 1j * rng.standard_normal(grid.spec.n_k)
    v = synthesize(e)
    j3_spectral = synthesize(apply_J(3, analyze(v, 10)))
    j3_exact = apply_J3_azimuthal(v)
    assert _rel(j3_spectral - j3_exact, v) < 1e-10


def test_J3_azimuthal_on_helicity_state(grid):
    # e^{i(m-w)phi} eps^(w) is an exact J3 eigenstate with eigenvalue m
    ep, _ = helicity_basis(grid.khat)
    for m in (-1, 0, 2):
        vals = (np.exp(1j * (m - 1) * grid.phi) * np.exp(-((grid.k - 1.2) ** 2)))[
            :, None
        ] * ep
        v = normalize(WaveFunction(grid, vals, check=False))
        jv = apply_J3_azimuthal(v)
        assert _rel(jv - float(m) * v, v) < 1e-13


def test_L_on_basis_element(grid):
    rad = np.exp(-((grid.k_nodes - 1.2) ** 2))
    e = VshExpansion.single(grid, 7, 1, 3, 1, rad)
    v = normalize(synthesize(e))
    lv = apply_L(3, v, l_max=7)
    # <L3> = m - <S3>
    s3 = inner_product(v, apply_S(3, v)).real
    np.testing.assert_allclose(inner_product(v, lv).real, 1.0 - s3, atol=1e-10)


def test_hermiticity(grid):
    u = random_state(grid, seed=9)
    v = random_state(grid, seed=10)
    for op in (
        lambda w: apply_P(0, w),
        lambda w: apply_P(3, w),
        lambda w: apply_S(1, w),
        lambda w: apply_S(3, w),
        apply_W,
    ):
        lhs = inner_product(u, op(v))
        rhs = inner_product(op(u), v)
        assert abs(lhs - rhs) < 1e-13
    eu = analyze(u, 12)
    ev = analyze(v, 12)
    for ax in (1, 2, 3):
        lhs = expansion_inner(eu, apply_J(ax, ev))
        rhs = expansion_inner(apply_J(ax, eu), ev)
        assert abs(lhs - rhs) < 1e-10


def test_azimuthal_window_detection(grid):
    ep, em = helicity_basis(grid.khat)
    g = np.exp(-((grid.k - 1.0) ** 2))
    vals = (g * np.exp(2j * grid.phi))[:, None] * ep \
        + (g * np.exp(-1j * grid.phi))[:, None] * em
    v = normalize(WaveFunction(grid, vals, check=False))
    # orders: 2 + 1 = 3 from the plus part, -1 - 1 = -2... the minus part
    # carries local helicity -1 so its J3 order is (-1) + (-1) = -2? no:
    # m - w = -1 with w = -1 gives m = -2
    lo, hi = azimuthal_window(v, l_max=12)
    assert lo == -2 and hi == 3


def test_observable_report_random_state(grid):
    v = random_state(grid, seed=11)
    rep = observable_report(v, l_max=12)
    np.testing.assert_allclose(
        rep.sam_variance,
        rep.sam_second_moments - np.outer(rep.sam, rep.sam),
        atol=1e-14,
    )
    assert np.all(np.diag(rep.sam_variance) >= -1e-12)
    np.testing.assert_allclose(rep.total_am, rep.oam + rep.sam, atol=1e-12)
    assert rep.energy >= np.linalg.norm(rep.momentum)
    assert abs(rep.helicity) <= 1.0 + 1e-12
    d = rep.to_dict()
    assert set(d) == {
        "energy", "momentum", "total_am", "oam", "sam", "helicity",
        "sam_second_moments", "sam_variance", "eigen_residuals",
    }


_SWEEP_STATES = {
    "vector_lg": (GridSpec(n_k=8, k_min=0.94, k_max=1.06, n_theta=256, n_phi=12),
                  ModeSpec(kind="vector_lg", m=2, w=-1, p=1, w0=25.0, k_fixed=1.0)),
    "j3_w_eigenstate": (
        GridSpec(n_k=12, k_min=0.5, k_max=1.5, n_theta=32, n_phi=32),
        ModeSpec(kind="j3_w_eigenstate", m=-2, w=1, radial_profile={"k0": 1.0, "sigma_k": 0.12},
                 theta_profile={"kind": "gaussian_in_theta", "theta0": 0.3, "sigma_theta": 0.3})),
    "sam_wavepacket": (
        GridSpec(n_k=12, k_min=0.5, k_max=1.5, n_theta=64, n_phi=64),
        ModeSpec(kind="sam_wavepacket", w=1, kappa=7.0,
                 s_direction=[np.sin(0.25), 0.0, np.cos(0.25)],
                 radial_profile={"k0": 1.0, "sigma_k": 0.1})),
    "random": (GridSpec(n_k=12, k_min=0.5, k_max=1.5, n_theta=32, n_phi=32), None),
}


@pytest.mark.parametrize("name", list(_SWEEP_STATES))
def test_observable_report_J1_J2_are_the_applied_operators(name):
    # the report's one ladder pass against <e, J_i e> on its own expansion
    spec, mode = _SWEEP_STATES[name]
    g = build_grid(spec)
    v = random_state(g, seed=23) if mode is None else build_mode(mode, g)
    rep = observable_report(v)
    l_max = min(spec.n_theta - 1, 96)
    e = analyze(v, l_max, azimuthal_window(v, l_max))
    want = [expansion_inner(e, apply_J(ax, e)).real for ax in (1, 2)]
    np.testing.assert_allclose(rep.total_am[:2], want, rtol=0, atol=1e-15)
    if e.m_min == e.m_max:
        # a J3 eigenstate's one-order window holds no ladder pair
        assert list(rep.total_am[:2]) == [0.0, 0.0]
    else:
        assert np.abs(rep.total_am[:2]).max() > 1e-3


def test_observable_report_eigenstate_residuals(grid):
    ep, _ = helicity_basis(grid.khat)
    g = np.exp(-((grid.k - 1.0) ** 2) / 0.08)
    vals = (g * np.exp(1j * grid.phi))[:, None] * ep  # m = 2, w = +1
    v = normalize(WaveFunction(grid, vals, check=False))
    rep = observable_report(v)
    np.testing.assert_allclose(rep.total_am[2], 2.0, atol=1e-12)
    np.testing.assert_allclose(rep.helicity, 1.0, atol=1e-13)
    assert rep.eigen_residuals["J3"] < 1e-12
    assert rep.eigen_residuals["W"] < 1e-12
    # uniform-in-x profile: S3 dispersion is sqrt(<x^2>) = 1/sqrt(3)
    np.testing.assert_allclose(rep.eigen_residuals["S3"], 1.0 / np.sqrt(3.0), rtol=1e-6)
    assert rep.eigen_residuals["L3"] > 0.05


def test_observable_report_rejects_unnormalized(grid):
    v = random_state(grid, seed=12)
    with pytest.raises(ValueError):
        observable_report(2.0 * v)


def _projected_carrier(grid):
    return build_mode(ModeSpec(
        kind="sam_wavepacket", w=1, s_direction=(0.4, 0.1, 1.0), kappa=8.0,
        radial_profile={"k0": 1.2, "sigma_k": 0.2}, carrier="projected"), grid)


def test_apply_S_and_W_match_cartesian_cross_product(grid):
    # the frame multipliers h_a khat_l and h_a against i khat_l (khat x v)
    # and i khat x v on the Cartesian samples.  Vector LG carries a small
    # longitudinal row c_0 and the padded state a large one; both forms drop it
    rand = random_state(grid, seed=4)
    padded = rand + WaveFunction(grid, grid.khat * rand.values[:, :1], check=False)
    for v in (rand, _readme_lg(), _projected_carrier(grid), padded):
        atol = 1e-13 * np.abs(v.values).max()
        np.testing.assert_allclose(apply_W(v).values, cross_W(v), rtol=0, atol=atol)
        for ax in (1, 2, 3):
            np.testing.assert_allclose(apply_S(ax, v).values, cross_S(ax, v),
                                       rtol=0, atol=atol)


def sigma3(values):
    """Spin-1 matrix S3 applied componentwise: (S3 v) = (-i v_y, i v_x, 0)."""
    values = np.asarray(values)
    out = np.zeros_like(values, dtype=complex)
    out[..., 0] = -1j * values[..., 1]
    out[..., 1] = 1j * values[..., 0]
    return out


def test_sigma3_action():
    v = np.array([[1.0 + 0j, 2.0, 3.0]])
    out = sigma3(v)
    np.testing.assert_allclose(out, [[-2j, 1j, 0.0]], atol=1e-15)
    # eigenvectors: (1, i, 0) has eigenvalue +1, (1, -i, 0) has -1
    vp = np.array([[1.0, 1j, 0.0]])
    vm = np.array([[1.0, -1j, 0.0]])
    np.testing.assert_allclose(sigma3(vp), vp, atol=1e-15)
    np.testing.assert_allclose(sigma3(vm), -vm, atol=1e-15)


def test_J3_azimuthal_matches_strided_fft(grid):
    # oracle: the Cartesian J3 = -i d/dphi + Sigma3, with the FFT taken along
    # the strided phi axis of the node-major cube.  The states are bandlimited
    # (l <= 10 on n_phi = 28), so no Cartesian channel reaches the Nyquist bin
    # and both frames resolve every order.
    mu = np.rint(np.fft.fftfreq(grid.spec.n_phi) * grid.spec.n_phi)
    rng = np.random.default_rng(6)
    for _ in range(2):
        e = VshExpansion.zero(grid, l_max=10)
        e.coeffs[:] = rng.standard_normal(e.coeffs.shape) \
            + 1j * rng.standard_normal(e.coeffs.shape)
        v = normalize(synthesize(e))
        cube = v.values.reshape(grid.shape + (3,))
        orb = np.fft.ifft(np.fft.fft(cube, axis=2) * mu[None, None, :, None], axis=2)
        want = WaveFunction(grid, orb.reshape(-1, 3) + sigma3(v.values), check=False)
        assert _rel(apply_J3_azimuthal(v) - want, want) < 1e-13


def test_J3_azimuthal_resolves_order_on_cartesian_nyquist_bin():
    # e^{4 i phi} eps_+ is a J3 = 5 eigenstate.  Its x + i y channel carries
    # order 6, the Nyquist bin of n_phi = 12, where a Cartesian FFT cannot
    # tell +6 from -6; its helicity row c_+ sits on bin 4.
    g = build_grid(GridSpec(n_k=4, k_min=0.5, k_max=1.5, n_theta=16, n_phi=12))
    ep, _ = helicity_basis(g.khat)
    radial = np.exp(-((g.k - 1.0) ** 2) / 0.1)
    v = normalize(WaveFunction(g, (radial * np.exp(4j * g.phi))[:, None] * ep))
    assert norm(apply_J3_azimuthal(v) - 5.0 * v) <= 1e-13
    rep = observable_report(v)
    assert abs(rep.total_am[2] - 5.0) <= 1e-12
    assert rep.eigen_residuals["J3"] <= 1e-12
    assert all((bins != -6).all() for bins in azimuthal_support(v).values())


def _readme_lg():
    g = build_grid(GridSpec(n_k=8, k_min=0.94, k_max=1.06, n_theta=256, n_phi=12))
    return build_mode(ModeSpec(kind="vector_lg", m=2, w=-1, p=1, w0=25.0, k_fixed=1.0), g)


def test_observable_report_spin_entries_match_apply_S_and_W(grid):
    # the report reads S, W, J3 and L3 off frame densities and one phi-FFT;
    # the oracle is the Cartesian cross product and inner product on the
    # samples v, with J3 applied (`test_J3_azimuthal_matches_strided_fft`)
    ep, em = helicity_basis(grid.khat)
    g = np.exp(-((grid.k - 1.0) ** 2) / 0.08)
    tilted = normalize(WaveFunction(
        grid, (g * np.exp(1j * grid.phi))[:, None] * (ep + 0.3 * em), check=False))
    # the paraxial LG mode carries a longitudinal row c_0; it and the
    # projected carrier are converted from Cartesian closed forms
    for v in (random_state(grid, seed=13), tilted, _readme_lg(), _projected_carrier(grid)):
        d = observable_report(v).to_dict()
        vals = v.values

        def inner(a, b):
            return cartesian_inner(v.grid, a, b).real

        sv = [cross_S(ax, v) for ax in (1, 2, 3)]
        sam = np.array([inner(vals, s) for s in sv])
        second = np.empty((3, 3))
        for a in range(3):
            for b in range(a, 3):
                second[a, b] = second[b, a] = inner(sv[a], sv[b])
        wv = cross_W(v)
        helicity = inner(vals, wv)
        j3v = apply_J3_azimuthal(v).values
        j3 = inner(vals, j3v)

        def dispersion(ov, mean):
            return cartesian_norm(v.grid, ov - vals * mean)

        want = {
            "sam": sam,
            "sam_second_moments": second,
            "sam_variance": second - np.outer(sam, sam),
            "helicity": helicity,
            "total_am": j3,
            "oam": j3 - sam[2],
            "eigen_residuals": [
                dispersion(j3v, j3),
                dispersion(wv, helicity),
                dispersion(sv[2], sam[2]),
                dispersion(j3v - sv[2], j3 - sam[2]),
            ],
        }
        got = dict(d, total_am=d["total_am"][2], oam=d["oam"][2],
                   eigen_residuals=[d["eigen_residuals"][k] for k in ("J3", "W", "S3", "L3")])
        for key, value in want.items():
            np.testing.assert_allclose(got[key], value, rtol=0, atol=1e-13, err_msg=key)
        np.testing.assert_allclose(d["oam"], np.array(d["total_am"]) - sam, rtol=0, atol=1e-13)


def _counted(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def test_observable_report_takes_one_fft_and_no_operator(grid, monkeypatch):
    # on an unfactored state and on a product state, whose one FFT is of
    # the factor that owns phi
    factored = build_mode(ModeSpec(kind="sam_wavepacket", w=1, kappa=6.0,
                                   s_direction=(0.2, 0.1, 1.0)), grid)
    for v in (random_state(grid, seed=14), _readme_lg(), factored):
        calls = {"fft": 0, "ifft": 0, "_multiply": 0}
        monkeypatch.setattr(np.fft, "fft", _counted(calls, "fft", np.fft.fft))
        monkeypatch.setattr(np.fft, "ifft", _counted(calls, "ifft", np.fft.ifft))
        monkeypatch.setattr(operators, "_multiply",
                            _counted(calls, "_multiply", operators._multiply))
        observable_report(v)
        assert calls == {"fft": 1, "ifft": 0, "_multiply": 0}
        monkeypatch.undo()


def test_frame_born_state_forms_no_cartesian_samples(grid, monkeypatch):
    # a state built from its frame rows goes through every frame-native
    # operation without the forward conversion and without forming `values`
    calls = {"_frame_rows": 0, "values": 0}
    monkeypatch.setattr(wavefunction, "_frame_rows",
                        _counted(calls, "_frame_rows", wavefunction._frame_rows))
    monkeypatch.setattr(WaveFunction, "values",
                        property(_counted(calls, "values", WaveFunction.values.fget)))
    v = random_state(grid, seed=16)
    observable_report(v)
    synthesize(analyze(v, 12))
    for u in (apply_P(0, v), apply_P(2, v), apply_S(1, v), apply_W(v),
              apply_J3_azimuthal(v), normalize(2.0 * v), v.project_transverse()):
        norm(u)
        transverse_residual(u)
    assert calls == {"_frame_rows": 0, "values": 0}
    # the Cartesian boundary: one conversion in, one formation out
    WaveFunction(grid, v.values).project_transverse()
    assert calls == {"_frame_rows": 1, "values": 1}


def test_stored_samples_are_read_only(grid):
    v = random_state(grid, seed=17)
    with pytest.raises(ValueError):
        v.values[0, 0] = 1.0
    with pytest.raises(ValueError):
        v.c[0, 0, 0, 0] = 1.0
    u = WaveFunction(grid, np.ones((grid.n_nodes, 3)), check=False)
    with pytest.raises(ValueError):
        u.c[2] *= 0.0


def test_fft_calls_fit_the_numpy_1_signature(grid, monkeypatch):
    # pyproject allows numpy >= 1.24, whose fft and ifft take no `out`
    def numpy_1(fn):
        def wrapper(a, n=None, axis=-1, norm=None):
            return fn(a, n=n, axis=axis, norm=norm)
        return wrapper

    monkeypatch.setattr(np.fft, "fft", numpy_1(np.fft.fft))
    monkeypatch.setattr(np.fft, "ifft", numpy_1(np.fft.ifft))
    v = random_state(grid, seed=15)
    apply_J3_azimuthal(v)
    azimuthal_support(v)
    observable_report(normalize(apply_S(1, v)))
    synthesize(analyze(v, 12))
