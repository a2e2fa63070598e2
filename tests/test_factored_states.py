"""Product states held as factor pairs: moments from per-factor sums.

A built mode keeps each frame row as the factor pair its builder made,
c_a = F_a G_a; `FrameMoments` and the report sum each factor on its own
axes.  The oracle is the same rows held unfactored, `from_frame(grid,
v.c)`, whose pair is (c, 1): every quantity must agree within 1e-13, on
the builders' modes and on random factor pairs of every split.  A state
keeps one set of moments, so every reader shares one factor pass and one
phi-FFT.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from photon_angmom import wavefunction
from photon_angmom.grid import GridSpec, build_grid
from photon_angmom.modes import ModeSpec, build_mode
from photon_angmom.operators import azimuthal_support, observable_report
from photon_angmom.vsh import analyze
from photon_angmom.wavefunction import (
    FrameMoments,
    WaveFunction,
    norm,
    normalize,
    transverse_residual,
)

_LG = dict(kind="vector_lg", w0=25.0, k_fixed=1.0)
_RADIAL = {"k0": 1.0, "sigma_k": 0.15}
_SPECS = {
    "vector_lg": [ModeSpec(m=m, w=w, p=p, **_LG) for m, w, p in ((2, -1, 1), (0, 1, 0))],
    "j3_w_eigenstate": [
        ModeSpec(kind="j3_w_eigenstate", m=m, w=w, radial_profile=_RADIAL, theta_profile=prof)
        for m, w in ((1, 1), (-2, -1))
        for prof in ({"kind": "gaussian_in_theta", "theta0": 0.4, "sigma_theta": 0.3},
                     {"kind": "uniform_band", "x_lo": -0.3, "x_hi": 0.8})
    ],
    "sam_wavepacket": [
        ModeSpec(kind="sam_wavepacket", w=w, kappa=6.0, s_direction=(0.2, 0.1, 1.0),
                 carrier=carrier, radial_profile=_RADIAL)
        for w in (1, -1) for carrier in ("helicity", "projected")
    ],
}
_SPLIT = {"vector_lg": 2, "j3_w_eigenstate": 2, "sam_wavepacket": 1}


def _grid(kind, n_phi):
    if kind == "vector_lg":
        return build_grid(GridSpec(n_k=8, k_min=0.92, k_max=1.08, n_theta=128, n_phi=n_phi))
    return build_grid(GridSpec(n_k=10, k_min=0.5, k_max=1.5, n_theta=40, n_phi=n_phi))


def _quantities(moments):
    return {
        "totals": moments.totals,
        "peak_amplitude": moments.peak_amplitude,
        "transverse_residual": moments.transverse_residual,
        "sam": moments.sam,
        "helicity": moments.helicity,
        "W_about_1": moments.w_dispersion(1.0),
        "S3_dispersion": moments.s3_dispersion,
        "J3": moments.j3,
        "J3_dispersion": moments.j3_dispersion,
        "L3": moments.l3,
        "L3_dispersion": moments.l3_dispersion,
    }


def _flat_report(v):
    d = observable_report(v).to_dict()
    residuals = d.pop("eigen_residuals")
    return {**d, **{f"residual_{k}": value for k, value in residuals.items()}}


@pytest.mark.parametrize("n_phi", [16, 15], ids=["even_n_phi", "odd_n_phi"])
@pytest.mark.parametrize("kind", list(_SPECS))
def test_factored_moments_match_unfactored_rows(kind, n_phi):
    grid = _grid(kind, n_phi)
    for spec in _SPECS[kind]:
        v = build_mode(spec, grid)
        u = WaveFunction.from_frame(grid, v.c)
        assert (v.split, u.split) == (_SPLIT[kind], 3)
        label = f"{kind} {spec.to_dict()}"
        want = _quantities(FrameMoments(u))
        for key, value in _quantities(FrameMoments(v)).items():
            np.testing.assert_allclose(value, want[key], rtol=0, atol=1e-13,
                                       err_msg=f"{label}: {key}")
        got_support, want_support = azimuthal_support(v), azimuthal_support(u)
        for h in (1, -1, 0):
            assert np.array_equal(got_support[h], want_support[h]), label
        want = _flat_report(u)
        for key, value in _flat_report(v).items():
            np.testing.assert_allclose(value, want[key], rtol=0, atol=1e-13,
                                       err_msg=f"{label}: report {key}")
        for got, ref in ((norm(v), norm(u)), (transverse_residual(v), transverse_residual(u)),
                         (v.peak_amplitude(), u.peak_amplitude())):
            assert abs(got - ref) <= 1e-13, label


def _counted(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


@pytest.mark.parametrize("kind", list(_SPECS))
def test_product_state_forms_its_rows_only_when_read(kind, monkeypatch):
    calls = {"_product_rows": 0}
    monkeypatch.setattr(wavefunction, "_product_rows",
                        _counted(calls, "_product_rows", wavefunction._product_rows))
    grid = _grid(kind, 16)
    v = build_mode(_SPECS[kind][0], grid)
    observable_report(v)
    azimuthal_support(v)
    norm(v)
    transverse_residual(v)
    v.peak_amplitude()
    # a scalar multiple and the transverse part stay factored
    for u in (normalize(2.0 * v), v.project_transverse()):
        assert u.split == v.split
        FrameMoments(u).s3_dispersion
    assert calls == {"_product_rows": 0}
    c = v.c
    assert v.c is c and not c.flags.writeable
    assert calls == {"_product_rows": 1}
    # the scaled and projected factors form the rows of the scaled and
    # projected state
    np.testing.assert_allclose((0.5 * v).c, 0.5 * c, rtol=0, atol=1e-16 * np.abs(c).max())
    assert np.array_equal(v.project_transverse().c[:2], c[:2])
    assert not v.project_transverse().c[2].any()


def test_factors_are_read_only():
    v = build_mode(_SPECS["j3_w_eigenstate"][0], _grid("j3_w_eigenstate", 16))
    for factor in v.factors:
        with pytest.raises(ValueError):
            factor[0] *= 2.0


@pytest.mark.parametrize("kind", list(_SPECS))
def test_factored_moments_form_no_grid_node_array(kind):
    # the per-axis nodes and weights serve every factored sum; the node
    # arrays k, theta, phi, weights, khat and kvec are formed only when read
    grid = _grid(kind, 16)
    v = build_mode(_SPECS[kind][0], grid)
    observable_report(v)
    norm(v)
    transverse_residual(v)
    assert not {"k", "theta", "phi", "weights", "khat", "kvec"} & set(vars(grid))


def test_readers_share_one_set_of_moments(monkeypatch):
    # norm, the residual, the peak, the support, the report and analyze all
    # read the moments the state keeps: one FrameMoments, one power per
    # factor and per spectral factor, and one phi-FFT
    v = build_mode(_SPECS["vector_lg"][0], _grid("vector_lg", 16))
    calls = {"FrameMoments": 0, "_power": 0, "fft": 0}
    init = FrameMoments.__init__

    def counted_init(self, state):
        calls["FrameMoments"] += 1
        init(self, state)
    monkeypatch.setattr(FrameMoments, "__init__", counted_init)
    monkeypatch.setattr(wavefunction, "_power",
                        _counted(calls, "_power", wavefunction._power))
    monkeypatch.setattr(np.fft, "fft", _counted(calls, "fft", np.fft.fft))
    norm(v)
    transverse_residual(v)
    v.peak_amplitude()
    azimuthal_support(v)
    observable_report(v)
    analyze(v, 7)
    assert calls == {"FrameMoments": 1, "_power": 4, "fft": 1}


def test_unfactored_totals_equal_the_two_factor_formula(monkeypatch):
    # the pair (c, 1) skips the unit factor's power and sum: multiplying by
    # an exact 1 changes no bit
    grid = _grid("j3_w_eigenstate", 15)
    v = wavefunction.random_state(grid, seed=3) * 1.0
    assert v.split == 3 and v.factors[1] is wavefunction._UNIT
    power = wavefunction._power
    calls = {"_power": 0}
    monkeypatch.setattr(wavefunction, "_power", _counted(calls, "_power", power))
    got = v.moments.totals
    assert calls == {"_power": 1}
    wf, wg = grid.factor_weights(3)
    pf, pg = (power(x) for x in v.factors)
    want = np.sum(wf * pf, axis=(1, 2, 3)) * np.sum(wg * pg, axis=(1, 2, 3))
    assert got.tobytes() == want.tobytes()


def _moment_quantities(moments):
    return {**_quantities(moments), "energy": moments.energy,
            "momentum": moments.momentum,
            "sam_second_moments": moments.sam_second_moments}


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(split=st.sampled_from([1, 2, 3]), n_k=st.integers(1, 4), n_theta=st.integers(2, 9),
       n_phi=st.integers(4, 13), seed=st.integers(0, 2**32 - 1))
def test_random_factor_pairs_match_unfactored_rows(split, n_k, n_theta, n_phi, seed):
    grid = build_grid(GridSpec(n_k=n_k, k_min=0.5, k_max=1.5, n_theta=n_theta, n_phi=n_phi))
    rng = np.random.default_rng(seed)

    def factor(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    # split 3 is the unfactored pair (c, 1)
    F = factor((3,) + grid.shape[:split] + (1,) * (3 - split))
    G = factor((3,) + (1,) * split + grid.shape[split:]) if split < 3 else np.ones((3, 1, 1, 1))
    raw = WaveFunction._from_factors(grid, split, F, G)
    v = WaveFunction._from_factors(grid, split, F / norm(raw), G)
    u = WaveFunction.from_frame(grid, v.c)
    assert u.split == 3
    label = f"split {split}, grid {grid.shape}, seed {seed}"

    def close(got, want, what):
        scale = max(1.0, float(np.max(np.abs(want))))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * scale,
                                   err_msg=f"{label}: {what}")
    want = _moment_quantities(u.moments)
    for key, value in _moment_quantities(v.moments).items():
        close(value, want[key], key)
    got_support, want_support = azimuthal_support(v), azimuthal_support(u)
    for h in (1, -1, 0):
        assert np.array_equal(got_support[h], want_support[h]), label
    want = _flat_report(u)
    for key, value in _flat_report(v).items():
        close(value, want[key], f"report {key}")
    l_max = min(n_theta - 1, (n_phi - 1) // 2)
    close(analyze(v, l_max).coeffs, analyze(u, l_max).coeffs, "analyze")
