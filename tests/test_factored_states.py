"""Product states held as factor pairs: moments from per-factor sums.

A built mode keeps each frame row as the factor pair its builder made,
c_a = F_a G_a; `FrameMoments` and the report sum each factor on its own
axes.  The oracle is the same rows held unfactored, `from_frame(grid,
v.c)`, whose pair is (c, 1): every quantity must agree within 1e-13.
"""

import numpy as np
import pytest

from photon_angmom import wavefunction
from photon_angmom.grid import GridSpec, build_grid
from photon_angmom.modes import ModeSpec, build_mode
from photon_angmom.operators import FrameMoments, azimuthal_support, observable_report
from photon_angmom.wavefunction import WaveFunction, norm, normalize, transverse_residual

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

