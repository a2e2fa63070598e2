"""The verify programs: moments off the frame kernel, NaN-safe worst cases.

`paraxial_suite`, `sam_convergence` and `never_eigenstate` read their means
and dispersions off `wavefunction.FrameMoments`; the Cartesian operator path
(`oracles`: the cross products for S and W and the component-wise inner
product on `values`, with J3 applied) is the oracle.  Every worst case must
keep a NaN residual, so that the row it feeds fails.
"""

import math

import numpy as np
import pytest
from scipy.special import eval_genlaguerre, gammaln

from oracles import cartesian_inner, cartesian_norm, cross_S, cross_W
from photon_angmom import cli, operators, verify, wavefunction
from photon_angmom.grid import GridSpec, build_grid
from photon_angmom.modes import ModeSpec, build_mode
from photon_angmom.grid import gauss_legendre
from photon_angmom.operators import apply_J3_azimuthal
from photon_angmom.vsh import vsh_basis
from photon_angmom.wavefunction import FrameMoments, WaveFunction


def _oracle(v, w=None):
    """The Cartesian operator path: means by the component-wise inner
    product of the samples, dispersions by their norm."""
    grid, vals = v.grid, v.values

    def mean(ov):
        return cartesian_inner(grid, vals, ov).real

    def dispersion(ov, about):
        return cartesian_norm(grid, ov - vals * about)

    sv = [cross_S(ax, v) for ax in (1, 2, 3)]
    sam = np.array([mean(s) for s in sv])
    wv = cross_W(v)
    helicity = mean(wv)
    j3v = apply_J3_azimuthal(v).values
    j3 = mean(j3v)
    l3v = j3v - sv[2]
    l3 = mean(l3v)
    return {
        "sam": sam,
        "helicity": helicity,
        "W": dispersion(wv, helicity if w is None else float(w)),
        "J3": j3,
        "J3_dispersion": dispersion(j3v, j3),
        "S3_dispersion": dispersion(sv[2], sam[2]),
        "L3": l3,
        "L3_dispersion": dispersion(l3v, l3),
    }


def _kernel(moments, w=None):
    return {
        "sam": moments.sam,
        "helicity": moments.helicity,
        "W": moments.w_dispersion(moments.helicity if w is None else w),
        "J3": moments.j3,
        "J3_dispersion": moments.j3_dispersion,
        "S3_dispersion": moments.s3_dispersion,
        "L3": moments.l3,
        "L3_dispersion": moments.l3_dispersion,
    }


def _assert_matches(got, want, label):
    for key, value in want.items():
        np.testing.assert_allclose(got[key], value, rtol=0, atol=1e-13,
                                   err_msg=f"{label}: {key}")


def test_frame_moments_match_operator_path_on_paraxial_lg():
    # a subset of the paraxial_suite matrix: c_0 is the O(theta) longitudinal
    # part, so the W residual about the label w is O((w0 k)^-2), not zero
    grid = build_grid(GridSpec(n_k=8, k_min=0.87, k_max=1.13, n_theta=512, n_phi=12))
    for m, p, w, w0 in ((-2, 0, 1, 20.0), (3, 2, -1, 20.0), (1, 1, 1, 67.0)):
        spec = ModeSpec(kind="vector_lg", m=m, p=p, w=w, w0=w0, k_fixed=1.0,
                        radial_profile={"sigma_k": 0.02})
        v = build_mode(spec, grid)
        label = f"LG m={m} p={p} w={w} w0={w0}"
        _assert_matches(_kernel(FrameMoments(v), w), _oracle(v, w), label)
        _assert_matches(_kernel(FrameMoments(v)), _oracle(v), label)


def test_frame_moments_match_operator_path_on_j3_w_eigenstates():
    grid = build_grid(GridSpec(n_k=8, k_min=0.5, k_max=1.5, n_theta=48, n_phi=16))
    for _, prof, _, _ in verify._VARIANCE_PROFILES:
        for m in verify._NEVER_M:
            for w in verify._NEVER_W:
                spec = ModeSpec(kind="j3_w_eigenstate", m=m, w=w,
                                radial_profile={"k0": 1.0, "sigma_k": 0.1},
                                theta_profile=dict(prof))
                v = build_mode(spec, grid)
                _assert_matches(_kernel(FrameMoments(v)), _oracle(v),
                                f"{prof['kind']} m={m} w={w}")


def test_frame_moments_match_operator_path_on_sam_wavepacket():
    # the largest kappa of sam_convergence
    grid = build_grid(GridSpec(n_k=10, k_min=0.5, k_max=1.5, n_theta=512, n_phi=16))
    spec = ModeSpec(kind="sam_wavepacket", w=1, kappa=400.0, s_direction=(0.0, 0.0, 1.0),
                    radial_profile={"k0": 1.0, "sigma_k": 0.1})
    v = build_mode(spec, grid)
    _assert_matches(_kernel(FrameMoments(v)), _oracle(v), "sam_wavepacket")


def _lg_ring_powers(m, p, w, w0, sigma_k, k, theta):
    """|c_w|^2, |c_-w|^2 and |c_0|^2 of the vector LG closed form (k_fixed
    = 1) on (k, theta) rings, from scipy's Laguerre polynomials; the phases
    e^{i n phi} have unit modulus, so no azimuthal node enters."""
    am = abs(m - w)
    u = 0.5 * (w0 * k * np.sin(theta)) ** 2
    lg2 = (w0**2 / (2.0 * np.pi) * np.exp(gammaln(p + 1.0) - gammaln(p + am + 1.0))
           * u**am * eval_genlaguerre(p, am, u) ** 2 * np.exp(-u))
    a2 = lg2 * np.exp(-((k - 1.0) ** 2) / (2.0 * sigma_k**2)) * (theta <= 0.5 * np.pi) / 2.0
    cos, sin = np.cos(theta), np.sin(theta)
    return (a2 * (1.0 + cos + theta * sin) ** 2 / 2.0,
            a2 * (cos - 1.0 + theta * sin) ** 2 / 2.0,
            a2 * (sin - theta * cos) ** 2)


def test_paraxial_w_and_transversality_match_ring_quadrature():
    # the first w0 of the paraxial_suite matrix: the W residual about the
    # label w and the transversality residual, against a (k, theta)
    # quadrature of the closed-form rows written out here
    grid = build_grid(GridSpec(n_k=8, k_min=0.87, k_max=1.13, n_theta=512, n_phi=12))
    xr, wr = np.polynomial.legendre.leggauss(8)
    k = 0.87 + 0.13 * (xr + 1.0)
    wk = 0.13 * wr * k**2
    xt, wt = np.polynomial.legendre.leggauss(512)
    k, theta = k[:, None], np.arccos(xt)[None, :]
    ring_weights = 2.0 * np.pi * wk[:, None] * wt[None, :]
    for spec, v in verify._lg_matrix(grid, w0=20.0):
        same, opposite, longitudinal = _lg_ring_powers(
            spec.m, spec.p, spec.w, spec.w0, 0.02, k, theta)
        totals = [np.sum(ring_weights * r) for r in (same, opposite, longitudinal)]
        w_disp = np.sqrt((4.0 * totals[1] + totals[2]) / sum(totals))
        transverse = np.sqrt(longitudinal.max() / (same + opposite + longitudinal).max())
        moments = FrameMoments(v)
        label = f"m={spec.m} p={spec.p} w={spec.w}"
        np.testing.assert_allclose(moments.w_dispersion(spec.w), w_disp, rtol=1e-12,
                                   err_msg=label)
        np.testing.assert_allclose(moments.transverse_residual, transverse, rtol=1e-12,
                                   err_msg=label)


def _counted(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


@pytest.mark.parametrize("program", ["paraxial_suite", "sam_convergence", "never_eigenstate"])
def test_frame_programs_apply_no_operator(program, monkeypatch):
    calls = dict.fromkeys(["apply_W", "apply_S", "apply_J3_azimuthal", "_multiply",
                           "ifft", "values", "_frame_rows", "_product_rows", "build_mode"], 0)
    for name in ("apply_W", "apply_S", "apply_J3_azimuthal"):
        wrapped = _counted(calls, name, getattr(operators, name))
        monkeypatch.setattr(operators, name, wrapped)
        monkeypatch.setattr(verify, name, wrapped)
    monkeypatch.setattr(operators, "_multiply",
                        _counted(calls, "_multiply", operators._multiply))
    monkeypatch.setattr(np.fft, "ifft", _counted(calls, "ifft", np.fft.ifft))
    monkeypatch.setattr(WaveFunction, "values",
                        property(_counted(calls, "values", WaveFunction.values.fget)))
    monkeypatch.setattr(wavefunction, "_frame_rows",
                        _counted(calls, "_frame_rows", wavefunction._frame_rows))
    monkeypatch.setattr(wavefunction, "_product_rows",
                        _counted(calls, "_product_rows", wavefunction._product_rows))
    monkeypatch.setattr(verify, "build_mode", _counted(calls, "build_mode", verify.build_mode))

    rows = getattr(verify, program)()
    assert all(row["pass"] for row in rows)
    assert calls.pop("build_mode") > 0
    # every mode, vector LG included, is born in the frame as factor pairs:
    # no conversion, and its rows c are never formed
    assert calls == dict.fromkeys(["apply_W", "apply_S", "apply_J3_azimuthal", "_multiply",
                                   "ifft", "values", "_frame_rows", "_product_rows"], 0)


def _poison_build(monkeypatch, which):
    """Make the `which`-th mode a verify program builds all NaN."""
    count = [0]
    real = verify.build_mode

    def build(spec, grid):
        v = real(spec, grid)
        count[0] += 1
        return v * np.nan if count[0] == which else v
    monkeypatch.setattr(verify, "build_mode", build)


def _failing(rows):
    return {row["check"] for row in rows if not row["pass"]}


def test_vsh_gram_gemm_matches_einsum():
    # the suite's basis and weights; the GEMM Gram against the einsum form
    x, wt = gauss_legendre(12)
    phi = 2.0 * np.pi * np.arange(20) / 20
    basis = vsh_basis(8, np.arccos(x), phi)
    w_ang = np.repeat(wt, 20) * (2.0 * np.pi / 20)
    mat = basis.reshape(160, 240, 3)
    want = np.einsum("iac,a,jac->ij", np.conj(mat), w_ang, mat)
    got = verify._gram(basis.reshape(160, -1), np.repeat(w_ang, 3))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
    row = verify.vsh_suite()[0]
    assert row["check"] == "vsh_orthonormality_l<=8"
    assert row["max_residual"] == np.abs(got - np.eye(160)).max() <= 1e-14


def test_nan_residual_fails_algebraic_row(monkeypatch):
    # builtin max(0.0, nan) is 0.0: the first residual of "S.S=hbar2" was lost
    count = [0]
    real = verify.norm

    def poisoned(v):
        count[0] += 1
        return math.nan if count[0] == 1 else real(v)
    monkeypatch.setattr(verify, "norm", poisoned)
    rows = verify.algebraic_suite(seed=0, n_states=2)
    assert _failing(rows) == {"S.S=hbar2"}
    assert math.isnan(rows[0]["max_residual"])


def test_nan_mode_fails_paraxial_rows(monkeypatch):
    _poison_build(monkeypatch, which=1)
    rows = verify.paraxial_suite()
    assert _failing(rows) == {"lg_J3_eigenvalue_error", "lg_J3_eigen_residual",
                              "W_residual_order", "transversality_order_at_least_2"}


def test_nan_mode_fails_never_eigenstate_rows(monkeypatch):
    # builtin min(inf, nan) is inf: a NaN dispersion was lost
    _poison_build(monkeypatch, which=3)
    rows = verify.never_eigenstate()
    assert _failing(rows) == {"S3_never_eigenstate_min_dispersion",
                              "L3_never_eigenstate_min_dispersion"}


def test_nan_com_drift_fails_time_invariance(monkeypatch):
    # stand-ins for the fields and their COM; only a real-space record holds
    # a time, so only the comparisons between times (the drift) read NaN
    monkeypatch.setattr(verify, "_com_states", lambda: (("stub", None, None, 1.0),))
    monkeypatch.setattr(verify, "k_space_com", lambda v: {"P0": 1.0})
    monkeypatch.setattr(verify, "synthesize_fields", lambda v, lattice, time: time)
    monkeypatch.setattr(verify, "real_space_com", lambda t: {"P0": 1.0, "t": t})
    monkeypatch.setattr(verify, "relative_com_difference",
                        lambda a, b, scale: {"P0": 0.0, "J3": math.nan if "t" in a else 0.0})
    rows = verify.com_crosscheck_suite()
    assert _failing(rows) == {"time_invariance[stub]"}


def test_verify_rows_and_cli_gates_share_one_pass_rule():
    # a residual exactly at its tolerance passes, and NaN fails, in both
    assert verify._row("at", 1e-8, 1e-8)["pass"]
    assert not verify._row("nan", math.nan, 1e-8)["pass"]
    cli._gate({"key": 1e-8}, "key", "at", 1e-8)
    with pytest.raises(cli.NumericalError):
        cli._gate({"key": 1e-8}, "key", "nan", math.nan)
