"""Identity suites and convergence programs with machine-readable verdicts.

Every suite returns a list of rows

    {"check": str, "max_residual": float, "tolerance": float, "pass": bool}

so callers (CLI, acceptance tests) can render or gate on them uniformly.
For order-of-convergence checks, max_residual holds the deviation of the
fitted order from its nominal value; for "never an eigenstate" checks it
holds the smallest observed dispersion, which must exceed the tolerance.
Any other row passes when its residual is at most its tolerance, the rule
of the CLI gates.  Worst cases are taken with NaN-propagating reductions
(`_worst`, `np.min`), so a NaN residual fails its row instead of being
dropped.

The identity suites apply the operators; the programs that only need a
mean or a dispersion (`paraxial_suite`, `sam_convergence`,
`never_eigenstate`) read it off the state's moments
(`WaveFunction.moments`, a `wavefunction.FrameMoments`), the factor-sum
and Parseval kernel that `observable_report` reads too, with no operator
applied and no row of a built mode formed.

Suites are deterministic: random states derive from explicit seeds, and
all grid and lattice parameters are frozen here.  Every program takes an
optional `seed` (the fixed-state programs ignore it) and is registered in
SUITES under its CLI name; `run_suite("all")` runs them all.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.laguerre import laggauss

from .grid import GridSpec, build_grid, gauss_legendre
from .modes import ModeSpec, build_mode, scalar_lg, theta_distribution
from .operators import (
    apply_J,
    apply_J3_azimuthal,
    apply_J_squared,
    apply_L,
    apply_P,
    apply_S,
    apply_W,
    observable_report,
)
from .synthesis import (
    SpaceTimeLattice,
    k_space_com,
    real_space_com,
    relative_com_difference,
    synthesize_fields,
)
from .vsh import VshExpansion, analyze, synthesize, vsh_basis
from .wavefunction import norm, normalize, random_state

__all__ = [
    "algebraic_suite",
    "spectral_suite",
    "vsh_suite",
    "paraxial_suite",
    "com_crosscheck_suite",
    "variance_program",
    "sam_convergence",
    "never_eigenstate",
    "SUITES",
    "run_suite",
]

_EPS_LEVI = [(1, 2, 3), (2, 3, 1), (3, 1, 2)]


def _row(check, max_residual, tolerance, ok=None):
    if ok is None:
        ok = bool(max_residual <= tolerance)
    return {
        "check": str(check),
        "max_residual": float(max_residual),
        "tolerance": float(tolerance),
        "pass": bool(ok),
    }


def _worst(*residuals) -> float:
    """The largest residual, NaN if any is NaN (builtin max drops a NaN)."""
    if any(map(math.isnan, residuals)):
        return math.nan
    return float(max(residuals))


def algebraic_suite(seed: int = 0, n_states: int = 20):
    """Pointwise operator identities on random transverse states."""
    grid = build_grid(GridSpec(n_k=6, k_min=0.5, k_max=2.0, n_theta=10, n_phi=12))
    worst = {
        "S.S=hbar2": 0.0,
        "W.W=hbar2": 0.0,
        "PxS=0": 0.0,
        "[S_l,S_m]=0": 0.0,
        "[S_l,W]=0": 0.0,
        "[S_l,P_m]=0": 0.0,
    }
    for i in range(n_states):
        v = random_state(grid, seed=seed + i)
        sv = [apply_S(l, v) for l in (1, 2, 3)]
        ssv = sum((apply_S(l, sv[l - 1]) for l in (1, 2, 3)), start=v * 0.0)
        worst["S.S=hbar2"] = _worst(worst["S.S=hbar2"], norm(ssv - v))
        wv = apply_W(v)
        worst["W.W=hbar2"] = _worst(worst["W.W=hbar2"], norm(apply_W(wv) - v))
        for j, l, n in _EPS_LEVI:
            plus = apply_P(j, sv[l - 1]) - apply_P(l, sv[j - 1])
            worst["PxS=0"] = _worst(worst["PxS=0"], norm(plus))
        for l in (1, 2, 3):
            for m in (1, 2, 3):
                comm = apply_S(l, sv[m - 1]) - apply_S(m, sv[l - 1])
                worst["[S_l,S_m]=0"] = _worst(worst["[S_l,S_m]=0"], norm(comm))
                comm_p = apply_S(l, apply_P(m, v)) - apply_P(m, sv[l - 1])
                worst["[S_l,P_m]=0"] = _worst(worst["[S_l,P_m]=0"], norm(comm_p))
            comm_w = apply_S(l, wv) - apply_W(sv[l - 1])
            worst["[S_l,W]=0"] = _worst(worst["[S_l,W]=0"], norm(comm_w))
    return [_row(name, res, 1e-13) for name, res in worst.items()]


def _random_bandlimited(grid, l_max, l_top, seed):
    """Random expansion with support on 1 <= l <= l_top, |m| <= l."""
    rng = np.random.default_rng(seed)
    e = VshExpansion.zero(grid, l_max, m_min=-l_top, m_max=l_top)
    c = rng.standard_normal(e.coeffs.shape) + 1j * rng.standard_normal(e.coeffs.shape)
    ls = np.arange(l_max + 1)
    ms = e.m_values
    mask = (ls[:, None] >= 1) & (ls[:, None] <= l_top) & (np.abs(ms)[None, :] <= ls[:, None])
    e.coeffs[:] = c * mask[None, None, :, :]
    return e


def spectral_suite(seed: int = 0):
    """Commutator and composition identities on bandlimited states."""
    l_max = 16
    grid = build_grid(GridSpec(n_k=4, k_min=0.5, k_max=1.5, n_theta=24, n_phi=40))
    e = _random_bandlimited(grid, l_max, l_top=l_max - 1, seed=seed)
    v = synthesize(e)
    nv = norm(v)
    v = v * (1.0 / nv)
    e = e * (1.0 / nv)

    r_jj = 0.0
    for j, l, n in _EPS_LEVI:
        d = (
            apply_J(j, apply_J(l, e))
            - apply_J(l, apply_J(j, e))
            - 1j * apply_J(n, e)
        )
        r_jj = _worst(r_jj, np.sqrt(d.norm_squared()))

    jv = {l: synthesize(apply_J(l, e)) for l in (1, 2, 3)}
    sv = {m: apply_S(m, v) for m in (1, 2, 3)}
    r_js = 0.0
    eps = np.zeros((4, 4, 4))
    for j, l, n in _EPS_LEVI:
        eps[j, l, n] = 1.0
        eps[l, j, n] = -1.0
    for l in (1, 2, 3):
        for m in (1, 2, 3):
            lhs = synthesize(apply_J(l, analyze(sv[m], l_max))) - apply_S(m, jv[l])
            rhs = v * 0.0
            for n in (1, 2, 3):
                if eps[l, m, n] != 0.0:
                    rhs = rhs + sv[n] * (1j * eps[l, m, n])
            r_js = _worst(r_js, norm(lhs - rhs))

    ls_sum = v * 0.0
    for l in (1, 2, 3):
        ls_sum = ls_sum + apply_L(l, sv[l], l_max=l_max)
    r_ls = norm(ls_sum)

    r_pl = norm(sum((apply_P(l, apply_L(l, v, l_max=l_max, expansion=e)) for l in (1, 2, 3)),
                    start=v * 0.0))

    def l3(u):
        return apply_J3_azimuthal(u) - apply_S(3, u)

    wv = apply_W(v)
    r_l3w = norm(l3(wv) - apply_W(l3(v)))

    return [
        _row("[J_j,J_l]=i_eps_J_n", r_jj, 1e-8),
        _row("[J_l,S_m]=i_eps_S_n", r_js, 1e-8),
        _row("L.S=0", r_ls, 1e-8),
        _row("P.L=0", r_pl, 1e-8),
        _row("[L3,W]=0", r_l3w, 1e-8),
    ]


def _gram(basis, weights):
    """The Gram matrix conj(B) diag(w) B^T of the rows of `basis`, as one
    GEMM against a single weighted copy of the basis."""
    weighted = basis * weights
    return np.conj(weighted, out=weighted) @ basis.T


def vsh_suite(seed: int = 0):
    """Basis orthonormality, transform round trip, eigen-residuals."""
    x, wt = gauss_legendre(12)
    n_phi = 20
    phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
    # (n_basis, angle . component): Y1 and Y2 of each (l, m), on the
    # product of the polar nodes and the azimuths, components last
    basis = vsh_basis(8, np.arccos(x), phi).reshape(-1, x.size * n_phi * 3)
    gram = _gram(basis, np.repeat(wt * (2.0 * np.pi / n_phi), n_phi * 3))
    r_orth = float(np.abs(gram - np.eye(len(basis))).max())

    grid = build_grid(GridSpec(n_k=3, k_min=0.5, k_max=1.5, n_theta=16, n_phi=24))
    l_rt = 10
    e = _random_bandlimited(grid, l_rt, l_top=l_rt, seed=seed)
    scale = np.sqrt(e.norm_squared())
    e = e * (1.0 / scale)
    back = analyze(synthesize(e), l_rt)
    r_rt = np.sqrt((back - e).norm_squared())

    r_j3 = 0.0
    r_j2 = 0.0
    radial = np.exp(-grid.k_nodes)
    for a, l, m in ((1, 1, 0), (2, 1, 1), (1, 3, -2), (2, 5, 4), (1, 8, -8), (2, 8, 3)):
        single = VshExpansion.single(grid, l_rt, a, l, m, radial)
        vb = synthesize(single)
        nb = norm(vb)
        eb = analyze(vb, l_rt)
        r_j3 = _worst(r_j3, norm(synthesize(apply_J(3, eb)) - vb * float(m)) / nb)
        r_j2 = _worst(
            r_j2,
            norm(synthesize(apply_J_squared(eb)) - vb * float(l * (l + 1))) / nb,
        )

    return [
        _row("vsh_orthonormality_l<=8", r_orth, 1e-10),
        _row("vsh_roundtrip_l<=10", r_rt, 1e-10),
        _row("vsh_J3_eigen_residual", r_j3, 1e-10),
        _row("vsh_J2_eigen_residual", r_j2, 1e-10),
    ]


_LG_M = (-2, 0, 1, 3)
_LG_P = (0, 1, 2)
_LG_W = (1, -1)
_LG_SWEEP = (20.0, 30.0, 45.0, 67.0)


def _lg_matrix(grid, w0):
    for m in _LG_M:
        for p in _LG_P:
            for w in _LG_W:
                spec = ModeSpec(
                    kind="vector_lg", m=m, p=p, w=w, w0=w0, k_fixed=1.0,
                    radial_profile={"sigma_k": 0.02},
                )
                yield spec, build_mode(spec, grid)


def paraxial_suite(seed: int = 0):
    """Vector LG eigenstructure, paraxial convergence orders, scalar norms.

    Deterministic; `seed` is accepted for the uniform suite signature.
    Each mode is built once and read once from its frame-row factors
    (`WaveFunction.moments`), without forming its rows: the W residual about the
    label w is sqrt(sum_a (h_a - w)^2 <c_a, c_a>), and transversality is
    the largest longitudinal part |c_0| over the largest node amplitude.
    On the first w0 of the sweep the J3 mean and dispersion are Parseval
    sums over one phi-FFT of the phase factors.
    """
    grid = build_grid(GridSpec(n_k=8, k_min=0.87, k_max=1.13, n_theta=512, n_phi=12))

    r_j3_disp = 0.0
    r_j3_eig = 0.0
    w_res = []
    t_res = []
    for w0 in _LG_SWEEP:
        rw = 0.0
        rt = 0.0
        for spec, v in _lg_matrix(grid, w0=w0):
            moments = v.moments
            if w0 == _LG_SWEEP[0]:
                r_j3_eig = _worst(r_j3_eig, abs(moments.j3 - spec.m))
                r_j3_disp = _worst(r_j3_disp, moments.j3_dispersion)
            rw = _worst(rw, moments.w_dispersion(spec.w))
            rt = _worst(rt, moments.transverse_residual)
        w_res.append(rw)
        t_res.append(rt)
    lx = np.log(np.array(_LG_SWEEP))
    w_order = -np.polyfit(lx, np.log(w_res), 1)[0]
    t_order = -np.polyfit(lx, np.log(t_res), 1)[0]

    lag_u, lag_w = laggauss(80)
    def overlap(m, pa, pb, w0=3.0):
        rho = np.sqrt(2.0 * lag_u) / w0
        fa = scalar_lg(m, pa, w0, rho, 0.0)
        fb = scalar_lg(m, pb, w0, rho, 0.0)
        # d^2k = 2 pi rho drho = (2 pi / w0^2) du; unfold the e^{-u} weight
        return float(np.sum(lag_w * np.exp(lag_u) * (np.conj(fa) * fb).real)
                     * 2.0 * np.pi / w0**2)

    r_norm = _worst(abs(overlap(0, 0, 0) - 1.0), abs(overlap(2, 1, 1) - 1.0),
                    abs(overlap(-3, 2, 2) - 1.0))
    r_orth = _worst(abs(overlap(1, 0, 1)), abs(overlap(1, 0, 2)),
                    abs(overlap(1, 1, 2)), abs(overlap(-3, 0, 1)))

    return [
        _row("lg_J3_eigenvalue_error", r_j3_eig, 1e-9),
        _row("lg_J3_eigen_residual", r_j3_disp, 1e-9),
        _row("W_residual_order", abs(w_order - 2.0), 0.2),
        _row("transversality_order_at_least_2", _worst(0.0, 2.0 - t_order), 0.2),
        _row("scalar_lg_norm_dev", r_norm, 1e-10),
        _row("scalar_lg_p_orthogonality", r_orth, 1e-10),
    ]


def _com_states():
    grid_a = build_grid(GridSpec(n_k=32, k_min=0.25, k_max=1.75, n_theta=56, n_phi=56))
    spec_a = ModeSpec(
        kind="j3_w_eigenstate", m=1, w=1,
        radial_profile={"k0": 1.0, "sigma_k": 0.15},
        theta_profile={"kind": "gaussian_in_theta", "theta0": 0.0,
                       "sigma_theta": 0.12},
    )
    lat_a = SpaceTimeLattice(origin=(-37.0,) * 3, extents=(74.0,) * 3,
                             n_x=44, n_y=44, n_z=44)
    grid_b = build_grid(GridSpec(n_k=24, k_min=1.36, k_max=2.64, n_theta=128, n_phi=40))
    spec_b = ModeSpec(
        kind="vector_lg", m=1, p=0, w=1, w0=10.0, k_fixed=2.0,
        radial_profile={"sigma_k": 0.1},
    )
    lat_b = SpaceTimeLattice(origin=(-32.0,) * 3, extents=(64.0,) * 3,
                             n_x=56, n_y=56, n_z=56)
    # The paraxial LG mode carries O(theta^3) longitudinal content; project it
    # out so the synthesized A is divergence-free and the real-space L/S split
    # is well defined.  J3 = m survives the projection exactly.
    v_b = normalize(build_mode(spec_b, grid_b).project_transverse())
    return (
        ("j3w_packet", build_mode(spec_a, grid_a), lat_a, 1.0),
        ("vector_lg", v_b, lat_b, 2.0),
    )


def com_crosscheck_suite(seed: int = 0):
    """Real-space vs k-space constants of motion on two localized states.

    Relative agreement uses denominator max(|k-space value|, 1e-3 * P0)
    so exactly-zero components are compared on the state's energy scale.
    Deterministic; `seed` is accepted for the uniform suite signature.
    """
    rows = []
    for name, v, lattice, k0 in _com_states():
        ks = k_space_com(v)
        scale = abs(ks["P0"])
        period = 2.0 * np.pi / k0
        times = (0.0, 0.25 * period, 0.5 * period)
        coms = [real_space_com(synthesize_fields(v, lattice, time=t)) for t in times]

        for key, rel in relative_com_difference(ks, coms[0], scale).items():
            rows.append(_row(f"{key}_realspace_vs_kspace[{name}]", rel, 1e-6))

        drift = _worst(*(
            rel for later in coms[1:]
            for rel in relative_com_difference(coms[0], later, scale).values()
        ))
        rows.append(_row(f"time_invariance[{name}]", drift, 1e-8))
    return rows


_VARIANCE_PROFILES = (
    ("uniform", {"kind": "uniform_band"}, 1, 1),
    ("gauss_equatorial", {"kind": "gaussian_in_theta", "theta0": np.pi / 2,
                          "sigma_theta": 0.35}, 2, 1),
    ("gauss_oblique", {"kind": "gaussian_in_theta", "theta0": np.pi / 6,
                       "sigma_theta": 0.30}, 0, -1),
)


def variance_program(seed: int = 0):
    """SAM first/second moments of J3-W eigenstates vs 1D x-quadrature.

    Deterministic; `seed` is accepted for the uniform suite signature.
    """
    grid = build_grid(GridSpec(n_k=12, k_min=0.5, k_max=1.5, n_theta=64, n_phi=16))
    rows = []
    for name, prof, m, w in _VARIANCE_PROFILES:
        spec = ModeSpec(
            kind="j3_w_eigenstate", m=m, w=w,
            radial_profile={"k0": 1.0, "sigma_k": 0.1},
            theta_profile=dict(prof),
        )
        v = build_mode(spec, grid)
        rep = observable_report(v)
        dist = theta_distribution(spec, grid)
        dev = _worst(
            float(np.abs(rep.sam - dist.sam_expectation()).max()),
            float(np.abs(rep.sam_second_moments - dist.sam_second_moments()).max()),
            float(np.abs(rep.sam_variance - dist.sam_variance()).max()),
        )
        rows.append(_row(f"sam_moments_vs_quadrature[{name}]", dev, 1e-8))
        v33 = float(rep.sam_variance[2, 2])
        rows.append(_row(f"V33_positive[{name}]", v33, 0.0, ok=v33 > 0.0))
        if name == "uniform":
            dev_u = float(np.abs(rep.sam_variance - np.diag(
                [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0])).max())
            rows.append(_row("uniform_variance_diag_one_third", dev_u, 1e-8))
    return rows


def sam_convergence(seed: int = 0):
    """<S> -> s at empirical order 1/kappa; <W> pinned at the largest kappa.

    Deterministic; `seed` is accepted for the uniform suite signature.
    <S> and <W> are read off each packet's frame-row factors
    (`WaveFunction.moments`): the radial profile times the angular kernel.
    """
    kappas = (50.0, 100.0, 200.0, 400.0)
    grid = build_grid(GridSpec(n_k=10, k_min=0.5, k_max=1.5, n_theta=512, n_phi=16))
    errs = []
    s_hat = np.array([0.0, 0.0, 1.0])
    for kappa in kappas:
        spec = ModeSpec(
            kind="sam_wavepacket", w=1, kappa=kappa, s_direction=(0.0, 0.0, 1.0),
            radial_profile={"k0": 1.0, "sigma_k": 0.1},
        )
        moments = build_mode(spec, grid).moments
        errs.append(float(np.linalg.norm(moments.sam - s_hat)))
        helicity = moments.helicity
    w_dev = abs(helicity - 1.0)  # at the largest kappa
    slope = np.polyfit(np.log(kappas), np.log(errs), 1)[0]
    return [
        _row("sam_convergence_order_1_over_kappa", abs(slope + 1.0), 0.15),
        _row("helicity_within_1e-6_at_kappa_400", w_dev, 1e-6),
    ]


_NEVER_M = (-2, 0, 1, 3)
_NEVER_W = (1, -1)


def never_eigenstate(seed: int = 0):
    """No J3-W eigenstate is an S3 or L3 eigenstate: dispersions stay > 0.05.

    Deterministic; `seed` is accepted for the uniform suite signature.
    The dispersions are the report's S3 and L3 eigen-residuals, read off
    each state's frame-row factors (`WaveFunction.moments`).
    """
    grid = build_grid(GridSpec(n_k=8, k_min=0.5, k_max=1.5, n_theta=48, n_phi=16))
    s3 = []
    l3 = []
    for _, prof, _, _ in _VARIANCE_PROFILES:
        for m in _NEVER_M:
            for w in _NEVER_W:
                spec = ModeSpec(
                    kind="j3_w_eigenstate", m=m, w=w,
                    radial_profile={"k0": 1.0, "sigma_k": 0.1},
                    theta_profile=dict(prof),
                )
                moments = build_mode(spec, grid).moments
                s3.append(moments.s3_dispersion)
                l3.append(moments.l3_dispersion)
    # np.min, unlike builtin min, keeps a NaN, which then fails its row
    min_s3 = float(np.min(s3))
    min_l3 = float(np.min(l3))
    return [
        _row("S3_never_eigenstate_min_dispersion", min_s3, 0.05, ok=min_s3 > 0.05),
        _row("L3_never_eigenstate_min_dispersion", min_l3, 0.05, ok=min_l3 > 0.05),
    ]


SUITES = {
    "algebraic": algebraic_suite,
    "spectral": spectral_suite,
    "vsh": vsh_suite,
    "paraxial": paraxial_suite,
    "variance": variance_program,
    "sam-convergence": sam_convergence,
    "never-eigenstate": never_eigenstate,
    "com-crosscheck": com_crosscheck_suite,
}


def run_suite(name: str, seed: int = 0):
    """Rows of one registered suite, or of every suite for name "all".

    Under "all" each check name is prefixed with its suite's name and a
    slash, in registry order.
    """
    if name == "all":
        return [
            {**row, "check": f"{suite}/{row['check']}"}
            for suite, fn in SUITES.items()
            for row in fn(seed=seed)
        ]
    if name not in SUITES:
        raise ValueError(
            f"unknown suite {name!r}; choose from {sorted(SUITES) + ['all']}"
        )
    return SUITES[name](seed=seed)
