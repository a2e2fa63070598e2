"""Operator actions on transverse wavefunctions and observable reports.

Everything is in natural units (hbar = c = 1): helicity eigenvalues are
+-1, J3 eigenvalues are the integers m, energies are wavenumbers.

Three kinds of action coexist:

* pointwise algebra for P, S, W: exact at machine precision on any
  transverse state,

      (P0 v)       = |k| v
      (P_l v)      = k_l v
      (S_l v)_j    = i khat_l (khat x v)_j
      (W v)_j      = i (khat x v)_j

* the spectral route for J (and through it L = J - S): Y^(a)_lm are exact
  J^2/J3 eigenfunctions, so in coefficient space J3 multiplies by m and
  J+- shift m with the ladder factors of `vsh.ladder`; exact up
  to the truncation l_max of the expansion,

* an exact azimuthal route for J3 alone: J3 = -i d/dphi + Sigma3 acting
  componentwise, evaluated by FFT over the uniform phi subgrid.  For
  states whose azimuthal content fits the grid this is exact without any
  l truncation, so J3 eigen-residual reports do not inherit spectral
  truncation error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import WaveVectorGrid
from .polarization import sigma3
from .vsh import VshExpansion, analyze, ladder, synthesize
from .wavefunction import WaveFunction, inner_product, norm

__all__ = [
    "ObservableReport",
    "apply_P",
    "apply_S",
    "apply_W",
    "apply_J",
    "apply_J_squared",
    "apply_J3_azimuthal",
    "apply_L",
    "azimuthal_support",
    "azimuthal_window",
    "expansion_inner",
    "observable_report",
]


def apply_P(index: int, v: WaveFunction) -> WaveFunction:
    """P^0 (index 0) multiplies by omega = |k|; P_l (index 1..3) by k_l."""
    if index == 0:
        factor = v.grid.k
    elif index in (1, 2, 3):
        factor = v.grid.kvec[:, index - 1]
    else:
        raise ValueError("index must be 0 (energy) or 1..3")
    return WaveFunction(v.grid, factor[:, None] * v.values, check=False)


def _khat_cross(khat, values):
    """khat x v per node, component by component.

    The same products and differences as np.cross (which promotes khat to
    complex), without its per-call axis and broadcast handling.
    """
    kx, ky, kz = khat[:, 0], khat[:, 1], khat[:, 2]
    vx, vy, vz = values[:, 0], values[:, 1], values[:, 2]
    out = np.empty(values.shape, dtype=complex)
    np.subtract(ky * vz, kz * vy, out=out[:, 0])
    np.subtract(kz * vx, kx * vz, out=out[:, 1])
    np.subtract(kx * vy, ky * vx, out=out[:, 2])
    return out


def _spin_from_cross(grid: WaveVectorGrid, axis: int, cross) -> WaveFunction:
    """S_l v = i khat_l (khat x v), given the product khat x v."""
    return WaveFunction(grid, 1j * grid.khat[:, axis - 1][:, None] * cross, check=False)


def _spin_actions(v: WaveFunction):
    """[S1 v, S2 v, S3 v] and W v, all from one khat x v product."""
    cross = _khat_cross(v.grid.khat, v.values)
    sv = [_spin_from_cross(v.grid, ax, cross) for ax in (1, 2, 3)]
    return sv, WaveFunction(v.grid, 1j * cross, check=False)


def apply_S(axis: int, v: WaveFunction) -> WaveFunction:
    """SAM component: (S_l v)_j = i khat_l (khat x v)_j."""
    if axis not in (1, 2, 3):
        raise ValueError("axis must be 1..3")
    return _spin_from_cross(v.grid, axis, _khat_cross(v.grid.khat, v.values))


def apply_W(v: WaveFunction) -> WaveFunction:
    """Helicity: (W v)_j = i (khat x v)_j; multiplies helicity amplitudes by +-1."""
    return WaveFunction(v.grid, 1j * _khat_cross(v.grid.khat, v.values), check=False)


def _ladder_shift(e: VshExpansion, sign: int) -> VshExpansion:
    """J_+ (sign=+1) or J_- (sign=-1) in coefficient space: window shifts by sign."""
    fac = ladder(np.arange(e.l_max + 1)[:, None], e.m_values[None, :], sign)
    return VshExpansion(
        e.grid, e.l_max, e.m_min + sign, e.m_max + sign,
        e.coeffs * fac[None, None, :, :],
    )


def apply_J(axis: int, e: VshExpansion) -> VshExpansion:
    """Total angular momentum component on an expansion; a and l unchanged."""
    if axis == 3:
        return VshExpansion(
            e.grid, e.l_max, e.m_min, e.m_max,
            e.coeffs * e.m_values[None, None, None, :],
        )
    if axis == 1:
        return 0.5 * (_ladder_shift(e, +1) + _ladder_shift(e, -1))
    if axis == 2:
        return -0.5j * (_ladder_shift(e, +1) - _ladder_shift(e, -1))
    raise ValueError("axis must be 1..3")


def apply_J_squared(e: VshExpansion) -> VshExpansion:
    """J.J on an expansion: multiplies each l row by l(l+1)."""
    ls = np.arange(e.l_max + 1, dtype=float)
    return VshExpansion(
        e.grid, e.l_max, e.m_min, e.m_max,
        e.coeffs * (ls * (ls + 1.0))[None, None, :, None],
    )


def apply_J3_azimuthal(v: WaveFunction) -> WaveFunction:
    """J3 = -i d/dphi + Sigma3 via FFT; exact for grid-resolved azimuthal content."""
    grid = v.grid
    # channel-major copy, so each FFT runs along a contiguous phi axis
    chans = np.ascontiguousarray(np.moveaxis(v.values.reshape(grid.shape + (3,)), -1, 0))
    mu = np.rint(np.fft.fftfreq(grid.spec.n_phi) * grid.spec.n_phi)
    orb = np.fft.ifft(np.fft.fft(chans, axis=-1) * mu, axis=-1)
    return WaveFunction(
        grid, np.moveaxis(orb, 0, -1).reshape(-1, 3) + sigma3(v.values), check=False
    )


def apply_L(axis: int, v: WaveFunction, l_max: int = 16,
            expansion: VshExpansion | None = None) -> WaveFunction:
    """OAM component as (J - S)v; J part through the spectral route.

    The result carries the expansion's l_max truncation error; pass a
    precomputed `expansion` of v to amortize analysis across axes.
    """
    if expansion is None:
        expansion = analyze(v, l_max)
    jv = synthesize(apply_J(axis, expansion))
    sv = apply_S(axis, v)
    return jv - sv


def expansion_inner(e: VshExpansion, f: VshExpansion) -> complex:
    """<e, f> in coefficient space (radial quadrature of conj(c_e) c_f)."""
    if e.grid is not f.grid and e.grid.spec != f.grid.spec:
        raise ValueError("expansions live on different grids")
    if e.l_max != f.l_max:
        raise ValueError("expansions have different l_max")
    m_min = min(e.m_min, f.m_min)
    m_max = max(e.m_max, f.m_max)
    a = e._window_like(m_min, m_max)
    b = f._window_like(m_min, m_max)
    dens = np.sum(np.conj(a.coeffs) * b.coeffs, axis=(0, 2, 3))
    return complex(np.sum(e.grid.radial_weights * dens))


def azimuthal_support(v: WaveFunction, rel_tol: float = 1e-12) -> dict:
    """FFT bins of the x + i y, x - i y and z channels that hold content.

    Maps each channel's order offset (+1, -1, 0) to the signed bins in
    [-n_phi/2, n_phi/2) whose amplitude on some (k, theta) ring exceeds
    rel_tol * max |v|.  For even n_phi, bin -n_phi/2 is the Nyquist bin.
    """
    grid = v.grid
    cube = v.values.reshape(grid.shape + (3,))
    chans = {
        +1: cube[..., 0] + 1j * cube[..., 1],   # carries orders m+1
        -1: cube[..., 0] - 1j * cube[..., 1],   # carries orders m-1
        0: cube[..., 2],
    }
    mu = np.rint(np.fft.fftfreq(grid.spec.n_phi) * grid.spec.n_phi).astype(int)
    scale = max(np.abs(v.values).max(), 1e-300)
    support = {}
    for off, ch in chans.items():
        amp = np.abs(np.fft.fft(ch, axis=2)).max(axis=(0, 1)) / grid.spec.n_phi
        support[off] = mu[amp > rel_tol * scale]
    return support


def azimuthal_window(v: WaveFunction, l_max: int, rel_tol: float = 1e-12):
    """Contiguous J3-order window covered by the state's azimuthal content.

    The x +- i y channels of a VSH of order m oscillate as e^{i(m +- 1)phi}
    and the z channel as e^{i m phi}; the detected FFT support of each
    channel is mapped back accordingly and the union returned, clipped to
    [-l_max, l_max].
    """
    orders = []
    for off, present in azimuthal_support(v, rel_tol).items():
        orders.extend(present - off)
    if not orders:
        return (0, 0)
    return (max(min(orders), -l_max), min(max(orders), l_max))


def _report_l_max(grid: WaveVectorGrid) -> int:
    return min(grid.spec.n_theta - 1, 96)


@dataclass
class ObservableReport:
    """Expectations, SAM moment matrices and eigen-residuals of one state.

    All entries are in natural units: energy in wavenumber units (hbar c k),
    momenta in hbar k, angular momenta in hbar, matrices in hbar^2.
    eigen_residuals maps operator names to ||O v - <O> v|| / ||v||, i.e. the
    dispersion of O in the state; zero exactly when v is an eigenvector.
    """

    energy: float
    momentum: np.ndarray
    total_am: np.ndarray
    oam: np.ndarray
    sam: np.ndarray
    helicity: float
    sam_second_moments: np.ndarray
    sam_variance: np.ndarray
    eigen_residuals: dict

    def to_dict(self):
        return {
            "energy": self.energy,
            "momentum": list(self.momentum),
            "total_am": list(self.total_am),
            "oam": list(self.oam),
            "sam": list(self.sam),
            "helicity": self.helicity,
            "sam_second_moments": [list(row) for row in self.sam_second_moments],
            "sam_variance": [list(row) for row in self.sam_variance],
            "eigen_residuals": dict(self.eigen_residuals),
        }


def _dispersion(v: WaveFunction, ov: WaveFunction, mean: float) -> float:
    diff = ov.values - mean * v.values
    return float(
        np.sqrt(np.sum(v.grid.weights * np.einsum("nc,nc->n", np.conj(diff), diff).real))
    )


def observable_report(v: WaveFunction, l_max: int | None = None) -> ObservableReport:
    """Full observable record of a normalized state.

    J1/J2 expectations go through the spectral route with an automatically
    detected azimuthal window; J3, W, S and P are evaluated exactly.
    """
    n = norm(v)
    if abs(n - 1.0) > 1e-8:
        raise ValueError(f"state must be normalized; ||v|| = {n:.12g}")
    grid = v.grid
    dens = np.einsum("nc,nc->n", np.conj(v.values), v.values).real
    energy = float(np.sum(grid.weights * dens * grid.k))
    momentum = np.array(
        [np.sum(grid.weights * dens * grid.kvec[:, j]) for j in range(3)]
    )

    sv, wv = _spin_actions(v)
    sam = np.array([inner_product(v, s).real for s in sv])
    second = np.empty((3, 3))
    for a in range(3):
        for b in range(a, 3):
            val = inner_product(sv[a], sv[b]).real
            second[a, b] = second[b, a] = val
    variance = second - np.outer(sam, sam)

    helicity = inner_product(v, wv).real

    if l_max is None:
        l_max = _report_l_max(grid)
    window = azimuthal_window(v, l_max)
    e = analyze(v, l_max, m_window=window)
    j12 = [expansion_inner(e, apply_J(ax, e)).real for ax in (1, 2)]
    j3v = apply_J3_azimuthal(v)
    j3 = inner_product(v, j3v).real
    total_am = np.array([j12[0], j12[1], j3])
    oam = total_am - sam

    l3v = j3v - sv[2]
    l3 = j3 - sam[2]
    residuals = {
        "J3": _dispersion(v, j3v, j3),
        "W": _dispersion(v, wv, helicity),
        "S3": _dispersion(v, sv[2], sam[2]),
        "L3": _dispersion(v, l3v, l3),
    }
    return ObservableReport(
        energy=energy,
        momentum=momentum,
        total_am=total_am,
        oam=oam,
        sam=sam,
        helicity=helicity,
        sam_second_moments=second,
        sam_variance=variance,
        eigen_residuals=residuals,
    )
