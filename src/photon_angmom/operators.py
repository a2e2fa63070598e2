"""Operator actions on one-photon wavefunctions and observable reports.

Everything is in natural units (hbar = c = 1): helicity eigenvalues are
+-1, J3 eigenvalues are the integers m, energies are wavenumbers.

A state holds its amplitudes in the grid's local unitary frame
(eps_+, eps_-, khat) (`WaveFunction.c`),

    c = (c_+, c_-, c_0) = (conj(eps_+) . v, conj(eps_-) . v, khat . v).

c_0 is the longitudinal part: zero on a transverse state, kept so that
the approximately transverse vector LG and projected-carrier states lose
nothing.  Write h = (+1, -1, 0) for the helicity of the three rows.  Since
khat x eps_h = -i h eps_h, the momentum, spin and helicity operators are
diagonal multipliers in this frame,

    P0 by |k|,   P_l by k_l,   W by h,   S_l = khat_l W by h khat_l,

which is the statement S = W khat: the components of S commute, and no
cross product is needed.  `apply_P`, `apply_S` and `apply_W` multiply c
by these factors.  J3 = -i d/dphi + Sigma3 is diagonal in the phi-FFT of
c: e^{i mu phi} eps_h is a J3 eigenvector of eigenvalue mu + h, so J3
multiplies bin mu of row a by mu + h_a (`apply_J3_azimuthal`), exact for
states whose azimuthal content fits the grid, with no l truncation.
S3 = h cos(theta) is constant on each phi ring, so L3 = J3 - S3
multiplies the same bin by mu + h_a - h_a cos(theta).

So no mean or dispersion needs an operator applied.  Each state reads
them from its own `wavefunction.FrameMoments` (`WaveFunction.moments`),
the one kernel on the factor pairs c_a = F_a G_a a state holds: per-factor
sums of |c_a|^2 against axis tables give the norm, <S>, <W>, the energy,
the momentum, the SAM second moments and the W and S3 dispersions, and
one phi-FFT of the factor that owns phi gives the J3 and L3 means and
dispersions as Parseval sums.  `observable_report` and
`azimuthal_support` read their moments there; the operators serve the
identity suites.

J1 and J2 (and through them L = J - S) go the spectral route: Y^(a)_lm are
exact J^2/J3 eigenfunctions, so in coefficient space J3 multiplies by m
and J+- shift m with the ladder factors of `vsh.ladder`; exact up to the
truncation l_max of the expansion.  The report reads <J+> = <J1> + i <J2>
= sum_k w_k sum_{a,l,m} conj(c_{a,l,m+1}) ladder(l, m, +1) c_{a,l,m} in one
pass over the coefficients of `vsh.analyze`, which contracts bins m - h of
rows c_+ and c_- of the same phi-FFT.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import WaveVectorGrid
from .vsh import VshExpansion, analyze, ladder, synthesize
from .wavefunction import WaveFunction, _H, norm

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

def _multiply(v: WaveFunction, factor) -> WaveFunction:
    """The state with rows c * factor: a diagonal operator in the frame."""
    return WaveFunction.from_frame(v.grid, v.c * factor)


def apply_P(index: int, v: WaveFunction) -> WaveFunction:
    """P^0 (index 0) multiplies by omega = |k|; P_l (index 1..3) by k_l."""
    if index == 0:
        factor = v.grid.k
    elif index in (1, 2, 3):
        factor = v.grid.kvec[:, index - 1]
    else:
        raise ValueError("index must be 0 (energy) or 1..3")
    return _multiply(v, factor.reshape(v.grid.shape))


def apply_S(axis: int, v: WaveFunction) -> WaveFunction:
    """SAM component S_l = khat_l W: row a times h_a khat_l."""
    if axis not in (1, 2, 3):
        raise ValueError("axis must be 1..3")
    return _multiply(v, _H[:, None, None, None] * v.grid.frame[2, ..., axis - 1])


def apply_W(v: WaveFunction) -> WaveFunction:
    """Helicity W = (khat . S): row a times h_a = +1, -1, 0."""
    return _multiply(v, _H[:, None, None, None])


def apply_J(axis: int, e: VshExpansion) -> VshExpansion:
    """Total angular momentum component on an expansion; a and l unchanged.

    J1 = (J+ + J-) / 2 and J2 = -i (J+ - J-) / 2, J+- taking m to m +- 1
    with the factor `vsh.ladder`(l, m, +-1), on the window widened by one
    order each way within [-l_max, l_max]: the factor is zero wherever
    m +- 1 leaves |m| <= l, so the clip loses nothing."""
    if axis == 3:
        return VshExpansion(
            e.grid, e.l_max, e.m_min, e.m_max,
            e.coeffs * e.m_values[None, None, None, :],
        )
    if axis not in (1, 2):
        raise ValueError("axis must be 1..3")
    out = VshExpansion.zero(e.grid, e.l_max, max(e.m_min - 1, -e.l_max),
                            min(e.m_max + 1, e.l_max))
    for sign, scale in ((1, 0.5), (-1, 0.5 if axis == 1 else -0.5)):
        # source orders lo..hi - 1 land on lo + sign..hi - 1 + sign
        lo = max(e.m_min, out.m_min - sign)
        hi = min(e.m_max, out.m_max - sign) + 1
        fac = scale * ladder(np.arange(e.l_max + 1)[:, None], np.arange(lo, hi), sign)
        out.coeffs[..., lo + sign - out.m_min : hi + sign - out.m_min] += (
            e.coeffs[..., lo - e.m_min : hi - e.m_min] * fac)
    if axis == 2:
        out.coeffs *= -1j
    return out


def apply_J_squared(e: VshExpansion) -> VshExpansion:
    """J.J on an expansion: multiplies each l row by l(l+1)."""
    ls = np.arange(e.l_max + 1, dtype=float)
    return VshExpansion(
        e.grid, e.l_max, e.m_min, e.m_max,
        e.coeffs * (ls * (ls + 1.0))[None, None, :, None],
    )


def apply_J3_azimuthal(v: WaveFunction) -> WaveFunction:
    """J3 = -i d/dphi + Sigma3: bin mu of the phi-FFT of row c_a times mu + h_a.

    Exact for grid-resolved azimuthal content.
    """
    spectrum = np.fft.fft(v.c, axis=-1)
    spectrum *= v.moments.j3_orders
    return WaveFunction.from_frame(v.grid, np.fft.ifft(spectrum, axis=-1))


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
    e.require_compatible(f)
    lo = max(e.m_min, f.m_min)
    hi = max(min(e.m_max, f.m_max) + 1, lo)
    a = e.coeffs[..., lo - e.m_min : hi - e.m_min]
    b = f.coeffs[..., lo - f.m_min : hi - f.m_min]
    dens = np.sum(np.conj(a) * b, axis=(0, 2, 3))
    return complex(np.sum(e.grid.radial_weights * dens))


def azimuthal_support(v: WaveFunction) -> dict:
    """FFT bins of the frame components c_+, c_- and c_0 that hold content.

    Maps the helicity h (+1, -1, 0) of each row to the signed bins mu in
    [-n_phi/2, n_phi/2) whose amplitude on some (k, theta) ring exceeds
    1e-12 times the largest node amplitude max ||c(n)|| = max ||v(n)||
    (`WaveFunction.peak_amplitude`); bin mu of row h holds J3 order
    mu + h.  For even n_phi, bin -n_phi/2 is the Nyquist bin.
    """
    return v.moments.support()


def azimuthal_window(v: WaveFunction, l_max: int):
    """Contiguous J3-order window covered by the state's azimuthal content.

    The orders mu + h of the bins in `azimuthal_support`, clipped to
    [-l_max, l_max].
    """
    orders = [m for h, bins in azimuthal_support(v).items() for m in bins + h]
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


def observable_report(v: WaveFunction, l_max: int | None = None) -> ObservableReport:
    """Full observable record of a normalized state.

    J1/J2 expectations are Re and Im of <J+>, one ladder pass over the VSH
    coefficients of an automatically detected azimuthal window; J3, W, S
    and P are evaluated exactly, from the moments of v (module docstring).
    """
    n = norm(v)
    if abs(n - 1.0) > 1e-8:
        raise ValueError(f"state must be normalized; ||v|| = {n:.12g}")
    moments = v.moments
    sam = moments.sam
    second = moments.sam_second_moments

    if l_max is None:
        l_max = _report_l_max(v.grid)
    e = analyze(v, l_max, azimuthal_window(v, l_max))
    # <J+> = <J1> + i <J2>: order m of each (a, l) row against m + 1
    fac = ladder(np.arange(l_max + 1)[:, None], e.m_values[:-1], +1)
    dens = np.sum(np.conj(e.coeffs[..., 1:]) * (fac * e.coeffs[..., :-1]), axis=(0, 2, 3))
    j_plus = complex(np.sum(v.grid.radial_weights * dens))
    total_am = np.array([j_plus.real, j_plus.imag, moments.j3])

    residuals = {
        "J3": moments.j3_dispersion,
        "W": moments.w_dispersion(moments.helicity),
        "S3": moments.s3_dispersion,
        "L3": moments.l3_dispersion,
    }
    return ObservableReport(
        energy=moments.energy,
        momentum=moments.momentum,
        total_am=total_am,
        oam=total_am - sam,
        sam=sam,
        helicity=moments.helicity,
        sam_second_moments=second,
        sam_variance=second - np.outer(sam, sam),
        eigen_residuals=residuals,
    )
