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

So no mean or dispersion needs an operator applied.  `FrameMoments` is
the one kernel that reads them, from the factor pairs c_a = F_a G_a a
state holds (`WaveFunction.factors`).  The weights and the components
of khat are products of tables on the axes k, theta and phi, so every
weighted sum of |c_a|^2 is a product of two factor sums, each table
applied to the factor that owns its axis: the row totals (so the norm
and the W dispersion), <S>, <W>, the energy, the momentum, the SAM
second moments and the S3 dispersion.  The largest node amplitude and
the transversality residual come from the factor powers as well.  One
phi-FFT of the factor that owns phi gives, through its ring power, the
J3 and L3 means and dispersions as Parseval sums.  On a product state
this is O(n_k n_theta + n_phi) work, not O(n_k n_theta n_phi); an
unfactored state, the pair (c, 1), runs the same sums over its rows.
`observable_report`, `azimuthal_support` and the verify programs
(`paraxial_suite`, `sam_convergence`, `never_eigenstate`) all read
their moments off it; the operators serve the identity suites.

J1 and J2 (and through them L = J - S) go the spectral route: Y^(a)_lm are
exact J^2/J3 eigenfunctions, so in coefficient space J3 multiplies by m
and J+- shift m with the ladder factors of `vsh.ladder`; exact up to the
truncation l_max of the expansion.  The report reads them from the same
phi-FFT, bins m - h of rows c_+ and c_-, each slab the product of the
two factors read at that bin.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import WaveVectorGrid
from .vsh import VshExpansion, _analyze_spectrum, analyze, ladder, synthesize
from .wavefunction import (
    WaveFunction,
    _peaks,
    _power,
    _totals,
    _transverse_ratio,
)

__all__ = [
    "FrameMoments",
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

# helicity h of the frame rows (eps_+, eps_-, khat)
_H = np.array([1.0, -1.0, 0.0])


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


def _bins(grid: WaveVectorGrid):
    """Signed FFT bins mu in [-n_phi/2, n_phi/2), in FFT order.

    For even n_phi, bin -n_phi/2 is the Nyquist bin.
    """
    n_phi = grid.spec.n_phi
    return np.rint(np.fft.fftfreq(n_phi) * n_phi).astype(int)


def apply_J3_azimuthal(v: WaveFunction) -> WaveFunction:
    """J3 = -i d/dphi + Sigma3: bin mu of the phi-FFT of row c_a times mu + h_a.

    Exact for grid-resolved azimuthal content.
    """
    spectrum = np.fft.fft(v.c, axis=-1)
    spectrum *= (_bins(v.grid) + _H[:, None])[:, None, None, :]
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


def _support(moments: FrameMoments, rel_tol: float) -> dict:
    """`azimuthal_support` from the moments' peak amplitude and the power
    |C|^2 of the phi-FFT C of c, whose largest value over (k, theta) per
    bin is the product of its factors' largest."""
    n_phi = moments.grid.spec.n_phi
    floor = (rel_tol * max(moments.peak_amplitude, 1e-300) * n_phi) ** 2
    bins = _bins(moments.grid)
    pf, pg = (p.max(axis=(1, 2)) for p in moments._spectral_powers)
    peaks = (pf * pg).reshape(3, n_phi)
    return {h: bins[peak > floor] for h, peak in zip((1, -1, 0), peaks)}


def azimuthal_support(v: WaveFunction, rel_tol: float = 1e-12) -> dict:
    """FFT bins of the frame components c_+, c_- and c_0 that hold content.

    Maps the helicity h (+1, -1, 0) of each row to the signed bins mu in
    [-n_phi/2, n_phi/2) whose amplitude on some (k, theta) ring exceeds
    rel_tol times the largest node amplitude max ||c(n)|| = max ||v(n)||
    (`WaveFunction.peak_amplitude`); bin mu of row h holds J3 order
    mu + h.  For even n_phi, bin -n_phi/2 is the Nyquist bin.
    """
    return _support(FrameMoments(v), rel_tol)


def _window(support: dict, l_max: int):
    orders = [m for h, bins in support.items() for m in bins + h]
    if not orders:
        return (0, 0)
    return (max(min(orders), -l_max), min(max(orders), l_max))


def azimuthal_window(v: WaveFunction, l_max: int, rel_tol: float = 1e-12):
    """Contiguous J3-order window covered by the state's azimuthal content.

    The orders mu + h of the bins in `azimuthal_support`, clipped to
    [-l_max, l_max].
    """
    return _window(azimuthal_support(v, rel_tol), l_max)


def _axis_sums(split: int, pair, tables):
    """Grid sums of the product of a factor pair, one axis table at a time.

    `pair` holds two row arrays of shape (3, ...) whose broadcast product
    is a function on the grid; the first owns the axes (k, theta, phi)
    before `split`, the second the rest.  tables[i], of shape (n_t, N_i),
    is contracted with axis i of the factor that owns it (None keeps the
    axis), so no array of the full grid is formed unless a factor is one.
    Returns the broadcast product of the two contracted factors.
    """
    out = list(pair)
    for i, table in enumerate(tables):
        if table is not None:
            j = int(i >= split)
            out[j] = np.moveaxis(np.tensordot(table, out[j], axes=(1, i + 1)), 0, i + 1)
    return out[0] * out[1]


# (theta, phi) indices of each khat component in the base tables
# (1, sin theta, cos theta) and (1, cos phi, sin phi): khat_x = sin theta
# cos phi, khat_y = sin theta sin phi, khat_z = cos theta
_KHAT_AXES = ((1, 1), (1, 2), (2, 0))


def _products(weights, base):
    """Rows weights * base[i] * base[j], shape (9, n), row 3 i + j: with
    base[0] = 1, row i is weights * base[i]."""
    return (weights * base[:, None] * base[None, :]).reshape(-1, base.shape[1])


class FrameMoments:
    """Means and dispersions of a state, read off its frame-row factors.

    Holds the factor pair (F, G) of v (`WaveFunction.factors`), with
    c_a = F_a G_a, and forms every other attribute on first read, with
    h = (+1, -1, 0) the helicities of the rows.  The weights and the
    khat components are products of tables on the axes k, theta and phi,
    so every weighted sum of |c_a|^2 = |F_a|^2 |G_a|^2 is a product of
    two factor sums, each table applied to the factor that owns its axis
    (`_axis_sums`): the work is O(n_k n_theta + n_phi) on a
    (k, theta) x phi product and O(n_k + n_theta n_phi) on a k x
    (theta, phi) one.  An unfactored state is the pair (c, 1), so the same
    sums run over its full rows.  From one power per factor this gives the
    row totals (so the norm and the W dispersion), the peak node
    amplitude and the transversality residual, and, from one product of
    the powers with the stacked axis tables, <S>, the energy, the
    momentum, the SAM second moments and the S3 dispersion.  One phi-FFT
    of the factor that owns phi gives the J3 and L3 means and dispersions
    as Parseval sums.  A dispersion is ||O v - mean v||, which on a
    normalized state is the report's eigen-residual.
    """

    def __init__(self, v: WaveFunction):
        self.grid = v.grid
        self.split = v.split
        self.factors = v.factors

    @cached_property
    def _powers(self):
        return tuple(_power(x) for x in self.factors)

    @cached_property
    def _maxima(self):
        return _peaks(self._powers)

    @cached_property
    def totals(self):
        """<c_a, c_a> per row; they sum to ||v||^2."""
        return _totals(self.grid, self.split, self._powers)

    @property
    def peak_amplitude(self) -> float:
        """max ||c(n)||, as `WaveFunction.peak_amplitude`."""
        return self._maxima[0]

    @property
    def transverse_residual(self) -> float:
        """max |c_0| / max ||c(n)||, as `wavefunction.transverse_residual`."""
        return _transverse_ratio(*self._maxima)

    @cached_property
    def _base_theta(self):
        theta = self.grid.theta_nodes
        return np.stack([np.ones_like(theta), np.sin(theta), np.cos(theta)])

    @cached_property
    def _density(self):
        """D[a, t, theta, j] = sum over k and phi of |c_a|^2 times the radial
        weight (t = 0) or weight times k (t = 1), and the azimuthal weight
        times the product j of two of (1, cos phi, sin phi)."""
        grid = self.grid
        radial = grid.radial_weights * np.stack([np.ones_like(grid.k_nodes), grid.k_nodes])
        phi = grid.phi_nodes
        azimuthal = _products(2.0 * np.pi / grid.spec.n_phi,
                              np.stack([np.ones_like(phi), np.cos(phi), np.sin(phi)]))
        return _axis_sums(self.split, self._powers, (radial, None, azimuthal))

    @cached_property
    def _moments(self):
        """M[a, t, i, j] = <c_a, f c_a> for f = 1 (t = 0) or |k| (t = 1)
        times the products i of two of (1, sin theta, cos theta) and j of
        two of (1, cos phi, sin phi); khat_l khat_m is one such product."""
        polar = _products(self.grid.x_weights, self._base_theta)
        return np.einsum("atqj,iq->atij", self._density, polar)

    @cached_property
    def sam(self):
        """<S> = sum_a h_a <c_a, khat c_a>, since S = W khat."""
        spin = _H @ self._moments[:, 0].reshape(3, -1)
        return spin.reshape(9, 9)[tuple(np.transpose(_KHAT_AXES))]

    @cached_property
    def helicity(self) -> float:
        """<W> = <c_+, c_+> - <c_-, c_->."""
        return float(self.totals[0] - self.totals[1])

    def w_dispersion(self, about: float) -> float:
        """||W v - about v||: W multiplies row a by h_a."""
        return float(np.sqrt((_H - about) ** 2 @ self.totals))

    @cached_property
    def s3_dispersion(self) -> float:
        """||S3 v - <S3> v||: S3 multiplies row a by h_a cos(theta)."""
        cos = self._base_theta[2]
        s3 = self.sam[2]
        centred = self.grid.x_weights * (_H[:, None] * cos - s3) ** 2
        return float(np.sqrt(np.sum(centred * self._density[:, 0, :, 0])))

    @cached_property
    def spectrum(self):
        """The factor pair of the phi-FFT C of c: the factor that owns phi
        transformed, the other as it is.  Bin mu of row a holds J3 order
        mu + h_a."""
        owner = int(self.split < 3)
        pair = list(self.factors)
        pair[owner] = np.fft.fft(pair[owner], axis=-1)
        return tuple(pair)

    @cached_property
    def _spectral_powers(self):
        return tuple(_power(x) for x in self.spectrum)

    @cached_property
    def _ring_power(self):
        # Parseval: weights sum_phi |c_a|^2 = weights sum_mu |C_a|^2 / n_phi,
        # and the weights are constant on each (k, theta) ring
        grid = self.grid
        radial = _axis_sums(self.split, self._spectral_powers,
                            (grid.radial_weights[None], None, None))[:, 0]
        n_phi = grid.spec.n_phi
        return radial * (grid.x_weights * (2.0 * np.pi / n_phi**2))[:, None]

    @cached_property
    def _j3_orders(self):
        return (_bins(self.grid) + _H[:, None])[:, None, :]

    @cached_property
    def j3(self) -> float:
        """<J3>: the ring power weighted by the orders mu + h_a."""
        return float(np.sum(self._j3_orders * self._ring_power))

    @cached_property
    def j3_dispersion(self) -> float:
        """||J3 v - <J3> v||."""
        return float(np.sqrt(np.sum((self._j3_orders - self.j3) ** 2 * self._ring_power)))

    @cached_property
    def l3(self):
        """<L3> = <J3> - <S3>."""
        return self.j3 - self.sam[2]

    @cached_property
    def l3_dispersion(self) -> float:
        """||L3 v - <L3> v||: L3 multiplies bin mu of row a by
        mu + h_a - h_a cos(theta)."""
        cos = np.cos(self.grid.theta_nodes)[:, None]
        orders = self._j3_orders - _H[:, None, None] * cos
        return float(np.sqrt(np.sum((orders - self.l3) ** 2 * self._ring_power)))


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

    J1/J2 expectations go through the spectral route with an automatically
    detected azimuthal window; J3, W, S and P are evaluated exactly, from
    the `FrameMoments` of v (see the module docstring).
    """
    return _report(FrameMoments(v), l_max)


def _report(moments: FrameMoments, l_max: int | None = None) -> ObservableReport:
    """`observable_report` from the moments of the state."""
    n = float(np.sqrt(moments.totals.sum()))
    if abs(n - 1.0) > 1e-8:
        raise ValueError(f"state must be normalized; ||v|| = {n:.12g}")
    grid = moments.grid
    # the moment table M[a, t, i, j] summed over the rows, and over c_+
    # and c_- alone (the SAM density) at t = 0
    table = moments._moments
    dens = table.sum(axis=0)
    spin = table[0, 0] + table[1, 0]
    energy = float(dens[1, 0, 0])
    momentum = np.array([dens[1, i, j] for i, j in _KHAT_AXES])
    second = np.empty((3, 3))
    for a, (i, j) in enumerate(_KHAT_AXES):
        for b, (k, l) in enumerate(_KHAT_AXES[a:], start=a):
            second[a, b] = second[b, a] = spin[3 * i + k, 3 * j + l]
    sam = moments.sam
    variance = second - np.outer(sam, sam)

    if l_max is None:
        l_max = _report_l_max(grid)
    window = _window(_support(moments, 1e-12), l_max)
    e = _analyze_spectrum(grid, moments.spectrum, l_max, window)
    j12 = [expansion_inner(e, apply_J(ax, e)).real for ax in (1, 2)]
    total_am = np.array([j12[0], j12[1], moments.j3])
    oam = total_am - sam

    residuals = {
        "J3": moments.j3_dispersion,
        "W": moments.w_dispersion(moments.helicity),
        "S3": moments.s3_dispersion,
        "L3": moments.l3_dispersion,
    }
    return ObservableReport(
        energy=energy,
        momentum=momentum,
        total_am=total_am,
        oam=oam,
        sam=sam,
        helicity=moments.helicity,
        sam_second_moments=second,
        sam_variance=variance,
        eigen_residuals=residuals,
    )
