"""One-photon wavefunctions on a grid, held in the local frame.

A state is sampled on the nodes of a WaveVectorGrid and described by its
amplitudes in the grid's local unitary frame f = (eps_plus, eps_minus,
khat) (`grid.frame`),

    c = (c_+, c_-, c_0) = (conj(eps_+) . v, conj(eps_-) . v, khat . v),

complex rows of shape (3, n_k, n_theta, n_phi), phi last.  Physical
states are transverse, c_0 = 0; the row is kept so that the
approximately transverse vector LG mode loses nothing.  Because the
frame is unitary, the inner product <u, v> = int d^3k conj(u) . v is the
weighted sum of conj(u_a) v_a over rows and nodes, and every quantum
expectation in the package reduces to it.

What a state holds is the rows as factor pairs (`WaveFunction.factors`),
c_a = F_a G_a, with F on the axes (k, theta, phi) before `split` and G
on the rest.  The mode builders write product states this way (a
(k, theta) profile times e^{i n phi}, or a radial profile times an
angular kernel), so a state of n_k n_theta n_phi nodes holds about
n_k n_theta + n_phi or n_k + n_theta n_phi samples per row.  Every
other state (from samples, `from_frame`, an operator or a transform) is
the pair (c, 1), split 3.  The rows c themselves are formed from the
factors on first read and then kept, read-only (`_product_rows`, the
smaller factor first, as the builders normalize them).  A scalar
multiple scales one factor, and the transverse part zeroes the factors
of c_0, so both stay factored.

The quadrature weights factor by axis as well (`grid.factor_weights`),
so a weighted sum of |c_a|^2 = |F_a|^2 |G_a|^2 is a product of two factor
sums (`_totals`).  `FrameMoments` is the one kernel that
reads a state's factor pairs: from one power per factor and per-axis
tables it gives the row totals (so the norm), the peak node amplitude,
the transversality residual and every mean and dispersion of the
observable report, and from one phi-FFT of the factor that owns phi the
J3 and L3 moments, the J3 order of each bin, the azimuthal support and
the bins `vsh.analyze` reads.  A state never changes, so it keeps one set of moments
(`WaveFunction.moments`), formed on first read: `norm`,
`transverse_residual`, `WaveFunction.peak_amplitude`, the constructor's
transversality check, the report and the VSH analysis all read it, with
no array of the full grid unless a factor is one.

The Cartesian samples v(k) are the boundary form.  Every state the
package builds is written as its rows; only samples from outside it pass
through `WaveFunction(grid, values)`, the one forward conversion.  The
`values` property forms v from c on every read, with no cache; in the
package only the CSV writer and field synthesis read it.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .grid import WaveVectorGrid

__all__ = [
    "FrameMoments",
    "WaveFunction",
    "inner_product",
    "norm",
    "normalize",
    "transverse_residual",
    "random_state",
]


def _power(a):
    """|a|^2 elementwise, with one temporary."""
    power = np.square(a.real)
    power += np.square(a.imag)
    return power


def _read_only(a):
    view = a.view()
    view.flags.writeable = False
    return view


# helicity h of the frame rows (eps_+, eps_-, khat)
_H = np.array([1.0, -1.0, 0.0])

# azimuthal content at most this fraction of the peak node amplitude is
# empty (`FrameMoments.support`): the Nyquist guard and the report's
# m-window read the same support
_SUPPORT_REL_TOL = 1e-12

# the second factor of an unfactored state, c = (c, 1), and its power
_UNIT = _read_only(np.ones((3, 1, 1, 1), dtype=complex))
_UNIT_POWER = _read_only(np.ones((3, 1, 1, 1)))


def _product_rows(F, G):
    """The rows c_a = F_a G_a, each one product with the smaller factor
    first, the order in which the builders normalize them."""
    first, second = (G, F) if F[0].size > G[0].size else (F, G)
    c = np.empty(np.broadcast_shapes(F.shape, G.shape), dtype=complex)
    for out, f, g in zip(c, first, second):
        np.multiply(f, g, out=out)
    return c


def _totals(grid: WaveVectorGrid, split: int, powers) -> np.ndarray:
    """<c_a, c_a> = (sum w_F |F_a|^2)(sum w_G |G_a|^2) per row, from the
    factor powers; they sum to ||v||^2.  The unit factor's sum is an exact
    1, so it is skipped."""
    (wf, wg), (pf, pg) = grid.factor_weights(split), powers
    totals = np.sum(wf * pf, axis=(1, 2, 3))
    if pg is not _UNIT_POWER:
        totals *= np.sum(wg * pg, axis=(1, 2, 3))
    return totals


def _bins(grid: WaveVectorGrid):
    """Signed FFT bins mu in [-n_phi/2, n_phi/2), in FFT order.

    For even n_phi, bin -n_phi/2 is the Nyquist bin.
    """
    n_phi = grid.spec.n_phi
    return np.rint(np.fft.fftfreq(n_phi) * n_phi).astype(int)


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
    h = (+1, -1, 0) the helicities of the rows.  Read it as
    `WaveFunction.moments`, which each state keeps.  The weights and the
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
    of the factor that owns phi (`spectrum`) gives the J3 and L3 means and
    dispersions as Parseval sums, the azimuthal support, and the bins the
    VSH analysis reads (`slabs`).  A dispersion is ||O v - mean v||, which
    on a normalized state is the report's eigen-residual.
    """

    def __init__(self, v: WaveFunction):
        self.grid = v.grid
        self.split = v.split
        self.factors = v.factors

    @cached_property
    def _powers(self):
        return tuple(_UNIT_POWER if x is _UNIT else _power(x) for x in self.factors)

    @cached_property
    def _maxima(self):
        # (max ||c(n)||, max |c_0|): the node power sum_a |F_a|^2 |G_a|^2 is
        # one product over the three rows, and the largest |c_0|^2 is the
        # product of its factors' largest
        pf, pg = (p.reshape(3, -1) for p in self._powers)
        node = pf.T @ pg
        return float(np.sqrt(node.max())), float(np.sqrt(pf[2].max() * pg[2].max()))

    @cached_property
    def totals(self):
        """<c_a, c_a> per row; they sum to ||v||^2."""
        return _read_only(_totals(self.grid, self.split, self._powers))

    @property
    def peak_amplitude(self) -> float:
        """max ||c(n)|| over nodes."""
        return self._maxima[0]

    @property
    def transverse_residual(self) -> float:
        """max |c_0| / max ||c(n)||; 0 for the zero state."""
        peak, longitudinal = self._maxima
        return 0.0 if peak == 0.0 else longitudinal / peak

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
        azimuthal = _products(grid.phi_weight,
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
    def energy(self) -> float:
        """<P0> = sum_a <c_a, |k| c_a>."""
        return float(self._moments[:, 1].sum(axis=0)[0, 0])

    @cached_property
    def momentum(self):
        """<P_l> = sum_a <c_a, |k| khat_l c_a>."""
        dens = self._moments[:, 1].sum(axis=0)
        return _read_only(np.array([dens[i, j] for i, j in _KHAT_AXES]))

    @cached_property
    def sam(self):
        """<S> = sum_a h_a <c_a, khat c_a>, since S = W khat."""
        spin = _H @ self._moments[:, 0].reshape(3, -1)
        return _read_only(spin.reshape(9, 9)[tuple(np.transpose(_KHAT_AXES))])

    @cached_property
    def sam_second_moments(self):
        """<S_l S_m> = <c_+, khat_l khat_m c_+> + <c_-, khat_l khat_m c_->,
        since h_a^2 is 1 on the transverse rows and 0 on c_0."""
        spin = self._moments[0, 0] + self._moments[1, 0]
        second = np.empty((3, 3))
        for a, (i, j) in enumerate(_KHAT_AXES):
            for b, (k, l) in enumerate(_KHAT_AXES[a:], start=a):
                second[a, b] = second[b, a] = spin[3 * i + k, 3 * j + l]
        return _read_only(second)

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

    def support(self) -> dict:
        """The FFT bins of each row that hold content.

        Maps the helicity h (+1, -1, 0) of each row to the signed bins mu
        (`_bins`) whose amplitude |C| / n_phi on some (k, theta) ring
        exceeds _SUPPORT_REL_TOL times `peak_amplitude`; the largest |C|^2
        of a bin is the product of its factors' largest.
        """
        n_phi = self.grid.spec.n_phi
        floor = (_SUPPORT_REL_TOL * max(self.peak_amplitude, 1e-300) * n_phi) ** 2
        bins = _bins(self.grid)
        pf, pg = (p.max(axis=(1, 2)) for p in self._spectral_powers)
        peaks = (pf * pg).reshape(3, n_phi)
        return {h: bins[peak > floor] for h, peak in zip((1, -1, 0), peaks)}

    def slabs(self, bins):
        """Bins bins[i] = (b_+, b_-) of rows (c_+, c_-) of the phi-FFT, for
        an integer array of shape (n, 2): the slabs as one contiguous
        (n, 2, n_theta, n_k) array, theta before k, so that its float view
        holds (re, im) of each k last.  Each factor is read at its bin (at
        0 where its phi axis is a single node) and the two are multiplied."""
        f, g = (x[[0, 1], ..., bins] if x.shape[-1] > 1 else x[:2, ..., 0]
                for x in self.spectrum)
        out = np.empty(bins.shape + self.grid.shape[1::-1], dtype=complex)
        return np.multiply(f.swapaxes(-1, -2), g.swapaxes(-1, -2), out=out)

    @cached_property
    def _ring_power(self):
        # Parseval: weights sum_phi |c_a|^2 = weights sum_mu |C_a|^2 / n_phi,
        # and the weights are constant on each (k, theta) ring
        grid = self.grid
        radial = _axis_sums(self.split, self._spectral_powers,
                            (grid.radial_weights[None], None, None))
        return radial * (grid.x_weights * (2.0 * np.pi / grid.spec.n_phi**2))[:, None]

    @cached_property
    def j3_orders(self):
        """The J3 order mu + h_a of bin mu of row a of the phi-FFT, shape
        (3, 1, 1, n_phi): it broadcasts over a spectrum of the rows."""
        return _read_only((_bins(self.grid) + _H[:, None])[:, None, None, :])

    @cached_property
    def j3(self) -> float:
        """<J3>: the ring power weighted by the orders mu + h_a."""
        return float(np.sum(self.j3_orders * self._ring_power))

    @cached_property
    def j3_dispersion(self) -> float:
        """||J3 v - <J3> v||."""
        return float(np.sqrt(np.sum((self.j3_orders - self.j3) ** 2 * self._ring_power)))

    @cached_property
    def l3(self):
        """<L3> = <J3> - <S3>."""
        return self.j3 - self.sam[2]

    @cached_property
    def l3_dispersion(self) -> float:
        """||L3 v - <L3> v||: L3 multiplies bin mu of row a by
        mu + h_a - h_a cos(theta)."""
        cos = self._base_theta[2][:, None]
        orders = self.j3_orders - _H[:, None, None, None] * cos
        return float(np.sqrt(np.sum((orders - self.l3) ** 2 * self._ring_power)))


def _frame_rows(grid: WaveVectorGrid, values):
    """The forward conversion c_a = conj(f_a) . v of Cartesian samples of
    shape (n_nodes, 3) to frame rows of shape (3, n_k, n_theta, n_phi)."""
    return np.einsum("atpc,ktpc->aktp", np.conj(grid.frame), grid.node_fields(values))


class WaveFunction:
    """Grid samples of a transverse vector amplitude, held as frame rows.

    Parameters
    ----------
    grid : WaveVectorGrid
    values : array, shape (n_nodes, 3)
        Cartesian components at every node, converted once to the rows c.
    check : bool
        When true (default) reject states whose longitudinal content
        exceeds 1e-10 by `transverse_residual`, so operator algebra stays
        inside the physical subspace.

    Attributes
    ----------
    factors : (F, G), read-only
        The frame rows as factor pairs, c_a = F_a G_a: F, of shape
        (3,) + grid.shape[:split] + (1,) * (3 - split), on the axes
        (k, theta, phi) before `split`, and G, of shape
        (3,) + (1,) * split + grid.shape[split:], on the rest.  These are
        the samples a state holds.
    split : int
        1 or 2 for the product states the builders write; 3 for every
        other state, whose pair is (c, 1).
    c : ndarray, shape (3, n_k, n_theta, n_phi), read-only
        The frame rows (c_+, c_-, c_0), formed from the factors on first
        read and then kept.
    moments : FrameMoments
        The state's means, dispersions and phi-FFT, formed on first read
        and then kept.
    """

    _CHECK_TOL = 1e-10

    def __init__(self, grid: WaveVectorGrid, values, check: bool = True):
        values = np.asarray(values, dtype=complex)
        if values.shape != (grid.n_nodes, 3):
            raise ValueError(
                f"values shape {values.shape} does not match grid "
                f"({grid.n_nodes}, 3)"
            )
        self._hold(grid, 3, _frame_rows(grid, values), _UNIT)
        if check:
            res = self.moments.transverse_residual
            if res > self._CHECK_TOL:
                raise ValueError(
                    f"state is not transverse: max |khat.v| / max ||v|| = {res:.3e}"
                )

    def _hold(self, grid, split, F, G):
        self.grid = grid
        self.split = split
        self.factors = (_read_only(F), G if G is _UNIT else _read_only(G))
        if split == 3:
            self.c = self.factors[0]

    @classmethod
    def _from_factors(cls, grid: WaveVectorGrid, split: int, F, G):
        """The state with rows c_a = F_a G_a (see `factors`), stored as given."""
        v = cls.__new__(cls)
        v._hold(grid, split, F, G)
        return v

    @classmethod
    def from_frame(cls, grid: WaveVectorGrid, c):
        """The state with frame rows c of shape (r, n_nodes) or
        (r, n_k, n_theta, n_phi), stored as given: r = 3 rows are
        (c_+, c_-, c_0); r = 2 rows (c_+, c_-) get c_0 = 0, a state
        transverse by construction."""
        c = np.asarray(c, dtype=complex)
        if len(c) not in (2, 3) or c[0].size != grid.n_nodes:
            raise ValueError(f"frame rows of shape {c.shape} do not match grid {grid.shape}")
        c = c.reshape(c.shape[:1] + grid.shape)
        if len(c) == 2:
            c = np.concatenate([c, np.zeros((1,) + grid.shape, dtype=complex)])
        return cls._from_factors(grid, 3, c, _UNIT)

    @cached_property
    def c(self):
        return _read_only(_product_rows(*self.factors))

    @cached_property
    def moments(self) -> FrameMoments:
        return FrameMoments(self)

    @property
    def values(self):
        """Cartesian samples v = sum_a c_a f_a, shape (n_nodes, 3), read-only.

        Formed from c on every read; nothing is cached.
        """
        # one Cartesian component plane at a time, so that every product
        # runs along the contiguous phi axis into a reused buffer; the
        # planes are interleaved into (n_nodes, 3) once, at the end
        planes = np.empty((3,) + self.grid.shape, dtype=complex)
        tmp = np.empty(self.grid.shape, dtype=complex)
        for out, f in zip(planes, np.moveaxis(self.grid.frame, -1, 0)):
            np.multiply(self.c[0], f[0], out=out)
            for a in (1, 2):
                out += np.multiply(self.c[a], f[a], out=tmp)
        return _read_only(np.moveaxis(planes, 0, -1).reshape(-1, 3))

    def peak_amplitude(self) -> float:
        """max over nodes of ||c(n)|| = ||v(n)||, a frame-invariant scale."""
        return self.moments.peak_amplitude

    def __add__(self, other):
        self.grid.require_same(other.grid)
        return WaveFunction.from_frame(self.grid, self.c + other.c)

    def __sub__(self, other):
        self.grid.require_same(other.grid)
        return WaveFunction.from_frame(self.grid, self.c - other.c)

    def __mul__(self, scalar):
        """Scales one factor: c itself when unfactored, else the smaller one,
        the factor a builder normalizes."""
        F, G = self.factors
        if self.split == 3 or F[0].size <= G[0].size:
            F = F * scalar
        else:
            G = G * scalar
        return WaveFunction._from_factors(self.grid, self.split, F, G)

    __rmul__ = __mul__

    def project_transverse(self):
        """The transverse part: the same rows c_+ and c_-, with c_0 = 0."""
        F, G = (np.concatenate([x[:2], np.zeros_like(x[2:])]) for x in self.factors)
        return WaveFunction._from_factors(self.grid, self.split, F,
                                          _UNIT if self.split == 3 else G)


def inner_product(u: WaveFunction, v: WaveFunction) -> complex:
    """Hermitian inner product int d^3k conj(u) . v, summed over the frame rows."""
    u.grid.require_same(v.grid)
    dots = np.einsum("an,an->n", np.conj(u.c).reshape(3, -1), v.c.reshape(3, -1))
    return complex(np.sum(u.grid.weights * dots))


def norm(v: WaveFunction) -> float:
    """||v|| = sqrt(int d^3k ||c||^2), the sum of the row totals."""
    return float(np.sqrt(v.moments.totals.sum()))


def normalize(v: WaveFunction) -> WaveFunction:
    n = norm(v)
    if n == 0.0:
        raise ValueError("cannot normalize the zero state")
    return v * (1.0 / n)


def transverse_residual(v: WaveFunction) -> float:
    """max |c_0| = max |khat . v| over nodes, relative to the largest node
    amplitude max ||c(n)|| (`WaveFunction.peak_amplitude`)."""
    return v.moments.transverse_residual


def random_state(grid: WaveVectorGrid, seed: int = 0) -> WaveFunction:
    """Normalized transverse state with Gaussian helicity amplitudes.

    Deterministic for a given (grid, seed); useful for operator identity
    checks that must hold on arbitrary states.
    """
    rng = np.random.default_rng(seed)
    cp = rng.standard_normal(grid.n_nodes) + 1j * rng.standard_normal(grid.n_nodes)
    cm = rng.standard_normal(grid.n_nodes) + 1j * rng.standard_normal(grid.n_nodes)
    return normalize(WaveFunction.from_frame(grid, np.stack([cp, cm])))
