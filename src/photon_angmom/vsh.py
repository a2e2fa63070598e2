"""Scalar and transverse vector spherical harmonics with grid transforms.

Scalar harmonics Y_lm use the orthonormal convention with the Condon-Shortley
phase, built from normalized associated Legendre recurrences (stable to
l of order 1000, no factorials).

The transverse vector harmonics are

    Y1_lm = (1/sqrt(l(l+1))) * (angular momentum operator) Y_lm
    Y2_lm = khat x Y1_lm

with l >= 1.  Y1 is evaluated through ladder-operator closed forms: with
the ladder factors c_pm(l, m) = sqrt(l(l+1) - m(m +- 1)) (`ladder`) and
N = sqrt(l(l+1)), its components (Y1)_+- = (Y1)_x +- i (Y1)_y and (Y1)_z
are R_0 e^{i(m+1)phi}, R_1 e^{i(m-1)phi} and R_2 e^{i m phi} with the rows

    R_0 = c_plus P_{l,m+1} / N,   R_1 = c_minus P_{l,m-1} / N,   R_2 = m P_lm / N,

so no numerical differentiation appears anywhere.  Together the two
families form a complete orthonormal basis of the transverse subspace at
each point of the sphere.

The transforms work on the helicity components c_h = conj(eps_h) . v,
h = +1, -1, of the local basis `polarization.eps_plus` / `eps_minus`:
the first two of the frame rows (c_+, c_-, c_0) that a state holds
(`WaveFunction.c`), so neither transform converts a state.  With
x = cos(theta),

    conj(eps_+) . Y1_lm = H_+ e^{i(m-1)phi}
    conj(eps_-) . Y1_lm = -i H_- e^{i(m+1)phi}
    H_+- = ((x -+ 1) R_0 + (x +- 1) R_1 - 2 sin(theta) R_2) / (2 sqrt 2),

so each helicity component of Y1_lm is one real row times one azimuthal
harmonic, and khat x eps_h = -i h eps_h turns Y2_lm into the same rows.
`analyze` reads the state's own FFT in phi and, per order m, contracts
FFT bin m - h of c_h against the row H_h weighted by the phi and polar
quadrature, (2 pi / n_phi) w_theta: with p_+ and p_- these two
contractions (the -i of H_- folded in), the coefficients are
a1 = p_+ + p_- and a2 = i (p_+ - p_-).  `synthesize` is the transpose:
it adds (a1 - i a2) H_+ into bin m - 1 of c_+ and (a2 - i a1) H_- into
bin m + 1 of c_-, divides out the quadrature weight, and an inverse FFT
along phi gives the rows of the state, with c_0 = 0: transverse by
construction.
The azimuthal FFT and the polar Gauss-Legendre sums are exact for
bandlimited content.  The FFT is the one every state keeps with its
moments (`WaveFunction.moments`): the factor pair of
`FrameMoments.spectrum`, of the factor that owns phi, read per bin as the
product of the factors at that bin (`FrameMoments.slabs`).  So a state
is transformed in phi once, whether the report, the J3 moments, the
azimuthal support or `analyze` asks first, and there is one analysis
path.

Both transforms run every order of their window as one batched real
matrix product on float views (the Legendre contraction batched over
orders, as in Schaeffer, G^3 14 (2013) 751): `analyze` gathers the bins
of all orders in one indexed read, laid out (m, h, theta, k) so that
(re, im) of each k sit last, and multiplies the rows into them;
`synthesize` lays its amplitudes out the same way over l and adds the
products into the bins, which hold phi last so that the inverse FFT runs
along the contiguous axis.  Orders that alias onto one bin of a coarse
azimuthal grid add up in increasing m, n_phi orders at a time.

The weighted rows depend only on the grid and on m, so the grid keeps
them (`_grid_rows`).  H_- of order m is -(-1)^m H_+ of order -m in value,
so the grid holds only H_+, of the orders -top..top, in read-only tables:
a strided view of one table serves both helicities of any window within
its top, and the sign goes onto the bins and amplitudes of the even
orders.  Row l does not depend on the band, so a table serves every
smaller band as a slice.  A table is built, many orders per call, when no
held table covers a request's window and band, and it replaces the tables
it covers; so a report's band on its narrow window and a round trip's
full window at a smaller band each keep their own.  A table holds
(2 top + 1)(l_max + 1) n_theta floats.  After a report and a round trip
at the largest full band the grid holds 0.17 MB on the README library
grid (12x32x32), 1.9 MB on 12x64x64 and 1.1 MB on the README `mode` grid
(8x256x12).  A narrow window far from m = 0 holds every order down to its
mirror image at its band.
"""

from __future__ import annotations

import numpy as np

from .grid import WaveVectorGrid, legendre_normalized
from .polarization import eps_plus_angles
from .wavefunction import WaveFunction

__all__ = [
    "VshExpansion",
    "scalar_ylm",
    "vsh_pair",
    "vsh_basis",
    "analyze",
    "synthesize",
    "legendre_normalized",
    "ladder",
]


def ladder(l, m, sign):
    """Ladder factor sqrt(l(l+1) - m(m + sign)) for sign = +-1, elementwise.

    J_+- Y_lm = ladder(l, m, +-1) Y_{l,m+-1}; the factor is zero where
    m + sign leaves |m| <= l.
    """
    l = np.asarray(l, dtype=float)
    m = np.asarray(m, dtype=float)
    return np.sqrt(np.maximum(0.0, l * (l + 1.0) - m * (m + sign)))


def _signed_rows(table, mu):
    """Real rows P[:, mu] of the signed orders mu, the axes of mu first.

    Y_{l,mu} = P[l, mu] e^{i mu phi}; Y_{l,-mu} = (-1)^mu conj(Y_{l,mu}) puts
    the sign of a negative order on the table row of |mu|.
    """
    mu = np.asarray(mu)
    sign = np.where((mu < 0) & (mu % 2 == 1), -1.0, 1.0)
    rows = np.moveaxis(table[:, np.abs(mu)], 0, mu.ndim)
    return rows * sign.reshape(sign.shape + (1,) * (rows.ndim - mu.ndim))


def _ladder_weights(l_max: int, ms):
    """Weights of the rows R_0, R_1, R_2 of Y1_lm, shape (len(ms), 3, l_max+1).

    The 1/(2 sqrt 2) of the helicity rows is folded in; l = 0 has weight 0.
    """
    l = np.arange(l_max + 1.0)
    inv_n = np.zeros_like(l)
    inv_n[1:] = 1.0 / (2.0 * np.sqrt(2.0) * np.sqrt(l[1:] * (l[1:] + 1.0)))
    m = np.asarray(ms, dtype=float)[:, None]
    factors = np.broadcast_arrays(ladder(l, m, +1), ladder(l, m, -1), m)
    return inv_n * np.stack(factors, axis=1)


def _x_mix(x, s):
    """(2, 3, ...) mix taking the rows R_0, R_1, R_2 to H_+ and H_-."""
    return np.array([[x - 1.0, x + 1.0, -2.0 * s], [x + 1.0, x - 1.0, -2.0 * s]])


def _helicity_rows(table, weights, mix, ms):
    """Rows (H_+, H_-) of Y1_lm of each order m in ms, l = 0..l_max:
    shape (len(ms), 2, l_max+1, ...).

    `weights` holds the `_ladder_weights` of ms and `mix` is the `_x_mix`
    of the points, optionally times a quadrature weight; the rows of `mix`
    select the helicities built (its first row alone builds H_+ only).  The
    table must hold orders up to max |m| + 1: the R_0 and R_1 rows of
    |m| = l_max read order l_max + 1, with a zero ladder factor.
    """
    ms = np.asarray(ms)[:, None]
    rows = _signed_rows(table[: weights.shape[-1]], ms + np.array([1, -1, 0]))
    return np.einsum("hc...,mcl,mcl...->mhl...", mix, weights, rows)


# A table is built this many bytes of `_helicity_rows` input rows (three
# per order) at a time: its temporaries take a few times that, which a
# block keeps small next to the table, and small grids take one call.
_ROW_BUILD_BYTES = 1 << 22


def _grid_rows(grid: WaveVectorGrid, l_max: int, m_min: int, m_max: int):
    """Analysis rows of the orders m_min..m_max, degrees 0..l_max, with
    the quadrature `phi_weight` x_weights folded in: a read-only view R of shape
    (n_m, 2, l_max+1, n_theta) into one of the grid's tables of H_+ rows.

    R[i, 0] is H_+ of order m_min + i.  R[i, 1] is H_+ of order
    i - m_max, which equals -(-1)^m H_- of m = m_max - i in value, so
    column 1 runs over the orders in decreasing m and carries that sign.
    The grid keeps tables of H_+ over the orders -top..top
    (`grid._helicity_rows`, {top: table}); row l does not depend on the
    band, so any table with top >= max(m_max, -m_min) and more than l_max
    rows serves the request as a slice.  Otherwise a table of this top and
    band is built, in blocks of orders that keep the temporaries small,
    and replaces every table it covers: a report's band on its window and
    a round trip's full window at a smaller band each keep their own.
    """
    held = grid._helicity_rows
    need = max(m_max, -m_min)
    table = next((t for top, t in held.items() if top >= need and t.shape[1] > l_max), None)
    if table is None:
        ms = np.arange(-need, need + 1)
        legendre = legendre_normalized(l_max + 1, grid.x_nodes, need + 1)
        mix = _x_mix(grid.x_nodes, np.sin(grid.theta_nodes))[:1]
        mix = (grid.phi_weight * grid.x_weights) * mix
        weights = _ladder_weights(l_max, ms)
        table = np.empty((ms.size, l_max + 1, grid.spec.n_theta))
        step = max(1, _ROW_BUILD_BYTES // (3 * table[0].nbytes))
        for lo in range(0, ms.size, step):
            block = slice(lo, lo + step)
            table[block] = _helicity_rows(legendre, weights[block], mix, ms[block])[:, 0]
        table.flags.writeable = False
        for top in [top for top, t in held.items() if top <= need and t.shape[1] <= l_max + 1]:
            del held[top]
        held[need] = table
    top = len(table) // 2
    step = table.strides[0]
    return np.lib.stride_tricks.as_strided(
        table[top + m_min :, : l_max + 1],
        shape=(m_max - m_min + 1, 2, l_max + 1, grid.spec.n_theta),
        strides=(step, (-m_max - m_min) * step) + table.strides[1:],
        writeable=False,
    )


def scalar_ylm(l: int, m: int, theta, phi):
    """Spherical harmonic Y_lm at angles theta in (0, pi), phi."""
    if abs(m) > l:
        raise ValueError(f"|m| = {abs(m)} exceeds l = {l}")
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    table = legendre_normalized(l, np.cos(theta))
    return _signed_rows(table, [m])[0, l] * np.exp(1j * m * phi)


def _vsh_fields(h_plus, h_minus, m: int, x, s, phi):
    """(Y1_lm, Y2_lm), each shape (..., 3), from the degree-l entries of
    the rows (H_+, H_-) of `_helicity_rows` at points with polar
    x = cos(theta), s = sin(theta) and azimuth phi, broadcast together."""
    c_plus = (h_plus * np.exp(1j * (m - 1) * phi))[..., None]
    c_minus = (-1j * h_minus * np.exp(1j * (m + 1) * phi))[..., None]
    ep = eps_plus_angles(x, s, phi)
    em = 1j * np.conj(ep)
    # khat x eps_h = -i h eps_h
    return c_plus * ep + c_minus * em, -1j * c_plus * ep + 1j * c_minus * em


def vsh_pair(l: int, m: int, theta, phi):
    """Vector spherical harmonics (Y1, Y2) at angles, each shape (..., 3).

    Defined at every (theta, phi), the poles included.
    """
    if l < 1:
        raise ValueError("vector harmonics require l >= 1")
    if abs(m) > l:
        raise ValueError(f"|m| = {abs(m)} exceeds l = {l}")
    theta, phi = np.broadcast_arrays(
        np.asarray(theta, dtype=float), np.asarray(phi, dtype=float)
    )
    x, s = np.cos(theta), np.sin(theta)
    table = legendre_normalized(l + 1, x)
    rows = _helicity_rows(table, _ladder_weights(l, [m]), _x_mix(x, s), [m])
    h_plus, h_minus = rows[0, :, l]
    return _vsh_fields(h_plus, h_minus, m, x, s, phi)


def vsh_basis(l_max: int, theta, phi):
    """Every pair (Y1_lm, Y2_lm), 1 <= l <= l_max, |m| <= l, on the product
    of the polar angles theta and the azimuths phi.

    Shape (l_max (l_max + 2), 2, n_theta, n_phi, 3): pair l^2 - 1 + l + m
    is (l, m), in order of l and then m, and equals
    `vsh_pair(l, m, theta[:, None], phi)` bit for bit.  One Legendre table
    on the n_theta polar angles serves every order.
    """
    if l_max < 1:
        raise ValueError("vector harmonics require l >= 1")
    theta = np.asarray(theta, dtype=float)[:, None]
    phi = np.asarray(phi, dtype=float)
    x, s = np.cos(theta), np.sin(theta)
    table = legendre_normalized(l_max + 1, x)
    ms = np.arange(-l_max, l_max + 1)
    rows = _helicity_rows(table, _ladder_weights(l_max, ms), _x_mix(x, s), ms)
    out = np.empty((l_max * (l_max + 2), 2, theta.size, phi.size, 3), dtype=complex)
    for m, (h_plus, h_minus) in zip(ms, rows):
        for l in range(max(abs(m), 1), l_max + 1):
            out[l * l - 1 + l + m] = _vsh_fields(h_plus[l], h_minus[l], m, x, s, phi)
    return out


class VshExpansion:
    """Coefficient table c[a, l, m](k) over a contiguous azimuthal window.

    Storage: coeffs has shape (2, n_k, l_max+1, n_m) indexed by
    (a-1, radial node, l, m - m_min).  The l = 0 row and all |m| > l slots
    are structurally zero; transverse fields have no l = 0 content.  The
    window m_min..m_max is never empty and lies within [-l_max, l_max].
    """

    def __init__(self, grid: WaveVectorGrid, l_max: int, m_min: int, m_max: int, coeffs):
        if l_max < 1:
            raise ValueError("l_max must be >= 1")
        if not -l_max <= m_min <= m_max <= l_max:
            raise ValueError(f"azimuthal window [{m_min}, {m_max}] empty or past +-{l_max}")
        n_m = m_max - m_min + 1
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.shape != (2, grid.spec.n_k, l_max + 1, n_m):
            raise ValueError("coefficient array shape mismatch")
        self.grid = grid
        self.l_max = l_max
        self.m_min = m_min
        self.m_max = m_max
        self.coeffs = coeffs

    @classmethod
    def zero(cls, grid, l_max, m_min=None, m_max=None):
        if m_min is None:
            m_min, m_max = -l_max, l_max
        n_m = m_max - m_min + 1
        return cls(
            grid, l_max, m_min, m_max,
            np.zeros((2, grid.spec.n_k, l_max + 1, n_m), dtype=complex),
        )

    @classmethod
    def single(cls, grid, l_max, a, l, m, radial):
        """Expansion with one (a, l, m) entry carrying the given radial profile."""
        if a not in (1, 2):
            raise ValueError("family a must be 1 or 2")
        if not (1 <= l <= l_max) or abs(m) > l:
            raise ValueError("invalid (l, m) for this l_max")
        e = cls.zero(grid, l_max)
        e.coeffs[a - 1, :, l, m - e.m_min] = np.asarray(radial, dtype=complex)
        return e

    @property
    def m_values(self):
        return np.arange(self.m_min, self.m_max + 1)

    def coefficient(self, a, l, m):
        """Radial profile of one (a, l, m) entry (zero array if outside the window)."""
        if a not in (1, 2):
            raise ValueError("family a must be 1 or 2")
        if l < 1 or l > self.l_max or abs(m) > l or not (self.m_min <= m <= self.m_max):
            return np.zeros(self.grid.spec.n_k, dtype=complex)
        return self.coeffs[a - 1, :, l, m - self.m_min]

    def norm_squared(self) -> float:
        """Parseval sum: radial integral of all |coefficient|^2."""
        dens = np.sum(np.abs(self.coeffs) ** 2, axis=(0, 2, 3))
        return float(np.sum(self.grid.radial_weights * dens))

    def require_compatible(self, other):
        """Raise unless `other` has the same grid (`grid.require_same`) and l_max."""
        self.grid.require_same(other.grid)
        if other.l_max != self.l_max:
            raise ValueError(
                f"expansions are not compatible: l_max {other.l_max} is not {self.l_max}")

    def __add__(self, other):
        self.require_compatible(other)
        out = VshExpansion.zero(self.grid, self.l_max, min(self.m_min, other.m_min),
                                max(self.m_max, other.m_max))
        for term in (self, other):
            out.coeffs[..., term.m_min - out.m_min : term.m_max - out.m_min + 1] += term.coeffs
        return out

    def __sub__(self, other):
        return self + (-1.0) * other

    def __mul__(self, scalar):
        return VshExpansion(
            self.grid, self.l_max, self.m_min, self.m_max, self.coeffs * scalar
        )

    __rmul__ = __mul__

    def to_rows(self):
        """JSON-ready list of {"a", "l", "m", "radial": [[re, im], ...]}."""
        rows = []
        for a in (1, 2):
            for l in range(1, self.l_max + 1):
                for m in range(max(-l, self.m_min), min(l, self.m_max) + 1):
                    rad = self.coeffs[a - 1, :, l, m - self.m_min]
                    if np.all(rad == 0.0):
                        continue
                    rows.append(
                        {
                            "a": a,
                            "l": l,
                            "m": m,
                            "radial": [[float(z.real), float(z.imag)] for z in rad],
                        }
                    )
        return rows


def analyze(v: WaveFunction, l_max: int, m_window=None) -> VshExpansion:
    """Project grid samples onto the vector harmonics up to l_max.

    With the default full window m in [-l_max, l_max] the grid must satisfy
    n_theta >= l_max + 1 and n_phi >= 2 l_max + 1.  A narrower contiguous
    window (m_lo, m_hi) may be given for azimuthally bandlimited states;
    the caller is then responsible for the azimuthal content actually
    fitting the grid (the transform itself stays exact in that case even
    on coarse azimuthal grids).  Longitudinal content of v is ignored.
    The phi-FFT read is the state's own (`FrameMoments.spectrum`).
    """
    grid = v.grid
    spec = grid.spec
    if l_max < 1:
        raise ValueError("l_max must be >= 1")
    if spec.n_theta < l_max + 1:
        raise ValueError(
            f"insufficient angular resolution: n_theta = {spec.n_theta} "
            f"< l_max + 1 = {l_max + 1}"
        )
    if m_window is None:
        if spec.n_phi < 2 * l_max + 1:
            raise ValueError(
                f"insufficient angular resolution: n_phi = {spec.n_phi} "
                f"< 2 l_max + 1 = {2 * l_max + 1}"
            )
        m_min, m_max = -l_max, l_max
    else:
        m_min, m_max = int(m_window[0]), int(m_window[1])
        if m_min > m_max or m_min < -l_max or m_max > l_max:
            raise ValueError("azimuthal window must lie within [-l_max, l_max]")

    ms = np.arange(m_min, m_max + 1)
    # column 0 reads bin m - 1 of c_+ in increasing m, column 1 bin m + 1
    # of c_- in decreasing m, against the rows of `_grid_rows`
    orders = np.stack([ms, ms[::-1]], axis=1)
    slab = v.moments.slabs((orders - [1, -1]) % spec.n_phi)
    # the sign -(-1)^m of the H_- rows, on the even orders of column 1
    np.negative(slab[m_max % 2 :: 2, 1], out=slab[m_max % 2 :: 2, 1])
    rows = _grid_rows(grid, l_max, m_min, m_max)
    p = (rows @ slab.view(float)).view(complex)
    # p_+ and p_- as [k, l, m], with the -i of H_- conjugated into
    # p_- = i p[1]: a1 = p_+ + p_-, a2 = i (p_+ - p_-)
    p_plus, p_minus = p[:, 0].transpose(2, 1, 0), p[::-1, 1].transpose(2, 1, 0)
    coeffs = np.stack([p_plus + 1j * p_minus, 1j * p_plus + p_minus])
    return VshExpansion(grid, l_max, m_min, m_max, coeffs)


def synthesize(e: VshExpansion) -> WaveFunction:
    """Sum the expansion back to grid samples (transverse by construction),
    every order of its window, which lies within [-l_max, l_max]."""
    grid = e.grid
    n_k, _, n_phi = grid.shape
    # bins[h, k, theta, mu]: the e^{i mu phi} amplitude of c_h; the third
    # row stays zero and becomes the state's c_0
    frame = np.zeros((3,) + grid.shape, dtype=complex)
    bins = frame[:2]
    m_min, m_max = e.m_min, e.m_max
    n_m = m_max - m_min + 1
    a1, a2 = e.coeffs
    # amplitudes (a1 - i a2) of H_+ and (a2 - i a1) of H_-, laid out
    # (m, h, l, k) as the rows of `_grid_rows` read them: column 1 in
    # decreasing m, with the sign of its H_- rows on the even orders
    q = np.empty((n_m, 2, e.l_max + 1, n_k), dtype=complex)
    q_plus, q_minus = q.transpose(1, 3, 2, 0)
    np.subtract(a1, 1j * a2, out=q_plus)
    np.subtract(a2, 1j * a1, out=q_minus[..., ::-1])
    np.negative(q[m_max % 2 :: 2, 1], out=q[m_max % 2 :: 2, 1])
    rows = _grid_rows(grid, e.l_max, m_min, m_max)
    c = (rows.swapaxes(-1, -2) @ q.view(float)).view(complex)
    # c_+ into bin m - 1 and c_- into bin m + 1, both in increasing m:
    # orders that alias onto one bin of a coarse azimuthal grid add up
    # in that order, as each run of n_phi orders fills distinct bins
    for h, (rows_h, shift) in enumerate(((c[:, 0], 1), (c[::-1, 1], -1))):
        for lo in range(0, n_m, n_phi):
            run = rows_h[lo : lo + n_phi].transpose(2, 1, 0)
            first = (m_min + lo - shift) % n_phi
            # the run's bins are cyclic: first..n_phi - 1, then 0..
            head = min(run.shape[-1], n_phi - first)
            bins[h, ..., first : first + head] += run[..., :head]
            bins[h, ..., : run.shape[-1] - head] += run[..., head:]
    # the rows carry the polar quadrature of the analysis: bins / w is
    # numpy's complex division by a real w, bins * (1 / w), on the floats
    floats = bins.view(float)
    floats *= 1.0 / (grid.phi_weight * grid.x_weights)[:, None]
    # the inverse FFT evaluates the amplitudes at the azimuthal nodes, into
    # the rows c_+ and c_- of the state
    bins[...] = np.fft.ifft(bins, axis=-1, norm="forward")
    return WaveFunction.from_frame(grid, frame)
