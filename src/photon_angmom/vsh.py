"""Scalar and transverse vector spherical harmonics with grid transforms.

Scalar harmonics Y_lm use the orthonormal convention with the Condon-Shortley
phase, built from normalized associated Legendre recurrences (stable to
l of order 1000, no factorials).

The transverse vector harmonics are

    Y1_lm = (1/sqrt(l(l+1))) * (angular momentum operator) Y_lm
    Y2_lm = khat x Y1_lm

with l >= 1.  Y1 is evaluated through ladder-operator closed forms: with
the ladder factors c_pm(l, m) = sqrt(l(l+1) - m(m +- 1)) (`ladder`) and
N = sqrt(l(l+1)), its channels (Y1)_+- = (Y1)_x +- i (Y1)_y and (Y1)_z are

    (Y1)_+ = c_plus Y_{l,m+1} / N
    (Y1)_- = c_minus Y_{l,m-1} / N
    (Y1)_z = m Y_lm / N

so no numerical differentiation appears anywhere.  Together the two
families form a complete orthonormal basis of the transverse subspace at
each point of the sphere.

Transforms (`analyze` / `synthesize`) map between grid samples and
coefficient tables over (a, l, m) with one radial profile per entry.  Each
channel of Y1_lm is a single azimuthal harmonic, e^{i(m+1)phi},
e^{i(m-1)phi} and e^{i m phi}, so the azimuthal part is one FFT of the
three channels of both families (the second family reads v x khat), and
the polar part is one contraction per order m: a (3, l_max+1, n_theta)
table of ladder-weighted Legendre rows against the FFT bins m+1, m-1 and
m of the three channels.  In the channels the pointwise inner product is

    conj(u) . v = (conj(u_+) v_+ + conj(u_-) v_-) / 2 + conj(u_z) v_z,

which puts a metric of 1/2 on the +- channels of the analysis.  Synthesis
is the transpose; it adds the orders into the bins one at a time, so
orders that alias onto one bin of a coarse azimuthal grid still add.  The
azimuthal FFT and the polar Gauss-Legendre sums are exact for
bandlimited content.
"""

from __future__ import annotations

import numpy as np

from .grid import WaveVectorGrid
from .wavefunction import WaveFunction

__all__ = [
    "VshExpansion",
    "scalar_ylm",
    "vsh_pair",
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


def legendre_normalized(l_max: int, x):
    """Normalized associated Legendre table P[l, m, i] at points x.

    P[l, m] carries the full spherical-harmonic normalization and
    Condon-Shortley sign, so Y_lm(theta, phi) = P[l, m](cos theta) e^{i m phi}
    for m >= 0.  Entries with m > l are zero.
    """
    x = np.asarray(x, dtype=float)
    if l_max < 0:
        raise ValueError("l_max must be >= 0")
    out = np.zeros((l_max + 1, l_max + 1) + x.shape)
    sx = np.sqrt(np.maximum(0.0, 1.0 - x * x))
    # diagonal: P_mm = (-1)^m sqrt((2m+1)/(4 pi) * (2m-1)!!/(2m)!!) (1-x^2)^{m/2}
    pmm = np.full(x.shape, 1.0 / np.sqrt(4.0 * np.pi))
    out[0, 0] = pmm
    for m in range(1, l_max + 1):
        pmm = -pmm * np.sqrt((2.0 * m + 1.0) / (2.0 * m)) * sx
        out[m, m] = pmm
    # first off-diagonal, then the three-term recurrence upward in l
    for m in range(0, l_max):
        out[m + 1, m] = x * np.sqrt(2.0 * m + 3.0) * out[m, m]
        for l in range(m + 2, l_max + 1):
            a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m))
            b = np.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0))
            out[l, m] = a * (x * out[l - 1, m] - b * out[l - 2, m])
    return out


def _legendre_cached(grid: WaveVectorGrid, l_max: int):
    """Legendre table on the grid's polar nodes, grown on demand."""
    entry = grid._cache.get("legendre")
    if entry is None or entry[0] < l_max:
        table = legendre_normalized(l_max, grid.x_nodes)
        grid._cache["legendre"] = (l_max, table)
        return table
    return entry[1]


def _signed_rows(table, mu):
    """Real rows P[:, mu] of the signed orders mu, stacked first.

    Y_{l,mu} = P[l, mu] e^{i mu phi}; Y_{l,-mu} = (-1)^mu conj(Y_{l,mu}) puts
    the sign of a negative order on the table row of |mu|.
    """
    mu = np.asarray(mu)
    sign = np.where((mu < 0) & (mu % 2 == 1), -1.0, 1.0)
    rows = np.moveaxis(table[:, np.abs(mu)], 1, 0)
    return rows * sign.reshape(sign.shape + (1,) * (rows.ndim - 1))


def _channel_orders(m: int):
    """Azimuthal orders (m+1, m-1, m) of the x+iy, x-iy and z channels of Y1_lm."""
    return np.array([m + 1, m - 1, m])


def _order_rows(table, l_max: int, m: int):
    """Ladder-weighted Legendre rows of Y1_lm, l = 0..l_max: (3, l_max+1, ...).

    Rows 0, 1 and 2 are the x+iy, x-iy and z channels of Y1_lm without
    their phases e^{i mu phi}, mu = _channel_orders(m).  The table must hold
    orders up to |m| + 1: the x+-iy rows of |m| = l_max read order
    l_max + 1, with a zero ladder factor.
    """
    l = np.arange(l_max + 1.0)
    inv_n = np.zeros_like(l)
    inv_n[1:] = 1.0 / np.sqrt(l[1:] * (l[1:] + 1.0))
    weight = inv_n * np.stack([ladder(l, m, +1), ladder(l, m, -1), np.full_like(l, m)])
    rows = _signed_rows(table[: l_max + 1], _channel_orders(m))
    return rows * weight.reshape(weight.shape + (1,) * (rows.ndim - 2))


# Cartesian (x, y, z) to the channels (x+iy, x-iy, z), and back
_TO_CHANNELS = np.array([[1.0, 1.0j, 0.0], [1.0, -1.0j, 0.0], [0.0, 0.0, 1.0]])
_FROM_CHANNELS = np.array([[0.5, 0.5, 0.0], [-0.5j, 0.5j, 0.0], [0.0, 0.0, 1.0]])
# pairs with the bins of _channel_orders(m) to pick one bin per channel
_CHANNEL = np.arange(3)


def scalar_ylm(l: int, m: int, theta, phi):
    """Spherical harmonic Y_lm at angles theta in (0, pi), phi."""
    if abs(m) > l:
        raise ValueError(f"|m| = {abs(m)} exceeds l = {l}")
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    table = legendre_normalized(l, np.cos(theta))
    return _signed_rows(table, [m])[0, l] * np.exp(1j * m * phi)


def vsh_pair(l: int, m: int, theta, phi):
    """Vector spherical harmonics (Y1, Y2) at angles, each shape (..., 3)."""
    if l < 1:
        raise ValueError("vector harmonics require l >= 1")
    if abs(m) > l:
        raise ValueError(f"|m| = {abs(m)} exceeds l = {l}")
    theta, phi = np.broadcast_arrays(
        np.asarray(theta, dtype=float), np.asarray(phi, dtype=float)
    )
    table = legendre_normalized(l + 1, np.cos(theta))
    rows = _order_rows(table, l, m)[:, l]
    mu = _channel_orders(m).reshape((3,) + (1,) * phi.ndim)
    y1 = np.moveaxis(rows * np.exp(1j * mu * phi), 0, -1) @ _FROM_CHANNELS.T
    st = np.sin(theta)
    khat = np.stack(
        [st * np.cos(phi), st * np.sin(phi), np.cos(theta)], axis=-1
    ).astype(complex)
    y2 = np.cross(khat, y1)
    return y1, y2


class VshExpansion:
    """Coefficient table c[a, l, m](k) over a contiguous azimuthal window.

    Storage: coeffs has shape (2, n_k, l_max+1, n_m) indexed by
    (a-1, radial node, l, m - m_min).  The l = 0 row and all |m| > l slots
    are structurally zero; transverse fields have no l = 0 content.
    """

    def __init__(self, grid: WaveVectorGrid, l_max: int, m_min: int, m_max: int, coeffs):
        if l_max < 1:
            raise ValueError("l_max must be >= 1")
        if m_min > m_max:
            raise ValueError("empty azimuthal window")
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

    def copy(self):
        return VshExpansion(
            self.grid, self.l_max, self.m_min, self.m_max, self.coeffs.copy()
        )

    def _window_like(self, m_min, m_max):
        """Same coefficients embedded in a wider window."""
        if m_min > self.m_min or m_max < self.m_max:
            raise ValueError("target window does not contain current window")
        out = VshExpansion.zero(self.grid, self.l_max, m_min, m_max)
        lo = self.m_min - m_min
        out.coeffs[:, :, :, lo : lo + self.coeffs.shape[3]] = self.coeffs
        return out

    def __add__(self, other):
        if other.grid is not self.grid or other.l_max != self.l_max:
            raise ValueError("expansions are not compatible")
        m_min = min(self.m_min, other.m_min)
        m_max = max(self.m_max, other.m_max)
        a = self._window_like(m_min, m_max)
        b = other._window_like(m_min, m_max)
        a.coeffs += b.coeffs
        return a

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
    on coarse azimuthal grids).
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

    table = _legendre_cached(grid, l_max + 1)
    n_k, n_theta, n_phi = grid.shape
    # channels of v and, for the second family, of the rotated field v x khat
    chans = np.empty((3, 2, grid.n_nodes), dtype=complex)
    np.matmul(_TO_CHANNELS, v.values.T, out=chans[:, 0])
    np.matmul(_TO_CHANNELS, np.cross(v.values, grid.khat).T, out=chans[:, 1])
    # moments[c, family, k, theta, mu] = sum_phi e^{-i mu phi} channel c
    moments = np.fft.fft(chans.reshape(3, 2, n_k, n_theta, n_phi), axis=-1)
    del chans  # each buffer is six samples per node; hold two at most
    # phi and polar quadrature, with the metric
    # conj(Y1).v = (conj(Y1+) v+ + conj(Y1-) v-) / 2 + conj(Y1z) vz
    metric = np.array([0.5, 0.5, 1.0])[:, None, None]
    quad = metric * (2.0 * np.pi / n_phi) * grid.x_weights
    out = VshExpansion.zero(grid, l_max, m_min, m_max)
    for m in range(m_min, m_max + 1):
        picked = moments[_CHANNEL, :, :, :, _channel_orders(m) % n_phi]
        rows = quad * _order_rows(table, l_max, m)
        coeffs = picked.reshape(3, 2 * n_k, n_theta) @ rows.transpose(0, 2, 1)
        out.coeffs[..., m - m_min] = coeffs.sum(axis=0).reshape(2, n_k, l_max + 1)
    return out


def synthesize(e: VshExpansion, grid: WaveVectorGrid | None = None) -> WaveFunction:
    """Sum the expansion back to grid samples (transverse by construction)."""
    if grid is None:
        grid = e.grid
    elif grid.spec != e.grid.spec:
        raise ValueError("expansion was built on an incompatible grid")
    n_k, n_theta, n_phi = grid.shape
    table = _legendre_cached(grid, e.l_max + 1)
    coeffs = e.coeffs.reshape(2 * n_k, e.l_max + 1, -1)
    # bins[c, family, k, theta, mu]: e^{i mu phi} amplitude of channel c.
    # Orders are added one at a time, so orders that alias onto one bin of
    # a coarse azimuthal grid add up.
    bins = np.zeros((3, 2, n_k, n_theta, n_phi), dtype=complex)
    # a shifted window (J+- of an expansion) may reach past |m| = l_max,
    # where every slot is structurally zero
    for m in range(max(e.m_min, -e.l_max), min(e.m_max, e.l_max) + 1):
        amp = coeffs[:, :, m - e.m_min] @ _order_rows(table, e.l_max, m)
        bins[_CHANNEL, :, :, :, _channel_orders(m) % n_phi] += amp.reshape(
            3, 2, n_k, n_theta
        )
    # the inverse FFT evaluates the amplitudes at the azimuthal nodes
    chans = np.fft.ifft(bins, axis=-1, norm="forward").reshape(3, 2, -1)
    del bins  # each buffer is six samples per node; hold two at most
    cart = _FROM_CHANNELS @ chans.reshape(3, -1)
    first, second = cart.reshape(3, 2, -1).transpose(1, 2, 0)
    return WaveFunction(grid, first + np.cross(grid.khat, second), check=False)
