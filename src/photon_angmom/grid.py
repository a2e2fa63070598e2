"""Spherical wave-vector grids with product Gauss quadrature.

The grid discretizes momentum space in spherical coordinates: Gauss-Legendre
nodes in the radial variable k on [k_min, k_max] (the k^2 Jacobian is folded
into the weights), Gauss-Legendre nodes in x = cos(theta) on (-1, 1), and a
uniform trapezoid rule in the azimuth phi with weight `phi_weight` = 2*pi/n_phi.
Polar nodes are strictly interior, so theta = 0 and theta = pi never appear
and the circular polarization basis is single valued on every node.

Node order is radial-major: index = (ik * n_theta + itheta) * n_phi + iphi.

The Gauss-Legendre rule of each order n is computed once per process
(`gauss_legendre`, a bounded cache around numpy's `leggauss`) and shared
by every grid and program that asks for it: the radial and the polar
rules of all grids read it, so two grids of one spec hold the same nodes
and weights, bit for bit.  The shared arrays are read-only; a grid's
`x_nodes` and `x_weights` are the shared polar rule itself, so writing to
them raises.

Every reader takes its quadrature factors from the grid: the weights as
read-only factor pairs split by axis (`factor_weights`), and `phi_weight`.
Grids of one spec are one grid to every combination of states or
expansions (`require_same`).

Besides its nodes and weights a grid keeps two angular tables, each
built on first use and kept for its lifetime: the local frame of its
angular nodes (`frame`) and tables of the VSH helicity rows H_+ of the
analysis over the azimuthal orders -top..top, one per band a transform
asked for that no held table covers (filled by `vsh._grid_rows`; the
Legendre table they are built from lives only while a table is filled).
A table holds (2 top + 1)(l_max + 1) n_theta floats; the grid holds
1.1 MB on the README `mode` grid (8x256x12) after its report and
expansion dump, and 1.9 MB on a 12x64x64 grid after a report and a
full-band round trip at l_max 31.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .config import Spec, coerce_fields
from .polarization import helicity_basis

__all__ = [
    "GridSpec",
    "WaveVectorGrid",
    "build_grid",
    "integrate",
    "angular_integrate",
    "legendre_normalized",
    "gauss_legendre",
]


@lru_cache(maxsize=64)
def gauss_legendre(n: int):
    """The n-point Gauss-Legendre rule (x, w) on [-1, 1], x ascending.

    numpy's `leggauss`, computed once per process for each n and shared:
    both arrays are read-only.
    """
    rule = np.polynomial.legendre.leggauss(n)
    for a in rule:
        a.flags.writeable = False
    return rule


def legendre_normalized(l_max: int, x, m_max: int | None = None):
    """Normalized associated Legendre table P[l, m, i] at points x.

    P[l, m] carries the full spherical-harmonic normalization and
    Condon-Shortley sign, so Y_lm(theta, phi) = P[l, m](cos theta) e^{i m phi}
    for m >= 0.  Entries with m > l are zero.  Only the orders
    m <= m_max (default and at most l_max) are built; each row is the same,
    bit for bit, whatever m_max is.
    """
    x = np.asarray(x, dtype=float)
    if l_max < 0:
        raise ValueError("l_max must be >= 0")
    m_max = l_max if m_max is None else min(m_max, l_max)
    out = np.zeros((l_max + 1, m_max + 1) + x.shape)
    sx = np.sqrt(np.maximum(0.0, 1.0 - x * x))
    # diagonal: P_mm = (-1)^m sqrt((2m+1)/(4 pi) * (2m-1)!!/(2m)!!) (1-x^2)^{m/2}
    pmm = np.full(x.shape, 1.0 / np.sqrt(4.0 * np.pi))
    out[0, 0] = pmm
    for m in range(1, m_max + 1):
        pmm = -pmm * np.sqrt((2.0 * m + 1.0) / (2.0 * m)) * sx
        out[m, m] = pmm
    # first off-diagonal, then the three-term recurrence upward in l, for
    # all orders m <= l - 2 at once
    ms = np.arange(min(m_max + 1, l_max))
    column = (-1,) + (1,) * x.ndim
    out[ms + 1, ms] = x * np.sqrt(2.0 * ms + 3.0).reshape(column) * out[ms, ms]
    for l in range(2, l_max + 1):
        m = ms[: l - 1]
        a = np.sqrt((4.0 * l * l - 1.0) / (l * l - m * m)).reshape(column)
        b = np.sqrt(((l - 1.0) ** 2 - m * m) / (4.0 * (l - 1.0) ** 2 - 1.0)).reshape(column)
        out[l, : m.size] = a * (x * out[l - 1, : m.size] - b * out[l - 2, : m.size])
    return out


@dataclass(frozen=True)
class GridSpec(Spec):
    """Grid resolution and radial support.

    Parameters
    ----------
    n_k : int
        Number of radial Gauss-Legendre nodes, at least 1.
    k_min, k_max : float
        Radial support, 0 < k_min < k_max.  Keeping k_min positive excludes
        the singular point k = 0 where helicity vectors are undefined.
    n_theta : int
        Number of polar nodes (Gauss-Legendre in cos(theta)), at least 2.
    n_phi : int
        Number of uniform azimuthal nodes, at least 4.
    """

    n_k: int
    k_min: float
    k_max: float
    n_theta: int
    n_phi: int

    def __post_init__(self):
        coerce_fields(self)
        if self.n_k < 1:
            raise ValueError("'n_k' must be >= 1")
        if self.n_theta < 2:
            raise ValueError("'n_theta' must be >= 2")
        if self.n_phi < 4:
            raise ValueError("'n_phi' must be >= 4")
        if not (0.0 < self.k_min < self.k_max):
            raise ValueError("'k_min' and 'k_max' require 0 < k_min < k_max")


class WaveVectorGrid:
    """Quadrature nodes and weights for one GridSpec.

    Attributes
    ----------
    spec : GridSpec
    k, theta, phi : ndarray, shape (n_nodes,)
        Spherical coordinates of every node, radial-major order.
    kvec : ndarray, shape (n_nodes, 3)
        Cartesian wave vectors.
    khat : ndarray, shape (n_nodes, 3)
        Unit directions.
    weights : ndarray, shape (n_nodes,), read-only
        Full measure weights, sum(weights * f) ~ int d^3k f.
    angular_weights : ndarray, shape (n_theta * n_phi,), read-only
        Solid-angle weights; they sum to 4*pi.

    These arrays are formed on first read and then kept; the moments of
    a factored state need only the per-axis nodes and weights below, so a
    grid read only through them never forms the node arrays.
    x_nodes, x_weights : ndarray, shape (n_theta,)
        The polar Gauss-Legendre rule in x = cos(theta), the read-only
        arrays that `gauss_legendre` shares.
    theta_nodes, phi_nodes : ndarray
        The shared angular subgrid, one copy per radial shell.
    phi_weight : float
        The azimuthal weight 2 pi / n_phi of every node.
    radial_weights : ndarray, shape (n_k,)
        Radial weights including the k^2 Jacobian.
    frame : ndarray, shape (3, n_theta, n_phi, 3)
        The local unitary frame (eps_plus, eps_minus, khat) on the angular
        nodes, built on first use.
    _helicity_rows : dict
        top -> the read-only VSH helicity rows H_+ of the analysis of the
        orders -top..top, shape (2 top + 1, l_max+1, n_theta); empty until
        a transform runs.
    _factor_weights : dict
        Split -> the weights as a read-only factor pair (`factor_weights`).
    """

    def __init__(self, spec: GridSpec):
        self.spec = spec
        xr, wr = gauss_legendre(spec.n_k)
        half = 0.5 * (spec.k_max - spec.k_min)
        self.k_nodes = spec.k_min + half * (xr + 1.0)
        self.radial_weights = half * wr * self.k_nodes**2

        xt, wt = gauss_legendre(spec.n_theta)
        # the rule is ascending in x, i.e. descending in theta
        self.x_nodes = xt
        self.x_weights = wt
        self.theta_nodes = np.arccos(xt)
        self.phi_nodes = 2.0 * np.pi * np.arange(spec.n_phi) / spec.n_phi
        self.phi_weight = 2.0 * np.pi / spec.n_phi

        self.n_nodes = spec.n_k * spec.n_theta * spec.n_phi
        self.shape = (spec.n_k, spec.n_theta, spec.n_phi)
        self._helicity_rows = {}
        self._factor_weights = {}

    def require_same(self, other: WaveVectorGrid):
        """Raise unless `other` is this grid or a grid of equal spec."""
        if other is not self and other.spec != self.spec:
            raise ValueError(f"grids are not compatible: {other.spec} is not {self.spec}")

    def factor_weights(self, split: int):
        """The weights as a read-only factor pair: the product of the axis
        weights (radial, polar, `phi_weight`) before `split`, and of the
        rest; weights = the split-0 pair's second, angular_weights the
        split-1 pair's, flat.  Each split's pair is kept."""
        held = self._factor_weights
        if split not in held:
            axes = (self.radial_weights[:, None, None], self.x_weights[:, None],
                    np.full(self.spec.n_phi, self.phi_weight))
            pair = [np.ones(()), np.ones(())]
            for i, w in enumerate(axes):
                pair[i >= split] = pair[i >= split] * w
            for w in pair:
                w.flags.writeable = False
            held[split] = tuple(pair)
        return held[split]

    def _nodes(self, axis_nodes):
        # one axis' nodes broadcast over the whole grid, flat in node order
        return np.broadcast_to(axis_nodes, self.shape).ravel()

    @cached_property
    def k(self):
        return self._nodes(self.k_nodes[:, None, None])

    @cached_property
    def theta(self):
        return self._nodes(self.theta_nodes[:, None])

    @cached_property
    def phi(self):
        return self._nodes(self.phi_nodes)

    @cached_property
    def weights(self):
        return self.factor_weights(0)[1].ravel()

    @cached_property
    def angular_weights(self):
        return self.factor_weights(1)[1].ravel()

    @cached_property
    def _shell_khat(self):
        """khat on the angular nodes (one radial shell), shape (n_theta * n_phi, 3)."""
        theta = np.repeat(self.theta_nodes, self.spec.n_phi)
        phi = np.tile(self.phi_nodes, self.spec.n_theta)
        st = np.sin(theta)
        return np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)], axis=1)

    @cached_property
    def khat(self):
        return np.tile(self._shell_khat, (self.spec.n_k, 1))

    @cached_property
    def kvec(self):
        return self.k[:, None] * self.khat

    @cached_property
    def frame(self):
        """Local unitary frame (eps_plus, eps_minus, khat) on the angular
        nodes, shape (3, n_theta, n_phi, 3).

        The frame depends on the direction only, so it is evaluated on the
        first radial shell; broadcast over k its first two rows equal
        polarization.helicity_basis(khat) node by node, bit for bit.
        """
        khat = self._shell_khat
        rows = np.stack(helicity_basis(khat) + (khat,))
        return rows.reshape((3,) + self.shape[1:] + (3,))

    def node_fields(self, values):
        """Reshape flat node samples to (n_k, n_theta, n_phi, ...)."""
        values = np.asarray(values)
        return values.reshape(self.shape + values.shape[1:])


def build_grid(spec: GridSpec) -> WaveVectorGrid:
    """Construct the quadrature grid for a GridSpec."""
    return WaveVectorGrid(spec)


def integrate(grid: WaveVectorGrid, samples) -> complex:
    """Quadrature of node samples over d^3k.

    `samples` has shape (n_nodes,) for scalar fields or (n_nodes, c) for
    vector fields, in which case the components are summed as well.
    """
    samples = np.asarray(samples)
    if samples.shape[0] != grid.n_nodes:
        raise ValueError("sample array does not match grid node count")
    if samples.ndim == 1:
        return np.sum(grid.weights * samples)
    return np.sum(grid.weights[:, None] * samples)


def angular_integrate(grid: WaveVectorGrid, samples):
    """Integrate node samples over the sphere only, one value per radial shell.

    Returns an array of shape (n_k,) for scalar samples, or (n_k, c) when
    `samples` has trailing component axes.
    """
    samples = np.asarray(samples)
    if samples.shape[0] != grid.n_nodes:
        raise ValueError("sample array does not match grid node count")
    n_ang = grid.spec.n_theta * grid.spec.n_phi
    resh = samples.reshape((grid.spec.n_k, n_ang) + samples.shape[1:])
    if samples.ndim == 1:
        return resh @ grid.angular_weights
    return np.einsum("ka...,a->k...", resh, grid.angular_weights)
