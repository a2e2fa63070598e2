"""Transverse one-photon wavefunctions sampled on a grid.

A state is a complex array of Cartesian components v(k) with shape
(n_nodes, 3), constrained to the transverse subspace khat . v = 0.  The
inner product is <u, v> = int d^3k conj(u) . v; every quantum expectation
in the package reduces to this quadrature.  The operators read a state in
the grid's local frame (eps_plus, eps_minus, khat) through
`WaveFunction.frame_components`; `WaveFunction.from_frame` is the
inverse.
"""

from __future__ import annotations

import numpy as np

from .grid import WaveVectorGrid

__all__ = [
    "WaveFunction",
    "inner_product",
    "norm",
    "normalize",
    "project_transverse",
    "transverse_residual",
    "random_state",
]


class WaveFunction:
    """Grid samples of a transverse vector amplitude.

    Parameters
    ----------
    grid : WaveVectorGrid
    values : ndarray, shape (n_nodes, 3)
        Cartesian components at every node.  Stored as complex128.
    check : bool
        When true (default) reject states whose longitudinal content
        khat . v exceeds an absolute tolerance of 1e-10 relative to the
        largest component, so operator algebra stays inside the physical
        subspace.
    """

    _CHECK_TOL = 1e-10

    def __init__(self, grid: WaveVectorGrid, values, check: bool = True):
        values = np.asarray(values, dtype=complex)
        if values.shape != (grid.n_nodes, 3):
            raise ValueError(
                f"values shape {values.shape} does not match grid "
                f"({grid.n_nodes}, 3)"
            )
        self.grid = grid
        self.values = values
        if check:
            res = transverse_residual(self)
            if res > self._CHECK_TOL:
                raise ValueError(
                    f"state is not transverse: max |khat.v| / max |v| = {res:.3e}"
                )

    def copy(self):
        return WaveFunction(self.grid, self.values.copy(), check=False)

    def __add__(self, other):
        self._same_grid(other)
        return WaveFunction(self.grid, self.values + other.values, check=False)

    def __sub__(self, other):
        self._same_grid(other)
        return WaveFunction(self.grid, self.values - other.values, check=False)

    def __mul__(self, scalar):
        return WaveFunction(self.grid, self.values * scalar, check=False)

    __rmul__ = __mul__

    def _same_grid(self, other):
        if other.grid is not self.grid and other.grid.spec != self.grid.spec:
            raise ValueError("wavefunctions live on different grids")

    def project_transverse(self):
        """Remove longitudinal content: the module-level `project_transverse`."""
        return project_transverse(self.grid, self.values)

    @classmethod
    def from_frame(cls, grid: WaveVectorGrid, c):
        """The state sum_a c_a f_a over the rows f = (eps_plus, eps_minus,
        khat) of `grid.frame`, from amplitudes c of shape (r, n_nodes) or
        (r, n_k, n_theta, n_phi): r = 2 rows (c_plus, c_minus) give a state
        transverse by construction, r = 3 rows add the longitudinal c_0.
        The inverse of `frame_components`."""
        c = c.reshape(c.shape[:1] + grid.shape)
        # one Cartesian component plane at a time, so that every product
        # runs along the contiguous phi axis into a reused buffer; the
        # planes are interleaved into (n_nodes, 3) once, at the end
        planes = np.empty((3,) + grid.shape, dtype=complex)
        tmp = np.empty(grid.shape, dtype=complex)
        for out, f in zip(planes, np.moveaxis(grid.frame, -1, 0)):
            np.multiply(c[0], f[0], out=out)
            for a in range(1, len(c)):
                out += np.multiply(c[a], f[a], out=tmp)
        return cls(grid, np.moveaxis(planes, 0, -1).reshape(-1, 3), check=False)

    def frame_components(self, rows: int = 3):
        """Amplitudes c = (c_plus, c_minus, c_0) = (conj(eps_+) . v,
        conj(eps_-) . v, khat . v) in the grid's local frame, shape
        (rows, n_k, n_theta, n_phi); phi is the last axis.  rows = 2 gives
        the transverse rows (c_plus, c_minus) only.  c_0 is the
        longitudinal part, zero for a transverse state."""
        basis = np.conj(self.grid.frame[:rows])
        return np.einsum("atpc,ktpc->aktp", basis, self.grid.node_fields(self.values))


def inner_product(u: WaveFunction, v: WaveFunction) -> complex:
    """Hermitian inner product int d^3k conj(u) . v."""
    u._same_grid(v)
    dots = np.einsum("nc,nc->n", np.conj(u.values), v.values)
    return complex(np.sum(u.grid.weights * dots))


def norm(v: WaveFunction) -> float:
    return float(np.sqrt(inner_product(v, v).real))


def normalize(v: WaveFunction) -> WaveFunction:
    n = norm(v)
    if n == 0.0:
        raise ValueError("cannot normalize the zero state")
    return WaveFunction(v.grid, v.values / n, check=False)


def project_transverse(grid: WaveVectorGrid, raw) -> WaveFunction:
    """Apply the projector (delta_jl - khat_j khat_l) to an arbitrary field.

    Accepts any complex (n_nodes, 3) samples and returns the transverse
    wavefunction; longitudinal input maps to zero.
    """
    raw = np.asarray(raw, dtype=complex)
    if raw.shape != (grid.n_nodes, 3):
        raise ValueError(
            f"raw field shape {raw.shape} does not match grid ({grid.n_nodes}, 3)"
        )
    lon = np.einsum("nc,nc->n", grid.khat, raw)
    return WaveFunction(grid, raw - lon[:, None] * grid.khat, check=False)


def transverse_residual(v: WaveFunction) -> float:
    """max |khat . v| over nodes, relative to the largest component magnitude."""
    lon = np.abs(np.einsum("nc,nc->n", v.grid.khat, v.values))
    scale = np.abs(v.values).max()
    if scale == 0.0:
        return 0.0
    return float(lon.max() / scale)


def random_state(grid: WaveVectorGrid, seed: int = 0) -> WaveFunction:
    """Normalized transverse state with Gaussian helicity amplitudes.

    Deterministic for a given (grid, seed); useful for operator identity
    checks that must hold on arbitrary states.
    """
    rng = np.random.default_rng(seed)
    cp = rng.standard_normal(grid.n_nodes) + 1j * rng.standard_normal(grid.n_nodes)
    cm = rng.standard_normal(grid.n_nodes) + 1j * rng.standard_normal(grid.n_nodes)
    return normalize(WaveFunction.from_frame(grid, np.stack([cp, cm])))
