"""Transverse one-photon wavefunctions sampled on a grid.

A state is a complex array of Cartesian components v(k) with shape
(n_nodes, 3), constrained to the transverse subspace khat . v = 0.  The
inner product is <u, v> = int d^3k conj(u) . v; every quantum expectation
in the package reduces to this quadrature.
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
    def from_helicity(cls, grid: WaveVectorGrid, c):
        """The state c_plus eps_plus + c_minus eps_minus, transverse by
        construction, from amplitudes c of shape (2, n_nodes) or
        (2, n_k, n_theta, n_phi); the inverse of `helicity_components`."""
        ep, em = grid.helicity_basis
        c = c.reshape((2,) + grid.shape + (1,))
        return cls(grid, (c[0] * ep + c[1] * em).reshape(-1, 3), check=False)

    def helicity_components(self):
        """Amplitudes (c_plus, c_minus) = conj(eps_+-) . v in the local
        helicity basis, as an array of shape (2, n_nodes)."""
        basis = np.conj(self.grid.helicity_basis)
        vals = self.grid.node_fields(self.values)
        return np.einsum("htpc,ktpc->hktp", basis, vals).reshape(2, -1)


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
    return normalize(WaveFunction.from_helicity(grid, np.stack([cp, cm])))
