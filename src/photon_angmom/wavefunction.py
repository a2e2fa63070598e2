"""One-photon wavefunctions on a grid, held in the local frame.

A state is sampled on the nodes of a WaveVectorGrid and stored as its
amplitudes in the grid's local unitary frame f = (eps_plus, eps_minus,
khat) (`grid.frame`),

    c = (c_+, c_-, c_0) = (conj(eps_+) . v, conj(eps_-) . v, khat . v),

one read-only complex array of shape (3, n_k, n_theta, n_phi), phi last.
Physical states are transverse, c_0 = 0; the row is kept so that the
approximately transverse vector LG mode loses nothing.  Because the
frame is unitary, the inner product <u, v> = int d^3k conj(u) . v is the
weighted sum of conj(u_a) v_a over rows and nodes, and every quantum
expectation in the package reduces to it.

The largest node amplitude max ||c(n)|| and the largest longitudinal part
max |c_0| are read off |c_a|^2 by one helper (`_peaks`), which
`WaveFunction.peak_amplitude`, `transverse_residual` and the one power
pass of `operators.FrameMoments` share.

The Cartesian samples v(k) are the boundary form.  Every state the
package builds is written as its rows (`WaveFunction.from_frame`); only
samples from outside it pass through `WaveFunction(grid, values)`, the
one forward conversion.  The `values` property forms v from c on every
read, with no cache; in the package only the CSV writer and field
synthesis read it.
"""

from __future__ import annotations

import numpy as np

from .grid import WaveVectorGrid

__all__ = [
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


def _node_power(v):
    """||c(n)||^2 = ||v(n)||^2 at every node, flat in node order."""
    return _power(v.c).sum(axis=0).ravel()


def _peaks(power):
    """(max ||c(n)||, max |c_0|) from the row powers |c_a|^2, shape (3, ...):
    the largest node amplitude and the largest longitudinal part."""
    return float(np.sqrt(power.sum(axis=0).max())), float(np.sqrt(power[2].max()))


def _transverse_ratio(peak: float, longitudinal: float) -> float:
    """max |c_0| relative to max ||c(n)||; 0 for the zero state."""
    return 0.0 if peak == 0.0 else longitudinal / peak


def _read_only(a):
    view = a.view()
    view.flags.writeable = False
    return view


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
    c : ndarray, shape (3, n_k, n_theta, n_phi), read-only
        The frame rows (c_+, c_-, c_0), the only samples a state holds.
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
        self.c = _read_only(_frame_rows(grid, values))
        if check:
            res = transverse_residual(self)
            if res > self._CHECK_TOL:
                raise ValueError(
                    f"state is not transverse: max |khat.v| / max ||v|| = {res:.3e}"
                )

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
        v = cls.__new__(cls)
        v.grid = grid
        v.c = _read_only(c)
        return v

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
        return _peaks(_power(self.c))[0]

    def __add__(self, other):
        self._same_grid(other)
        return WaveFunction.from_frame(self.grid, self.c + other.c)

    def __sub__(self, other):
        self._same_grid(other)
        return WaveFunction.from_frame(self.grid, self.c - other.c)

    def __mul__(self, scalar):
        return WaveFunction.from_frame(self.grid, self.c * scalar)

    __rmul__ = __mul__

    def _same_grid(self, other):
        if other.grid is not self.grid and other.grid.spec != self.grid.spec:
            raise ValueError("wavefunctions live on different grids")

    def project_transverse(self):
        """The transverse part: the same rows c_+ and c_-, with c_0 = 0."""
        return WaveFunction.from_frame(self.grid, self.c[:2])


def inner_product(u: WaveFunction, v: WaveFunction) -> complex:
    """Hermitian inner product int d^3k conj(u) . v, summed over the frame rows."""
    u._same_grid(v)
    dots = np.einsum("an,an->n", np.conj(u.c).reshape(3, -1), v.c.reshape(3, -1))
    return complex(np.sum(u.grid.weights * dots))


def norm(v: WaveFunction) -> float:
    """||v|| = sqrt(int d^3k ||c||^2), the weighted sum of the node power."""
    return float(np.sqrt(np.sum(v.grid.weights * _node_power(v))))


def normalize(v: WaveFunction) -> WaveFunction:
    n = norm(v)
    if n == 0.0:
        raise ValueError("cannot normalize the zero state")
    return v * (1.0 / n)


def transverse_residual(v: WaveFunction) -> float:
    """max |c_0| = max |khat . v| over nodes, relative to the largest node
    amplitude max ||c(n)|| (`WaveFunction.peak_amplitude`)."""
    return _transverse_ratio(*_peaks(_power(v.c)))


def random_state(grid: WaveVectorGrid, seed: int = 0) -> WaveFunction:
    """Normalized transverse state with Gaussian helicity amplitudes.

    Deterministic for a given (grid, seed); useful for operator identity
    checks that must hold on arbitrary states.
    """
    rng = np.random.default_rng(seed)
    cp = rng.standard_normal(grid.n_nodes) + 1j * rng.standard_normal(grid.n_nodes)
    cm = rng.standard_normal(grid.n_nodes) + 1j * rng.standard_normal(grid.n_nodes)
    return normalize(WaveFunction.from_frame(grid, np.stack([cp, cm])))
