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

The quadrature weights factor by axis as well, so a weighted sum of
|c_a|^2 = |F_a|^2 |G_a|^2 is a product of two factor sums
(`_factor_weights`, `_totals`; `operators.FrameMoments` applies any
per-axis tables the same way); the node power sum_a |F_a|^2 |G_a|^2 is one product over the
rows, and max |c_0| the product of its factors' largest (`_peaks`).
`norm`, `transverse_residual`, `WaveFunction.peak_amplitude` and
`operators.FrameMoments` all read these sums, with no array of the full
grid unless a factor is one.

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


# the second factor of an unfactored state, c = (c, 1)
_UNIT = _read_only(np.ones((3, 1, 1, 1), dtype=complex))


def _product_rows(F, G):
    """The rows c_a = F_a G_a, each one product with the smaller factor
    first, the order in which the builders normalize them."""
    first, second = (G, F) if F[0].size > G[0].size else (F, G)
    c = np.empty(np.broadcast_shapes(F.shape, G.shape), dtype=complex)
    for out, f, g in zip(c, first, second):
        np.multiply(f, g, out=out)
    return c


def _factor_weights(grid: WaveVectorGrid, split: int):
    """The quadrature weights as a factor pair: the product of the axis
    weights (radial, polar, 2 pi / n_phi) before `split`, and of the rest.
    The grid keeps each split's pair."""
    held = grid._factor_weights
    if split not in held:
        n_phi = grid.spec.n_phi
        axes = (grid.radial_weights[:, None, None], grid.x_weights[:, None],
                np.full(n_phi, 2.0 * np.pi / n_phi))
        pair = [1.0, 1.0]
        for i, w in enumerate(axes):
            pair[i >= split] = pair[i >= split] * w
        held[split] = tuple(pair)
    return held[split]


def _totals(grid: WaveVectorGrid, split: int, powers) -> np.ndarray:
    """<c_a, c_a> = (sum w_F |F_a|^2)(sum w_G |G_a|^2) per row, from the
    factor powers; they sum to ||v||^2."""
    (wf, wg), (pf, pg) = _factor_weights(grid, split), powers
    return np.sum(wf * pf, axis=(1, 2, 3)) * np.sum(wg * pg, axis=(1, 2, 3))


def _peaks(powers):
    """(max ||c(n)||, max |c_0|) from the factor powers (|F|^2, |G|^2): the
    node power sum_a |F_a|^2 |G_a|^2 is one product over the three rows,
    and the largest |c_0|^2 is the product of its factors' largest."""
    pf, pg = (p.reshape(3, -1) for p in powers)
    node = pf.T @ pg
    return float(np.sqrt(node.max())), float(np.sqrt(pf[2].max() * pg[2].max()))


def _transverse_ratio(peak: float, longitudinal: float) -> float:
    """max |c_0| relative to max ||c(n)||; 0 for the zero state."""
    return 0.0 if peak == 0.0 else longitudinal / peak


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
            res = transverse_residual(self)
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

    def _powers(self):
        return tuple(_power(x) for x in self.factors)

    def peak_amplitude(self) -> float:
        """max over nodes of ||c(n)|| = ||v(n)||, a frame-invariant scale."""
        return _peaks(self._powers())[0]

    def __add__(self, other):
        self._same_grid(other)
        return WaveFunction.from_frame(self.grid, self.c + other.c)

    def __sub__(self, other):
        self._same_grid(other)
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

    def _same_grid(self, other):
        if other.grid is not self.grid and other.grid.spec != self.grid.spec:
            raise ValueError("wavefunctions live on different grids")

    def project_transverse(self):
        """The transverse part: the same rows c_+ and c_-, with c_0 = 0."""
        F, G = (np.concatenate([x[:2], np.zeros_like(x[2:])]) for x in self.factors)
        return WaveFunction._from_factors(self.grid, self.split, F,
                                          _UNIT if self.split == 3 else G)


def inner_product(u: WaveFunction, v: WaveFunction) -> complex:
    """Hermitian inner product int d^3k conj(u) . v, summed over the frame rows."""
    u._same_grid(v)
    dots = np.einsum("an,an->n", np.conj(u.c).reshape(3, -1), v.c.reshape(3, -1))
    return complex(np.sum(u.grid.weights * dots))


def norm(v: WaveFunction) -> float:
    """||v|| = sqrt(int d^3k ||c||^2), the sum of the row totals."""
    return float(np.sqrt(_totals(v.grid, v.split, v._powers()).sum()))


def normalize(v: WaveFunction) -> WaveFunction:
    n = norm(v)
    if n == 0.0:
        raise ValueError("cannot normalize the zero state")
    return v * (1.0 / n)


def transverse_residual(v: WaveFunction) -> float:
    """max |c_0| = max |khat . v| over nodes, relative to the largest node
    amplitude max ||c(n)|| (`WaveFunction.peak_amplitude`)."""
    return _transverse_ratio(*_peaks(v._powers()))


def random_state(grid: WaveVectorGrid, seed: int = 0) -> WaveFunction:
    """Normalized transverse state with Gaussian helicity amplitudes.

    Deterministic for a given (grid, seed); useful for operator identity
    checks that must hold on arbitrary states.
    """
    rng = np.random.default_rng(seed)
    cp = rng.standard_normal(grid.n_nodes) + 1j * rng.standard_normal(grid.n_nodes)
    cm = rng.standard_normal(grid.n_nodes) + 1j * rng.standard_normal(grid.n_nodes)
    return normalize(WaveFunction.from_frame(grid, np.stack([cp, cm])))
