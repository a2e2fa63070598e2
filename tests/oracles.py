"""Oracles: Cartesian forms of the frame operators and the frame inner
product, and the VSH transforms one azimuthal order at a time.

The library holds a state as its rows c in the local frame (eps_+, eps_-,
khat).  The Cartesian forms act on the samples `v.values` instead,
component by component, as the operators are written in the paper:

    (W v) = i khat x v,   (S_l v) = i khat_l (khat x v),
    <u, v> = int d^3k conj(u) . v,   longitudinal part khat . v.

`per_order_analyze` and `per_order_synthesize` are the VSH transforms as
a loop over the orders m, each order with its own rows (H_+, H_-) built
by `vsh._helicity_rows`, its own FFT bins and its own add into the bins
of the synthesis.  Each order's contraction is the real product on float
views that `vsh.analyze` and `vsh.synthesize` batch over all orders, so
the batched transforms must equal these bit for bit on any BLAS.  (A
complex product per order, rows cast to complex, agrees with them only to
roundoff: BLAS may block the theta sum of a complex GEMM differently from
a real one, and routes a single radial node through GEMV.)

`composed_J` is J1 or J2 of an expansion as a composition of whole
expansions: each ladder term on its own shifted window, both embedded in
one wider window, summed and scaled.  `operators.apply_J` writes both
terms into one expansion clipped at +-l_max, and must equal it there.

`per_term_real_space_com` is the lattice quadrature of the constants of
motion with each density E* . d_b A formed anew for every term that reads
it, nine times in all.  `synthesis.real_space_com` forms each once, and
must equal it bit for bit.
"""

import numpy as np

from photon_angmom import synthesis, vsh
from photon_angmom.grid import legendre_normalized
from photon_angmom.wavefunction import WaveFunction


def cross_W(v):
    """i khat x v at every node, shape (n_nodes, 3)."""
    return 1j * np.cross(v.grid.khat, v.values)


def cross_S(axis, v):
    """i khat_l (khat x v) at every node, l = axis in 1..3."""
    return v.grid.khat[:, axis - 1, None] * cross_W(v)


def cartesian_inner(grid, a, b) -> complex:
    """int d^3k conj(a) . b of Cartesian samples of shape (n_nodes, 3)."""
    return complex(np.sum(grid.weights * np.einsum("nc,nc->n", np.conj(a), b)))


def cartesian_norm(grid, a) -> float:
    return float(np.sqrt(cartesian_inner(grid, a, a).real))


def khat_dot(v):
    """khat . v at every node: the longitudinal part."""
    return np.einsum("nc,nc->n", v.grid.khat, v.values)


def _quadrature(grid):
    """(2 pi / n_phi) w_theta: the weight of one node of each polar ring."""
    return (2.0 * np.pi / grid.spec.n_phi) * grid.x_weights


def order_rows(grid, l_max, m):
    """Rows (H_+, H_-) of order m with the analysis quadrature folded in,
    built afresh: shape (2, l_max+1, n_theta)."""
    table = legendre_normalized(l_max + 1, grid.x_nodes, abs(m) + 1)
    mix = _quadrature(grid) * vsh._x_mix(grid.x_nodes, np.sin(grid.theta_nodes))
    return vsh._helicity_rows(table, vsh._ladder_weights(l_max, [m]), mix, [m])[0]


def per_order_analyze(v, l_max, m_window=None):
    """Coefficients (2, n_k, l_max+1, n_m) of `vsh.analyze`, one order at a
    time: bins m - 1 of c_+ and m + 1 of c_- of the state's own phi-FFT,
    each contracted with its row."""
    n_k, n_theta, n_phi = v.grid.shape
    m_min, m_max = (-l_max, l_max) if m_window is None else m_window
    ms = np.arange(m_min, m_max + 1)
    p = np.empty((2, n_k, l_max + 1, ms.size), dtype=complex)
    for i, m in enumerate(ms):
        slab = v.moments.slabs(np.array([[(m - 1) % n_phi, (m + 1) % n_phi]]))[0]
        rows = order_rows(v.grid, l_max, m)
        p[..., i] = (rows @ slab.view(float)).view(complex).transpose(0, 2, 1)
    return np.stack([p[0] + 1j * p[1], 1j * p[0] + p[1]])


def per_order_synthesize(e):
    """The state of `vsh.synthesize`, one order at a time: (a1 - i a2) H_+
    added into bin m - 1 of c_+ and (a2 - i a1) H_- into bin m + 1 of c_-,
    in increasing m, then divided by the quadrature and inverse
    transformed in phi."""
    grid = e.grid
    n_k, n_theta, n_phi = grid.shape
    bins = np.zeros((2, n_phi, n_k, n_theta), dtype=complex)
    for m in range(max(e.m_min, -e.l_max), min(e.m_max, e.l_max) + 1):
        a1, a2 = e.coeffs[..., m - e.m_min]
        q = np.ascontiguousarray(np.stack([a1 - 1j * a2, a2 - 1j * a1]).transpose(0, 2, 1))
        rows = order_rows(grid, e.l_max, m).transpose(0, 2, 1)
        c_plus, c_minus = (rows @ q.view(float)).view(complex).transpose(0, 2, 1)
        bins[0, (m - 1) % n_phi] += c_plus
        bins[1, (m + 1) % n_phi] += c_minus
    bins /= _quadrature(grid)
    c = np.fft.ifft(bins, axis=1, norm="forward")
    return WaveFunction.from_frame(grid, np.moveaxis(c, 1, -1))


def composed_J(axis, e):
    """J1 (axis 1) or J2 (axis 2) of the expansion e as (m_min, m_max, coeffs)
    on the window m_min..m_max = e.m_min - 1..e.m_max + 1, which may reach
    past +-l_max: J+- = e.coeffs times `vsh.ladder`(l, m, +-1) on the window
    shifted by +-1, each embedded into zeros on the wider window, summed,
    J- negated first for J2, then times 0.5 (J1) or -0.5j (J2)."""
    ls = np.arange(e.l_max + 1)[:, None]
    ms = np.arange(e.m_min, e.m_max + 1)
    plus, minus = (
        np.zeros(e.coeffs.shape[:3] + (ms.size + 2,), dtype=complex) for _ in range(2)
    )
    plus[..., 2:] = e.coeffs * vsh.ladder(ls, ms, +1)
    lowered = e.coeffs * vsh.ladder(ls, ms, -1)
    minus[..., :-2] = lowered * (-1.0) if axis == 2 else lowered
    plus += minus
    return e.m_min - 1, e.m_max + 1, (0.5 if axis == 1 else -0.5j) * plus


def per_term_real_space_com(snapshot):
    """`synthesis.real_space_com` with one einsum per density and term."""
    w = synthesis._site_weights(snapshot.lattice)
    A, E, dA = snapshot.A, snapshot.E, snapshot.dA
    pref = 1.0 / (2.0 * np.pi)
    Ec = np.conj(E)

    p0 = pref * float(np.sum(w * np.einsum("...c,...c->...", Ec, E).real))
    P = np.array(
        [
            pref * float(np.sum(w * np.einsum("...c,...c->...", Ec, dA[..., j, :]).real))
            for j in range(3)
        ]
    )
    cross = np.cross(Ec, A).real
    S = pref * np.array([float(np.sum(w * cross[..., j])) for j in range(3)])
    lat = snapshot.lattice
    X = [lat.axis(0)[:, None, None], lat.axis(1)[None, :, None], lat.axis(2)[None, None, :]]
    eps = [(1, 2), (2, 0), (0, 1)]
    L = np.empty(3)
    for j, (a, b) in enumerate(eps):
        integ = np.einsum("...m,...m->...", Ec, dA[..., b, :]) * X[a] \
            - np.einsum("...m,...m->...", Ec, dA[..., a, :]) * X[b]
        L[j] = pref * float(np.sum(w * integ.real))
    return {"P0": p0, "P": P, "L": L, "S": S, "J": L + S}
