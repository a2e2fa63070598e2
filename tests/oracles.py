"""Cartesian oracles for the frame operators and the frame inner product.

The library holds a state as its rows c in the local frame (eps_+, eps_-,
khat).  These forms act on the Cartesian samples `v.values` instead,
component by component, as the operators are written in the paper:

    (W v) = i khat x v,   (S_l v) = i khat_l (khat x v),
    <u, v> = int d^3k conj(u) . v,   longitudinal part khat . v.
"""

import numpy as np


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
