"""Circular polarization vectors transverse to a direction.

For a unit direction n = (sin t cos f, sin t sin f, cos t) the positive
helicity vector is

    eps_plus(n) = (e^{i f} / sqrt 2) *
        (cos t cos f - i sin f,  cos t sin f + i cos f,  -sin t)

and eps_minus = i * conj(eps_plus).  This phase convention is smooth
everywhere except t = pi, continuous at the north pole with
eps_plus(z) = (1, i, 0)/sqrt 2, and satisfies

    n . eps_a = 0          conj(eps_a) . eps_b = delta_ab
    n x eps_a = -i a eps_a     eps_plus x eps_minus = n
    eps_a(-n) = i a e^{2 i a f} eps_{-a}(n)

with a, b in {+1, -1}.
"""

from __future__ import annotations

import numpy as np

__all__ = ["eps_plus", "eps_plus_angles", "eps_minus", "helicity_basis"]

_POLE_TOL = 1e-12


def _angles(direction):
    direction = np.asarray(direction, dtype=float)
    squeeze = direction.ndim == 1
    d = np.atleast_2d(direction)
    nrm = np.linalg.norm(d, axis=1)
    if np.any(nrm == 0.0):
        raise ValueError("zero direction has no transverse plane")
    d = d / nrm[:, None]
    ct = np.clip(d[:, 2], -1.0, 1.0)
    if np.any(ct < -1.0 + _POLE_TOL):
        raise ValueError("polarization basis is singular at theta = pi")
    st = np.sqrt(np.maximum(0.0, 1.0 - ct * ct))
    phi = np.arctan2(d[:, 1], d[:, 0])
    # at the north pole atan2(0, 0) = 0, which picks the continuous limit
    return ct, st, phi, squeeze


def eps_plus_angles(ct, st, phi):
    """eps_plus from cos(theta), sin(theta) and phi, components on a last axis.

    Defined at every (theta, phi), theta = pi included, where it is the
    limit along the meridian phi.
    """
    # Every complex-by-complex product reads named operands: numpy reuses a
    # temporary of 256 KiB or more in place, and its in-place complex
    # product rounds differently, so the value at one direction would
    # depend on how many directions are evaluated together.
    cf = np.cos(phi)
    sf = np.sin(phi)
    pre = np.exp(1j * phi)
    pre = pre / np.sqrt(2.0)
    along = ct * cf - 1j * sf
    across = ct * sf + 1j * cf
    return np.stack([pre * along, pre * across, -pre * st], axis=-1)


def eps_plus(direction):
    """Positive-helicity unit vector(s) for direction(s) of shape (3,) or (N, 3)."""
    ct, st, phi, squeeze = _angles(direction)
    e = eps_plus_angles(ct, st, phi)
    return e[0] if squeeze else e


def eps_minus(direction):
    """Negative-helicity unit vector(s), i * conj(eps_plus)."""
    return 1j * np.conj(eps_plus(direction))


def helicity_basis(direction):
    """Pair (eps_plus, eps_minus) for the given direction(s)."""
    ep = eps_plus(direction)
    conj = np.conj(ep)  # a named operand, for the reason in eps_plus_angles
    return ep, 1j * conj

