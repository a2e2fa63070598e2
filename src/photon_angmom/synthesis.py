"""Real-space field synthesis and constants-of-motion cross-checks.

The analytic-signal fields of a state v(k) are direct quadrature sums over
the wave-vector grid (natural units, c = 1):

    A(x, t) = (1/2 pi) sum_i W_i v_i e^{i (k_i . x - omega_i t)} / sqrt(omega_i)
    E(x, t) = (i/2 pi) sum_i W_i sqrt(omega_i) v_i e^{i (k_i . x - omega_i t)}

Spatial derivatives are inserted analytically as i k_a factors under the
sum, so B = curl A and the momentum/angular-momentum integrands carry no
lattice differencing error; only the final x-integrals use the trapezoid
rule over the lattice.

Nodes come in rings: the n_phi contiguous nodes of one (k, theta) share
omega = k and k_z, so the phase factors as e^{i (k_x x + k_y y)} times a
per-ring e^{i (k_z z - omega t)}.  The Gauss-Legendre x-nodes are
symmetric, so the rings at theta and pi - theta of one shell form a mirror
pair with the same (k_x, k_y) on every phi node; only k_z changes sign.
With odd n_theta the equator ring is its own mirror and is counted once.
The synthesis evaluates the same sum in two stages over blocks of pairs:

    1. per pair, a phi-sum of A, i k_x A and i k_y A onto the (x, y) plane:
       one left factor (1 | i k_x | i k_y) e^{i k_y y}, (3 ny, n_phi),
       shared by both rings, against each ring's right factor
       A_c e^{i k_x x}, (n_phi, 3 nx), in one batched matrix product;
    2. per block, matrix products of those planes with the rings as the
       inner dimension: against P_z = e^{i (k_z z - omega t)} for d_x A and
       d_y A, and against [P_z, i omega P_z, i k_z P_z] for A, E and d_z A.

The lattice axes are uniform, so the in-plane phase tables
e^{i k (x_0 + j dx)} are built by doubling: rows [m, 2m) are rows [0, m)
times e^{i k m dx}.  Each entry is a product of at most 1 + ceil(log2 n)
correctly rounded phases, and a pair costs 2 + ceil(log2 nx) +
ceil(log2 ny) cos/sin per phi node instead of 2 (nx + ny).

This only reorders the plane-wave sum.  Cost is O(n_nodes nx ny) for the
first stage (9 nx ny complex multiply-adds per node, in the matrix
products) and O(n_rings nx ny nz) for the second, against
O(n_nodes nx ny nz) for the direct sum.  Blocks of pairs are sized from a
fixed byte budget, so memory stays bounded by it plus the output.

Real-space constants of motion evaluate the volume integrals

    P0  = (1/2 pi) int |E|^2
    P_j = (1/2 pi) int Re E* . d_j A
    S_j = (1/2 pi) int Re (E* ^ A)_j
    L_j = (1/2 pi) int Re E_m* (x ^ grad)_j A_m
    J_j = L_j + S_j

for comparison against their k-space forms int omega |v|^2, int k_j |v|^2
and the operator expectations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .config import Reals, Spec, Vec3, coerce_fields
from .operators import observable_report
from .wavefunction import WaveFunction, norm

__all__ = [
    "SpaceTimeLattice",
    "FieldSnapshot",
    "cube_lattice",
    "synthesize_fields",
    "real_space_com",
    "k_space_com",
    "com_convergence_shift",
    "relative_com_difference",
    "divergence_residual",
    "export_fields",
    "export_slice",
]


@dataclass(frozen=True)
class SpaceTimeLattice(Spec):
    """Regular x-lattice plus sample times.

    Axes run from origin[j] to origin[j] + extents[j] inclusive, so the
    spacing along axis j is extents[j] / (n_j - 1).
    """

    origin: Vec3
    extents: Vec3
    n_x: int
    n_y: int
    n_z: int
    times: Reals = (0.0,)

    def __post_init__(self):
        coerce_fields(self)
        if min(self.n_x, self.n_y, self.n_z) < 2:
            raise ValueError("'n_x', 'n_y' and 'n_z' must be >= 2")
        if min(self.extents) <= 0.0:
            raise ValueError("'extents' must be positive")

    @property
    def shape(self):
        return (self.n_x, self.n_y, self.n_z)

    def axis(self, j: int) -> np.ndarray:
        n = self.shape[j]
        return self.origin[j] + self.extents[j] * np.arange(n) / (n - 1)

    def spacing(self, j: int) -> float:
        return self.extents[j] / (self.shape[j] - 1)

    def axis_weights(self, j: int) -> np.ndarray:
        # trapezoid rule: half weight on the boundary planes
        w = np.full(self.shape[j], self.spacing(j))
        w[0] *= 0.5
        w[-1] *= 0.5
        return w


def cube_lattice(k0: float, side_wavelengths: float = 8.0, n: int = 64,
                 times=(0.0,)) -> SpaceTimeLattice:
    """Origin-centered cube, side = side_wavelengths * (2 pi / k0)."""
    side = side_wavelengths * 2.0 * np.pi / k0
    return SpaceTimeLattice(
        origin=(-0.5 * side,) * 3, extents=(side,) * 3, n_x=n, n_y=n, n_z=n,
        times=tuple(times),
    )


@dataclass
class FieldSnapshot:
    """A, E and the derivative table dA[a, b] = d_a A_b at one time."""

    lattice: SpaceTimeLattice
    time: float
    A: np.ndarray          # (n_x, n_y, n_z, 3)
    E: np.ndarray          # (n_x, n_y, n_z, 3)
    dA: np.ndarray         # (n_x, n_y, n_z, 3, 3)

    @property
    def B(self) -> np.ndarray:
        """Curl of A from the analytic derivative rows."""
        d = self.dA
        return np.stack(
            [
                d[..., 1, 2] - d[..., 2, 1],
                d[..., 2, 0] - d[..., 0, 2],
                d[..., 0, 1] - d[..., 1, 0],
            ],
            axis=-1,
        )


# Byte budget of the per-block buffers of synthesize_fields.
_BLOCK_BYTES = 32 << 20


def _phase(arg: np.ndarray) -> np.ndarray:
    """e^{i arg}, with cos and sin written into the real and imaginary views."""
    out = np.empty(arg.shape, dtype=complex)
    np.cos(arg, out=out.real)
    np.sin(arg, out=out.imag)
    return out


def _axis_phases(k: np.ndarray, x0: float, dx: float, out: np.ndarray) -> None:
    """Fill out[j] = e^{i k (x0 + j dx)} for j < len(out), by doubling.

    Rows [m, 2m) are rows [0, m) times e^{i k m dx}, so every entry is a
    product of at most 1 + ceil(log2 n) correctly rounded phases, at a cost
    of 1 + ceil(log2 n) cos/sin per k instead of n.
    """
    n = len(out)
    out[0] = _phase(k * x0)
    m = 1
    while m < n:
        step = min(m, n - m)
        np.multiply(out[:step], _phase(k * (m * dx)), out=out[m:m + step])
        m += step


def _pair_block(n_phi: int, nx: int, ny: int) -> int:
    """Mirror pairs per block: phase tables, factors and planes within _BLOCK_BYTES."""
    per_pair = 16 * (n_phi * (7 * nx + 3 * ny) + 18 * nx * ny)
    return max(1, _BLOCK_BYTES // per_pair)


def synthesize_fields(v: WaveFunction, lattice: SpaceTimeLattice,
                      time: float = 0.0) -> FieldSnapshot:
    """Evaluate A, E and all d_a A_b on the lattice at one time."""
    grid = v.grid
    for j in range(3):
        if lattice.spacing(j) >= np.pi / grid.spec.k_max:
            raise ValueError(
                f"lattice spacing {lattice.spacing(j):.4g} along axis {j} "
                f"aliases k_max = {grid.spec.k_max:.4g} "
                f"(need spacing < {np.pi / grid.spec.k_max:.4g})"
            )
    nx, ny, nz = lattice.shape
    (x0, y0, _), dx, dy = lattice.origin, lattice.spacing(0), lattice.spacing(1)
    az = lattice.axis(2)
    n_k, n_theta, n_phi = grid.shape
    half = (n_theta + 1) // 2                                 # mirror pairs per shell
    mirror = np.stack([np.arange(half), n_theta - 1 - np.arange(half)], axis=1)
    kvec = grid.kvec.reshape(n_k, n_theta, n_phi, 3)
    kx = kvec[:, :half, :, 0].reshape(-1, n_phi)              # the lower ring serves both
    ky = kvec[:, :half, :, 1].reshape(-1, n_phi)
    kz = kvec[:, mirror, 0, 2].reshape(-1)                    # (pair, mirror) order
    om = np.repeat(grid.k_nodes, 2 * half)
    amp = (grid.weights / (2.0 * np.pi * np.sqrt(grid.k)))[:, None] * v.values
    amp = amp.reshape(n_k, n_theta, n_phi, 3)[:, mirror].transpose(0, 1, 2, 4, 3)
    amp = amp.reshape(-1, 2, 3, n_phi)                        # (pair, mirror, comp., phi)
    if n_theta % 2:
        amp[half - 1::half, 1] = 0.0                          # the equator ring counts once
    n_pairs = len(amp)

    # rows (y, component, x); fa columns (A | E | d_z A, z), fk rows led by d_x | d_y
    fa = np.zeros((ny * 3 * nx, 3 * nz), dtype=complex)
    fk = np.zeros((2 * ny * 3 * nx, nz), dtype=complex)
    block = min(n_pairs, _pair_block(n_phi, nx, ny))
    # left: (1 | i k_x | i k_y) e^{i k_y y}; px: e^{i k_x x}, axis-major;
    # right: A_c e^{i k_x x} of both rings of a pair
    left = np.empty((block, 3, ny, n_phi), dtype=complex)
    px = np.empty((nx, block, n_phi), dtype=complex)
    right = np.empty((block, 2, n_phi, 3, nx), dtype=complex)
    g = np.empty((block, 2, 3 * ny, 3 * nx), dtype=complex)
    for lo in range(0, n_pairs, block):
        sl = slice(lo, lo + block)
        a = amp[sl]
        nb = len(a)
        # stage 1: per pair, phi-sums of A, i k_x A and i k_y A onto the (x, y) plane
        _axis_phases(ky[sl], y0, dy, out=left[:nb, 0].transpose(1, 0, 2))
        np.multiply((1j * kx[sl])[:, None], left[:nb, 0], out=left[:nb, 1])
        np.multiply((1j * ky[sl])[:, None], left[:nb, 0], out=left[:nb, 2])
        _axis_phases(kx[sl], x0, dx, out=px[:, :nb])
        np.multiply(a.transpose(0, 1, 3, 2)[..., None],
                    px[:, :nb].transpose(1, 2, 0)[:, None, :, None], out=right[:nb])
        np.matmul(left[:nb].reshape(nb, 1, 3 * ny, n_phi),
                  right[:nb].reshape(nb, 2, n_phi, 3 * nx), out=g[:nb])
        planes = g[:nb].reshape(2 * nb, 3, -1)
        # stage 2: rings against e^{i (k_z z - omega t)}
        rs = slice(2 * lo, 2 * (lo + nb))
        pz = _phase(kz[rs, None] * az - om[rs, None] * time)  # (2 nb, nz)
        rhs = np.concatenate(
            [pz, (1j * om[rs, None]) * pz, (1j * kz[rs, None]) * pz], axis=1)
        fa += planes[:, 0].T @ rhs
        fk += planes[:, 1:].reshape(2 * nb, -1).T @ pz

    cube = np.empty((nx, ny, nz, 5, 3), dtype=complex)        # A, E, d_x, d_y, d_z A
    cube[..., [0, 1, 4], :] = fa.reshape(ny, 3, nx, 3, nz).transpose(2, 0, 4, 3, 1)
    cube[..., 2:4, :] = fk.reshape(2, ny, 3, nx, nz).transpose(3, 1, 4, 0, 2)
    return FieldSnapshot(
        lattice=lattice,
        time=time,
        A=cube[..., 0, :],
        E=cube[..., 1, :],
        dA=cube[..., 2:5, :],
    )


def _site_weights(lattice: SpaceTimeLattice) -> np.ndarray:
    wx = lattice.axis_weights(0)
    wy = lattice.axis_weights(1)
    wz = lattice.axis_weights(2)
    return wx[:, None, None] * wy[None, :, None] * wz[None, None, :]


def real_space_com(snapshot: FieldSnapshot) -> dict:
    """Seven constants of motion plus the L/S split by lattice quadrature."""
    w = _site_weights(snapshot.lattice)
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
    # (x ^ grad)_j A_m with grad inserted analytically: eps_jab x_a dA[b, m]
    eps = [(1, 2), (2, 0), (0, 1)]
    L = np.empty(3)
    for j, (a, b) in enumerate(eps):
        integ = np.einsum("...m,...m->...", Ec, dA[..., b, :]) * X[a] \
            - np.einsum("...m,...m->...", Ec, dA[..., a, :]) * X[b]
        L[j] = pref * float(np.sum(w * integ.real))
    return {"P0": p0, "P": P, "L": L, "S": S, "J": L + S}


def k_space_com(v: WaveFunction, l_max: int | None = None) -> dict:
    """The same functionals from v(k): densities for P, operators for J, L, S."""
    n2 = norm(v) ** 2
    rep = observable_report(v * (1.0 / np.sqrt(n2)), l_max=l_max)
    return {
        "P0": rep.energy * n2,
        "P": rep.momentum * n2,
        "L": rep.oam * n2,
        "S": rep.sam * n2,
        "J": rep.total_am * n2,
    }


_COM_KEYS = ("P0", "P", "J", "L", "S")


def relative_com_difference(ref: dict, other: dict, scale: float) -> dict:
    """Per constant of motion, max |ref - other| / max(|ref|, 1e-3 * scale).

    The floor puts exactly-zero components of `ref` on the energy scale
    `scale` (usually |P0|) instead of dividing by zero.
    """
    out = {}
    for key in _COM_KEYS:
        a = np.atleast_1d(ref[key]).astype(float)
        b = np.atleast_1d(other[key]).astype(float)
        out[key] = float(np.max(np.abs(a - b) / np.maximum(np.abs(a), 1e-3 * scale)))
    return out


def com_convergence_shift(v: WaveFunction, base: FieldSnapshot,
                          factor: float = 2.0) -> float:
    """Max relative COM shift of v's snapshot `base` when its box grows by
    `factor` at fixed spacing, center and time.

    A localized state on a converged lattice gives a small shift; a value
    above the target tolerance flags an undersized box or a state whose
    fields do not decay inside it.
    """
    if factor <= 1.0:
        raise ValueError("factor must exceed 1")
    lattice = base.lattice
    center = tuple(
        lattice.origin[j] + 0.5 * lattice.extents[j] for j in range(3)
    )
    n_big = tuple(
        int(round((lattice.shape[j] - 1) * factor)) + 1 for j in range(3)
    )
    ext_big = tuple(
        lattice.spacing(j) * (n_big[j] - 1) for j in range(3)
    )
    big = SpaceTimeLattice(
        origin=tuple(center[j] - 0.5 * ext_big[j] for j in range(3)),
        extents=ext_big, n_x=n_big[0], n_y=n_big[1], n_z=n_big[2],
        times=lattice.times,
    )
    ref = real_space_com(base)
    other = real_space_com(synthesize_fields(v, big, base.time))
    scale = max(abs(ref["P0"]), 1e-300)
    return max(relative_com_difference(ref, other, scale).values())


def divergence_residual(snapshot: FieldSnapshot) -> float:
    """max |div A| relative to max |dA|; zero for transverse v up to quadrature."""
    div = snapshot.dA[..., 0, 0] + snapshot.dA[..., 1, 1] + snapshot.dA[..., 2, 2]
    scale = np.abs(snapshot.dA).max()
    if scale == 0.0:
        return 0.0
    return float(np.abs(div).max() / scale)


def export_fields(snapshot: FieldSnapshot, path: str) -> dict:
    """Dump A, E, B as little-endian float64 (re, im) pairs.

    Layout: the three fields concatenated in order A, E, B; within each
    field, sites in C order of (ix, iy, iz); within each site the three
    Cartesian components; each complex number as (re, im).  A geometry
    sidecar is written to <path>.geometry.json and also returned.
    """
    fields = {"A": snapshot.A, "E": snapshot.E, "B": snapshot.B}
    blocks = []
    for name in ("A", "E", "B"):
        flat = fields[name].reshape(-1)
        pairs = np.empty((flat.size, 2), dtype="<f8")
        pairs[:, 0] = flat.real
        pairs[:, 1] = flat.imag
        blocks.append(pairs)
    with open(path, "wb") as fh:
        for b in blocks:
            fh.write(b.tobytes())
    geometry = {
        "lattice": snapshot.lattice.to_dict(),
        "time": snapshot.time,
        "fields": ["A", "E", "B"],
        "layout": "site-major, component-minor, complex as (re, im) float64 LE",
        "shape": list(snapshot.lattice.shape) + [3],
        "bytes_per_field": int(blocks[0].nbytes),
    }
    with open(path + ".geometry.json", "w") as fh:
        json.dump(geometry, fh, indent=1, sort_keys=True)
    return geometry


def export_slice(snapshot: FieldSnapshot, path: str, field: str = "E",
                 iz: int | None = None) -> None:
    """CSV of one z = const plane: x, y, z, then (re, im) per component."""
    if field not in ("A", "E", "B"):
        raise ValueError("field must be one of A, E, B")
    data = {"A": snapshot.A, "E": snapshot.E, "B": snapshot.B}[field]
    lat = snapshot.lattice
    if iz is None:
        iz = lat.n_z // 2
    if not (0 <= iz < lat.n_z):
        raise ValueError(f"iz = {iz} outside [0, {lat.n_z})")
    plane = data[:, :, iz, :]
    z = lat.axis(2)[iz]
    cols = ",".join(
        ["x", "y", "z"]
        + [f"{p}_{field}{c}" for c in (1, 2, 3) for p in ("re", "im")]
    )
    with open(path, "w") as fh:
        fh.write(cols + "\n")
        for ix, x in enumerate(lat.axis(0)):
            for iy, y in enumerate(lat.axis(1)):
                vals = plane[ix, iy]
                nums = []
                for c in range(3):
                    nums.append(f"{vals[c].real:.17g}")
                    nums.append(f"{vals[c].imag:.17g}")
                fh.write(f"{x:.17g},{y:.17g},{z:.17g}," + ",".join(nums) + "\n")
