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
per-ring e^{i (k_z z - omega t)}.  The synthesis folds two symmetries of
the product grid into real tables and evaluates the sum in two stages.

Mirror pairs.  The Gauss-Legendre x-nodes are symmetric, so the rings at
theta and pi - theta of one shell share (k_x, k_y) on every phi node and
differ only in the sign of k_z.  With a+ and a- the amplitudes
W v / (2 pi sqrt(omega)) of the two rings, the pair's sums

    Sigma = (a+ + a-) e^{-i omega t},   Delta = i (a+ - a-) e^{-i omega t}

give, with c = cos k_z z and s = sin k_z z, the real z tables

    A     = Sigma c + Delta s             (also d_x A and d_y A)
    E / i = Sigma (omega c) + Delta (omega s)
    d_z A = Sigma (-k_z s) + Delta (k_z c)

With odd n_theta the equator ring is its own mirror and enters with
a- = 0, so it counts once.

Antipodes.  With even n_phi, node j + n_phi/2 carries (-k_x, -k_y): its
left factor L = (1 | i k_x | i k_y) e^{i k_y y} and its x phase
e = e^{i k_x x} are the conjugates of node j's.  So with alpha and alpha'
the amplitudes at j and at its antipode, the phi-sum of a pair plane is

    sum_j L alpha e + conj(L) alpha' conj(e)
        = sum_j Re L (alpha e + alpha' conj(e)) + Im L i (alpha e - alpha' conj(e)),

a real matrix product: the float view of L on the first n_phi/2 nodes,
(3 ny, n_phi) real, against the n_phi complex right rows
R1 = alpha e + alpha' conj(e) and R2 = i (alpha e - alpha' conj(e)).
With Y_q = y_q conj(e), y_0 = conj(alpha) + alpha' and
y_1 = i (conj(alpha) - alpha'), these are R1 = Re Y_0 + i Re Y_1 and
R2 = Im Y_0 + i Im Y_1: one complex product per block forms Y, laid out
so that the matrix product reads R through its float view, with no copy.
Odd n_phi runs the same code with alpha' = 0 on n_phi nodes.

The stages, each a real matrix product on float views:

    1. per pair, the Sigma and Delta planes of A, d_x A and d_y A on the
       (x, y) lattice: the real left (3 ny, n_phi) against the right rows
       (n_phi, 6 nx) of each plane;
    2. per panel of pairs, the planes (the (pair, Sigma | Delta) rows as
       the inner dimension) against the real z tables: [c; s] for A, d_x A
       and d_y A, and [-k_z s; k_z c], [c; s], [omega c; omega s] for d_z A,
       A and E / i from the undifferentiated planes.

Stage 1 costs 18 nx ny real multiply-adds per node (even n_phi; 36 for
odd), half the 9 complex ones of a complex left on every node.  Stage 2
costs 60 nx ny nz per mirror pair, half its complex form per ring pair.
The direct sum costs O(n_nodes nx ny nz).  This only reorders the
plane-wave sum.

The lattice axes are uniform, so the in-plane phase tables
e^{i k (x_0 + j dx)} are built by doubling: rows [m, 2m) are rows [0, m)
times e^{i k m dx}.  Each entry is a product of at most 1 + ceil(log2 n)
correctly rounded phases, and a pair costs 2 + ceil(log2 nx) +
ceil(log2 ny) cos/sin per phi node instead of 2 (nx + ny).

Parallelism: the package's workers (PHOTON_ANGMOM_THREADS of them, at
most _MAX_WORKERS, see `photon_angmom.parallel`) split both stages of
every panel, with BLAS on one thread; the pair rows are formed once, on
the calling thread.  Per panel, each worker takes a contiguous range of
its pairs for stage 1: their phase tables, right rows and products, into
its own rows of the panel.  Each then takes a contiguous range of the
output columns for stage 2, strip by strip.  No worker's part reorders a
sum: stage 1 is one product per pair, and the columns of a stage-2
product do not depend on how the columns are split, as long as every
range and strip starts on a multiple of _COLUMN_ALIGN.  The panels
depend on the CPUs, not on the worker count, so on one host the fields
are the same, bit for bit, for any worker count.  Hosts with other CPU
counts (or affinity masks) or other BLAS builds may differ at roundoff.

Memory: one byte budget holds a stage-2 panel of planes with its x and y
tables, and per CPU one stage-1 block, one stage-2 strip and the
iterator buffers of one ufunc call (numpy may give each call up to three
operands of 8192 elements), so that every worker has its own.  The
block's right rows and the strip's product are sized to stay in L2, and
the panel takes the rest.  Every stage-1 block of a panel writes its
planes into the panel, and stage 2 then runs per strip of output
columns, so each panel adds into the output once.  On top of the budget
come the output and arrays of the size of the node samples.  The
snapshot's A, E and dA are views of one (field, z, y, component, x)
output.

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

from . import parallel
from .config import Reals, Spec, Vec3, coerce_fields
from .csvfile import write_csv
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


# One byte budget for the private buffers of synthesize_fields: the stage-2
# panel of planes with its phase tables, and per CPU one stage-1 block, one
# stage-2 strip and one ufunc call's buffers.  The output cube comes on top.
_BUDGET_BYTES = 32 << 20
# Each CPU's share of the budget holds one stage-1 block, one stage-2
# strip and one ufunc call's buffers, within 2 * _L2_BYTES, so that the
# elementwise passes run in L2.
_L2_BYTES = 1 << 20
# The iterator buffers numpy may give one ufunc call: three operands of
# the default 8192 complex elements.  Each worker holds one call's at a time.
_UFUNC_BYTES = 3 * 8192 * 16
# Synthesis runs at most this many workers, so that their shares hold at
# most half of _BUDGET_BYTES.
_MAX_WORKERS = 16
# Stage-2 strips and the workers' column ranges start on multiples of this
# (a 64-byte line of floats).  It is also a multiple of the column unroll
# of the BLAS dgemm kernels measured (OpenBLAS, x86-64), so each output
# column is formed by the same kernel code however the columns are split,
# and the output does not depend on the worker count.
_COLUMN_ALIGN = 8


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


def _synthesis_blocks(n_pairs: int, n_h: int, shape, cpus: int = 1) -> tuple[int, int, int]:
    """(block, panel, strip) of synthesize_fields on `cpus` CPUs.

    Each CPU (at most _MAX_WORKERS of them) gets a share of _BUDGET_BYTES:
    2 * _L2_BYTES, less where the shares would otherwise hold more than
    half the budget.  A share holds one ufunc call's buffers, and what is
    left of it, halved, sizes the mirror pairs per stage-1 block (its right
    factor) and the output columns per stage-2 strip (its product; in
    multiples of _COLUMN_ALIGN).  The planes and phase tables of a stage-2
    panel take the rest of the budget.  The panels are balanced: the last
    one is not a small remainder.
    """
    nx, ny, nz = shape
    cpus = min(cpus, _MAX_WORKERS)
    share = min(2 * _L2_BYTES, _BUDGET_BYTES // (2 * cpus))
    l2 = (share - _UFUNC_BYTES) // 2
    block = max(1, l2 // (192 * nx * n_h))
    strip = max(1, l2 // (24 * nz * _COLUMN_ALIGN)) * _COLUMN_ALIGN
    per_pair = 288 * nx * ny + 16 * n_h * (nx + 3 * ny)
    panel = max(block, (_BUDGET_BYTES - cpus * share) // per_pair)
    panel = -(-n_pairs // -(-n_pairs // panel))
    return min(block, panel), panel, strip


def _pair_rows(v: WaveFunction, time: float) -> np.ndarray:
    """Stage-1 amplitude rows of every mirror pair, (pair, 2, 3, 2, n_h).

    Axis 1 is (Sigma, Delta), axis 2 the Cartesian component, axis 3 the
    two rows y_0, y_1 and axis 4 the first n_h phi nodes; see the module
    docstring.  Odd n_phi pads the antipodes alpha' with zeros.
    """
    grid = v.grid
    n_k, n_theta, n_phi = grid.shape
    half = (n_theta + 1) // 2
    n_h = n_phi // 2 if n_phi % 2 == 0 else n_phi
    # W / (2 pi sqrt(omega)) e^{-i omega t} per ring: the phi rule is uniform
    ring_weights = grid.radial_weights[:, None] * grid.x_weights * grid.phi_weight
    scale = ring_weights / (2.0 * np.pi * np.sqrt(grid.k_nodes))[:, None]
    scale = scale * np.exp(-1j * grid.k_nodes * time)[:, None]
    mirror = scale[:, ::-1][:, :half].copy()
    if n_theta % 2:
        mirror[:, -1] = 0.0                                   # the equator ring counts once
    # (shell, theta, component, phi): values is component-major in memory
    vals = v.values.reshape(grid.shape + (3,)).transpose(0, 1, 3, 2)
    # (a+ | a-, shell, pair, component, phi), phi zero-padded to 2 n_h
    ring = np.empty((2, n_k, half, 3, 2 * n_h), dtype=complex)
    ring[..., n_phi:] = 0.0
    np.multiply(vals[:, :half], scale[:, :half, None, None], out=ring[0, ..., :n_phi])
    np.multiply(vals[:, ::-1][:, :half], mirror[..., None, None], out=ring[1, ..., :n_phi])
    # S = a+ + a- = Sigma and D = a+ - a- = Delta / i, then conj(X) +- X'
    x = np.empty_like(ring)
    np.add(ring[0], ring[1], out=x[0])
    np.subtract(ring[0], ring[1], out=x[1])
    xc = np.conj(x[..., :n_h])
    rows = np.empty((n_k, half, 2, 3, 2, n_h), dtype=complex)
    np.add(xc[0], x[0, ..., n_h:], out=rows[:, :, 0, :, 0])        # conj(S) + S'
    np.subtract(xc[0], x[0, ..., n_h:], out=rows[:, :, 0, :, 1])   # i (conj(S) - S')
    np.subtract(xc[1], x[1, ..., n_h:], out=rows[:, :, 1, :, 0])   # -i (conj(D) - D')
    np.add(xc[1], x[1, ..., n_h:], out=rows[:, :, 1, :, 1])        # conj(D) + D'
    rows[:, :, 0, :, 1] *= 1j
    rows[:, :, 1, :, 0] *= -1j
    return rows.reshape(-1, 2, 3, 2, n_h)


def _z_tables(kz: np.ndarray, om: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Real stage-2 z tables, rows (pair, Sigma | Delta) and columns
    (d_z A, A, E/i) x z, of the pairs with k_z `kz` and omega `om`, (pair, 1)."""
    c, s = np.cos(kz * z), np.sin(kz * z)
    return np.stack([-kz * s, c, om * c, kz * c, s, om * s], axis=1).reshape(2 * len(kz), 3 * len(z))


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
    # fields d_x A, d_y A, d_z A, A, E/i, each a (z, y, component, x) plane
    # stack; allocated first, so a lattice too large to hold fails at once
    try:
        cube = np.empty((5, nz, ny, 3, nx), dtype=complex)
    except ValueError as err:   # numpy: more bytes than an address space holds
        raise MemoryError(str(err)) from None
    n_k, n_theta, n_phi = grid.shape
    half = (n_theta + 1) // 2
    workers = min(parallel.WORKERS, _MAX_WORKERS)
    rows = _pair_rows(v, time)
    n_pairs, n_h = len(rows), rows.shape[-1]
    # the lower ring serves both
    kvec = grid.k_nodes[:, None, None, None] * grid._shell_khat.reshape(n_theta, n_phi, 3)[:half]
    kx = kvec[:, :, :n_h, 0].reshape(n_pairs, n_h)
    ky = kvec[:, :, :n_h, 1].reshape(n_pairs, n_h)
    kz = kvec[:, :, 0, 2].reshape(n_pairs, 1)
    om = np.repeat(grid.k_nodes, half)[:, None]
    block, panel_pairs, strip = _synthesis_blocks(n_pairs, n_h, lattice.shape, parallel.CPUS)
    m0 = 6 * nx * ny                                           # floats of one plane

    out = cube.view(float).reshape(5, nz, m0)
    panel = np.empty((panel_pairs, 2, 3, m0))                  # (pair, Sigma | Delta, 1 | d_x | d_y)
    left = np.empty((panel_pairs, 3, ny, n_h), dtype=complex)  # (1 | i k_x | i k_y) e^{i k_y y}
    px = np.empty((nx, panel_pairs, n_h), dtype=complex)       # e^{-i k_x x}
    rights = [np.empty((block, 2, 3, nx, 2, n_h), dtype=complex) for _ in range(workers)]
    tmps = [np.empty(3 * nz * strip) for _ in range(workers)]

    def stage1(w, lo, n):
        # worker w's pairs [b0, b1) of the panel: their tables, then per
        # pair the real left against the right rows y_q e^{-i k_x x}
        b0, b1 = parallel.split(n, workers, w)
        sl = slice(lo + b0, lo + b1)
        _axis_phases(-kx[sl], x0, dx, out=px[:, b0:b1])
        _axis_phases(ky[sl], y0, dy, out=left[b0:b1, 0].transpose(1, 0, 2))
        for a, k in ((1, kx), (2, ky)):
            np.multiply(1j * k[sl, None], left[b0:b1, 0], out=left[b0:b1, a])
        right = rights[w]
        for b in range(b0, b1, block):
            nb = min(block, b1 - b)
            np.multiply(rows[lo + b:lo + b + nb, :, :, None],
                        px[:, b:b + nb].transpose(1, 0, 2)[:, None, None, :, None],
                        out=right[:nb])
            np.matmul(left[b:b + nb].view(float).reshape(nb, 1, 3 * ny, 2 * n_h),
                      right[:nb].view(float).reshape(nb, 2, 6 * nx, 2 * n_h).transpose(0, 1, 3, 2),
                      out=panel[b:b + nb].reshape(nb, 2, 3 * ny, 6 * nx))

    def stage2(w, lo, n, table):
        # worker w's output columns [c0, c1): the (Sigma, Delta) rows of the
        # panel against its z tables, strip by strip
        c0, c1 = parallel.split(m0, workers, w, align=_COLUMN_ALIGN)
        tmp = tmps[w]
        planes = panel[:n].reshape(2 * n, 3, m0)
        for c in range(c0, c1, strip):
            cs = slice(c, min(c + strip, c1))
            for dst, t, src in (
                (out[2:5, :, cs].reshape(3 * nz, -1), table, planes[:, 0, cs]),
                (out[:2, :, cs], table[:, nz:2 * nz], planes[:, 1:, cs].transpose(1, 0, 2)),
            ):
                if lo == 0:        # the first panel writes, later ones add through tmp
                    np.matmul(t.T, src, out=dst)
                else:
                    dst += np.matmul(t.T, src, out=tmp[:dst.size].reshape(dst.shape))

    for lo in range(0, n_pairs, panel_pairs):
        n = min(panel_pairs, n_pairs - lo)
        parallel.run(workers, stage1, lo, n)
        parallel.run(workers, stage2, lo, n, _z_tables(kz[lo:lo + n], om[lo:lo + n], lattice.axis(2)))
    cube[4] *= 1j
    return FieldSnapshot(
        lattice=lattice,
        time=time,
        A=cube[3].transpose(3, 1, 0, 2),
        E=cube[4].transpose(3, 1, 0, 2),
        dA=cube[:3].transpose(4, 2, 1, 0, 3),
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
    # the densities E* . d_b A, complex: P_b and L_j both read them
    dens = [np.einsum("...m,...m->...", Ec, dA[..., b, :]) for b in range(3)]
    P = np.array([pref * float(np.sum(w * d.real)) for d in dens])
    cross = np.cross(Ec, A).real
    S = pref * np.array([float(np.sum(w * cross[..., j])) for j in range(3)])
    lat = snapshot.lattice
    X = [lat.axis(0)[:, None, None], lat.axis(1)[None, :, None], lat.axis(2)[None, None, :]]
    # (x ^ grad)_j A_m with grad inserted analytically: eps_jab x_a dA[b, m]
    L = np.array([pref * float(np.sum(w * (dens[b] * X[a] - dens[a] * X[b]).real))
                  for a, b in ((1, 2), (2, 0), (0, 1))])
    return {"P0": p0, "P": P, "L": L, "S": S, "J": L + S}


def k_space_com(v: WaveFunction) -> dict:
    """The same functionals from v(k): densities for P, operators for J, L, S."""
    n2 = norm(v) ** 2
    rep = observable_report(v * (1.0 / np.sqrt(n2)))
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
    with open(path, "wb") as fh:
        for field in (snapshot.A, snapshot.E, snapshot.B):
            # complex128 is the (re, im) float64 pair; one C-order copy each
            fh.write(np.ascontiguousarray(field, dtype="<c16"))
    geometry = {
        "lattice": snapshot.lattice.to_dict(),
        "time": snapshot.time,
        "fields": ["A", "E", "B"],
        "layout": "site-major, component-minor, complex as (re, im) float64 LE",
        "shape": list(snapshot.lattice.shape) + [3],
        "bytes_per_field": 16 * snapshot.A.size,
    }
    with open(path + ".geometry.json", "w") as fh:
        json.dump(geometry, fh, indent=1, sort_keys=True)
    return geometry


def export_slice(snapshot: FieldSnapshot, path: str, field: str = "E",
                 iz: int | None = None) -> None:
    """CSV of one z = const plane: x, y, z, then (re, im) per component."""
    if field not in ("A", "E", "B"):
        raise ValueError("field must be one of A, E, B")
    data = getattr(snapshot, field)
    lat = snapshot.lattice
    if iz is None:
        iz = lat.n_z // 2
    if not (0 <= iz < lat.n_z):
        raise ValueError(f"iz = {iz} outside [0, {lat.n_z})")
    cols = ",".join(
        ["x", "y", "z"]
        + [f"{p}_{field}{c}" for c in (1, 2, 3) for p in ("re", "im")]
    )
    axes = (lat.axis(0), lat.axis(1), lat.axis(2)[iz : iz + 1])
    write_csv(path, cols, axes, data[:, :, iz].reshape(-1, 3))
