import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import photon_angmom
from photon_angmom import parallel, synthesis
from photon_angmom.grid import GridSpec, build_grid
from photon_angmom.modes import ModeSpec, build_mode
from photon_angmom.synthesis import (
    FieldSnapshot,
    SpaceTimeLattice,
    com_convergence_shift,
    cube_lattice,
    divergence_residual,
    export_fields,
    export_slice,
    k_space_com,
    real_space_com,
    synthesize_fields,
)
from photon_angmom.wavefunction import WaveFunction, random_state

from oracles import per_term_real_space_com


def tiny_setup():
    grid = build_grid(GridSpec(n_k=2, k_min=0.8, k_max=1.2, n_theta=4, n_phi=5))
    v = random_state(grid, seed=11)
    lattice = SpaceTimeLattice(
        origin=(-1.0, -0.8, -0.5), extents=(2.0, 1.7, 1.3), n_x=4, n_y=3, n_z=2
    )
    return grid, v, lattice


def direct_fields(v, lattice, time):
    # brute-force triple loop; the oracle for the ring-factorized two-stage sum
    g = v.grid
    om = g.k
    coef = g.weights / (2.0 * np.pi * np.sqrt(om)) * np.exp(-1j * om * time)
    nx, ny, nz = lattice.shape
    A = np.zeros((nx, ny, nz, 3), dtype=complex)
    E = np.zeros_like(A)
    dA = np.zeros((nx, ny, nz, 3, 3), dtype=complex)
    for ix, x in enumerate(lattice.axis(0)):
        for iy, y in enumerate(lattice.axis(1)):
            for iz, z in enumerate(lattice.axis(2)):
                ph = coef * np.exp(1j * (g.kvec @ np.array([x, y, z])))
                A[ix, iy, iz] = ph @ v.values
                E[ix, iy, iz] = (1j * om * ph) @ v.values
                for a in range(3):
                    dA[ix, iy, iz, a] = (1j * g.kvec[:, a] * ph) @ v.values
    return A, E, dA


def test_lattice_axes_and_weights():
    lat = SpaceTimeLattice(origin=(-1.0, 0.0, 2.0), extents=(2.0, 3.0, 4.0),
                           n_x=5, n_y=4, n_z=3)
    ax = lat.axis(0)
    assert ax[0] == -1.0 and ax[-1] == 1.0
    assert lat.spacing(0) == pytest.approx(0.5)
    np.testing.assert_allclose(lat.axis(2), [2.0, 4.0, 6.0])
    for j in range(3):
        assert lat.axis_weights(j).sum() == pytest.approx(lat.extents[j])
    w = lat.axis_weights(0)
    assert w[0] == pytest.approx(0.25) and w[1] == pytest.approx(0.5)


def test_lattice_validation():
    with pytest.raises(ValueError):
        SpaceTimeLattice(origin=(0, 0, 0), extents=(1, 1, 1), n_x=1, n_y=4, n_z=4)
    with pytest.raises(ValueError):
        SpaceTimeLattice(origin=(0, 0, 0), extents=(1, 0, 1), n_x=4, n_y=4, n_z=4)
    with pytest.raises(KeyError, match="n_z"):
        SpaceTimeLattice.from_dict(
            {"origin": [0, 0, 0], "extents": [1, 1, 1], "n_x": 4, "n_y": 4}
        )


def test_lattice_dict_roundtrip():
    lat = SpaceTimeLattice(origin=(-3.0, -3.0, -3.0), extents=(6.0, 6.0, 6.0),
                           n_x=8, n_y=8, n_z=8, times=(0.0, 1.5))
    again = SpaceTimeLattice.from_dict(lat.to_dict())
    assert again == lat


def test_cube_lattice_default_side():
    lat = cube_lattice(k0=2.0, n=16)
    side = 8.0 * 2.0 * np.pi / 2.0
    assert lat.extents == (side,) * 3
    assert lat.origin == (-side / 2,) * 3
    assert lat.axis(0)[0] == pytest.approx(-side / 2)


def test_synthesis_matches_direct_sum():
    _, v, lattice = tiny_setup()
    for time in (0.0, 0.3):
        snap = synthesize_fields(v, lattice, time=time)
        A, E, dA = direct_fields(v, lattice, time)
        np.testing.assert_allclose(snap.A, A, atol=1e-13 * np.abs(A).max())
        np.testing.assert_allclose(snap.E, E, atol=1e-13 * np.abs(E).max())
        np.testing.assert_allclose(snap.dA, dA, atol=1e-13 * np.abs(dA).max())
        curl = np.stack(
            [
                dA[..., 1, 2] - dA[..., 2, 1],
                dA[..., 2, 0] - dA[..., 0, 2],
                dA[..., 0, 1] - dA[..., 1, 0],
            ],
            axis=-1,
        )
        np.testing.assert_allclose(snap.B, curl, atol=1e-13 * np.abs(curl).max())


def test_synthesis_counts_the_equator_ring_once():
    # odd n_theta: the equator ring is its own mirror and must count once;
    # with even n_phi every node also has an antipode, with odd n_phi none
    for n_phi in (6, 5):
        grid = build_grid(GridSpec(n_k=2, k_min=0.6, k_max=1.4, n_theta=7, n_phi=n_phi))
        v = random_state(grid, seed=17)
        lattice = SpaceTimeLattice(origin=(-0.9, -1.1, -0.4), extents=(1.9, 2.2, 1.2),
                                   n_x=4, n_y=5, n_z=3)
        snap = synthesize_fields(v, lattice, time=-0.45)
        A, E, dA = direct_fields(v, lattice, -0.45)
        np.testing.assert_allclose(snap.A, A, atol=1e-13 * np.abs(A).max())
        np.testing.assert_allclose(snap.E, E, atol=1e-13 * np.abs(E).max())
        np.testing.assert_allclose(snap.dA, dA, atol=1e-13 * np.abs(dA).max())


# Small budgets for ring_block_setup: at one CPU they split its 75 mirror
# pairs (3 shells of 25, odd n_phi) into 7 panels of 11 (the last one 9),
# each panel into stage-1 blocks of 2 (the last one 1), and each 120-column
# stage-2 product into strips of 104 and 16; at two CPUs, into 11 panels
# of 7 (the last one 5) and strips of 96 and 24
RING_BLOCK_BUDGETS = {"_L2_BYTES": 16_000, "_BUDGET_BYTES": 120_000, "_UFUNC_BYTES": 2_000}


def ring_block_setup():
    grid = build_grid(GridSpec(n_k=3, k_min=0.7, k_max=1.3, n_theta=50, n_phi=7))
    v = random_state(grid, seed=5)
    lattice = SpaceTimeLattice(origin=(-1.2, -0.7, -0.9), extents=(2.3, 1.4, 1.9),
                               n_x=5, n_y=4, n_z=6)
    return v, lattice


def test_synthesis_matches_direct_sum_across_ring_blocks(monkeypatch):
    v, lattice = ring_block_setup()
    for name, value in RING_BLOCK_BUDGETS.items():
        monkeypatch.setattr(synthesis, name, value)
    assert synthesis._synthesis_blocks(75, 7, lattice.shape) == (2, 11, 104)
    assert synthesis._synthesis_blocks(75, 7, lattice.shape, cpus=2) == (2, 7, 96)
    snap = synthesize_fields(v, lattice, time=0.7)
    A, E, dA = direct_fields(v, lattice, 0.7)
    np.testing.assert_allclose(snap.A, A, atol=1e-13 * np.abs(A).max())
    np.testing.assert_allclose(snap.E, E, atol=1e-13 * np.abs(E).max())
    np.testing.assert_allclose(snap.dA, dA, atol=1e-13 * np.abs(dA).max())


# ring_block_setup synthesized in a fresh process, so that
# PHOTON_ANGMOM_THREADS acts at import; argv[1] receives the fields
_WORKER_RUN = """
import sys
sys.path[:0] = sys.argv[2:]
import photon_angmom
from photon_angmom import parallel, synthesis
import numpy as np
from test_synthesis import RING_BLOCK_BUDGETS, ring_block_setup
for name, value in RING_BLOCK_BUDGETS.items():
    setattr(synthesis, name, value)
v, lattice = ring_block_setup()
snap = photon_angmom.synthesize_fields(v, lattice, time=0.7)
np.savez(sys.argv[1], workers=parallel.WORKERS, A=snap.A, E=snap.E, dA=snap.dA)
"""


def test_synthesis_is_independent_of_worker_count(tmp_path):
    # ragged panels, blocks and strips, on one and on two workers: the
    # workers split each panel's pairs and output columns, which reorders
    # no sum, so the fields agree bit for bit
    paths = [str(Path(photon_angmom.__file__).parents[1]), str(Path(__file__).parent)]
    runs = {}
    for n in (1, 2):
        out = tmp_path / f"workers{n}.npz"
        run = subprocess.run([sys.executable, "-c", _WORKER_RUN, str(out), *paths],
                             env={**os.environ, "PHOTON_ANGMOM_THREADS": str(n)},
                             capture_output=True, text=True, timeout=300)
        assert run.returncode == 0, run.stderr
        runs[n] = np.load(out)
    assert runs[1]["workers"] == 1
    assert runs[2]["workers"] == min(2, parallel.CPUS)
    v, lattice = ring_block_setup()
    for key, ref in zip(("A", "E", "dA"), direct_fields(v, lattice, 0.7)):
        assert np.array_equal(runs[1][key], runs[2][key]), key
        np.testing.assert_allclose(runs[1][key], ref, atol=1e-13 * np.abs(ref).max())


def test_synthesis_workers_share_no_state(monkeypatch):
    # more workers than CPUs, with the interpreter switching threads often:
    # each worker writes only its own pairs and columns, so every run gives
    # the one-worker fields
    v, lattice = ring_block_setup()
    for name, value in RING_BLOCK_BUDGETS.items():
        monkeypatch.setattr(synthesis, name, value)
    monkeypatch.setattr(parallel, "WORKERS", 1)
    ref = synthesize_fields(v, lattice, time=0.7)
    monkeypatch.setattr(parallel, "WORKERS", parallel.CPUS + 2)
    monkeypatch.setattr(parallel, "_pool", None)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        snaps = [synthesize_fields(v, lattice, time=0.7) for _ in range(5)]
    finally:
        sys.setswitchinterval(interval)
        parallel._pool.shutdown()
    for snap in snaps:
        for key in ("A", "E", "dA"):
            assert np.array_equal(getattr(snap, key), getattr(ref, key)), key


def test_synthesis_memory_stays_within_budget():
    # one call on the larger com-synth lattice: the private buffers stay
    # within the byte budget, on top of the output cube and two arrays of
    # the size of the node samples
    grid = build_grid(GridSpec(n_k=20, k_min=0.25, k_max=1.75, n_theta=44, n_phi=44))
    v = random_state(grid, seed=2)
    lattice = cube_lattice(k0=1.0, side_wavelengths=38.0 / (2.0 * np.pi), n=24)
    n_pairs = 20 * 22
    block, panel, _ = synthesis._synthesis_blocks(n_pairs, 22, lattice.shape)
    assert panel < n_pairs and block < panel          # the budget binds
    cube = 5 * 3 * 16 * lattice.n_x * lattice.n_y * lattice.n_z
    samples = 3 * 16 * grid.n_nodes
    tracemalloc.start()
    try:
        snap = synthesize_fields(v, lattice)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= synthesis._BUDGET_BYTES + cube + 2 * samples
    assert np.isfinite(snap.A).all()


@pytest.mark.parametrize("cpus", [2, 3, 4])
def test_synthesis_memory_stays_within_budget_on_more_cpus(monkeypatch, cpus):
    # every worker holds its own block, strip and ufunc buffers at once;
    # the budget reserves them per CPU, so the same bound holds
    monkeypatch.setattr(parallel, "CPUS", cpus)
    monkeypatch.setattr(parallel, "WORKERS", cpus)
    monkeypatch.setattr(parallel, "_pool", None)
    try:
        test_synthesis_memory_stays_within_budget()
    finally:
        parallel._pool.shutdown()


def test_electric_field_is_time_derivative():
    # E = dA/dx0 with x0 = -t, so E(0) = -(A(dt) - A(-dt)) / (2 dt) + O(dt^2)
    _, v, lattice = tiny_setup()
    dt = 1e-4
    a_plus = synthesize_fields(v, lattice, time=dt).A
    a_minus = synthesize_fields(v, lattice, time=-dt).A
    e_zero = synthesize_fields(v, lattice, time=0.0).E
    fd = -(a_plus - a_minus) / (2.0 * dt)
    np.testing.assert_allclose(fd, e_zero, atol=1e-7 * np.abs(e_zero).max())


def test_divergence_vanishes_for_transverse_states():
    _, v, lattice = tiny_setup()
    snap = synthesize_fields(v, lattice)
    assert divergence_residual(snap) < 1e-12

    raw = np.einsum("nc,n->nc", v.grid.khat, np.exp(-v.grid.k))
    bad = WaveFunction(v.grid, raw.astype(complex), check=False)
    snap_bad = synthesize_fields(bad, lattice)
    assert divergence_residual(snap_bad) > 0.1


def test_aliasing_spacing_rejected():
    grid = build_grid(GridSpec(n_k=2, k_min=0.8, k_max=1.2, n_theta=4, n_phi=5))
    v = random_state(grid, seed=3)
    # spacing 5.0 > pi / 1.2, violates the sampling bound
    lat = SpaceTimeLattice(origin=(-5.0, -5.0, -5.0), extents=(10.0, 10.0, 10.0),
                           n_x=3, n_y=8, n_z=8)
    with pytest.raises(ValueError, match="alias"):
        synthesize_fields(v, lat)


def com_setup():
    grid = build_grid(GridSpec(n_k=20, k_min=0.25, k_max=1.75, n_theta=28, n_phi=44))
    spec = ModeSpec(
        kind="j3_w_eigenstate", m=1, w=1,
        radial_profile={"k0": 1.0, "sigma_k": 0.25},
        theta_profile={"kind": "gaussian_in_theta", "theta0": 0.0,
                       "sigma_theta": 0.2},
    )
    v = build_mode(spec, grid)
    lattice = SpaceTimeLattice(origin=(-15.0,) * 3, extents=(30.0,) * 3,
                               n_x=26, n_y=26, n_z=26)
    return v, lattice


def test_com_crosscheck_localized_packet():
    # coarse end-to-end check; the acceptance suite runs the tight version
    v, lattice = com_setup()
    ks = k_space_com(v)
    rs = real_space_com(synthesize_fields(v, lattice))
    scale = max(abs(ks["P0"]), 1.0)
    for key in ("P0", "P", "J", "L", "S"):
        a = np.atleast_1d(ks[key]).astype(float)
        b = np.atleast_1d(rs[key]).astype(float)
        for x, y in zip(a, b):
            assert abs(x - y) <= 5e-3 * max(abs(x), 1e-3 * scale)
    assert rs["P0"] > 0.0
    np.testing.assert_allclose(rs["J"], rs["L"] + rs["S"], rtol=0, atol=1e-12)


def test_com_time_invariance_coarse():
    v, lattice = com_setup()
    rs0 = real_space_com(synthesize_fields(v, lattice, time=0.0))
    rs1 = real_space_com(synthesize_fields(v, lattice, time=2.0))
    scale = max(abs(rs0["P0"]), 1.0)
    for key in ("P0", "P", "J", "L", "S"):
        a = np.atleast_1d(rs0[key]).astype(float)
        b = np.atleast_1d(rs1[key]).astype(float)
        assert np.max(np.abs(a - b)) < 5e-3 * scale


def test_com_convergence_shift_flags_undersized_box(monkeypatch):
    v, _ = com_setup()
    # box cut to a third of its converged size: large shift expected
    small = SpaceTimeLattice(origin=(-5.0,) * 3, extents=(10.0,) * 3,
                             n_x=10, n_y=10, n_z=10)
    base = synthesize_fields(v, small)
    assert com_convergence_shift(v, base, factor=1.6) > 1e-2
    # the factor is rejected before any synthesis
    calls = []
    monkeypatch.setattr(synthesis, "synthesize_fields",
                        lambda *args, **kwargs: calls.append(args))
    with pytest.raises(ValueError):
        com_convergence_shift(v, base, factor=1.0)
    assert calls == []


def test_export_fields_roundtrip(tmp_path):
    _, v, lattice = tiny_setup()
    snap = synthesize_fields(v, lattice, time=0.2)
    path = str(tmp_path / "fields.bin")
    geometry = export_fields(snap, path)

    n_sites = lattice.n_x * lattice.n_y * lattice.n_z
    raw = np.fromfile(path, dtype="<f8").reshape(3, n_sites * 3, 2)
    for i, arr in enumerate((snap.A, snap.E, snap.B)):
        flat = raw[i, :, 0] + 1j * raw[i, :, 1]
        np.testing.assert_allclose(flat, arr.reshape(-1), rtol=0, atol=0)

    with open(path + ".geometry.json") as fh:
        sidecar = json.load(fh)
    assert sidecar["fields"] == ["A", "E", "B"]
    assert sidecar["lattice"]["n_x"] == lattice.n_x
    assert sidecar["time"] == pytest.approx(0.2)
    assert geometry["shape"] == [4, 3, 2, 3]


def _slice_per_value(snapshot, field, iz):
    # the CSV written one value at a time; the oracle for export_slice
    data = {"A": snapshot.A, "E": snapshot.E, "B": snapshot.B}[field]
    lat = snapshot.lattice
    z = lat.axis(2)[iz]
    lines = [",".join(["x", "y", "z"]
                      + [f"{p}_{field}{c}" for c in (1, 2, 3) for p in ("re", "im")])]
    for ix, x in enumerate(lat.axis(0)):
        for iy, y in enumerate(lat.axis(1)):
            nums = []
            for c in range(3):
                nums.append(f"{data[ix, iy, iz, c].real:.17g}")
                nums.append(f"{data[ix, iy, iz, c].imag:.17g}")
            lines.append(f"{x:.17g},{y:.17g},{z:.17g}," + ",".join(nums))
    return "\n".join(lines) + "\n"


def test_export_slice_matches_per_value_formatting(tmp_path):
    _, v, lattice = tiny_setup()
    snap = synthesize_fields(v, lattice, time=0.4)
    # signed zeros, subnormals and extreme exponents in one component
    snap.E[0, :, 1, 2] = [-0.0 + 0.0j, 5e-324 - 1e300j, 1e-17 + 123456789.125j]
    path = str(tmp_path / "slice.csv")
    for field in ("A", "E", "B"):
        for iz in range(lattice.n_z):
            export_slice(snap, path, field=field, iz=iz)
            with open(path) as fh:
                assert fh.read() == _slice_per_value(snap, field, iz)
    # the default plane is the middle one
    export_slice(snap, path)
    with open(path) as fh:
        assert fh.read() == _slice_per_value(snap, "E", lattice.n_z // 2)


def test_real_space_com_equals_per_term_oracle():
    # each density E* . d_b A is formed once and read by P_b and L_j; the
    # snapshot's arrays are strided views, so the order in which .real is
    # taken shows in the sums
    _, v, lattice = tiny_setup()
    snap = synthesize_fields(v, SpaceTimeLattice(
        origin=lattice.origin, extents=lattice.extents, n_x=5, n_y=4, n_z=3))
    assert not snap.E.flags.c_contiguous and not snap.dA.flags.c_contiguous
    got, want = real_space_com(snap), per_term_real_space_com(snap)
    assert set(got) == set(want)
    for key in want:
        assert np.asarray(got[key]).tobytes() == np.asarray(want[key]).tobytes(), key


def test_export_slice_reads_only_the_field_asked_for(tmp_path, monkeypatch):
    _, v, lattice = tiny_setup()
    snap = synthesize_fields(v, lattice)

    def no_curl(self):
        raise AssertionError("B formed for a slice of another field")

    monkeypatch.setattr(FieldSnapshot, "B", property(no_curl))
    for field in ("E", "A"):
        export_slice(snap, str(tmp_path / f"{field}.csv"), field=field)
    export_slice(snap, str(tmp_path / "default.csv"))


def test_export_slice(tmp_path):
    _, v, lattice = tiny_setup()
    snap = synthesize_fields(v, lattice)
    path = str(tmp_path / "slice.csv")
    export_slice(snap, path, field="E", iz=1)
    with open(path) as fh:
        header = fh.readline().strip()
    assert header.split(",")[:3] == ["x", "y", "z"]
    assert "re_E1" in header and "im_E3" in header
    table = np.loadtxt(path, delimiter=",", skiprows=1)
    assert table.shape == (lattice.n_x * lattice.n_y, 9)
    row = table[0]
    assert row[0] == pytest.approx(lattice.axis(0)[0])
    assert row[2] == pytest.approx(lattice.axis(2)[1])
    expect = snap.E[0, 0, 1]
    np.testing.assert_allclose(row[3::2], expect.real, atol=1e-15)
    np.testing.assert_allclose(row[4::2], expect.imag, atol=1e-15)

    with pytest.raises(ValueError):
        export_slice(snap, path, field="E", iz=99)
    with pytest.raises(ValueError):
        export_slice(snap, path, field="Q")
