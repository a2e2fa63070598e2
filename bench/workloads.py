"""The benchmark's seeded workloads: generated specs, ops and output checks.

Each workload exposes

    cycle             ops per rotation; a timed phase ends on a whole cycle
    setup_repeats     set-ups per run; setup_s is their median
    min_ops           fewest timed ops of a run
    setup(tr)         build the grids (and lattices) the ops reuse
    spec(i)           the inputs of op i, a function of (seed, i) only
    op(spec, tr)      the library calls of one op, each inside a layer span
    check(spec, out)  -> (problems, digest, margin)

The library sees only the generated specs.  Checks compare outputs with
evaluations written here from the formulas (direct plane-wave sums, direct
quadrature against scipy's spherical harmonics), so they do not depend on
the algorithms under test.  The digest covers the deterministic outputs
(report JSON, written files, verify rows); `margin` is the tightest
tolerance / residual of the verify rows, None elsewhere.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np
from scipy.special import sph_harm_y

import photon_angmom as pa
from photon_angmom import cli, verify

TWO_PI = 2.0 * np.pi


def _rel_com(a, b, scale):
    """Relative COM difference, denominator max(|a|, 1e-3 * P0) as in verify."""
    worst = 0.0
    for key in ("P0", "P", "J", "L", "S"):
        x = np.atleast_1d(a[key]).astype(float)
        y = np.atleast_1d(b[key]).astype(float)
        worst = max(worst, float(np.max(np.abs(x - y) / np.maximum(np.abs(x), 1e-3 * scale))))
    return worst


def _sha(*chunks) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c if isinstance(c, bytes) else c.encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# com-synth: field synthesis and the constants-of-motion cross-check
# ---------------------------------------------------------------------------

# (grid, lattice side, sites per axis): ~21k nodes x 20^3 sites and ~39k
# nodes x 24^3 sites.  The k band spans 5 sigma_k on each side of k0 so the
# packet has no truncation edge (and hence no slowly decaying tail) in x.
SYNTH_CLASSES = (
    (pa.GridSpec(n_k=16, k_min=0.25, k_max=1.75, n_theta=36, n_phi=36), 32.0, 20),
    (pa.GridSpec(n_k=20, k_min=0.25, k_max=1.75, n_theta=44, n_phi=44), 38.0, 24),
)
# Size class of each op of a cycle: small, large, small.  With an odd cycle
# the median op latency falls inside the small class and the 90th
# percentile inside the large one, never between the two.
SYNTH_CYCLE = (0, 1, 0)
SIGMA_K = 0.15
N_CHECK_SITES = 6
FIELD_TOL = 1e-10        # direct-sum agreement, relative to sum |terms|
DIV_TOL = 1e-12          # divergence_residual stays at roundoff
COM_AGREE_TOL = 5e-3     # real space vs k space at t = 0, at these sizes
COM_DRIFT_TOL = 1e-3     # real-space COM at T/4 and T/2 vs t = 0


def direct_fields(v, x, t):
    """A, E and dA[a, b] = d_a A_b at one point by the plane-wave sum.

    Returns the three arrays and the l1 norm of the A terms, the scale of
    the roundoff of any summation order.
    """
    g = v.grid
    om = g.k
    amp = g.weights / (TWO_PI * np.sqrt(om)) * np.exp(1j * (g.kvec @ x - om * t))
    terms = amp[:, None] * v.values
    A = terms.sum(axis=0)
    E = (1j * om[:, None] * terms).sum(axis=0)
    dA = np.einsum("na,nb->ab", 1j * g.kvec, terms)
    return A, E, dA, float(np.abs(terms).sum())


class ComSynth:
    name = "com-synth"
    cycle = len(SYNTH_CYCLE)
    setup_repeats = 3
    min_ops = 1

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def setup(self, tr):
        self.grids = []
        self.lattices = []
        for gs, side, n in SYNTH_CLASSES:
            with tr.span("grid.build_grid"):
                self.grids.append(pa.build_grid(gs))
            self.lattices.append(pa.SpaceTimeLattice(
                origin=(-0.5 * side,) * 3, extents=(side,) * 3, n_x=n, n_y=n, n_z=n))

    def spec(self, i: int) -> dict:
        rng = np.random.default_rng([self.seed, i])
        # m = 0 is left out: its real-space J is a small difference of
        # large terms that these lattices do not resolve.  A J3-W
        # eigenstate is smooth at the pole only for m == w; other orders
        # sit on a cone away from the pole, so the packet stays in the box.
        m = int(rng.choice((-2, -1, 1, 2)))
        w = int(rng.choice((-1, 1)))
        if m == w:
            theta0, sigma = rng.uniform(0.0, 0.15), rng.uniform(0.2, 0.3)
        else:
            theta0, sigma = rng.uniform(0.9, 1.1), rng.uniform(0.18, 0.22)
        k0 = float(rng.uniform(0.95, 1.05))
        size = SYNTH_CYCLE[i % self.cycle]
        n = SYNTH_CLASSES[size][2]
        mode = pa.ModeSpec(
            kind="j3_w_eigenstate", m=m, w=w,
            radial_profile={"k0": k0, "sigma_k": SIGMA_K},
            theta_profile={"kind": "gaussian_in_theta", "theta0": float(theta0),
                           "sigma_theta": float(sigma)},
        )
        sites = rng.integers(n // 4, 3 * n // 4, size=(N_CHECK_SITES, 3))
        return {"index": i, "size": size, "mode": mode, "k0": k0, "sites": sites}

    @staticmethod
    def times(spec):
        """t = 0, T/4 and T/2 for the carrier period T = 2 pi / k0."""
        period = TWO_PI / spec["k0"]
        return (0.0, 0.25 * period, 0.5 * period)

    def op(self, spec, tr) -> dict:
        grid = self.grids[spec["size"]]
        lat = self.lattices[spec["size"]]
        with tr.span("modes.build_mode", nodes=grid.n_nodes):
            v = pa.build_mode(spec["mode"], grid)
        with tr.span("synthesis.k_space_com"):
            ks = pa.k_space_com(v)
        site_nodes = lat.n_x * lat.n_y * lat.n_z * grid.n_nodes
        snaps, coms = [], []
        for t in self.times(spec):
            with tr.span("synthesis.synthesize_fields", site_nodes=site_nodes):
                snap = pa.synthesize_fields(v, lat, time=t)
            with tr.span("synthesis.real_space_com"):
                coms.append(pa.real_space_com(snap))
            snaps.append(snap)
        path = os.path.join(self.workdir, "fields.bin")
        with tr.span("synthesis.export_fields"):
            pa.export_fields(snaps[0], path)
            if tr.enabled:
                tr.add(bytes=os.path.getsize(path) + os.path.getsize(path + ".geometry.json"))
        with tr.span("synthesis.export_slice"):
            pa.export_slice(snaps[0], path + ".slice.csv")
            if tr.enabled:
                tr.add(bytes=os.path.getsize(path + ".slice.csv"))
        return {"v": v, "ks": ks, "snaps": snaps, "coms": coms, "path": path}

    def check(self, spec, out):
        problems = []
        v, snaps, coms = out["v"], out["snaps"], out["coms"]
        lat = snaps[0].lattice
        axes = [lat.axis(j) for j in range(3)]
        for snap in snaps:
            for site in spec["sites"]:
                x = np.array([axes[j][site[j]] for j in range(3)])
                A, E, dA, l1 = direct_fields(v, x, snap.time)
                ix, iy, iz = site
                pairs = (("A", snap.A[ix, iy, iz], A, 1.0),
                         ("E", snap.E[ix, iy, iz], E, v.grid.spec.k_max),
                         ("dA", snap.dA[ix, iy, iz], dA, v.grid.spec.k_max))
                for name, got, want, kscale in pairs:
                    err = float(np.abs(got - want).max())
                    if not err <= FIELD_TOL * l1 * kscale:
                        problems.append(f"{name} at site {tuple(site)} t={snap.time:.4g} "
                                        f"off the direct sum by {err:.3e}")
            div = pa.divergence_residual(snap)
            if not div <= DIV_TOL:
                problems.append(f"divergence residual {div:.3e} at t={snap.time:.4g}")
        scale = abs(out["ks"]["P0"])
        agree = _rel_com(out["ks"], coms[0], scale)
        if not agree <= COM_AGREE_TOL:
            problems.append(f"real-space COM off k-space by {agree:.3e}")
        drift = max(_rel_com(coms[0], c, scale) for c in coms[1:])
        if not drift <= COM_DRIFT_TOL:
            problems.append(f"real-space COM drifts by {drift:.3e}")
        files = []
        for suffix in ("", ".geometry.json", ".slice.csv"):
            with open(out["path"] + suffix, "rb") as fh:
                files.append(fh.read())
        problems += self._check_exports(spec, snaps[0], *files)
        return problems, _sha(*files), None

    @staticmethod
    def _check_exports(spec, snap, fields, geometry, slice_csv):
        """The dump, its geometry sidecar and the slice CSV against the snapshot."""
        problems = []
        lat = snap.lattice
        nx, ny, nz = lat.shape
        raw = np.frombuffer(fields, dtype="<f8")
        if raw.size != 3 * nx * ny * nz * 3 * 2:
            return [f"fields dump holds {raw.size} floats"]
        cube = raw.reshape(3, nx, ny, nz, 3, 2)
        for k, field in enumerate((snap.A, snap.E, snap.B)):
            if not np.array_equal(cube[k, ..., 0] + 1j * cube[k, ..., 1], field):
                problems.append(f"fields dump block {'AEB'[k]} differs from the snapshot")
        geo = json.loads(geometry)
        if geo["shape"] != [nx, ny, nz, 3] or geo["time"] != snap.time:
            problems.append("geometry sidecar does not describe the snapshot")
        lines = slice_csv.decode().splitlines()
        if len(lines) != nx * ny + 1:
            return problems + [f"slice CSV has {len(lines)} lines"]
        iz = nz // 2
        for ix, iy, _ in spec["sites"]:
            cells = [float(c) for c in lines[1 + ix * ny + iy].split(",")]
            want = [lat.axis(0)[ix], lat.axis(1)[iy], lat.axis(2)[iz]]
            for c in snap.E[ix, iy, iz]:
                want += [c.real, c.imag]
            if cells != want:
                problems.append(f"slice CSV row ({ix}, {iy}) differs from E")
        return problems


# ---------------------------------------------------------------------------
# kspace-sweep: the `mode` report path
# ---------------------------------------------------------------------------

# (kind, grid, l_max): the README `mode` grid, the README library grid and a
# 12x64x64 grid; l_max is the largest full window each grid resolves.
KSPACE_FAMILIES = (
    ("vector_lg", pa.GridSpec(n_k=8, k_min=0.94, k_max=1.06, n_theta=256, n_phi=12), 5),
    ("j3_w_eigenstate", pa.GridSpec(n_k=12, k_min=0.5, k_max=1.5, n_theta=32, n_phi=32), 15),
    ("sam_wavepacket", pa.GridSpec(n_k=12, k_min=0.5, k_max=1.5, n_theta=64, n_phi=64), 31),
)
N_CHECK_COEFFS = 4
N_CHECK_ROWS = 5
VSH_TOL = 1e-10          # coefficient agreement, relative to sqrt(4 pi) max |v|
NORM_TOL = 1e-10
J3_TOL = 1e-9
W_TOL = 1e-12


def _vsh_direct(a, l, m, theta, phi):
    """Y1_lm = L Y_lm / sqrt(l(l+1)) from scipy's Y_lm; Y2 = khat x Y1."""
    def ylm(mu):
        return sph_harm_y(l, mu, theta, phi) if abs(mu) <= l else 0.0 * theta
    cp = np.sqrt(l * (l + 1) - m * (m + 1))
    cm = np.sqrt(l * (l + 1) - m * (m - 1))
    up, dn = cp * ylm(m + 1), cm * ylm(m - 1)
    n = np.sqrt(l * (l + 1.0))
    y1 = np.stack([(up + dn) / (2 * n), (up - dn) / (2j * n), m * ylm(m) / n], axis=-1)
    if a == 1:
        return y1
    st = np.sin(theta)
    khat = np.stack([st * np.cos(phi), st * np.sin(phi), np.cos(theta)], axis=-1)
    return np.cross(khat, y1)


def direct_coefficients(states, a, l, m):
    """Radial profile of the (a, l, m) coefficient of each state (all on one
    grid) by direct angular quadrature."""
    g = states[0].grid
    n_ang = g.spec.n_theta * g.spec.n_phi
    wy = g.angular_weights[:, None] * np.conj(_vsh_direct(a, l, m, g.theta[:n_ang], g.phi[:n_ang]))
    return [np.einsum("jc,kjc->k", wy, s.values.reshape(g.spec.n_k, n_ang, 3)) for s in states]


class KspaceSweep:
    name = "kspace-sweep"
    cycle = 12
    setup_repeats = 3
    # op_p90_ms needs ten samples beyond it
    min_ops = 100

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def setup(self, tr):
        self.grids = []
        for _, gs, _ in KSPACE_FAMILIES:
            with tr.span("grid.build_grid"):
                self.grids.append(pa.build_grid(gs))

    def spec(self, i: int) -> dict:
        rng = np.random.default_rng([self.seed, i])
        fam = i % 3
        kind, _, l_max = KSPACE_FAMILIES[fam]
        w = int(rng.choice((-1, 1)))
        if fam == 0:
            m = int(rng.integers(-2, 3))
            mode = pa.ModeSpec(kind=kind, m=m, w=w, p=int(rng.integers(0, 3)),
                               w0=float(rng.uniform(20.0, 30.0)), k_fixed=1.0)
        elif fam == 1:
            m = int(rng.integers(-3, 4))
            mode = pa.ModeSpec(
                kind=kind, m=m, w=w,
                radial_profile={"k0": float(rng.uniform(0.9, 1.1)),
                                "sigma_k": float(rng.uniform(0.1, 0.15))},
                theta_profile={"kind": "gaussian_in_theta",
                               "theta0": float(rng.uniform(0.0, 0.5)),
                               "sigma_theta": float(rng.uniform(0.15, 0.4))},
            )
        else:
            m = None
            # kappa and tilt set the azimuthal window of the report, and so
            # its cost; narrow ranges keep the op's work nearly seed-free
            tilt, azim = rng.uniform(0.2, 0.25), rng.uniform(0.0, TWO_PI)
            mode = pa.ModeSpec(
                kind=kind, w=w, kappa=float(rng.uniform(6.0, 7.0)),
                s_direction=(float(np.sin(tilt) * np.cos(azim)),
                             float(np.sin(tilt) * np.sin(azim)), float(np.cos(tilt))),
                radial_profile={"k0": float(rng.uniform(0.9, 1.1)), "sigma_k": 0.1},
            )
        # Two entries on the state's own J3 order (where its content is) for
        # the J3 eigenstates, the rest anywhere in the window.
        coeffs = []
        for j in range(N_CHECK_COEFFS):
            if m is not None and j < 2:
                mm = m
                l = int(rng.integers(max(1, abs(mm)), l_max + 1))
            else:
                l = int(rng.integers(1, l_max + 1))
                mm = int(rng.integers(-l, l + 1))
            coeffs.append((int(rng.integers(1, 3)), l, mm))
        gs = KSPACE_FAMILIES[fam][1]
        n_nodes = gs.n_k * gs.n_theta * gs.n_phi
        return {
            "index": i, "family": fam, "mode": mode, "l_max": l_max, "coeffs": coeffs,
            # One op per cycle writes the wavefunction CSV, on the 12x32x32
            # family.  Its latency lies between the plain ops and the
            # sam_wavepacket ops, so the median falls among the plain ops
            # and the 90th percentile among the sam_wavepacket ops.  The
            # pure-Python writer's speed swings by a quarter between runs
            # on a shared host; with one op in four writing, the median fell
            # among the writer ops and its spread over ten runs was 0.34.
            "writer": fam == 1 and i % self.cycle == 1,
            "rows": sorted(int(r) for r in rng.integers(0, n_nodes, size=N_CHECK_ROWS)),
        }

    def op(self, spec, tr) -> dict:
        grid = self.grids[spec["family"]]
        l_max = spec["l_max"]
        n_coeffs = 2 * grid.spec.n_k * (l_max + 1) * (2 * l_max + 1)
        with tr.span("modes.build_mode", nodes=grid.n_nodes):
            v = pa.build_mode(spec["mode"], grid)
        with tr.span("operators.observable_report", nodes=grid.n_nodes):
            report = pa.observable_report(v)
        with tr.span("cli.report_json"):
            text = cli.report_json(report)
        with tr.span("vsh.analyze", coeffs=n_coeffs):
            e = pa.analyze(v, l_max)
        with tr.span("vsh.synthesize", coeffs=n_coeffs):
            v2 = pa.synthesize(e)
        out = {"v": v, "report": report, "text": text, "e": e, "v2": v2, "csv": None}
        if spec["writer"]:
            path = os.path.join(self.workdir, "wavefunction.csv")
            with tr.span("cli.write_wavefunction_csv"):
                cli.write_wavefunction_csv(v, path)
                if tr.enabled:
                    tr.add(bytes=os.path.getsize(path))
            out["csv"] = path
        return out

    def check(self, spec, out):
        problems = []
        v, report, e, v2 = out["v"], out["report"], out["e"], out["v2"]
        mode = spec["mode"]
        g = v.grid
        n = float(np.sqrt(np.sum(g.weights * np.sum(np.abs(v.values) ** 2, axis=1))))
        if not abs(n - 1.0) <= NORM_TOL:
            problems.append(f"norm {n:.15g}")
        if spec["family"] in (0, 1) and not abs(report.total_am[2] - mode.m) <= J3_TOL:
            problems.append(f"<J3> = {report.total_am[2]:.15g}, expected {mode.m}")
        if spec["family"] == 1 and not abs(report.helicity - mode.w) <= W_TOL:
            problems.append(f"<W> = {report.helicity:.17g}, expected {mode.w}")
        if json.loads(out["text"]) != json.loads(json.dumps(report.to_dict())):
            problems.append("report JSON does not round-trip the report")
        # analyze(v) and analyze(synthesize(e)) against direct quadrature
        labels = ("analyze", "analyze(synthesize(e))")
        tols = [VSH_TOL * np.sqrt(4.0 * np.pi) * np.abs(s.values).max() for s in (v, v2)]
        for a, l, m in spec["coeffs"]:
            for label, tol, c in zip(labels, tols, direct_coefficients((v, v2), a, l, m)):
                err = float(np.abs(c - e.coefficient(a, l, m)).max())
                if not err <= tol:
                    problems.append(f"{label} coefficient ({a}, {l}, {m}) off by {err:.3e}")
        # ... and the whole expansion of synthesize(e) against e
        err = float(np.abs(pa.analyze(v2, spec["l_max"]).coeffs - e.coeffs).max())
        if not err <= tols[1]:
            problems.append(f"analyze(synthesize(e)) off e by {err:.3e}")
        chunks = [out["text"]]
        if out["csv"] is not None:
            with open(out["csv"], "rb") as fh:
                data = fh.read()
            problems += self._check_csv(v, data.decode(), spec["rows"])
            chunks.append(data)
        return problems, _sha(*chunks), None

    @staticmethod
    def _check_csv(v, text, rows):
        g = v.grid
        lines = text.splitlines()
        if len(lines) != g.n_nodes + 1 or lines[0] != "k,theta,phi,re_v1,im_v1,re_v2,im_v2,re_v3,im_v3":
            return [f"wavefunction CSV has {len(lines)} lines, header {lines[0]!r}"]
        problems = []
        for i in rows:
            want = [g.k[i], g.theta[i], g.phi[i]]
            for c in v.values[i]:
                want += [c.real, c.imag]
            if [float(c) for c in lines[1 + i].split(",")] != want:
                problems.append(f"wavefunction CSV row {i} differs from the state")
        return problems


# ---------------------------------------------------------------------------
# verify-fast: the seven fast identity programs
# ---------------------------------------------------------------------------

VERIFY_PROGRAMS = (
    ("algebraic_suite", True),
    ("spectral_suite", True),
    ("vsh_suite", True),
    ("paraxial_suite", False),
    ("variance_program", False),
    ("sam_convergence", False),
    ("never_eigenstate", False),
)


def row_margin(row) -> float | None:
    """Headroom of a passing row: tolerance / residual, or residual / tolerance
    for the lower-bound rows ("never an eigenstate"); None without a scale."""
    res, tol = abs(row["max_residual"]), row["tolerance"]
    if tol <= 0.0:
        return None
    if row["pass"] and res >= tol:
        return res / tol
    return tol / res if res > 0.0 else float("inf")


class VerifyFast:
    name = "verify-fast"
    cycle = 1
    # no grids outlive a call, and the warm-up op is a whole 5 s pass
    setup_repeats = 1
    min_ops = 1

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.suite_seed = int(np.random.default_rng([seed]).integers(0, 2**31 - 1))

    def setup(self, tr):
        # every program builds its own grids on each call
        pass

    def spec(self, i: int) -> dict:
        return {"index": i, "suite_seed": self.suite_seed}

    def op(self, spec, tr) -> dict:
        rows = {}
        for name, seeded in VERIFY_PROGRAMS:
            fn = getattr(verify, name)
            with tr.span(f"verify.{name}"):
                rows[name] = fn(seed=spec["suite_seed"]) if seeded else fn()
        return {"rows": rows}

    def check(self, spec, out):
        problems = []
        margins = []
        for name, rows in out["rows"].items():
            for row in rows:
                if not row["pass"]:
                    problems.append(f"{name}: {row['check']} failed "
                                    f"({row['max_residual']:.3e} vs {row['tolerance']:.3e})")
                m = row_margin(row)
                if m is not None:
                    margins.append(m)
        text = json.dumps(out["rows"], sort_keys=True)
        return problems, _sha(text), min(margins) if margins else None


WORKLOADS = {w.name: w for w in (ComSynth, KspaceSweep, VerifyFast)}
