"""Machine record, roofline probes and labelled reference timings.

Run after the timed phase of a traced run.  The GEMM probe uses the shape
of one synthesis chunk of the larger com-synth class, the bandwidth probe
an array of at least four times the last-level cache.  The reference
timings repeat the layer measurements quoted in ROADMAP.md so later
changes can cite them from the same output.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import photon_angmom as pa
from workloads import SYNTH_CLASSES

BENCH = Path(__file__).resolve().parent
_SC_LEVEL3_CACHE_SIZE = 194      # glibc <bits/confname.h>
# one chunk GEMM of synthesize_fields on the larger com-synth lattice:
# (n_x n_y sites) x (2048 nodes, its default chunk) @ (nodes) x (n_z * 15 rows)
_N = SYNTH_CLASSES[1][2]
GEMM_SHAPE = (_N * _N, 2048, _N * 15)


def llc_bytes() -> int:
    """Last-level cache size from glibc's sysconf; 0 when it is not known."""
    try:
        libc = ctypes.CDLL(None)
        libc.sysconf.restype = ctypes.c_long
        libc.sysconf.argtypes = [ctypes.c_int]
        n = libc.sysconf(_SC_LEVEL3_CACHE_SIZE)
    except (OSError, AttributeError):
        return 0
    return max(int(n), 0)


def machine_record(threads: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": threads,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "llc_bytes": llc_bytes(),
    }


def _best(fn, reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def zgemm_gmacs(reps: int = 5) -> float:
    """Complex GEMM rate at the synthesis chunk shape, in 1e9 MACs/s."""
    m, k, n = GEMM_SHAPE
    rng = np.random.default_rng(0)
    a = rng.standard_normal((m, k)) + 1j * rng.standard_normal((m, k))
    b = rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
    a @ b
    return m * k * n / _best(lambda: a @ b, reps) / 1e9


def stream_gbs(llc: int, reps: int = 3):
    """In-place scale of one array >= 4x the LLC; (GB/s, array bytes).

    Bytes moved are computed as one read and one write per element.
    """
    nbytes = max(4 * llc, 64 << 20)
    a = np.ones(nbytes // 8)
    np.multiply(a, 1.0, out=a)
    t = _best(lambda: np.multiply(a, 1.0000001, out=a), reps)
    return 2 * a.nbytes / t / 1e9, a.nbytes


def reference_points(reps: int = 3) -> dict:
    """ROADMAP reference layers: full-window analyze/synthesize on 12x64x64
    at l_max 8/16/31 and observable_report on the README vector_lg example,
    each the median of `reps` calls after one warm-up, in ms."""
    out = {}
    grid = pa.build_grid(pa.GridSpec(n_k=12, k_min=0.5, k_max=1.5, n_theta=64, n_phi=64))
    v = pa.random_state(grid, seed=0)
    for l_max in (8, 16, 31):
        e = pa.analyze(v, l_max)
        pa.synthesize(e)
        ta, ts = [], []
        for _ in range(reps):
            t0 = time.perf_counter()
            e = pa.analyze(v, l_max)
            t1 = time.perf_counter()
            pa.synthesize(e)
            ts.append(time.perf_counter() - t1)
            ta.append(t1 - t0)
        out[f"ref.vsh.analyze.l{l_max}_ms"] = 1e3 * statistics.median(ta)
        out[f"ref.vsh.synthesize.l{l_max}_ms"] = 1e3 * statistics.median(ts)
    grid = pa.build_grid(pa.GridSpec(n_k=8, k_min=0.94, k_max=1.06, n_theta=256, n_phi=12))
    v = pa.build_mode(pa.ModeSpec(kind="vector_lg", m=2, w=-1, p=1, w0=25.0, k_fixed=1.0), grid)
    pa.observable_report(v)
    tr = []
    for _ in range(reps):
        t0 = time.perf_counter()
        pa.observable_report(v)
        tr.append(time.perf_counter() - t0)
    out["ref.operators.observable_report.readme_lg_ms"] = 1e3 * statistics.median(tr)
    return out


def single_thread_gmacs(seed: int) -> float:
    """eff_gmacs of one com-synth cycle in a child process capped at 1 thread."""
    env = dict(os.environ, PHOTON_ANGMOM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(BENCH / "single_thread.py"), "--seed", str(seed)],
        env=env, capture_output=True, text=True, timeout=170, check=True,
    )
    data = json.loads(proc.stdout.splitlines()[-1])
    return 15.0 * data["site_nodes"] / data["synth_s"] / 1e9
