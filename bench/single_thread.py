"""One com-synth cycle of field synthesis, timed, for the single-thread rate.

    PHOTON_ANGMOM_THREADS=1 python3 bench/single_thread.py --seed N

Prints {"site_nodes": ..., "synth_s": ...} as its last line: the summed
n_sites * n_nodes of every synthesize_fields call and their summed time.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import photon_angmom as pa  # caps BLAS before numpy loads
    import spans
    import workloads

    wl = workloads.ComSynth(args.seed, workdir="")
    wl.setup(spans.Tracer(False))
    site_nodes = 0
    synth_s = 0.0
    for i in range(wl.cycle):
        spec = wl.spec(i)
        grid = wl.grids[spec["size"]]
        lat = wl.lattices[spec["size"]]
        v = pa.build_mode(spec["mode"], grid)
        for t in workloads.ComSynth.times(spec):
            t0 = time.perf_counter()
            pa.synthesize_fields(v, lat, time=t)
            synth_s += time.perf_counter() - t0
            site_nodes += lat.n_x * lat.n_y * lat.n_z * grid.n_nodes
    print(json.dumps({"site_nodes": site_nodes, "synth_s": synth_s}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
