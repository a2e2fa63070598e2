"""Benchmark entry point: one seeded workload, timed, checked and reported.

    python3 bench/run.py --workload {com-synth,kspace-sweep,verify-fast} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from its `src/`
with BLAS capped, through PHOTON_ANGMOM_THREADS, at the CPUs this process
may run on.  The process sets up a few times (fresh grids plus one
untimed warm-up op each), then runs whole cycles of ops until --seconds have
passed and at least the workload's `min_ops` ran, checking every op's
outputs.  Human-readable lines come first; the last line of stdout is
one JSON object {correct, attempted, failed, metrics}, holding the
end-to-end metrics with --trace 0 and the per-layer metrics of the span
trace with --trace 1.  Any failed op (an exception, a
failed output check or a digest that differs from an earlier run of the
same code and seed) makes the exit code 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".bench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
# name -> unit of the metrics each mode prints.  Per-layer values are sums
# over the timed ops divided by their number; grid.build_grid runs only in
# set-up and reads per set-up.
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

LAYERS = ("modes", "operators", "vsh", "synthesis", "cli", "verify")


def code_digest() -> str:
    """Hash of the library and benchmark sources: digests are only ever
    compared between runs of the same code."""
    h = hashlib.sha256()
    for path in sorted(list((ROOT / "src").rglob("*.py")) + list(BENCH.glob("*.py"))):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def compare_digests(store: Path, digests: dict) -> list:
    """Op indices whose digest differs from the one stored by an earlier run;
    then merge this run's digests into the store."""
    old = json.loads(store.read_text()) if store.exists() else {}
    bad = [i for i, d in digests.items() if old.get(str(i), d) != d]
    old.update({str(i): d for i, d in digests.items()})
    store.parent.mkdir(parents=True, exist_ok=True)
    tmp = store.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(old, sort_keys=True))
    os.replace(tmp, store)
    return bad


class Runner:
    """Runs and checks ops, keeping latencies, failures and digests."""

    def __init__(self, workload, tracer):
        self.wl = workload
        self.tr = tracer
        self.attempted = 0
        self.failed = 0
        self.latency = {}        # timed op index -> seconds
        self.ok = set()          # timed op indices that passed their checks
        self.digests = {}        # op index -> digest
        self.margins = []
        self.writer_ops = set()

    def run_op(self, i: int, label) -> float:
        """Run op i under trace label `label`; return its latency."""
        spec = self.wl.spec(i)
        self.tr.op = label
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            with self.tr.span("bench.op"):
                out = self.wl.op(spec, self.tr)
        except Exception:
            latency = time.perf_counter() - t0
            self.failed += 1
            print(f"op {i} raised:\n{traceback.format_exc()}", file=sys.stderr)
            return latency
        latency = time.perf_counter() - t0
        with self.tr.span("bench.check"):
            try:
                problems, digest, margin = self.wl.check(spec, out)
            except Exception:
                problems, digest, margin = [traceback.format_exc()], None, None
        if digest is not None and self.digests.setdefault(i, digest) != digest:
            problems.append("digest differs from the same op earlier in this run")
        if margin is not None:
            self.margins.append(margin)
        if problems:
            self.failed += 1
            print(f"op {i} failed its checks: " + "; ".join(problems), file=sys.stderr)
        elif isinstance(label, int):
            self.ok.add(i)
        if spec.get("writer"):
            self.writer_ops.add(label)
        return latency


def import_seconds(src: Path, repeats: int = 3) -> float:
    """Median time to import the library in a fresh interpreter."""
    probe = ("import time; t = time.perf_counter(); import photon_angmom; "
             "from photon_angmom import cli, verify; print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(src))
    times = [float(subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                                  capture_output=True, text=True, timeout=120).stdout)
             for _ in range(repeats)]
    return statistics.median(times)


def end_to_end_metrics(import_s, setup_times, lat, n_ok, cycle) -> dict:
    """`lat` holds the timed latencies in op order, a whole number of cycles.
    Throughput is taken from the median cycle, so that one slow cycle does
    not move it."""
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[-1] if len(lat) > 1 else lat[0]
    cycles = [sum(lat[c:c + cycle]) for c in range(0, len(lat), cycle)]
    return {
        "setup_s": import_s + statistics.median(setup_times),
        "ops_per_s": n_ok / len(lat) * cycle / statistics.median(cycles),
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_p90_ms": 1e3 * p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_metrics(tracer, n_ops, n_setups, writer_ops, margins, span_cost,
                  traced_wall) -> dict:
    """Per-layer values from the spans of the timed ops (and set-ups)."""
    ops = range(n_ops)
    tot = spans.layer_totals(tracer.spans, ops)
    out = {}
    for metric in PER_LAYER:
        name, _, key = metric.rpartition(".")
        if name in tot and key in ("calls", "self_s", "site_nodes", "bytes", "coeffs", "nodes"):
            out[metric] = tot[name].get(key, 0.0) / n_ops
    synth = tot.get("synthesis.synthesize_fields", {})
    out["synthesis.synthesize_fields.eff_gmacs"] = (
        15.0 * synth["site_nodes"] / synth["self_s"] / 1e9 if synth else 0.0)
    setup = spans.layer_totals(tracer.spans, [f"setup{r}" for r in range(n_setups)])
    grid = setup.get("grid.build_grid", {})
    out["grid.build_grid.calls"] = grid.get("calls", 0.0) / n_setups
    out["grid.build_grid.self_s"] = grid.get("self_s", 0.0) / n_setups
    out["verify.min_margin"] = min(margins) if margins else 0.0
    out["bench.trace_overhead_frac"] = span_cost * len(tracer.spans) / traced_wall

    def shares(op_set):
        # op time = self time of every span inside "bench.op", glue included
        sub = spans.layer_totals(tracer.spans, op_set)
        whole = sum(v["self_s"] for k, v in sub.items() if k != "bench.check")
        return {layer: sum(v["self_s"] for k, v in sub.items() if k.startswith(layer + "."))
                / whole for layer in LAYERS}

    nonwriter = [i for i in ops if i not in writer_ops] or list(ops)
    for layer, val in shares(ops).items():
        out[f"share.{layer}"] = val
    for layer, val in shares(nonwriter).items():
        out[f"nonwriter.share.{layer}"] = val
    for metric in PER_LAYER:
        out.setdefault(metric, 0.0)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "photon_angmom" / "__init__.py").is_file():
        print(f"error: no photon_angmom package under {src}", file=sys.stderr)
        return 2
    threads = len(os.sched_getaffinity(0))
    os.environ["PHOTON_ANGMOM_THREADS"] = str(threads)
    import_s = import_seconds(src)
    sys.path.insert(0, str(src))
    import photon_angmom  # noqa: F401  (caps BLAS before numpy loads)
    import workloads

    workdir = OUT_DIR / f"tmp-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        tracer = spans.Tracer(bool(args.trace))
        wl = workloads.WORKLOADS[args.workload](args.seed, str(workdir))
        runner = Runner(wl, tracer)
        t_wall = time.perf_counter()
        setup_times = []
        for r in range(wl.setup_repeats):
            tracer.op = f"setup{r}"
            ts = time.perf_counter()
            wl.setup(tracer)
            grids_s = time.perf_counter() - ts
            setup_times.append(grids_s + runner.run_op(0, f"setup{r}"))
        t_start = time.perf_counter()
        i = 0
        while i % wl.cycle or i < wl.min_ops or time.perf_counter() - t_start < args.seconds:
            runner.latency[i] = runner.run_op(i, i)
            i += 1
        traced_wall = time.perf_counter() - t_wall
        n_ops = i
        store = OUT_DIR / "digests" / code_digest() / f"{args.workload}-{args.seed}.json"
        for j in compare_digests(store, runner.digests):
            print(f"op {j}: digest differs from an earlier run of this code and seed",
                  file=sys.stderr)
            runner.failed += 1
            runner.ok.discard(j)

        if args.trace:
            import probes

            record = probes.machine_record(threads)
            gbs, nbytes = probes.stream_gbs(record["llc_bytes"])
            metrics = layer_metrics(tracer, n_ops, wl.setup_repeats, runner.writer_ops,
                                    runner.margins, spans.span_cost_s(), traced_wall)
            metrics.update(probes.reference_points())
            metrics.update({
                "machine.zgemm_gmacs": probes.zgemm_gmacs(),
                "machine.stream_gbs": gbs,
                "machine.stream_array_bytes": float(nbytes),
                "machine.llc_bytes": float(record["llc_bytes"]),
                "machine.nproc": float(record["nproc"]),
                "machine.blas_threads": float(threads),
            })
            if args.workload == "com-synth":
                metrics["synthesis.synthesize_fields.eff_gmacs_1t"] = \
                    probes.single_thread_gmacs(args.seed)
            trace_path = OUT_DIR / "trace" / f"{args.workload}-seed{args.seed}.json"
            trace_path.parent.mkdir(parents=True, exist_ok=True)
            tracer.dump(trace_path)
            print(json.dumps({"machine": record, "trace": str(trace_path.relative_to(ROOT))}))
            units = PER_LAYER
        else:
            metrics = end_to_end_metrics(
                import_s, setup_times, list(runner.latency.values()), len(runner.ok),
                wl.cycle)
            units = END_TO_END
        frac = runner.failed / runner.attempted
        print(f"{args.workload} seed={args.seed}: {n_ops} timed ops, "
              f"{runner.attempted} checked, {runner.failed} failed")
        for name, unit in list(units.items()) + [("ops_failed_frac", "ratio")]:
            print(f"  {name:48s} {metrics.get(name, frac):.6g} {unit}")
        result = {
            "correct": runner.failed == 0,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        }
        print(json.dumps(result))
        return 0 if runner.failed == 0 else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
