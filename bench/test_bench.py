"""Tests of the benchmark itself:  python3 -m pytest bench -q"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def kspace(tmp_path_factory):
    wl = workloads.KspaceSweep(7, str(tmp_path_factory.mktemp("kspace")))
    wl.setup(spans.Tracer(False))
    return wl


def _spec_key(spec):
    return repr({k: (v.tolist() if isinstance(v, np.ndarray) else v) for k, v in spec.items()})


@pytest.mark.parametrize("cls", list(workloads.WORKLOADS.values()))
def test_same_seed_same_specs(cls):
    a, b, c = cls(11, ""), cls(11, ""), cls(12, "")
    keys_a = [_spec_key(a.spec(i)) for i in range(2 * cls.cycle)]
    assert keys_a == [_spec_key(b.spec(i)) for i in range(2 * cls.cycle)]
    assert keys_a != [_spec_key(c.spec(i)) for i in range(2 * cls.cycle)]


def test_work_sizes_do_not_depend_on_seed():
    # A second seed changes mode parameters, never the grids, lattices,
    # family rotation or writer ops, so its metrics measure the same work.
    for cls, fields in ((workloads.ComSynth, ("size",)),
                        (workloads.KspaceSweep, ("family", "l_max", "writer"))):
        a, b = cls(1, ""), cls(2, "")
        for i in range(2 * cls.cycle):
            assert [a.spec(i)[f] for f in fields] == [b.spec(i)[f] for f in fields]


def test_second_seed_gives_comparable_metrics(tmp_path):
    # Two cycles of kspace-sweep per seed, the seeds alternating so that both
    # see the same machine: equal work in every layer (written bytes within
    # 1 %, as numbers print to varying widths), and op times that agree
    # within the benchmark's ops_per_s bound.
    bound = next(m["bound"] for m in run.SPEC["end_to_end"] if m["name"] == "ops_per_s")
    wls = {seed: workloads.KspaceSweep(seed, str(tmp_path)) for seed in (1, 2)}
    tr = spans.Tracer(True)
    for wl in wls.values():
        wl.setup(spans.Tracer(False))
    for rep in range(2):
        for seed, wl in wls.items():
            for i in range(wl.cycle):
                tr.op = (seed, rep, i)
                with tr.span("bench.op"):
                    wl.op(wl.spec(i), tr)
    tot = {seed: spans.layer_totals(tr.spans, [(seed, r, i) for r in range(2)
                                               for i in range(wl.cycle)])
           for seed, wl in wls.items()}
    work = {seed: {(name, key): val for name, entry in t.items()
                   for key, val in entry.items() if key != "self_s"}
            for seed, t in tot.items()}
    assert work[1] == pytest.approx(work[2], rel=0.01)
    op_s = {seed: sum(e["self_s"] for e in t.values()) for seed, t in tot.items()}
    assert abs(op_s[2] / op_s[1] - 1.0) <= bound


def test_kspace_median_and_p90_fall_outside_the_writer_ops():
    # A cycle sorts as: plain vector_lg and j3_w ops, the writer ops, then
    # the sam_wavepacket ops.
    wl = workloads.KspaceSweep(0, "")
    specs = [wl.spec(i) for i in range(wl.cycle)]
    plain = sum(not s["writer"] and s["family"] != 2 for s in specs) / wl.cycle
    sam = sum(s["family"] == 2 for s in specs) / wl.cycle
    assert not any(s["writer"] and s["family"] == 2 for s in specs)
    assert plain > 0.55 and sam > 0.15


def test_kspace_op_passes_and_is_deterministic(kspace):
    for i in range(kspace.cycle):
        spec = kspace.spec(i)
        if spec["family"] == 1 and spec["writer"]:
            break
    tr = spans.Tracer(False)
    problems, digest, _ = kspace.check(spec, kspace.op(spec, tr))
    assert problems == []
    _, again, _ = kspace.check(spec, kspace.op(spec, tr))
    assert again == digest


def test_perturbed_coefficient_fails_the_kspace_check(kspace):
    spec = kspace.spec(0)
    out = kspace.op(spec, spans.Tracer(False))
    a, l, m = spec["coeffs"][0]
    e = out["e"]
    e.coeffs[a - 1, :, l, m - e.m_min] += 1e-6
    problems, _, _ = kspace.check(spec, out)
    assert any("coefficient" in p for p in problems)


def test_wrong_j3_fails_the_kspace_check(kspace):
    spec = kspace.spec(0)
    out = kspace.op(spec, spans.Tracer(False))
    out["report"].total_am[2] += 1e-6
    problems, _, _ = kspace.check(spec, out)
    assert any("<J3>" in p for p in problems)


def test_sign_flipped_field_fails_the_com_check(tmp_path):
    wl = workloads.ComSynth(3, str(tmp_path))
    wl.setup(spans.Tracer(False))
    spec = wl.spec(0)
    out = wl.op(spec, spans.Tracer(False))
    problems, _, _ = wl.check(spec, out)
    assert problems == []
    ix, iy, iz = spec["sites"][0]
    out["snaps"][1].E[ix, iy, iz, 0] *= -1.0
    problems, _, _ = wl.check(spec, out)
    assert any(p.startswith("E at site") for p in problems)


class _FakeWorkload:
    cycle = 1
    setup_repeats = 1

    def __init__(self, problems):
        self.problems = problems

    def spec(self, i):
        return {"index": i}

    def op(self, spec, tr):
        with tr.span("modes.build_mode"):
            return {}

    def check(self, spec, out):
        return list(self.problems), "d", None


def test_failed_check_counts_as_failed_op():
    runner = run.Runner(_FakeWorkload(["E sign flipped"]), spans.Tracer(False))
    runner.latency[0] = runner.run_op(0, 0)
    assert (runner.attempted, runner.failed, runner.ok) == (1, 1, set())
    runner = run.Runner(_FakeWorkload([]), spans.Tracer(False))
    runner.latency[0] = runner.run_op(0, 0)
    assert (runner.attempted, runner.failed, runner.ok) == (1, 0, {0})


def test_digest_store_flags_changed_outputs(tmp_path):
    store = tmp_path / "d.json"
    assert run.compare_digests(store, {0: "a", 1: "b"}) == []
    assert run.compare_digests(store, {1: "b", 2: "c"}) == []
    assert run.compare_digests(store, {0: "x", 2: "c"}) == [0]


def test_self_time_from_nested_spans():
    #  op [0, 10] holds a [1, 3] and b [2, 4] (overlapping) and c [5, 6];
    #  a holds d [1.5, 2.5].
    recs = [
        [0, "op", 0, None, 0.0, 10.0, {}],
        [1, "a", 0, 0, 1.0, 3.0, {}],
        [2, "b", 0, 0, 2.0, 4.0, {}],
        [3, "c", 0, 0, 5.0, 6.0, {"bytes": 7}],
        [4, "d", 0, 1, 1.5, 2.5, {}],
    ]
    selfs = spans.self_times(recs)
    assert selfs == pytest.approx({0: 6.0, 1: 1.0, 2: 2.0, 3: 1.0, 4: 1.0})
    tot = spans.layer_totals(recs + [[5, "c", 1, None, 0.0, 1.0, {"bytes": 1}]], [0])
    assert tot["c"]["calls"] == 1 and tot["c"]["bytes"] == 7


def test_tracer_links_parents_and_ops():
    tr = spans.Tracer(True)
    tr.op = 4
    with tr.span("outer"):
        with tr.span("inner", nodes=3):
            tr.add(nodes=2)
    (outer, inner) = tr.spans
    assert inner[3] == outer[0] and outer[3] is None
    assert inner[2] == outer[2] == 4 and inner[6] == {"nodes": 5}
    assert outer[4] <= inner[4] <= inner[5] <= outer[5]


def test_verify_row_margin():
    assert workloads.row_margin({"max_residual": 1e-12, "tolerance": 1e-10, "pass": True}) \
        == pytest.approx(100.0)
    assert workloads.row_margin({"max_residual": 0.5, "tolerance": 0.05, "pass": True}) \
        == pytest.approx(10.0)
    assert workloads.row_margin({"max_residual": 0.3, "tolerance": 0.0, "pass": True}) is None


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify-fast", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
