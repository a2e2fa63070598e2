import threading
import time

import pytest

from photon_angmom import parallel


@pytest.mark.parametrize("raw, expected", [
    (None, 4), ("", 4), ("1", 1), ("2", 2), ("4", 4), ("100000", 4),
])
def test_resolve_threads_counts_and_caps(capsys, raw, expected):
    assert parallel.resolve_threads(raw, cpus=4) == expected
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("raw", ["abc", "0", "-3", "2.5", " "])
def test_resolve_threads_warns_and_falls_back(capsys, raw):
    assert parallel.resolve_threads(raw, cpus=4) == 4
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "PHOTON_ANGMOM_THREADS" in err


@pytest.mark.parametrize("n, parts, align", [(75, 2, 1), (120, 2, 8), (3, 4, 1), (2400, 3, 8)])
def test_split_covers_the_range_in_order(n, parts, align):
    ranges = [parallel.split(n, parts, w, align) for w in range(parts)]
    assert ranges[0][0] == 0 and ranges[-1][1] == n
    for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
        assert hi == lo
        assert lo % align == 0 or lo == n
    sizes = [hi - lo for lo, hi in ranges]
    assert max(sizes) - min(sizes) <= align


def test_run_calls_every_worker_and_raises_their_errors(monkeypatch):
    monkeypatch.setattr(parallel, "_pool", None)
    seen = []
    parallel.run(1, lambda w, tag: seen.append((w, tag)), "x")
    assert seen == [(0, "x")] and parallel._pool is None   # one worker: no pool

    names = {}

    def record(w):
        names[w] = threading.current_thread().name

    finished = []
    release = threading.Event()

    def fail(w, failing):
        # worker 2 is still running when the failing workers raise
        if w == 2:
            release.wait(5.0)
            time.sleep(0.05)
            finished.append(w)
        if w in failing:
            release.set()
            raise RuntimeError(f"worker {w}")

    try:
        parallel.run(3, record)
        assert sorted(names) == [0, 1, 2]
        assert names[0] == threading.current_thread().name
        for failing, first in (({1}, 1), ({0, 1}, 0)):
            finished.clear()
            release.clear()
            with pytest.raises(RuntimeError, match=f"worker {first}"):
                parallel.run(3, fail, failing)
            assert finished == [2]          # run returned after worker 2 ended
    finally:
        parallel._pool.shutdown()
