"""`csvfile.write_csv` against Python's own '%.17g', value by value."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import photon_angmom
from photon_angmom import csvfile


def _per_value(header, axes, values):
    """The table written one value at a time: the oracle of write_csv."""
    lines = [header]
    floats = np.asarray(values, dtype=complex).view(float).tolist()
    for node, row in zip(itertools.product(*(np.asarray(a).tolist() for a in axes)), floats):
        lines.append(",".join("%.17g" % x for x in list(node) + row))
    return "\n".join(lines) + "\n"


def _written(tmp_path, header, axes, values):
    path = tmp_path / "table.csv"
    csvfile.write_csv(str(path), header, axes, values)
    return path.read_bytes().decode()


def _assert_values_match(tmp_path, floats, columns=4):
    """Write `floats` as a table of `columns` complex columns (zero-padded
    to whole rows) and compare every field with '%.17g'."""
    floats = np.asarray(floats, dtype=float).ravel()
    per_row = 2 * columns
    floats = np.concatenate([floats, np.zeros(-len(floats) % per_row)])
    values = floats.view(complex).reshape(-1, columns)
    axis = np.arange(len(values), dtype=float)
    lines = _written(tmp_path, "i", (axis,), values).splitlines()
    assert lines[0] == "i" and len(lines) == len(values) + 1
    got = [field for line in lines[1:] for field in line.split(",")[1:]]
    want = ["%.17g" % x for x in floats.tolist()]
    bad = [(x, g, w) for x, g, w in zip(floats.tolist(), got, want) if g != w]
    assert len(got) == len(want) and not bad, bad[:5]


def test_random_bit_patterns_print_as_percent_17g(tmp_path):
    rng = np.random.default_rng(2024)
    bits = rng.integers(0, 2**64, size=1_000_000, dtype=np.uint64, endpoint=False)
    _assert_values_match(tmp_path, bits.view(float))


def test_every_decimal_exponent_and_its_neighbours(tmp_path):
    powers = np.array([float("1e%d" % k) for k in range(-324, 309)])
    near = [powers, np.nextafter(powers, np.inf), np.nextafter(powers, -np.inf)]
    _assert_values_match(tmp_path, np.concatenate(near + [-x for x in near]))


def test_subnormals_ties_zeros_and_non_finite_values(tmp_path):
    rng = np.random.default_rng(7)
    subnormal = rng.integers(1, 2**52, size=20_000, dtype=np.uint64).view(float)
    smallest = np.array([5e-324, 1e-323, 2.225073858507201e-308, 2.2250738585072014e-308])
    # exact ties: 18 significant digits ending in 5, which '%.17g' rounds
    # half to even
    ints15 = rng.integers(10**14, 10**15, size=5_000).astype(float)
    ints16 = rng.integers(10**15, 2**53 // 2, size=5_000).astype(float)
    ties = np.concatenate([
        [1234567890123456.25, 1234567890123456.75, 2.0**-25, 3 * 2.0**-25],
        ints15 + rng.choice([0.125, 0.375, 0.625, 0.875], size=ints15.size),
        ints16 + rng.choice([0.25, 0.75], size=ints16.size),
    ])
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan]
    values = np.concatenate([subnormal, smallest, ties, special])
    _assert_values_match(tmp_path, np.concatenate([values, -values]))


def test_the_fallback_prints_only_what_the_kernel_cannot_decide(monkeypatch):
    seen = []
    printed = csvfile._printed

    def record(values):
        seen.extend(values.tolist())
        return printed(values)

    monkeypatch.setattr(csvfile, "_printed", record)
    rng = np.random.default_rng(3)
    x = rng.standard_normal(100_000) * 10.0 ** rng.integers(-20, 21, 100_000)
    csvfile._records(x, np.empty(x.shape + (4,), np.uint64))
    assert len(seen) <= 10
    seen.clear()
    # D = x 10^(16 - X) is exact for X in [-6, 16], so a tie there is
    # decided; 2^-25 (X = -8) is an exact tie the kernel cannot tell from
    # a near one
    x = np.array([1234567890123456.25, 2.0**-25, np.inf, -np.inf, np.nan, 0.0, -0.0, 1.5])
    csvfile._records(x, np.empty(x.shape + (4,), np.uint64))
    assert len(seen) == 4 and seen[:3] == [2.0**-25, np.inf, -np.inf]
    assert np.isnan(seen[3])


def test_importing_the_package_builds_no_table_and_writes_no_file(tmp_path):
    code = ("import photon_angmom, photon_angmom.cli\n"
            "from photon_angmom import csvfile\n"
            "print(csvfile._tables.cache_info().currsize)")
    env = dict(os.environ, PYTHONPATH=str(Path(photon_angmom.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.strip() == "0"
    assert list(tmp_path.iterdir()) == []


CHUNK = csvfile._CSV_CHUNK_ROWS


@pytest.mark.parametrize("shape", [
    (0,), (1,), (CHUNK - 1,), (CHUNK,), (CHUNK + 1,), (1, 7, 5), (6, 1, 4), (3, 5, 1),
], ids=["zero-rows", "one-row", "chunk-1", "chunk", "chunk+1",
        "first-axis-1", "middle-axis-1", "last-axis-1"])
def test_edge_shapes_match_per_value_formatting(tmp_path, shape):
    rng = np.random.default_rng(len(shape) * 1000 + shape[0])
    axes = [rng.uniform(-2.0, 40.0, n) for n in shape]
    n_rows = int(np.prod(shape))
    values = rng.standard_normal((n_rows, 3)) + 1j * rng.standard_normal((n_rows, 3))
    values *= 10.0 ** rng.integers(-6, 4, (n_rows, 3))
    header = "a,re_v1,im_v1,re_v2,im_v2,re_v3,im_v3"
    assert _written(tmp_path, header, axes, values) == _per_value(header, axes, values)


def test_signed_zeros_and_non_finite_values_in_rows(tmp_path):
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 1.0]
    values = np.array([complex(a, b) for a, b in itertools.product(special, repeat=2)])
    values = values.reshape(18, 2)
    axes = (np.array([-0.0, 0.0, np.inf]), np.array([np.nan, -1.5, 2.0, 0.0, -0.0, 7.0]))
    header = "x,y,re_a,im_a,re_b,im_b"
    assert _written(tmp_path, header, axes, values) == _per_value(header, axes, values)
