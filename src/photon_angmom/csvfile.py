"""The CSV table writer of the wavefunction dump and the field slice.

A table is one row per node of a product grid: the node's coordinate on
each axis, then (re, im) of each complex value column, every number
printed as "%.17g" so that it reads back exactly.  Each axis value is
formatted once and joined into the row prefixes; the values are
formatted a chunk of rows at a time, with one `%` call per chunk, so
memory stays bounded for any row count.
"""

from __future__ import annotations

import itertools
import operator

import numpy as np

__all__ = ["write_csv"]

# Rows formatted per write.
_CSV_CHUNK_ROWS = 2048


def write_csv(path: str, header: str, axes, values) -> None:
    """Write `header`, then one row per node of the product of the 1-D
    `axes` (C order, the last axis fastest): its axis values, then (re, im)
    of each column of the complex `values`, shape (n_rows, n_columns)."""
    prefixes = map("".join, itertools.product(
        *(["%.17g," % x for x in np.asarray(axis).tolist()] for axis in axes)))
    row = ",".join(["%.17g"] * (2 * values.shape[1])) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for lo in range(0, len(values), _CSV_CHUNK_ROWS):
            chunk = np.ascontiguousarray(values[lo : lo + _CSV_CHUNK_ROWS]).view(float)
            text = (row * len(chunk)) % tuple(chunk.ravel().tolist())
            lines = text.splitlines(keepends=True)
            fh.write("".join(map(operator.add, itertools.islice(prefixes, len(lines)), lines)))
