"""The CSV table writer of the wavefunction dump and the field slice.

A table is one row per node of a product grid: the node's coordinate on
each axis, then (re, im) of each complex value column, every number
printed exactly as Python's ``'%.17g' % x`` prints it, so that it reads
back exactly.  Rows are written a chunk at a time, so memory stays
bounded for any row count.  The axis values are few and printed by
``'%.17g' %`` itself; the values go through a numpy kernel, `_records`.

**The fast path.**  For a finite nonzero a = |x| = m 2^e (m in [0.5, 1))
with decimal exponent X = floor(log10 a), the 17 significant digits are
the integer N nearest to D = a 10^(16 - X), which lies in [1e16, 1e17).
D is formed as a double-double: Dekker's exact two-product of m with the
high word of a table entry 10^q = (h + l) 2^E, plus m l, scaled by
2^(e + E).  The tables are built on first use from exact integers; the
rest of the kernel is digit, exponent and mask lookups.

**The error bound.**  h + l is 10^q 2^-E to 2^-106 relative, the
two-product is exact and m l adds at most 2^-106, so D is known to about
2^-104 relative, 2^-46 (< 2e-14) absolute for D < 2^57.  N is therefore
certain whenever the fraction of D lies more than 2^-30 from 1/2, and
every value so decided prints exactly the digits of '%.17g'.  For
X in [-6, 16], 10^q (q in [0, 22]) is a double, l = 0 and D is exact, so
an exact tie is decided too, half to even as '%.17g' rounds it.  A wrong
X (log10 is off by one next to a power of ten) shows as a D outside
[1e16, 1e17) and is corrected once.  This is the design of Grisu3
(Loitsch, PLDI 2010) on Dekker's double-double arithmetic (Numer. Math.
18 (1971) 224), which needs no fused multiply-add.

**The layout.**  Each value gets a 32-byte slot of four 64-bit words:
"-0.000" d0 ".", then d1..d16, then a spill byte, "e", the exponent's
sign and three digits, a pad byte and the separator.  For fixed notation
with 1 <= X <= 15 a "." is shifted in after d_X and d16 spills over.  A
mask chosen by (sign, notation and X, number of digits up to the last
nonzero one) clears every byte the value does not print to 0; zero has a
mask of its own.

**The fallback.**  The values the kernel cannot decide, inf, nan and
the fractions of D within 2^-30 of 1/2 outside X in [-6, 16] (about one
value in 5e8 of random data, besides exact ties such as 2^-25), are
printed by ``'%.17g' %`` one at a time (`_printed`) and spliced into
their slots.  Each chunk of rows is then compacted once by deleting its
0 bytes.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["write_csv"]

# Rows formatted per write.
_CSV_CHUNK_ROWS = 2048

_SLOT = 32                  # bytes per value; the last one is the separator
_N_FORMS = 24               # fixed with X = -4..16, e+dd, e+ddd, zero
_X_MIN, _X_MAX = -330, 330  # exponent rows of the tables; one more for zero
_ZERO_ROW = _X_MAX - _X_MIN + 1
_Q_MIN, _Q_MAX = -293, 341  # 10^q for q = 16 - X, X in [-325, 309]
_UNDECIDED = 2.0 ** -30     # least distance of frac(D) from 1/2 that decides
_SPLIT = 134217729.0        # 2^27 + 1, Dekker's splitter
_POINT = np.uint64(ord("."))


def _words(chunks) -> np.ndarray:
    return np.frombuffer(b"".join(chunks), np.uint64)


@functools.cache
def _tables():
    """The kernel's lookup tables, built on first use from exact integers."""
    hi, lo, e2s = [], [], []
    for q in range(_Q_MIN, _Q_MAX + 1):
        # 10^q = (num / den) 2^e2 with num / den in [0.5, 1)
        if q >= 0:
            e2 = (10 ** q).bit_length()
            num, den = 10 ** q, 1 << e2
        else:
            e2 = -(10 ** -q).bit_length()
            num, den = 1 << -e2, 10 ** -q
        h = num / den                      # correctly rounded
        mant = int(h * 2.0 ** 53)          # h = mant 2^-53 exactly
        hi.append(h)
        lo.append((num * 2 ** 53 - mant * den) / (den * 2 ** 53))
        e2s.append(e2)
    hi = np.array(hi)
    t = _SPLIT * hi
    hi_h = t - (t - hi)
    ten = (hi, hi_h, hi - hi_h, np.array(lo), np.array(e2s, dtype=np.int32))

    head = _words(b"-0.000%d." % d for d in range(10))
    quads = [b"%04d" % g for g in range(10000)]
    four = _words(s + b"\0" * 4 for s in quads)
    # digits up to the last nonzero one, counted from d1, by group of four
    last = np.array([len(s.rstrip(b"0")) for s in quads])
    reach = np.where(last > 0, last + 4 * np.arange(4)[:, None], 0).astype(np.uint8)

    xs = range(_X_MIN, _X_MAX + 1)
    expo = _words([b"\0e%s%03d\0," % (b"-" if x < 0 else b"+", abs(x)) for x in xs]
                  + [b"\0" * 7 + b","])
    form = [x + 4 if -4 <= x <= 16 else 21 + (abs(x) >= 100) for x in xs] + [_N_FORMS - 1]
    form_row = np.array(form, dtype=np.intp) * 17

    keep = np.zeros((2, _N_FORMS, 17, _SLOT), np.uint8)
    keep[1, ..., 0] = 0xFF
    keep[..., _SLOT - 1] = 0xFF
    for nd in range(1, 18):
        k = keep[:, :, nd - 1]
        k[:, :21, 6] = 0xFF                           # d0
        for x in range(-4, 17):
            if x < 0:
                k[:, x + 4, 1 : 2 - x] = 0xFF        # "0." and -X - 1 zeros
                k[:, x + 4, 8 : 7 + nd] = 0xFF
            elif x == 0 or x == 16:
                k[:, x + 4, 7] = 0xFF if nd > 1 and x == 0 else 0
                k[:, x + 4, 8 : 7 + max(nd, x + 1)] = 0xFF
            else:                                     # d1..dX "." dX+1..
                k[:, x + 4, 8 : 8 + max(x, nd - 1) + (nd - 1 > x)] = 0xFF
        for f, width in ((21, 2), (22, 3)):
            k[:, f, 6] = 0xFF
            k[:, f, 7] = 0xFF if nd > 1 else 0
            k[:, f, 8 : 7 + nd] = 0xFF
            k[:, f, 25:27] = 0xFF                     # "e", sign
            k[:, f, 30 - width : 30] = 0xFF           # exponent digits
    keep[:, _N_FORMS - 1, :, 1] = 0xFF                # zero prints "0"
    masks = keep.reshape(-1, _SLOT).view(np.uint64)
    return ten, head, four, reach, expo, form_row, masks


def _scaled(m, e, x, ten):
    """D = m 2^e 10^(16 - x) as an unevaluated double-double (hi, lo)."""
    k = 16 - _Q_MIN - x
    t_hi, t_h, t_l, t_lo, t_e = (np.take(t, k) for t in ten)
    p = m * t_hi
    s = _SPLIT * m
    m_h = s - (s - m)
    m_l = m - m_h
    err = ((m_h * t_h - p) + m_h * t_l + m_l * t_h) + m_l * t_l
    scale = e + t_e
    return np.ldexp(p, scale), np.ldexp(err + m * t_lo, scale)


def _rounded(hi, lo):
    """The nearest integer to hi + lo, ties to even; whether the fraction
    lies too near 1/2 to decide when hi + lo carries an error; and the
    integer part."""
    n0 = np.floor(hi)
    r = (hi - n0) + lo
    f = np.floor(r)
    frac = r - f
    whole = n0.astype(np.int64) + f.astype(np.int64)
    up = (frac > 0.5) | ((frac == 0.5) & ((whole & 1) == 1))
    return whole + up, np.abs(frac - 0.5) <= _UNDECIDED, whole


def _insert_point(lo, hi, x):
    """Shift "." into the 16 digits lo | hi << 64 after digit x (1..15);
    return the new words and the digit that spills over."""
    sh = 8 * np.minimum(x, 8).astype(np.uint64)        # 64 leaves lo as it is
    new_lo = (lo & ((np.uint64(1) << sh) - np.uint64(1))) | (_POINT << sh) \
        | ((lo >> sh) << (sh + np.uint64(8)))
    sh = 8 * np.maximum(x - 8, 0).astype(np.uint64)
    ins = np.where(x < 8, lo >> np.uint64(56), _POINT)
    new_hi = (hi & ((np.uint64(1) << sh) - np.uint64(1))) | (ins << sh) \
        | ((hi >> sh) << (sh + np.uint64(8)))
    return new_lo, new_hi, hi >> np.uint64(56)


def _records(x: np.ndarray, out: np.ndarray) -> None:
    """Write the '%.17g' bytes of each value of the float64 array `x` into
    `out`, shape x.shape + (4,) uint64: one 32-byte slot per value, unused
    bytes 0 and the last byte ','."""
    ten, head, four, reach, expo, form_row, masks = _tables()
    flat = x.ravel()
    a = np.abs(flat)
    zero = a == 0.0
    nonfinite = ~np.isfinite(a)
    np.copyto(a, 1.0, where=zero | nonfinite)
    m, e = np.frexp(a)
    xp = np.floor(np.log10(a)).astype(np.intp)
    n, undecided, whole = _rounded(*_scaled(m, e, xp, ten))
    fix = np.flatnonzero((whole < 10 ** 16) | (whole >= 10 ** 17))
    if fix.size:
        xp[fix] += np.where(whole[fix] < 10 ** 16, -1, 1)
        n[fix], undecided[fix], _ = _rounded(*_scaled(m[fix], e[fix], xp[fix], ten))
    # 10^q is a double for q = 16 - X in [0, 22], and then D is exact: a
    # tie is a true tie, decided above
    undecided &= (xp < -6) | (xp > 16)
    carry = np.flatnonzero(n == 10 ** 17)
    n[carry] = 10 ** 16
    xp[carry] += 1
    undecided |= nonfinite | (n < 10 ** 16) | (n >= 10 ** 17)

    upper = n // 10 ** 8
    lower = (n - upper * 10 ** 8).astype(np.float64)
    upper = upper.astype(np.float64)
    d0 = np.floor(upper / 1e8)
    words = np.empty((4, len(flat)), np.uint64)
    np.take(head, d0.astype(np.intp), out=words[0], mode="clip")
    tail = np.zeros(len(flat), np.uint8)
    for j, eight in enumerate((upper - d0 * 1e8, lower)):
        high = np.floor(eight / 1e4)
        hi4 = high.astype(np.intp)
        lo4 = (eight - high * 1e4).astype(np.intp)
        np.bitwise_or(np.take(four, hi4), np.take(four, lo4) << np.uint64(32), out=words[1 + j])
        np.maximum(tail, np.take(reach[2 * j], hi4), out=tail)
        np.maximum(tail, np.take(reach[2 * j + 1], lo4), out=tail)
    row = np.where(zero, _ZERO_ROW, xp - _X_MIN)
    np.take(expo, row, out=words[3], mode="clip")
    inner = np.flatnonzero((xp >= 1) & (xp <= 15))
    if inner.size:
        lo, hi, spill = _insert_point(words[1, inner], words[2, inner], xp[inner])
        words[1, inner], words[2, inner] = lo, hi
        words[3, inner] |= spill
    cls = np.take(form_row, row) + tail + np.signbit(flat) * (_N_FORMS * 17)

    slots = np.take(masks, cls, axis=0)
    np.bitwise_and(words.T, slots, out=slots)
    out[...] = slots.reshape(out.shape)
    slow = np.flatnonzero(undecided)
    if slow.size:
        out[np.unravel_index(slow, x.shape)] = _printed(flat[slow])


def _printed(values: np.ndarray) -> np.ndarray:
    """The fallback: the slots of the values the kernel cannot decide,
    each printed by '%.17g' itself."""
    text = b"".join(("%.17g" % v).encode().ljust(_SLOT - 1, b"\0") + b","
                    for v in values.tolist())
    return np.frombuffer(text, np.uint64).reshape(-1, 4)


def write_csv(path: str, header: str, axes, values) -> None:
    """Write `header`, then one row per node of the product of the 1-D
    `axes` (C order, the last axis fastest): its axis values, then (re, im)
    of each column of the complex `values`, shape (n_rows, n_columns)."""
    labels = []
    for axis in axes:
        points = np.asarray(axis, dtype=np.float64).ravel().tolist()
        text = [("%.17g," % v).encode() for v in points]
        width = max(map(len, text), default=0)
        labels.append(np.frombuffer(b"".join(s.ljust(width, b"\0") for s in text),
                                    np.uint8).reshape(len(text), width))
    shape = tuple(len(label) for label in labels)
    edges = np.cumsum([0] + [label.shape[1] for label in labels]).tolist()
    start = -(-edges[-1] // 8) * 8        # value slots are word aligned
    width = start + 2 * _SLOT * values.shape[1]
    raw = None
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for lo in range(0, len(values), _CSV_CHUNK_ROWS):
            chunk = np.ascontiguousarray(
                values[lo : lo + _CSV_CHUNK_ROWS], dtype=np.complex128).view(np.float64)
            if raw is None or len(raw) != len(chunk) * width:
                # zeroed once: each chunk rewrites every byte but the gap
                # before `start`
                raw = bytearray(len(chunk) * width)
                buf = np.frombuffer(raw, np.uint8).reshape(len(chunk), width)
            nodes = np.unravel_index(np.arange(lo, lo + len(chunk)), shape)
            for label, i, j, k in zip(labels, nodes, edges, edges[1:]):
                buf[:, j:k] = np.take(label, i, axis=0)
            _records(chunk, buf[:, start:].view(np.uint64).reshape(chunk.shape + (4,)))
            buf[:, -1] = ord("\n")
            fh.write(raw.translate(None, b"\0"))
