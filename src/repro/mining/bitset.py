"""Packed-bitset primitives for the closed-pattern mining engine.

A *tidlist* (transaction-id list) is the set of training rows a predicate —
or a conjunction of predicates — covers.  The miner stores every tidlist as
a packed ``np.uint8`` row of ``ceil(n / 8)`` bytes instead of an ``(n,)``
boolean array, so the working set of a depth-``d`` search path is
``O(d · n/8)`` bytes rather than ``O(level_width · n)``.

Cost model
----------
* ``intersect`` — one vectorized ``bitwise_and`` over ``n/8`` bytes; the
  per-node cost of descending one edge of the pattern lattice.
* ``popcount`` — one table lookup plus a reduction over ``n/8`` bytes (or a
  native ``np.bitwise_count`` where NumPy provides it); the per-node support
  check.
* ``covers_all`` — one broadcast AND + popcount over a ``(k, n/8)`` tidlist
  matrix; the per-node closure computation of the LCM-style miner.

All helpers preserve the invariant that the padding bits of the final byte
are zero: ``pack_rows`` inherits it from ``np.packbits`` (which zero-pads),
and intersections of zero-padded rows stay zero-padded, so popcounts and
byte-wise equality are exact without masking.

Density-adaptive representation
-------------------------------
Deep mining nodes are *sparse*: a depth-3 extent at τ = 1% covers at most
a few percent of the table, yet a packed AND still touches all ``n/8``
bytes.  A second representation lives beside the packed one — a sorted
array of row indices (``int32`` when the index fits, ``int64`` past
2³¹ − 1 rows) — chosen per tidlist by :func:`sparse_eligible`: index form
wins once ``count · 32 ≤ num_rows`` (one 4-byte ``int32`` index per row
versus one bit per table row, with a 4× hysteresis margin so borderline
tidlists stay packed and dense-path popcounts stay vectorized).
``intersect`` / ``popcount`` / ``covers_all`` dispatch on the
representation (``uint8`` dtype ⇒ packed, integer dtype ⇒ sparse):

* sparse × sparse — galloping intersection: binary-search the smaller
  list into the larger, ``O(|small| · log |large|)``.
* sparse × packed — gather the ``|small|`` addressed bits out of the
  packed row (:func:`bit_test`), never expanding the dense side.
* packed × packed — the original vectorized byte AND.

Counts and index sums are pinned to 64-bit accumulators throughout so a
``n > 2³¹``-row table cannot overflow a support counter (the packed
reduction in :func:`popcount` already sums with ``dtype=np.int64``).

Column-block fold
-----------------
Packed rows are also the form subsets reach the influence estimators in,
and every product of a mask batch with per-row values runs through
:func:`column_blocks`: the rows are walked in blocks of training rows,
each block's bits unpacked and cast into one reused float64 buffer of at
most ``_FOLD_BUFFER_BYTES`` before the product that reads it.  At 1 MiB
the buffer stays in L2, so neither the cast nor the product goes out to
DRAM, and the transient is bounded by the buffer, not by the ``(m, n)``
boolean or float matrix a whole-batch unpack would hold.
"""

from __future__ import annotations

import numpy as np

#: A tidlist flips to the sorted-index representation when
#: ``count * SPARSE_DENSITY <= num_rows`` — i.e. below 1/32 ≈ 3.1% density.
#: At the flip point the index form costs ``4 · n/32 = n/8`` bytes
#: (``int32``), exactly the packed row it replaces; every halving of the
#: density halves it again, while the packed row would stay flat.
SPARSE_DENSITY = 32

_INT32_MAX = np.iinfo(np.int32).max

# np.bitwise_count arrived in NumPy 2.0; the lookup table keeps the miner
# working (at byte-LUT speed) on the 1.x line the CI matrix still includes.
_HAVE_BITWISE_COUNT = hasattr(np, "bitwise_count")
# uint8 entries so the per-byte count matrix is 1 byte per packed byte on
# both branches (the row sums below widen to int64 without a full copy).
_POPCOUNT_LUT = np.array([bin(v).count("1") for v in range(256)], dtype=np.uint8)

# Bytes of the one float64 buffer a column-block fold casts mask bits into.
_FOLD_BUFFER_BYTES = 1 << 20


def packed_width(num_rows: int) -> int:
    """Bytes per packed tidlist covering ``num_rows`` rows."""
    if num_rows < 0:
        raise ValueError(f"num_rows must be non-negative, got {num_rows}")
    return (num_rows + 7) // 8


def pack_rows(masks: np.ndarray) -> np.ndarray:
    """Pack boolean masks into uint8 rows (one packed row per mask).

    Accepts an ``(n,)`` mask or an ``(m, n)`` mask matrix; returns
    ``(ceil(n/8),)`` or ``(m, ceil(n/8))`` uint8 with zero padding bits.
    """
    masks = np.asarray(masks)
    if masks.dtype != bool:
        raise ValueError(f"masks must be boolean, got dtype {masks.dtype}")
    if masks.ndim == 1:
        return np.packbits(masks)
    if masks.ndim == 2:
        return np.packbits(masks, axis=1)
    raise ValueError(f"masks must be 1-D or 2-D, got shape {masks.shape}")


def unpack_rows(packed: np.ndarray, num_rows: int) -> np.ndarray:
    """Unpack uint8 rows back to boolean masks of length ``num_rows``."""
    packed = np.asarray(packed)
    if packed.dtype != np.uint8:
        raise ValueError(f"packed tidlists must be uint8, got dtype {packed.dtype}")
    width = packed_width(num_rows)
    if packed.shape[-1] != width:
        raise ValueError(
            f"packed width {packed.shape[-1]} does not cover {num_rows} rows "
            f"(expected {width} bytes)"
        )
    if packed.ndim == 1:
        # unpackbits returns a fresh 0/1 buffer, so the bool view is free.
        return np.unpackbits(packed, count=num_rows).view(np.bool_)
    if packed.ndim == 2:
        return np.unpackbits(packed, axis=1, count=num_rows).view(np.bool_)
    raise ValueError(f"packed tidlists must be 1-D or 2-D, got shape {packed.shape}")


def is_sparse(tid: np.ndarray) -> bool:
    """True when ``tid`` is a sorted-index tidlist (integer dtype), False for
    a packed ``uint8`` row."""
    return np.asarray(tid).dtype != np.uint8


def sparse_index_dtype(num_rows: int):
    """Index dtype for sparse tidlists over ``num_rows`` rows: ``int32``
    while the last row id fits, ``int64`` past 2³¹ − 1 rows."""
    return np.int32 if num_rows <= _INT32_MAX else np.int64


def sparse_eligible(count: int, num_rows: int) -> bool:
    """Density rule: index representation once ``count·32 ≤ num_rows``."""
    return count * SPARSE_DENSITY <= num_rows


def to_sparse(tid: np.ndarray, num_rows: int) -> np.ndarray:
    """Sorted-index form of a tidlist (no-op for an already-sparse one)."""
    tid = np.asarray(tid)
    if is_sparse(tid):
        return tid
    return np.flatnonzero(unpack_rows(tid, num_rows)).astype(
        sparse_index_dtype(num_rows), copy=False
    )


def to_packed(tid: np.ndarray, num_rows: int) -> np.ndarray:
    """Packed ``uint8`` form of a tidlist (no-op for an already-packed one)."""
    tid = np.asarray(tid)
    if not is_sparse(tid):
        return tid
    mask = np.zeros(num_rows, dtype=bool)
    mask[tid] = True
    return pack_rows(mask)


def bit_test(packed: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Gather bits ``indices`` out of a packed row (big-endian bit order):
    row ``r`` lives in byte ``r >> 3`` at bit ``7 - (r & 7)``."""
    indices = np.asarray(indices)
    bits = packed[indices >> 3] >> (7 - (indices & 7)).astype(np.uint8)
    return (bits & 1).astype(bool)


def galloping_intersect(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersection of two sorted index arrays via binary search of the
    smaller into the larger — ``O(|small| · log |large|)``, the win over a
    linear merge when the lists are very unequal (a deep extent against a
    level-1 item)."""
    if a.size > b.size:
        a, b = b, a
    if a.size == 0:
        return a
    pos = np.searchsorted(b, a)
    pos[pos == b.size] = b.size - 1
    return a[b[pos] == a]


def intersect(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersection of two tidlists, dispatching on representation.

    packed × packed returns packed (one vectorized ``bitwise_and``,
    broadcasting like the ufunc); any sparse operand returns sparse —
    galloping for sparse × sparse, a :func:`bit_test` gather for
    sparse × packed.  The result of a mixed intersection is at most as
    large as the sparse side, so staying sparse never loses eligibility.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    a_sparse = is_sparse(a)
    b_sparse = is_sparse(b)
    if not a_sparse and not b_sparse:
        return np.bitwise_and(a, b)
    if a_sparse and b_sparse:
        return galloping_intersect(a, b)
    if a_sparse:
        return a[bit_test(b, a)]
    return b[bit_test(a, b)]


def popcount(packed: np.ndarray) -> np.ndarray | int:
    """Number of set bits per packed row (scalar for a single row).

    For a ``(w,)`` row (or a 0-d single byte) returns an int; for an
    ``(m, w)`` matrix returns an ``(m,)`` int64 array — including the
    degenerate ``(m, 0)`` width, which counts as zero bits per row.  The
    native ``np.bitwise_count`` path and the byte-LUT fallback agree on
    dtype and shape for every input; the CI matrix runs both.  A sparse
    (sorted-index) tidlist dispatches to its length.
    """
    arr = np.asarray(packed)
    if arr.ndim == 1 and arr.dtype.kind in "iu" and arr.dtype != np.uint8:
        return int(arr.size)
    packed = np.asarray(packed, dtype=np.uint8)
    if _HAVE_BITWISE_COUNT:
        counts = np.bitwise_count(packed)
    else:
        counts = _POPCOUNT_LUT[packed]
    if packed.ndim == 0:
        return int(counts)
    # Summing the uint8 byte counts straight into int64 keeps the transient
    # at 1 byte per packed byte; an astype here would hold an 8× copy of
    # the whole batch while the guard popcount of a flush group runs.
    summed = counts.sum(axis=-1, dtype=np.int64)
    return int(summed) if packed.ndim == 1 else summed


def covers_all(tidlists: np.ndarray, extent: np.ndarray) -> np.ndarray:
    """For each packed tidlist, does it cover every row of ``extent``?

    ``tidlists`` is a ``(k, w)`` packed matrix; ``extent`` is a ``(w,)``
    packed row or a sparse index tidlist.  Returns a ``(k,)`` boolean array
    with ``out[i]`` true iff ``tidlists[i] ⊇ extent`` — the closure
    membership test, one broadcast AND over the whole alphabet per lattice
    node.  A sparse extent gathers only its ``(k, count)`` addressed bits
    instead of touching all ``k · n/8`` bytes.
    """
    extent = np.asarray(extent)
    if is_sparse(extent):
        if extent.size == 0:
            return np.ones(tidlists.shape[0], dtype=bool)
        bits = (tidlists[:, extent >> 3] >> (7 - (extent & 7)).astype(np.uint8)) & 1
        return bits.all(axis=1)
    return ~np.any((tidlists & extent[None, :]) != extent[None, :], axis=1)


def extent_key(packed: np.ndarray) -> bytes:
    """Hashable identity of a packed extent (padding bits are zero, so equal
    row sets always map to equal keys)."""
    return np.ascontiguousarray(packed).tobytes()


def column_blocks(packed: np.ndarray, num_rows: int):
    """Yield ``(start, stop, block)`` over L2-sized column blocks of packed rows.

    ``block`` holds the 0/1 bits of rows ``start..stop`` of every packed
    row as an ``(m, stop − start)`` float64 view of one reused buffer of at
    most ``_FOLD_BUFFER_BYTES``; the next block overwrites it.  Blocks span
    a multiple of 8 rows, so each starts on a byte boundary.
    """
    m = packed.shape[0]
    if m == 0:
        return
    step = 8 * max(1, _FOLD_BUFFER_BYTES // (64 * m))
    buffer = np.empty((m, min(step, num_rows)))
    for start in range(0, num_rows, step):
        stop = min(start + step, num_rows)
        block = buffer[:, : stop - start]
        bits = packed[:, start // 8 : (stop + 7) // 8]
        np.copyto(block, np.unpackbits(bits, axis=1, count=stop - start))
        yield start, stop, block


def fold_rows(packed: np.ndarray, num_rows: int, values: np.ndarray) -> np.ndarray:
    """``M @ values`` for the packed row masks M, one column block at a time.

    ``values`` holds one entry (or one row) per table row; the result has
    one entry (or row) per mask.
    """
    out = np.zeros((packed.shape[0],) + values.shape[1:])
    for start, stop, block in column_blocks(packed, num_rows):
        out += block @ values[start:stop]
    return out
