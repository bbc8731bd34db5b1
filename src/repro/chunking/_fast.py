"""Vectorized (numpy) implementations of the per-byte checksum kernels.

The algorithms are byte-at-a-time in the paper's C prototype; in Python we
vectorize them so the benchmark harness can replay multi-megabyte traces.
The results are bit-identical to the pure-Python reference implementations
(property-tested in ``tests/chunking``, golden-tested against committed
fixtures in ``tests/delta``), and cost metering is unaffected — callers
charge for the logical bytes processed either way.

Two facts make these kernels fast (see docs/performance.md):

- the weak checksum's modulus is ``2^16``, so every ``% _MOD`` is a bitwise
  AND — numpy's integer modulo is division-based and an order of magnitude
  slower than ``&``;
- for the standard 4 KB block, every intermediate sum provably fits in
  ``uint32`` (max weighted block sum: ``255 * 4096 * 4097 / 2 < 2^31``), so
  the block kernels run in uint32 and touch half the memory of the uint64
  formulation. Larger blocks fall back to uint64 with per-term reduction.
"""

from __future__ import annotations

import numpy as np

_MOD = 1 << 16
_MASK = np.uint32(_MOD - 1)
_MASK64 = np.uint64(_MOD - 1)

# Largest block size whose weighted sum fits uint32 without per-term
# reduction: 255 * b * (b + 1) / 2 < 2^32  holds for b <= 5792.
_U32_SAFE_BLOCK = 4096

# Rows of the block sweep reduced per batch: the uint32 copy of 128 KB and
# its weighted product fit L2, and the per-batch numpy call overhead is
# still amortised over 32 standard blocks.
_SWEEP_BATCH_BYTES = 128 * 1024


def _as_u32(data) -> np.ndarray:
    return np.frombuffer(data, dtype=np.uint8).astype(np.uint32)


def weak_checksum_np(data: bytes) -> int:
    """Weak checksum of a whole buffer (same value as ``weak_checksum``)."""
    if not data:
        return 0
    d = _as_u32(data)
    n = len(d)
    a = int(d.sum(dtype=np.uint64)) & 0xFFFF
    # b = sum (n - i) * d[i]; reduce each term mod 2^16 so the uint64
    # running sum cannot overflow for any buffer numpy can hold.
    weights = np.arange(n, 0, -1, dtype=np.uint32) & _MASK
    b = int((weights * d & _MASK).sum(dtype=np.uint64)) & 0xFFFF
    return (b << 16) | a


def _block_sums(rows: np.ndarray, block_size: int) -> np.ndarray:
    """Weak checksums of ``rows`` (a ``(k, block_size)`` uint8 array)."""
    if block_size <= _U32_SAFE_BLOCK:
        body = rows.astype(np.uint32)
        a = body.sum(axis=1, dtype=np.uint32) & _MASK
        body *= np.arange(block_size, 0, -1, dtype=np.uint32)
        b = body.sum(axis=1, dtype=np.uint32) & _MASK
    else:
        body64 = rows.astype(np.uint64)
        a = body64.sum(axis=1) & _MASK64
        body64 *= np.arange(block_size, 0, -1, dtype=np.uint64)
        body64 &= _MASK64
        b = body64.sum(axis=1) & _MASK64
    return (b.astype(np.uint64) << np.uint64(16)) | a.astype(np.uint64)


def block_weak_checksums_array(data: bytes, block_size: int) -> np.ndarray:
    """Weak checksum of each fixed-size block of ``data`` as a uint64 array.

    One vectorized pass over the whole buffer — callers sweeping many
    blocks (signature side, checksum-store span updates and verifies)
    should use this instead of checksumming block-by-block: the per-call
    ``frombuffer``/``astype`` setup dominates for 4 KB blocks. The pass
    runs in row batches of ``_SWEEP_BATCH_BYTES`` so the widened copy and
    its weighted product stay cache-resident instead of being materialised
    at 4x (or 8x) the size of the whole buffer; a buffer of at most one
    batch is a single batch.
    """
    if not data:
        return np.empty(0, dtype=np.uint64)
    n = len(data)
    full = n // block_size
    parts = []
    if full:
        body = np.frombuffer(data, dtype=np.uint8, count=full * block_size)
        body = body.reshape(full, block_size)
        step = max(1, _SWEEP_BATCH_BYTES // block_size)
        for row in range(0, full, step):
            parts.append(_block_sums(body[row : row + step], block_size))
    tail = data[full * block_size :]
    if tail:
        parts.append(np.array([weak_checksum_np(tail)], dtype=np.uint64))
    if len(parts) == 1:
        return parts[0]
    return np.concatenate(parts)


def block_weak_checksums(data: bytes, block_size: int) -> list[int]:
    """Weak checksum of each fixed-size block of ``data``."""
    return block_weak_checksums_array(data, block_size).tolist()


def all_offset_weak_checksums(data: bytes | memoryview, window: int) -> np.ndarray:
    """Weak checksum of every length-``window`` substring of ``data``.

    Returns an array ``w`` with ``w[o]`` the checksum of
    ``data[o:o+window]`` for ``o`` in ``[0, len(data) - window]``.
    Uses two prefix-sum passes:

    - ``a(o) = S[o+window] - S[o]`` with ``S`` the prefix sum of bytes;
    - ``b(o) = (window + o) * a(o) - (T[o+window] - T[o])`` with ``T`` the
      prefix sum of ``i * data[i]``.

    Every sum runs in *wrapping* uint32: because 2^16 divides 2^32, values
    congruent mod 2^32 stay congruent mod 2^16, so prefix-sum overflow on
    large buffers is harmless — the final ``& 0xFFFF`` recovers the exact
    per-byte result. Running the cumulative passes in uint32 instead of
    uint64 halves their memory traffic, and they are the serial (non-SIMD)
    part of this kernel that dominates its runtime.
    """
    n = len(data)
    if window <= 0:
        raise ValueError("window must be positive")
    if n < window:
        return np.empty(0, dtype=np.uint32)
    d = np.frombuffer(data, dtype=np.uint8)

    # cumsum upcasts uint8 on the fly — no 4-bytes-per-byte copy of data.
    prefix = np.empty(n + 1, dtype=np.uint32)
    prefix[0] = 0
    np.cumsum(d, dtype=np.uint32, out=prefix[1:])
    a = prefix[window:] - prefix[:-window]  # wraps mod 2^32; masked below
    a &= _MASK

    idx = np.arange(n, dtype=np.uint32)
    idx &= _MASK
    # masked index (< 2^16) times a byte (< 2^8) stays far below 2^32.
    weighted = idx * d
    tprefix = np.empty(n + 1, dtype=np.uint32)
    tprefix[0] = 0
    np.cumsum(weighted, dtype=np.uint32, out=tprefix[1:])
    tspan = tprefix[window:] - tprefix[:-window]  # wraps mod 2^32

    offsets = idx[: n - window + 1]
    # The product and subtraction wrap mod 2^32 too; same congruence.
    b = (np.uint32(window) + offsets & _MASK) * a
    b -= tspan
    b &= _MASK
    return (b << np.uint32(16)) | a
