"""Vectorized (numpy) kernels of the rsync weak checksum.

The checksum (:func:`repro.chunking.rolling.weak_checksum`) is two sums of a
window's bytes reduced mod 2¹⁶: ``a``, the plain sum, and ``b``, each byte
weighted by its distance from the window's end. The paper's C prototype
computes them a byte at a time; these kernels compute the same values a
block or a window at a time, bit-identical to the per-byte references in
:mod:`repro.chunking._reference` (property-tested in ``tests/chunking``,
golden-tested against committed fixtures in ``tests/delta``). Callers
charge the meter for the logical bytes either way.

Every kernel computes in the checksum's own ring, wrapping ``uint16``:
add, subtract and multiply wrap mod 2¹⁶ there, which is exactly the
reduction the checksum asks for. No sum can overflow into a wrong answer,
so nothing is masked, no block size needs a wider type, and each pass
touches two bytes per input byte. Only the packed result, ``b << 16 | a``,
is ``uint32``.

- :func:`block_weak_checksums_array` lays the blocks out as the rows of a
  zero-padded ``uint16`` batch: ``a`` is the row sum, ``b`` the row sum
  after weighting by the descending weights. Padding a partial last block
  with zeros leaves its ``a`` alone and raises every byte's weight by the
  pad, so its ``b`` takes one scalar correction, ``b -= pad * a``.
- :func:`all_offset_weak_checksums` reads ``a`` and ``b`` at every offset
  off two prefix sums (see the function).
"""

from __future__ import annotations

import numpy as np

_MOD = 1 << 16

# Bytes of the block sweep reduced per batch: the 512 KB uint16 copy of a
# batch, weighted in place, stays cache-resident, and the per-batch numpy
# call overhead is amortised over 64 standard blocks. Of 32 KB to 2 MB
# batches, 256 KB swept a 2 MB buffer fastest (128 KB: +10 %, 2 MB: +80 %).
_SWEEP_BATCH_BYTES = 256 * 1024

# ``(2^16 - i) mod 2^16``: a block of ``B <= 2^16`` bytes weighs its bytes
# ``B, B-1, ..., 1``, which is the last ``B`` entries. Built once, so every
# block size up to 64 KB shares it and none pins an array of its own.
_DESCENDING = np.arange(_MOD, 0, -1, dtype=np.uint32).astype(np.uint16)


def _weights(block_size: int) -> np.ndarray:
    """``block_size, ..., 2, 1`` mod 2^16, as ``uint16``."""
    if block_size <= _MOD:
        return _DESCENDING[_MOD - block_size :]
    return np.arange(block_size, 0, -1).astype(np.uint16)


def block_weak_checksums_array(data: bytes, block_size: int) -> np.ndarray:
    """Weak checksum of each fixed-size block of ``data`` as a ``uint32`` array.

    The last block may be partial. One vectorized pass over the whole
    buffer — callers sweeping many blocks (signature side, checksum-store
    span updates and verifies) should use this instead of checksumming
    block by block: the per-call setup dominates for 4 KB blocks. The pass
    runs in row batches of at most ``_SWEEP_BATCH_BYTES``, one ``uint16``
    buffer reused by every batch, so the widened copy and its weighted
    product stay cache-resident instead of being materialised at twice the
    size of the whole buffer.
    """
    n = len(data)
    blocks = -(-n // block_size)
    if not blocks:
        return np.empty(0, dtype=np.uint32)
    weights = _weights(block_size)
    d = np.frombuffer(data, dtype=np.uint8)
    a = np.empty(blocks, dtype=np.uint16)
    b = np.empty(blocks, dtype=np.uint16)
    step = max(1, _SWEEP_BATCH_BYTES // block_size)
    batch = np.empty((min(step, blocks), block_size), dtype=np.uint16)
    for row in range(0, blocks, step):
        rows = batch[: min(step, blocks - row)]
        flat = rows.reshape(-1)
        chunk = d[row * block_size : row * block_size + flat.size]
        flat[: chunk.size] = chunk
        flat[chunk.size :] = 0
        rows.sum(axis=1, dtype=np.uint16, out=a[row : row + len(rows)])
        rows *= weights
        rows.sum(axis=1, dtype=np.uint16, out=b[row : row + len(rows)])
    pad = blocks * block_size - n
    if pad:
        b[-1] = (int(b[-1]) - pad * int(a[-1])) % _MOD
    out = b.astype(np.uint32)
    out <<= 16
    out |= a
    return out


def block_weak_checksums(data: bytes, block_size: int) -> list[int]:
    """Weak checksum of each fixed-size block of ``data``."""
    return block_weak_checksums_array(data, block_size).tolist()


def all_offset_weak_checksums(data: bytes | memoryview, window: int) -> np.ndarray:
    """Weak checksum of every length-``window`` substring of ``data``.

    Returns a ``uint32`` array ``w`` with ``w[o]`` the checksum of
    ``data[o:o+window]`` for ``o`` in ``[0, len(data) - window]``. With
    ``P`` the prefix sum of the bytes (``P[k] = data[0] + … + data[k-1]``)
    and ``Q`` the prefix sum of ``P[1:]`` (``Q[k] = P[1] + … + P[k]``):

    - ``a(o) = P[o+window] - P[o]``;
    - ``b(o) = Q[o+window] - Q[o] - window * P[o]``, because
      ``P[o+1] + … + P[o+window]`` counts each byte of the window once per
      prefix it ends before — its weight, ``window - i`` — and every byte
      before ``o`` ``window`` times.

    Both prefix sums and every difference run in wrapping ``uint16``, so
    no index array and no per-byte product is built.
    """
    n = len(data)
    if window <= 0:
        raise ValueError("window must be positive")
    if n < window:
        return np.empty(0, dtype=np.uint32)
    d = np.frombuffer(data, dtype=np.uint8)
    prefix = np.empty(n + 1, dtype=np.uint16)
    prefix[0] = 0
    np.cumsum(d, dtype=np.uint16, out=prefix[1:])
    twice = np.empty(n + 1, dtype=np.uint16)
    twice[0] = 0
    np.cumsum(prefix[1:], dtype=np.uint16, out=twice[1:])
    a = prefix[window:] - prefix[:-window]
    b = twice[window:] - twice[:-window]
    b -= np.uint16(window % _MOD) * prefix[:-window]
    out = b.astype(np.uint32)
    out <<= 16
    out |= a
    return out
