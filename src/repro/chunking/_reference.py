"""Pure-Python per-byte reference engines (the pre-optimization hot paths).

These are the byte-at-a-time implementations the repository shipped before
the bulk rewrites in :mod:`repro.chunking._fast`, :mod:`repro.delta.rsync`,
and :mod:`repro.core.checksum_store`. They are kept for two jobs:

1. **Correctness oracle** — the golden tests (``tests/delta/test_golden.py``)
   assert the optimized engines produce *bit-identical* signatures and
   deltas to these references (and to committed fixtures, so both
   implementations cannot drift together unnoticed).
2. **Wall-clock baseline** — the ``repro.harness.wallclock`` lane measures
   each optimized engine against its reference twin and reports the
   speedup ratio; ``BENCH_wallclock.json`` gates on those ratios (see
   docs/performance.md).

Nothing in the production pipeline imports this module — it exists only so
the performance claims stay measurable and the optimization contract stays
enforceable.
"""

from __future__ import annotations

from typing import Dict, List

from repro.chunking.strong import strong_checksum
from repro.delta.format import Copy, Delta, Literal

_MOD = 1 << 16


def weak_checksum_ref(data: bytes) -> int:
    """The 32-bit weak checksum, one byte at a time (Tridgell 1996)."""
    a = 0
    b = 0
    n = len(data)
    for i, byte in enumerate(data):
        a += byte
        b += (n - i) * byte
    a %= _MOD
    b %= _MOD
    return (b << 16) | a


def block_weak_checksums_ref(data: bytes, block_size: int) -> List[int]:
    """Per-block weak checksums via the per-byte loop."""
    out: List[int] = []
    for offset in range(0, len(data), block_size):
        out.append(weak_checksum_ref(data[offset : offset + block_size]))
    return out


def all_offset_weak_checksums_ref(data: bytes, window: int) -> List[int]:
    """Weak checksum of every window offset via O(1) per-byte rolling."""
    n = len(data)
    if window <= 0:
        raise ValueError("window must be positive")
    if n < window:
        return []
    a = 0
    b = 0
    for i in range(window):
        a += data[i]
        b += (window - i) * data[i]
    a %= _MOD
    b %= _MOD
    out = [(b << 16) | a]
    for pos in range(1, n - window + 1):
        out_byte = data[pos - 1]
        in_byte = data[pos + window - 1]
        a = (a - out_byte + in_byte) % _MOD
        b = (b - window * out_byte + a) % _MOD
        out.append((b << 16) | a)
    return out


def compute_delta_ref(
    signature,
    target: bytes,
    *,
    base: bytes | None = None,
) -> Delta:
    """The pre-optimization greedy scan: per-byte rolling, per-hit confirm.

    Semantically identical to :func:`repro.delta.rsync.compute_delta`
    (same greedy matching, same confirmation rules, no cost metering) but
    implemented as the genuine byte-at-a-time rolling-window walk.
    """
    if base is None and not signature.with_strong:
        raise ValueError(
            "remote rsync needs strong checksums in the signature; "
            "pass base= for local bitwise confirmation"
        )
    block_size = signature.block_size
    n = len(target)
    delta = Delta()
    if n == 0:
        return delta

    weak_index: Dict[int, List[int]] = signature.weak_index()
    literal_start = 0
    pos = 0
    rolling_a = rolling_b = 0
    rolling_valid = False

    while pos + block_size <= n:
        if not rolling_valid:
            rolling_a = rolling_b = 0
            for i in range(block_size):
                rolling_a += target[pos + i]
                rolling_b += (block_size - i) * target[pos + i]
            rolling_a %= _MOD
            rolling_b %= _MOD
            rolling_valid = True
        weak = (rolling_b << 16) | rolling_a

        matched_block = None
        if weak in weak_index:
            window = target[pos : pos + block_size]
            for i in weak_index[weak]:
                if base is not None:
                    start = i * block_size
                    if base[start : start + block_size] == window:
                        matched_block = i
                        break
                else:
                    if signature.strongs[i] == strong_checksum(window):
                        matched_block = i
                        break
        if matched_block is None:
            out_byte = target[pos]
            pos += 1
            if pos + block_size <= n:
                in_byte = target[pos + block_size - 1]
                rolling_a = (rolling_a - out_byte + in_byte) % _MOD
                rolling_b = (rolling_b - block_size * out_byte + rolling_a) % _MOD
            continue
        if pos > literal_start:
            delta.append(Literal(target[literal_start:pos]))
        delta.append(Copy(matched_block * block_size, block_size))
        pos += block_size
        literal_start = pos
        rolling_valid = False

    if literal_start < n:
        delta.append(Literal(target[literal_start:]))
    return delta


def checksum_sweep_ref(content: bytes, block_size: int) -> List[int]:
    """The pre-optimization whole-file sweep: one per-byte pass per block.

    This is what :meth:`repro.core.checksum_store.ChecksumStore.verify_file`
    cost before the span-bulk rewrite — the wall-clock lane's baseline for
    the ``checksum_sweep`` engine.
    """
    return block_weak_checksums_ref(content, block_size)
