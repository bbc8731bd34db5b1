"""The rsync delta algorithm (Tridgell 1996).

Pipeline:

1. **Signature** — the holder of the *old* file splits it into fixed-size
   blocks and computes a (weak rolling, strong MD5) checksum pair per block.
2. **Scan** — the holder of the *new* file slides a block-sized window over
   it, computing the weak checksum at every byte offset. When the weak
   checksum hits the signature's hash table, the strong checksum confirms
   the match; confirmed blocks become COPY instructions, everything between
   matches becomes LITERALs.

In the distributed setting the two sides exchange the signature and the
delta; the cost we meter (rolling scan of the whole new file + strong
checksum of every candidate window + signature of the old file) is exactly
why the paper calls rsync "CPU intensive".

The scan is vectorized: weak checksums for all offsets are precomputed with
prefix sums (bit-identical to rolling), then the greedy match loop only
visits candidate offsets. Metering is unaffected — we charge for the
logical per-byte work.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.chunking._fast import all_offset_weak_checksums
from repro.chunking.fixed import FixedChunk, fixed_chunks
from repro.chunking.strong import strong_checksum
from repro.common import wire
from repro.cost.meter import CostMeter, NULL_METER
from repro.delta.format import Copy, Delta, Literal


_BLOCK = wire.Schema(
    "signature block",
    wire.u32be("weak"),
    wire.when_set("strong", wire.opaque(16, "MD5 digest"), 0),
    factory=FixedChunk,
)


@wire.record(
    wire.u32be("block_size"),
    wire.u64be("base_size"),
    wire.items("blocks", _BLOCK, wire.u32be),
)
@dataclass
class Signature:
    """Block signature of a base file.

    Attributes:
        block_size: block size used.
        base_size: size of the base file.
        blocks: the per-block checksums.
        with_strong: whether strong checksums were computed (classic rsync)
            or skipped (DeltaCFS bitwise mode).
    """

    block_size: int
    base_size: int
    blocks: List[FixedChunk]
    with_strong: bool

    def weak_index(self) -> Dict[int, List[FixedChunk]]:
        """Hash table mapping weak checksum -> blocks with that checksum."""
        index: Dict[int, List[FixedChunk]] = {}
        for block in self.blocks:
            index.setdefault(block.weak, []).append(block)
        return index


def compute_signature(
    base: bytes,
    block_size: int,
    *,
    with_strong: bool = True,
    meter: CostMeter = NULL_METER,
) -> Signature:
    """Compute the rsync signature of ``base``."""
    blocks = fixed_chunks(base, block_size, with_strong=with_strong, meter=meter)
    # Only full blocks participate in matching; a short tail block would
    # produce false matches at the wrong window size.
    blocks = [b for b in blocks if b.length == block_size]
    return Signature(
        block_size=block_size,
        base_size=len(base),
        blocks=blocks,
        with_strong=with_strong,
    )


def _match_candidates(
    target: bytes, block_size: int, weak_index: Dict[int, List[FixedChunk]]
) -> Tuple[np.ndarray, np.ndarray]:
    """Offsets in ``target`` whose weak checksum appears in the signature.

    Returns ``(candidate_offsets, weak_values_at_those_offsets)``.
    """
    weaks = all_offset_weak_checksums(target, block_size)
    if weaks.size == 0 or not weak_index:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint32)
    known = np.sort(
        np.fromiter(weak_index.keys(), dtype=np.uint32, count=len(weak_index))
    )
    # Two-stage membership test. A boolean table over the checksum's low
    # 16 bits (the ``a`` sum) rejects ~all non-candidates with one gather —
    # full binary search of every offset against the key set costs more
    # than the rest of the scan combined. Survivors (a per-mille of
    # offsets for typical signatures) get the exact searchsorted check.
    table = np.zeros(1 << 16, dtype=bool)
    table[(known & np.uint32(0xFFFF)).astype(np.intp)] = True
    maybe = np.flatnonzero(table[(weaks & np.uint32(0xFFFF)).astype(np.intp)])
    if maybe.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint32)
    survivors = weaks[maybe]
    idx = np.searchsorted(known, survivors)
    idx[idx == len(known)] = 0
    exact = known[idx] == survivors
    offsets = maybe[exact]
    return offsets.astype(np.int64), weaks[offsets]


def compute_delta(
    signature: Signature,
    target: bytes,
    *,
    base: bytes | None = None,
    meter: CostMeter = NULL_METER,
) -> Delta:
    """Compute the delta that transforms the signed base into ``target``.

    With ``base=None`` this is classic rsync: candidate matches are
    confirmed by MD5 (requires ``signature.with_strong``). With ``base``
    provided (both files local — the DeltaCFS case) candidates are confirmed
    by direct byte comparison, charged at the much cheaper
    ``bitwise_compare`` rate.
    """
    block_size = signature.block_size
    n = len(target)
    delta = Delta()
    if n == 0:
        return delta

    if base is None and not signature.with_strong:
        raise ValueError(
            "remote rsync needs strong checksums in the signature; "
            "pass base= for local bitwise confirmation"
        )

    # The rolling scan touches every byte of the new file once.
    meter.charge_bytes("rolling_checksum", n)
    weak_index = signature.weak_index()
    cand_arr, weak_arr = _match_candidates(target, block_size, weak_index)
    # Plain Python lists index ~5x faster than numpy scalars in the greedy
    # loop below, and give us bisect for the post-COPY skip.
    candidates = cand_arr.tolist()
    cand_weaks = weak_arr.tolist()

    # memoryview windows: candidate confirmation compares bytes in place —
    # no per-candidate block_size-sized copies of target or base.
    tview = memoryview(target)
    bview = memoryview(base) if base is not None else None

    literal_start = 0
    ci = 0
    num_candidates = len(candidates)
    pos = 0
    while ci < num_candidates:
        if candidates[ci] < pos:
            # A COPY consumed up to block_size candidate offsets; binary-
            # search to the next candidate at or after pos instead of
            # stepping over them one loop iteration at a time.
            ci = bisect_left(candidates, pos, ci + 1)
            continue
        pos = candidates[ci]
        window = tview[pos : pos + block_size]
        matched_block = None
        for block in weak_index.get(cand_weaks[ci], ()):
            if bview is not None:
                meter.charge_bytes("bitwise_compare", block_size)
                if bview[block.offset : block.offset + block_size] == window:
                    matched_block = block
                    break
            else:
                digest = strong_checksum(window, meter)
                if block.strong == digest:
                    matched_block = block
                    break
        if matched_block is None:
            ci += 1
            pos += 1
            continue
        if pos > literal_start:
            delta.append(Literal(target[literal_start:pos]))
        delta.append(Copy(matched_block.offset, block_size))
        pos += block_size
        literal_start = pos

    if literal_start < n:
        delta.append(Literal(target[literal_start:]))
    return delta


def rsync_delta(
    base: bytes,
    target: bytes,
    block_size: int,
    *,
    meter: CostMeter = NULL_METER,
    remote: bool = True,
) -> Delta:
    """One-call rsync: signature of ``base`` then delta to ``target``.

    ``remote=True`` models the distributed protocol (strong checksums
    everywhere); ``remote=False`` is the DeltaCFS local path (no strong
    checksums, bitwise confirmation).
    """
    signature = compute_signature(
        base, block_size, with_strong=remote, meter=meter
    )
    return compute_delta(
        signature, target, base=None if remote else base, meter=meter
    )
