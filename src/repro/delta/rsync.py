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

The scan is vectorized and demand-driven: weak checksums are computed with
prefix sums (bit-identical to rolling) one fixed-size segment of offsets at
a time, only for segments the greedy walk actually stands in, and the walk
visits only the candidate offsets of that segment. With both versions local
a confirmed match is extended by comparing the files directly, so a run of
unchanged blocks costs a few ``memcmp`` calls and no scan. Metering is
unaffected — we charge for the logical per-byte work.
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


# Offsets whose weak checksums one scan step computes: 16 K offsets keep the
# prefix sums and their ~8 temporaries (4 B each) L2-resident, and bound the
# scanning wasted past a dirty region to a few blocks' worth.
_SCAN_SEGMENT = 16 * 1024

# Longest single compare of the run gallop, in bytes. Slices up to 64 KB come
# from the allocator's free lists; larger ones are mmap'd and page-faulted on
# every compare.
_GALLOP_MAX_BYTES = 64 * 1024


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
        blocks: the per-block checksums of the full blocks, in file order
            (``blocks[i]`` signs ``base[i * block_size : (i + 1) * block_size]``).
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


class _CandidateScan:
    """Demand-driven candidate source for the greedy walk.

    ``scan(lo, hi)`` returns the offsets in ``[lo, hi)`` of ``target`` whose
    window's weak checksum appears in the signature, and the weak values
    there, as plain lists (they index ~5x faster than numpy scalars in the
    greedy loop and give it ``bisect``). Nothing is computed until the walk
    asks, so offsets a match run covered are never scanned.
    """

    def __init__(
        self,
        target: memoryview,
        block_size: int,
        weak_index: Dict[int, List[FixedChunk]],
    ):
        self._target = target
        self._block_size = block_size
        self._known = np.sort(
            np.fromiter(weak_index.keys(), dtype=np.uint32, count=len(weak_index))
        )
        # Two-stage membership test. A boolean table over the checksum's low
        # 16 bits (the ``a`` sum) rejects ~all non-candidates with one gather —
        # full binary search of every offset against the key set costs more
        # than the rest of the scan combined. Survivors (a per-mille of
        # offsets for typical signatures) get the exact searchsorted check.
        self._table = np.zeros(1 << 16, dtype=bool)
        self._table[(self._known & np.uint32(0xFFFF)).astype(np.intp)] = True

    def scan(self, lo: int, hi: int) -> Tuple[List[int], List[int]]:
        known = self._known
        weaks = all_offset_weak_checksums(
            self._target[lo : hi + self._block_size - 1], self._block_size
        )
        maybe = np.flatnonzero(
            self._table[(weaks & np.uint32(0xFFFF)).astype(np.intp)]
        )
        survivors = weaks[maybe]
        idx = np.searchsorted(known, survivors)
        idx[idx == len(known)] = 0
        exact = known[idx] == survivors
        return (maybe[exact] + lo).tolist(), survivors[exact].tolist()


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

    The ops and every meter charge are those of the byte-at-a-time greedy
    walk (:func:`repro.chunking._reference.compute_delta_ref`); only the
    work done to find them follows the changed bytes. Weak checksums are
    scanned one segment of ``_SCAN_SEGMENT`` offsets at a time, and only
    when the walk stands in a segment; with ``base`` given, a COPY of base
    block *j* is followed by comparing the target against base blocks
    *j+1, j+2, …* directly. A window equal to base block *i* has block
    *i*'s weak checksum — already in the signature — hence the same peer
    list, the same first matching peer and the same compares charged as
    the walk would reach by scanning, so no offset inside such a run is
    scanned at all.
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

    # The rolling scan touches every byte of the new file once.
    meter.charge_bytes("rolling_checksum", n)
    blocks = signature.blocks
    weak_index = signature.weak_index()
    tview = memoryview(target)
    gallop_cap = max(1, _GALLOP_MAX_BYTES // block_size)

    def first_match(peers: List[FixedChunk], pos: int) -> FixedChunk | None:
        """The first peer equal to the window at ``pos``; charges each visit."""
        if base is not None:
            # bytes slices: a 4 KB memcpy + memcmp beats a memoryview
            # compare, which walks item by item.
            window = target[pos : pos + block_size]
            for block in peers:
                meter.charge_bytes("bitwise_compare", block_size)
                if base[block.offset : block.offset + block_size] == window:
                    return block
        else:
            view = tview[pos : pos + block_size]
            for block in peers:
                if block.strong == strong_checksum(view, meter):
                    return block
        return None

    def extend_run(pos: int, j: int) -> int:
        """Follow base blocks ``j, j+1, …`` while ``target`` at ``pos`` equals
        them, emitting the COPY the walk would emit for each; returns the
        position after the run.

        Compares gallop in doubling strides of whole blocks; a stride that
        differs is halved until the run's last block is found.
        """
        stride, growing = 1, True
        while stride:
            count = min(stride, (n - pos) // block_size, len(blocks) - j)
            if count <= 0:
                break
            start = j * block_size
            end = start + count * block_size
            if target[pos : pos + end - start] == base[start:end]:
                unsent = start  # base offset the next COPY of this stride starts at
                for block in blocks[j : j + count]:
                    peers = weak_index[block.weak]
                    if len(peers) == 1:
                        # The window equals this block and no other block
                        # shares its weak value: one compare, this block.
                        meter.charge_bytes("bitwise_compare", block_size)
                    elif (named := first_match(peers, pos)) is not block:
                        # An identical block sits earlier in the base; the
                        # walk names that one.
                        if block.offset > unsent:
                            delta.append(Copy(unsent, block.offset - unsent))
                        delta.append(Copy(named.offset, block_size))
                        unsent = block.offset + block_size
                    pos += block_size
                if end > unsent:
                    delta.append(Copy(unsent, end - unsent))
                j += count
            else:
                growing = False
            stride = min(2 * count, gallop_cap) if growing else count // 2
        return pos

    scan = _CandidateScan(tview, block_size, weak_index).scan
    # Last offset a whole window fits at; an empty signature matches nothing.
    last = n - block_size if weak_index else -1
    literal_start = 0
    pos = 0
    while pos <= last:
        segment_end = min((pos // _SCAN_SEGMENT + 1) * _SCAN_SEGMENT, last + 1)
        candidates, cand_weaks = scan(pos, segment_end)
        num_candidates = len(candidates)
        ci = 0
        while ci < num_candidates and pos < segment_end:
            if candidates[ci] < pos:
                # A COPY or a run consumed candidate offsets; binary-search
                # to the next candidate at or after pos instead of stepping
                # over them one loop iteration at a time.
                ci = bisect_left(candidates, pos, ci + 1)
                continue
            pos = candidates[ci]
            matched_block = first_match(weak_index[cand_weaks[ci]], pos)
            if matched_block is None:
                ci += 1
                pos += 1
                continue
            if pos > literal_start:
                delta.append(Literal(target[literal_start:pos]))
            delta.append(Copy(matched_block.offset, block_size))
            pos += block_size
            if base is not None:
                pos = extend_run(pos, matched_block.index + 1)
            literal_start = pos
        # No candidate is left before the segment's end, or a run went past it.
        pos = max(pos, segment_end)

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
