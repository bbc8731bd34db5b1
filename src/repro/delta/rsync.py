"""The rsync delta algorithm (Tridgell 1996).

Pipeline:

1. **Signature** — the holder of the *old* file splits it into fixed-size
   blocks and computes a (weak rolling, strong MD5) checksum pair per block.
   The signature keeps them as two lists; a block is its index *i*, at base
   offset ``i * block_size``.
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
prefix sums (bit-identical to rolling) one window of offsets at a time,
starting where the greedy walk stands, and the walk visits only the
candidate offsets of that window. A window opens ``block_size + 1`` offsets
wide — far enough to reach the next block boundary, where an in-place edit
resynchronises — and doubles, up to ``_SCAN_SEGMENT``, while it finds no
match. With both versions local a confirmed match is extended by comparing
the files directly, so a run of unchanged blocks costs a few ``memcmp``
calls, one meter call and no scan. Metering is unaffected — we charge for
the logical per-byte work.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.chunking._fast import all_offset_weak_checksums, block_weak_checksums_array
from repro.chunking.strong import strong_checksum, strong_checksums
from repro.common import wire
from repro.cost.meter import CostMeter, NULL_METER
from repro.delta.format import Copy, Delta, Literal


# Most offsets whose weak checksums one scan step computes: 16 K offsets keep
# the prefix sums and their ~8 temporaries (4 B each) L2-resident, and bound
# the scanning wasted past a dirty region to a few blocks' worth.
_SCAN_SEGMENT = 16 * 1024

# Whole blocks the first window spans past the offset it opens at — at
# offset 0 and wherever a match run ends. One block (``block_size + 1``
# offsets) reaches the next block boundary, the nearest offset where an
# in-place edit can resynchronise. A window that finds no match doubles, up
# to ``_SCAN_SEGMENT`` offsets; a match sends the next one back to this size.
_FIRST_WINDOW_BLOCKS = 1

# Longest single compare of the run gallop, in bytes. A stride that differs
# is compared again in halves, so this bounds the bytes re-read where a run
# ends; 256 KB strides measured no faster on word_save's saves.
_GALLOP_MAX_BYTES = 64 * 1024


_WEAK = wire.Schema("weak checksum", wire.u32be("weak"), scalar=True)
_STRONG = wire.Schema("strong checksum", wire.opaque(16, "MD5 digest"), scalar=True)


@wire.record(
    wire.u32be("block_size"),
    wire.u64be("base_size"),
    wire.items("weaks", _WEAK, wire.u32be),
    wire.when_set("strongs", wire.items("strongs", _STRONG), 0),
)
@dataclass
class Signature:
    """Block signature of a base file.

    Only full blocks are signed: block *i* is
    ``base[i * block_size : (i + 1) * block_size]``.

    Attributes:
        block_size: block size used.
        base_size: size of the base file.
        weaks: ``weaks[i]`` is block *i*'s weak checksum.
        strongs: ``strongs[i]`` is block *i*'s MD5 digest (classic rsync),
            or ``None`` when strong checksums were skipped (DeltaCFS
            bitwise mode).
    """

    block_size: int
    base_size: int
    weaks: List[int]
    strongs: List[bytes] | None

    @property
    def with_strong(self) -> bool:
        """Whether strong checksums were computed."""
        return self.strongs is not None

    def weak_index(self) -> Dict[int, List[int]]:
        """Hash table mapping weak checksum -> the indices of the blocks
        with that checksum, in file order."""
        index: Dict[int, List[int]] = {}
        for i, weak in enumerate(self.weaks):
            index.setdefault(weak, []).append(i)
        return index


def compute_signature(
    base: bytes,
    block_size: int,
    *,
    with_strong: bool = True,
    meter: CostMeter = NULL_METER,
) -> Signature:
    """Compute the rsync signature of ``base``.

    The meter is charged for checksumming all of ``base``, as the signing
    side of rsync does; only full blocks are kept, since a short tail block
    would produce false matches at the wrong window size. With
    ``with_strong=False`` no MD5 is computed — DeltaCFS verifies candidate
    matches by bitwise comparison instead.
    """
    if block_size <= 0:
        raise ValueError("block_size must be positive")
    n = len(base)
    signed = n // block_size * block_size
    view = memoryview(base)
    meter.charge_bytes("rolling_checksum", n)
    weaks = block_weak_checksums_array(view[:signed], block_size).tolist()
    strongs = None
    if with_strong:
        meter.charge_bytes("strong_checksum", n)
        strongs = strong_checksums(
            view[off : off + block_size] for off in range(0, signed, block_size)
        )
    return Signature(
        block_size=block_size, base_size=n, weaks=weaks, strongs=strongs
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
        weak_index: Dict[int, List[int]],
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
    scanned one window at a time, from where the walk stands: the window
    at offset 0 and the first one after a match are ``block_size + 1``
    offsets wide (``_FIRST_WINDOW_BLOCKS``), and each window that finds no
    match doubles the next, up to ``_SCAN_SEGMENT``. With ``base`` given, a
    COPY of base block *j* is followed by comparing the target against base
    blocks *j+1, j+2, …* directly. A window equal to base block *i* has
    block *i*'s weak checksum — already in the signature — hence the same
    peer list, the same first matching peer and the same compares charged
    as the walk would reach by scanning, so no offset inside such a run is
    scanned at all. A block whose weak value no other block shares costs
    the walk exactly one compare; a stretch of them is charged in one
    :meth:`~repro.cost.meter.CostMeter.charge_repeat` call.
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
    weaks, strongs = signature.weaks, signature.strongs
    weak_index = signature.weak_index()
    # Blocks whose weak value another block shares, in file order: inside a
    # run, the only blocks whose compares the walk does not know in advance.
    shared = sorted(
        i for peers in weak_index.values() if len(peers) > 1 for i in peers
    )
    # Bitwise compares are ``base.startswith(view of target, offset)``: one
    # memcmp in place, copying neither side (``memoryview ==`` would walk
    # item by item).
    tview = memoryview(target)
    gallop_cap = max(1, _GALLOP_MAX_BYTES // block_size)

    def first_match(peers: List[int], pos: int) -> int | None:
        """The first peer equal to the window at ``pos``; charges each visit."""
        view = tview[pos : pos + block_size]
        if base is not None:
            for i in peers:
                meter.charge_bytes("bitwise_compare", block_size)
                if base.startswith(view, i * block_size):
                    return i
        else:
            for i in peers:
                if strongs[i] == strong_checksum(view, meter):
                    return i
        return None

    def extend_run(pos: int, j: int) -> int:
        """Follow base blocks ``j, j+1, …`` while ``target`` at ``pos`` equals
        them, emitting the COPY the walk would emit for each; returns the
        position after the run.

        Compares gallop in doubling strides of whole blocks; a stride that
        differs is halved until the run's last block is found.
        """
        uncharged = j  # first block of the run whose compare is not charged
        stride, growing = 1, True
        while stride:
            count = min(stride, (n - pos) // block_size, len(weaks) - j)
            if count <= 0:
                break
            start = j * block_size
            end = start + count * block_size
            if base.startswith(tview[pos : pos + end - start], start):
                unsent = start  # base offset the next COPY of this stride starts at
                lo = bisect_left(shared, j)
                for i in shared[lo : bisect_left(shared, j + count, lo)]:
                    # Blocks before i equal the window and share their weak
                    # value with no other block: one compare each.
                    meter.charge_repeat("bitwise_compare", block_size, i - uncharged)
                    uncharged = i + 1
                    at = pos + (i - j) * block_size  # where block i's window starts
                    named = first_match(weak_index[weaks[i]], at)
                    if named != i:
                        # An identical block sits earlier in the base; the
                        # walk names that one.
                        offset = i * block_size
                        if offset > unsent:
                            delta.append(Copy(unsent, offset - unsent))
                        delta.append(Copy(named * block_size, block_size))
                        unsent = offset + block_size
                if end > unsent:
                    delta.append(Copy(unsent, end - unsent))
                pos += end - start
                j += count
            else:
                growing = False
            stride = min(2 * count, gallop_cap) if growing else count // 2
        meter.charge_repeat("bitwise_compare", block_size, j - uncharged)
        return pos

    scan = _CandidateScan(tview, block_size, weak_index).scan
    # Last offset a whole window fits at; an empty signature matches nothing.
    last = n - block_size if weaks else -1
    first_window = min(_FIRST_WINDOW_BLOCKS * block_size + 1, _SCAN_SEGMENT)
    window = first_window
    literal_start = 0
    pos = 0
    while pos <= last:
        window_end = min(pos + window, last + 1)
        candidates, cand_weaks = scan(pos, window_end)
        window = min(2 * window, _SCAN_SEGMENT)
        num_candidates = len(candidates)
        ci = 0
        while ci < num_candidates and pos < window_end:
            if candidates[ci] < pos:
                # A COPY or a run consumed candidate offsets; binary-search
                # to the next candidate at or after pos instead of stepping
                # over them one loop iteration at a time.
                ci = bisect_left(candidates, pos, ci + 1)
                continue
            pos = candidates[ci]
            matched = first_match(weak_index[cand_weaks[ci]], pos)
            if matched is None:
                ci += 1
                pos += 1
                continue
            if pos > literal_start:
                delta.append(Literal(target[literal_start:pos]))
            delta.append(Copy(matched * block_size, block_size))
            pos += block_size
            if base is not None:
                pos = extend_run(pos, matched + 1)
            literal_start = pos
            window = first_window
        # No candidate is left before the window's end, or a run went past it.
        pos = max(pos, window_end)

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
