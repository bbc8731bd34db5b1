"""The bitwise encode scans offsets near the change, not across the file.

A save that changes one block leaves one dirty spot for the scan: the walk
matches at offset 0, follows the run to the dirty block, and must find the
next block boundary, ``block_size`` offsets on. The weak checksums the scan
computes are counted at the one kernel it calls; the count may not exceed
three blocks' worth and may not grow with the file.
"""

from unittest import mock

import pytest

from repro.common.config import DeltaCFSConfig
from repro.common.rng import DeterministicRandom
from repro.delta import rsync
from repro.delta.patch import apply_delta
from repro.delta.rsync import compute_delta, compute_signature

BLOCK = DeltaCFSConfig().block_size
EDIT = 1536


def _scanned_offsets(size: int) -> int:
    base = DeterministicRandom(size).random_bytes(size)
    target = bytearray(base)
    # one in-place edit inside the middle block, clear of its boundaries
    at = size // BLOCK // 2 * BLOCK + 1024
    target[at : at + EDIT] = DeterministicRandom(size + 1).random_bytes(EDIT)
    target = bytes(target)

    kernel = rsync.all_offset_weak_checksums
    scanned = 0

    def counting(data, window):
        nonlocal scanned
        weaks = kernel(data, window)
        scanned += len(weaks)
        return weaks

    signature = compute_signature(base, BLOCK, with_strong=False)
    with mock.patch.object(rsync, "all_offset_weak_checksums", counting):
        delta = compute_delta(signature, target, base=base)
    assert apply_delta(base, delta) == target
    assert delta.literal_bytes == BLOCK
    return scanned


@pytest.mark.parametrize("size", [2 << 20, 8 << 20], ids=["2MB", "8MB"])
def test_one_dirty_block_scans_under_three_blocks_of_offsets(size):
    assert _scanned_offsets(size) <= 3 * BLOCK


def test_scan_work_does_not_grow_with_the_file():
    assert _scanned_offsets(2 << 20) == _scanned_offsets(8 << 20)
