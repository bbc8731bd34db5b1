"""Property tests pinning the vectorized kernels to their references.

Every kernel computes in wrapping ``uint16``. The cases below reach what
that could get wrong: blocks above 4 096 bytes (no wider type any more)
and above 65 536 (the weights themselves wrap), all-``0xff`` data (the
largest sums), every tail length of one block size, inputs longer than
one row batch, and scans whose prefix sums run past 2^16 entries.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.chunking._fast import (
    _SWEEP_BATCH_BYTES,
    all_offset_weak_checksums,
    block_weak_checksums,
    block_weak_checksums_array,
)
from repro.chunking._reference import (
    all_offset_weak_checksums_ref,
    block_weak_checksums_ref,
    weak_checksum_ref,
)
from repro.chunking.rolling import weak_checksum
from repro.common.rng import DeterministicRandom


def _random(n: int, seed: int = 0) -> bytes:
    return DeterministicRandom(seed).random_bytes(n)


class TestWeakChecksumNp:
    """``rolling.weak_checksum`` above 512 bytes: one block of the block kernel."""

    @given(st.binary(max_size=3000))
    @settings(max_examples=60)
    def test_matches_reference(self, data):
        assert weak_checksum(data) == weak_checksum_ref(data)

    def test_all_ff(self):
        for n in (1000, 70_000):  # 70 000: the weights wrap
            assert weak_checksum(b"\xff" * n) == weak_checksum_ref(b"\xff" * n)


class TestBlockWeakChecksums:
    @given(
        data=st.binary(max_size=2000),
        block_size=st.integers(min_value=1, max_value=300),
    )
    @settings(max_examples=60)
    def test_each_block_matches(self, data, block_size):
        assert block_weak_checksums(data, block_size) == block_weak_checksums_ref(
            data, block_size
        )

    def test_empty(self):
        assert block_weak_checksums(b"", 128) == []

    def test_tail_block_handled(self):
        data = b"q" * 257
        checksums = block_weak_checksums(data, 128)
        assert len(checksums) == 3
        assert checksums[2] == weak_checksum_ref(b"q")

    @pytest.mark.parametrize("block_size", [4097, 5793, 65_536, 65_537, 70_000])
    @pytest.mark.parametrize("fill", ["random", "ff"])
    def test_large_blocks(self, block_size, fill):
        n = 2 * block_size + block_size // 3
        data = _random(n, block_size) if fill == "random" else b"\xff" * n
        assert block_weak_checksums(data, block_size) == block_weak_checksums_ref(
            data, block_size
        )

    def test_every_tail_length(self):
        block_size = 64
        data = _random(3 * block_size + block_size - 1)
        for tail in range(block_size):
            for chunk in (data[: 3 * block_size + tail], b"\xff" * (3 * block_size + tail)):
                assert block_weak_checksums(chunk, block_size) == (
                    block_weak_checksums_ref(chunk, block_size)
                ), tail

    @pytest.mark.parametrize("block_size", [4096, 1000])
    def test_several_batches_with_a_tail(self, block_size):
        data = _random(3 * _SWEEP_BATCH_BYTES + 1234, block_size)
        assert block_weak_checksums(data, block_size) == block_weak_checksums_ref(
            data, block_size
        )

    def test_dtype_is_uint32(self):
        assert block_weak_checksums_array(b"abcdef", 4).dtype == np.uint32


class TestAllOffsets:
    @given(
        data=st.binary(min_size=1, max_size=1200),
        window=st.integers(min_value=1, max_value=128),
    )
    @settings(max_examples=60)
    def test_every_offset_matches(self, data, window):
        out = all_offset_weak_checksums(data, window)
        assert out.tolist() == all_offset_weak_checksums_ref(data, window)

    def test_window_zero_rejected(self):
        with pytest.raises(ValueError):
            all_offset_weak_checksums(b"abc", 0)

    def test_large_input_no_overflow(self):
        # longer than 2^16 bytes: both prefix sums wrap; checked at every
        # offset, for a window of one standard block and one past 2^16
        n = 70_000
        for data in (_random(n), b"\xff" * n):
            for window in (4096, 65_537):
                out = all_offset_weak_checksums(data, window)
                assert out.tolist() == all_offset_weak_checksums_ref(data, window)

    def test_dtype_is_uint32(self):
        out = all_offset_weak_checksums(b"abcdef", 3)
        assert out.dtype == np.uint32
