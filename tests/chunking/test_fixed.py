"""Tests for fixed-size block signing (the rsync signature side)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.chunking.rolling import weak_checksum
from repro.chunking.strong import strong_checksum
from repro.cost.meter import CostMeter
from repro.delta.rsync import compute_signature


class TestFixedChunks:
    def test_covers_whole_file(self):
        data = bytes(range(256)) * 10
        sig = compute_signature(data, 300)
        # eight full blocks are signed; the base size accounts for the tail
        assert len(sig.weaks) == len(sig.strongs) == 8
        assert sig.base_size == len(data) == 8 * 300 + 160

    def test_checksums_correct(self):
        data = b"hello world, this is block data" * 20
        sig = compute_signature(data, 100)
        for i, (weak, strong) in enumerate(zip(sig.weaks, sig.strongs)):
            block = data[i * 100 : (i + 1) * 100]
            assert weak == weak_checksum(block)
            assert strong == strong_checksum(block)

    def test_without_strong(self):
        sig = compute_signature(b"x" * 1000, 256, with_strong=False)
        assert sig.strongs is None
        assert not sig.with_strong

    def test_strong_skipped_saves_cpu(self):
        # the DeltaCFS optimization: no MD5 on the signature side
        data = b"y" * 100_000
        with_meter = CostMeter()
        compute_signature(data, 4096, with_strong=True, meter=with_meter)
        without_meter = CostMeter()
        compute_signature(data, 4096, with_strong=False, meter=without_meter)
        assert without_meter.by_category.get("strong_checksum", 0) == 0
        assert with_meter.by_category["strong_checksum"] > 0
        assert without_meter.total < with_meter.total
        # both sides pay for every byte, the unsigned tail block included
        assert with_meter.bytes_by_category == {
            "rolling_checksum": len(data),
            "strong_checksum": len(data),
        }

    def test_empty_input(self):
        sig = compute_signature(b"", 4096)
        assert sig.weaks == [] and sig.strongs == []

    def test_invalid_block_size(self):
        with pytest.raises(ValueError):
            compute_signature(b"abc", 0)

    def test_indices_sequential(self):
        # a block is its index: ten full blocks, the 50-byte tail unsigned
        data = bytes(range(100)) * 10 + b"z" * 50
        sig = compute_signature(data, 100)
        assert len(sig.weaks) == len(sig.strongs) == 10
        assert sig.weaks == [weak_checksum(bytes(range(100)))] * 10

    @given(
        data=st.binary(min_size=1, max_size=3000),
        block_size=st.integers(min_value=1, max_value=500),
    )
    @settings(max_examples=40)
    def test_property_reassembly(self, data, block_size):
        sig = compute_signature(data, block_size, with_strong=False)
        assert len(sig.weaks) == len(data) // block_size
        assert sig.weaks == [
            weak_checksum(data[i * block_size : (i + 1) * block_size])
            for i in range(len(sig.weaks))
        ]
