"""Tests for the block checksum store (integrity + crash consistency)."""

import pytest

from repro.common.errors import CorruptionDetected, InconsistencyDetected
from repro.core.checksum_store import GROUP, ChecksumStore
from repro.cost.meter import CostMeter

BLOCK = 256


@pytest.fixture
def store():
    return ChecksumStore(block_size=BLOCK)


def _content(n, seed=0):
    return bytes((i * 31 + seed) % 256 for i in range(n))


class TestMaintenance:
    def test_update_then_verify_clean(self, store):
        content = _content(BLOCK * 4)
        store.update_blocks("/f", content, 0, len(content))
        store.verify_read("/f", content, 0, len(content))  # no raise

    def test_partial_update_covers_touched_blocks_only(self, store):
        content = _content(BLOCK * 4)
        store.update_blocks("/f", content, BLOCK, 10)
        assert store.blocks_of("/f") == [1]

    def test_write_spanning_blocks(self, store):
        content = _content(BLOCK * 4)
        store.update_blocks("/f", content, BLOCK - 5, 10)
        assert store.blocks_of("/f") == [0, 1]

    def test_reindex_replaces_everything(self, store):
        store.update_blocks("/f", _content(BLOCK * 4), 0, BLOCK * 4)
        store.reindex("/f", _content(BLOCK * 2, seed=1))
        assert store.blocks_of("/f") == [0, 1]

    def test_rename_moves_checksums(self, store):
        content = _content(BLOCK * 3)
        store.reindex("/a", content)
        store.rename("/a", "/b")
        assert store.blocks_of("/a") == []
        store.verify_read("/b", content, 0, len(content))

    def test_self_rename_is_noop(self, store):
        # Regression: rename(src, src) cleared the destination prefix
        # first, which for a self-rename wiped every checksum of the file.
        content = _content(BLOCK * 3)
        store.reindex("/a", content)
        store.rename("/a", "/a")
        assert store.blocks_of("/a") == [0, 1, 2]
        store.verify_read("/a", content, 0, len(content))

    def test_rename_onto_tracked_destination_replaces(self, store):
        # The destination's old checksums must vanish, the source's must
        # survive the overlap-safe snapshot.
        src_content = _content(BLOCK * 2)
        store.reindex("/src", src_content)
        store.reindex("/dst", _content(BLOCK * 5, seed=7))
        store.rename("/src", "/dst")
        assert store.blocks_of("/src") == []
        assert store.blocks_of("/dst") == [0, 1]
        store.verify_read("/dst", src_content, 0, len(src_content))

    def test_drop(self, store):
        store.reindex("/f", _content(BLOCK))
        store.drop("/f")
        assert store.blocks_of("/f") == []

    def test_zero_length_update_noop(self, store):
        store.update_blocks("/f", b"", 0, 0)
        assert store.blocks_of("/f") == []


class TestGroupRecords:
    """One KV record per group of ``GROUP`` blocks: the edges of a group."""

    def test_a_write_across_a_group_boundary_updates_both_records(self, store):
        content = _content(BLOCK * (GROUP + 6))
        store.update_blocks("/f", content, (GROUP - 1) * BLOCK + 10, BLOCK)
        assert store.blocks_of("/f") == [GROUP - 1, GROUP]
        assert len(list(store.kv.items(b""))) == 2
        store.verify_read("/f", content, (GROUP - 1) * BLOCK, 2 * BLOCK)
        damaged = bytearray(content)
        damaged[GROUP * BLOCK + 3] ^= 0x10
        with pytest.raises(CorruptionDetected) as exc:
            store.verify_read("/f", bytes(damaged), (GROUP - 1) * BLOCK, 2 * BLOCK)
        assert exc.value.block_index == GROUP
        unchecked = [i for i in range(GROUP + 6) if i not in (GROUP - 1, GROUP)]
        assert store.mismatched_blocks("/f", content) == unchecked

    def test_a_record_holds_slots_up_to_its_highest_block(self, store):
        content = _content(BLOCK * 8)
        store.update_blocks("/f", content, 5 * BLOCK, 1)
        ((_, value),) = store.kv.items(b"/f\x00")
        assert len(value) == 8 + 4 * 6  # bitmap, then slots 0..5
        store.update_blocks("/f", content, BLOCK, 1)
        assert store.blocks_of("/f") == [1, 5]
        store.verify_read("/f", content, BLOCK, 1)
        store.verify_read("/f", content, 5 * BLOCK, 1)
        with pytest.raises(CorruptionDetected) as exc:
            store.verify_read("/f", content, 0, 6 * BLOCK)  # block 0 never written
        assert exc.value.block_index == 0

    def test_a_shrinking_truncate_that_ends_mid_group(self, store):
        old = _content(BLOCK * (2 * GROUP + 2))
        store.reindex("/f", old)
        assert len(list(store.kv.items(b""))) == 3
        new = old[: BLOCK * (GROUP + 36) + 17]  # block GROUP + 36 is short
        store.reindex("/f", new)
        assert store.blocks_of("/f") == list(range(GROUP + 37))
        assert len(list(store.kv.items(b""))) == 2
        store.verify_file("/f", new)
        store.verify_read("/f", new, len(new) - 30, 30)
        assert store.mismatched_blocks("/f", old) == list(
            range(GROUP + 36, 2 * GROUP + 2)
        )

    def test_a_rename_onto_a_tracked_destination_drops_its_other_groups(self, store):
        src_content = _content(BLOCK * 2)
        store.reindex("/src", src_content)
        store.reindex("/dst", _content(BLOCK * (2 * GROUP + 1), seed=7))
        store.rename("/src", "/dst")
        assert store.blocks_of("/src") == []
        assert store.blocks_of("/dst") == [0, 1]
        assert [key for key, _ in store.kv.items(b"")] == [
            key for key, _ in store.kv.items(b"/dst\x00")
        ]
        store.verify_file("/dst", src_content)


class TestCorruptionDetection:
    def test_flipped_bit_detected(self, store):
        content = _content(BLOCK * 4)
        store.reindex("/f", content)
        corrupted = bytearray(content)
        corrupted[BLOCK * 2 + 7] ^= 0x01
        with pytest.raises(CorruptionDetected) as exc:
            store.verify_read("/f", bytes(corrupted), BLOCK * 2, 10)
        assert exc.value.block_index == 2

    def test_corruption_outside_read_range_not_checked(self, store):
        # read verification only covers the blocks actually read
        content = _content(BLOCK * 4)
        store.reindex("/f", content)
        corrupted = bytearray(content)
        corrupted[BLOCK * 3] ^= 0xFF
        store.verify_read("/f", bytes(corrupted), 0, BLOCK)  # block 0: clean

    def test_missing_checksum_is_corruption(self, store):
        with pytest.raises(CorruptionDetected):
            store.verify_read("/f", _content(BLOCK), 0, BLOCK)


class TestCrashScan:
    def test_clean_file_passes(self, store):
        content = _content(BLOCK * 3 + 17)
        store.reindex("/f", content)
        store.verify_file("/f", content)

    def test_torn_write_detected(self, store):
        content = _content(BLOCK * 3)
        store.reindex("/f", content)
        torn = content[: BLOCK * 2] + b"\x00" * BLOCK
        with pytest.raises(InconsistencyDetected):
            store.verify_file("/f", torn)

    def test_size_mismatch_detected(self, store):
        content = _content(BLOCK * 3)
        store.reindex("/f", content)
        with pytest.raises(InconsistencyDetected):
            store.verify_file("/f", content + b"extra-tail" * BLOCK)


class TestNames:
    """A hard-linked file's checksums are computed once and stored under
    each of its synced names."""

    def test_an_update_of_a_two_name_file_charges_one_pass(self):
        content = _content(BLOCK * 4 + 9)
        one, two = CostMeter(), CostMeter()
        ChecksumStore(block_size=BLOCK, meter=one).update_blocks(
            "/a", content, BLOCK - 5, 2 * BLOCK
        )
        store = ChecksumStore(block_size=BLOCK, meter=two)
        store.update_blocks(["/a", "/b"], content, BLOCK - 5, 2 * BLOCK)
        assert two.by_category == one.by_category
        assert two.bytes_by_category == {"rolling_checksum": 3 * BLOCK}
        for name in ("/a", "/b"):
            assert store.blocks_of(name) == [0, 1, 2]
            store.verify_read(name, content, BLOCK - 5, 2 * BLOCK)

    def test_a_reindex_of_a_two_name_file_charges_one_pass(self):
        content = _content(BLOCK * 4 + 9)
        meter = CostMeter()
        store = ChecksumStore(block_size=BLOCK, meter=meter)
        store.reindex(["/a", "/b"], content)
        assert meter.bytes_by_category == {"rolling_checksum": len(content)}
        for name in ("/a", "/b"):
            store.verify_file(name, content)

    def test_a_bare_str_is_one_name(self, store):
        content = _content(BLOCK * 2)
        store.update_blocks("/f", content, 0, len(content))
        store.reindex("/g", content)
        keys = [key for key, _ in store.kv.items(b"")]
        assert len(keys) == 2  # one group record per name
        assert all(key.startswith((b"/f\x00", b"/g\x00")) for key in keys)


class TestCostModel:
    def test_uses_rolling_not_strong(self):
        # "we can reuse the rolling checksum in rsync as the block checksum"
        meter = CostMeter()
        store = ChecksumStore(block_size=BLOCK, meter=meter)
        store.reindex("/f", _content(BLOCK * 8))
        assert meter.by_category.get("strong_checksum", 0) == 0
        assert meter.by_category["rolling_checksum"] > 0

    def test_partial_update_cheaper_than_reindex(self):
        content = _content(BLOCK * 64)
        reindex_meter = CostMeter()
        ChecksumStore(block_size=BLOCK, meter=reindex_meter).reindex("/f", content)
        update_meter = CostMeter()
        ChecksumStore(block_size=BLOCK, meter=update_meter).update_blocks(
            "/f", content, 0, 10
        )
        assert update_meter.total < reindex_meter.total / 10

    @pytest.mark.parametrize(
        "offset,length", [(BLOCK + 3, 10), (BLOCK - 5, 2 * BLOCK), (5 * BLOCK, 40)]
    )
    def test_the_touched_span_is_all_of_the_file_it_needs(self, offset, length):
        # Handing over span_of(...) with start= stores, charges and verifies
        # exactly what handing over the whole file does (the last span runs
        # past the end of the file: its block is short).
        content = _content(5 * BLOCK + 17)
        whole_meter, span_meter = CostMeter(), CostMeter()
        whole = ChecksumStore(block_size=BLOCK, meter=whole_meter)
        spanned = ChecksumStore(block_size=BLOCK, meter=span_meter)
        start, size = spanned.span_of(offset, length)
        assert start % BLOCK == 0 and start <= offset < offset + length <= start + size
        span = content[start : start + size]
        whole.update_blocks("/f", content, offset, length)
        spanned.update_blocks("/f", span, offset, length, start=start)
        assert list(spanned.kv.items(b"")) == list(whole.kv.items(b""))
        whole.verify_read("/f", content, offset, length)
        spanned.verify_read("/f", span, offset, length, start=start)
        assert span_meter.by_category == whole_meter.by_category
        damaged = bytes([span[0] ^ 1]) + span[1:]
        with pytest.raises(CorruptionDetected):
            spanned.verify_read("/f", damaged, offset, length, start=start)

    def test_invalid_block_size(self):
        with pytest.raises(ValueError):
            ChecksumStore(block_size=0)
