"""Tests for the LevelDB-substitute key-value stores."""

import hashlib
import tempfile

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.kvstore.kv import KVStore, LogStructuredKV, MemoryKV


@pytest.fixture(params=["memory", "log"])
def kv(request, tmp_path):
    if request.param == "memory":
        yield MemoryKV()
    else:
        store = LogStructuredKV(str(tmp_path / "kv.log"))
        yield store
        store.close()


class TestContract:
    def test_get_missing(self, kv):
        assert kv.get(b"nope") is None

    def test_put_get(self, kv):
        kv.put(b"k", b"v")
        assert kv.get(b"k") == b"v"

    def test_overwrite(self, kv):
        kv.put(b"k", b"v1")
        kv.put(b"k", b"v2")
        assert kv.get(b"k") == b"v2"

    def test_delete(self, kv):
        kv.put(b"k", b"v")
        kv.delete(b"k")
        assert kv.get(b"k") is None

    def test_delete_missing_is_idempotent(self, kv):
        kv.delete(b"ghost")  # must not raise

    def test_items_ordered(self, kv):
        for key in (b"c", b"a", b"b"):
            kv.put(key, key)
        assert [k for k, _ in kv.items()] == [b"a", b"b", b"c"]

    def test_prefix_iteration(self, kv):
        kv.put(b"file1\x00block0", b"x")
        kv.put(b"file1\x00block1", b"y")
        kv.put(b"file2\x00block0", b"z")
        assert len(list(kv.items(b"file1\x00"))) == 2

    def test_delete_prefix(self, kv):
        for i in range(5):
            kv.put(f"p{i}".encode(), b"v")
        kv.put(b"q", b"v")
        assert kv.delete_prefix(b"p") == 5
        assert len(kv) == 1

    def test_empty_value(self, kv):
        kv.put(b"k", b"")
        assert kv.get(b"k") == b""

    def test_len(self, kv):
        for i in range(7):
            kv.put(str(i).encode(), b"v")
        assert len(kv) == 7

    def test_bytearray_keys_normalized(self, kv):
        """bytes and bytearray spelling the same key must alias (the
        journal builds keys in bytearrays; MemoryKV used to miss them on
        get/delete because bytearray is unhashable-by-value vs bytes)."""
        kv.put(bytearray(b"k"), b"v")
        assert kv.get(b"k") == b"v"
        assert kv.get(bytearray(b"k")) == b"v"
        kv.put(b"k2", b"v2")
        kv.delete(bytearray(b"k2"))
        assert kv.get(b"k2") is None
        assert len(kv) == 1

    def test_bytearray_prefix_normalized(self, kv):
        kv.put(b"p\x00a", b"1")
        kv.put(b"p\x00b", b"2")
        kv.put(b"q\x00c", b"3")
        assert len(list(kv.items(bytearray(b"p\x00")))) == 2
        assert kv.delete_prefix(bytearray(b"p\x00")) == 2

    @given(
        st.dictionaries(
            st.binary(min_size=1, max_size=12), st.binary(max_size=20), max_size=30
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_property_matches_dict(self, mapping):
        kv = MemoryKV()
        for key, value in mapping.items():
            kv.put(key, value)
        for key, value in mapping.items():
            assert kv.get(key) == value
        assert len(kv) == len(mapping)


class TestPersistence:
    def test_reopen_recovers(self, tmp_path):
        path = str(tmp_path / "d.log")
        with LogStructuredKV(path) as kv:
            kv.put(b"a", b"1")
            kv.put(b"b", b"2")
            kv.delete(b"a")
        with LogStructuredKV(path) as kv:
            assert kv.get(b"a") is None
            assert kv.get(b"b") == b"2"

    def test_compaction_preserves_state(self, tmp_path):
        path = str(tmp_path / "d.log")
        with LogStructuredKV(path) as kv:
            for i in range(50):
                kv.put(b"hot", str(i).encode())
            kv.compact()
            assert kv.get(b"hot") == b"49"
        with LogStructuredKV(path) as kv:
            assert kv.get(b"hot") == b"49"

    def test_auto_compaction_bounds_file(self, tmp_path):
        import os

        path = str(tmp_path / "d.log")
        with LogStructuredKV(path, auto_compact_ratio=2.0) as kv:
            for i in range(2000):
                kv.put(b"k", b"v" * 50)
        # 2000 x ~60B records would be ~120KB without compaction
        assert os.path.getsize(path) < 20_000

    def test_torn_tail_ignored(self, tmp_path):
        path = str(tmp_path / "d.log")
        with LogStructuredKV(path) as kv:
            kv.put(b"good", b"data")
        with open(path, "ab") as fh:
            fh.write(b"\x40\x00\x00\x00garbage-partial-record")
        with LogStructuredKV(path) as kv:
            assert kv.get(b"good") == b"data"
            # and the store is writable again after recovery
            kv.put(b"new", b"x")
        with LogStructuredKV(path) as kv:
            assert kv.get(b"new") == b"x"

    def test_corrupt_middle_record_stops_replay_there(self, tmp_path):
        path = str(tmp_path / "d.log")
        with LogStructuredKV(path) as kv:
            kv.put(b"first", b"1")
            kv.put(b"second", b"2")
        data = bytearray(open(path, "rb").read())
        data[len(data) // 2] ^= 0xFF  # corrupt somewhere in record 2
        open(path, "wb").write(bytes(data))
        with LogStructuredKV(path) as kv:
            assert kv.get(b"first") == b"1"

    def test_truncate_at_every_byte_recovers_clean_prefix(self, tmp_path):
        """A crash can cut the WAL anywhere. Whatever the cut point, reopen
        must recover exactly the records that landed wholly before it —
        never garbage, never a record past the cut."""
        path = str(tmp_path / "d.log")
        ops = [
            (b"a", b"1"),
            (b"bb", b"two"),
            (b"a", b"rewritten"),
            (b"ccc", b""),
            (b"bb", None),  # delete
        ]
        # Record the file size and logical state after each complete record.
        checkpoints = [(0, {})]
        state = {}
        with LogStructuredKV(path) as kv:
            for key, value in ops:
                if value is None:
                    kv.delete(key)
                    state.pop(key, None)
                else:
                    kv.put(key, value)
                    state[key] = value
                kv._fh.flush()
                import os

                checkpoints.append((os.path.getsize(path), dict(state)))
        full = open(path, "rb").read()
        assert checkpoints[-1][0] == len(full)
        for cut in range(len(full) + 1):
            open(path, "wb").write(full[:cut])
            expected = {}
            for size, snapshot in checkpoints:
                if size <= cut:
                    expected = snapshot
            with LogStructuredKV(path) as kv:
                assert {k: v for k, v in kv.items()} == expected, (
                    f"cut at byte {cut}"
                )
        open(path, "wb").write(full)


class TestSyncMode:
    def _count_fsyncs(self, monkeypatch):
        import repro.kvstore.kv as kvmod

        calls = []
        real = kvmod.os.fsync
        monkeypatch.setattr(kvmod.os, "fsync", lambda fd: calls.append(fd) or real(fd))
        return calls

    def test_sync_mode_fsyncs_every_append(self, tmp_path, monkeypatch):
        calls = self._count_fsyncs(monkeypatch)
        kv = LogStructuredKV(str(tmp_path / "j.log"), sync=True)
        kv.put(b"a", b"1")
        kv.put(b"b", b"2")
        kv.delete(b"a")
        assert len(calls) == 3  # one per append, before close
        kv.close()

    def test_default_mode_skips_per_append_fsync(self, tmp_path, monkeypatch):
        calls = self._count_fsyncs(monkeypatch)
        kv = LogStructuredKV(str(tmp_path / "c.log"))
        kv.put(b"a", b"1")
        kv.put(b"b", b"2")
        assert calls == []

    def test_close_fsyncs_regardless_of_mode(self, tmp_path, monkeypatch):
        calls = self._count_fsyncs(monkeypatch)
        kv = LogStructuredKV(str(tmp_path / "c.log"))
        kv.put(b"a", b"1")
        kv.close()
        assert len(calls) == 1


class ScanKV(KVStore):
    """The reference model: the store as it was before it kept its keys in
    order — a dict, and a prefix query that tests every key and sorts the
    matches. ``delete_prefix`` and ``len`` are the generic ones over it."""

    def __init__(self):
        self._data = {}

    def get(self, key):
        return self._data.get(bytes(key))

    def put(self, key, value):
        self._data[bytes(key)] = bytes(value)

    def delete(self, key):
        self._data.pop(bytes(key), None)

    def items(self, prefix=b""):
        prefix = bytes(prefix)
        for key in sorted(k for k in self._data if k.startswith(prefix)):
            yield key, self._data[key]


# Few byte values and short keys: keys collide, nest as each other's
# prefixes, and end in 0xff (where "the next prefix" has to carry).
_KEYS = st.lists(st.sampled_from([0x00, 0x61, 0x62, 0xFF]), max_size=4).map(bytes)
_AS = st.sampled_from([bytes, bytearray, memoryview])


def _drain(iterator):
    """What consuming ``iterator`` yields, and how it ends."""
    out = []
    try:
        for pair in iterator:
            out.append(pair)
    except KeyError as exc:  # a key deleted under a running iteration
        out.append(("KeyError", exc.args))
    return out


class KVMachine(RuleBasedStateMachine):
    """Every query of the store against :class:`ScanKV` after every step."""

    def __init__(self):
        super().__init__()
        self.model = ScanKV()
        self.kv = self.make_store()

    def make_store(self):
        return MemoryKV()

    @rule(key=_KEYS, value=st.binary(max_size=3), as_=_AS)
    def put(self, key, value, as_):
        self.kv.put(as_(key), as_(value))
        self.model.put(key, value)

    @rule(key=_KEYS, as_=_AS)
    def delete(self, key, as_):
        self.kv.delete(as_(key))
        self.model.delete(key)

    @rule(key=_KEYS, as_=_AS)
    def get(self, key, as_):
        assert self.kv.get(as_(key)) == self.model.get(key)

    @rule(prefix=_KEYS, as_=_AS)
    def items(self, prefix, as_):
        assert list(self.kv.items(as_(prefix))) == list(self.model.items(prefix))

    @rule(prefix=_KEYS, as_=_AS)
    def delete_prefix(self, prefix, as_):
        assert self.kv.delete_prefix(as_(prefix)) == self.model.delete_prefix(prefix)

    @rule(
        prefix=_KEYS,
        consumed=st.integers(min_value=0, max_value=3),
        key=_KEYS,
        value=st.none() | st.binary(max_size=3),
    )
    def mutate_under_iteration(self, prefix, consumed, key, value):
        """``items()`` is a snapshot of the keys taken when iteration
        starts; a put or delete while it is consumed behaves as it did."""
        ours, theirs = self.kv.items(prefix), self.model.items(prefix)
        for _ in range(consumed):
            assert next(ours, None) == next(theirs, None)
        for store in (self.kv, self.model):
            if value is None:
                store.delete(key)
            else:
                store.put(key, value)
        assert _drain(ours) == _drain(theirs)

    @invariant()
    def same_content_in_key_order(self):
        assert list(self.kv.items()) == list(self.model.items())
        assert len(self.kv) == len(self.model)


class LogKVMachine(KVMachine):
    """The same, through the WAL: across close/reopen and ``compact()``."""

    def make_store(self):
        self._dir = tempfile.TemporaryDirectory()
        self._path = self._dir.name + "/kv.log"
        # A low ratio so auto-compaction also runs inside a short example.
        return LogStructuredKV(self._path, auto_compact_ratio=1.5)

    @rule()
    def reopen(self):
        self.kv.close()
        self.kv = LogStructuredKV(self._path, auto_compact_ratio=1.5)

    @rule()
    def compact(self):
        self.kv.compact()

    def teardown(self):
        self.kv.close()
        self._dir.cleanup()


TestMemoryKVStateful = KVMachine.TestCase
TestMemoryKVStateful.settings = settings(
    max_examples=80, stateful_step_count=40, deadline=None
)
TestLogStructuredKVStateful = LogKVMachine.TestCase
TestLogStructuredKVStateful.settings = settings(
    max_examples=40, stateful_step_count=40, deadline=None
)


# sha-256 of the log file after each half of the script below, taken on the
# commit before MemoryKV kept its keys in order (3c99a5b).
WAL_DIGESTS = (
    "1ba5ef60231e60431644168d49874ffef03e181032224b082c0b03d8e3f13c9e",
    "11f5ea850fbe8146407a3674d135c80de50d6094aca12e57529dacda1c561ed7",
)


def test_wal_bytes_of_a_fixed_script(tmp_path):
    """The journal's on-disk format does not move: this script's log file,
    byte for byte, hashes to what it did before the store kept an ordered
    index."""
    path = str(tmp_path / "kv.log")
    with LogStructuredKV(path, auto_compact_ratio=2.0) as kv:
        for i in range(40):
            kv.put(b"f%d\x00%d" % (i % 5, i), b"v%d" % i)
        kv.put(bytearray(b"f1\x00\xff"), memoryview(b"edge"))
        kv.delete(b"f0\x000")
        kv.delete(b"never-there")
        assert kv.delete_prefix(b"f1\x00") == 9
        for i in range(80):  # overwrites: dead records, then auto-compaction
            kv.put(b"hot%d" % (i % 3), b"%d" % i)
    first = open(path, "rb").read()
    with LogStructuredKV(path) as kv:  # reopen rewrites the log, sorted
        kv.put(b"a", b"tail")
        kv.compact()
        kv.delete(b"hot1")
    second = open(path, "rb").read()
    assert hashlib.sha256(first).hexdigest() == WAL_DIGESTS[0]
    assert hashlib.sha256(second).hexdigest() == WAL_DIGESTS[1]
