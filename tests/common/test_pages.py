"""``Pages`` against plain ``bytes``, and the cost it exists to bound.

The differential runs random write / truncate / read / snapshot scripts
through :class:`~repro.common.pages.Pages` and through
``bytesutil.apply_write`` / ``truncate`` on ``bytes`` (the reference those
two functions now exist to be). The cost tests are aim 1's "copies per
write", stated machine-independently: which page objects a write replaces,
and how many bytes a write or a snapshot window retains. The memo tests
hold a value's remembered last write to the same answer a fresh write
gives, and to keeping neither a payload nor a successor alive. The leaf
tests hold a write to copying one leaf of the table, not the table.
"""

import gc
import tracemalloc
import weakref
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.bytesutil import apply_write, truncate
from repro.common import pages
from repro.common.pages import EMPTY, FLAT_MAX, PAGE, Pages
from repro.common.version import VersionStamp
from repro.net.messages import MetaOp, UploadFull, UploadWrite
from repro.server.cloud import CloudServer
from repro.server.storage import VersionedStore
from repro.sim import Simulation
from repro.vfs.filesystem import MemoryFileSystem
from repro.workloads.traces import replay
from repro.workloads.wechat import wechat_trace

V = VersionStamp
MB4 = 1000 * PAGE + 904  # a "4 MB" file whose last page is short

# Positions that matter: anywhere in the first pages, on and around page
# boundaries, and around the current end (``("eof", delta)``).
positions = st.one_of(
    st.integers(min_value=0, max_value=3 * PAGE + 50),
    st.sampled_from([0, 1, PAGE - 1, PAGE, PAGE + 1, 2 * PAGE, 3 * PAGE]),
    st.tuples(
        st.just("eof"),
        st.sampled_from([0, 0, -1, 1, -PAGE, PAGE, -PAGE - 9, 2 * PAGE + 3, -3 * PAGE]),
    ),
)
filler = st.builds(
    lambda seed, n: (seed * (n // len(seed) + 1))[:n],
    st.binary(min_size=1, max_size=7),
    st.sampled_from([PAGE - 1, PAGE, PAGE + 1, 2 * PAGE, 2 * PAGE + 9]),
)
payloads = st.one_of(st.binary(max_size=40), filler)
steps = st.one_of(
    st.tuples(st.just("write"), positions, payloads),
    st.tuples(st.just("whole"), st.integers(min_value=0, max_value=PAGE), payloads),
    st.tuples(st.just("truncate"), positions, st.none()),
    st.tuples(st.just("read"), positions, st.integers(min_value=0, max_value=2 * PAGE)),
    st.tuples(st.just("snapshot"), st.none(), st.none()),
    st.tuples(st.just("repeat"), positions, payloads),
)


def resolve(position, size):
    if isinstance(position, tuple):
        return max(0, size + position[1])
    return position


def check(value: Pages, reference: bytes) -> None:
    assert len(value) == len(reference)
    assert bytes(value) == reference
    assert value == reference and reference == value
    assert hash(value) == hash(reference)
    if value.table is not None:
        assert len(reference) > pages.FLAT_MAX
        assert all(len(page) == PAGE for page in value.table[:-1])
        assert 0 < len(value.table[-1]) <= PAGE
        leaves = value._top  # full leaves, but a short last one
        assert all(len(leaf) == pages.LEAF_PAGES for leaf in leaves[:-1])
        assert 0 < len(leaves[-1]) <= pages.LEAF_PAGES
    for offset in (0, PAGE - 3, len(reference) // 2, len(reference)):
        assert value.read(offset, PAGE + 5) == reference[offset : offset + PAGE + 5]
        assert value.read(offset) == reference[offset:]
        assert value[offset : offset + 7] == reference[offset : offset + 7]
    assert value[-5:] == reference[-5:]


def run_script(initial, script):
    value, reference = Pages(initial), initial
    snapshots = []
    for op, a, b in script:
        size = len(reference)
        if op == "write":
            offset = resolve(a, size)
            value = value.write(offset, b)
            reference = apply_write(reference, offset, b)
        elif op == "whole":  # offset 0, at least the whole content
            data = (b or b"w") * ((size + a) // len(b or b"w") + 1)
            value, reference = value.write(0, data), apply_write(reference, 0, data)
        elif op == "truncate":
            length = resolve(a, size)
            value, reference = value.truncate(length), truncate(reference, length)
        elif op == "read":
            offset = resolve(a, size)
            assert value.read(offset, b) == reference[offset : offset + b]
        elif op == "repeat":  # one (offset, data) asked of one value again
            offset = resolve(a, size)
            first = value.write(offset, b)
            again = value.write(offset, bytearray(b))
            assert again == first
            assert (again is first) == (first is value or len(first) > pages.FLAT_MAX)
            if b:  # the same place and length, other bytes: not that result
                other = bytes(byte ^ 0x5A for byte in b)
                check(value.write(offset, other), apply_write(reference, offset, other))
            value = value.write(offset, b)
            reference = apply_write(reference, offset, b)
        else:
            snapshots.append((value, reference))
        check(value, reference)
        for old_value, old_reference in snapshots:  # immutability
            assert bytes(old_value) == old_reference
    return value


@settings(max_examples=150, deadline=None)
@given(st.binary(max_size=2 * PAGE + 100), st.lists(steps, max_size=12))
def test_pages_is_bytes_under_any_script(initial, script):
    # With the flat threshold lowered to one page, contents of a few pages
    # put every step through the page table.
    with mock.patch.object(pages, "FLAT_MAX", PAGE):
        run_script(initial, script)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([-PAGE - 7, -1, 0, 1, PAGE, 2 * PAGE + 100]),
    filler,
    st.lists(steps, max_size=10),
)
def test_pages_is_bytes_around_the_flat_threshold(over, seed, script):
    # At the shipped threshold: contents that start just under, at and
    # over it, and cross it both ways.
    size = FLAT_MAX + over
    run_script((seed * (size // len(seed) + 1))[:size], script)


@settings(max_examples=150, deadline=None)
@given(st.binary(max_size=2 * PAGE + 100), st.lists(steps, max_size=12))
def test_pages_is_bytes_across_two_page_leaves(initial, script):
    # Leaves of two pages: writes, appends, truncates and reads of a few
    # pages cross leaf boundaries.
    with mock.patch.object(pages, "FLAT_MAX", PAGE), mock.patch.object(
        pages, "LEAF_PAGES", 2
    ):
        run_script(initial, script)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([-PAGE - 7, -1, 0, 1, PAGE, 2 * PAGE + 100]),
    filler,
    st.lists(steps, max_size=10),
)
def test_pages_is_bytes_around_the_flat_threshold_with_two_page_leaves(
    over, seed, script
):
    size = FLAT_MAX + over
    with mock.patch.object(pages, "LEAF_PAGES", 2):
        run_script((seed * (size // len(seed) + 1))[:size], script)


def test_equality_and_hash_agree_with_bytes():
    size = FLAT_MAX + 10
    flat = Pages(b"x" * size)
    paged = Pages(b"x" * (size - 1)).write(size - 1, b"x")
    assert flat.table is None and paged.table is not None
    assert flat == paged == b"x" * size == flat
    assert hash(flat) == hash(paged) == hash(b"x" * size)
    assert len({flat, paged, b"x" * size}) == 1
    assert flat != b"x" * (size - 1) and paged != Pages(b"y" * size)
    assert flat != "x" and EMPTY == b"" and not EMPTY


def test_negative_positions_are_rejected():
    for value in (Pages(b"abc"), Pages(bytes(2 * FLAT_MAX)).write(5, b"x")):
        with pytest.raises(ValueError):
            value.write(-1, b"x")
        with pytest.raises(ValueError):
            value.truncate(-1)
        with pytest.raises(ValueError):
            value.read(-1, 2)


@settings(max_examples=60, deadline=None)
@given(
    st.binary(min_size=0, max_size=3 * PAGE),
    st.lists(st.integers(min_value=-3 * PAGE - 5, max_value=3 * PAGE + 5), max_size=20),
)
def test_an_int_key_reads_one_byte_as_bytes_does(content, indices):
    with mock.patch.object(pages, "FLAT_MAX", PAGE):
        flat = Pages(content)
        paged = Pages(content + b"!").truncate(len(content))
        assert (paged.table is not None) == (len(content) > PAGE)
        for index in indices + [0, -1, len(content) - 1, len(content), -len(content)]:
            for value in (flat, paged):
                if -len(content) <= index < len(content):
                    assert value[index] == content[index]
                else:
                    with pytest.raises(IndexError):
                        value[index]
    with pytest.raises(TypeError):
        flat["1"]


# -- cost follows the write ---------------------------------------------------


def paged_4mb() -> Pages:
    value = Pages(bytes(MB4)).write(7, b"\x01")
    assert value.table is not None and len(value.table) == 1001
    return value


def replaced(old: Pages, new: Pages) -> int:
    assert len(old.table) == len(new.table)
    return sum(a is not b for a, b in zip(old.table, new.table))


def test_a_write_replaces_only_the_pages_it_touches():
    base = paged_4mb()
    assert replaced(base, base.write(500 * PAGE + 100, b"z" * 24)) == 1
    assert replaced(base, base.write(40 * PAGE, b"z" * PAGE)) == 1
    assert replaced(base, base.write(40 * PAGE + 1, b"z" * PAGE)) == 2
    # an aligned page write stores the payload itself: nothing is read
    page = b"q" * PAGE
    assert base.write(9 * PAGE, page).table[9] is page
    grown = base.write(MB4, b"tail")
    assert grown.table[:1000] == base.table[:1000]
    assert all(a is b for a, b in zip(grown.table[:1000], base.table))


def test_a_write_shares_every_leaf_it_does_not_touch():
    width = pages.LEAF_PAGES
    base = paged_4mb()
    assert len(base._top) == -(-1001 // width)

    def rebuilt(new):
        return [i for i, (a, b) in enumerate(zip(base._top, new._top)) if a is not b]

    leaf = 500 // width
    assert rebuilt(base.write(500 * PAGE + 100, b"z" * 24)) == [leaf]
    at_edge = (leaf + 1) * width * PAGE - 2  # the run straddles two leaves
    assert rebuilt(base.write(at_edge, b"z" * 4)) == [leaf, leaf + 1]
    grown = base.write(MB4, b"tail" * PAGE)  # an append rebuilds the tail
    assert rebuilt(grown) == [len(base._top) - 1]
    cut = base.truncate(MB4 - 3 * PAGE)  # whole leaves kept by reference
    assert rebuilt(cut) == [len(cut._top) - 1] and len(cut._top) <= len(base._top)
    assert bytes(cut) == bytes(base)[: MB4 - 3 * PAGE]


def test_a_write_into_a_large_value_copies_one_leaf_not_the_table():
    value = Pages(bytes(32 * 1024 * 1024)).write(7, b"\x01")
    page = b"q" * PAGE
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        written = value.write(5000 * PAGE, page)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before < 16 * 1024  # the 8 192-entry table alone is 64 KB
    assert written.read(5000 * PAGE - 1, PAGE + 2) == b"\x00" + page + b"\x00"


def test_whole_content_and_small_values_stay_flat():
    payload = bytes(MB4)
    assert bytes(paged_4mb().write(0, payload)) is payload  # no split, no copy
    small = Pages(b"a" * PAGE).write(100, b"b" * 512)  # the one-page fast path
    assert small.table is None and small == b"a" * 100 + b"b" * 512 + b"a" * 3484
    assert Pages(b"ab").write(FLAT_MAX - 1, b"c").table is None
    assert Pages(b"ab").write(FLAT_MAX, b"c").table is not None  # one byte over
    assert paged_4mb().truncate(FLAT_MAX).table is None
    assert paged_4mb().truncate(FLAT_MAX + 1).table is not None


def test_one_vfs_write_allocates_pages_not_the_file():
    fs = MemoryFileSystem()
    fs.create("/db")
    fs.write("/db", 0, bytes(MB4))
    fs.write("/db", 3 * PAGE, b"x" * PAGE)  # first partial write pages it
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        fs.write("/db", 77 * PAGE, b"y" * PAGE)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before < 64 * 1024
    assert fs.read("/db", 77 * PAGE - 1, 3) == b"\x00yy"


def test_the_snapshot_window_retains_changed_pages_not_files():
    tracemalloc.start()
    try:
        server = CloudServer()
        server.handle(MetaOp(kind="create", path="/db", new_version=V(1, 0)))
        server.handle(
            UploadFull(
                path="/db", data=bytes(MB4), base_version=V(1, 0), new_version=V(1, 1)
            )
        )
        for n in range(64):
            write = UploadWrite(
                path="/db",
                offset=(n * 13 % 1000) * PAGE,
                data=bytes([n + 1]) * PAGE,
                base_version=V(1, n + 1),
                new_version=V(1, n + 2),
            )
            assert server.handle(write).ok
        del write
        server.apply_log.clear()
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(server.store._snapshots) == 64
    assert retained < 2 * MB4  # 64 whole-file versions before Pages
    assert server.store.snapshot(V(1, 2)).read(0, 2) == b"\x01\x01"
    assert server.store.snapshot(V(1, 3)).read(0, 2) == b"\x01\x01"
    assert server.file_content("/db")[13 * PAGE] == 2


# -- one successor, held weakly ------------------------------------------------


def test_a_payload_changed_since_its_write_is_not_taken_for_it():
    size = FLAT_MAX + 10
    for base, offset in (
        (Pages(b"a" * 2 * FLAT_MAX), 100),  # flat base, paged result
        (paged_4mb(), 40 * PAGE + 9),  # the run straddles 17 pages
        (EMPTY, 0),  # whole content: a flat result
    ):
        reference = bytes(base)
        payload = bytearray(b"x" * size)
        first = base.write(offset, payload)
        for at in (0, PAGE - 10, size - 1):
            payload[at] = ord("y")
            again = base.write(offset, payload)
            assert again is not first
            assert again == apply_write(reference, offset, bytes(payload))
        assert first == apply_write(reference, offset, b"x" * size)
        assert base.write(offset, bytes(payload)) is again


def test_a_small_result_is_not_remembered():
    # Splicing a value of at most FLAT_MAX bytes again costs less than
    # making the weak reference that would find it.
    for base, offset, data in (
        (Pages(b"a" * PAGE), 100, b"x" * 10),
        (EMPTY, 0, b"x" * FLAT_MAX),
    ):
        first = base.write(offset, data)
        assert weakref.getweakrefcount(first) == 0
        assert base.write(offset, data) == first
    assert weakref.getweakrefcount(EMPTY.write(0, b"x" * (FLAT_MAX + 1))) == 1


@pytest.mark.parametrize(
    "make", [paged_4mb, lambda: Pages(b"s" * (FLAT_MAX + 3 * PAGE))]
)
def test_a_held_base_keeps_no_successor_alive(make):
    base = value = make()
    made = []
    for n in range(200):
        value = value.write((n * 13 % 900) * PAGE + n % 3, bytes([n % 251 + 1]) * PAGE)
        made.append(weakref.ref(value))
    gc.collect()
    assert [alive for alive in made[:-1] if alive() is not None] == []
    assert made[-1]() is value and base == make()


def test_the_memo_keeps_no_payload():
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        big = bytes(4 * MB4)
        whole = EMPTY.write(0, big)
        assert bytes(whole) is big
        del big, whole
        gc.collect()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert after - before < 64 * 1024


# -- replace, not fork ----------------------------------------------------------


def test_every_store_holds_the_one_type_after_a_wechat_replay():
    sim = Simulation(clients=2)
    trace = wechat_trace(scale=512, modifications=12)
    sim.preload(trace)
    replay(trace, sim.fs, sim.clock, pump=sim.pump)
    sim.settle()
    assert sim.converged()
    held = [inode.data for c in sim.clients for inode in c.inner._inodes.values()]
    held += [sim.server.store.get(p).pages for p in sim.server.store.paths()]
    held += list(sim.server.store._snapshots.values())
    assert held and all(type(content) is Pages for content in held)
    assert any(content.table is not None for content in held)


def test_rollback_and_migration_carry_a_paged_entry_with_its_links():
    paged = Pages(bytes(2 * FLAT_MAX)).write(PAGE - 1, b"ab")
    assert paged.table is not None
    store = VersionedStore()
    store.put("/f", paged, V(1, 1))
    store.copy("/f", "/g")
    saved = store.save_entry("/f")
    store.put("/f", b"overwritten", V(1, 2))
    assert store.get("/g").content == b"overwritten"
    store.restore_entry("/f", saved)
    assert store.get("/f") is store.get("/g")
    assert store.get("/g").pages is paged and store.get("/g").version == V(1, 1)

    other = VersionedStore()
    stored, versions = store.detach_entry("/f")
    other.attach_entry("/f", stored, versions)
    assert other.get("/f") is store.get("/g")  # the link still shares the file
    assert other.get("/f").pages is paged
    assert other.snapshot(V(1, 1)) is paged
    assert other.snapshot(V(1, 2)) is None  # rolled back out of the history
    other.put("/f", paged.write(0, b"z"), V(1, 3))
    assert store.get("/g").content[:2] == b"z\x00"
