"""Differential test: an update has one effect, wherever it lands.

For random base bytes and a random update of every kind — a single write
(also past EOF), a multi-run batch with overlapping and sparse runs, a
truncate that shrinks or extends, a full replacement, a delta built by
``compute_delta`` — the content a ``bytearray`` oracle computes must be
what (a) the message's own ``apply_to`` returns — over a flat base and, moved
across a page boundary, over a paged one — (b) the server stores when
the update applies, (c) the server puts in the conflict copy when the
update loses first-write-wins, (d) it puts there when the update is rolled
back inside a transactional group, and (e) crash recovery's whole-file
reconstruction rebuilds from the same pending messages. The loser's copy
being exactly the content the loser would have produced is the unit-level
half of INV-NO-LOST-UPDATE.
"""

from hypothesis import given, settings, strategies as st

from repro.common.clock import VirtualClock
from repro.common.pages import FLAT_MAX, PAGE, Pages
from repro.common.version import VersionStamp
from repro.core import recovery
from repro.core.client import DeltaCFSClient
from repro.delta.patch import apply_delta
from repro.delta.rsync import compute_delta, compute_signature
from repro.kvstore.kv import MemoryKV
from repro.net.messages import (
    MetaOp,
    TxnGroup,
    UploadDelta,
    UploadFull,
    UploadTruncate,
    UploadWrite,
    UploadWriteBatch,
)
from repro.net.transport import Channel
from repro.server.cloud import CloudServer
from repro.vfs.filesystem import MemoryFileSystem

V = VersionStamp
SEEDED = V(1, 1)  # the version every update below is based on
BLOCK = 8

small = st.binary(max_size=48)
bases = st.binary(max_size=160)


def _runs(max_runs, data=small):
    run = st.tuples(st.integers(min_value=0, max_value=220), data)
    return st.lists(run, min_size=1, max_size=max_runs)


# What a client writes: an empty write is no write (the Sync Queue ships
# no run for it), so the recovery chain below never draws one.
written = _runs(2, st.binary(min_size=1, max_size=48))


@st.composite
def updates(draw):
    """``(base, kind, arg)``: ``arg`` is the runs, length, data or target."""
    base = draw(bases)
    kind = draw(st.sampled_from(["write", "batch", "truncate", "full", "delta"]))
    if kind == "write":
        arg = draw(_runs(1))
    elif kind == "batch":
        arg = draw(_runs(4))
    elif kind == "truncate":
        arg = draw(st.integers(min_value=0, max_value=220))
    elif kind == "full":
        arg = draw(small)
    else:  # an edit of the base, so the delta has COPYs as well as literals
        cut = draw(st.integers(min_value=0, max_value=len(base)))
        drop = draw(st.integers(min_value=0, max_value=24))
        arg = base[:cut] + draw(small) + base[cut + drop :]
    return base, kind, arg


def oracle(base: bytes, kind: str, arg) -> bytes:
    """The update's effect on ``base``, spelt out on a ``bytearray``."""
    out = bytearray(base)
    if kind in ("write", "batch"):
        for offset, data in arg:
            if offset > len(out):
                out.extend(bytes(offset - len(out)))
            out[offset : offset + len(data)] = data
    elif kind == "truncate":
        if arg <= len(out):
            del out[arg:]
        else:
            out.extend(bytes(arg - len(out)))
    else:  # "full" carries the new content, "delta" encodes it
        out = bytearray(arg)
    return bytes(out)


def message(base, kind, arg, new_version, path="/f"):
    head = dict(path=path, base_version=SEEDED, new_version=new_version)
    if kind == "write":
        ((offset, data),) = arg
        return UploadWrite(offset=offset, data=data, **head)
    if kind == "batch":
        return UploadWriteBatch(runs=tuple(arg), **head)
    if kind == "truncate":
        return UploadTruncate(length=arg, **head)
    if kind == "full":
        return UploadFull(data=arg, **head)
    signature = compute_signature(base, BLOCK, with_strong=False)
    delta = compute_delta(signature, arg, base=base)
    return UploadDelta(delta=delta, content_base=SEEDED, **head)


def seeded_server(base: bytes) -> CloudServer:
    server = CloudServer()
    server.handle(MetaOp(kind="create", path="/f", new_version=V(1, 0)))
    server.handle(
        UploadFull(path="/f", data=base, base_version=V(1, 0), new_version=SEEDED)
    )
    return server


def moved_into_a_paged_file(base, kind, arg, shift):
    """The same update ``shift`` bytes into a file of several pages, held
    paged: ``(paged base, its bytes, the update's moved arg)``."""
    filler = bytes(range(251)) * ((FLAT_MAX + PAGE) // 251)
    longer = filler[:shift] + base + filler
    if kind in ("write", "batch"):
        arg = [(offset + shift, data) for offset, data in arg]
    elif kind == "truncate":
        arg += shift
    paged = Pages(longer[:-1]).write(len(longer) - 1, longer[-1:])
    assert paged.table is not None and paged == longer
    return paged, longer, arg


@given(updates(), st.sampled_from([0, PAGE - 100, 2 * PAGE - 7]))
def test_apply_to_is_the_oracle(case, shift):
    base, kind, arg = case
    update = message(base, kind, arg, V(1, 2))
    if kind == "delta":
        assert apply_delta(base, update.delta) == oracle(*case)
        return
    assert update.apply_to(Pages(base)) == oracle(*case)  # a flat base
    paged, longer, arg = moved_into_a_paged_file(base, kind, arg, shift)
    update = message(longer, kind, arg, V(1, 2))
    assert update.apply_to(paged) == oracle(longer, kind, arg)


@given(updates())
def test_applied_content_is_the_oracle(case):
    base, kind, arg = case
    server = seeded_server(base)
    assert server.handle(message(base, kind, arg, V(1, 2))).ok
    assert server.file_content("/f") == oracle(*case)


@given(updates())
def test_lone_losers_copy_is_the_oracle(case):
    base, kind, arg = case
    server = seeded_server(base)
    winner = UploadFull(
        path="/f", data=b"winner", base_version=SEEDED, new_version=V(2, 1)
    )
    assert server.handle(winner, origin_client=2).ok
    result = server.handle(message(base, kind, arg, V(3, 1)), origin_client=3)
    assert result.status == "conflict"
    (copy,) = result.conflict_paths
    assert server.file_content(copy) == oracle(*case)
    assert server.file_content("/f") == b"winner"
    assert server.file_version("/f") == V(2, 1)


@given(updates())
def test_group_losers_copy_is_the_oracle(case):
    base, kind, arg = case
    server = seeded_server(base)
    server.handle(MetaOp(kind="create", path="/zz", new_version=V(2, 1)))
    partner = UploadWrite(
        path="/zz", offset=0, data=b"Z", base_version=V(9, 9), new_version=V(3, 2)
    )
    group = TxnGroup(members=(message(base, kind, arg, V(3, 1)), partner))
    result = server.handle(group, origin_client=3)
    assert result.status == "conflict"
    (copy,) = result.conflict_paths  # the partner's base was never stored
    assert server.file_content(copy) == oracle(*case)
    assert server.file_content("/f") == base
    assert server.file_version("/f") == SEEDED


@settings(max_examples=30, deadline=None)
@given(bases, written, st.integers(min_value=0, max_value=220), written)
def test_recovery_rebuilds_what_the_server_will_hold(base, first, length, second):
    clock = VirtualClock()
    server = CloudServer()
    client = DeltaCFSClient(
        MemoryFileSystem(),
        server=server,
        channel=Channel(),
        clock=clock,
        checksum_kv=MemoryKV(),
        journal_kv=MemoryKV(),
    )
    client.create("/f")
    if base:
        client.write("/f", 0, base)
    client.close("/f")
    clock.advance(10.0)
    client.flush()
    assert server.file_content("/f") == base

    # A pending write -> truncate -> write chain, then the file is torn.
    for offset, data in first:
        client.write("/f", offset, data)
    client.truncate("/f", length)
    for offset, data in second:
        client.write("/f", offset, data)
    expected = client.inner.read_file("/f")
    pending = recovery.pending_messages(client.queue, ["/f"])
    client.inner.write_file("/f", b"\xff" * len(expected))

    recovery.repair(client, "/f", clock.now(), recovery.RecoveryReport())
    folded = Pages(server.file_content("/f"))
    for update in pending:
        folded = server._effect(update, folded, charge=False)
    assert client.inner.read_file("/f") == folded == expected
