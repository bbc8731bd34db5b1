"""Property-based integration test: arbitrary operation sequences converge.

The fundamental invariant of any sync system: after the client quiesces and
flushes, the cloud holds byte-identical content for every synced path, no
matter what operation sequence the application issued — renames over
existing files, link dances, delete-recreate cycles, truncates, sparse
writes, all interleaved.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.common.clock import VirtualClock
from repro.common.config import DeltaCFSConfig
from repro.core.client import DeltaCFSClient
from repro.net.transport import Channel
from repro.server.cloud import CloudServer
from repro.sim import Simulation
from repro.vfs.filesystem import MemoryFileSystem

PATHS = ["/a", "/b", "/c", "/d"]

# one operation = (kind, path_index, aux_index, offset, payload)
_op = st.tuples(
    st.sampled_from(
        ["create", "write", "truncate", "rename", "link", "unlink", "close", "tick"]
    ),
    st.integers(min_value=0, max_value=len(PATHS) - 1),
    st.integers(min_value=0, max_value=len(PATHS) - 1),
    st.integers(min_value=0, max_value=5000),
    st.binary(min_size=1, max_size=2000),
)


def _apply(client, clock, kind, path, aux, offset, payload):
    exists = client.exists(path)
    aux_exists = client.exists(aux)
    if kind == "create":
        client.create(path)
    elif kind == "write" and exists:
        client.write(path, offset, payload)
    elif kind == "truncate" and exists:
        client.truncate(path, offset)
    elif kind == "rename" and exists and path != aux:
        client.rename(path, aux)
    elif kind == "link" and exists and not aux_exists and path != aux:
        client.link(path, aux)
    elif kind == "unlink" and exists:
        client.unlink(path)
    elif kind == "close" and exists:
        client.close(path)
    elif kind == "tick":
        clock.advance(0.5 + (offset % 50) / 10.0)
        client.pump()


@given(ops=st.lists(_op, min_size=1, max_size=40))
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_arbitrary_sequences_converge(ops):
    clock = VirtualClock()
    server = CloudServer()
    client = DeltaCFSClient(
        MemoryFileSystem(), server=server, channel=Channel(), clock=clock
    )
    for kind, pi, ai, offset, payload in ops:
        _apply(client, clock, kind, PATHS[pi], PATHS[ai], offset, payload)
    # quiesce
    for _ in range(8):
        clock.advance(1.0)
        client.pump()
    client.flush()

    tmp = client.config.tmp_dir
    local_files = {
        p: client.inner.read_file(p)
        for p in client.inner.walk_files()
        if not p.startswith(tmp)
    }
    cloud_files = {
        p: server.file_content(p)
        for p in server.store.paths()
        if "conflicted copy" not in p
    }
    assert cloud_files == local_files


@given(ops=st.lists(_op, min_size=1, max_size=25))
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_single_client_never_conflicts(ops):
    # a lone client's updates are always causally clean: no first-write-wins
    # race can occur, so the server must never report a conflict
    clock = VirtualClock()
    server = CloudServer()
    client = DeltaCFSClient(
        MemoryFileSystem(), server=server, channel=Channel(), clock=clock
    )
    for kind, pi, ai, offset, payload in ops:
        _apply(client, clock, kind, PATHS[pi], PATHS[ai], offset, payload)
    for _ in range(8):
        clock.advance(1.0)
        client.pump()
    client.flush()
    assert client.stats.conflicts == 0
    assert all(r.status == "applied" for r in server.apply_log)


NAMES = ["/a", "/b"]
LINKED_KINDS = ["write", "rewrite", "truncate", "close", "tick", "unlink", "create"]
# one operation through either name = (kind, name_index, offset, payload)
_linked_op = st.tuples(
    st.sampled_from(LINKED_KINDS),
    st.integers(min_value=0, max_value=1),
    st.integers(min_value=0, max_value=30_000),
    st.binary(min_size=1, max_size=600),
)


def _apply_linked(sim, kind, name, other, offset, payload):
    client = sim.client
    exists = client.exists(name)
    source = other if client.exists(other) and client.inner.size(other) else name
    if kind == "write" and exists:
        client.write(name, offset, payload)
    elif kind == "rewrite" and exists and client.inner.size(source):
        # The file's bytes written back, plus an edit: an in-place update
        # while both names bind one file, a delete-then-rewrite save when
        # ``name`` was re-created.
        content = client.read(source, 0, None)
        client.write(name, 0, content)
        client.write(name, offset % len(content), payload[:50])
    elif kind == "truncate" and exists:
        client.truncate(name, offset)
    elif kind == "close" and exists:
        client.close(name)
    elif kind == "unlink" and exists:
        client.unlink(name)
    elif kind == "create" and not exists:
        client.create(name)
    elif kind == "tick":
        sim.clock.advance(0.5 + (offset % 50) / 10.0)
        sim.pump()


@given(
    ops=st.lists(_linked_op, min_size=1, max_size=12),
    checksums=st.booleans(),
)
@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_a_hard_linked_file_converges_through_either_name(ops, checksums):
    # One synced 24 KB file named both /a and /b; every op goes through
    # either name on the first client, the second is a replica. A lone
    # writer never races, so the end state is convergence with no conflict.
    sim = Simulation(clients=2, config=DeltaCFSConfig(enable_checksums=checksums))
    client = sim.client
    client.create("/a")
    client.write("/a", 0, bytes(range(256)) * 96)
    client.close("/a")
    client.link("/a", "/b")
    sim.settle()
    for kind, index, offset, payload in ops:
        _apply_linked(sim, kind, NAMES[index], NAMES[1 - index], offset, payload)
    for name in NAMES:
        if client.exists(name):
            client.close(name)
    sim.settle()
    sim.flush()
    assert [c.stats.conflicts for c in sim.clients] == [0, 0]
    assert all(r.status == "applied" for r in sim.server.apply_log)
    assert sim.converged(), sim.mismatched()


INPLACE_KINDS = ["inplace", "append", "truncate", "close", "tick"]
# one operation = (kind, through the second name?, offset, length, edit)
_inplace_op = st.tuples(
    st.sampled_from(INPLACE_KINDS),
    st.booleans(),
    st.integers(min_value=0, max_value=40_000),
    st.integers(min_value=1, max_value=40_000),
    st.binary(min_size=1, max_size=64),
)


@given(
    ops=st.lists(_inplace_op, min_size=1, max_size=10),
    linked=st.booleans(),
    checksums=st.booleans(),
)
@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_an_inplace_delta_encodes_against_the_bytes_its_node_opened_on(
    ops, linked, checksums
):
    # A synced 32 KB /f (also named /g when linked) takes in-place
    # rewrites, appends, truncates and closes, through either name, and
    # ticks that ship a node still open. The old version a pack-time
    # "inplace" delta is encoded against must be the file's bytes when
    # the node it replaces opened, snapshotted here before that write.
    sim = Simulation(config=DeltaCFSConfig(enable_checksums=checksums))
    client = sim.client
    client.create("/f")
    client.write("/f", 0, bytes(range(256)) * 128)
    client.close("/f")
    names = ["/f"]
    if linked:
        client.link("/f", "/g")
        names.append("/g")
    sim.settle()

    opened_on = {}  # node seq -> the file's bytes before its first write
    encoded = []  # (node seq, old content) of each in-place delta attempt
    delta_or_rpc = client._delta_or_rpc

    def spy(path, doomed, old_content, *args):
        if args[-1] == "inplace":
            encoded.append((doomed[0].seq, old_content))
        return delta_or_rpc(path, doomed, old_content, *args)

    client._delta_or_rpc = spy

    def node_of_file():
        return next(filter(None, map(client.queue.active_write_node, names)), None)

    for kind, second, offset, length, edit in ops:
        name = names[-1] if second else names[0]
        size = client.inner.size(name)
        if kind in ("inplace", "append"):
            before, content = node_of_file(), client.inner.read_file(name)
            if kind == "inplace" and size:
                offset %= size
                data = bytearray(content[offset : offset + length])
                data[: len(edit)] = edit[: len(data)]
                client.write(name, offset, bytes(data))
            else:
                client.write(name, size, edit)
            if before is None:
                opened_on[node_of_file().seq] = content
        elif kind == "truncate":
            client.truncate(name, offset % (size + 1))
        elif kind == "close":
            client.close(name)
        else:
            sim.clock.advance(0.5 + (offset % 50) / 10.0)
            sim.pump()
    for name in names:
        client.close(name)
    sim.settle()
    sim.flush()
    for seq, old_content in encoded:
        assert old_content == opened_on[seq]
    assert sim.mismatched() == []
    assert client.stats.conflicts == 0
