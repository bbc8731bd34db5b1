"""Layer-2 invariants over a *sharded*, lossy, multi-client trace.

The synthetic traces in test_invariants.py prove the verifier catches
violations; this module proves the ShardRouter does not create any.  A
cross-shard rename, a cross-shard group and a concurrent write conflict
run over lossy reliable transports, and the recorded trace must still
satisfy INV-EXACTLY-ONCE, INV-CAUSAL-FIFO and INV-VERSION-MONO — the
dedup window lives on the client's home shard and files migrate only
before and after an apply, never during one, so retransmits and shard
hops never double-apply or reorder.
"""

import json

from repro.check import verify_trace
from repro.common.clock import VirtualClock
from repro.common.version import VersionStamp
from repro.faults.network import NetworkFaults
from repro.net.messages import MetaOp, TxnGroup, UploadWrite
from repro.net.reliable import ReliableTransport, RetryPolicy
from repro.net.transport import LossyChannel
from repro.obs import Observability
from repro.obs.analyze import load_trace_lines
from repro.server.shard import ShardRouter


def _two_namespaces(router):
    seen = {}
    for i in range(200):
        ns = f"/u{i}"
        seen.setdefault(router.shard_index_for_path(ns + "/f"), ns)
        if len(seen) >= 2:
            return list(seen.values())[:2]
    raise AssertionError("ring degenerated onto one shard")


def _transport(router, obs, client_id):
    channel = LossyChannel(
        faults=NetworkFaults(drop_prob=0.3, dup_prob=0.15),
        seed=client_id,
        obs=obs,
    )
    return ReliableTransport(
        channel, router, client_id=client_id,
        policy=RetryPolicy(base_timeout=0.5), seed=client_id, obs=obs,
    )


def test_sharded_lossy_run_preserves_invariants():
    obs = Observability()
    router = ShardRouter(4, obs=obs)
    clock = VirtualClock()
    ns1, ns2 = _two_namespaces(router)
    t1 = _transport(router, obs, 1)
    t2 = _transport(router, obs, 2)

    # Client 1 establishes a shared document, then client 2 writes from
    # the same base version: a genuine first-write-wins conflict.
    doc = f"{ns1}/doc.txt"
    t1.send(MetaOp(kind="create", path=doc, new_version=VersionStamp(1, 1)),
            clock.now())
    t1.send(UploadWrite(path=doc, offset=0, data=b"AAAA",
                        base_version=VersionStamp(1, 1),
                        new_version=VersionStamp(1, 2)), clock.now())
    t1.settle(clock)
    t2.send(UploadWrite(path=doc, offset=0, data=b"BBBB",
                        base_version=VersionStamp(1, 1),
                        new_version=VersionStamp(2, 2)), clock.now())
    t2.settle(clock)

    # Client 1 then renames a second file across the namespace boundary:
    # a real migration between two shards.
    src, dst = f"{ns1}/move.bin", f"{ns2}/moved.bin"
    t1.send(MetaOp(kind="create", path=src, new_version=VersionStamp(1, 3)),
            clock.now())
    t1.send(MetaOp(kind="rename", path=src, dest=dst,
                   new_version=VersionStamp(1, 4)), clock.now())
    t1.settle(clock)

    # And a transactional group spanning both creates a file in each: it
    # applies on one shard, and the other file then moves home.
    made = f"{ns2}/made.bin"
    t1.send(TxnGroup(members=[
        MetaOp(kind="create", path=f"{ns1}/made.bin", new_version=VersionStamp(1, 5)),
        MetaOp(kind="create", path=made, new_version=VersionStamp(1, 6)),
    ]), clock.now())
    t1.settle(clock)

    # The scenario really exercised what it claims to.
    assert router.cross_shard_renames == 1
    assert obs.metrics.snapshot()["server.shard.migrations{reason=home}"] >= 1
    assert router.shard_for_path(made).store.exists(made)
    statuses = [r.status for log in (s.apply_log for s in router.shards)
                for r in log]
    assert "conflict" in statuses
    retransmits = t1.stats.retransmits + t2.stats.retransmits
    assert retransmits > 0, "lossy plan produced no retransmissions"
    assert router.file_content(dst) == b""
    assert not router.store.exists(src)

    # The recorded trace satisfies every delivery/version invariant,
    # plus the sharding invariants: envelopes noted on the home shard,
    # the migration loss-free and write-free.
    doc_trace = load_trace_lines(obs.tracer.to_jsonl().splitlines())
    results = {r.id: r for r in verify_trace(doc_trace)}
    for inv in ("INV-EXACTLY-ONCE", "INV-CAUSAL-FIFO", "INV-VERSION-MONO",
                "INV-SHARD-HOME", "INV-MIGRATE-SAFE"):
        assert results[inv].status == "ok", results[inv].violations
        assert results[inv].witnesses_seen > 0
    # Envelope witnesses include real duplicate drops from retransmits.
    assert router.dedup_drops > 0


def test_migration_emits_paired_detach_attach():
    obs = Observability()
    router = ShardRouter(4, obs=obs)
    ns1, ns2 = _two_namespaces(router)
    router.handle(MetaOp(kind="create", path=f"{ns1}/a",
                         new_version=VersionStamp(1, 1)))
    router.handle(MetaOp(kind="rename", path=f"{ns1}/a", dest=f"{ns2}/b",
                         new_version=VersionStamp(1, 2)))
    events = [e for e in
              (json.loads(line) for line in obs.tracer.to_jsonl().splitlines())
              if e.get("type") == "event"]
    detaches = [e for e in events if e["name"] == "server.shard.detach"]
    attaches = [e for e in events if e["name"] == "server.shard.attach"]
    assert len(detaches) == 1 and len(attaches) == 1
    # The attach re-derives its version count from the destination store
    # after the merge; nothing may be lost in flight.
    assert (attaches[0]["attrs"]["versions"]
            >= detaches[0]["attrs"]["versions"] > 0)


def test_migrating_more_versions_than_the_window_moves_the_window():
    # Both counts are restorable stamps: the detach side no longer counts
    # stamps the source could not restore, so the invariant compares like
    # with like.
    obs = Observability()
    router = ShardRouter(2, obs=obs)
    ns1, ns2 = _two_namespaces(router)
    src, dst = f"{ns1}/a", f"{ns2}/b"
    router.handle(MetaOp(kind="create", path=src, new_version=VersionStamp(1, 0)))
    for n in range(100):
        router.handle(UploadWrite(path=src, offset=0, data=b"%d" % n,
                                  base_version=VersionStamp(1, n),
                                  new_version=VersionStamp(1, n + 1)))
    router.handle(MetaOp(kind="rename", path=src, dest=dst,
                         new_version=VersionStamp(1, 101)))
    events = [e for e in
              (json.loads(line) for line in obs.tracer.to_jsonl().splitlines())
              if e.get("type") == "event"]
    (detach,) = [e for e in events if e["name"] == "server.shard.detach"]
    (attach,) = [e for e in events if e["name"] == "server.shard.attach"]
    assert detach["attrs"]["versions"] == attach["attrs"]["versions"] == 64
    assert router.store.history(dst) == [VersionStamp(1, n) for n in range(37, 101)]
    doc_trace = load_trace_lines(obs.tracer.to_jsonl().splitlines())
    results = {r.id: r for r in verify_trace(doc_trace)}
    assert results["INV-MIGRATE-SAFE"].status == "ok"


def test_shard_home_violation_is_caught():
    # Seeded mutation: note an envelope on the wrong shard. The recorded
    # shard id then disagrees with the router's home derivation.
    obs = Observability()
    router = ShardRouter(4, obs=obs)
    home = router.home_shard_index(1)
    wrong = router.shards[(home + 1) % router.n_shards]

    class _Envelope:
        msg_id = 1
        attempt = 1

    wrong._note_envelope(_Envelope(), 1, duplicate=False, home=home)
    doc_trace = load_trace_lines(obs.tracer.to_jsonl().splitlines())
    results = {r.id: r for r in verify_trace(doc_trace)}
    assert results["INV-SHARD-HOME"].status == "violated"
    assert "dedup state is split" in results["INV-SHARD-HOME"].violations[0]


def test_migration_safety_violations_are_caught():
    def _doc(records):
        return load_trace_lines(json.dumps(r) for r in records)

    detach = {"type": "event", "name": "server.shard.detach", "ts": 1.0,
              "attrs": {"path": "/u1/a", "src_shard": 0, "dst_shard": 1,
                        "reason": "rename", "versions": 3}}
    attach = {"type": "event", "name": "server.shard.attach", "ts": 2.0,
              "attrs": {"path": "/u1/a", "src_shard": 0, "dst_shard": 1,
                        "versions": 3}}

    # A clean pair verifies.
    results = {r.id: r for r in verify_trace(_doc([detach, attach]))}
    assert results["INV-MIGRATE-SAFE"].status == "ok"

    # Version loss in flight.
    lossy = dict(attach, attrs=dict(attach["attrs"], versions=1))
    results = {r.id: r for r in verify_trace(_doc([detach, lossy]))}
    assert results["INV-MIGRATE-SAFE"].status == "violated"
    assert "lost history" in results["INV-MIGRATE-SAFE"].violations[0]

    # A write landing mid-migration.
    write = {"type": "event", "name": "server.version.accepted", "ts": 1.5,
             "attrs": {"path": "/u1/a", "client": 1, "counter": 4}}
    results = {r.id: r for r in verify_trace(_doc([detach, write, attach]))}
    assert results["INV-MIGRATE-SAFE"].status == "violated"
    assert "mid-migration" in results["INV-MIGRATE-SAFE"].violations[0]

    # A detach the trace never resolves.
    results = {r.id: r for r in verify_trace(_doc([detach]))}
    assert results["INV-MIGRATE-SAFE"].status == "violated"
    assert "never" in results["INV-MIGRATE-SAFE"].violations[0]

    # An attach out of nowhere.
    results = {r.id: r for r in verify_trace(_doc([attach]))}
    assert results["INV-MIGRATE-SAFE"].status == "violated"
    assert "out of nowhere" in results["INV-MIGRATE-SAFE"].violations[0]


def test_old_format_envelopes_skip_shard_home():
    # A pre-sharding trace (envelopes without shard/home attrs) must
    # skip, not vacuously pass, the shard-home invariant.
    records = [{"type": "event", "name": "server.envelope", "ts": 1.0,
                "attrs": {"client": 1, "msg_id": 1, "attempt": 1,
                          "duplicate": False}}]
    doc_trace = load_trace_lines(json.dumps(r) for r in records)
    results = {r.id: r for r in verify_trace(doc_trace)}
    assert results["INV-SHARD-HOME"].status == "skipped"
    assert results["INV-EXACTLY-ONCE"].status == "ok"


def test_trace_records_rename_forward_event():
    obs = Observability()
    router = ShardRouter(4, obs=obs)
    ns1, ns2 = _two_namespaces(router)
    router.handle(MetaOp(kind="create", path=f"{ns1}/a",
                         new_version=VersionStamp(1, 1)))
    router.handle(MetaOp(kind="rename", path=f"{ns1}/a", dest=f"{ns2}/b",
                         new_version=VersionStamp(1, 2)))
    names = [e["name"] for e in
             (json.loads(line) for line in obs.tracer.to_jsonl().splitlines())
             if e.get("type") == "event"]
    assert "server.shard.rename_forward" in names
