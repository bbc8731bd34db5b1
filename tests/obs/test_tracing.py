"""One tracer over a lossy reliable transport into a sharded cloud: the
client side and the cloud record into the same trace, and the offline
analyzer reads it back byte-exactly.

A cross-shard rename travels a lossy link, so the recording holds
retransmits, fault-plan duplicates and a ``server.shard.route`` span.
"""

import json

from repro.common.clock import VirtualClock
from repro.common.version import VersionStamp
from repro.faults.network import NetworkFaults
from repro.net.messages import MetaOp, UploadWrite
from repro.net.reliable import ReliableTransport, RetryPolicy
from repro.net.transport import LossyChannel
from repro.obs import Observability
from repro.obs.analyze import attribute_uplink, load_trace_lines
from repro.obs.export import chrome_trace_events, snapshot_record
from repro.server.shard import ShardRouter


def _two_namespaces(router):
    seen = {}
    for i in range(200):
        ns = f"/u{i}"
        seen.setdefault(router.shard_index_for_path(ns + "/f"), ns)
        if len(seen) >= 2:
            return list(seen.values())[:2]
    raise AssertionError("ring degenerated onto one shard")


def _record_cross_shard_session():
    """Record one lossy cross-shard session; returns its JSONL lines."""
    clock = VirtualClock()
    obs = Observability(clock=clock)
    router = ShardRouter(4, obs=obs)
    ns1, ns2 = _two_namespaces(router)
    channel = LossyChannel(
        faults=NetworkFaults(drop_prob=0.3, dup_prob=0.15), seed=1, obs=obs
    )
    transport = ReliableTransport(
        channel, router, client_id=1,
        policy=RetryPolicy(base_timeout=0.5), seed=1, obs=obs,
    )

    src, dst = f"{ns1}/move.bin", f"{ns2}/moved.bin"

    def ship(message):
        with obs.span(
            "client.upload_unit",
            nodes=1,
            transactional=False,
            paths=[message.path],
            member_bytes=[message.wire_size()],
        ):
            transport.send(message, clock.now())
        transport.settle(clock)

    with obs.span("run", solution="deltacfs", trace="cross-shard"):
        ship(MetaOp(kind="create", path=src, new_version=VersionStamp(1, 1)))
        ship(UploadWrite(path=src, offset=0, data=b"PAYLOAD!",
                         base_version=VersionStamp(1, 1),
                         new_version=VersionStamp(1, 2)))
        ship(MetaOp(kind="rename", path=src, dest=dst,
                    new_version=VersionStamp(1, 3)))

    assert router.cross_shard_renames == 1, "scenario must cross shards"
    assert transport.stats.retransmits > 0, "lossy plan must retransmit"
    lines = obs.tracer.to_jsonl().splitlines()
    lines.append(json.dumps(snapshot_record(obs.metrics, clock.now())))
    return lines, channel


class TestOneTracer:
    def test_lossy_cross_shard_attribution_is_byte_exact(self):
        lines, channel = _record_cross_shard_session()
        doc = load_trace_lines(lines)
        attribution = attribute_uplink(doc)
        # raises on any drift vs the channel.upload events and snapshot
        attribution.reconcile(expected_up_bytes=channel.stats.up_bytes)
        assert attribution.by_mechanism().get("retransmit_overhead", 0) > 0
        assert doc.find_spans("server.shard.route")

    def test_chrome_export_is_one_process_without_flows(self):
        lines, _ = _record_cross_shard_session()
        events = chrome_trace_events(json.loads(line) for line in lines)
        assert events
        assert all(ev["ph"] in ("B", "E", "i") for ev in events)
        assert {(ev["pid"], ev["tid"]) for ev in events} == {(1, 1)}
