"""Tests for the reliable delivery protocol (acks, retries, dedup, order)."""

import pytest

from repro.common.clock import VirtualClock
from repro.faults.network import NetworkFaults
from repro.net.messages import MetaOp, UploadWrite
from repro.net.reliable import ReliableTransport, RetryPolicy
from repro.net.transport import Channel, LossyChannel, NetworkModel
from repro.server.cloud import CloudServer

FAST = NetworkModel(bandwidth_up=1e9, bandwidth_down=1e9, latency=0.01)


def _write(path="/f", data=b"hello", base=None, new=None):
    from repro.common.version import VersionCounter

    new = new if new is not None else VersionCounter(1).next()
    return UploadWrite(
        path=path, offset=0, data=data, base_version=base, new_version=new
    )


def _transport(channel=None, server=None, **kwargs):
    server = server if server is not None else CloudServer()
    channel = channel if channel is not None else Channel(model=FAST)
    return ReliableTransport(channel, server, **kwargs), server


def _drive(transport, clock, seconds, step=0.25):
    end = clock.now() + seconds
    while clock.now() < end:
        clock.advance(step)
        transport.pump(clock.now())


class TestHappyPath:
    def test_send_applies_and_acks(self):
        transport, server = _transport()
        clock = VirtualClock()
        transport.send(MetaOp(kind="create", path="/f"), clock.now())
        _drive(transport, clock, 1.0)
        assert transport.idle
        assert transport.stats.acked == 1
        assert transport.stats.retransmits == 0
        assert server.store.exists("/f")

    def test_replies_surface_exactly_once(self):
        seen = []
        transport, server = _transport(on_reply=lambda rs: seen.extend(rs))
        clock = VirtualClock()
        transport.send(MetaOp(kind="create", path="/f"), clock.now())
        transport.send(_write(), clock.now())
        _drive(transport, clock, 2.0)
        # the applied write's server Ack surfaces exactly once
        assert len(seen) == 1
        _drive(transport, clock, 2.0)  # further pumping resurfaces nothing
        assert len(seen) == 1

    def test_on_ack_names_each_msg_id_once_even_under_duplication(self):
        # The journal retires a unit's records from this callback: once per
        # envelope, with the id send() returned, however many acks arrive.
        channel = LossyChannel(model=FAST, faults=NetworkFaults(dup_prob=0.9), seed=1)
        transport, server = _transport(channel=channel)
        acked = []
        transport.on_ack = acked.append
        clock = VirtualClock()
        sent = [
            transport.send(MetaOp(kind="create", path=f"/f{i}"), clock.now())
            for i in range(5)
        ]
        assert acked == []  # nothing is the server's before its ack lands
        transport.settle(clock)
        assert acked == sent == [1, 2, 3, 4, 5]
        assert transport.stats.dup_acks > 0

    def test_in_flight_means_transmitted_and_unacked(self):
        transport, _ = _transport(policy=RetryPolicy(window=1))
        clock = VirtualClock()
        first = transport.send(MetaOp(kind="create", path="/a"), clock.now())
        parked = transport.send(MetaOp(kind="create", path="/b"), clock.now())
        assert transport.in_flight(first) and not transport.in_flight(parked)
        _drive(transport, clock, 0.25)  # one pump: first acked, outbox refills
        assert not transport.in_flight(first) and transport.in_flight(parked)
        transport.settle(clock)
        assert not transport.in_flight(parked)

    def test_settle_drains(self):
        transport, server = _transport()
        clock = VirtualClock()
        for i in range(10):
            transport.send(MetaOp(kind="create", path=f"/f{i}"), clock.now())
        transport.settle(clock)
        assert transport.idle
        assert transport.stats.acked == 10


class TestRetry:
    def test_lost_message_retransmitted(self):
        channel = LossyChannel(
            model=FAST, faults=NetworkFaults(drop_prob=0.4), seed=11
        )
        transport, server = _transport(channel=channel, seed=11)
        clock = VirtualClock()
        for i in range(20):
            transport.send(MetaOp(kind="create", path=f"/f{i}"), clock.now())
        transport.settle(clock)
        assert transport.stats.retransmits > 0
        assert transport.stats.acked == 20
        for i in range(20):
            assert server.store.exists(f"/f{i}")

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(base_timeout=1.0, backoff=2.0, max_backoff=4.0)
        assert policy.timeout_for(1) == 1.0
        assert policy.timeout_for(2) == 2.0
        assert policy.timeout_for(3) == 4.0
        assert policy.timeout_for(10) == 4.0  # capped

    def test_gives_up_after_max_attempts(self):
        # a partition that never heals: every copy is swallowed
        channel = LossyChannel(
            model=FAST, faults=NetworkFaults(partitions=((0.0, 1e9),)), seed=1
        )
        policy = RetryPolicy(base_timeout=0.1, max_backoff=0.1, max_attempts=3)
        transport, _ = _transport(channel=channel, policy=policy)
        clock = VirtualClock()
        transport.send(MetaOp(kind="create", path="/f"), clock.now())
        with pytest.raises(RuntimeError):
            _drive(transport, clock, 60.0)

    def test_settle_raises_when_link_never_heals(self):
        channel = LossyChannel(
            model=FAST, faults=NetworkFaults(partitions=((0.0, 1e9),)), seed=1
        )
        # high max_attempts so the settle deadline fires first
        policy = RetryPolicy(max_attempts=10_000)
        transport, _ = _transport(channel=channel, policy=policy)
        clock = VirtualClock()
        transport.send(MetaOp(kind="create", path="/f"), clock.now())
        with pytest.raises(RuntimeError):
            transport.settle(clock, max_wait=120.0)


class TestWindow:
    def test_excess_sends_wait_in_outbox(self):
        policy = RetryPolicy(window=2)
        transport, _ = _transport(policy=policy)
        clock = VirtualClock()
        for i in range(5):
            transport.send(MetaOp(kind="create", path=f"/f{i}"), clock.now())
        assert transport.inflight_depth == 2
        transport.settle(clock)
        assert transport.stats.acked == 5

    def test_send_never_overtakes_outbox(self):
        policy = RetryPolicy(window=1)
        server = CloudServer()
        transport, _ = _transport(server=server, policy=policy)
        clock = VirtualClock()
        transport.send(MetaOp(kind="create", path="/a"), clock.now())
        transport.send(MetaOp(kind="create", path="/b"), clock.now())
        transport.send(MetaOp(kind="unlink", path="/b"), clock.now())
        transport.settle(clock)
        # /b's create must have applied before its unlink
        assert not server.store.exists("/b")
        assert server.store.exists("/a")


class TestInOrderDelivery:
    def test_reordered_envelopes_apply_in_msg_id_order(self):
        # heavy reordering: later envelopes routinely arrive first
        channel = LossyChannel(
            model=FAST,
            faults=NetworkFaults(reorder_prob=0.6, reorder_delay=1.0),
            seed=5,
        )
        server = CloudServer()
        transport, _ = _transport(channel=channel, server=server, seed=5)
        clock = VirtualClock()
        # create /f then rename it away, then recreate: any inversion of
        # these meta ops leaves the namespace wrong
        transport.send(MetaOp(kind="create", path="/f"), clock.now())
        transport.send(MetaOp(kind="rename", path="/f", dest="/g"), clock.now())
        transport.send(MetaOp(kind="create", path="/f"), clock.now())
        transport.send(MetaOp(kind="unlink", path="/g"), clock.now())
        transport.settle(clock)
        assert server.store.exists("/f")
        assert not server.store.exists("/g")

    def test_duplicates_do_not_reapply(self):
        channel = LossyChannel(
            model=FAST, faults=NetworkFaults(dup_prob=1.0), seed=2
        )
        server = CloudServer()
        transport, _ = _transport(channel=channel, server=server)
        clock = VirtualClock()
        transport.send(MetaOp(kind="create", path="/f"), clock.now())
        transport.send(_write(base=None), clock.now())
        transport.settle(clock)
        assert server.dedup_drops > 0
        # every duplicate was answered from the cache, never re-applied
        applied = [r for r in server.apply_log if r.status == "applied"]
        assert len(applied) == 2


class TestPartitionHealing:
    def test_messages_resent_after_partition(self):
        faults = NetworkFaults(partitions=((0.0, 5.0),))
        channel = LossyChannel(model=FAST, faults=faults, seed=1)
        server = CloudServer()
        transport, _ = _transport(channel=channel, server=server)
        clock = VirtualClock()
        transport.send(MetaOp(kind="create", path="/f"), clock.now())
        transport.settle(clock)
        assert server.store.exists("/f")
        assert transport.stats.retransmits > 0


class TestDeterminism:
    def _run(self, seed):
        faults = NetworkFaults(drop_prob=0.25, dup_prob=0.1, reorder_prob=0.1)
        channel = LossyChannel(model=FAST, faults=faults, seed=seed)
        server = CloudServer()
        transport = ReliableTransport(channel, server, seed=seed)
        clock = VirtualClock()
        for i in range(30):
            transport.send(MetaOp(kind="create", path=f"/f{i}"), clock.now())
            clock.advance(0.1)
            transport.pump(clock.now())
        transport.settle(clock)
        return transport.retransmit_log, (
            channel.stats.up_bytes,
            channel.stats.down_bytes,
            channel.stats.up_messages,
            channel.stats.down_messages,
        )

    def test_identical_seeds_identical_schedules(self):
        log_a, stats_a = self._run(42)
        log_b, stats_b = self._run(42)
        assert log_a == log_b
        assert stats_a == stats_b
        assert log_a  # the schedule actually exercised retransmission

    def test_different_seeds_differ(self):
        log_a, _ = self._run(42)
        log_b, _ = self._run(43)
        assert log_a != log_b


class TestPolicyValidation:
    def test_bad_policies_rejected(self):
        for bad in (
            RetryPolicy(base_timeout=0.0),
            RetryPolicy(backoff=0.5),
            RetryPolicy(max_backoff=0.5),
            RetryPolicy(jitter=-0.1),
            RetryPolicy(window=0),
            RetryPolicy(max_attempts=0),
        ):
            with pytest.raises(ValueError):
                bad.validate()
