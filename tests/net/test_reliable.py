"""Tests for the reliable delivery protocol (acks, retries, dedup, order)."""

import pytest

from repro.common.clock import VirtualClock
from repro.common.version import VersionStamp
from repro.faults.network import NetworkFaults
from repro.net.messages import (
    ConflictNotice,
    Envelope,
    EnvelopeAck,
    EnvelopeSack,
    MetaOp,
    UploadWrite,
)
from repro.net.reliable import ReceiveHalf, ReliableTransport, RetryPolicy
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


class _Scripted(Channel):
    """A scripted fault plan over the perfect pipe: the first copy of each
    msg id in ``drop_first`` is lost on the uplink, and every downlink
    answer for which ``drop_down(answer, sent_at)`` is true."""

    def __init__(self, drop_first=(), drop_down=lambda answer, sent_at: False):
        super().__init__(model=FAST)
        self.drop_first = set(drop_first)
        self.drop_down = drop_down

    def transmit_up(self, envelope, now):
        delivered = super().transmit_up(envelope, now)
        if envelope.msg_id in self.drop_first:
            self.drop_first.discard(envelope.msg_id)
            return []
        return delivered

    def transmit_down(self, answer, now):
        delivered = super().transmit_down(answer, now)
        return [] if self.drop_down(answer, now) else delivered


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


class TestReceiveHalf:
    """The receiving end alone: no sender, no server, no direction."""

    def test_holds_past_a_gap_applies_in_order_and_sacks_what_it_holds(self):
        applied, sent = [], []

        def transmit(answer, now):
            sent.append((now, answer))
            return [now + 0.01]

        def apply(envelope):
            applied.append(envelope.msg_id)
            return [], False

        def envelope(msg_id):
            return Envelope(msg_id=msg_id, attempt=1, inner=MetaOp(kind="create", path="/f"))

        half = ReceiveHalf(transmit, apply, next_deliver=1)
        half.deliver([(1.0, envelope(2)), (1.5, envelope(4))])
        assert applied == [] and sorted(half.held) == [2, 4]
        assert sent == [(1.5, EnvelopeSack(held=(2, 4)))]

        sent.clear()
        half.deliver([(2.0, envelope(1)), (2.5, envelope(2))])  # the hole, then a duplicate
        assert applied == [1, 2, 2] and sorted(half.held) == [4]
        assert [(at, type(answer).__name__, getattr(answer, "ack_of", None)) for at, answer in sent] == [
            (2.0, "EnvelopeAck", 1), (2.0, "EnvelopeAck", 2), (2.5, "EnvelopeAck", 2), (2.5, "EnvelopeSack", None),
        ]
        assert half.next_deliver == 3 and len(half.transit) == 5  # nothing collected them

        sent.clear()
        half.deliver([])  # a round with no arrival says nothing
        assert sent == []


class TestSelectiveAck:
    """The receiver's SACK of held envelopes stops their timers, never
    retires them, and never costs liveness."""

    def test_one_drop_in_a_full_window_costs_one_retransmit(self):
        # Msg 1 of a full window is lost; the 31 behind it arrive and are
        # held. Their SACK stops their timers, so only the hole is re-sent.
        transport, server = _transport(channel=_Scripted(drop_first={1}))
        clock = VirtualClock()
        window = transport.policy.window
        for i in range(window):
            transport.send(MetaOp(kind="create", path=f"/f{i}"), clock.now())
        assert transport.inflight_depth == window
        transport.settle(clock)
        assert [msg_id for _, msg_id, _ in transport.retransmit_log] == [1]
        assert transport.stats.retransmits == 1
        assert transport.stats.acked == window
        assert transport.stats.sacks >= 1
        assert server.dedup_drops == 0

    def _conflicting_sends(self, transport, clock):
        v1, v2, v3 = VersionStamp(1, 1), VersionStamp(1, 2), VersionStamp(1, 3)
        transport.send(MetaOp(kind="create", path="/f", new_version=v1), clock.now())
        transport.send(_write(base=v1, new=v2), clock.now())
        transport.send(_write(data=b"late", base=v1, new=v3), clock.now())  # loses

    def test_every_ack_and_sack_lost_after_a_gap_still_settles(self):
        # Msg 1 is lost, and so is every ack and SACK sent in the first
        # 40 s: no timer is suspended, and once the downlink heals the
        # retransmits are answered from the server's dedup window.
        channel = _Scripted(drop_first={1}, drop_down=lambda answer, at: at < 40.0)
        seen = []
        transport, server = _transport(channel=channel, on_reply=seen.extend)
        clock = VirtualClock()
        self._conflicting_sends(transport, clock)
        transport.settle(clock)
        assert transport.idle and clock.now() > 40.0
        assert transport.stats.acked == 3
        assert sum(isinstance(reply, ConflictNotice) for reply in seen) == 1
        assert server.dedup_drops > 0

    def test_a_suspended_timer_wakes_by_the_backoff_ceiling(self):
        # The SACK lands but every apply-ack of the first 20 s is lost:
        # nothing re-arms the held envelopes' timers, and they are re-sent
        # max_backoff after their SACK, not at their own timeout, not never.
        channel = _Scripted(
            drop_first={1},
            drop_down=lambda answer, at: isinstance(answer, EnvelopeAck) and at < 20.0,
        )
        seen = []
        transport, server = _transport(
            channel=channel, policy=RetryPolicy(max_backoff=4.0), on_reply=seen.extend
        )
        acked = []
        transport.on_ack = acked.append
        clock = VirtualClock()
        self._conflicting_sends(transport, clock)
        _drive(transport, clock, 0.25)  # msgs 2 and 3 held; their SACK lands
        assert transport.stats.sacks == 1
        sacked_at = clock.now()
        _drive(transport, clock, 6.0)
        first = {}
        for at, msg_id, _ in transport.retransmit_log:
            first.setdefault(msg_id, at)
        assert sacked_at + 4.0 <= first[2] == first[3] <= sacked_at + 4.25
        transport.settle(clock)
        assert sorted(acked) == [1, 2, 3]
        assert sum(isinstance(reply, ConflictNotice) for reply in seen) == 1

    def test_a_sack_never_retires_a_held_envelope(self):
        channel = _Scripted(drop_first={1})
        transport, _ = _transport(channel=channel)
        acked, seen = [], []
        transport.on_ack, transport.on_reply = acked.append, seen.extend
        clock = VirtualClock()
        self._conflicting_sends(transport, clock)
        _drive(transport, clock, 0.5)  # the SACK lands; msg 1 is not yet re-sent
        assert transport.stats.sacks == 1 and not transport.retransmit_log
        assert acked == [] and seen == []
        assert all(transport.in_flight(msg_id) for msg_id in (1, 2, 3))
        transport.settle(clock)
        assert acked == [1, 2, 3]

    def test_a_held_unit_stays_journaled_until_its_apply_ack(self):
        from repro.core.client import DeltaCFSClient
        from repro.kvstore.kv import MemoryKV
        from repro.vfs.filesystem import MemoryFileSystem

        server, channel, clock = CloudServer(), _Scripted(drop_first={1}), VirtualClock()
        transport = ReliableTransport(channel, server)
        client = DeltaCFSClient(
            MemoryFileSystem(), server=server, channel=channel, clock=clock,
            transport=transport, journal_kv=MemoryKV(),
        )
        for i in range(3):
            client.create(f"/f{i}")
            client.write(f"/f{i}", 0, b"x" * 10)
            client.close(f"/f{i}")
        while not transport.stats.sacks:
            clock.advance(0.25)
            client.pump(clock.now())
        assert not transport.retransmit_log
        held = [msg_id for msg_id, _ in client.journal.load().units]
        assert len(held) > 1 and held == sorted(held)
        assert all(transport.in_flight(msg_id) for msg_id in held)
        transport.settle(clock)
        client.pump(clock.now())
        assert client.journal.load().units == []
        assert transport.stats.retransmits == 1


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
