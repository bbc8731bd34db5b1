"""Byte accounting and transfer-time modelling for a client<->server link.

Two channel flavours live here: the perfect pipe (:class:`Channel`) every
experiment used historically, and :class:`LossyChannel`, which layers a
seeded :class:`~repro.faults.network.NetworkFaults` plan on top — drops,
duplicates, reorders, and transient partitions — for the fault-tolerant
transport (``repro.net.reliable``) to fight through.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.common.rng import DeterministicRandom
from repro.cost.meter import CostMeter, NULL_METER
from repro.faults.network import NO_FAULTS, NetworkFaults
from repro.net.messages import Message
from repro.obs import NULL_OBS, Observability


@dataclass(frozen=True)
class NetworkModel:
    """Link characteristics.

    Attributes:
        bandwidth_up: client-to-server bytes/second.
        bandwidth_down: server-to-client bytes/second.
        latency: one-way propagation delay in seconds.
        encrypted: model OpenSSL on both ends (the prototype encrypts all
            messages).
    """

    bandwidth_up: float = 10e6
    bandwidth_down: float = 20e6
    latency: float = 0.02
    encrypted: bool = True


# The paper's two settings: EC2-to-EC2 (fast LAN-ish link) and a phone on a
# WAN ("the bandwidth of wide area network is very low", Section IV-B2).
PC_NETWORK = NetworkModel(bandwidth_up=10e6, bandwidth_down=20e6, latency=0.02)
MOBILE_NETWORK = NetworkModel(bandwidth_up=250e3, bandwidth_down=1e6, latency=0.08)


@dataclass
class NetworkStats:
    """Cumulative traffic counters for one link."""

    up_bytes: int = 0
    down_bytes: int = 0
    up_messages: int = 0
    down_messages: int = 0

    @property
    def total_bytes(self) -> int:
        return self.up_bytes + self.down_bytes


class Channel:
    """One client<->server link with accounting and a busy-time model.

    ``upload``/``download`` charge the traffic counters, bill network-stack
    and encryption CPU to both end meters, and advance the per-direction
    busy horizon so callers can ask "when would this transfer finish?" —
    which is how the mobile experiments exhibit their batching behaviour
    (a slow link still transmitting when the next update lands).
    """

    def __init__(
        self,
        model: NetworkModel = PC_NETWORK,
        *,
        client_meter: CostMeter = NULL_METER,
        server_meter: CostMeter = NULL_METER,
        obs: Observability = NULL_OBS,
    ):
        self.model = model
        self._encrypted = model.encrypted  # the model is frozen: read once
        self.client_meter = client_meter
        self.server_meter = server_meter
        self.obs = obs
        self.stats = NetworkStats()
        self._up_busy_until = 0.0
        self._down_busy_until = 0.0

    # -- transfers ---------------------------------------------------------

    def upload(self, message: Message, now: float = 0.0) -> float:
        """Account a client-to-server message; returns its completion time."""
        size = message.wire_size()
        self.stats.up_bytes += size
        self.stats.up_messages += 1
        self._charge(self.client_meter, "network_send", size)
        self._charge(self.server_meter, "network_recv", size)
        start = max(now, self._up_busy_until)
        self._up_busy_until = start + size / self.model.bandwidth_up
        done = self._up_busy_until + self.model.latency
        if self.obs.enabled:
            kind = type(message).__name__
            self.obs.inc("channel.up.bytes", size, type=kind)
            self.obs.inc("channel.up.messages", type=kind)
            self.obs.inc("channel.up.busy_time", self._up_busy_until - start)
            self.obs.event(
                "channel.upload",
                type=kind,
                path=getattr(message, "path", ""),
                bytes=size,
                done_at=done,
            )
        return done

    def download(self, message: Message, now: float = 0.0) -> float:
        """Account a server-to-client message; returns its completion time."""
        size = message.wire_size()
        self.stats.down_bytes += size
        self.stats.down_messages += 1
        self._charge(self.server_meter, "network_send", size)
        self._charge(self.client_meter, "network_recv", size)
        start = max(now, self._down_busy_until)
        self._down_busy_until = start + size / self.model.bandwidth_down
        done = self._down_busy_until + self.model.latency
        if self.obs.enabled:
            kind = type(message).__name__
            self.obs.inc("channel.down.bytes", size, type=kind)
            self.obs.inc("channel.down.messages", type=kind)
            self.obs.inc("channel.down.busy_time", self._down_busy_until - start)
            self.obs.event(
                "channel.download",
                type=kind,
                path=getattr(message, "path", ""),
                bytes=size,
                done_at=done,
            )
        return done

    # -- delivery-time API (the reliable transport consumes this) ----------

    def transmit_up(self, message: Message, now: float) -> List[float]:
        """Send uplink; returns the delivery time of each surviving copy.

        The perfect pipe delivers exactly one copy, on time. Lossy
        subclasses may return zero, one, or two delivery times.
        """
        return [self.upload(message, now)]

    def transmit_down(self, message: Message, now: float) -> List[float]:
        """Send downlink; returns the delivery time of each surviving copy."""
        return [self.download(message, now)]

    def upload_idle_at(self, now: float) -> bool:
        """True when the uplink has drained everything handed to it."""
        return self._up_busy_until <= now

    def download_idle_at(self, now: float) -> bool:
        """True when the downlink has drained everything handed to it."""
        return self._down_busy_until <= now

    @property
    def up_busy_until(self) -> float:
        """Virtual time at which the uplink finishes its queued transfers."""
        return self._up_busy_until

    @property
    def down_busy_until(self) -> float:
        """Virtual time at which the downlink finishes its queued transfers."""
        return self._down_busy_until

    # -- internals -----------------------------------------------------------

    def _charge(self, meter: CostMeter, category: str, size: int) -> None:
        meter.charge_bytes(category, size)
        if self._encrypted:
            meter.charge_bytes("encrypt", size)


@dataclass
class FaultStats:
    """Cumulative fault counts for one lossy link (both directions)."""

    dropped: int = 0
    duplicated: int = 0
    reordered: int = 0
    partition_drops: int = 0


class LossyChannel(Channel):
    """A :class:`Channel` whose deliveries obey a seeded fault plan.

    ``transmit_up``/``transmit_down`` first charge the transfer exactly
    like the perfect pipe (a dropped message still spent its bytes on the
    wire — that is the cost retransmission models exist to expose), then
    draw the message's fate from per-direction forked RNG streams:

    - *partition* (deterministic in virtual time): the copy is lost;
    - *drop*: the copy is lost;
    - *duplicate*: a second copy is transmitted (and charged) too;
    - *reorder*: the first copy's delivery is delayed by
      ``faults.reorder_delay`` so a later send can overtake it.

    Every message consumes exactly three fate draws per direction, so the
    fault schedule depends only on the seed and the message sequence —
    identical seeds yield identical schedules, with or without
    observability attached.
    """

    def __init__(
        self,
        model: NetworkModel = PC_NETWORK,
        *,
        faults: NetworkFaults = NO_FAULTS,
        seed: int = 0,
        client_meter: CostMeter = NULL_METER,
        server_meter: CostMeter = NULL_METER,
        obs: Observability = NULL_OBS,
    ):
        super().__init__(
            model, client_meter=client_meter, server_meter=server_meter, obs=obs
        )
        faults.validate()
        self.faults = faults
        root = DeterministicRandom(seed).fork("lossy-channel")
        self._fate_rng = {"up": root.fork("up"), "down": root.fork("down")}
        self.fault_stats = FaultStats()

    def transmit_up(self, message: Message, now: float) -> List[float]:
        return self._transmit("up", message, now)

    def transmit_down(self, message: Message, now: float) -> List[float]:
        return self._transmit("down", message, now)

    # -- internals -----------------------------------------------------------

    def _transmit(self, direction: str, message: Message, now: float) -> List[float]:
        send = self.upload if direction == "up" else self.download
        done = send(message, now)
        rng = self._fate_rng[direction]
        # Fixed draw order/count per message keeps schedules seed-stable.
        dropped = rng.random() < self.faults.drop_prob
        duplicated = rng.random() < self.faults.dup_prob
        reordered = rng.random() < self.faults.reorder_prob

        if self.faults.in_partition(now):
            self.fault_stats.partition_drops += 1
            self.obs.inc("channel.faults.partition_drops", direction=direction)
            self._note_fault(direction, "partition", message)
            return []
        if dropped:
            self.fault_stats.dropped += 1
            self.obs.inc("channel.faults.dropped", direction=direction)
            self._note_fault(direction, "drop", message)
            return []
        deliveries = [done]
        if duplicated:
            # The duplicate occupies the link again: charged, counted.
            deliveries.append(send(message, now))
            self.fault_stats.duplicated += 1
            self.obs.inc("channel.faults.duplicated", direction=direction)
            self._note_fault(direction, "duplicate", message)
        if reordered:
            deliveries[0] = done + self.faults.reorder_delay
            self.fault_stats.reordered += 1
            self.obs.inc("channel.faults.reordered", direction=direction)
            self._note_fault(direction, "reorder", message)
        return deliveries

    def _note_fault(self, direction: str, fate: str, message: Message) -> None:
        if not self.obs.enabled:
            return
        self.obs.event(
            "channel.fault",
            direction=direction,
            fate=fate,
            type=type(message).__name__,
        )
