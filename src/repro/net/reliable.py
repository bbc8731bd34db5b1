"""Reliable delivery over a lossy link: acks, retries, idempotent apply.

A :class:`~repro.net.link.DirectLink` hands each update straight to
``CloudServer.handle`` — fine over the perfect pipe, wrong the moment the
link can drop, duplicate, or reorder. :class:`ReliableTransport` is the
link that restores exactly-once *effect* over at-least-once *delivery*:

- every uplink message is wrapped in an :class:`~repro.net.messages.Envelope`
  carrying a per-client monotonic ``msg_id``;
- the server acks each envelope with an
  :class:`~repro.net.messages.EnvelopeAck` that carries its replies, and
  deduplicates retransmits by ``(origin_client, msg_id)``
  (``CloudServer.handle_envelope``);
- unacked envelopes are retransmitted after a timeout that backs off
  exponentially with seeded jitter, from a bounded in-flight window —
  messages past the window wait in an outbox, preserving send order;
- delivery is re-sequenced by msg_id before application: an envelope that
  overtakes a lost predecessor parks (unacked) until the gap fills, so the
  Sync Queue's causal FIFO order survives link reordering.

Its read-style ``call`` and its ``subscribe`` are the ones every link
shares (:class:`~repro.net.link.Link`): charged, not faulted.

Everything runs in virtual time: ``pump(now)`` delivers whatever the
channel says has arrived by ``now``, fires acks, refills the window, and
retransmits expired timers. All randomness (jitter) comes from a forked
:class:`~repro.common.rng.DeterministicRandom` stream, so identical seeds
produce identical retransmit schedules.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.common.rng import DeterministicRandom
from repro.net.link import Link
from repro.net.messages import Envelope, EnvelopeAck, Message
from repro.net.transport import Channel
from repro.obs import NULL_OBS, Observability
from repro.obs.tracer import TraceContext


@dataclass(frozen=True)
class RetryPolicy:
    """Timeout/backoff/window knobs for one reliable transport.

    Attributes:
        base_timeout: seconds to wait for the first ack.
        backoff: multiplier applied to the timeout per retransmission.
        max_backoff: ceiling on the backed-off timeout.
        jitter: fraction of the timeout added as seeded random slack
            (decorrelates retransmit storms).
        window: maximum envelopes in flight at once.
        max_attempts: give up (raise) after this many transmissions of
            one envelope — only reachable under a plan that never heals.
    """

    base_timeout: float = 1.0
    backoff: float = 2.0
    max_backoff: float = 30.0
    jitter: float = 0.1
    window: int = 32
    max_attempts: int = 100

    def validate(self) -> None:
        """Raise ``ValueError`` on a nonsensical policy."""
        if self.base_timeout <= 0:
            raise ValueError("base_timeout must be positive")
        if self.backoff < 1.0:
            raise ValueError("backoff must be >= 1.0")
        if self.max_backoff < self.base_timeout:
            raise ValueError("max_backoff must be >= base_timeout")
        if self.jitter < 0:
            raise ValueError("jitter must be non-negative")
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")

    def timeout_for(self, attempt: int) -> float:
        """Deterministic (pre-jitter) timeout for transmission ``attempt``."""
        return min(
            self.base_timeout * self.backoff ** (attempt - 1), self.max_backoff
        )


@dataclass
class TransportStats:
    """Cumulative delivery-protocol counters for one transport."""

    sent: int = 0
    retransmits: int = 0
    timeouts: int = 0
    acked: int = 0
    dup_acks: int = 0


@dataclass
class _InFlight:
    """One unacked envelope and its retry state."""

    msg_id: int
    message: Message
    attempts: int
    first_sent: float
    next_retry_at: float
    timeout: float
    ctx: Optional[TraceContext] = None  # sender-side span identity, uncosted


class ReliableTransport(Link):
    """At-least-once delivery with exactly-once effect, in virtual time.

    Args:
        channel: the (typically lossy) link; its ``transmit_up`` /
            ``transmit_down`` report per-copy delivery times.
        server: the apply endpoint (must expose ``handle_envelope`` and
            ``last_msg_id``, where the msg-id sequence resumes, and for the
            shared ``call`` / ``subscribe``, ``answer`` and
            ``register_client``).
        client_id: origin id presented to the server.
        policy: retry/backoff/window knobs.
        seed: seeds the jitter stream; identical seeds + identical sends
            yield identical retransmit schedules.
        obs: PR-1 observability sink.
        on_reply: called once per acked envelope with the server's replies
            (conflict notices etc.); never called twice for one msg_id.
    """

    def __init__(
        self,
        channel: Channel,
        server,
        *,
        client_id: int = 1,
        policy: Optional[RetryPolicy] = None,
        seed: int = 0,
        obs: Observability = NULL_OBS,
        on_reply: Optional[Callable[[Sequence[Message]], None]] = None,
    ):
        self.channel = channel
        self.server = server
        self.client_id = client_id
        self.policy = policy if policy is not None else RetryPolicy()
        self.policy.validate()
        self.seed = seed
        self.obs = obs
        self.on_reply = on_reply
        self.on_ack: Optional[Callable[[int], None]] = None
        self.stats = TransportStats()
        self._jitter_rng = DeterministicRandom(seed).fork("reliable-transport")
        # Ids continue after the last one the server's exactly-once window
        # holds for this client (0 on a fresh server): a restarted client's
        # envelopes are never mistaken for retransmits of its predecessor's.
        self.last_msg_id = server.last_msg_id(client_id)
        self._next_msg_id = self.last_msg_id + 1
        self._outbox: Deque[Tuple[int, Message, Optional[TraceContext]]] = deque()
        self._inflight: "OrderedDict[int, _InFlight]" = OrderedDict()
        # In-order apply: envelopes that arrived ahead of a gap (a lost
        # lower msg_id still being retransmitted) park here unacked until
        # the gap fills — the sync protocol's causal FIFO guarantee must
        # survive link reordering.
        self._reorder_buffer: Dict[int, Envelope] = {}
        self._next_deliver = self._next_msg_id
        # Transit heaps: (deliver_at, tiebreak, payload). The tiebreak makes
        # heap order — hence apply order — deterministic for equal times.
        self._up_transit: List[Tuple[float, int, Envelope]] = []
        self._down_transit: List[Tuple[float, int, EnvelopeAck]] = []
        self._transit_seq = 0
        # (send_time, msg_id, attempt) per retransmission — the schedule
        # identity the determinism tests assert on.
        self.retransmit_log: List[Tuple[float, int, int]] = []

    # -- sending -------------------------------------------------------------

    def send(self, message: Message, now: float) -> int:
        """Queue one message for reliable delivery; returns its msg_id.

        Launches immediately if the in-flight window has room, otherwise
        parks the message in the outbox (drained by :meth:`pump`).
        """
        msg_id = self._next_msg_id
        self._next_msg_id += 1
        # Capture the caller's span identity once, at enqueue time: every
        # later (re)transmission of this msg_id carries the same causal
        # origin, so the server's apply span links back to the client span
        # that produced the message even when only a retransmit survives.
        ctx = self.obs.current_context() if self.obs.enabled else None
        if self.obs.enabled:
            # Emitted here — inside the caller's shipping span — so offline
            # analysis can join the msg_id of every later (re)transmission
            # back to the upload unit that produced the message.
            self.obs.event(
                "transport.enqueued", msg_id=msg_id, type=type(message).__name__
            )
        # Launch only when the window has room AND nothing is already
        # queued — anything else would overtake the outbox order.
        if not self._outbox and len(self._inflight) < self.policy.window:
            self._launch(msg_id, message, now, ctx)
        else:
            self._outbox.append((msg_id, message, ctx))
        self._note_depth()
        return msg_id

    @property
    def idle(self) -> bool:
        """True when nothing is in flight, queued, or in transit."""
        return not (
            self._inflight or self._outbox or self._up_transit or self._down_transit
        )

    @property
    def inflight_depth(self) -> int:
        return len(self._inflight)

    def in_flight(self, msg_id: int) -> bool:
        """True while ``msg_id`` has been transmitted and is not yet acked."""
        return msg_id in self._inflight

    # -- the pump ------------------------------------------------------------

    def pump(self, now: float) -> None:
        """Advance the protocol to virtual time ``now``.

        Order matters and is fixed: deliver uplink copies that have arrived
        (the server acks each), then deliver acks (retiring in-flight
        entries and surfacing replies), then refill the window from the
        outbox, then retransmit every envelope whose timer expired.
        """
        self._deliver_uplink(now)
        self._deliver_acks(now)
        self._refill_window(now)
        self._retransmit_due(now)
        self._note_depth()

    def settle(
        self, clock, *, step: float = 0.5, max_wait: float = 3600.0
    ) -> None:
        """Advance ``clock`` and pump until the transport drains.

        Raises ``RuntimeError`` if ``max_wait`` virtual seconds pass
        without convergence (a fault plan that never heals).
        """
        deadline = clock.now() + max_wait
        self.pump(clock.now())
        while not self.idle:
            if clock.now() >= deadline:
                raise RuntimeError(
                    f"transport failed to settle within {max_wait}s: "
                    f"{len(self._inflight)} in flight, "
                    f"{len(self._outbox)} queued"
                )
            clock.advance(step)
            self.pump(clock.now())

    # -- internals -----------------------------------------------------------

    def _launch(
        self,
        msg_id: int,
        message: Message,
        now: float,
        ctx: Optional[TraceContext] = None,
    ) -> None:
        entry = _InFlight(
            msg_id=msg_id,
            message=message,
            attempts=0,
            first_sent=now,
            next_retry_at=now,
            timeout=self.policy.base_timeout,
            ctx=ctx,
        )
        self._inflight[msg_id] = entry
        self._transmit(entry, now)

    def _transmit(self, entry: _InFlight, now: float) -> None:
        entry.attempts += 1
        envelope = Envelope(
            msg_id=entry.msg_id,
            attempt=entry.attempts,
            inner=entry.message,
            ctx=entry.ctx,
        )
        for deliver_at in self.channel.transmit_up(envelope, now):
            self._transit_seq += 1
            heapq.heappush(
                self._up_transit, (deliver_at, self._transit_seq, envelope)
            )
        self.stats.sent += 1
        timeout = self.policy.timeout_for(entry.attempts)
        timeout *= 1.0 + self.policy.jitter * self._jitter_rng.random()
        entry.timeout = timeout
        entry.next_retry_at = now + timeout
        if self.obs.enabled:
            self.obs.inc("transport.sent")
            self.obs.event(
                "transport.send",
                msg_id=entry.msg_id,
                attempt=entry.attempts,
                type=type(entry.message).__name__,
            )

    def _deliver_uplink(self, now: float) -> None:
        while self._up_transit and self._up_transit[0][0] <= now:
            deliver_at, _, envelope = heapq.heappop(self._up_transit)
            if envelope.msg_id < self._next_deliver:
                # Already applied — the server's dedup cache answers, and
                # the (possibly lost) original ack is re-sent.
                self._apply_and_ack(envelope, deliver_at)
                continue
            self._reorder_buffer.setdefault(envelope.msg_id, envelope)
            while self._next_deliver in self._reorder_buffer:
                ready = self._reorder_buffer.pop(self._next_deliver)
                self._apply_and_ack(ready, deliver_at)
                self._next_deliver += 1

    def _apply_and_ack(self, envelope: Envelope, deliver_at: float) -> None:
        replies, duplicate = self.server.handle_envelope(envelope, self.client_id)
        ack = EnvelopeAck(
            ack_of=envelope.msg_id, replies=tuple(replies), duplicate=duplicate
        )
        for ack_at in self.channel.transmit_down(ack, deliver_at):
            self._transit_seq += 1
            heapq.heappush(self._down_transit, (ack_at, self._transit_seq, ack))

    def _deliver_acks(self, now: float) -> None:
        while self._down_transit and self._down_transit[0][0] <= now:
            _, _, ack = heapq.heappop(self._down_transit)
            entry = self._inflight.pop(ack.ack_of, None)
            if entry is None:
                self.stats.dup_acks += 1
                self.obs.inc("transport.dup_acks")
                continue
            self.stats.acked += 1
            if self.obs.enabled:
                self.obs.inc("transport.acked")
                self.obs.event(
                    "transport.ack",
                    msg_id=entry.msg_id,
                    attempts=entry.attempts,
                    rtt=now - entry.first_sent,
                )
            if self.on_ack is not None:
                self.on_ack(entry.msg_id)
            if self.on_reply is not None and ack.replies:
                self.on_reply(ack.replies)

    def _refill_window(self, now: float) -> None:
        while self._outbox and len(self._inflight) < self.policy.window:
            msg_id, message, ctx = self._outbox.popleft()
            self._launch(msg_id, message, now, ctx)

    def _retransmit_due(self, now: float) -> None:
        due = [e for e in self._inflight.values() if e.next_retry_at <= now]
        if not due:
            return
        with self.obs.span("transport.retransmit_round", due=len(due)):
            for entry in due:
                if entry.attempts >= self.policy.max_attempts:
                    raise RuntimeError(
                        f"msg {entry.msg_id} unacked after "
                        f"{entry.attempts} attempts"
                    )
                self.stats.timeouts += 1
                self.stats.retransmits += 1
                if self.obs.enabled:
                    self.obs.inc("transport.timeouts")
                    self.obs.inc("transport.retries")
                    self.obs.event(
                        "transport.timeout",
                        msg_id=entry.msg_id,
                        attempt=entry.attempts,
                        waited=entry.timeout,
                    )
                self.retransmit_log.append((now, entry.msg_id, entry.attempts + 1))
                self._transmit(entry, now)

    def _note_depth(self) -> None:
        if self.obs.enabled:
            self.obs.set_gauge("transport.inflight", len(self._inflight))
            self.obs.set_gauge("transport.outbox", len(self._outbox))
