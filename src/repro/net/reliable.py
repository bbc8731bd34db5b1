"""Reliable delivery over a lossy link: acks, retries, idempotent apply.

A :class:`~repro.net.link.DirectLink` hands each update straight to
``CloudServer.handle`` — fine over the perfect pipe, wrong the moment the
link can drop, duplicate, or reorder. :class:`ReliableTransport` is the
link that restores exactly-once *effect* over at-least-once *delivery*:

- every uplink message is wrapped in an :class:`~repro.net.messages.Envelope`
  carrying a per-client monotonic ``msg_id``;
- unacked envelopes are retransmitted after a timeout that backs off
  exponentially with seeded jitter, from a bounded in-flight window —
  messages past the window wait in an outbox, preserving send order;
- the server deduplicates retransmits by ``(origin_client, msg_id)``
  (``CloudServer.handle_envelope``).

The receiving end is its own class, :class:`ReceiveHalf`, which names no
direction. It re-sequences delivery by msg_id, so the Sync Queue's causal
FIFO order survives link reordering, and it answers on the way back in
two ways:

- an :class:`~repro.net.messages.EnvelopeAck` per *applied* envelope,
  carrying the server's replies. It retires its own envelope: the
  sender's ``on_ack`` (the journal retires the unit) and ``on_reply`` fire
  here, once per msg_id;
- an :class:`~repro.net.messages.EnvelopeSack` per delivery round that
  leaves envelopes parked behind a lost predecessor, naming them. The
  sender suspends those envelopes' timers, so one lost envelope costs one
  retransmit, not the window held behind it. A SACK never retires a held
  envelope. The next ack that retires any envelope re-arms every
  suspended timer, and a suspended timer never sleeps past
  ``RetryPolicy.max_backoff``: a lost SACK still ends in a retransmit,
  which the server's dedup window answers.

Both answers are also cumulative: ``through`` is the highest msg id the
receiver has applied together with every id below it, and the sender
retires every in-flight envelope at or below it (``on_ack`` fires, once
per id; ``on_reply`` does not). So an envelope whose own ack was lost is
retired by any later answer, not re-sent. ``through`` never passes an
applied envelope whose replies hold more than plain ``Ack`` s (a
conflict notice) while the apply side's exactly-once window still holds
it: that envelope's replies reach ``on_reply`` only through its own ack,
re-sent if need be, so each arrives exactly once.

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
from typing import Callable, Deque, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.common.rng import DeterministicRandom
from repro.net.link import Link
from repro.net.messages import Ack, Envelope, EnvelopeAck, EnvelopeSack, Message
from repro.net.transport import Channel
from repro.obs import NULL_OBS, Observability


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
    """Cumulative delivery-protocol counters for one transport
    (``sacks``: selective acks received; ``acked``: envelopes retired, of
    which ``covered`` by a later answer's ``through``)."""

    sent: int = 0
    retransmits: int = 0
    timeouts: int = 0
    acked: int = 0
    dup_acks: int = 0
    sacks: int = 0
    covered: int = 0


@dataclass
class _InFlight:
    """One unacked envelope and its retry state."""

    msg_id: int
    message: Message
    attempts: int
    first_sent: float
    next_retry_at: float
    timeout: float


#: What one direction's sender puts on the wire and the other side's
#: receiver delivers: ``(deliver_at, tiebreak, message)`` heap entries. The
#: tiebreak makes heap order — hence apply order — deterministic for equal
#: times.
Transit = List[Tuple[float, int, Message]]


class ReceiveHalf:
    """The receiving end of the envelope protocol, for either direction.

    Envelopes go through ``apply`` (which returns ``(replies, duplicate)``)
    strictly in msg-id order, starting at ``next_deliver``. One that
    overtook a lost predecessor is held in the reorder buffer until the
    gap fills. Each applied envelope is answered with an
    :class:`~repro.net.messages.EnvelopeAck`, and one already applied (a
    retransmit or a duplicate copy) with ``apply``'s cached answer, so a
    lost ack is recoverable. A delivery round that leaves envelopes held
    also sends one :class:`~repro.net.messages.EnvelopeSack` naming them.
    Answers go out on ``transmit`` (a channel's ``transmit_up`` or
    ``transmit_down``) and wait in :attr:`transit` for the sender.

    Every answer carries the cumulative ``through``. ``window`` says how
    many of the latest applied envelopes ``apply`` can still answer from
    its cache (``None``: all of them); an envelope whose replies hold more
    than plain ``Ack`` s caps ``through`` below it until it leaves that
    window.
    """

    def __init__(
        self,
        transmit: Callable[[Message, float], List[float]],
        apply: Callable[[Envelope], Tuple[Sequence[Message], bool]],
        next_deliver: int,
        window: Optional[Callable[[], int]] = None,
    ):
        self._transmit = transmit
        self._apply = apply
        self._window = window
        self.next_deliver = next_deliver
        self.held: Dict[int, Envelope] = {}
        self.transit: Transit = []
        self._seq = 0
        # Applied ids whose replies someone must read, oldest first.
        self._pinned: Deque[int] = deque()

    def deliver(self, arrivals: Iterable[Tuple[float, Envelope]]) -> None:
        """One delivery round: ``arrivals`` are ``(deliver_at, envelope)``
        in arrival order."""
        last = None
        for deliver_at, envelope in arrivals:
            last = deliver_at
            if envelope.msg_id < self.next_deliver:
                self._ack(envelope, deliver_at)
                continue
            self.held.setdefault(envelope.msg_id, envelope)
            while self.next_deliver in self.held:
                envelope = self.held.pop(self.next_deliver)
                self.next_deliver += 1
                self._ack(envelope, deliver_at)
        if last is not None and self.held:
            self._send(
                EnvelopeSack(held=tuple(sorted(self.held)), through=self._through()),
                last,
            )

    def _through(self) -> int:
        """The highest msg id applied with every id below it, held below
        the oldest applied envelope whose replies someone must read while
        ``apply`` can still answer a retransmit of it."""
        applied = self.next_deliver - 1
        pinned = self._pinned
        if pinned and self._window is not None:
            gone = applied - self._window()
            while pinned and pinned[0] <= gone:
                pinned.popleft()
        return pinned[0] - 1 if pinned else applied

    def _ack(self, envelope: Envelope, deliver_at: float) -> None:
        replies, duplicate = self._apply(envelope)
        if not duplicate and any(type(reply) is not Ack for reply in replies):
            self._pinned.append(envelope.msg_id)
        self._send(
            EnvelopeAck(
                ack_of=envelope.msg_id,
                replies=tuple(replies),
                duplicate=duplicate,
                through=self._through(),
            ),
            deliver_at,
        )

    def _send(self, message: Message, now: float) -> None:
        for arrive_at in self._transmit(message, now):
            self._seq += 1
            heapq.heappush(self.transit, (arrive_at, self._seq, message))


class ReliableTransport(Link):
    """At-least-once delivery with exactly-once effect, in virtual time.

    Args:
        channel: the (typically lossy) link; its ``transmit_up`` /
            ``transmit_down`` report per-copy delivery times.
        server: the apply endpoint (must expose ``handle_envelope``,
            ``last_msg_id``, where the msg-id sequence resumes,
            ``dedup_window_of``, which bounds how long ``through`` waits
            behind a conflict, and for the shared ``call`` / ``subscribe``,
            ``answer`` and ``register_client``).
        client_id: origin id presented to the server.
        policy: retry/backoff/window knobs.
        seed: seeds the jitter stream; identical seeds + identical sends
            yield identical retransmit schedules.
        obs: PR-1 observability sink.
        on_reply: called with the server's replies (conflict notices etc.)
            when an envelope's own ack retires it; never called twice for
            one msg_id, and not for one a later ack's ``through`` retired
            (its replies were plain ``Ack`` s).
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
        self._outbox: Deque[Tuple[int, Message]] = deque()
        self._inflight: "OrderedDict[int, _InFlight]" = OrderedDict()
        # Entries whose timers a SACK suspended, until an ack re-arms them.
        self._suspended: Dict[int, _InFlight] = {}
        self._receiver = ReceiveHalf(
            channel.transmit_down,
            lambda envelope: self.server.handle_envelope(envelope, self.client_id),
            self._next_msg_id,
            lambda: self.server.dedup_window_of(self.client_id),
        )
        self._up_transit: Transit = []
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
        if self.obs.enabled:
            # Emitted here — inside the caller's shipping span — so offline
            # analysis can join the (client, msg_id) of every later
            # (re)transmission back to the upload unit that produced it.
            self.obs.event(
                "transport.enqueued",
                client=self.client_id,
                msg_id=msg_id,
                type=type(message).__name__,
            )
        # Launch only when the window has room AND nothing is already
        # queued — anything else would overtake the outbox order.
        if not self._outbox and len(self._inflight) < self.policy.window:
            self._launch(msg_id, message, now)
        else:
            self._outbox.append((msg_id, message))
        self._note_depth()
        return msg_id

    @property
    def idle(self) -> bool:
        """True when nothing is in flight, queued, or in transit."""
        return not (
            self._inflight
            or self._outbox
            or self._up_transit
            or self._receiver.transit
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
        (the receive half acks and SACKs them), then deliver acks and SACKs
        (suspending, retiring what they name and cover, surfacing replies),
        then refill the window from the outbox, then retransmit every
        envelope whose timer expired.
        """
        self._receiver.deliver(self._arrived(self._up_transit, now))
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

    def _launch(self, msg_id: int, message: Message, now: float) -> None:
        entry = _InFlight(
            msg_id=msg_id,
            message=message,
            attempts=0,
            first_sent=now,
            next_retry_at=now,
            timeout=self.policy.base_timeout,
        )
        self._inflight[msg_id] = entry
        self._transmit(entry, now)

    def _transmit(self, entry: _InFlight, now: float) -> None:
        entry.attempts += 1
        envelope = Envelope(
            msg_id=entry.msg_id, attempt=entry.attempts, inner=entry.message
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
                client=self.client_id,
                msg_id=entry.msg_id,
                attempt=entry.attempts,
                type=type(entry.message).__name__,
            )

    @staticmethod
    def _arrived(transit: Transit, now: float) -> Iterable[Tuple[float, Message]]:
        """Pop, in arrival order, every copy in ``transit`` landed by ``now``."""
        while transit and transit[0][0] <= now:
            arrive_at, _, message = heapq.heappop(transit)
            yield arrive_at, message

    def _deliver_acks(self, now: float) -> None:
        for _, answer in self._arrived(self._receiver.transit, now):
            if type(answer) is EnvelopeSack:
                self._suspend(answer.held, now)
                self._cover(answer.through, now)
                continue
            entry = self._inflight.pop(answer.ack_of, None)
            if entry is None:
                self.stats.dup_acks += 1
                self.obs.inc("transport.dup_acks")
            else:
                self._retire(entry, now, covered=False)
                if self.on_reply is not None and answer.replies:
                    self.on_reply(answer.replies)
            covered = self._cover(answer.through, now)
            if (entry is not None or covered) and self._suspended:
                self._rearm(now)

    def _cover(self, through: int, now: float) -> int:
        """Retire every in-flight envelope at or below ``through``, oldest
        first; returns how many."""
        inflight = self._inflight
        covered = 0
        while inflight:
            msg_id = next(iter(inflight))
            if msg_id > through:
                break
            self._suspended.pop(msg_id, None)
            self._retire(inflight.pop(msg_id), now, covered=True)
            covered += 1
        return covered

    def _retire(self, entry: _InFlight, now: float, *, covered: bool) -> None:
        self.stats.acked += 1
        self.stats.covered += covered
        if self.obs.enabled:
            self.obs.inc("transport.acked")
            self.obs.event(
                "transport.ack",
                msg_id=entry.msg_id,
                attempts=entry.attempts,
                rtt=now - entry.first_sent,
                covered=covered,
            )
        if self.on_ack is not None:
            self.on_ack(entry.msg_id)

    def _suspend(self, held: Sequence[int], now: float) -> None:
        """The receiver holds ``held``: their timers wait for an ack, but
        no longer than the backoff ceiling."""
        self.stats.sacks += 1
        wake = now + self.policy.max_backoff
        for msg_id in held:
            entry = self._inflight.get(msg_id)
            if entry is not None:
                entry.next_retry_at = wake
                self._suspended[msg_id] = entry

    def _rearm(self, now: float) -> None:
        """An ack retired an envelope: restart every suspended timer at its
        timeout."""
        for entry in self._suspended.values():
            entry.next_retry_at = now + entry.timeout
        self._suspended.clear()

    def _refill_window(self, now: float) -> None:
        while self._outbox and len(self._inflight) < self.policy.window:
            msg_id, message = self._outbox.popleft()
            self._launch(msg_id, message, now)

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
                self._suspended.pop(entry.msg_id, None)
                self._transmit(entry, now)

    def _note_depth(self) -> None:
        if self.obs.enabled:
            self.obs.set_gauge("transport.inflight", len(self._inflight))
            self.obs.set_gauge("transport.outbox", len(self._outbox))
