"""The client's one path to the cloud: a link with ``send`` and ``call``.

DeltaCFS is NFS-like file RPC (Sections II, III): a client learns about the
cloud only from messages, so it holds a link, never the server. A link has
two operations:

- ``send(message, now)`` ships one update and returns its msg id; the
  server's replies arrive through ``on_reply`` and the delivery through
  ``on_ack``;
- ``call(request, now)`` asks one read-style RPC and returns its reply —
  the four pairs ``CloudServer.answer`` maps: ``HistoryRequest`` /
  ``HistoryResponse``, ``RestoreRequest`` / ``FileDownload``,
  ``ResyncRequest`` / ``ResyncReply`` and ``RangeRequest`` /
  ``RangeReply`` (a whole-file read is the range to :data:`TO_THE_END`).

:class:`DirectLink` sends synchronously over a perfect :class:`Channel`;
:class:`~repro.net.reliable.ReliableTransport` sends through its
envelope/ack/retry protocol. Both call alike: the request and the reply are
charged to the channel both ways, and never meet the fault plan.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence, Tuple

from repro.net.messages import Message
from repro.net.transport import Channel

#: A ``RangeRequest`` length that reads to the end of the file: the server
#: clips a range to the content, and the length is one fixed-width field.
TO_THE_END = 2**64 - 1


class Link:
    """What both links share: read-style calls and the forward subscription.

    A subclass sets ``channel``, ``server`` and ``client_id``, and
    ``last_msg_id``: the high-water mark of the server's exactly-once window
    for this client when the link was made (what recovery reads to learn
    which launched envelopes landed).
    """

    __slots__ = ()
    channel: Channel
    client_id: int
    last_msg_id: int = 0
    # Called with an update's replies, and with its msg id once delivered.
    on_reply: Optional[Callable[[Sequence[Message]], None]]
    on_ack: Optional[Callable[[int], None]]

    def call(self, request: Message, now: float) -> Message:
        """One read-style RPC: charge the request, get the server's answer,
        charge the reply, return it."""
        self.channel.upload(request, now)
        reply = self.server.answer(request, self.client_id)
        self.channel.download(reply, now)
        return reply

    def subscribe(
        self, sink: Callable[[int, Message], None], shares: Tuple[str, ...]
    ) -> None:
        """Receive forwards of other clients' updates under ``shares``."""
        self.server.register_client(self.client_id, sink, shares=shares)


class DirectLink(Link):
    """The synchronous link: charge the upload, apply, charge each reply,
    ack at once. It never joins the server's exactly-once window, so its
    ``last_msg_id`` is 0 and its msg ids only name sends to the caller."""

    # A fleet builds one per client: no per-instance dict.
    __slots__ = ("channel", "server", "client_id", "on_reply", "on_ack", "_sent")

    def __init__(self, channel: Channel, server, client_id: int = 1):
        self.channel = channel
        self.server = server
        self.client_id = client_id
        self.on_reply = self.on_ack = None
        self._sent = 0

    def send(self, message: Message, now: float) -> int:
        """Ship ``message`` and deliver its replies; returns its msg id."""
        self._sent += 1
        self.channel.upload(message, now)
        replies = self.server.handle(message, origin_client=self.client_id).replies
        for reply in replies:
            self.channel.download(reply, now)
        if self.on_ack is not None:
            self.on_ack(self._sent)
        if self.on_reply is not None:
            self.on_reply(replies)
        return self._sent

    def in_flight(self, msg_id: int) -> bool:
        """Never: a send is delivered before it returns."""
        return False
