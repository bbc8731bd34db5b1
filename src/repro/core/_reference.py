"""The Sync Queue's per-node ship path, kept as an oracle.

:func:`next_unit` ships one upload unit per call and rebuilds the
backing list per shipped span; the client pump ships through
:meth:`repro.core.sync_queue.SyncQueue.drain_due`, one sweep per
wakeup. As with :mod:`repro.chunking._reference`, nothing in the
production pipeline imports it: the parity tests hold ``drain_due`` to
it unit for unit and event for event, and the ``queue_drain`` lane of
:mod:`repro.harness.wallclock` times it as the slow side.
"""

from __future__ import annotations

from typing import Optional

from repro.core.sync_queue import SyncQueue, UploadUnit, WriteNode


def next_unit(queue: SyncQueue, now: float) -> Optional[UploadUnit]:
    """The next FIFO upload unit of ``queue`` whose delay has elapsed, or
    ``None``.

    A node inside a backindex span only ships when every live node of
    the span is due, and then the whole span ships as one transactional
    unit. FIFO order is never violated: if the head isn't ready,
    nothing ships.
    """
    if not queue._nodes:
        return None
    head = queue._nodes[0]
    span = queue._span_containing(head.seq)
    if span is None:
        if not queue._due(head, now):
            return None
        queue._nodes.pop(0)
        queue._forget_names((head,))
        if isinstance(head, WriteNode):
            queue._pack_for_upload(head, now)
        if queue.obs.enabled:
            queue._note_shipped([head], now, transactional=False)
        return UploadUnit(nodes=[head], transactional=False)

    start, end = span
    members = [n for n in queue._nodes if start <= n.seq <= end]
    if not members:
        queue._spans.remove(span)
        return next_unit(queue, now)
    if not all(queue._due(n, now) for n in members):
        return None
    member_seqs = {n.seq for n in members}
    queue._nodes = [n for n in queue._nodes if n.seq not in member_seqs]
    queue._forget_names(members)
    queue._spans.remove(span)
    for node in members:
        if isinstance(node, WriteNode):
            queue._pack_for_upload(node, now)
    if queue.obs.enabled:
        queue.obs.inc("queue.units.transactional")
        queue._note_shipped(members, now, transactional=True)
    return UploadUnit(nodes=members, transactional=True)
