"""The structured event tracer: spans with causal parent ids, JSONL out.

A :class:`Tracer` records two things:

- **spans** — ``with tracer.span("client.pack", path=p): ...`` emits a
  ``span_start``/``span_end`` pair with a fresh span id and the id of the
  enclosing span as ``parent`` (``None`` at top level);
- **events** — ``tracer.event("queue.node.created", path=p, seq=3)`` emits
  a point event parented to the current span.

Timestamps come from the shared :class:`~repro.common.clock.VirtualClock`
— never the wall clock — so traces are deterministic and replayable. Span
ids are a plain counter starting at 1.

The JSONL schema (one object per line, documented in
``docs/observability.md``)::

    {"type": "span_start", "name": ..., "id": N, "parent": P, "ts": T, "attrs": {...}}
    {"type": "span_end",   "name": ..., "id": N, "parent": P, "ts": T, "duration": D}
    {"type": "event",      "name": ..., "parent": P, "ts": T, "attrs": {...}}

Like the registry, event/span names must be declared in
:data:`repro.obs.names.EVENTS`, which the documented contract is rendered
from.
:data:`NULL_TRACER` is the no-op used on the disabled path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.common.clock import VirtualClock
from repro.obs.names import EVENT_NAMES, EventSpec

_JSON_PRIMITIVES = (str, int, float, bool, type(None))


def _clean_attrs(attrs: Dict[str, object]) -> Dict[str, object]:
    """Coerce attribute values to JSON-serializable primitives."""
    out: Dict[str, object] = {}
    for key, value in attrs.items():
        if isinstance(value, _JSON_PRIMITIVES):
            out[key] = value
        elif isinstance(value, (list, tuple)):
            out[key] = [
                v if isinstance(v, _JSON_PRIMITIVES) else str(v) for v in value
            ]
        else:
            out[key] = str(value)
    return out


@dataclass
class TraceEvent:
    """One trace record (a span edge or a point event)."""

    type: str  # "span_start" | "span_end" | "event"
    name: str
    ts: float
    parent: Optional[int] = None
    id: Optional[int] = None  # span id; None for point events
    attrs: Dict[str, object] = field(default_factory=dict)
    duration: Optional[float] = None  # span_end only

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "type": self.type,
            "name": self.name,
            "ts": self.ts,
        }
        if self.id is not None:
            out["id"] = self.id
        out["parent"] = self.parent
        if self.type == "span_end":
            out["duration"] = self.duration
        else:
            out["attrs"] = self.attrs
        return out


class _SpanHandle:
    """Context manager returned by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "name", "id", "parent", "_start")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, object]):
        self._tracer = tracer
        self.name = name
        self.parent = tracer.current_span_id
        self.id = tracer._next_id()
        self._start = tracer._now()
        tracer._push(self)
        tracer._record(
            TraceEvent(
                type="span_start",
                name=name,
                ts=self._start,
                parent=self.parent,
                id=self.id,
                attrs=_clean_attrs(attrs),
            )
        )

    def __enter__(self) -> "_SpanHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        end = self._tracer._now()
        self._tracer._pop(self)
        self._tracer._record(
            TraceEvent(
                type="span_end",
                name=self.name,
                ts=end,
                parent=self.parent,
                id=self.id,
                duration=end - self._start,
            )
        )


class _NullSpan:
    """Reusable no-op span for the disabled path."""

    __slots__ = ()
    name = ""
    id = None
    parent = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Tracer:
    """Collects trace events against a virtual clock.

    Two storage modes:

    - **buffered** (default, ``sink=None``): every event is kept in an
      in-memory list; read it back with :meth:`events` / :meth:`to_jsonl`
      or persist it with :meth:`write_jsonl`.
    - **streaming** (``sink=<writable text stream>``): each record is
      serialized to one JSON line and written to ``sink`` the moment it is
      recorded, and *nothing* is buffered — a long run's memory stays flat
      no matter how many events it emits. The sink is borrowed, not owned:
      the caller opens and closes it (and can append further records, e.g.
      a metrics snapshot, after the run).
    """

    def __init__(
        self,
        clock: Optional[VirtualClock] = None,
        *,
        known_names: Tuple[str, ...] = EVENT_NAMES,
        sink=None,
    ):
        self.clock = clock if clock is not None else VirtualClock()
        self._known = set(known_names)
        self._events: List[TraceEvent] = []
        self._stack: List[_SpanHandle] = []
        self._id_counter = 0
        self._sink = sink
        self._sink_records = 0

    # -- declaration -------------------------------------------------------

    def declare(self, spec: EventSpec) -> None:
        """Allow an event/span name beyond the built-in catalog."""
        self._known.add(spec.name)

    def _check(self, name: str) -> None:
        if name not in self._known:
            raise KeyError(
                f"trace event {name!r} is not declared; add it to "
                f"repro.obs.names (then `python tools/obs_docs.py --write`) "
                f"or declare() it"
            )

    # -- recording ---------------------------------------------------------

    def span(self, name: str, **attrs: object) -> _SpanHandle:
        """Open a span; use as a context manager."""
        self._check(name)
        return _SpanHandle(self, name, attrs)

    def event(self, name: str, **attrs: object) -> None:
        """Record a point event parented to the current span."""
        self._check(name)
        self._record(
            TraceEvent(
                type="event",
                name=name,
                ts=self._now(),
                parent=self.current_span_id,
                attrs=_clean_attrs(attrs),
            )
        )

    # -- reading -----------------------------------------------------------

    @property
    def current_span_id(self) -> Optional[int]:
        """Id of the innermost open span, or ``None``."""
        return self._stack[-1].id if self._stack else None

    def within(self, name: str) -> bool:
        """True while a span named ``name`` is open."""
        return any(handle.name == name for handle in self._stack)

    @property
    def streaming(self) -> bool:
        """True when records go straight to a sink instead of the buffer."""
        return self._sink is not None

    @property
    def records_recorded(self) -> int:
        """Total records recorded so far (buffered or streamed)."""
        return self._sink_records if self._sink is not None else len(self._events)

    def events(self) -> List[TraceEvent]:
        """Snapshot of all recorded events, in emission order.

        Empty in streaming mode — streamed records live at the sink only.
        """
        return list(self._events)

    def event_names(self) -> List[str]:
        """Names in emission order (handy for sequence assertions)."""
        return [e.name for e in self._events]

    def to_jsonl(self) -> str:
        """All events as JSON Lines (one compact object per line)."""
        return "\n".join(
            json.dumps(e.to_dict(), sort_keys=True, separators=(",", ":"))
            for e in self._events
        )

    def write_jsonl(self, path: str) -> int:
        """Write the buffered trace to ``path``; returns the record count.

        Only meaningful in buffered mode; a streaming tracer has already
        written its records to the sink and raises ``RuntimeError``.
        """
        if self._sink is not None:
            raise RuntimeError(
                "streaming tracer does not buffer; its records are already "
                "at the sink"
            )
        text = self.to_jsonl()
        with open(path, "w", encoding="utf-8") as fh:
            if text:
                fh.write(text + "\n")
        return len(self._events)

    def reset(self) -> None:
        """Drop all buffered events and close the span stack."""
        self._events.clear()
        self._stack.clear()
        self._id_counter = 0
        self._sink_records = 0

    # -- internals ---------------------------------------------------------

    def _now(self) -> float:
        return self.clock.now()

    def _next_id(self) -> int:
        self._id_counter += 1
        return self._id_counter

    def _push(self, handle: _SpanHandle) -> None:
        self._stack.append(handle)

    def _pop(self, handle: _SpanHandle) -> None:
        if not self._stack or self._stack[-1] is not handle:
            raise RuntimeError(
                f"span {handle.name!r} closed out of order; spans must nest"
            )
        self._stack.pop()

    def _record(self, event: TraceEvent) -> None:
        if self._sink is not None:
            self._sink.write(
                json.dumps(event.to_dict(), sort_keys=True, separators=(",", ":"))
                + "\n"
            )
            self._sink_records += 1
        else:
            self._events.append(event)


class _NullTracer(Tracer):
    """Discards everything — the zero-cost disabled path."""

    def span(self, name: str, **attrs: object) -> _NullSpan:  # type: ignore[override]
        return _NULL_SPAN

    def event(self, name: str, **attrs: object) -> None:
        pass


NULL_TRACER = _NullTracer()
