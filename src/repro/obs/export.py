"""Exporters: Chrome trace-event JSON and OpenMetrics text exposition.

Two standard formats so recorded runs open in off-the-shelf viewers:

- :func:`to_chrome_trace` turns a loaded :class:`~repro.obs.analyze.TraceDoc`
  (or raw JSONL records) into the Chrome trace-event JSON array format —
  loadable in Perfetto (https://ui.perfetto.dev) and ``chrome://tracing``.
  Virtual seconds become microseconds (the format's native unit), spans
  become ``B``/``E`` duration pairs, point events become ``i`` instants.
- :func:`to_openmetrics` renders a metrics snapshot (live registry or the
  ``{"type": "snapshot"}`` record a trace file embeds) as OpenMetrics
  text exposition, with ``# TYPE``/``# HELP``/``# UNIT`` metadata from
  the declared catalog. A snapshot holds counters and gauges only: a
  distribution's exact figures are folded from the trace's events
  (:class:`repro.obs.render.Distributions`), not exposed here.
- :func:`check_openmetrics` is a strict-enough self-check of the
  exposition (metadata ordering, sample name/family agreement, terminal
  ``# EOF``) used by tests and the acceptance gate.

Also here: :func:`write_snapshot_record`, the helper the CLI uses to
append the metrics snapshot as one extra JSONL line after a streamed
trace, so a single ``trace.jsonl`` carries everything ``inspect`` needs.
"""

from __future__ import annotations

import json
import re
from typing import Dict, Iterable, List, Optional, Tuple

from repro.obs.names import METRICS_BY_NAME, MetricSpec
from repro.obs.registry import LabelKey, MetricsRegistry, parse_series_name

# ---------------------------------------------------------------------------
# Chrome trace-event JSON
# ---------------------------------------------------------------------------

_US_PER_VIRTUAL_SECOND = 1_000_000


def chrome_trace_events(records: Iterable[dict]) -> List[dict]:
    """Convert raw trace records to Chrome trace-event objects.

    Spans map to ``B``/``E`` pairs, point events to thread-scoped ``i``
    instants, all on pid/tid 1 (the replay is single-threaded virtual
    time). Records are converted in emission order; spans a crash left
    unclosed get a synthesized ``E`` at the last observed timestamp so
    viewers do not render them as infinite.
    """
    out: List[dict] = []
    open_spans: Dict[int, str] = {}  # span id -> name
    last_ts = 0.0
    for record in records:
        kind = record.get("type")
        if kind == "snapshot":
            continue
        ts_us = float(record.get("ts", 0.0)) * _US_PER_VIRTUAL_SECOND
        last_ts = max(last_ts, ts_us)
        name = str(record.get("name", ""))
        if kind == "span_start":
            open_spans[int(record["id"])] = name
            out.append(
                {
                    "name": name,
                    "ph": "B",
                    "ts": ts_us,
                    "pid": 1,
                    "tid": 1,
                    "args": dict(record.get("attrs", {})),
                }
            )
        elif kind == "span_end":
            open_spans.pop(int(record.get("id", -1)), None)
            out.append({"name": name, "ph": "E", "ts": ts_us, "pid": 1, "tid": 1})
        elif kind == "event":
            out.append(
                {
                    "name": name,
                    "ph": "i",
                    "s": "t",
                    "ts": ts_us,
                    "pid": 1,
                    "tid": 1,
                    "args": dict(record.get("attrs", {})),
                }
            )
    # LIFO close order keeps synthesized ends properly nested.
    for span_id in sorted(open_spans, reverse=True):
        out.append(
            {"name": open_spans[span_id], "ph": "E", "ts": last_ts, "pid": 1, "tid": 1}
        )
    return out


def to_chrome_trace(records: Iterable[dict], *, indent: Optional[int] = None) -> str:
    """Chrome trace-event JSON document (the ``traceEvents`` object form)."""
    doc = {
        "traceEvents": chrome_trace_events(records),
        "displayTimeUnit": "ms",
        "otherData": {"clock": "virtual", "source": "repro.obs"},
    }
    return json.dumps(doc, sort_keys=True, indent=indent)


def write_chrome_trace(records: Iterable[dict], path: str) -> int:
    """Write the Chrome trace JSON to ``path``; returns the event count."""
    events = chrome_trace_events(records)
    doc = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"clock": "virtual", "source": "repro.obs"},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")
    return len(events)


# ---------------------------------------------------------------------------
# OpenMetrics text exposition
# ---------------------------------------------------------------------------

def _om_name(name: str) -> str:
    """Dotted catalog name -> OpenMetrics metric name."""
    return name.replace(".", "_").replace("-", "_")


def _om_escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def format_number(value: float) -> str:
    """``value`` exactly and briefly: a whole number as an integer, any
    other as the shortest text that reads back to the same float."""
    as_float = float(value)
    if as_float == int(as_float) and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)


def _labels_text(labels: LabelKey) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{_om_escape(v)}"' for k, v in labels)
    return "{" + inner + "}"


def _spec_for(family: str, specs: Dict[str, MetricSpec]) -> Optional[MetricSpec]:
    return specs.get(family) or METRICS_BY_NAME.get(family)


def to_openmetrics(
    snapshot: Dict[str, object],
    *,
    specs: Optional[Dict[str, MetricSpec]] = None,
) -> str:
    """Render a registry snapshot as OpenMetrics text exposition.

    ``snapshot`` is :meth:`MetricsRegistry.snapshot` output (or the
    ``metrics`` field of an embedded trace snapshot record): rendered
    series name -> value. Families are typed from the declared catalog;
    undeclared families fall back to ``unknown``. Ends with the mandatory
    ``# EOF``.
    """
    specs = specs or {}
    # Group the flat snapshot back into families, preserving sorted order.
    families: Dict[str, List[Tuple[LabelKey, float]]] = {}
    for rendered, value in snapshot.items():
        family, labels = parse_series_name(rendered)
        families.setdefault(family, []).append((labels, float(value)))

    lines: List[str] = []
    for family in sorted(families):
        om = _om_name(family)
        spec = _spec_for(family, specs)
        kind = spec.kind if spec is not None else "unknown"
        lines.append(f"# TYPE {om} {kind}")
        if spec is not None and spec.unit and om.endswith("_" + spec.unit):
            lines.append(f"# UNIT {om} {spec.unit}")
        if spec is not None and spec.help:
            lines.append(f"# HELP {om} {_om_escape(spec.help)}")
        suffix = "_total" if kind == "counter" else ""
        for labels, value in families[family]:
            lines.append(f"{om}{suffix}{_labels_text(labels)} {format_number(value)}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def registry_openmetrics(registry: MetricsRegistry) -> str:
    """:func:`to_openmetrics` straight from a live registry."""
    specs = {name: registry.spec(name) for name in registry.declared_names}
    return to_openmetrics(registry.snapshot(), specs=specs)


_OM_METADATA_RE = re.compile(
    r"^# (TYPE|HELP|UNIT) (?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*) "
)
_OM_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^}]*\})? "
    r"(?P<value>[^ ]+)$"
)
_OM_SUFFIXES = ("_total", "_bucket", "_count", "_sum", "_created")


def check_openmetrics(text: str) -> List[str]:
    """Validate OpenMetrics exposition; returns problems (empty = valid).

    Checks the structural rules a scraper trips over: the exposition must
    end with ``# EOF`` and nothing after it, every sample line must parse,
    every sample must belong to the most recently announced ``# TYPE``
    family (modulo the standard suffixes), and numeric values must parse
    as floats.
    """
    problems: List[str] = []
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[-1] != "# EOF":
        problems.append("exposition must end with '# EOF'")
    eof_seen = False
    current_family: Optional[str] = None
    for lineno, line in enumerate(lines, start=1):
        if eof_seen:
            problems.append(f"line {lineno}: content after '# EOF'")
            break
        if line == "# EOF":
            eof_seen = True
            continue
        if not line:
            problems.append(f"line {lineno}: blank line")
            continue
        if line.startswith("#"):
            meta = _OM_METADATA_RE.match(line)
            if meta is None:
                problems.append(f"line {lineno}: malformed metadata line")
                continue
            if line.startswith("# TYPE "):
                current_family = meta.group("name")
            elif current_family != meta.group("name"):
                problems.append(
                    f"line {lineno}: metadata for {meta.group('name')!r} "
                    f"outside its TYPE block"
                )
            continue
        sample = _OM_SAMPLE_RE.match(line)
        if sample is None:
            problems.append(f"line {lineno}: malformed sample line")
            continue
        name = sample.group("name")
        if current_family is not None:
            base = name
            for suffix in _OM_SUFFIXES:
                if name.endswith(suffix):
                    base = name[: -len(suffix)]
                    break
            if base != current_family and name != current_family:
                problems.append(
                    f"line {lineno}: sample {name!r} outside its family "
                    f"({current_family!r})"
                )
        try:
            float(sample.group("value"))
        except ValueError:
            problems.append(f"line {lineno}: non-numeric value on sample line")
    return problems


# ---------------------------------------------------------------------------
# the embedded snapshot record
# ---------------------------------------------------------------------------


def snapshot_record(registry: MetricsRegistry, ts: float) -> Dict[str, object]:
    """The ``{"type": "snapshot"}`` JSONL record embedding a metrics view."""
    return {"type": "snapshot", "ts": ts, "metrics": registry.snapshot()}


def write_snapshot_record(sink, registry: MetricsRegistry, ts: float) -> None:
    """Append the snapshot record as one JSON line to an open sink."""
    sink.write(
        json.dumps(snapshot_record(registry, ts), sort_keys=True, separators=(",", ":"))
        + "\n"
    )
