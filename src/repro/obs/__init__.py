"""Structured observability: a metrics registry plus an event tracer.

This package is the measurement substrate the ROADMAP's performance work
reports against. It follows the :data:`repro.cost.meter.NULL_METER`
pattern: instrumented subsystems take an ``obs`` object and default to
:data:`NULL_OBS`, whose every recording method is a no-op — benchmarks run
with observability disabled are unperturbed (the Tier-1 suites assert
byte-identical results).

Two primitives, one fold, one facade:

- :class:`~repro.obs.registry.MetricsRegistry` — counters and gauges
  under declared names (``repro.obs.names``);
- :class:`~repro.obs.tracer.Tracer` — spans with causal parent ids and
  point events, serializable to JSONL;
- :class:`~repro.obs.render.Distributions` — the exact distributions
  (sync latency, message and payload sizes, queue wait and open time),
  folded from the attrs of the events that carry them, so a live report
  and ``repro inspect`` of its trace print the same figures;
- :class:`Observability` — bundles them against one
  :class:`~repro.common.clock.VirtualClock` and offers terse call-site
  helpers (``obs.inc(...)``, ``obs.span(...)``, ``obs.event(...)``, which
  also feeds the fold).

The full instrumentation contract — naming scheme, span hierarchy, JSONL
schema — lives in ``docs/observability.md``, whose catalog tables are
rendered from ``repro.obs.names`` (``tools/obs_docs.py``; CI fails when
they are stale).

The offline read side lives next door: :mod:`repro.obs.analyze` rebuilds
span trees and attributes uplink bytes from a recorded JSONL trace, and
:mod:`repro.obs.export` renders Chrome trace-event JSON and OpenMetrics
exposition (``python -m repro inspect`` drives both).
"""

from __future__ import annotations

from typing import Optional

from repro.common.clock import VirtualClock
from repro.obs.analyze import (
    Attribution,
    AttributionError,
    Span,
    TraceDoc,
    attribute_uplink,
    critical_path,
    load_trace,
    load_trace_lines,
    span_rollup,
)
from repro.obs.export import (
    check_openmetrics,
    registry_openmetrics,
    to_chrome_trace,
    to_openmetrics,
    write_chrome_trace,
    write_snapshot_record,
)
from repro.obs.health import (
    HealthReport,
    ShardHealth,
    ShardWindows,
    WindowStats,
    health_from_trace,
    health_from_windows,
    validate_health_doc,
)
from repro.obs.names import EVENT_NAMES, EVENTS, METRIC_NAMES, METRICS, EventSpec, MetricSpec
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry
from repro.obs.render import Distributions, distribution_table, text_report, to_json
from repro.obs.tracer import NULL_TRACER, TraceEvent, Tracer


class Observability:
    """One registry, one tracer and one distribution fold sharing one
    virtual clock."""

    enabled = True

    def __init__(
        self,
        *,
        clock: Optional[VirtualClock] = None,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ):
        self.clock = clock if clock is not None else VirtualClock()
        self.metrics = registry if registry is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer(self.clock)
        self.distributions = Distributions()

    def bind_clock(self, clock: VirtualClock) -> None:
        """Point timestamps at ``clock`` (the experiment's time source).

        Call before any events are recorded — the harness does this right
        after building a system so trace timestamps share the run's
        virtual timeline.
        """
        self.clock = clock
        self.tracer.clock = clock

    # -- terse call-site helpers ------------------------------------------

    def inc(self, name: str, value: float = 1.0, **labels: object) -> None:
        self.metrics.inc(name, value, **labels)

    def set_gauge(self, name: str, value: float, **labels: object) -> None:
        self.metrics.set_gauge(name, value, **labels)

    def span(self, name: str, **attrs: object):
        return self.tracer.span(name, **attrs)

    def event(self, name: str, **attrs: object) -> None:
        self.tracer.event(name, **attrs)
        fold = self.distributions
        # The span walk is the dearer test, and most events fold nowhere.
        if name in fold.events and not self.tracer.within(fold.UNMEASURED):
            fold.feed(name, attrs)

    def report(self) -> str:
        """The text report for this run (see :func:`repro.obs.render.text_report`)."""
        return text_report(self.metrics, self.tracer, self.distributions)

    def to_json(self) -> str:
        """Snapshot + trace as JSON (see :func:`repro.obs.render.to_json`)."""
        return to_json(self.metrics, self.tracer)


class _NullObservability(Observability):
    """The disabled path: every recording is a no-op."""

    enabled = False

    def __init__(self):
        super().__init__(registry=NULL_REGISTRY, tracer=NULL_TRACER)

    def bind_clock(self, clock: VirtualClock) -> None:
        pass

    def inc(self, name: str, value: float = 1.0, **labels: object) -> None:
        pass

    def set_gauge(self, name: str, value: float, **labels: object) -> None:
        pass

    def span(self, name: str, **attrs: object):
        return self.tracer.span(name)

    def event(self, name: str, **attrs: object) -> None:
        pass


NULL_OBS = _NullObservability()

__all__ = [
    "Observability",
    "NULL_OBS",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "Tracer",
    "NULL_TRACER",
    "TraceEvent",
    "ShardWindows",
    "WindowStats",
    "HealthReport",
    "ShardHealth",
    "health_from_windows",
    "health_from_trace",
    "validate_health_doc",
    "MetricSpec",
    "EventSpec",
    "METRICS",
    "EVENTS",
    "METRIC_NAMES",
    "EVENT_NAMES",
    "text_report",
    "to_json",
    "Distributions",
    "distribution_table",
    "TraceDoc",
    "Span",
    "Attribution",
    "AttributionError",
    "load_trace",
    "load_trace_lines",
    "span_rollup",
    "critical_path",
    "attribute_uplink",
    "to_chrome_trace",
    "write_chrome_trace",
    "to_openmetrics",
    "registry_openmetrics",
    "check_openmetrics",
    "write_snapshot_record",
]
