"""Rendering a registry + tracer into human text or JSON, and the exact
distributions those reports print.

``text_report`` is what ``python -m repro replay ... --metrics`` prints;
``to_json`` is the machine-readable equivalent (snapshot + trace summary)
for piping into other tools. :class:`Distributions` folds the catalog's
``DISTRIBUTION`` families from event attrs, and
:func:`distribution_table` prints them the same way for a live run
(``text_report``) and a recorded one (``repro inspect --summary``).
"""

from __future__ import annotations

import json
import math
from typing import Dict, List, Optional, Tuple

from repro.metrics.report import format_table
from repro.obs.export import format_number
from repro.obs.health import quantile
from repro.obs.names import METRICS
from repro.obs.registry import MetricsRegistry
from repro.obs.tracer import Tracer


class Distributions:
    """Exact samples of every ``DISTRIBUTION`` family, folded from the
    ``(event, attr)`` pairs its catalog entry names (``MetricSpec.folds``).

    :meth:`feed` sees each point event once: live from
    :meth:`repro.obs.Observability.event`, offline from a loaded trace
    (:meth:`of_trace`). Both skip the events under the :data:`UNMEASURED`
    span, whose window the registry drops when it ends (the harness resets
    it), so the two halves of a ``--metrics`` report count one window. A
    value that is not a number (an attr missing from an older recording)
    is skipped. Nothing is bucketed, so every figure of :meth:`rows` is an
    exact order statistic (:func:`repro.obs.health.quantile`), and a run
    and its trace agree.
    """

    #: The span whose events no distribution counts: a run's preload.
    UNMEASURED = "run.preload"

    def __init__(self):
        self.samples: Dict[str, List[float]] = {}
        self._folds: Dict[str, List[Tuple[str, List[float]]]] = {}
        for spec in METRICS:
            for event, attr in spec.folds:
                samples = self.samples.setdefault(spec.name, [])
                self._folds.setdefault(event, []).append((attr, samples))

    @classmethod
    def of_trace(cls, doc) -> "Distributions":
        """The fold of a loaded :class:`~repro.obs.analyze.TraceDoc`."""
        fold = cls()
        for record in doc.point_events():
            name = record["name"]
            if name in fold.events and not doc.in_span_named(
                record.get("parent"), cls.UNMEASURED
            ):
                fold.feed(name, record.get("attrs", {}))
        return fold

    @property
    def events(self):
        """The names of the events some family folds."""
        return self._folds.keys()

    def feed(self, name: str, attrs: Dict[str, object]) -> None:
        """Keep the folded attrs of one event named ``name``."""
        for attr, samples in self._folds.get(name, ()):
            value = attrs.get(attr)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                samples.append(value)

    def rows(self) -> List[Tuple[str, int, float, float, float, float, float]]:
        """``(family, count, mean, p50, p90, p99, max)`` of every family
        with a sample, sorted by family name."""
        out = []
        for family in sorted(self.samples):
            values = sorted(self.samples[family])
            if values:
                out.append((
                    family,
                    len(values),
                    math.fsum(values) / len(values),
                    quantile(values, 0.50),
                    quantile(values, 0.90),
                    quantile(values, 0.99),
                    values[-1],
                ))
        return out


def distribution_table(distributions: Distributions) -> str:
    """The distributions section of a report (empty when nothing was fed):
    exact figures, printed as :func:`repro.obs.export.format_number`
    writes them."""
    rows = distributions.rows()
    if not rows:
        return ""
    return "-- distributions " + "-" * 39 + "\n" + format_table(
        ["distribution", "count", "mean", "p50", "p90", "p99", "max"],
        [[family, count, *map(format_number, figures)]
         for family, count, *figures in rows],
    )


def text_report(
    registry: MetricsRegistry,
    tracer: Optional[Tracer] = None,
    distributions: Optional[Distributions] = None,
) -> str:
    """An aligned, deterministic text report of every touched series and
    every fed distribution."""
    lines: List[str] = []
    scalars = registry.snapshot().items()
    if scalars:
        lines.append("-- metrics " + "-" * 45)
        lines.append(
            format_table(
                ["metric", "value"],
                [[name, f"{value:g}"] for name, value in scalars],
            )
        )
    table = distribution_table(distributions) if distributions is not None else ""
    if table:
        lines += ["", table]
    if tracer is not None:
        events = tracer.events()
        if events:
            lines.append("")
            spans = sum(1 for e in events if e.type == "span_start")
            points = sum(1 for e in events if e.type == "event")
            lines.append(f"-- trace: {spans} spans, {points} events")
    if not lines:
        return "(no metrics recorded)"
    return "\n".join(lines)


def to_json(
    registry: MetricsRegistry, tracer: Optional[Tracer] = None, *, indent: int = 2
) -> str:
    """Snapshot (+ optional embedded trace) as a JSON document."""
    doc: Dict[str, object] = {"metrics": registry.snapshot()}
    if tracer is not None:
        doc["trace"] = [e.to_dict() for e in tracer.events()]
    return json.dumps(doc, sort_keys=True, indent=indent)
