"""The metrics registry: counters and gauges.

Mirrors the :class:`repro.cost.meter.CostMeter` pattern: instrumented code
charges a registry object it was handed, and callers that do not measure
hand out :data:`NULL_REGISTRY`, whose recording methods are no-ops — the
disabled path never allocates and never changes behaviour.

Design constraints (see ``docs/observability.md``):

- **Declared names only.** Every metric family must exist in
  :data:`repro.obs.names.METRICS` (or be added via :meth:`declare`); the
  documented contract is rendered from those declarations, so the two
  cannot drift. Label *keys* are declared there too
  (``MetricSpec.labels``) but not policed here — the recording path stays
  as cheap as it is, and the scripted runs of
  ``tests/harness/test_event_stream_golden.py`` hold every emitter to them.
- **No wall clock.** Nothing here reads ``time``; values come from
  callers on the :class:`~repro.common.clock.VirtualClock` timeline,
  keeping snapshots deterministic under seeded runs.
- **No distributions.** A ``DISTRIBUTION`` family is declared beside the
  counters but never recorded here: its samples are attrs of events the
  run already emits, folded exactly by
  :class:`repro.obs.render.Distributions`.
- **Deterministic snapshots.** :meth:`snapshot` orders families and label
  sets lexicographically; two identical seeded runs produce identical
  snapshots byte for byte.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.obs.names import COUNTER, GAUGE, METRICS, MetricSpec

# A label set normalized to a sorted tuple of (key, value) pairs.
LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, object]) -> LabelKey:
    if not labels:
        return ()
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _render_name(name: str, key: LabelKey) -> str:
    if not key:
        return name
    inner = ",".join(f"{k}={v}" for k, v in key)
    return f"{name}{{{inner}}}"


def parse_series_name(rendered: str) -> Tuple[str, LabelKey]:
    """The one inverse of :func:`_render_name`: ``family{k=v,...}`` (a
    snapshot key) back into the family name and its label pairs."""
    family, _, inner = rendered.partition("{")
    pairs = inner.rstrip("}").split(",") if inner else []
    return family, tuple((k, v) for k, _, v in (p.partition("=") for p in pairs))


class MetricsRegistry:
    """Accumulates declared metrics for one run.

    Counters and gauges take labels (e.g.
    ``inc("channel.up.bytes", size, type="UploadWrite")`` — the keys are
    the family's ``MetricSpec.labels``); each distinct label set is a
    separate series under the declared family name.
    """

    def __init__(self, specs: Tuple[MetricSpec, ...] = METRICS):
        self._specs: Dict[str, MetricSpec] = {s.name: s for s in specs}
        self._counters: Dict[str, Dict[LabelKey, float]] = {}
        self._gauges: Dict[str, Dict[LabelKey, float]] = {}

    # -- declaration -------------------------------------------------------

    def declare(self, spec: MetricSpec) -> None:
        """Add a metric family beyond the built-in catalog."""
        existing = self._specs.get(spec.name)
        if existing is not None and existing != spec:
            raise ValueError(f"metric {spec.name!r} already declared differently")
        self._specs[spec.name] = spec

    def spec(self, name: str) -> MetricSpec:
        """The declaration for ``name``; raises ``KeyError`` if undeclared."""
        return self._specs[name]

    @property
    def declared_names(self) -> List[str]:
        """All declared family names, sorted."""
        return sorted(self._specs)

    def _require(self, name: str, kind: str) -> MetricSpec:
        spec = self._specs.get(name)
        if spec is None:
            raise KeyError(
                f"metric {name!r} is not declared; add it to repro.obs.names "
                f"(then `python tools/obs_docs.py --write`) or registry.declare() it"
            )
        if spec.kind != kind:
            raise TypeError(f"metric {name!r} is a {spec.kind}, not a {kind}")
        return spec

    # -- recording ---------------------------------------------------------

    def inc(self, name: str, value: float = 1.0, **labels: object) -> None:
        """Add ``value`` to a counter series (must be non-negative)."""
        self._require(name, COUNTER)
        if value < 0:
            raise ValueError("counters only go up")
        series = self._counters.setdefault(name, {})
        key = _label_key(labels)
        series[key] = series.get(key, 0.0) + value

    def set_gauge(self, name: str, value: float, **labels: object) -> None:
        """Set a gauge series to ``value``."""
        self._require(name, GAUGE)
        self._gauges.setdefault(name, {})[_label_key(labels)] = float(value)

    # -- reading -----------------------------------------------------------

    def counter_value(self, name: str, **labels: object) -> float:
        """Current value of one counter series (0.0 if never incremented)."""
        self._require(name, COUNTER)
        return self._counters.get(name, {}).get(_label_key(labels), 0.0)

    def counter_total(self, name: str) -> float:
        """Sum of a counter family across all label sets."""
        self._require(name, COUNTER)
        return sum(self._counters.get(name, {}).values())

    def gauge_value(self, name: str, **labels: object) -> Optional[float]:
        """Current gauge value, or ``None`` if never set."""
        self._require(name, GAUGE)
        return self._gauges.get(name, {}).get(_label_key(labels))

    def snapshot(self) -> Dict[str, float]:
        """Deterministic flat view of every *touched* series: rendered
        series name -> value, counters first, then gauges, each sorted, so
        equal runs produce equal snapshots. It is what feeds
        ``RunResult.extra`` and the trace's snapshot record."""
        out: Dict[str, float] = {}
        for families in (self._counters, self._gauges):
            for name in sorted(families):
                for key in sorted(families[name]):
                    out[_render_name(name, key)] = families[name][key]
        return out

    def reset(self) -> None:
        """Zero every series, keeping declarations."""
        self._counters.clear()
        self._gauges.clear()

    def __repr__(self) -> str:
        series = sum(len(v) for v in self._counters.values()) + sum(
            len(v) for v in self._gauges.values()
        )
        return f"MetricsRegistry({series} series)"


class _NullRegistry(MetricsRegistry):
    """Discards all recordings — the zero-cost disabled path."""

    def inc(self, name: str, value: float = 1.0, **labels: object) -> None:
        pass

    def set_gauge(self, name: str, value: float, **labels: object) -> None:
        pass


NULL_REGISTRY = _NullRegistry()
