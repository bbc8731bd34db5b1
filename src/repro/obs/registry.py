"""The metrics registry: counters, gauges, and fixed-bucket histograms.

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
- **No wall clock.** Nothing here reads ``time``; durations are observed
  by callers from :class:`~repro.common.clock.VirtualClock`, keeping
  snapshots deterministic under seeded runs.
- **Deterministic snapshots.** :meth:`snapshot` orders families and label
  sets lexicographically; two identical seeded runs produce identical
  snapshots byte for byte.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.obs.names import (
    COUNTER,
    GAUGE,
    HISTOGRAM,
    METRICS,
    MetricSpec,
)

# A label set normalized to a sorted tuple of (key, value) pairs.
LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, object]) -> LabelKey:
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


class _Histogram:
    """Fixed-bucket histogram: counts per bucket plus sum and count."""

    __slots__ = ("bounds", "counts", "total", "count")

    def __init__(self, bounds: Tuple[float, ...]):
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # final slot is +Inf
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.total += value
        self.count += 1
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    def as_dict(self) -> Dict[str, object]:
        buckets = {}
        for bound, n in zip(self.bounds, self.counts):
            buckets[f"le_{bound:g}"] = n
        buckets["le_inf"] = self.counts[-1]
        return {"count": self.count, "sum": self.total, "buckets": buckets}


class MetricsRegistry:
    """Accumulates declared metrics for one run.

    Counters, gauges, and histograms all take labels (e.g.
    ``inc("channel.up.bytes", size, type="UploadWrite")`` — the keys are
    the family's ``MetricSpec.labels``); each distinct label set is a
    separate series under the declared family name. Every series of a
    histogram family shares the family's declared buckets.
    """

    def __init__(self, specs: Tuple[MetricSpec, ...] = METRICS):
        self._specs: Dict[str, MetricSpec] = {s.name: s for s in specs}
        self._counters: Dict[str, Dict[LabelKey, float]] = {}
        self._gauges: Dict[str, Dict[LabelKey, float]] = {}
        self._histograms: Dict[str, Dict[LabelKey, _Histogram]] = {}

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

    def observe(self, name: str, value: float, **labels: object) -> None:
        """Record one sample into a histogram series."""
        spec = self._require(name, HISTOGRAM)
        series = self._histograms.setdefault(name, {})
        key = _label_key(labels)
        hist = series.get(key)
        if hist is None:
            hist = series[key] = _Histogram(spec.buckets or (1.0,))
        hist.observe(value)

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

    def histogram(self, name: str, **labels: object) -> Optional[Dict[str, object]]:
        """One histogram series as a dict, or ``None`` if never observed."""
        self._require(name, HISTOGRAM)
        hist = self._histograms.get(name, {}).get(_label_key(labels))
        return None if hist is None else hist.as_dict()

    def snapshot(self) -> Dict[str, object]:
        """Deterministic flat view of every *touched* series.

        Counters/gauges map rendered series name -> value; histograms map
        rendered series name -> ``{count, sum, buckets}`` (the bare family
        name when unlabelled). Keys are sorted, so equal runs produce
        equal snapshots.
        """
        out: Dict[str, object] = dict(self.scalar_snapshot())
        for name in sorted(self._histograms):
            for key in sorted(self._histograms[name]):
                out[_render_name(name, key)] = self._histograms[name][key].as_dict()
        return out

    def scalar_snapshot(self) -> Dict[str, float]:
        """Only the counter/gauge series — what feeds ``RunResult.extra``."""
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
        self._histograms.clear()

    def __repr__(self) -> str:
        series = sum(len(v) for v in self._counters.values()) + sum(
            len(v) for v in self._gauges.values()
        )
        hists = sum(len(v) for v in self._histograms.values())
        return f"MetricsRegistry({series} series, {hists} histograms)"


class _NullRegistry(MetricsRegistry):
    """Discards all recordings — the zero-cost disabled path."""

    def inc(self, name: str, value: float = 1.0, **labels: object) -> None:
        pass

    def set_gauge(self, name: str, value: float, **labels: object) -> None:
        pass

    def observe(self, name: str, value: float, **labels: object) -> None:
        pass


NULL_REGISTRY = _NullRegistry()
