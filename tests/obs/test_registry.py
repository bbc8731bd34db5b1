"""MetricsRegistry: declared-names enforcement, labels, deterministic
snapshots, the zero-cost null registry, and the catalog's folds."""

import pytest

from repro.obs.names import (
    COUNTER,
    DISTRIBUTION,
    EVENTS_BY_NAME,
    GAUGE,
    METRIC_NAMES,
    METRICS,
    MetricSpec,
)
from repro.obs.registry import NULL_REGISTRY, MetricsRegistry


def test_counter_accumulates():
    reg = MetricsRegistry()
    reg.inc("client.pack.count")
    reg.inc("client.pack.count", 2)
    assert reg.counter_value("client.pack.count") == 3.0


def test_counter_labels_are_independent_series():
    reg = MetricsRegistry()
    reg.inc("channel.up.bytes", 100, type="UploadWrite")
    reg.inc("channel.up.bytes", 50, type="TxnGroup")
    reg.inc("channel.up.bytes", 7, type="UploadWrite")
    assert reg.counter_value("channel.up.bytes", type="UploadWrite") == 107.0
    assert reg.counter_value("channel.up.bytes", type="TxnGroup") == 50.0
    assert reg.counter_total("channel.up.bytes") == 157.0
    # Unlabelled series is distinct and untouched.
    assert reg.counter_value("channel.up.bytes") == 0.0


def test_counters_only_go_up():
    reg = MetricsRegistry()
    with pytest.raises(ValueError):
        reg.inc("client.pack.count", -1)


def test_undeclared_name_raises_keyerror():
    reg = MetricsRegistry()
    with pytest.raises(KeyError):
        reg.inc("client.made.up")
    with pytest.raises(KeyError):
        reg.set_gauge("nope.nope", 1)


def test_kind_mismatch_raises_typeerror():
    reg = MetricsRegistry()
    with pytest.raises(TypeError):
        reg.inc("queue.depth")  # gauge, not counter
    with pytest.raises(TypeError):
        reg.inc("fleet.sync.latency")  # a distribution is folded, not recorded
    with pytest.raises(TypeError):
        reg.set_gauge("client.pack.count", 1.0)


def test_gauge_set_overwrites():
    reg = MetricsRegistry()
    assert reg.gauge_value("queue.depth") is None
    reg.set_gauge("queue.depth", 4)
    reg.set_gauge("queue.depth", 2)
    assert reg.gauge_value("queue.depth") == 2.0


def test_snapshot_is_sorted_and_deterministic():
    def build():
        reg = MetricsRegistry()
        # Record in deliberately different orders.
        reg.inc("server.apply.applied", 1, type="B")
        reg.inc("server.apply.applied", 2, type="A")
        reg.set_gauge("queue.depth", 3)
        return reg

    a, b = build(), build()
    assert a.snapshot() == b.snapshot()
    keys = list(a.snapshot())
    # Each group (counters, then gauges) is sorted, so identical runs
    # serialize identically.
    assert keys == [
        "server.apply.applied{type=A}",
        "server.apply.applied{type=B}",
        "queue.depth",
    ]
    assert a.snapshot()["server.apply.applied{type=A}"] == 2.0
    assert a.snapshot()["queue.depth"] == 3.0


def test_declare_custom_metric_and_conflict():
    reg = MetricsRegistry()
    spec = MetricSpec("client.custom.thing", COUNTER, "a test metric")
    reg.declare(spec)
    reg.inc("client.custom.thing", 5)
    assert reg.counter_value("client.custom.thing") == 5.0
    with pytest.raises(ValueError):
        reg.declare(MetricSpec("client.custom.thing", GAUGE, "different"))


def test_reset_keeps_declarations():
    reg = MetricsRegistry()
    reg.inc("client.pack.count")
    reg.reset()
    assert reg.counter_value("client.pack.count") == 0.0
    assert reg.snapshot() == {}


def test_null_registry_discards_everything():
    NULL_REGISTRY.inc("client.pack.count", 10)
    NULL_REGISTRY.set_gauge("queue.depth", 10)
    # Even undeclared names are silently ignored on the disabled path.
    NULL_REGISTRY.inc("totally.undeclared")
    assert NULL_REGISTRY.snapshot() == {}


def test_catalog_names_follow_the_scheme():
    for name in METRIC_NAMES:
        parts = name.split(".")
        assert len(parts) >= 2, name
        assert parts[0] in {"client", "queue", "relation", "channel",
                            "server", "transport", "journal", "recovery",
                            "run", "policy", "fleet", "trace", "health"}, name
        for part in parts:
            assert part == part.lower(), name


def test_every_fold_names_a_declared_event_attr():
    """A distribution's samples are attrs of point events the run already
    emits: each ``(event, attr)`` pair names a declared event and one of
    its declared attrs, and only distributions fold."""
    distributions = [spec for spec in METRICS if spec.kind == DISTRIBUTION]
    assert {spec.name for spec in distributions} == {
        "channel.message.bytes",
        "fleet.sync.latency",
        "queue.node.open_time",
        "queue.node.payload_bytes",
        "queue.node.wait_time",
    }
    for spec in METRICS:
        assert bool(spec.folds) == (spec.kind == DISTRIBUTION), spec.name
        for event, attr in spec.folds:
            assert EVENTS_BY_NAME[event].kind == "event", (spec.name, event)
            assert attr in EVENTS_BY_NAME[event].attrs, (spec.name, event, attr)
