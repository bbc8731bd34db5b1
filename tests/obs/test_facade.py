"""The Observability facade, the text/JSON renderers, and the contract
between repro.obs.names and docs/observability.md."""

import json
import pathlib
import re

from repro.common.clock import VirtualClock
from repro.obs import NULL_OBS, Observability
from repro.obs.names import EVENT_NAMES, EVENTS, METRIC_NAMES, METRICS


def test_facade_shares_one_clock():
    obs = Observability()
    assert obs.tracer.clock is obs.clock
    run_clock = VirtualClock()
    run_clock.advance(7.0)
    obs.bind_clock(run_clock)
    obs.event("relation.insert", src="/a", dst="/b", origin="rename")
    assert obs.tracer.events()[0].ts == 7.0


def test_facade_helpers_delegate():
    obs = Observability()
    obs.inc("client.pack.count", 2)
    obs.set_gauge("queue.depth", 1)
    with obs.span("client.pack", path="/f"):
        obs.event("queue.node.packed", path="/f", seq=1, writes=1,
                  payload_bytes=8, open_for=0.5)
    assert obs.metrics.counter_value("client.pack.count") == 2.0
    assert obs.tracer.event_names() == [
        "client.pack", "queue.node.packed", "client.pack",
    ]
    # An event also feeds the distribution fold.
    assert obs.distributions.samples["queue.node.open_time"] == [0.5]


def test_report_and_json_render():
    obs = Observability()
    obs.inc("channel.up.bytes", 1024, type="UploadWrite")
    obs.event("channel.upload", type="UploadWrite", path="/f", bytes=1024,
              done_at=0.0)
    report = obs.report()
    assert "channel.up.bytes{type=UploadWrite}" in report
    assert "channel.message.bytes" in report
    payload = json.loads(obs.to_json())
    assert payload["metrics"]["channel.up.bytes{type=UploadWrite}"] == 1024.0


def test_null_obs_is_disabled_and_inert():
    assert NULL_OBS.enabled is False
    assert Observability().enabled is True
    NULL_OBS.inc("not.even.declared")
    with NULL_OBS.span("whatever"):
        NULL_OBS.event("whatever.else")
    NULL_OBS.bind_clock(VirtualClock())
    assert NULL_OBS.metrics.snapshot() == {}
    assert NULL_OBS.tracer.events() == []
    assert NULL_OBS.distributions.rows() == []


def test_catalogs_have_no_duplicates():
    assert len(METRIC_NAMES) == len(set(METRIC_NAMES)) == len(METRICS)
    assert len(EVENT_NAMES) == len(set(EVENT_NAMES)) == len(EVENTS)
    # A name shared between the catalogs (e.g. client.delta.kept is both a
    # counter and a point event) is deliberate — same phenomenon, two
    # representations — so overlap is allowed; duplicates within one
    # catalog are not.


def test_doc_lint_contract_holds():
    """Every catalog name is in docs/observability.md, and the doc — its
    hand-written prose included; the tables are generated, see
    tests/tools/test_obs_docs.py — names nothing the catalog lacks."""
    repo_root = pathlib.Path(__file__).resolve().parent.parent.parent
    doc = repo_root / "docs" / "observability.md"
    assert doc.exists()
    name_re = re.compile(r"`([a-z][a-z0-9_]*(?:\.[a-z0-9_]+)+)`")
    prefixes = tuple({name.split(".")[0] + "." for name in METRIC_NAMES + EVENT_NAMES})
    documented = {
        m.group(1)
        for m in name_re.finditer(doc.read_text(encoding="utf-8"))
        if m.group(1).startswith(prefixes)
    }
    declared = (set(METRIC_NAMES) | set(EVENT_NAMES)) - {"run"}
    assert declared - documented == set(), "declared but undocumented"
    assert documented - declared == set(), "documented but undeclared"
