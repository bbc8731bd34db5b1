"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


def test_info(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "repro.core" in out
    assert "DeltaCFS" in out


def test_experiment_table4(capsys):
    assert main(["experiment", "table4"]) == 0
    out = capsys.readouterr().out
    assert "detect" in out
    assert "deltacfs" in out


def test_experiment_fig2_fast(capsys):
    assert main(["experiment", "fig2", "--fast"]) == 0
    out = capsys.readouterr().out
    assert "TUE" in out


def test_trace_and_replay(tmp_path, capsys):
    trace_path = str(tmp_path / "g.trace")
    assert main(["trace", "gedit", "--out", trace_path, "--ops", "3"]) == 0
    out = capsys.readouterr().out
    assert "wrote" in out

    assert main(["replay", trace_path, "--solution", "deltacfs"]) == 0
    out = capsys.readouterr().out
    assert "deltacfs" in out


def test_replay_unknown_solution(tmp_path, capsys):
    trace_path = str(tmp_path / "g.trace")
    main(["trace", "gedit", "--out", trace_path, "--ops", "1"])
    capsys.readouterr()
    assert main(["replay", trace_path, "--solution", "icloud"]) == 2


@pytest.mark.parametrize("damage", [
    lambda raw: b"",                      # an empty file
    lambda raw: b"NOTATRAC" + raw[8:],    # a bad magic
    lambda raw: raw[: len(raw) // 2],     # a truncated file
    lambda raw: raw + b"garbage",         # trailing bytes
], ids=["empty", "bad-magic", "truncated", "trailing-garbage"])
def test_replay_malformed_trace_is_a_clean_error(tmp_path, capsys, damage):
    good = tmp_path / "g.trace"
    main(["trace", "gedit", "--out", str(good), "--ops", "1"])
    bad = tmp_path / "bad.trace"
    bad.write_bytes(damage(good.read_bytes()))
    capsys.readouterr()
    assert main(["replay", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"cannot read trace {str(bad)!r}: ")
    assert captured.out == ""


def test_replay_unreadable_trace_is_a_clean_error(tmp_path, capsys):
    assert main(["replay", str(tmp_path / "missing.trace")]) == 2
    assert "cannot read trace" in capsys.readouterr().err


def test_experiment_runs_several_names_in_table_order(capsys):
    assert main(["experiment", "table4", "fig2", "--fast"]) == 0
    out = capsys.readouterr().out
    assert out.index("Figure 2") < out.index("Table IV")


def test_bad_subcommand():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def _record_trace(tmp_path, capsys):
    """Produce a recorded trace.jsonl via the CLI and return its path."""
    gtrace = str(tmp_path / "g.trace")
    jsonl = str(tmp_path / "trace.jsonl")
    assert main(["trace", "gedit", "--out", gtrace, "--ops", "2"]) == 0
    assert main(["replay", gtrace, "--trace-out", jsonl]) == 0
    capsys.readouterr()
    return jsonl


def test_inspect_summary(tmp_path, capsys):
    jsonl = _record_trace(tmp_path, capsys)
    assert main(["inspect", jsonl]) == 0
    out = capsys.readouterr().out
    assert "critical path" in out
    assert "run.replay" in out
    assert "metrics snapshot embedded" in out


def test_inspect_attribution_reconciles(tmp_path, capsys):
    jsonl = _record_trace(tmp_path, capsys)
    assert main(["inspect", jsonl, "--attribution"]) == 0
    out = capsys.readouterr().out
    assert "uplink cost attribution" in out
    assert "/notes.txt" in out
    assert "reconciled" in out


def test_inspect_exporters(tmp_path, capsys):
    import json

    from repro.obs.export import check_openmetrics

    jsonl = _record_trace(tmp_path, capsys)
    chrome = str(tmp_path / "chrome.json")
    om = str(tmp_path / "metrics.om.txt")
    assert main(["inspect", jsonl, "--chrome-out", chrome,
                 "--openmetrics-out", om]) == 0
    doc = json.loads(open(chrome).read())
    assert doc["traceEvents"]
    text = open(om).read()
    assert check_openmetrics(text) == []


def test_inspect_bad_inputs(tmp_path, capsys):
    assert main(["inspect", str(tmp_path / "missing.jsonl")]) == 2
    garbage = tmp_path / "garbage.jsonl"
    garbage.write_text("not json\n")
    assert main(["inspect", str(garbage)]) == 2
    capsys.readouterr()


def test_inspect_attribution_reports_a_non_number_attr(tmp_path, capsys):
    trace = tmp_path / "t.jsonl"
    trace.write_text(json.dumps({
        "type": "event", "name": "channel.upload", "parent": None, "ts": 0.0,
        "attrs": {"type": "MetaOp", "bytes": "x"}}) + "\n")
    assert main(["inspect", str(trace), "--summary"]) == 0
    capsys.readouterr()
    assert main(["inspect", str(trace), "--attribution"]) == 2
    err = capsys.readouterr().err
    assert err == f"{trace}: channel.upload: attr 'bytes' must be a number, not 'x'\n"


@pytest.mark.parametrize(
    "verb", (["inspect"], ["check", "--no-lint", "--traces"]), ids=("inspect", "check")
)
def test_malformed_trace_records_are_a_clean_error(tmp_path, capsys, verb):
    from tests.obs.test_analyze import MALFORMED_RECORDS

    good = ('{"type":"span_start","name":"run","id":1,"parent":null,"ts":0.0}',)
    for number, line in enumerate(MALFORMED_RECORDS):
        bad = tmp_path / f"bad{number}.jsonl"
        bad.write_text("\n".join(good + (line,)) + "\n")
        assert main(verb + [str(bad)]) == 2, line
        captured = capsys.readouterr()
        assert captured.err.startswith(f"{bad}: line 2: "), captured.err
        assert "Traceback" not in captured.err


def test_inspect_openmetrics_needs_snapshot(tmp_path, capsys):
    import json

    bare = tmp_path / "bare.jsonl"
    bare.write_text(json.dumps(
        {"type": "span_start", "name": "run", "id": 1, "parent": None,
         "ts": 0.0, "attrs": {}}) + "\n")
    rc = main(["inspect", str(bare), "--openmetrics-out",
               str(tmp_path / "om.txt")])
    assert rc == 2
    assert "snapshot" in capsys.readouterr().err


def test_experiment_bench_json(tmp_path, capsys):
    import json

    bench_dir = str(tmp_path / "bench")
    assert main(["experiment", "fig1", "--fast",
                 "--bench-json", bench_dir]) == 0
    capsys.readouterr()
    snap = json.loads(open(f"{bench_dir}/BENCH_fig1.json").read())
    assert snap["bench"] == "fig1" and snap["schema"] == 1
    assert any(key.endswith("/up_bytes") for key in snap["metrics"])
    assert all(isinstance(v, float) for v in snap["metrics"].values())


def test_experiment_bench_json_rejects_non_run_experiments(tmp_path, capsys):
    rc = main(["experiment", "table4", "--bench-json",
               str(tmp_path / "bench")])
    assert rc == 2
    assert "RunResult" in capsys.readouterr().err


def test_crash_replay_measures_the_same_window_everywhere(tmp_path, capsys):
    """`replay --journal --crash-at` is the same measured run as a plain
    replay: run.* spans, preload outside the window, and one byte count —
    printed, under --metrics, and attributed offline."""
    import re

    from repro.metrics.report import format_bytes

    trace = str(tmp_path / "w.trace")
    jsonl = str(tmp_path / "crash.jsonl")
    assert main(["trace", "word", "--out", trace, "--scale", "64", "--ops", "4"]) == 0
    capsys.readouterr()
    assert main(["replay", trace, "--journal", str(tmp_path / "j.wal"),
                 "--crash-at", "8", "--metrics", "--trace-out", jsonl]) == 0
    out = capsys.readouterr().out
    assert "crashed after op 8/33" in out
    printed_up = re.search(r"total traffic: up (\S+)", out).group(1)
    metric_up = sum(
        int(n) for n in re.findall(r"^channel\.up\.bytes\{[^}]*\}\s+(\d+)\s*$", out, re.M)
    )
    assert metric_up > 0 and format_bytes(metric_up) == printed_up

    assert main(["inspect", jsonl, "--summary", "--attribution"]) == 0
    out = capsys.readouterr().out
    for span in ("run", "run.preload", "run.replay", "run.settle", "run.flush"):
        assert re.search(rf"^{re.escape(span)}\s+1\s", out, re.M), span
    attributed, preload = re.search(
        r"total attributed: (\d+) B\s+\(\+ (\d+) B preload, excluded\)", out
    ).groups()
    assert int(attributed) == metric_up and int(preload) > 0
    assert "reconciled" in out


def test_fleet_trace_out_smoke(tmp_path, capsys):
    """`fleet --trace-out` streams a trace `inspect` can read back; the
    recordability cap and an unwritable path are refused up front."""
    import json

    jsonl = tmp_path / "fleet.jsonl"
    assert main(["fleet", "--clients", "20", "--shards", "2",
                 "--trace-out", str(jsonl)]) == 0
    out = capsys.readouterr().out
    records = [json.loads(line) for line in jsonl.read_text().splitlines()]
    assert f"wrote {jsonl}: {len(records) - 1} trace records" in out
    assert records[-1]["type"] == "snapshot"
    assert main(["inspect", str(jsonl), "--health"]) == 0
    capsys.readouterr()

    assert main(["fleet", "--clients", "2001", "--trace-out", str(jsonl)]) == 2
    assert main(["fleet", "--clients", "20", "--trace-out",
                 str(tmp_path / "missing" / "f.jsonl")]) == 1
    assert "cannot write trace to" in capsys.readouterr().err


def test_inspect_health_refuses_a_trace_of_several_runs(tmp_path, capsys):
    """A `--curve` trace holds one run record per point; one health report
    covers one run, so `inspect --health` refuses it as `--health-out`
    refuses a curve."""
    from repro.harness.fleet import FleetSpec, fleet_curve
    from repro.obs import Observability, Tracer

    jsonl = tmp_path / "curve.jsonl"
    spec = FleetSpec(n_clients=10, n_shards=2, writes_per_client=1)
    with open(jsonl, "w", encoding="utf-8") as sink:
        fleet_curve((spec, spec), obs=Observability(tracer=Tracer(sink=sink)))
    assert main(["inspect", str(jsonl), "--health"]) == 2
    captured = capsys.readouterr()
    assert "2 fleet runs" in captured.err
    assert "health (trace)" not in captured.out


def test_fleet_curve_refuses_health_out(tmp_path, capsys):
    """`--health-out` holds one fleet's report and a curve runs four, so the
    combination is refused before anything runs instead of keeping one."""
    report = tmp_path / "health.json"
    bench = tmp_path / "bench"
    for flags in (["--curve"], ["--bench-json", str(bench)]):
        assert main(["fleet", *flags, "--health-out", str(report)]) == 2
        captured = capsys.readouterr()
        assert "--health-out" in captured.err
        assert captured.out == ""
    assert not report.exists() and not bench.exists()
