"""The benchmark-regression gate (tools/bench_gate.py)."""

import importlib.util
import json
import re
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
_SPEC = importlib.util.spec_from_file_location(
    "bench_gate", REPO_ROOT / "tools" / "bench_gate.py"
)
bench_gate = importlib.util.module_from_spec(_SPEC)
sys.modules.setdefault("bench_gate", bench_gate)
_SPEC.loader.exec_module(bench_gate)


def snapshot(metrics, bench="fig8", **extra):
    return {"bench": bench, "schema": 1, "metrics": metrics, **extra}


def write(path, doc):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture
def gate_dirs(tmp_path):
    return tmp_path / "fresh", tmp_path / "baselines"


def run_gate(fresh_paths, baselines):
    return bench_gate.main(
        [str(p) for p in fresh_paths] + ["--baselines", str(baselines)]
    )


def test_identical_snapshots_pass(gate_dirs, capsys):
    fresh_dir, base_dir = gate_dirs
    metrics = {"gedit/deltacfs/up_bytes": 1000.0, "gedit/deltacfs/tue": 1.2}
    fresh = write(fresh_dir / "BENCH_fig8.json", snapshot(metrics))
    write(base_dir / "fig8.json", snapshot(metrics))
    assert run_gate([fresh], base_dir) == 0
    assert "bench gate: OK (2 metric(s)" in capsys.readouterr().out


def test_ten_percent_regression_fails(gate_dirs, capsys):
    fresh_dir, base_dir = gate_dirs
    write(base_dir / "fig8.json",
          snapshot({"gedit/deltacfs/up_bytes": 1000.0}))
    fresh = write(fresh_dir / "BENCH_fig8.json",
                  snapshot({"gedit/deltacfs/up_bytes": 1100.0}))
    assert run_gate([fresh], base_dir) == 1
    err = capsys.readouterr().err
    assert "regressed" in err and "+10.0%" in err


def test_within_default_tolerance_passes(gate_dirs, capsys):
    fresh_dir, base_dir = gate_dirs
    write(base_dir / "fig8.json",
          snapshot({"gedit/deltacfs/up_bytes": 1000.0}))
    fresh = write(fresh_dir / "BENCH_fig8.json",
                  snapshot({"gedit/deltacfs/up_bytes": 1040.0}))
    assert run_gate([fresh], base_dir) == 0
    capsys.readouterr()


def test_improvement_is_a_note_not_a_failure(gate_dirs, capsys):
    fresh_dir, base_dir = gate_dirs
    write(base_dir / "fig8.json",
          snapshot({"gedit/deltacfs/up_bytes": 1000.0}))
    fresh = write(fresh_dir / "BENCH_fig8.json",
                  snapshot({"gedit/deltacfs/up_bytes": 500.0}))
    assert run_gate([fresh], base_dir) == 0
    out = capsys.readouterr().out
    assert "improved" in out and "re-baselining" in out


def test_tolerance_override_in_baseline(gate_dirs, capsys):
    fresh_dir, base_dir = gate_dirs
    # client_ticks gets a 20% band via the baseline's tolerances map; a
    # +15% move passes there but the same move on up_bytes (default 5%)
    # would fail.
    write(base_dir / "fig8.json", snapshot(
        {"gedit/deltacfs/client_ticks": 100.0},
        tolerances={"client_ticks": 0.20},
    ))
    fresh = write(fresh_dir / "BENCH_fig8.json",
                  snapshot({"gedit/deltacfs/client_ticks": 115.0}))
    assert run_gate([fresh], base_dir) == 0
    capsys.readouterr()


def test_missing_and_new_metrics_fail(gate_dirs, capsys):
    fresh_dir, base_dir = gate_dirs
    write(base_dir / "fig8.json", snapshot({"a/deltacfs/up_bytes": 1.0}))
    fresh = write(fresh_dir / "BENCH_fig8.json",
                  snapshot({"b/deltacfs/up_bytes": 1.0}))
    assert run_gate([fresh], base_dir) == 1
    err = capsys.readouterr().err
    assert "missing from fresh" in err
    assert "is new" in err


def test_missing_baseline_fails(gate_dirs, capsys):
    fresh_dir, base_dir = gate_dirs
    base_dir.mkdir(parents=True)
    fresh = write(fresh_dir / "BENCH_fig8.json",
                  snapshot({"a/deltacfs/up_bytes": 1.0}))
    assert run_gate([fresh], base_dir) == 1
    assert "no baseline" in capsys.readouterr().err


def test_malformed_snapshot_fails(gate_dirs, capsys):
    fresh_dir, base_dir = gate_dirs
    base_dir.mkdir(parents=True)
    bad = fresh_dir
    bad.mkdir(parents=True)
    path = bad / "BENCH_bad.json"
    path.write_text("{}")
    assert run_gate([path], base_dir) == 1
    assert "not a bench snapshot" in capsys.readouterr().err


def test_suffix_tolerance_longest_match_wins():
    overrides = {"tue": 0.02, "deltacfs/tue": 0.10}
    assert bench_gate.tolerance_for("gedit/deltacfs/tue", overrides) == 0.10
    assert bench_gate.tolerance_for("gedit/nfs/tue", overrides) == 0.02
    assert bench_gate.tolerance_for("gedit/nfs/up_bytes", {}) == \
        bench_gate.DEFAULT_TOLERANCE


def test_committed_baselines_are_loadable():
    base_dir = REPO_ROOT / "benchmarks" / "baselines"
    baselines = sorted(base_dir.glob("*.json"))
    assert {p.stem for p in baselines} >= {"table2", "fig8", "fig9"}
    for path in baselines:
        doc = bench_gate.load_snapshot(path)
        assert doc["bench"] == path.stem
        assert doc["metrics"]


def test_every_lane_the_docs_name_has_a_baseline():
    """The guides cannot describe a ``BENCH_<lane>.json`` the gate does not
    protect: each one named in ``docs/*.md`` has a committed baseline."""
    named = {
        (doc.name, lane)
        for doc in (REPO_ROOT / "docs").glob("*.md")
        for lane in re.findall(r"BENCH_([a-z0-9_]+)\.json", doc.read_text(encoding="utf-8"))
    }
    assert len(named) >= 4
    base_dir = REPO_ROOT / "benchmarks" / "baselines"
    assert sorted(n for n in named if not (base_dir / f"{n[1]}.json").exists()) == []


class TestDirectionsAndTolerance:
    """direction: higher baselines and per-suffix tolerances."""

    def test_higher_is_better_regression_fails(self, gate_dirs, capsys):
        fresh_dir, base_dir = gate_dirs
        write(base_dir / "wallclock.json",
              snapshot({"rolling_scan/speedup": 10.0},
                       bench="wallclock", direction="higher"))
        fresh = write(fresh_dir / "BENCH_wallclock.json",
                      snapshot({"rolling_scan/speedup": 6.0},
                               bench="wallclock"))
        assert run_gate([fresh], base_dir) == 1
        err = capsys.readouterr().err
        assert "regressed" in err and "higher-is-better" in err

    def test_higher_is_better_improvement_is_a_note(self, gate_dirs, capsys):
        fresh_dir, base_dir = gate_dirs
        write(base_dir / "wallclock.json",
              snapshot({"rolling_scan/speedup": 10.0},
                       bench="wallclock", direction="higher"))
        fresh = write(fresh_dir / "BENCH_wallclock.json",
                      snapshot({"rolling_scan/speedup": 30.0},
                               bench="wallclock"))
        assert run_gate([fresh], base_dir) == 0
        assert "improved" in capsys.readouterr().out

    def test_higher_within_band_passes_silently(self, gate_dirs, capsys):
        fresh_dir, base_dir = gate_dirs
        write(base_dir / "wallclock.json",
              snapshot({"rolling_scan/speedup": 10.0},
                       bench="wallclock", direction="higher",
                       tolerances={"speedup": 0.2}))
        fresh = write(fresh_dir / "BENCH_wallclock.json",
                      snapshot({"rolling_scan/speedup": 8.5},
                               bench="wallclock"))
        assert run_gate([fresh], base_dir) == 0
        out = capsys.readouterr().out
        assert "OK" in out and "improved" not in out

    def test_invalid_direction_fails_loudly(self, gate_dirs, capsys):
        fresh_dir, base_dir = gate_dirs
        write(base_dir / "bad.json",
              snapshot({"a/x": 1.0}, bench="bad", direction="sideways"))
        fresh = write(fresh_dir / "BENCH_bad.json",
                      snapshot({"a/x": 1.0}, bench="bad"))
        assert run_gate([fresh], base_dir) == 1
        assert "'lower' or 'higher'" in capsys.readouterr().err
