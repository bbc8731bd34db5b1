"""The `repro check` CLI surface: lint + trace verification + exit codes."""

import json

from repro.cli import main
from repro.faults.network import NetworkFaults
from repro.harness.runner import run_trace
from repro.kvstore.kv import MemoryKV
from repro.net.reliable import RetryPolicy
from repro.obs import Observability
from repro.obs.export import snapshot_record
from repro.workloads import gedit_trace


def write_lossy_trace(path, saves=3):
    obs = Observability()
    run_trace(
        "deltacfs",
        gedit_trace(saves=saves),
        obs=obs,
        faults=NetworkFaults(drop_prob=0.2, dup_prob=0.1),
        retry=RetryPolicy(),
        fault_seed=5,
        journal_kv=MemoryKV(),
    )
    lines = obs.tracer.to_jsonl().splitlines()
    lines.append(json.dumps(snapshot_record(obs.metrics, obs.clock.now())))
    path.write_text("\n".join(lines) + "\n")


class TestCheckCommand:
    def test_lint_of_the_installed_tree_is_green(self, capsys):
        assert main(["check"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_planted_file_fails(self, tmp_path, capsys):
        planted = tmp_path / "bad.py"
        planted.write_text("import time\nT = time.time()\n")
        assert main(["check", str(planted)]) == 1
        assert "DET001" in capsys.readouterr().out

    def test_traces_verified(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        write_lossy_trace(trace)
        assert main(["check", "--no-lint", "--traces", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "ok   INV-EXACTLY-ONCE" in out
        assert "ok   INV-JOURNAL-ORDER" in out
        assert "FAIL" not in out

    def test_violated_trace_fails_with_pointed_report(self, tmp_path, capsys):
        trace = tmp_path / "bad.jsonl"
        records = [
            {"type": "event", "name": "server.envelope", "ts": 0.0,
             "parent": None,
             "attrs": {"client": 1, "msg_id": 1, "duplicate": False}},
            {"type": "event", "name": "server.envelope", "ts": 1.0,
             "parent": None,
             "attrs": {"client": 1, "msg_id": 1, "duplicate": False}},
        ]
        trace.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        assert main(["check", "--no-lint", "--traces", str(trace)]) == 1
        out = capsys.readouterr().out
        assert "FAIL INV-EXACTLY-ONCE" in out
        assert "msg_id 1" in out

    def test_json_output(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        write_lossy_trace(trace)
        assert main(["check", "--json", "--traces", str(trace)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["failed"] is False
        statuses = {
            r["id"]: r["status"]
            for r in payload["invariants"][str(trace)]
        }
        assert statuses["INV-EXACTLY-ONCE"] == "ok"
        assert len(statuses) == 8

    def test_missing_trace_is_usage_error(self, tmp_path):
        assert main(
            ["check", "--no-lint", "--traces", str(tmp_path / "absent.jsonl")]
        ) == 2

    def test_unwritable_sarif_path_is_an_io_error(self, tmp_path, capsys):
        # Used to escape as a FileNotFoundError traceback.
        target = tmp_path / "no" / "such" / "dir" / "x.sarif"
        assert main(["check", "--no-lint", "--sarif", str(target)]) == 2
        captured = capsys.readouterr()
        assert "cannot write SARIF log to" in captured.err
        assert str(target) in captured.err
