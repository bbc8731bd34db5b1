"""Self-test of the benchmark: ``python -m pytest benchmarks/e2e -q``.

Everything here runs the ``--quick`` inputs; it checks the benchmark's
own bookkeeping, not the speed of the system.
"""

import copy
import hashlib
import json
import os
import posixpath
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import compare  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCH = json.load(_handle)


def _script(name, *args):
    return subprocess.run([sys.executable, os.path.join(HERE, name), *args],
                          capture_output=True, text=True, check=False)


@pytest.fixture(scope="module")
def quick_doc(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("e2e") / "quick.json")
    done = _script("run.py", "--quick", "--seed", "0", "--trace", "1", "--out", out)
    assert done.returncode == 0, done.stdout + done.stderr
    with open(out, encoding="utf-8") as handle:
        return out, json.load(handle)


def test_quick_run_emits_exactly_the_declared_names(quick_doc):
    out, doc = quick_doc
    assert doc["quick"] is True
    assert list(doc["workloads"]) == [w["name"] for w in BENCH["workloads"]]
    for entry in doc["workloads"].values():
        for part in ("end_to_end", "per_layer"):
            declared = {m["name"]: m["unit"] for m in BENCH[part]}
            emitted = {n: m["unit"] for n, m in entry[part]["metrics"].items()}
            assert emitted == declared
            assert entry[part]["failed"] == 0 == entry[part]["ops_failed_share"]
    assert os.path.getsize(out + ".spans.jsonl") > 0


def test_compare_refuses_a_quick_run(quick_doc):
    out, _ = quick_doc
    assert _script("compare.py", out, out).returncode == 2


def test_compare_calls_a_run_that_fails_more_worse(quick_doc):
    _, doc = quick_doc
    # a file against itself: nothing moves (quick repeats may spread too wide to tell)
    assert {row[5] for row in compare.compare(BENCH, doc, doc)} <= {"same", "unresolved"}
    failing = copy.deepcopy(doc)
    failing["workloads"]["word_save"]["end_to_end"]["ops_failed_share"] = 0.01
    worse = [row[:2] for row in compare.compare(BENCH, doc, failing) if row[5] == "worse"]
    assert worse == [("word_save", "ops_failed_share")]


def test_a_stretch_is_scaled_by_the_probes_around_it(monkeypatch):
    monkeypatch.setattr(run, "speed_probe", lambda: 2 * run.PROBE_REF_S)
    stretch = run.Scaled()
    stretch.probe(stretch._mark + 3.0)
    assert stretch.wall_s == pytest.approx(3.0) and stretch.quiet_s == pytest.approx(1.5)
    assert stretch.slowdown == pytest.approx(2.0)
    unprobed = run.Scaled(probing=False)
    unprobed.probe(unprobed._mark + 3.0)
    assert unprobed.slowdown == 1.0


def test_the_loop_probes_on_fixed_calls(monkeypatch):
    monkeypatch.setattr(run, "speed_probe", lambda: run.PROBE_REF_S)
    loop = run.Loop(run.Scaled(), probe_every=3)
    for _ in range(4):
        loop.op(len, "")
        loop.sync(len, "")
    assert loop.calls == 8 and len(loop.latencies) == 4
    assert len(loop.window.probes) == 1 + 8 // 3


def test_driver_form_ends_with_the_result_line():
    done = _script("run.py", "--workload", "fleet_small", "--seed", "3",
                   "--seconds", "1", "--trace", "0", "--quick")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}


def _traced(name, seed):
    recorder = spans.Recorder()
    result = run.one_repeat(WORKLOADS[name], seed, True, recorder=recorder)
    rows = recorder.by_layer(spans.DRIVER)
    exact = {
        "tue": result["tue"], "model_ticks": result["model_ticks"],
        "ops": result["ops"], **result["counted"], **recorder.counts,
        **{f"{layer}.calls": row["calls"] for layer, row in rows.items()},
    }
    return result, rows, exact


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_counters_repeat_for_a_seed_and_inputs_move_with_it(name):
    assert _traced(name, 0)[2] == _traced(name, 0)[2]
    assert WORKLOADS[name].build(0, True).plan != WORKLOADS[name].build(1, True).plan
    # fleet_small and shared_fanout issue fixed-size writes, so only the
    # bytes move with the seed there; on the others the counts do too.
    if name not in ("fleet_small", "shared_fanout"):
        assert _traced(name, 0)[2] != _traced(name, 1)[2]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_self_times_add_up_to_the_window(name):
    result, rows, _ = _traced(name, 0)
    assert result["failed"] == 0
    total = sum(row["self_s"] for row in rows.values())
    assert abs(total - result["window_s"]) <= 0.05 * result["window_s"]


def test_tracing_puts_every_patched_attribute_back():
    def patched():
        found = [spans.resolve(module, cls, name)[1]
                 for _, module, cls, names in spans.BOUNDARIES for name in names]
        found += [vars(cls)[name] for cls, name in spans._encoder_entries()]
        found += [spans.resolve(*spans.FORWARD_HOOK)[1], posixpath.normpath, hashlib.md5]
        import repro.server.cloud
        return found + [repro.server.cloud.apply_delta]

    before = patched()
    _traced("mail_lossy_journal", 0)
    after = patched()
    assert len(before) == len(after)
    assert all(a is b for a, b in zip(before, after))


def test_a_corrupted_server_file_counts_as_failed():
    workload = WORKLOADS["word_save"]
    system = workload.build(0, True)
    before = system.counters()
    workload.drive(system, run.Loop())
    window = {key: value - before[key] for key, value in system.counters().items()}
    assert workload.verify(system, window)[1] == []
    stored = system.server.store.get("/report.docx")
    stored.content = stored.content[:-1] + bytes([stored.content[-1] ^ 1])
    assert workload.verify(system, window)[1] == [
        "server copy of /report.docx differs from client 1"]


def test_check_surface_names_a_missing_symbol(monkeypatch):
    assert run.check_surface() is None
    monkeypatch.setattr(run, "SURFACE", run.SURFACE + (("repro.core.client", "Gone"),))
    assert "repro.core.client.Gone" in run.check_surface()
