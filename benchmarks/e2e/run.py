"""Whole-run wall-clock benchmark: five workloads, measured end to end.

    python3 benchmarks/e2e/run.py --seed 0 --trace 1 --out benchmarks/results/run.json

runs every workload in a subprocess of its own — the timed pass, then
(``--trace 1``) the traced pass — and merges their results into
``run.json``. With ``--workload NAME`` it runs one pass of one workload in
this process and ends with one JSON line, which is the form the
benchmark driver calls (see ``BENCHMARK.json`` at the repository root).
README.md beside this file explains the metrics and the protocol.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
import types
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import spans  # noqa: E402  (imports nothing of repro until asked)

SCHEMA = 1
MIN_REPEATS = 5

# Every ``repro`` symbol the benchmark imports or patches: the names a
# later refactor must keep importable. ``--check-surface`` resolves them
# (and the boundary table in spans.py) before anything runs.
SURFACE: Tuple[Tuple[str, str], ...] = (
    ("repro.core.client", "DeltaCFSClient"),
    ("repro.server.cloud", "CloudServer"),
    ("repro.server.shard", "ShardRouter"),
    ("repro.net.transport", "Channel"),
    ("repro.net.transport", "LossyChannel"),
    ("repro.net.reliable", "ReliableTransport"),
    ("repro.faults.network", "NetworkFaults"),
    ("repro.vfs.filesystem", "MemoryFileSystem"),
    ("repro.kvstore.kv", "MemoryKV"),
    ("repro.common.clock", "VirtualClock"),
    ("repro.common.config", "DeltaCFSConfig"),
    ("repro.common.rng", "DeterministicRandom"),
    ("repro.harness.fleet", "provision_clients"),
    ("repro.workloads.word", "word_trace"),
    ("repro.workloads.wechat", "wechat_trace"),
    ("repro.workloads.filebench", "varmail_ops"),
    ("repro.workloads.traces", "replay"),
    ("repro.delta.backends", "get_backend"),
    ("repro.delta.backends", "backend_names"),
    ("repro.delta.patch", "apply_delta"),
    ("repro.cost.meter", "CostMeter"),
    ("repro.core.sync_queue", "SyncQueue"),
    ("repro.core.relation_table", "RelationTable"),
    ("repro.core.checksum_store", "ChecksumStore"),
    ("repro.core.recovery", "SyncJournal"),
    ("repro.obs", "Observability"),
    ("repro.obs", "NULL_OBS"),
)


def check_surface() -> Optional[str]:
    """``None`` when every imported and patched symbol resolves, else one
    line naming the first that does not."""
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        return f"benchmark surface not found: no src/repro under {ROOT}"
    for module, name in SURFACE:
        try:
            getattr(importlib.import_module(module), name)
        except (ImportError, AttributeError) as exc:
            return f"benchmark surface not found: {module}.{name} ({exc})"
    try:
        for _, module, cls, names in spans.BOUNDARIES:
            for name in names:
                spans.resolve(module, cls, name)
        spans.resolve(*spans.FORWARD_HOOK)
    except LookupError as exc:
        return str(exc)
    return None


# ---------------------------------------------------------------------------
# metric catalogue: BENCHMARK.json is the one place that names the metrics
# ---------------------------------------------------------------------------


def _with_units(part: str, measured: Dict[str, Dict]) -> Dict[str, Dict]:
    """``measured`` in the order BENCHMARK.json declares its ``end_to_end``
    or ``per_layer`` metrics, each with its unit. A name measured but not
    declared, or declared but not measured, is a mistake in one of the two
    and stops the run."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        units = {metric["name"]: metric["unit"] for metric in json.load(handle)[part]}
    if set(units) != set(measured):
        raise SystemExit(f"BENCHMARK.json {part} and run.py disagree on: "
                         f"{sorted(set(units) ^ set(measured))}")
    return {name: {**measured[name], "unit": unit} for name, unit in units.items()}


# ---------------------------------------------------------------------------
# the speed probe: what the box is doing while a repeat runs
# ---------------------------------------------------------------------------

# The box this runs on changes speed by the second: interpreter-bound code
# swings up to 1.7x with the host's clock frequency, memory-bound code up
# to 1.4x with its neighbours, and a whole 30 s run can sit in one regime
# (README, "Why timings are scaled"). So a fixed kernel — the dict loop
# and ``bytes`` splices of the issue's calibration kernel, cut to 2.5 ms —
# is timed PROBES_PER_REPEAT times inside the measured window, and each
# stretch of wall time between two probes is scaled by PROBE_REF_S over
# what the probes around it took. Timings are then seconds *as this box
# counts them when it is quiet*; the probes' own time is taken out of
# every interval. Probes fall on fixed calls of the (deterministic) call
# sequence, not on the clock, so that what they allocate lands at the
# same points of every run and ``peak_rss_mb`` repeats for a seed.
PROBES_PER_REPEAT = 100
PROBE_REF_S = 0.0025  # one go of the kernel on the quiet 2.1 GHz box
_PROBE_BLOB = bytes(2 << 20)
_PROBE_PATCH = b"\x01" * 4096


def speed_probe() -> float:
    """Seconds one go of the fixed kernel takes right now: half of it
    bound by the interpreter, half by memory, as the workloads are."""
    start = time.perf_counter()
    table: Dict[int, int] = {}
    for i in range(10_000):
        table[i & 1023] = table.get(i & 1023, 0) + i
    blob = _PROBE_BLOB
    for offset in range(0, 2 << 20, 1 << 19):
        blob = blob[:offset] + _PROBE_PATCH + blob[offset + 4096 :]
    return time.perf_counter() - start


class Scaled:
    """A stretch of wall time from now on, probed. ``wall_s`` is what the
    clock said with the probes taken out, ``quiet_s`` the same stretch
    scaled piece by piece to the quiet box's speed."""

    def __init__(self, probing: bool = True) -> None:
        self.wall_s = 0.0
        self.quiet_s = 0.0
        self.probes: List[float] = [speed_probe()] if probing else []
        self._mark = time.perf_counter()

    def probe(self, now: float) -> None:
        """Close the piece that ended at ``now`` and open the next."""
        piece = now - self._mark
        self.wall_s += piece
        if not self.probes:
            self.quiet_s += piece
            return
        self.probes.append(speed_probe())
        self.quiet_s += piece * PROBE_REF_S * 2 / (self.probes[-2] + self.probes[-1])
        self._mark = time.perf_counter()

    @property
    def slowdown(self) -> float:
        """How much slower than the quiet box this stretch ran."""
        return self.wall_s / self.quiet_s


# ---------------------------------------------------------------------------
# one repeat
# ---------------------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Loop:
    """Issues application ops and sync calls one at a time, timing each,
    and probes the box's speed after every ``probe_every``-th of them."""

    def __init__(self, window: Optional[Scaled] = None, probe_every: int = 0) -> None:
        self.window = window or Scaled(probing=False)
        self.probe_every = probe_every
        self.calls = 0
        self.latencies: List[float] = []  # one per application-facing call
        self.failed = 0
        self.first_error: Optional[str] = None
        self.sync_s = 0.0  # wall time inside pump / flush / settle
        self.units = 0  # upload units those calls reported shipping

    def _called(self, end: float) -> None:
        self.calls += 1
        if self.probe_every and self.calls % self.probe_every == 0:
            self.window.probe(end)

    def op(self, fn: Callable, *args) -> None:
        start = time.perf_counter()
        try:
            fn(*args)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            self.failed += 1
            if self.first_error is None:
                self.first_error = f"{getattr(fn, '__name__', fn)}{args[:1]}: {exc!r}"
        end = time.perf_counter()
        self.latencies.append(end - start)
        self._called(end)

    def sync(self, fn: Callable, *args) -> None:
        start = time.perf_counter()
        shipped = fn(*args)
        end = time.perf_counter()
        self.sync_s += end - start
        if isinstance(shipped, int):
            self.units += shipped
        self._called(end)

    def timed_fs(self, fs: object) -> object:
        """The file-op surface of ``fs`` with every call going through
        :meth:`op`, so ``replay`` can drive a client op by timed op."""
        return types.SimpleNamespace(
            **{name: partial(self.op, getattr(fs, name)) for name in spans.FS_OPS}
        )


# What a repeat times, and whether more of it is better; the rest of a
# repeat's numbers are simulated and do not move with the box.
TIMINGS = {
    "setup_s": False, "ops_per_s": True, "op_latency_us_p50": False,
    "op_latency_us_p99": False, "sync_units_per_s": True,
}


def one_repeat(workload, seed: int, quick: bool, *, probe_every: int = 0,
               recorder=None, **build_args) -> Dict:
    """Build, drive and verify ``workload`` once; everything measured.

    Each timing comes out twice: under its own name scaled to the quiet
    box, and under ``wall`` as the clock read it. With ``probe_every`` 0
    the window is scaled by one probe before it and one after.
    """
    root = recorder.root if recorder is not None else (lambda name: contextlib.nullcontext())
    probing = recorder is None  # a traced repeat is read as shares, not speeds
    gc.collect()
    if recorder is not None:
        recorder.install()
    try:
        setup = Scaled(probing)
        with root(spans.SETUP):
            system = workload.build(seed, quick, **build_args)
        setup.probe(time.perf_counter())
        before = system.counters()
        window = Scaled(probing)
        loop = Loop(window, probe_every)
        with root(spans.DRIVER):
            workload.drive(system, loop)
        window.probe(time.perf_counter())
    finally:
        if recorder is not None:
            recorder.restore()
    after = system.counters()
    counted = {key: after[key] - before[key] for key in after}
    compared, wrong = workload.verify(system, counted)
    failed = loop.failed + len(wrong)
    if loop.first_error:
        wrong.insert(0, f"{loop.failed} ops raised, first {loop.first_error}")
    latencies = sorted(loop.latencies)
    wall = {
        "setup_s": setup.wall_s,
        "ops_per_s": len(latencies) / window.wall_s,
        "op_latency_us_p50": statistics.median(latencies) * 1e6,
        # the highest percentile with at least ten samples beyond it
        "op_latency_us_p99": latencies[math.ceil(0.99 * len(latencies)) - 1] * 1e6,
        "sync_units_per_s": _ratio(loop.units, loop.sync_s),
    }
    quiet = {}
    for name, higher in TIMINGS.items():
        slowdown = (setup if name == "setup_s" else window).slowdown
        quiet[name] = wall[name] * slowdown if higher else wall[name] / slowdown
    return {
        **quiet,
        "wall": wall,
        "window_s": window.wall_s,
        "slowdown": window.slowdown,
        "probe_s": statistics.mean(window.probes) if window.probes else 0.0,
        "gen_s": system.gen_s,
        "ops": len(latencies),
        "calls": loop.calls,
        "bytes_written": system.bytes_written,
        "clients": len(system.clients),
        "attempted": len(latencies) + compared,
        "failed": failed,
        "why_failed": wrong[:5],
        "units": loop.units,
        "tue": _ratio(counted["up_bytes"] + counted["down_bytes"], system.update_bytes),
        "model_ticks": counted["ticks"],
        "counted": counted,
    }


def steady_allocator() -> None:
    """Tell glibc malloc to keep freed heap mapped.

    By default it trims the heap and re-faults it between the
    multi-megabyte splices the trace workloads make; those page faults
    took 0.1 to 1.1 s of a 3 s ``word_save`` window from one repeat to the
    next and were the largest single source of run-to-run noise.
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return  # not glibc: nothing to steady
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    trim_threshold, top_pad, mmap_threshold = -1, -2, -3  # <malloc.h>
    mallopt(trim_threshold, 1 << 30)
    mallopt(top_pad, 64 << 20)
    mallopt(mmap_threshold, 32 << 20)  # the largest glibc accepts


# ---------------------------------------------------------------------------
# the two passes of one workload
# ---------------------------------------------------------------------------

# The driver allows its runs twice ``--seconds`` each on average, start to
# exit. The warm-up and five repeats take 17-25 s on four workloads and
# about 30 s on fleet_small, more when the box is slow; a run stops adding
# repeats at this share of the allowance (never below three) rather than
# break the cap for every run after it.
WHOLE_RUN = 1.85  # x --seconds


def _summary(values: List[float]) -> Dict[str, object]:
    """Median with the quartiles and count it was taken over."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"value": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "values": values}


def _probe_every(warm_up: Dict) -> int:
    """How many timed calls apart the probes of the repeats after the
    (discarded) ``warm_up`` fall."""
    return max(1, warm_up["calls"] // PROBES_PER_REPEAT)


def timed_pass(workload, seed: int, quick: bool, seconds: float, repeats: int) -> Dict:
    """Tracing off: one discarded warm-up repeat, then at least ``repeats``
    timed ones, more while they fit in ``seconds``; medians across repeats."""
    started = time.perf_counter()
    every = _probe_every(one_repeat(workload, seed, quick))
    runs: List[Dict] = []
    measured = 0.0
    while True:
        runs.append(one_repeat(workload, seed, quick, probe_every=every))
        measured += runs[-1]["wall"]["setup_s"] + runs[-1]["window_s"]
        spent = time.perf_counter() - started
        if len(runs) >= repeats and measured + measured / len(runs) > seconds:
            break
        if len(runs) >= 3 and spent + spent / (len(runs) + 1) > WHOLE_RUN * seconds:
            break
    metrics = {name: _summary([run[name] for run in runs])
               for name in [*TIMINGS, "tue", "model_ticks"]}
    for name in TIMINGS:
        metrics[name]["wall"] = statistics.median(run["wall"][name] for run in runs)
    metrics["peak_rss_mb"] = _summary(
        [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0])
    return _pass_doc(runs, _with_units("end_to_end", metrics))


def traced_pass(workload, seed: int, quick: bool, spans_out: Optional[str]) -> Dict:
    """Per-layer numbers: one untraced repeat for reference, one traced,
    one with live observability (and, on ``fleet_small``, one under
    ``tracemalloc``)."""
    from repro.obs import Observability

    every = _probe_every(one_repeat(workload, seed, quick))
    plain = one_repeat(workload, seed, quick, probe_every=every)
    recorder = spans.Recorder()
    traced = one_repeat(workload, seed, quick, recorder=recorder)
    obs = Observability()
    observed = one_repeat(workload, seed, quick, probe_every=every, obs=obs)
    runs = [plain, traced, observed]
    heap_per_client = 0.0
    if workload.name == "fleet_small":
        tracemalloc.start()
        try:
            runs.append(one_repeat(workload, seed, quick, probe_every=every))
            heap_per_client = tracemalloc.get_traced_memory()[1] / plain["clients"]
        finally:
            tracemalloc.stop()
    if spans_out:
        recorder.dump(spans_out, workload.name)

    rows = recorder.by_layer(spans.DRIVER)
    # Self times of the window's spans must add up to the window.
    self_s_sum = sum(row["self_s"] for row in rows.values())
    # Provisioning happens during set-up, so that one layer is read there.
    provision = rows["harness.provision"] = recorder.by_layer(spans.SETUP)["harness.provision"]
    counted = traced["counted"]
    values: Dict[str, float] = {}
    for layer in spans.LAYERS:
        values[f"{layer}.calls"] = rows[layer]["calls"]
        values[f"{layer}.self_s"] = rows[layer]["self_s"]
    values.update(recorder.counts)
    values.update({
        "core.pump.units_shipped": traced["units"],
        "core.forward.applied": counted["forwards_applied"],
        "delta.kept_share": _ratio(counted["deltas_kept"], counted["deltas_triggered"]),
        "net.up_bytes": counted["up_bytes"],
        "net.down_bytes": counted["down_bytes"],
        "net.messages": counted["messages"],
        "net.reliable.sent": counted["sent"],
        "net.reliable.retransmits": counted["retransmits"],
        "net.reliable.acked_per_sent": _ratio(counted["acked"], counted["sent"]),
        "server.conflicts": counted["rejected"],
        "server.dedup_drops": counted["dedup_drops"],
        "server.forward.fanout": _ratio(counted["forwards_applied"], counted["applied"]),
        "server.router.migrations": counted["migrations"],
        "harness.provision.us_per_client":
            _ratio(provision["total_s"] * 1e6, traced["clients"]),
        "harness.peak_heap_bytes_per_client": heap_per_client,
        "workloads.gen_s": plain["gen_s"],
        "obs.on_ratio": plain["ops_per_s"] / observed["ops_per_s"],
        "obs.events": obs.tracer.records_recorded,
        # the traced repeat is not probed, so this one ratio is of wall times
        "trace.overhead_ratio": traced["window_s"] / plain["window_s"],
    })
    doc = _pass_doc(runs, _with_units(
        "per_layer", {name: {"value": value} for name, value in values.items()}))
    doc.update(self_s_sum=self_s_sum, traced_window_s=traced["window_s"])
    return doc


def _pass_doc(runs: List[Dict], metrics: Dict) -> Dict:
    probed = [run for run in runs if run["probe_s"]]
    attempted = sum(run["attempted"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    return {
        "metrics": metrics,
        "repeats": len(runs),
        # context: the probe kernel's mean time and the window's slowdown,
        # each the median over the probed repeats
        "cal_s": statistics.median(run["probe_s"] for run in probed),
        "slowdown": statistics.median(run["slowdown"] for run in probed),
        "ops": runs[0]["ops"],  # each one a latency sample
        "bytes_written": runs[0]["bytes_written"],
        "attempted": attempted,
        "failed": failed,
        "ops_failed_share": failed / attempted,
        "why_failed": sorted({why for run in runs for why in run["why_failed"]}),
    }


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def run_one(workload, args) -> int:
    """One pass of one workload in this process (what the driver calls)."""
    steady_allocator()
    if args.trace:
        spans_out = args.out + ".spans.jsonl" if args.out else None
        doc = traced_pass(workload, args.seed, args.quick, spans_out)
    else:
        repeats = args.repeats or (2 if args.quick else MIN_REPEATS)
        seconds = 0.0 if args.quick else args.seconds
        doc = timed_pass(workload, args.seed, args.quick, seconds, repeats)
    doc.update(schema=SCHEMA, workload=workload.name, seed=args.seed,
               quick=args.quick, trace=bool(args.trace))
    print(f"# {workload.name}: seed {args.seed}, {doc['repeats']} repeats, "
          f"{doc['ops']} ops and {doc['bytes_written']} bytes written per repeat; "
          f"the box ran {doc['slowdown']:.2f}x slower than quiet (cal_s {doc['cal_s']:.5f})")
    for name, metric in doc["metrics"].items():
        notes = ""
        if "q1" in metric:
            notes = f"  [q1 {metric['q1']:.6g}, q3 {metric['q3']:.6g}, n {metric['n']}]"
        if "wall" in metric:
            notes += f"  wall {metric['wall']:.6g}"
        print(f"{workload.name}  {name:<40} {metric['value']:>16.6f} {metric['unit']}{notes}")
    print(f"{workload.name}  ops_attempted {doc['attempted']}  ops_failed {doc['failed']}  "
          f"ops_failed_share {doc['ops_failed_share']:.6f}")
    for why in doc["why_failed"]:
        print(f"{workload.name}  FAILED: {why}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as out:
            json.dump(doc, out, indent=1)
    print(json.dumps({
        "correct": doc["failed"] == 0,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {name: {"value": metric["value"], "unit": metric["unit"]}
                    for name, metric in doc["metrics"].items()},
    }))
    return 0 if doc["failed"] == 0 else 1


def run_all(names: List[str], args) -> int:
    """Every workload, each pass in a fresh subprocess; merged into --out."""
    merged = {"schema": SCHEMA, "seed": args.seed, "quick": args.quick, "workloads": {}}
    status = 0
    if args.out and os.path.exists(args.out + ".spans.jsonl"):
        os.remove(args.out + ".spans.jsonl")  # the passes below append to it
    for name in names:
        entry = merged["workloads"][name] = {}
        for trace in ([0, 1] if args.trace else [0]):
            command = [sys.executable, os.path.abspath(__file__), "--workload", name,
                       "--seed", str(args.seed), "--seconds", str(args.seconds),
                       "--trace", str(trace)]
            if args.repeats:
                command += ["--repeats", str(args.repeats)]
            if args.quick:
                command.append("--quick")
            part = None
            if args.out:
                part = f"{args.out}.{name}.part"
                command += ["--out", part]
            status |= subprocess.run(command, check=False).returncode
            if part and os.path.exists(part):
                with open(part, encoding="utf-8") as handle:
                    entry["per_layer" if trace else "end_to_end"] = json.load(handle)
                os.remove(part)
                spans_part = part + ".spans.jsonl"
                if os.path.exists(spans_part):
                    with open(spans_part, "rb") as src, \
                            open(args.out + ".spans.jsonl", "ab") as dst:
                        shutil.copyfileobj(src, dst)
                    os.remove(spans_part)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as out:
            json.dump(merged, out, indent=1)
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one pass of this workload only")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="keep adding timed repeats while they fit in this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced pass (with --workload, instead of the timed pass)")
    parser.add_argument("--repeats", type=int, default=0,
                        help=f"least number of timed repeats (default {MIN_REPEATS}); a run "
                             f"that has taken {WHOLE_RUN} x --seconds stops at three or more")
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs for the self-test; results are not comparable")
    parser.add_argument("--out", help="write the results here as JSON")
    parser.add_argument("--check-surface", action="store_true",
                        help="only resolve the imported and patched symbols")
    args = parser.parse_args(argv)

    missing = check_surface()
    if missing or args.check_surface:
        print(missing or "benchmark surface ok", file=sys.stderr if missing else sys.stdout)
        return 2 if missing else 0
    from workloads import WORKLOADS

    if args.workload is None:
        return run_all(list(WORKLOADS), args)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; pick one of {list(WORKLOADS)}")
    return run_one(WORKLOADS[args.workload], args)


if __name__ == "__main__":
    sys.exit(main())
