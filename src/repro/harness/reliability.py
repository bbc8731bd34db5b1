"""The Table IV reliability scenarios (paper Section IV-E).

Three tests per service:

- **Corrupted data**: flip a bit beneath the file system, restart the sync
  client, write 1 byte to the file. Dropbox/Seafile cannot tell user
  modification from corruption — their restart rescan uploads the corrupted
  content. DeltaCFS's block checksums catch the mismatch and recover from
  the cloud.
- **Crash inconsistency**: power-cut while a file is being written, then
  (simulating ordered-journaling's torn window) inject data that changed
  without metadata. Dropbox/Seafile upload the inconsistent file when they
  notice it changed; DeltaCFS's post-crash ``recover()`` compares blocks
  against the checksum store, flags the file and repairs it — keeping the
  write that was in flight at the cut.
- **Causal upload order**: create files of different sizes in order.
  DeltaCFS's FIFO Sync Queue preserves the update order on the cloud;
  Dropbox/Seafile upload concurrently per file, so small files routinely
  complete first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.common.rng import DeterministicRandom
from repro.core.conflict import is_conflict_copy
from repro.core.recovery import RecoveryReport
from repro.faults.corruption import flip_bit
from repro.faults.crash import inject_crash_inconsistency
from repro.faults.network import NetworkFaults
from repro.harness.runner import build_system
from repro.kvstore.kv import KVStore, MemoryKV
from repro.net.reliable import RetryPolicy
from repro.obs import NULL_OBS, Observability
from repro.server.cloud import CloudServer
from repro.sim import Simulation
from repro.workloads.traces import replay
from repro.workloads.word import word_trace

_FILE = "/data.bin"
_SIZE = 256 * 1024


def _seed_content(n: int = _SIZE) -> bytes:
    return bytes((i * 131 + 17) % 256 for i in range(n))


def _build_and_seed(service: str, **kwargs):
    system = build_system(service, **kwargs)
    system.fs.create(_FILE)
    system.fs.write(_FILE, 0, _seed_content())
    system.fs.close(_FILE)
    system.settle(6)
    system.flush()
    return system


def _backing_fs(system):
    if system.name == "deltacfs":
        return system.client.inner
    return system.client.fs.inner  # WatchedFileSystem -> MemoryFileSystem


def corruption_test(service: str) -> str:
    """Returns "detect" or "upload" for the corrupted-data scenario."""
    system = _build_and_seed(service)
    original = _seed_content()
    corrupt_offset = 64 * 1024  # inside block 16
    flip_bit(_backing_fs(system), _FILE, corrupt_offset, bit=3)

    # restart + the 1-byte user write (far from the corrupted block)
    system.fs.write(_FILE, 10, b"x")
    system.fs.close(_FILE)
    if service == "deltacfs":
        # the application reads the file: verification runs here
        system.fs.read(_FILE, 0, None)
    system.settle(6.0, step=6.0)
    system.flush()
    server_byte = system.server.file_content(_FILE)[corrupt_offset]
    uploaded_corruption = server_byte != original[corrupt_offset]
    if service == "deltacfs":
        detected = system.client.stats.corruptions_detected > 0
        return "detect" if detected and not uploaded_corruption else "upload"
    return "upload" if uploaded_corruption else "detect"


def crash_inconsistency_test(service: str) -> str:
    """Returns "detect" or "upload" for the crash-inconsistency scenario."""
    journal_kv = MemoryKV() if service == "deltacfs" else None
    system = _build_and_seed(service, journal_kv=journal_kv)

    # a write is in flight when the power goes out
    system.fs.write(_FILE, 1024, b"q" * 512)

    if service == "deltacfs":
        disk = _backing_fs(system)
        intended = disk.read_file(_FILE)
        inject_crash_inconsistency(disk, _FILE, seed=7)
        report = system.restart().recover()
        # flagged before anything uploads; repaired, in-flight write kept
        repaired = disk.read_file(_FILE) == intended
        return "detect" if _FILE in report.damaged_paths and repaired else "upload"

    inject_crash_inconsistency(_backing_fs(system), _FILE, seed=7)
    # the restart rescan notices the (already dirty) file and uploads it
    system.settle(6.0, step=6.0)
    system.flush()
    server = system.server.file_content(_FILE)
    local = _backing_fs(system).read_file(_FILE)
    return "upload" if server == local else "detect"


def causal_order_test(service: str) -> bool:
    """True when upload order matches update order for mixed-size files."""
    sizes = [("/big.bin", 2 * 1024 * 1024), ("/small.bin", 20 * 1024), ("/mid.bin", 500 * 1024)]
    obs = Observability()
    system = build_system(service, obs=obs)
    for path, size in sizes:
        system.fs.create(path)
        system.fs.write(path, 0, b"\x7e" * size)
        system.fs.close(path)
        system.clock.advance(0.3)

    system.settle(6.0, step=6.0)
    system.flush()
    if service == "deltacfs":
        order = _first_touch_order(system.server.upload_order)
        return order == [p for p, _ in sizes]

    # Dropbox/Seafile have no FIFO upload queue: each sync round walks the
    # dirty set in name order, so the order content lands on the cloud is
    # decoupled from the order the user produced it. Read the arrival
    # order off the *simulated* channel — the last uplink completion time
    # of each file's messages — rather than any analytic formula.
    wanted = {path for path, _ in sizes}
    completion: Dict[str, float] = {}
    for ev in obs.tracer.events():
        if ev.type != "event" or ev.name != "channel.upload":
            continue
        path = str(ev.attrs.get("path", ""))
        if path in wanted:
            done = float(ev.attrs["done_at"])
            completion[path] = max(completion.get(path, 0.0), done)
    arrival = [p for p, _ in sorted(completion.items(), key=lambda kv: kv[1])]
    return arrival == [p for p, _ in sizes]


def _first_touch_order(upload_order: List[str]) -> List[str]:
    seen = []
    for path in upload_order:
        if path not in seen:
            seen.append(path)
    return seen


# -- lossy-link convergence (the fault-tolerant transport's acceptance) -----


@dataclass
class LossOutcome:
    """Result of one DeltaCFS run over a seeded lossy link."""

    loss_rate: float
    converged: bool
    mismatched: List[str] = field(default_factory=list)
    conflict_copies: int = 0
    conflicts: int = 0
    retries: int = 0
    timeouts: int = 0
    dedup_drops: int = 0
    up_bytes: int = 0
    down_bytes: int = 0
    retransmit_log: List[Tuple[float, int, int]] = field(default_factory=list)


# -- crash → recover → verify round trip (the journal's acceptance) ---------


@dataclass
class CrashRecoveryOutcome:
    """Result of one crash→recover→verify round trip (``report``: ``recover()``'s)."""

    converged: bool
    mismatched: List[str] = field(default_factory=list)
    dirty_bytes: int = 0
    damaged_span: int = 0
    recovery_up_bytes: int = 0
    recovery_down_bytes: int = 0
    report: RecoveryReport = field(default_factory=RecoveryReport)

    @property
    def bounded(self) -> bool:
        """Recovery traffic stayed below one seed-file size in each
        direction — i.e. no whole-file re-upload or re-download happened."""
        return (
            self.recovery_up_bytes < _SIZE and self.recovery_down_bytes < _SIZE
        )


def crash_recovery_roundtrip(
    *,
    seed: int = 7,
    dirty_writes: int = 4,
    write_size: int = 2048,
    kv_factory: Optional[Callable[[str], KVStore]] = None,
    obs: Observability = NULL_OBS,
) -> CrashRecoveryOutcome:
    """Crash a journaled client mid-burst, restart it, recover, verify.

    Crash damage is injected beneath the file system and the client is
    restarted (:meth:`Simulation.restart`: a new client over the surviving
    file system, link and reopened KVs). ``recover()`` must converge
    the client and the cloud byte-identically while re-uploading only the
    dirty burst and re-downloading only the damaged span.

    ``kv_factory`` builds the two durable stores (called with ``"journal"``
    and ``"checksums"``); default is in-memory. Pass a factory returning
    :class:`LogStructuredKV` (``sync=True`` for the journal) to exercise
    the real WAL restart path.
    """
    factory = kv_factory if kv_factory is not None else (lambda _name: MemoryKV())
    journal_kv = factory("journal")
    checksum_kv = factory("checksums")
    rng = DeterministicRandom(seed).fork("crash-roundtrip")

    sim = Simulation(
        server=CloudServer(obs=obs),
        obs=obs,
        journal_kv=journal_kv,
        checksum_kv=checksum_kv,
    )
    client, fs = sim.client, sim.client.inner
    client.create(_FILE)
    client.write(_FILE, 0, _seed_content())
    client.close(_FILE)
    sim.settle(6)
    sim.flush()

    # The dirty burst the power cut interrupts: journaled, never uploaded.
    dirty_bytes = 0
    for _ in range(dirty_writes):
        offset = rng.randint(0, _SIZE - write_size)
        client.write(_FILE, offset, rng.random_bytes(write_size))
        dirty_bytes += write_size
    expected = fs.read_file(_FILE)

    # Power cut, torn block, power on. The link survives with its
    # counters, so recovery traffic is what it carries from here on.
    damaged_span = 4096
    inject_crash_inconsistency(fs, _FILE, seed=seed, span=damaged_span)
    stats = client.channel.stats
    up_before, down_before = stats.up_bytes, stats.down_bytes
    report = sim.restart(client).recover()
    sim.settle(6)
    sim.flush()

    mismatched = sim.mismatched()
    if fs.read_file(_FILE) != expected:
        mismatched.append(_FILE + " (local diverged from pre-crash content)")
    return CrashRecoveryOutcome(
        converged=not mismatched,
        mismatched=mismatched,
        dirty_bytes=dirty_bytes,
        damaged_span=damaged_span,
        recovery_up_bytes=stats.up_bytes - up_before,
        recovery_down_bytes=stats.down_bytes - down_before,
        report=report,
    )


def loss_convergence_test(
    loss_rate: float,
    *,
    dup_rate: float = 0.0,
    reorder_rate: float = 0.0,
    seed: int = 0,
    saves: int = 8,
    scale: int = 64,
) -> LossOutcome:
    """Run the Word trace over a lossy link; check byte-level convergence.

    The reliable transport must deliver exactly-once *effect* despite
    at-least-once delivery: after the run settles, every client file
    (outside the preservation tmp area) must be byte-identical on the
    cloud, with no spurious conflict copies materialized by retransmits.
    """
    faults = NetworkFaults(
        drop_prob=loss_rate, dup_prob=dup_rate, reorder_prob=reorder_rate
    )
    trace = word_trace(scale=scale, saves=saves)
    sim = Simulation(faults=faults, retry=RetryPolicy(), fault_seed=seed)
    sim.preload(trace)  # its flush settles the transport: preload fully acked
    replay(trace, sim.client, sim.clock, pump=sim.pump)
    sim.settle(10)
    sim.flush()

    mismatched = sim.mismatched()
    conflict_copies = sum(1 for p in sim.server.store.paths() if is_conflict_copy(p))
    client = sim.client
    transport = client.transport
    return LossOutcome(
        loss_rate=loss_rate,
        converged=not mismatched and conflict_copies == 0,
        mismatched=mismatched,
        conflict_copies=conflict_copies,
        conflicts=client.stats.conflicts,
        retries=transport.stats.retransmits,
        timeouts=transport.stats.timeouts,
        dedup_drops=sim.server.dedup_drops,
        up_bytes=client.channel.stats.up_bytes,
        down_bytes=client.channel.stats.down_bytes,
        retransmit_log=list(transport.retransmit_log),
    )
