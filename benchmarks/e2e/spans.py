"""Outside-in span recorder for the traced pass.

The benchmark owns one table of layer boundaries — public methods named
by (module, class, method) — and, for the traced pass only, replaces each
with a wrapper that records a span (layer, parent, start, end). Nothing
under ``src/`` knows it is being traced. A layer's *self time* is its
spans' duration minus the part their child spans cover, so self times
over all layers (plus the driver's own root span) add up to the window.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import inspect
import json
import posixpath
import sys
import time
from collections import Counter
from typing import Callable, Dict, Iterator, List, Tuple

SETUP = "bench.setup"  # root span around a workload's build
DRIVER = "bench.driver"  # root span around the measured window: the benchmark's own loop

FS_OPS = (
    "create", "write", "read", "truncate", "rename",
    "link", "unlink", "close", "mkdir", "rmdir",
)

# (layer, module, class or None for a module-level function, names).
# Every name must be defined on that class itself (``vars(cls)``), so no
# method is wrapped twice through inheritance.
BOUNDARIES: Tuple[Tuple[str, str, object, Tuple[str, ...]], ...] = (
    ("vfs", "repro.vfs.filesystem", "MemoryFileSystem",
     FS_OPS + ("exists", "stat", "listdir", "linked_paths", "walk_files")),
    ("vfs", "repro.vfs.filesystem", "FileSystemAPI",
     ("size", "read_file", "write_file")),
    ("core.intercept", "repro.core.client", "DeltaCFSClient", FS_OPS),
    ("core.pump", "repro.core.client", "DeltaCFSClient", ("pump", "flush")),
    ("core.queue", "repro.core.sync_queue", "SyncQueue",
     ("enqueue", "restore", "note_coalesced", "pack", "replace_with_delta",
      "cancel_nodes", "note_mutation", "drain_due", "drain_all")),
    ("core.relations", "repro.core.relation_table", "RelationTable",
     ("record_rename", "record_unlink", "restore", "match_created",
      "invalidate_dst", "expire")),
    ("core.checksums", "repro.core.checksum_store", "ChecksumStore",
     ("update_blocks", "reindex", "rename", "drop", "verify_read",
      "verify_file", "mismatched_blocks", "blocks_of")),
    ("core.journal", "repro.core.recovery", "SyncJournal",
     ("record_vercnt", "record_node", "forget_node", "record_relation",
      "forget_relation", "record_undo", "forget_undo", "clear", "load")),
    ("delta.apply", "repro.delta.patch", None, ("apply_delta",)),
    ("net.channel", "repro.net.transport", "Channel",
     ("upload", "download", "transmit_up", "transmit_down")),
    ("net.channel", "repro.net.transport", "LossyChannel",
     ("transmit_up", "transmit_down")),
    ("net.reliable", "repro.net.reliable", "ReliableTransport",
     ("send", "pump", "settle")),
    ("server.apply", "repro.server.cloud", "CloudServer",
     ("handle", "handle_envelope")),
    ("server.router", "repro.server.shard", "ShardRouter",
     ("handle", "handle_envelope", "shard_index_for_path", "register_client")),
    ("kvstore", "repro.kvstore.kv", "MemoryKV",
     ("get", "put", "delete", "items")),
    ("kvstore", "repro.kvstore.kv", "KVStore", ("delete_prefix",)),
    ("cost", "repro.cost.meter", "CostMeter", ("charge_bytes",)),
    ("harness.provision", "repro.harness.fleet", None, ("provision_clients",)),
)

# Layers that have no static row above: the delta encoders are whatever
# the backend registry holds, and a forward sink is whatever callback a
# client hands to ``register_client``.
LAYERS: Tuple[str, ...] = tuple(
    dict.fromkeys([row[0] for row in BOUNDARIES] + ["delta.encode", "core.forward", DRIVER])
)

# ``core.forward`` is reached through this method: the sink it is handed
# gets wrapped.
FORWARD_HOOK = ("repro.server.cloud", "CloudServer", "register_client")

# Work counters taken at the boundaries, beside calls and self time.
COUNTERS = (
    "vfs.write_bytes",
    "vfs.normpath_calls",
    "core.journal.bytes",
    "delta.encode.in_bytes",
    "delta.encode.out_bytes",
    "server.router.md5_calls",
    "kvstore.keys_scanned",
)


def resolve(module: str, cls: object, name: str):
    """``(owner, original)`` for one boundary entry, or ``LookupError``
    naming the symbol that a refactor moved or removed."""
    try:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls)
        return owner, vars(owner)[name]
    except (ImportError, AttributeError, KeyError):
        dotted = ".".join(str(p) for p in (module, cls, name) if p is not None)
        raise LookupError(f"benchmark boundary not found: {dotted}") from None


def _encoder_entries() -> Iterator[Tuple[type, str]]:
    """``encode``/``signature`` of every registered delta backend."""
    backends = importlib.import_module("repro.delta.backends")
    seen = set()
    for backend_name in backends.backend_names():
        for cls in type(backends.get_backend(backend_name)).__mro__:
            for name in ("encode", "signature"):
                if name in vars(cls) and (cls, name) not in seen:
                    seen.add((cls, name))
                    yield cls, name


class Recorder:
    """Spans and counters of one traced window, kept in memory."""

    def __init__(self) -> None:
        # one span = [layer, parent index, start, end]
        self.spans: List[list] = []
        self.counts: Counter = Counter({name: 0 for name in COUNTERS})
        self._stack: List[int] = [-1]
        self._patched: List[Tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------------

    def wrap(self, layer: str, fn: Callable, note: Callable = None) -> Callable:
        """``fn`` recorded as one span of ``layer`` per call.

        ``note(counts, args, result)`` adds this boundary's work counters.
        A generator function is run to exhaustion inside its span, or the
        scan it does would be billed to whoever iterates it.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counts = self.counts
        lazy = inspect.isgeneratorfunction(fn)

        def traced(*args, **kwargs):
            span = [layer, stack[-1], clock(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if lazy:
                    result = list(result)
                if note is not None:
                    note(counts, args, result)
                return iter(result) if lazy else result
            finally:
                span[3] = clock()
                stack.pop()

        return traced

    def _counting(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _wrap_register(self, fn: Callable) -> Callable:
        """``CloudServer.register_client`` with the sink it is handed
        recorded as ``core.forward`` — the client's download/apply side."""

        def register_client(server, client_id, sink, **kwargs):
            return fn(server, client_id, self.wrap("core.forward", sink), **kwargs)

        return register_client

    # -- patching ------------------------------------------------------------

    def _set(self, owner: object, name: str, new: object) -> None:
        self._patched.append((owner, name, vars(owner)[name]))
        setattr(owner, name, new)

    def install(self) -> None:
        """Wrap every boundary; :meth:`restore` puts the originals back."""
        notes = _notes(self)
        for layer, module, cls, names in BOUNDARIES:
            for name in names:
                owner, original = resolve(module, cls, name)
                traced = self.wrap(layer, original, notes.get((cls, name)))
                if cls is not None:
                    self._set(owner, name, traced)
                    continue
                # A module-level function is also bound wherever it was
                # imported by name; patch each of those bindings.
                for mod in list(sys.modules.values()):
                    if getattr(mod, "__dict__", {}).get(name) is original:
                        self._set(mod, name, traced)
        for cls, name in _encoder_entries():
            note = _note_encode if name == "encode" else None
            self._set(cls, name, self.wrap("delta.encode", vars(cls)[name], note))
        cloud, register = resolve(*FORWARD_HOOK)
        self._set(cloud, FORWARD_HOOK[2], self._wrap_register(register))
        self._set(posixpath, "normpath",
                  self._counting("vfs.normpath_calls", posixpath.normpath))
        self._set(hashlib, "md5",
                  self._counting("server.router.md5_calls", hashlib.md5))

    def restore(self) -> None:
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)

    # -- root spans: the benchmark's own phases ----------------------------------

    @contextlib.contextmanager
    def root(self, name: str) -> Iterator[None]:
        """A parentless span around one phase (``bench.setup`` or
        ``bench.driver``); its self time is the benchmark's own overhead."""
        index = len(self.spans)
        self.spans.append([name, -1, time.perf_counter(), 0.0])
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index][3] = time.perf_counter()
            self._stack.pop()

    # -- reading ---------------------------------------------------------------

    def by_layer(self, root: str) -> Dict[str, Dict[str, float]]:
        """``{layer: {"calls", "self_s", "total_s"}}`` over the spans under
        the root span named ``root``; ``total_s`` counts only a layer's
        outermost spans."""
        tops = [i for i, span in enumerate(self.spans) if span[1] < 0]
        first = next(i for i in tops if self.spans[i][0] == root)
        last = next((i for i in tops if i > first), len(self.spans))
        child_s = [0.0] * len(self.spans)
        for layer, parent, start, end in self.spans[first:last]:
            if parent >= 0:
                child_s[parent] += end - start
        out = {layer: {"calls": 0, "self_s": 0.0, "total_s": 0.0}
               for layer in LAYERS + (root,)}
        for index in range(first, last):
            layer, parent, start, end = self.spans[index]
            row = out[layer]
            row["calls"] += 1
            row["self_s"] += (end - start) - child_s[index]
            if parent < 0 or self.spans[parent][0] != layer:
                row["total_s"] += end - start
        return out

    def dump(self, path: str, workload: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for index, (layer, parent, start, end) in enumerate(self.spans):
                out.write(json.dumps(
                    {"workload": workload, "id": index, "parent": parent,
                     "name": layer, "start": start, "end": end}
                ) + "\n")


def _note_encode(counts: Counter, args: tuple, result: object) -> None:
    counts["delta.encode.in_bytes"] += len(args[1]) + len(args[2])
    counts["delta.encode.out_bytes"] += result.wire_size()


def _notes(recorder: Recorder) -> Dict[Tuple[object, str], Callable]:
    """Work counters read off a boundary's arguments or result."""
    spans, stack = recorder.spans, recorder._stack

    def fs_write(counts, args, result):
        counts["vfs.write_bytes"] += len(args[3])

    def kv_put(counts, args, result):
        # This span is on top of the stack; the one below it is the caller.
        caller = stack[-2]
        if caller >= 0 and spans[caller][0] == "core.journal":
            counts["core.journal.bytes"] += len(args[1]) + len(args[2])

    def kv_items(counts, args, result):
        # Seen from outside, a prefix scan's work is the keys it hands back.
        counts["kvstore.keys_scanned"] += len(result)

    return {
        ("MemoryFileSystem", "write"): fs_write,
        ("MemoryKV", "put"): kv_put,
        ("MemoryKV", "items"): kv_items,
    }
