#!/usr/bin/env python3
"""Render the byte-layout tables of docs/wire-protocol.md from the field
tables in the source (``repro.common.wire``), so the two cannot drift.

    python tools/wire_docs.py            # exit 1 if the doc is stale
    python tools/wire_docs.py --write    # regenerate the block in place
"""

from __future__ import annotations

import importlib
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(REPO_ROOT, "src"), os.path.join(REPO_ROOT, "tools")]

import gendoc  # noqa: E402
from repro.common import wire  # noqa: E402

DOC = os.path.join(REPO_ROOT, "docs", "wire-protocol.md")
BEGIN, END = gendoc.begin("wire_docs"), gendoc.END  # under the names the tests read

#: Documented modules, in reading order, with what their records are.
MODULES = (
    ("repro.common.version", "version stamps"),
    ("repro.net.messages", "sync messages (sizes only: the simulation never builds these bytes)"),
    ("repro.delta.format", "the delta instruction stream"),
    ("repro.delta.rsync", "the rsync block signature (sizes only)"),
    ("repro.core.recovery", "crash-recovery journal records (values of the journal's KV keys; a write node's first record is a `journal node`, and each write it absorbs later a `run` keyed by the node's key + the write's index as a `u64`)"),
    ("repro.kvstore.wal", "the write-ahead log record: `WAL frame`, then `length` bytes of `WAL payload` whose CRC-32 the frame carries"),
    ("repro.core.checksum_store", "the checksum store's KV pairs, one per group of 64 blocks: key `<path> 0x00 <group index>`, value `checksum group`, whose `slots` are the u32 BE weak checksums of the group's blocks, slot `i` for block `64 × group index + i`, up to the highest bit set in `present`"),
    ("repro.vfs.ops", "file operations as trace-file records"),
    ("repro.workloads.traceio", "the trace file around them: the 8 bytes `DCFSTRC1`, `trace metadata` (JSON: `name`, `stats`, sorted `preload_paths`, `op_records`), one `preload content` per path, then `op_records` × `trace op`"),
)


def records_in(module) -> list:
    """Every record ``module`` declares — bare schemas, unions (followed by
    their members) and ``@wire.record`` classes — in definition order."""
    found: list = []
    for obj in vars(module).values():
        if isinstance(obj, type) and obj.__module__ == module.__name__:
            obj = vars(obj).get("WIRE")
        if isinstance(obj, (wire.Schema, wire.Union)) and obj not in found:
            found.append(obj)
            found.extend(m for m in getattr(obj, "members", ()) if m not in found)
    return found


def layout_table(record) -> str:
    """One record's layout as a Markdown table."""
    if isinstance(record, wire.Union):
        rows = [("", f"tag 0x{m.tag:02x}: {m.name}") for m in record.members]
    else:
        rows = [(field.name, field.doc) for field in record.fields]
    return gendoc.table(
        ("field", "encoding"),
        [(f"`{name}`" if name else "—", encoding) for name, encoding in rows],
    )


def render() -> str:
    """The body of the generated block."""
    out = []
    for module_name, what in MODULES:
        out += [f"### `{module_name}` — {what}", ""]
        for record in records_in(importlib.import_module(module_name)):
            kind = "" if record.codec else " (sizes only)"
            out += [f"**`{record.name}`**{kind}", "", layout_table(record), ""]
    return "\n".join(out[:-1])


def main(argv=None) -> int:
    return gendoc.sync(
        "wire_docs", DOC, {BEGIN: render()}, sys.argv[1:] if argv is None else argv
    )


if __name__ == "__main__":
    sys.exit(main())
