"""docs/wire-protocol.md's layout tables are rendered from the field tables."""

import re
from pathlib import Path

from repro.core import recovery
from repro.kvstore import wal
from repro.net import messages
from tests.tools import load_tool

wire_docs = load_tool("wire_docs")


def _documented_tables():
    """``{record name: [row, ...]}`` parsed back out of the committed doc."""
    doc = Path(wire_docs.DOC).read_text(encoding="utf-8")
    block = doc.split(wire_docs.BEGIN)[1].split(wire_docs.END)[0]
    tables = {}
    for title, body in re.findall(r"\*\*`([^`]+)`\*\*[^\n]*\n\n((?:\|.*\n)+)", block):
        tables.setdefault(title, []).append(body.strip().splitlines()[2:])
    return tables


def test_generated_block_is_fresh():
    assert wire_docs.main([]) == 0


def test_every_documented_row_is_what_the_table_renders():
    documented = _documented_tables()
    seen = 0
    for module in (messages, recovery, wal):
        for record in wire_docs.records_in(module):
            rendered = wire_docs.layout_table(record).splitlines()[2:]
            assert rendered in documented[record.name], record.name
            seen += 1
    assert seen >= 23 + 4 + 2


def test_journal_and_wal_layouts_are_documented():
    documented = _documented_tables()
    for name in ("WriteNode", "TruncateNode", "DeltaNode", "MetaNode",
                 "relation", "undo", "u64", "WAL frame", "WAL payload"):
        assert name in documented
    assert "| `crc32` | u32 LE |" in documented["WAL frame"][0]


def test_stale_doc_is_reported(tmp_path, monkeypatch, capsys):
    stale = tmp_path / "wire-protocol.md"
    text = Path(wire_docs.DOC).read_text(encoding="utf-8")
    stale.write_text(text.replace("| `crc32` | u32 LE |", "| `crc32` | u64 LE |"))
    monkeypatch.setattr(wire_docs, "DOC", str(stale))
    assert wire_docs.main([]) == 1
    assert "stale" in capsys.readouterr().out
    assert wire_docs.main(["--write"]) == 0
    assert stale.read_text(encoding="utf-8") == text
