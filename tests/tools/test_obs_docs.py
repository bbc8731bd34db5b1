"""docs/observability.md's catalog tables are rendered from repro.obs.names."""

import re
from pathlib import Path

import pytest

from repro.obs import names
from repro.obs.analyze import MECHANISMS
from tests.tools import load_tool

obs_docs = load_tool("obs_docs")
gendoc = load_tool("gendoc")


def _generated_rows():
    """The first cell of every table row inside a generated block."""
    doc = Path(obs_docs.DOC).read_text(encoding="utf-8")
    bodies = [part.split(gendoc.END)[0] for part in doc.split("<!-- BEGIN GENERATED")[1:]]
    return re.findall(r"^\| `([^`]+)` \|", "\n".join(bodies), flags=re.M)


def test_generated_blocks_are_fresh():
    assert obs_docs.main([]) == 0


def test_every_catalog_name_has_exactly_one_generated_row():
    rows = _generated_rows()
    assert sorted(rows) == sorted(names.METRIC_NAMES + names.EVENT_NAMES)
    # ...and none survives outside the blocks as a hand-written row.
    doc = Path(obs_docs.DOC).read_text(encoding="utf-8")
    anywhere = re.findall(r"^\| `([^`]+)` \|", doc, flags=re.M)
    assert sorted(set(anywhere) - set(rows)) == sorted(MECHANISMS)  # not catalog entries
    assert len(anywhere) == len(rows) + len(MECHANISMS)


def test_stale_doc_is_reported_and_write_repairs_it(tmp_path, monkeypatch, capsys):
    stale = tmp_path / "observability.md"
    text = Path(obs_docs.DOC).read_text(encoding="utf-8")
    stale.write_text(text.replace("| `queue.depth` | gauge (nodes) |", "| `queue.depth` | counter |"))
    monkeypatch.setattr(obs_docs, "DOC", str(stale))
    assert obs_docs.main([]) == 1
    assert "python tools/obs_docs.py --write" in capsys.readouterr().out
    assert obs_docs.main(["--write"]) == 0
    assert stale.read_text(encoding="utf-8") == text
    # A block whose section left the catalog would freeze into hand-kept text.
    stale.write_text(f"{text}\n{gendoc.begin('obs_docs', 'metrics: Gone')}\n{gendoc.END}\n")
    assert obs_docs.main(["--write"]) == 1
    assert "nothing renders" in capsys.readouterr().out


def test_a_new_entry_fails_the_check_until_regenerated(tmp_path, monkeypatch, capsys):
    doc = tmp_path / "observability.md"
    doc.write_text(Path(obs_docs.DOC).read_text(encoding="utf-8"))
    monkeypatch.setattr(obs_docs, "DOC", str(doc))
    added = names._catalog(
        names.QUEUE, names.MetricSpec("queue.new.thing", names.COUNTER, "a new counter")
    )
    monkeypatch.setattr(names, "METRICS", names.METRICS + added)
    assert obs_docs.main([]) == 1
    assert "python tools/obs_docs.py --write" in capsys.readouterr().out
    assert obs_docs.main(["--write"]) == 0
    assert "| `queue.new.thing` | counter | a new counter |" in doc.read_text(encoding="utf-8")
    # A new section has no place in the prose yet: the tool says where to make one.
    elsewhere = names._catalog(
        names.Section("Elsewhere", "repro.elsewhere"),
        names.MetricSpec("queue.other.thing", names.COUNTER, "another"),
    )
    monkeypatch.setattr(names, "METRICS", names.METRICS + elsewhere)
    assert obs_docs.main(["--write"]) == 1
    assert "(metrics: Elsewhere)" in capsys.readouterr().out


def test_no_entry_exists_outside_a_section():
    assert all(spec.section is not None for spec in names.METRICS + names.EVENTS)
    with pytest.raises(ValueError, match="outside a section"):
        names._catalog(names.MetricSpec("queue.new.thing", names.COUNTER, "unsectioned"))
