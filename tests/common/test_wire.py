"""One table-driven test over every schema-backed record in the tree.

The records are *discovered* (every ``wire.Schema`` / ``wire.Union`` /
``@wire.record`` class any ``repro`` module declares) and their test
values are *generated from the field tables themselves*, so a new record
or field is covered the moment it is declared.
"""

import importlib
import pkgutil

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.common import wire
from repro.delta.format import Copy, Delta, Literal
from tests.tools import load_tool

wire_docs = load_tool("wire_docs")


def _discover():
    found = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        module = importlib.import_module(info.name)
        for record in wire_docs.records_in(module):
            found.setdefault(id(record), (f"{info.name}:{record.name}", record))
    return [pytest.param(record, id=label) for label, record in found.values()]


RECORDS = _discover()
CODECS = [p for p in RECORDS if p.values[0].codec]

_INT_RANGES = {"B": 8, "H": 16, "I": 32, "Q": 64}


def _field_values(field):
    if isinstance(field, wire._Int):
        if field.char == "?":
            return st.booleans()
        if field.char == "d":
            return st.floats(allow_nan=False)
        return st.integers(0, 2 ** _INT_RANGES[field.char] - 1)
    if isinstance(field, wire.varint):
        return st.integers(0, 2**63 - 1)
    if isinstance(field, wire.blob):
        if field.inner is not None:
            return values_of(field.inner)
        return st.text(max_size=12) if field.text else st.binary(max_size=24)
    if isinstance(field, wire.optional):
        return st.none() | values_of(field.inner)
    if isinstance(field, wire.items):
        return st.lists(values_of(field.inner), max_size=4)
    if isinstance(field, wire.nested):
        return values_of(field.inner)
    raise AssertionError(f"no value strategy for {type(field).__name__}")


def values_of(record):
    """A hypothesis strategy for ``record``'s values, read off its table."""
    if record is Delta.WIRE:  # target_size must agree with the ops and fit its u32
        copies = st.builds(Copy, st.integers(0, 2**63 - 1), st.integers(0, 2**24))
        return st.lists(copies | values_of(Literal.WIRE), max_size=5).map(Delta.from_ops)
    if isinstance(record, wire.Union):
        return st.one_of(*map(values_of, record.members))
    fields = {f.name: _field_values(f) for f in record.fields if f.carries}
    if record.factory is not None:
        return st.builds(record.factory, **fields)
    if record.scalar:
        return next(iter(fields.values()))
    return st.tuples(*fields.values())


def _self_delimiting(record):
    """False for a record ending in ``rest``: its frame, not the record,
    says where it ends (the WAL payload inside its CRC frame)."""
    last = record.fields[-1] if isinstance(record, wire.Schema) else None
    return not (isinstance(last, wire.blob) and last.prefix is None)


def test_discovery_finds_every_kind_of_record():
    names = {p.id.split(":")[1] for p in RECORDS}
    assert {"VersionStamp", "UploadWrite", "Envelope", "Delta", "Copy", "Literal",
            "Signature", "journal node", "WriteNode", "MetaNode", "relation", "undo",
            "u64", "WAL frame", "WAL payload", "group index", "checksum group",
            "trace op", "WriteOp", "RmdirOp", "trace metadata", "preload content"} <= names
    assert len(CODECS) >= 33


@pytest.mark.parametrize("record", CODECS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_codec_contract(record, data):
    value = data.draw(values_of(record))
    encoded = record.encode(value)
    assert record.decode(encoded) == value
    assert len(encoded) == record.size(value)
    if _self_delimiting(record):
        for cut in range(len(encoded)):
            with pytest.raises(ValueError):
                record.decode(encoded[:cut])
        with pytest.raises(ValueError, match="trailing"):
            record.decode(encoded + b"\x00")


@pytest.mark.parametrize("record", [p for p in RECORDS if not p.values[0].codec])
def test_sizes_only_records_have_no_byte_codec(record):
    assert callable(record.size)
    assert not hasattr(record, "encode") and not hasattr(record, "decode_from")
    if record.factory is not None and getattr(record.factory, "WIRE", None) is record:
        assert record.factory.wire_size is record.size
        assert not hasattr(record.factory, "encode")


class TestVarints:
    @given(st.integers(0, 2**70))
    def test_size_is_arithmetic_and_exact(self, value):
        assert wire.varint_size(value) == len(wire.encode_varint(value))

    @pytest.mark.parametrize("record,prefix", [
        (Copy.WIRE, b"\xc0"), (Literal.WIRE, b"\x11"),
    ])
    def test_overlong_varint_rejected_by_every_record_that_has_one(self, record, prefix):
        with pytest.raises(ValueError, match="over-long"):
            record.decode(prefix + b"\x80" * 10 + b"\x00" + b"\x00")

    def test_negative_has_no_size(self):
        with pytest.raises(ValueError):
            wire.varint_size(-1)


class TestDeclarationErrors:
    def test_uncounted_items_cannot_be_decoded(self):
        with pytest.raises(TypeError, match="without a count"):
            wire.Schema("bad", wire.items("xs", wire.Schema("x", wire.u8("x"), scalar=True)))

    def test_union_members_need_tags(self):
        with pytest.raises(TypeError, match="leading u8"):
            wire.Union("bad", wire.Schema("untagged", wire.u8("x"), factory=dict))

    def test_union_refuses_foreign_types(self):
        with pytest.raises(TypeError, match="cannot encode int"):
            wire.Union("ops", Copy.WIRE, Literal.WIRE).encode(7)
