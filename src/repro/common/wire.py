"""Field tables for wire records: declare a layout once, derive its codec.

Every record that crosses the simulated network, the journal or the WAL
states its byte layout as one ordered table of fields. From that table
this module generates — once, at import, the way :mod:`dataclasses`
generates ``__init__`` — the record's ``size``, ``encode`` and strict
``decode``. ``size`` is summed from the very chunks ``encode`` joins and
``decode`` walks the same fields in the same order, so the three cannot
disagree and no declared field goes uncosted; ``docs/wire-protocol.md``
renders from the same rows.

Field kinds: fixed-width integers/floats with a declared byte order
(``u8`` … ``f64le``; adjacent ones fold into one :class:`struct.Struct`),
``const=`` tags, LEB128 ``varint``; length-prefixed ``blob``/``text`` and
the unprefixed ``rest``; ``nested`` records, ``optional`` ones, counted
``items`` and tagged :class:`Union`; and, for simulated messages whose
bytes are never built, the sizes-only ``opaque``, ``times``, ``when_set``,
``sidecar`` and :data:`SIZED` — a record using one gets no byte codec.

Decoders bounds-check every read, reject over-long varints and, through
``decode``, anything but full consumption — always with ``ValueError``.
"""

from __future__ import annotations

import struct
from operator import methodcaller
from typing import Any, Callable, Dict, List, Optional, Tuple, Union as _Either

# -- varints -----------------------------------------------------------------

# A canonical unsigned 64-bit varint never needs more than 10 groups of 7
# bits; anything longer is an over-long encoding (a corruption/ambiguity
# vector — 0 can be spelled with arbitrarily many continuation bytes).
_MAX_VARINT_SHIFT = 63


def varint_size(value: int) -> int:
    """Encoded length of ``value`` as an LEB128 unsigned varint."""
    if value < 0:
        raise ValueError("varints are unsigned")
    return (value.bit_length() + 6) // 7 or 1


def encode_varint(value: int) -> bytes:
    """LEB128-style unsigned varint."""
    if value < 0:
        raise ValueError("varints are unsigned")
    out = bytearray()
    while value > 0x7F:
        out.append(value & 0x7F | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


def decode_varint(buf: bytes, pos: int) -> Tuple[int, int]:
    """Decode a varint at ``pos``; returns ``(value, next_pos)``."""
    value = 0
    shift = 0
    while True:
        if pos >= len(buf):
            raise ValueError("truncated varint")
        if shift > _MAX_VARINT_SHIFT:
            raise ValueError("over-long varint encoding")
        byte = buf[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, pos
        shift += 7


# -- code generation ---------------------------------------------------------


class _Emitter:
    """One pass over a field table.

    The encode pass collects bytes-valued ``chunks`` *together with their
    sizes*, so the generated ``size`` is by construction the length of what
    the generated ``encode`` joins; a chunk without bytes (a sizes-only
    kind) leaves the record without a codec. The decode pass collects
    statements. ``ns`` is the generated functions' globals, where helpers
    (structs, nested codecs) are bound under fresh names. Fixed-width
    fields queue in ``_run`` and flush as one :class:`struct.Struct` the
    moment anything else is emitted.
    """

    def __init__(self, record: str, ns: Dict[str, Any], decoding: bool = False):
        self.record, self.ns, self.decoding = record, ns, decoding
        self.chunks: List[str] = []  # encode: bytes-valued expressions
        self.codec = True  # encode: every chunk so far has bytes
        self.const = 0  # encode: constant part of the size
        self.sizes: List[str] = []  # encode: variable parts of the size
        self.lines: List[str] = []  # decode: statements
        self.checks: List[str] = []  # decode: statements owed after the queued run
        self.counts: Dict[str, str] = {}  # decode: items name -> local with its count
        self._run: List[Tuple[str, str, str]] = []  # (order, char, expression | local)
        self._locals = 0

    def bind(self, obj: Any) -> str:
        name = f"_g{len(self.ns)}"
        self.ns[name] = obj
        return name

    def local(self) -> str:
        self._locals += 1
        return f"x{self._locals}"

    def fixed(self, order: str, char: str, expr: str) -> None:
        """Queue a fixed-width field: ``expr`` is the value to pack when
        encoding, the local to unpack into when decoding."""
        if order and any(o not in ("", order) for o, _, _ in self._run):
            self.flush()  # a struct has one byte order
        self._run.append((order, char, expr))

    def chunk(self, expr: Optional[str], size: _Either[int, str]) -> None:
        """Encode: the next bytes (``None``: never built) and how many."""
        self.flush()
        if expr is None:
            self.codec = False
        else:
            self.chunks.append(expr)
        if isinstance(size, int):
            self.const += size
        else:
            self.sizes.append(size)

    def line(self, statement: str) -> None:
        """Decode: the next statement."""
        self.flush()
        self.lines.append(statement)

    def truncated(self, end: str) -> None:
        self.line(f"if {end} > n: raise ValueError('truncated {self.record} record')")

    def flush(self) -> None:
        if not self._run:
            return
        run, self._run = self._run, []
        order = next((o for o, _, _ in run if o), ">")
        packer = struct.Struct(order + "".join(char for _, char, _ in run))
        name, args = self.bind(packer), ", ".join(expr for _, _, expr in run)
        if not self.decoding:
            self.chunk(f"{name}.pack({args})", packer.size)
            return
        self.line(f"end = pos + {packer.size}")
        self.truncated("end")
        self.lines += [f"{args}, = {name}.unpack_from(buf, pos)", "pos = end"]
        self.lines += self.checks
        self.checks.clear()

    def total(self) -> str:
        """Encode: the size of everything emitted, as one expression."""
        self.flush()
        constant = [str(self.const)] if self.const or not self.sizes else []
        return " + ".join(constant + self.sizes)


class Field:
    """One row of a record's field table.

    ``encode(em, v)`` emits the bytes (and their size) of the value
    expression ``v``; ``decode(em)`` emits the reads and returns the
    expression holding the value. ``doc`` is the text of its layout row.
    """

    carries = True  # holds one value of the record (False: tags, counts, padding)

    def __init__(self, name: str, doc: str):
        self.name, self.doc = name, doc


class _Int(Field):
    """A fixed-width integer/float (also usable as a length or count
    prefix); with ``const`` a tag that decode insists on. Integer kinds
    take ``sized_as`` — see :class:`varint` — so either can be a prefix."""

    def __init__(self, label: str, fmt: str, name: str, const: Optional[int]):
        super().__init__(name, label if const is None else f"constant 0x{const:02x}")
        self.label, self.order, self.char, self.const = label, fmt[:-1], fmt[-1], const
        self.carries = const is None

    def encode(self, em, v, sized_as=None):
        em.fixed(self.order, self.char, v if self.const is None else repr(self.const))

    def decode(self, em):
        var = em.local()
        em.fixed(self.order, self.char, var)
        if self.const is not None:
            em.checks.append(
                f"if {var} != {self.const}: raise ValueError('bad {em.record} tag')"
            )
        return var


def _int(label: str, fmt: str) -> Callable[..., _Int]:
    return lambda name="", const=None: _Int(label, fmt, name, const)


u8, flag = _int("u8", "B"), _int("flag", "?")
u16be, u32be, u64be, f64be = (
    _int("u16 BE", ">H"), _int("u32 BE", ">I"), _int("u64 BE", ">Q"), _int("f64 BE", ">d")
)
u16le, u32le, u64le, f64le = (
    _int("u16 LE", "<H"), _int("u32 LE", "<I"), _int("u64 LE", "<Q"), _int("f64 LE", "<d")
)


class varint(Field):
    """An LEB128 unsigned varint (also usable as a length or count prefix)."""

    label = "varint"

    def __init__(self, name: str = ""):
        super().__init__(name, self.label)

    def encode(self, em, v, sized_as=None):
        # ``sized_as``: the same number spelled without encode's locals.
        em.chunk(
            f"{em.bind(encode_varint)}({v})", f"{em.bind(varint_size)}({sized_as or v})"
        )

    def decode(self, em):
        var = em.local()
        em.line(f"{var}, pos = {em.bind(decode_varint)}(buf, pos)")
        return var


class blob(Field):
    """Bytes behind a ``prefix`` length (any integer kind): raw, UTF-8
    ``text``, or — with ``inner`` — another record's whole encoding.
    ``prefix=None`` takes every remaining byte (last field only)."""

    def __init__(self, name: str, prefix, *, text: bool = False, inner=None):
        self.prefix, self.text, self.inner = prefix and prefix(), text, inner
        what = inner.name if inner is not None else "UTF-8" if text else "bytes"
        framing = f"{self.prefix.label} length + " if prefix else "all remaining "
        super().__init__(name, framing + what)

    def encode(self, em, v):
        if self.inner is not None:
            raw = f"{em.bind(self.inner.encode)}({v})"
            length = f"{em.bind(self.inner.size)}({v})"
        elif self.text:
            raw, length = f"{v}.encode()", f"len({v}.encode())"
        else:
            raw, length = v, f"len({v})"
        if self.prefix is not None:
            held = em.local()  # the prefix's pack binds it, the next chunk reuses it
            self.prefix.encode(em, f"len({held} := {raw})", sized_as=length)
            raw = held
        em.chunk(raw, length)

    def decode(self, em):
        var = em.local()
        if self.prefix is None:
            em.line("end = n")
        else:
            em.line(f"end = pos + {self.prefix.decode(em)}")
            em.truncated("end")
        if self.inner is not None:
            em.line(f"{var} = {em.bind(self.inner.decode)}(buf[pos:end])")
        elif self.text:
            em.line(f"{var} = str(buf[pos:end], 'utf-8')")
        else:
            em.line(f"{var} = buf[pos:end]")
        em.line("pos = end")
        return var


def text(name: str, prefix) -> Field:
    """A UTF-8 string behind a ``prefix`` length."""
    return blob(name, prefix, text=True)


def rest(name: str) -> Field:
    """Every remaining byte of the record (unprefixed; last field only)."""
    return blob(name, None)


class nested(Field):
    """Another record (:class:`Schema`, :class:`Union`, :data:`SIZED`), in place."""

    def __init__(self, name: str, inner):
        super().__init__(name, inner.name)
        self.inner = inner

    def _bytes(self, em, v):
        return f"{em.bind(self.inner.encode)}({v})" if self.inner.codec else None

    def _size(self, em, v):
        if self.inner.fixed_size is not None:
            return self.inner.fixed_size
        return f"{em.bind(self.inner.size)}({v})"

    def encode(self, em, v):
        em.chunk(self._bytes(em, v), self._size(em, v))

    def decode(self, em):
        var = em.local()
        em.line(f"{var}, pos = {em.bind(self.inner.decode_from)}(buf, pos)")
        return var


class optional(nested):
    """A presence byte, then ``inner`` when the value is not ``None``.

    With ``absent`` set the record is *always* written — spelled as
    ``absent`` when the value is ``None`` — and the flag alone tells the
    decoder to hand back ``None``.
    """

    def __init__(self, name: str, inner, *, absent=None):
        super().__init__(name, inner)
        self.absent = absent
        self.doc = f"presence flag (1 B) + {inner.name}"
        self.doc += ", when present" if absent is None else f" ({absent!r} if absent)"

    def encode(self, em, v):
        em.fixed("", "B", f"{v} is not None")
        if self.absent is not None:
            return super().encode(em, f"({self.absent!r} if {v} is None else {v})")
        body, size = self._bytes(em, v), self._size(em, v)
        if body is not None:
            body = f"(b'' if {v} is None else {body})"
        em.chunk(body, f"(0 if {v} is None else {size})")

    def decode(self, em):
        present = em.local()
        em.fixed("", "B", present)
        em.checks.append(
            f"if {present} > 1: raise ValueError('bad {em.record} presence flag')"
        )
        if self.absent is not None:
            var = super().decode(em)
            em.line(f"if not {present}: {var} = None")
            return var
        var, read = em.local(), em.bind(self.inner.decode_from)
        em.line(f"{var}, pos = {read}(buf, pos) if {present} else (None, pos)")
        return var


class count_of(Field):
    """The element count of ``items(name, ...)``, for a layout that keeps
    the two apart (``items(..., count=)`` puts it right before them)."""

    carries = False

    def __init__(self, name: str, prefix):
        self.prefix = prefix()
        super().__init__(name, f"element count, {self.prefix.label}")

    def encode(self, em, v):
        self.prefix.encode(em, f"len({v})")

    def decode(self, em):
        em.counts[self.name] = self.prefix.decode(em)


class items(nested):
    """A run of ``inner`` records, counted by the ``count`` prefix right
    before them or by an earlier ``count_of`` (uncounted: not decodable)."""

    def __init__(self, name: str, inner, count=None):
        super().__init__(name, inner)
        self.count = count and count_of(name, count)
        self.doc = f"{inner.name} × count"
        if count:
            self.doc = f"{self.count.doc}, then {self.doc}"

    def encode(self, em, v):
        if self.count:
            self.count.encode(em, v)
        each, body = self.inner.fixed_size, None
        if self.inner.codec:
            body = f"b''.join(map({em.bind(self.inner.encode)}, {v}))"
        if each is None:
            em.chunk(body, f"sum(map({em.bind(self.inner.size)}, {v}))")
        else:
            em.chunk(body, f"{each} * len({v})")

    def decode(self, em):
        if self.count:
            self.count.decode(em)
        if self.name not in em.counts:
            raise TypeError(f"items({self.name!r}) is not decodable without a count")
        var, item = em.local(), em.local()
        em.line(f"{var} = []")
        em.line(f"for _ in range({em.counts.pop(self.name)}):")
        em.line(f"    {item}, pos = {em.bind(self.inner.decode_from)}(buf, pos)")
        em.line(f"    {var}.append({item})")
        return var


class _Costed(Field):
    """A sizes-only kind: ``size(em, v)`` — an int or an expression — is
    its whole definition; the bytes are never built."""

    def __init__(self, name, size, doc):
        super().__init__(name, doc)
        self.size, self.carries = size, bool(name)

    def encode(self, em, v):
        em.chunk(None, self.size(em, v))


def opaque(nbytes: int, what: str, name: str = "") -> Field:
    """``nbytes`` of framing whose content the simulation never builds."""
    return _Costed(name, lambda em, v: nbytes, f"{nbytes} B: {what}")


def times(name: str, each: int, what: str) -> Field:
    """``each`` bytes per unit of the integer count held in ``name``."""
    return _Costed(name, lambda em, v: f"{each} * {v}", f"{each} B ({what}) × {name}")


def when_set(name: str, present: Field, absent: int) -> Field:
    """``present``'s layout when the value is set, else ``absent`` bytes."""

    def size(em, v):
        sub = _Emitter(em.record, em.ns)
        present.encode(sub, v)
        return f"({sub.total()} if {v} else {absent})"

    return _Costed(name, size, f"{present.doc}, or {absent} B when unset")


def sidecar(name: str, why: str) -> Field:
    """A field that rides along in memory and costs zero wire bytes."""
    return _Costed(name, lambda em, v: 0, f"not transmitted: {why}")


# -- records -----------------------------------------------------------------


class _Codec:
    """What ``nested``/``items``/``optional`` need of a record."""

    name = ""
    codec = True  # False: sizes only — no encode/decode_from
    fixed_size: Optional[int] = None

    def decode(self, buf: bytes) -> Any:
        """Decode exactly one record; ``ValueError`` unless fully consumed."""
        value, pos = self.decode_from(buf, 0)
        if pos != len(buf):
            raise ValueError(
                f"{len(buf) - pos} trailing byte(s) after the {self.name} record"
            )
        return value


class _Sized(_Codec):
    """Any object with a ``wire_size()`` — polymorphic message payloads."""

    name = "message"
    codec = False
    size = staticmethod(methodcaller("wire_size"))


SIZED = _Sized()


class Schema(_Codec):
    """One record's field table, compiled.

    With ``factory`` the record is an object: fields are read as attributes
    and decoding calls ``factory(**fields)``. Without, it is a tuple of its
    value-carrying fields, or — ``scalar=True`` — the one bare value.
    """

    def __init__(self, name: str, *fields, factory=None, scalar: bool = False):
        self.name, self.fields = name, fields
        self.factory, self.scalar = factory, scalar
        first = self.fields[0] if self.fields else None
        self.tag = first.const if isinstance(first, _Int) else None
        names = list(dict.fromkeys(f.name for f in self.fields if f.carries))
        if factory is not None:
            values = {name: f"v.{name}" for name in names}
        elif scalar:
            values = {name: "v" for name in names}
        else:
            values = {name: f"v[{i}]" for i, name in enumerate(names)}
        ns: Dict[str, Any] = {"_factory": factory}

        enc = _Emitter(name, ns)
        for field in self.fields:
            field.encode(enc, values.get(field.name, ""))
        total = enc.total()
        self.codec = enc.codec
        self.fixed_size = None if enc.sizes else enc.const
        self.source = f"def size(v):\n    return {total}\n"
        if self.codec:
            joined = enc.chunks[0]
            if len(enc.chunks) > 1:
                joined = f"b''.join(({', '.join(enc.chunks)},))"
            self.source += f"\ndef encode(v):\n    return {joined}\n"
            self.source += self._decode_source(ns, names)
        exec(compile(self.source, f"<wire {name}>", "exec"), ns)
        self.size = ns["size"]
        if self.codec:
            self.encode, self.decode_from = ns["encode"], ns["decode_from"]

    def _decode_source(self, ns, names) -> str:
        dec, got = _Emitter(self.name, ns, decoding=True), {}
        for field in self.fields:
            value = field.decode(dec)
            if field.carries:
                got[field.name] = value
        dec.flush()
        if self.factory is not None:
            result = f"_factory({', '.join(f'{k}={got[k]}' for k in names)})"
        elif self.scalar:
            result = got[names[0]]
        else:
            result = f"({', '.join(got[k] for k in names)},)"
        body = "".join(f"    {line}\n" for line in dec.lines)
        head = "\ndef decode_from(buf, pos):\n    n = len(buf)\n"
        return f"{head}{body}    return {result}, pos\n"


class Union(_Codec):
    """One of several object records, told apart by a leading ``u8(const=…)``."""

    def __init__(self, name: str, *members: Schema):
        self.name, self.members = name, members
        self._by_type = {member.factory: member for member in members}
        self._by_tag = {member.tag: member for member in members}
        if None in self._by_tag or None in self._by_type:
            raise TypeError("a union member needs a factory and a leading u8(const=)")

    def _member(self, value: Any) -> Schema:
        try:
            return self._by_type[type(value)]
        except KeyError:
            name = type(value).__name__
            raise TypeError(f"cannot encode {name} as {self.name}") from None

    def size(self, value: Any) -> int:
        return self._member(value).size(value)

    def encode(self, value: Any) -> bytes:
        return self._member(value).encode(value)

    def decode_from(self, buf: bytes, pos: int) -> Tuple[Any, int]:
        if pos >= len(buf):
            raise ValueError(f"truncated {self.name} record")
        member = self._by_tag.get(buf[pos])
        if member is None:
            raise ValueError(f"unknown {self.name} tag 0x{buf[pos]:02x}")
        return member.decode_from(buf, pos)


def record(*fields, factory=None):
    """Class decorator: compile ``fields`` into the class's ``WIRE`` schema
    and derive ``wire_size()`` — plus ``encode()``/``decode()`` unless a
    sizes-only field kind is used. ``factory`` overrides the constructor
    the decoder calls (for a record that validates what it decoded)."""

    def attach(cls):
        schema = Schema(cls.__name__, *fields, factory=factory or cls)
        cls.WIRE = schema
        cls.wire_size = schema.size
        if schema.codec:
            cls.encode = schema.encode
            cls.decode = staticmethod(schema.decode)
        return cls

    return attach
