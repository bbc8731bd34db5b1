"""The delta instruction stream and its wire encoding.

A delta is an ordered list of two instruction kinds:

- ``Copy(offset, length)`` — take bytes from the *base* (old) file;
- ``Literal(data)`` — bytes present only in the new file.

Replaying the instructions in order reconstructs the new file exactly.
The wire encoding is a simple tagged format (1-byte tag + two varints, or
1-byte tag + varint + payload); ``wire_size`` is what the network simulator
charges for transmitting a delta.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Union

from repro.common import wire

_COPY_TAG = 0xC0
_LITERAL_TAG = 0x11


@wire.record(wire.u8(const=_COPY_TAG), wire.varint("offset"), wire.varint("length"))
@dataclass(frozen=True)
class Copy:
    """Copy ``length`` bytes from ``offset`` in the base file."""

    offset: int
    length: int


@wire.record(wire.u8(const=_LITERAL_TAG), wire.blob("data", wire.varint))
@dataclass(frozen=True)
class Literal:
    """Insert ``data`` verbatim."""

    data: bytes


DeltaOp = Union[Copy, Literal]


def _decoded_delta(ops: List[DeltaOp], target_size: int) -> "Delta":
    """What ``Delta.decode`` builds: the header must not lie about the ops."""
    delta = Delta(ops=ops, target_size=target_size)
    reconstructed = delta.copied_bytes + delta.literal_bytes
    if reconstructed != target_size:
        raise ValueError(
            f"ops reconstruct {reconstructed} bytes but the header "
            f"promises {target_size}"
        )
    return delta


@wire.record(
    wire.count_of("ops", wire.u32le),
    wire.u32le("target_size"),
    wire.items("ops", wire.Union("delta op", Copy.WIRE, Literal.WIRE)),
    factory=_decoded_delta,
)
@dataclass
class Delta:
    """An ordered delta instruction stream plus bookkeeping.

    ``wire_size()`` is what crosses the network; ``decode`` raises
    ``ValueError`` on malformed input.

    Attributes:
        ops: the instruction list.
        target_size: size of the file the delta reconstructs.
    """

    ops: List[DeltaOp] = field(default_factory=list)
    target_size: int = 0

    def append(self, op: DeltaOp) -> None:
        """Append an instruction, coalescing adjacent compatible ops."""
        if self.ops:
            last = self.ops[-1]
            if isinstance(op, Copy) and isinstance(last, Copy):
                if last.offset + last.length == op.offset:
                    self.ops[-1] = Copy(last.offset, last.length + op.length)
                    self.target_size += op.length
                    return
            if isinstance(op, Literal) and isinstance(last, Literal):
                self.ops[-1] = Literal(last.data + op.data)
                self.target_size += len(op.data)
                return
        self.ops.append(op)
        self.target_size += op.length if isinstance(op, Copy) else len(op.data)

    @property
    def literal_bytes(self) -> int:
        """Total bytes carried as literals (the "real" incremental data)."""
        return sum(len(op.data) for op in self.ops if isinstance(op, Literal))

    @property
    def copied_bytes(self) -> int:
        """Total bytes reused from the base file."""
        return sum(op.length for op in self.ops if isinstance(op, Copy))

    @classmethod
    def from_ops(cls, ops: Iterable[DeltaOp]) -> "Delta":
        """Build a delta from raw ops, coalescing as it goes."""
        delta = cls()
        for op in ops:
            delta.append(op)
        return delta

