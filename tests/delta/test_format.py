"""Tests for the delta instruction stream and wire encoding."""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.wire import decode_varint, encode_varint
from repro.delta.format import _LITERAL_TAG, Copy, Delta, Literal


class TestVarint:
    @pytest.mark.parametrize("value", [0, 1, 127, 128, 300, 1 << 20, 1 << 40])
    def test_round_trip(self, value):
        buf = encode_varint(value)
        decoded, pos = decode_varint(buf, 0)
        assert decoded == value
        assert pos == len(buf)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            encode_varint(-1)

    def test_truncated_raises(self):
        buf = encode_varint(1 << 20)
        with pytest.raises(ValueError):
            decode_varint(buf[:-1] if buf[-1] < 0x80 else buf[:1], len(buf))

    @given(st.integers(min_value=0, max_value=1 << 50))
    def test_property_round_trip(self, value):
        decoded, _ = decode_varint(encode_varint(value), 0)
        assert decoded == value


class TestOps:
    def test_copy_wire_size_small(self):
        assert Copy(0, 10).wire_size() == 3  # tag + 2 one-byte varints

    def test_literal_wire_size(self):
        op = Literal(b"hello")
        assert op.wire_size() == 1 + 1 + 5

    def test_encode_tags_differ(self):
        assert Copy(0, 1).encode()[0] != Literal(b"x").encode()[0]


class TestDeltaAppend:
    def test_adjacent_copies_coalesce(self):
        delta = Delta()
        delta.append(Copy(0, 100))
        delta.append(Copy(100, 50))
        assert delta.ops == [Copy(0, 150)]

    def test_non_adjacent_copies_kept(self):
        delta = Delta()
        delta.append(Copy(0, 100))
        delta.append(Copy(200, 50))
        assert len(delta.ops) == 2

    def test_literals_coalesce(self):
        delta = Delta()
        delta.append(Literal(b"ab"))
        delta.append(Literal(b"cd"))
        assert delta.ops == [Literal(b"abcd")]

    def test_target_size_tracks(self):
        delta = Delta()
        delta.append(Copy(0, 100))
        delta.append(Literal(b"xyz"))
        assert delta.target_size == 103

    def test_literal_and_copied_bytes(self):
        delta = Delta.from_ops([Copy(0, 10), Literal(b"abc"), Copy(20, 5)])
        assert delta.literal_bytes == 3
        assert delta.copied_bytes == 15


class TestWireRoundTrip:
    def test_simple(self):
        delta = Delta.from_ops([Copy(0, 4096), Literal(b"new data"), Copy(8192, 4096)])
        decoded = Delta.decode(delta.encode())
        assert decoded.ops == delta.ops
        assert decoded.target_size == delta.target_size

    def test_empty(self):
        delta = Delta()
        assert Delta.decode(delta.encode()).ops == []

    def test_wire_size_close_to_encoded_length(self):
        delta = Delta.from_ops([Copy(0, 4096), Literal(b"q" * 500)])
        # wire_size is an estimate with a fixed 8-byte header
        assert abs(delta.wire_size() - len(delta.encode())) <= 8

    def test_truncated_header_rejected(self):
        with pytest.raises(ValueError):
            Delta.decode(b"\x01\x02")

    def test_truncated_literal_rejected(self):
        buf = Delta.from_ops([Literal(b"abcdef")]).encode()
        with pytest.raises(ValueError):
            Delta.decode(buf[:-3])

    def test_unknown_tag_rejected(self):
        delta = Delta.from_ops([Copy(0, 1)])
        buf = bytearray(delta.encode())
        buf[8] = 0x77  # clobber the op tag
        with pytest.raises(ValueError):
            Delta.decode(bytes(buf))

    @given(
        st.lists(
            st.one_of(
                st.tuples(
                    st.integers(min_value=0, max_value=1 << 20),
                    st.integers(min_value=1, max_value=1 << 16),
                ).map(lambda t: Copy(*t)),
                st.binary(min_size=1, max_size=100).map(Literal),
            ),
            max_size=20,
        )
    )
    @settings(max_examples=50)
    def test_property_round_trip(self, ops):
        delta = Delta.from_ops(ops)
        decoded = Delta.decode(delta.encode())
        assert decoded.ops == delta.ops
        assert decoded.target_size == delta.target_size


class TestDecodeHardening:
    # Regressions: decode used to accept trailing garbage, never checked
    # the header's target_size against the ops, and let a varint carry an
    # unbounded run of continuation bytes.

    def test_trailing_garbage_rejected(self):
        buf = Delta.from_ops([Copy(0, 4), Literal(b"ab")]).encode()
        with pytest.raises(ValueError, match="trailing"):
            Delta.decode(buf + b"\x00")

    def test_trailing_extra_op_rejected(self):
        # A well-formed extra op past the declared count is still garbage.
        buf = Delta.from_ops([Copy(0, 4)]).encode() + Copy(4, 4).encode()
        with pytest.raises(ValueError, match="trailing"):
            Delta.decode(buf)

    def test_target_size_mismatch_rejected(self):
        buf = bytearray(Delta.from_ops([Literal(b"abcd")]).encode())
        struct.pack_into("<I", buf, 4, 99)  # inflate the promised size
        with pytest.raises(ValueError, match="promises 99"):
            Delta.decode(bytes(buf))

    def test_target_size_zero_spoof_rejected(self):
        buf = bytearray(Delta.from_ops([Copy(0, 64)]).encode())
        struct.pack_into("<I", buf, 4, 0)
        with pytest.raises(ValueError, match="promises 0"):
            Delta.decode(bytes(buf))

    def test_overlong_varint_rejected_in_stream(self):
        # 0 spelled with ten continuation bytes decodes to 0 but is a
        # non-canonical, unbounded encoding: reject it.
        overlong = b"\x80" * 10 + b"\x00"
        buf = struct.pack("<II", 1, 0) + bytes([_LITERAL_TAG]) + overlong
        with pytest.raises(ValueError, match="over-long"):
            Delta.decode(buf)

    def test_overlong_varint_rejected_directly(self):
        with pytest.raises(ValueError, match="over-long"):
            decode_varint(b"\x80" * 10 + b"\x01", 0)

    def test_maximal_canonical_varint_still_accepted(self):
        value = (1 << 63) - 1  # widest value the canonical range allows
        decoded, _ = decode_varint(encode_varint(value), 0)
        assert decoded == value
