"""``compute_delta`` against the per-byte walk: same ops, same charges.

The production encoder follows match runs and scans weak checksums only
where the walk stands; the reference walks every offset. On bases built
from small block pools (so identical blocks and weak-checksum collisions
are common) and targets made by edit scripts, the two must emit the same
bytes — and the meter must read what a counting walk charges: one
``bitwise_compare`` (``strong_checksum`` in remote mode) of ``block_size``
per peer visited, plus the two ``rolling_checksum`` sweeps. Totals are
compared by ``repr``, so a batched charge that drifts by one compare or one
float ulp fails.
"""

import hashlib
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.chunking import _reference as reference
from repro.chunking.rolling import weak_checksum
from repro.cost.meter import CostMeter
from repro.delta import rsync
from repro.delta.format import Copy, Delta, Literal
from repro.delta.patch import apply_delta
from repro.delta.rsync import compute_delta, compute_signature

from tests.delta.test_golden import _weak_collision

def counting_walk(base, target, block_size, remote, meter):
    """The greedy walk, one window at a time, charging as it goes."""
    signature = compute_signature(base, block_size, with_strong=remote)
    meter.charge_bytes("rolling_checksum", len(base))
    if remote:
        meter.charge_bytes("strong_checksum", len(base))
    delta = Delta()
    if not target:
        return delta
    meter.charge_bytes("rolling_checksum", len(target))
    index = signature.weak_index()
    pos = literal_start = 0
    while pos + block_size <= len(target):
        window = target[pos : pos + block_size]
        matched = None
        for block in index.get(weak_checksum(window), ()):
            if remote:
                meter.charge_bytes("strong_checksum", block_size)
                hit = block.strong == hashlib.md5(window).digest()
            else:
                meter.charge_bytes("bitwise_compare", block_size)
                hit = base[block.offset : block.offset + block_size] == window
            if hit:
                matched = block
                break
        if matched is None:
            pos += 1
            continue
        if pos > literal_start:
            delta.append(Literal(target[literal_start:pos]))
        delta.append(Copy(matched.offset, block_size))
        pos += block_size
        literal_start = pos
    if literal_start < len(target):
        delta.append(Literal(target[literal_start:]))
    return delta


@st.composite
def base_and_target(draw):
    block_size = draw(st.sampled_from([8, 16, 32]))
    block = st.binary(min_size=block_size, max_size=block_size)
    small = st.lists(
        st.sampled_from([1, 2, 3]), min_size=block_size, max_size=block_size
    ).map(bytes)
    pool = draw(st.lists(st.one_of(small, block), min_size=1, max_size=4))
    # same weak checksum, different content (needs a byte >= 2 to borrow from)
    pool += [_weak_collision(b) for b in pool if max(b[1:-1]) >= 2]
    pieces = draw(
        st.lists(st.one_of(st.sampled_from(pool), block), max_size=24)
    )
    tail = draw(st.binary(max_size=block_size - 1))
    base = b"".join(pieces) + tail

    target = bytearray(base)
    edits = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["insert", "delete", "overwrite", "append"]),
                st.floats(min_value=0, max_value=1),
                st.one_of(st.binary(min_size=1, max_size=40), st.sampled_from(pool)),
            ),
            max_size=5,
        )
    )
    for kind, where, data in edits:
        at = int(where * len(target))
        if kind == "insert":
            target[at:at] = data
        elif kind == "delete":
            del target[at : at + len(data)]
        elif kind == "overwrite":
            target[at : at + len(data)] = data[: len(target) - at]
        else:
            target += data
    return block_size, base, bytes(target)


@pytest.mark.parametrize("remote", [False, True], ids=["bitwise", "remote"])
@given(
    case=base_and_target(),
    # the shipped constants, and ones small enough that these inputs cross
    # segment boundaries and break gallop strides
    tuning=st.sampled_from(
        [(rsync._SCAN_SEGMENT, rsync._GALLOP_MAX_BYTES), (48, 64), (7, 1 << 20)]
    ),
)
@settings(max_examples=150, deadline=None)
def test_same_bytes_and_same_charges_as_the_walk(remote, case, tuning):
    block_size, base, target = case
    meter = CostMeter()
    signature = compute_signature(
        base, block_size, with_strong=remote, meter=meter
    )
    local = None if remote else base
    with mock.patch.multiple(
        rsync, _SCAN_SEGMENT=tuning[0], _GALLOP_MAX_BYTES=tuning[1]
    ):
        delta = compute_delta(signature, target, base=local, meter=meter)

    encoded = delta.encode()
    assert encoded == reference.compute_delta_ref(
        signature, target, base=local
    ).encode()
    assert apply_delta(base, delta) == target

    oracle = CostMeter()
    assert counting_walk(base, target, block_size, remote, oracle).encode() == encoded
    assert meter.bytes_by_category == oracle.bytes_by_category
    assert repr(meter.total) == repr(oracle.total)


def test_argument_check_comes_before_the_empty_target_shortcut():
    """A signature without strong checksums and no base is a caller error
    whatever the target holds — the empty target used to slip through."""
    signature = compute_signature(b"x" * 64, 16, with_strong=False)
    for engine in (compute_delta, reference.compute_delta_ref):
        for target in (b"", b"y" * 64):
            with pytest.raises(ValueError, match="strong checksums"):
                engine(signature, target)
