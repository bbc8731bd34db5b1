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

The first window, the doubling and the cap are tuned down so the scan's
windows stay small on these inputs; a run that alternates unique-weak
blocks with collision-peered ones checks that the run's batched charge
adds the same floats in the same order as the walk's per-block compares.
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
        for i in index.get(weak_checksum(window), ()):
            if remote:
                meter.charge_bytes("strong_checksum", block_size)
                hit = signature.strongs[i] == hashlib.md5(window).digest()
            else:
                meter.charge_bytes("bitwise_compare", block_size)
                hit = base[i * block_size : (i + 1) * block_size] == window
            if hit:
                matched = i
                break
        if matched is None:
            pos += 1
            continue
        if pos > literal_start:
            delta.append(Literal(target[literal_start:pos]))
        delta.append(Copy(matched * block_size, block_size))
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


@st.composite
def runs_split_by_collisions(draw):
    """A run whose blocks alternate between ones no other block shares a
    weak value with and ones a ``_weak_collision`` twin elsewhere in the
    base does: the run's batched charge for the first kind is split by the
    per-peer compares of the second."""
    block_size = draw(st.sampled_from([8, 16, 32]))
    # bytes in 2..254 leave every block room for a collision twin
    block = st.lists(
        st.integers(2, 254), min_size=block_size, max_size=block_size
    ).map(bytes)
    pairs = draw(st.lists(st.tuples(block, block), min_size=1, max_size=8))
    run = b"".join(unique + peered for unique, peered in pairs)
    twins = b"".join(_weak_collision(peered) for _, peered in pairs)
    # twins first: the walk compares each twin before the block itself
    base = twins + run if draw(st.booleans()) else run + twins
    target = bytearray(draw(st.binary(max_size=3)) + run)
    if draw(st.booleans()):
        target[draw(st.integers(0, len(target) - 1))] ^= 0xFF  # break the run
    return block_size, base, bytes(target)


@pytest.mark.parametrize("remote", [False, True], ids=["bitwise", "remote"])
@given(
    case=st.one_of(base_and_target(), runs_split_by_collisions()),
    # (_SCAN_SEGMENT, _GALLOP_MAX_BYTES, _FIRST_WINDOW_BLOCKS): the shipped
    # constants, and ones small enough that windows on these inputs double
    # and cap (0 opens every window at one offset, 7 caps them below one
    # block) and gallop strides break
    tuning=st.sampled_from(
        [
            (rsync._SCAN_SEGMENT, rsync._GALLOP_MAX_BYTES, rsync._FIRST_WINDOW_BLOCKS),
            (48, 64, 1),
            (7, 1 << 20, 1),
            (48, 64, 0),
            (7, 1 << 20, 0),
            (100, 64, 2),
        ]
    ),
)
@settings(max_examples=200, deadline=None)
def test_same_bytes_and_same_charges_as_the_walk(remote, case, tuning):
    block_size, base, target = case
    meter = CostMeter()
    signature = compute_signature(
        base, block_size, with_strong=remote, meter=meter
    )
    local = None if remote else base
    with mock.patch.multiple(
        rsync,
        _SCAN_SEGMENT=tuning[0],
        _GALLOP_MAX_BYTES=tuning[1],
        _FIRST_WINDOW_BLOCKS=tuning[2],
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
