"""Golden-output tests: the optimized engines are bit-identical.

``golden.json`` holds digests recorded from the pure-Python per-byte
reference engines (``repro.chunking._reference``) — the pre-optimization
behaviour. Every optimization of the vectorized/bulk engines must keep
signatures and deltas byte-for-byte identical to these fixtures; that is
the first clause of the optimization contract in docs/performance.md.

Two layers of protection:

- ``test_fast_matches_golden`` — the production engines reproduce the
  committed digests exactly (catches a fast-path change that drifts).
- ``test_reference_matches_golden`` — the reference engines still
  reproduce them too (catches someone "fixing" the oracle to match a
  broken fast path).

Regenerate after an *intentional* format change with::

    PYTHONPATH=src python tests/delta/test_golden.py --regen
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.chunking import _reference as reference
from repro.common.rng import DeterministicRandom
from repro.delta.rsync import (
    _SCAN_SEGMENT as SCAN_SEGMENT,
    compute_delta,
    compute_signature,
)

GOLDEN_PATH = Path(__file__).with_name("golden.json")
BLOCK_SIZE = 64


def _inputs():
    """Deterministic (name -> (base, target)) pairs; covers the edge cases."""
    rng = DeterministicRandom(0x601D)
    block = BLOCK_SIZE
    random_base = rng.random_bytes(8 * block)

    edited = bytearray(random_base)
    edited[3 * block + 7 : 3 * block + 11] = b"EDIT"

    shifted = random_base[: 2 * block] + b"??" + random_base[2 * block :]

    return {
        # block-size edge cases
        "empty_file": (b"", b""),
        "exactly_one_block": (
            rng.random_bytes(block),
            rng.random_bytes(block),
        ),
        "trailing_partial_block": (
            random_base + rng.random_bytes(block // 2),
            random_base[: 5 * block] + rng.random_bytes(block + block // 3),
        ),
        "smaller_than_one_block": (b"tiny base", b"tiny target"),
        # density extremes
        "match_dense": (random_base, bytes(edited)),
        "literal_dense": (random_base, rng.random_bytes(8 * block)),
        # unaligned COPYs: every match offset shifts by the insertion
        "insertion_shift": (random_base, shifted),
        **_run_inputs(),
    }


def _weak_collision(data: bytes) -> bytes:
    """Different bytes, same weak checksum: ``+1, -2, +1`` on three
    adjacent bytes preserves both the byte sum and the weighted sum."""
    out = bytearray(data)
    for i in range(len(out) - 2):
        if out[i] < 255 and out[i + 1] >= 2 and out[i + 2] < 255:
            out[i] += 1
            out[i + 1] -= 2
            out[i + 2] += 1
            return bytes(out)
    raise AssertionError("no room for a collision in this block")


def _run_inputs():
    """What following a match run (instead of scanning it) can get wrong.

    Every target opens with a few junk bytes so its runs sit at unaligned
    offsets. Drawn from their own generator: the cases above keep theirs.
    """
    rng = DeterministicRandom(0x60D2)
    block = BLOCK_SIZE
    a, b, c, d, x = (rng.random_bytes(block) for _ in range(5))
    blocks40 = rng.random_bytes(40 * block)
    broken = bytearray(blocks40)
    broken[11 * block + 5] ^= 0xFF  # inside the gallop's 8-block stride
    long_base = rng.random_bytes(40_000)
    long_target = bytearray(b"??" + long_base)
    # dirty bytes across the first scan-segment boundary; the run that
    # follows them crosses the second
    long_target[SCAN_SEGMENT - 90 : SCAN_SEGMENT + 110] = rng.random_bytes(200)
    return {
        # the run b, c, x, d passes through x, whose first identical peer
        # sits earlier in the base: the COPY must name that one
        "run_through_duplicate_peer": (
            a + x + b + c + x + d,
            b"junk" + b + c + x + d,
        ),
        # same weak, different content, ahead of the true match — met once
        # by the scan and once inside a run
        "run_through_weak_collision": (
            a + _weak_collision(b) + c + b + d,
            b"jk" + b + b"sep" + c + b + d,
        ),
        "run_ends_at_base_partial_tail": (
            blocks40[: 5 * block + block // 2],
            b"j" + blocks40[: 5 * block + block // 2] + b"more",
        ),
        "target_ends_mid_run": (
            blocks40[: 8 * block],
            b"jun" + blocks40[block : 4 * block + 10],
        ),
        "run_broken_mid_stride": (blocks40, b"j" + bytes(broken)),
        "straddles_scan_segments": (long_base, bytes(long_target)),
    }


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _signature_record(base: bytes, *, with_strong: bool):
    """Stable digest of a signature: weak values + strong digests."""
    sig = compute_signature(base, BLOCK_SIZE, with_strong=with_strong)
    weak_blob = b"".join(w.to_bytes(4, "big") for w in sig.weaks)
    record = {
        "blocks": len(sig.weaks),
        "weak_sha256": _digest(weak_blob),
        "wire_size": sig.wire_size(),
    }
    if with_strong:
        record["strong_sha256"] = _digest(b"".join(sig.strongs))
    return sig, record


def _delta_record(sig, base: bytes, target: bytes, *, remote: bool):
    delta = compute_delta(sig, target, base=None if remote else base)
    return {
        "encoded_sha256": _digest(delta.encode()),
        "wire_size": delta.wire_size(),
        "instructions": len(delta.ops),
    }


def _reference_record(name: str, base: bytes, target: bytes):
    """The same record shapes, computed by the per-byte reference engines."""
    weaks = reference.checksum_sweep_ref(base, BLOCK_SIZE)
    full_blocks = len(base) // BLOCK_SIZE
    weak_blob = b"".join(
        w.to_bytes(4, "big") for w in weaks[:full_blocks]
    )
    out = {"weak_sha256": _digest(weak_blob)}
    for mode in ("remote", "bitwise"):
        sig = compute_signature(
            base, BLOCK_SIZE, with_strong=(mode == "remote")
        )
        delta = reference.compute_delta_ref(
            sig, target, base=None if mode == "remote" else base
        )
        out[mode] = _digest(delta.encode())
    return out


def _current_golden():
    """Compute the full fixture document from the production engines."""
    doc = {}
    for name, (base, target) in _inputs().items():
        remote_sig, remote_sig_rec = _signature_record(base, with_strong=True)
        bitwise_sig, bitwise_sig_rec = _signature_record(
            base, with_strong=False
        )
        doc[name] = {
            "base_sha256": _digest(base),
            "target_sha256": _digest(target),
            "signature": remote_sig_rec,
            "signature_no_strong": bitwise_sig_rec,
            "delta_remote": _delta_record(
                remote_sig, base, target, remote=True
            ),
            "delta_bitwise": _delta_record(
                bitwise_sig, base, target, remote=False
            ),
        }
    return doc


def _load_golden():
    if not GOLDEN_PATH.exists():
        pytest.fail(
            f"{GOLDEN_PATH} missing; regenerate with "
            f"PYTHONPATH=src python {__file__} --regen"
        )
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(_inputs()))
def test_fast_matches_golden(name):
    golden = _load_golden()[name]
    current = _current_golden()[name]
    assert current == golden


@pytest.mark.parametrize("name", sorted(_inputs()))
def test_reference_matches_golden(name):
    """The oracle itself still agrees with the committed fixtures."""
    golden = _load_golden()[name]
    base_target = _inputs()[name]
    ref = _reference_record(name, *base_target)
    assert ref["weak_sha256"] == golden["signature"]["weak_sha256"]
    assert ref["remote"] == golden["delta_remote"]["encoded_sha256"]
    assert ref["bitwise"] == golden["delta_bitwise"]["encoded_sha256"]


def test_golden_covers_the_edge_cases():
    """The fixture set can't silently lose its block-size edge cases."""
    names = set(_load_golden())
    assert {
        "empty_file",
        "exactly_one_block",
        "trailing_partial_block",
    } <= names
    assert set(_run_inputs()) <= names


def test_long_case_spans_more_than_two_scan_segments():
    """Retune ``_SCAN_SEGMENT`` and this case must be rebuilt to match."""
    _, target = _inputs()["straddles_scan_segments"]
    assert len(target) - BLOCK_SIZE > 2 * SCAN_SEGMENT


if __name__ == "__main__":
    import sys

    if "--regen" not in sys.argv:
        sys.exit("usage: python tests/delta/test_golden.py --regen")
    # Record the fixtures from the REFERENCE engines where they overlap,
    # then fail loudly if the production engines disagree — a regen must
    # never paper over a fast-path divergence.
    doc = _current_golden()
    for name, (base, target) in _inputs().items():
        ref = _reference_record(name, base, target)
        assert ref["weak_sha256"] == doc[name]["signature"]["weak_sha256"], name
        assert ref["remote"] == doc[name]["delta_remote"]["encoded_sha256"], name
        assert (
            ref["bitwise"] == doc[name]["delta_bitwise"]["encoded_sha256"]
        ), name
    GOLDEN_PATH.write_text(
        json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {GOLDEN_PATH} ({len(doc)} cases)")
