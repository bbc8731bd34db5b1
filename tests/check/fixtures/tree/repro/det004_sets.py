"""DET004 plants: set iteration order reaching an order-sensitive sink."""

import heapq

from repro.core.conflict import conflict_path


def into_heap(paths):
    dirty = set(paths)
    heap = []
    for p in dirty:
        heapq.heappush(heap, (0.0, p))
    return heap


def reshaped(paths):
    dirty = set(paths)
    out = []
    for p in list(dirty):
        out.append(conflict_path(p, 1, 1))
    return out


def set_operator(old, new, record):
    out = []
    for p in set(old) | {q for q in new if q}:
        out.append(record.encode_node(p))
    return out


def waived(paths):
    heap = []
    for p in set(paths):  # reprolint: disable=DET004
        heapq.heappush(heap, p)
    return heap


def ordered(paths):
    heap = []
    for p in sorted(set(paths)):
        heapq.heappush(heap, p)
    return heap


def orderless(paths):
    n = 0
    for p in set(paths):
        n += len(p)
    return n
