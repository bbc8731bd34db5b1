"""DET003 plants: one DeterministicRandom stream handed to many consumers."""

from repro.common.rng import DeterministicRandom


class Consumer:
    def __init__(self, rng):
        self.rng = rng


def shared_across_sites():
    rng = DeterministicRandom(7)
    a = Consumer(rng)
    b = Consumer(rng)
    return a, b


def shared_in_loop(n):
    rng = DeterministicRandom(7)
    out = []
    for _ in range(n):
        out.append(Consumer(rng))
    return out


def shared_waived():
    rng = DeterministicRandom(7)
    a = Consumer(rng)
    b = Consumer(rng)  # reprolint: disable=DET003
    return a, b


def forked():
    rng = DeterministicRandom(7)
    return Consumer(rng.fork("a")), Consumer(rng.fork("b"))


def single_site():
    rng = DeterministicRandom(7)
    return Consumer(rng)
