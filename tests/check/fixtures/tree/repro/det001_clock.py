"""DET001 plants: direct, aliased, and passed into a calling parameter."""

import time
from datetime import datetime

STARTED = time.time()
STAMP = datetime.now()
WAIVED = time.monotonic()  # reprolint: disable=DET001

now = time.time


def direct_in_function():
    return time.perf_counter()


def stamp():
    return now()


def local_alias():
    clock = time.perf_counter
    return clock()


def local_alias_waived():
    clock = time.time
    return clock()  # reprolint: disable=DET001


def sample(clock):
    return clock()


def run():
    return sample(time.time)


def run_waived():
    return sample(time.monotonic)  # reprolint: disable=DET001


def lazy_import():
    import time as t

    t.sleep(1)


def outer():
    def inner():
        return time.time_ns()

    return inner


async def later():
    time.sleep(2)


def with_default(at=time.time()):
    return at


class Config:
    created = time.monotonic_ns()


class Stamper:
    def __init__(self):
        self._now = time.monotonic

    def stamp(self):
        return self._now()


BANNED = {time.time, time.monotonic}
