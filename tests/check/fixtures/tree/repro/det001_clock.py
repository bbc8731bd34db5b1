"""DET001 plants: every way to name a clock module is an import finding.

The uses below the imports — a call, a module-level alias, a local, a
default argument, a ``self.`` attribute, a calling parameter — are
quiet on their own lines: none of them can be written without one of
the flagged imports.
"""

import time
import datetime as dt
from datetime import datetime
import time as waived  # reprolint: disable=DET001

STARTED = time.time()
STAMP = datetime.now()
now = time.time


def stamp():
    return now()


def local_alias():
    clock = time.perf_counter
    return clock()


def sample(clock):
    return clock()


def run():
    return sample(time.time)


def with_default(at=time.time()):
    return at


class Stamper:
    created = dt.datetime.now()

    def __init__(self):
        self._now = time.monotonic

    def stamp(self):
        return self._now()


def lazy_import():
    import time as t

    t.sleep(1)


def outer():
    def inner():
        from time import time_ns

        return time_ns()

    return inner


class Body:
    import datetime


def dunder():
    return __import__("time").time()


def by_name(importlib):
    return importlib.import_module("datetime.datetime")


def by_name_waived(importlib):
    return importlib.import_module("time")  # reprolint: disable=DET001
