"""The clock shim is exempt from DET001 by path."""

import time


def wall():
    return time.time()
