"""The CLI may print (PY003 exempt by path) but not read the clock."""

import time


def main():
    print("started")
    return time.time()
