import time

T = time.time()  # reprolint: disable=PARSE


def broken(:
    return 1
