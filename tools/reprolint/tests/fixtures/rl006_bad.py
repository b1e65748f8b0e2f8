"""RL006 positive fixture: clock reads outside the clock authority."""

import time
from time import monotonic as tick


def timed(work):
    start = time.perf_counter()
    work()
    return tick() - start


def pause():
    # Not a clock: sleeping reads no time.
    time.sleep(0)
