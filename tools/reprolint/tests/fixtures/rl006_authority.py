"""RL006 negative fixture: this file *is* the registered clock authority."""

import time

clock = time.perf_counter


def stamp():
    return time.time()
