"""Wall-clock phase timing: the one timer behind every ``timings_s`` entry."""

from __future__ import annotations

import time
from contextlib import contextmanager


@contextmanager
def timed(timings: dict, key: str):
    """Add the wall time of the ``with`` block to ``timings[key]``."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        timings[key] = timings.get(key, 0.0) + time.perf_counter() - t0
