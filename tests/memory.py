"""Memory measurement for the tests: what a call allocates, traced by tracemalloc."""

import gc
import tracemalloc


def peak_bytes(fn):
    """``fn()``, the peak of the memory allocated while it ran and the memory
    still allocated once it returned (what its result holds), both in bytes
    above what was allocated before it. Traces only for the call, unless
    tracing was on already."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        gc.collect()  # garbage in reference cycles is not held
        held, peak = tracemalloc.get_traced_memory()
        return result, peak - before, held - before
    finally:
        if started:
            tracemalloc.stop()
