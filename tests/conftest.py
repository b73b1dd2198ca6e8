import tracemalloc

import pytest


@pytest.fixture
def traced_peak():
    """``traced_peak(fn, *args, **kwargs)``: the tracemalloc peak in bytes
    of one call of ``fn``, and what it returned."""
    def peak(fn, *args, **kwargs):
        tracemalloc.start()
        try:
            out = fn(*args, **kwargs)
            return tracemalloc.get_traced_memory()[1], out
        finally:
            tracemalloc.stop()
    return peak
