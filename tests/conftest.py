import tracemalloc

import numpy as np
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


# signed zeros, infinities, nan and subnormals of both signs
SPECIAL_VALUES = np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, 5e-324,
                           -5e-324, 1e-310, -2.5e-320])


@pytest.fixture
def special_batch():
    """``special_batch(n, dim, seed)``: an (n, dim) batch of normal draws
    with about a third of its entries replaced by ``SPECIAL_VALUES``."""
    def batch(n, dim, seed):
        rng = np.random.default_rng(seed)
        out = rng.normal(size=(n, dim))
        swap = rng.random((n, dim)) < 0.35
        out[swap] = rng.choice(SPECIAL_VALUES, size=int(swap.sum()))
        return out
    return batch
