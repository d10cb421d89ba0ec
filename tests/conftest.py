import tracemalloc

import pytest


@pytest.fixture
def traced_peak():
    """``traced_peak(fn)`` runs ``fn()`` under tracemalloc and returns its
    result and the peak of traced memory above the level at the start, in
    bytes."""
    # amlp imports scipy.sparse on first use; importing it here keeps that
    # one-time import out of the traced window, so a peak does not depend on
    # whether an earlier test already loaded it
    import scipy.sparse  # noqa: F401

    def run(fn):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = fn()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        return result, peak

    return run
