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


@pytest.fixture
def epoch_peak(traced_peak):
    """``epoch_peak(kernel, w)`` runs training epochs of ``kernel`` from a
    copy of ``w``, each ``loss_and_grad`` then ``adam_step`` into the two
    flat scratch chunks that the model's epoch loop allocates beforehand.
    After one warm-up epoch it returns the largest traced peak of the next
    five, in bytes."""
    from amlp.model import AdamState, _adam_scratch, adam_step

    def run(kernel, w):
        w = w.copy()
        scratch = _adam_scratch(w)

        def epoch(state):
            grad = kernel.loss_and_grad(w)[3]
            return adam_step(state, w, grad, 1e-3, *scratch)[1]

        state = epoch(AdamState.zeros_like(w))  # warm-up epoch
        peaks = []
        for _ in range(5):
            state, peak = traced_peak(lambda: epoch(state))
            peaks.append(peak)
        return max(peaks)

    return run


@pytest.fixture(scope="session", params=["homophilic", "heterophilic"])
def soft_preset(request):
    """(S, X, labels) of an SBM preset at seed 0, S its soft reconstruction:
    a weighted graph on the preset's edges."""
    from amlp import synth
    from amlp.reconstruct import ReconstructionConfig, reconstruct_soft

    g, x, labels = synth.generate_dataset(getattr(synth, f"{request.param}_preset")(0))
    s, _ = reconstruct_soft(g, x, ReconstructionConfig(mode="soft"))
    return s, x, labels
