"""The benchmark's hooks into amlp stay attachable.

perfbench/tracing.py rebinds amlp functions by name from outside the package,
so renaming or inlining one of them silently breaks the benchmark. These tests
load that file as it stands and check that its names still resolve and that
its untraced recorder still sees every epoch. The last one checks that the
marks still bound the same spans: set-up ends before init_weights, and each
epoch ends at an adam_step call made from amlp.model.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import amlp.cli  # noqa: F401  (loads every module the tracer rebinds)
import amlp.model
from amlp.graph import build_graph

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = _tracing()
    for qualified, _, _ in tracing.TRACED:
        assert callable(tracing._function(qualified)), qualified


def test_marks_record_every_epoch_of_train_and_exp1():
    tracing = _tracing()
    rng = np.random.default_rng(0)
    g = build_graph([(i, (i + 1) % 12) for i in range(12)] + [(0, 6)], 12)
    x = rng.standard_normal((12, 5))
    marks = tracing.Marks().install()
    try:
        amlp.model.train(g, x, amlp.model.AMLPConfig(hidden_dim=3, epochs=4))
        amlp.model.exp1_train(
            g, x, "mean", True, cfg=amlp.model.AMLPConfig(hidden_dim=3, epochs=6)
        )
    finally:
        marks.uninstall()
    assert len(marks.init_weights) == 2
    assert [len(ends) for ends in marks.epoch_ends] == [4, 6]


def test_marks_record_every_epoch_of_each_exp1_aggregator():
    tracing = _tracing()
    rng = np.random.default_rng(1)
    g = build_graph([(i, (i + 1) % 10) for i in range(10)] + [(2, 7)], 10)
    x = rng.standard_normal((10, 4))
    cfg = amlp.model.AMLPConfig(hidden_dim=3, epochs=5)
    for kind in ("mean", "max", "sum", "weighted_sum"):
        marks = tracing.Marks().install()
        try:
            amlp.model.exp1_train(g, x, kind, True, cfg=cfg)
        finally:
            marks.uninstall()
        assert len(marks.init_weights) == 1, kind
        assert [len(ends) for ends in marks.epoch_ends] == [cfg.epochs], kind


@pytest.mark.parametrize("run", ["train", "mean", "max", "sum", "weighted_sum"])
def test_set_up_ends_before_init_weights_and_model_calls_adam(monkeypatch, run):
    """The benchmark's setup_s runs from a run's start to init_weights entry,
    and its epochs end at the adam_step returns it sees through amlp.model.
    So init_weights must follow the kernel's whole set-up, and the epoch loop
    must call adam_step from amlp.model."""
    events = []
    kernel_init = amlp.model._TrainingKernel.__init__
    init, adam = amlp.model.init_weights, amlp.model.adam_step

    def kernel_init_hook(self, *args, **kwargs):
        kernel_init(self, *args, **kwargs)
        events.append("set-up")

    def init_hook(*args, **kwargs):
        events.append("init_weights")
        return init(*args, **kwargs)

    def adam_hook(*args, **kwargs):
        events.append(sys._getframe(1).f_globals["__name__"])
        return adam(*args, **kwargs)

    monkeypatch.setattr(amlp.model._TrainingKernel, "__init__", kernel_init_hook)
    monkeypatch.setattr(amlp.model, "init_weights", init_hook)
    monkeypatch.setattr(amlp.model, "adam_step", adam_hook)
    rng = np.random.default_rng(2)
    g = build_graph([(i, (i + 1) % 10) for i in range(10)] + [(3, 8)], 10)
    x = rng.standard_normal((10, 4))
    cfg = amlp.model.AMLPConfig(hidden_dim=3, epochs=3)
    if run == "train":
        amlp.model.train(g, x, cfg)
    else:
        amlp.model.exp1_train(g, x, run, True, cfg=cfg)
    assert events == ["set-up", "init_weights"] + ["amlp.model"] * cfg.epochs
