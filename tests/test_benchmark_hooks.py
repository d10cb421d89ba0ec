"""The benchmark's hooks into amlp stay attachable.

perfbench/tracing.py rebinds amlp functions by name from outside the package,
so renaming or inlining one of them silently breaks the benchmark. These tests
load that file as it stands and check that its names still resolve and that
its untraced recorder still sees every epoch.
"""

import importlib.util
from pathlib import Path

import numpy as np

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
