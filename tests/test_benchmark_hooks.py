"""The benchmark's hooks into amlp stay attachable.

perfbench/tracing.py rebinds amlp functions by name from outside the package,
so renaming or inlining one of them silently breaks the benchmark. These tests
load that file as it stands and check that its names still resolve and that
its untraced recorder still sees every epoch. The last one checks that the
marks still bound the same spans: set-up ends before init_weights, and each
epoch ends at an adam_step call made from amlp.model. The harness's own
self-test runs last, every workload at smoke shape.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import amlp.cli  # noqa: F401  (loads every module the tracer rebinds)
import amlp.graph
import amlp.model
from amlp.graph import build_graph

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = _tracing()
    for qualified, _, _ in tracing.TRACED:
        assert callable(tracing._function(qualified)), qualified


def _hidden_form_features(g, rng):
    """Features wide enough that train() runs the hidden form on ``g``,
    whatever reconstruction keeps of its edges."""
    x = rng.standard_normal((g.n_nodes, 120))
    assert amlp.model._propagates_hidden(*x.shape, 3, g.indices.size)
    return x


def test_marks_record_every_epoch_of_train_and_exp1():
    tracing = _tracing()
    rng = np.random.default_rng(0)
    g = build_graph([(i, (i + 1) % 12) for i in range(12)] + [(0, 6)], 12)
    x = rng.standard_normal((12, 5))
    x_wide = _hidden_form_features(g, rng)
    marks = tracing.Marks().install()
    try:
        amlp.model.train(g, x, amlp.model.AMLPConfig(hidden_dim=3, epochs=4))
        amlp.model.exp1_train(
            g, x, "mean", True, cfg=amlp.model.AMLPConfig(hidden_dim=3, epochs=6)
        )
        amlp.model.train(g, x_wide, amlp.model.AMLPConfig(hidden_dim=3, epochs=5))
    finally:
        marks.uninstall()
    assert len(marks.init_weights) == 3
    assert [len(ends) for ends in marks.epoch_ends] == [4, 6, 5]


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


@pytest.mark.parametrize("run", ["train", "hidden", "mean", "max", "sum", "weighted_sum"])
def test_set_up_ends_before_init_weights_and_model_calls_adam(monkeypatch, run):
    """The benchmark's setup_s runs from a run's start to init_weights entry,
    and its epochs end at the adam_step returns it sees through amlp.model.
    So init_weights must follow the kernel's whole set-up, and the epoch loop
    must call adam_step from amlp.model. Run "hidden" is train() in the
    hidden form."""
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
    elif run == "hidden":
        amlp.model.train(g, _hidden_form_features(g, rng), cfg)
    else:
        amlp.model.exp1_train(g, x, run, True, cfg=cfg)
    assert events == ["set-up", "init_weights"] + ["amlp.model"] * cfg.epochs


def test_tracer_records_one_normalization_per_run_memoized_or_not(monkeypatch):
    """A~ is built once per graph, yet every train and exp1_train call still
    records one graph.normalize_with_self_loops span, ended before the run's
    init_weights, so graph.normalize_s and setup_s keep their meaning."""
    tracing = _tracing()
    builds = []
    build = amlp.graph._normalize_with_self_loops
    monkeypatch.setattr(
        amlp.graph, "_normalize_with_self_loops", lambda g: builds.append(g) or build(g)
    )
    rng = np.random.default_rng(3)
    g = build_graph([(i, (i + 1) % 12) for i in range(12)] + [(1, 7)], 12)
    x = rng.standard_normal((12, 5))
    cfg = amlp.model.AMLPConfig(hidden_dim=3, epochs=2)
    tracer = tracing.Tracer().install()
    try:
        for _ in range(2):
            amlp.model.train(g, x, cfg)
            amlp.model.exp1_train(g, x, "max", True, cfg=cfg)
    finally:
        tracer.uninstall()
    assert builds == [g]
    spans = tracer.spans
    runs = [i for i, s in enumerate(spans) if s[0] in ("model.train", "model.exp1_train")]
    assert [spans[i][0] for i in runs] == ["model.train", "model.exp1_train"] * 2
    for i in runs:
        kids = [s for s in spans if s[3] == i]
        names = [s[0] for s in kids]
        assert names.count("graph.normalize_with_self_loops") == 1
        assert names.count("model.init_weights") == 1
        normalize = kids[names.index("graph.normalize_with_self_loops")]
        init = kids[names.index("model.init_weights")]
        assert spans[i][1] <= normalize[1] <= normalize[2] <= init[1]


def test_tracer_records_propagate_in_the_p_form_only():
    """The hidden form hops through graph._propagate_into every epoch, never
    through the traced graph.propagate, while the P form records exactly one
    graph.propagate span, ended before init_weights. So model.precompute_s,
    init_weights' start less the last propagate span's end, stays the P
    form's set-up after the hops."""
    tracing = _tracing()
    rng = np.random.default_rng(4)
    g = build_graph([(i, (i + 1) % 12) for i in range(12)] + [(2, 9)], 12)
    x = rng.standard_normal((12, 5))
    x_wide = _hidden_form_features(g, rng)
    cfg = amlp.model.AMLPConfig(hidden_dim=3, epochs=3)
    tracer = tracing.Tracer().install()
    try:
        amlp.model.train(g, x_wide, cfg)
        amlp.model.train(g, x, cfg)
    finally:
        tracer.uninstall()
    spans = tracer.spans
    runs = [i for i, s in enumerate(spans) if s[0] == "model.train"]
    assert len(runs) == 2
    # the one span of the two runs is a child of the P form's
    assert [s[0] for s in spans].count("graph.propagate") == 1
    p_form = [s for s in spans if s[3] == runs[1]]
    names = [s[0] for s in p_form]
    assert names.count("graph.propagate") == 1
    propagate = p_form[names.index("graph.propagate")]
    init = p_form[names.index("model.init_weights")]
    assert propagate[2] <= init[1]


def test_tracer_records_one_reconstruction_span_per_refinement(tmp_path):
    """train() and amlp reconstruct refine through reconstruct.reconstruct,
    which finds reconstruct_hard or reconstruct_soft among its module's
    globals when called, so the tracer's rebinding of those two records each
    run's one reconstruct.* span."""
    from amlp import dataio
    from amlp.reconstruct import ReconstructionConfig

    tracing = _tracing()
    rng = np.random.default_rng(5)
    g = build_graph([(i, (i + 1) % 12) for i in range(12)] + [(3, 8)], 12)
    x = rng.standard_normal((12, 5))
    dataio.save_dataset(tmp_path / "data", g, x, np.arange(12) % 2)
    cfg = amlp.model.AMLPConfig(hidden_dim=3, epochs=2)
    runs = [
        (lambda: amlp.model.train(g, x, cfg), "hard"),
        (lambda: amlp.model.train(g, x, cfg, ReconstructionConfig(mode="soft")), "soft"),
        (lambda: amlp.cli.main(["reconstruct", "--data", str(tmp_path / "data"),
                                "--out", str(tmp_path / "hard")]), "hard"),
        (lambda: amlp.cli.main(["reconstruct", "--data", str(tmp_path / "data"),
                                "--out", str(tmp_path / "soft"), "--soft"]), "soft"),
    ]
    for run, mode in runs:
        tracer = tracing.Tracer().install()
        try:
            out = run()
        finally:
            tracer.uninstall()
        assert out == 0 or isinstance(out, tuple)  # an exit code or train()'s result
        names = [s[0] for s in tracer.spans if s[0].startswith("reconstruct.")]
        assert names == [f"reconstruct.reconstruct_{mode}"], (mode, names)


def test_harness_selftest_passes():
    """``perfbench/run.py --selftest``: the harness arithmetic, its metric
    lists against BENCHMARK.json, and every workload at smoke shape, traced
    twice and untraced once, with no operation failing."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--selftest"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert proc.stdout.splitlines()[-1] == "selftest: ok"
