"""The operators a SparseGraph memoizes, and the immutability they rest on.

A graph keeps the operators that depend on it alone: its scipy CSR, both
normalizations and the max aggregator's neighbor layout. These tests check
that each is built once per graph over the runs that reuse a graph, that the
outputs are those of fresh copies without the memo, that operators sharing a
layout keep their own state, and that no graph built in the package holds an
array that can still be written.
"""

import functools
import json
from dataclasses import replace

import numpy as np
import pytest

import amlp.cli
from amlp.cli import main
from amlp.dataio import load_dataset, save_dataset
from amlp.errors import ValidationError
from amlp.graph import (
    AGGREGATORS,
    MaxAggregator,
    SparseGraph,
    build_graph,
    graph_from_edges,
    normalize_no_self_loops,
    normalize_with_self_loops,
)
from amlp.model import AMLPConfig, exp1_train
from amlp.reconstruct import ReconstructionConfig, reconstruct_hard, reconstruct_soft
from amlp.synth import (
    generate_dataset,
    generate_sbm,
    heterophilic_preset,
    homophilic_preset,
)

MEMOS = ("_csr", "_with_self_loops", "_no_self_loops", "_max_layout")


@pytest.fixture
def builds(monkeypatch):
    """builds[name]: the graphs on which SparseGraph's memoized ``name`` was
    built during the test, in order."""
    log = {}
    for name in MEMOS:
        log[name] = seen = []
        build = SparseGraph.__dict__[name].func

        def counted(g, build=build, seen=seen):
            seen.append(g)
            return build(g)

        spy = functools.cached_property(counted)
        spy.__set_name__(SparseGraph, name)
        monkeypatch.setattr(SparseGraph, name, spy)
    return log


def built_once_on(log, *graphs):
    """The builds in ``log`` are exactly one on each of ``graphs``."""
    return sorted(map(id, log)) == sorted(map(id, graphs))


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.fixture(scope="module")
def presets():
    return {
        "hom": generate_dataset(homophilic_preset(seed=7))[:2],
        "het": generate_dataset(heterophilic_preset(seed=7))[:2],
    }


CELLS = [(agg, flag) for agg in AGGREGATORS for flag in (False, True)]


@pytest.mark.parametrize("preset", ["hom", "het"])
def test_exp1_sweep_builds_each_operator_once(presets, builds, preset):
    g0, x = presets[preset]
    g = replace(g0)  # a copy without any memo an earlier test left on g0
    cfg = AMLPConfig(hidden_dim=8, epochs=5, seed=3)
    memo = [exp1_train(g, x, agg, flag, 0.1, cfg) for agg, flag in CELLS]
    a_tilde = normalize_with_self_loops(g)
    assert built_once_on(builds["_with_self_loops"], g)
    # g's CSR (mean, sum and L_agg) and A~'s (the decoder, weighted_sum and Dr)
    assert built_once_on(builds["_csr"], g, a_tilde)
    assert built_once_on(builds["_max_layout"], g)
    assert builds["_no_self_loops"] == []
    # a fresh copy for every cell builds everything again, to the same bits
    for (agg, flag), (dr, y_hat) in zip(CELLS, memo):
        fresh_dr, fresh_y = exp1_train(replace(g0), x, agg, flag, 0.1, cfg)
        assert dr == fresh_dr, (agg, flag)
        assert same_bits(y_hat, fresh_y), (agg, flag)
    assert len(builds["_with_self_loops"]) == 1 + len(CELLS)


def test_train_grid_normalizes_a_once(tmp_path, builds, monkeypatch):
    data = tmp_path / "hom"
    assert main(["sbm", "--preset", "homophilic", "--seed", "0", "--out", str(data)]) == 0
    config = tmp_path / "grid.json"
    config.write_text(json.dumps({"k": [1, 2], "lambda": [0.1, 1.0], "epochs": 3, "hidden_dim": 8}))
    graphs = []
    train = amlp.cli.train

    def spy(g, *args, **kwargs):
        graphs.append(g)
        return train(g, *args, **kwargs)

    monkeypatch.setattr(amlp.cli, "train", spy)
    out = tmp_path / "run"
    assert main(["train", "--data", str(data), "--out", str(out), "--config", str(config)]) == 0
    assert len(graphs) == 4 and all(g is graphs[0] for g in graphs)
    assert built_once_on(builds["_with_self_loops"], graphs[0])
    # each run reconstructs S anew, so S~ is built once per run
    assert len(builds["_no_self_loops"]) == 4


def test_to_scipy_is_one_read_only_csr_per_graph():
    g = build_graph([(0, 1), (1, 2), (2, 3)], 5)
    a = g.to_scipy()
    assert g.to_scipy() is a
    for arr in (a.data, a.indices, a.indptr):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 7
    assert np.array_equal(a.toarray(), replace(g).to_scipy().toarray())
    assert replace(g).to_scipy() is not a


def test_normalizations_are_one_graph_per_input():
    g = build_graph([(0, 1), (1, 2), (0, 2), (3, 4)], 6)
    at, st = normalize_with_self_loops(g), normalize_no_self_loops(g)
    assert normalize_with_self_loops(g) is at
    assert normalize_no_self_loops(g) is st
    fresh = replace(g)
    for norm, memo in ((normalize_with_self_loops, at), (normalize_no_self_loops, st)):
        again = norm(fresh)
        assert again is not memo
        assert np.array_equal(again.indptr, memo.indptr)
        assert np.array_equal(again.indices, memo.indices)
        assert same_bits(again.values, memo.values)
    # the checks still run on a graph whose normalization is kept
    with pytest.raises(ValidationError, match="binary graph without self-loops"):
        normalize_with_self_loops(at)


def test_max_aggregators_on_one_graph_keep_their_own_winners():
    rng = np.random.default_rng(11)
    g = generate_dataset(heterophilic_preset(seed=11, n_nodes=120))[0]
    z1, z2 = rng.standard_normal((2, g.n_nodes, 6))
    g_y = rng.standard_normal((g.n_nodes, 6))
    one, two = MaxAggregator(g), MaxAggregator(g)
    assert one.slots is two.slots and one.hubs is two.hubs
    two.forward(z2)
    want = two.backward(g_y)
    one.forward(z1)
    assert same_bits(two.backward(g_y), want)
    # and each matches an operator on a copy that shares nothing with g's
    alone = MaxAggregator(replace(g))
    alone.forward(z1)
    assert same_bits(one.backward(g_y), alone.backward(g_y))


def assert_frozen(a, what):
    """``a`` is read-only, and so is every array it views."""
    assert not a.flags.writeable, what
    base = a.base
    while isinstance(base, np.ndarray):
        assert not base.flags.writeable, what
        base = base.base
    assert base is None or memoryview(base).readonly, what


def _built_graphs(tmp_path):
    """Every way the package builds a graph, by name."""
    g = build_graph([(0, 1), (1, 2), (0, 2), (2, 3), (4, 5)], 7)
    x = np.random.default_rng(5).standard_normal((7, 3))
    built = {
        "build_graph": g,
        "graph_from_edges": graph_from_edges(4, np.array([0, 1, 2, 2]), np.array([1, 2, 2, 0])),
        "graph_from_edges values": graph_from_edges(
            3, np.array([0, 1, 2]), np.array([1, 2, 1]), np.array([0.5, 0.25, 0.75])
        ),
        "generate_sbm": generate_sbm(homophilic_preset(seed=3, n_nodes=60))[0],
    }
    for policy in ("original_edges", "all_pairs"):
        built[f"reconstruct_hard {policy}"] = reconstruct_hard(
            g, x, ReconstructionConfig(epsilon=0.01, candidate_policy=policy)
        )[0]
        built[f"reconstruct_soft {policy}"] = reconstruct_soft(
            g, x, ReconstructionConfig(candidate_policy=policy, mode="soft")
        )[0]
    built["normalize_with_self_loops"] = normalize_with_self_loops(g)
    built["normalize_no_self_loops"] = normalize_no_self_loops(g)
    built["normalize_no_self_loops soft"] = normalize_no_self_loops(
        built["reconstruct_soft original_edges"]
    )
    save_dataset(tmp_path / "ds", g, x, np.zeros(7, dtype=np.int64))
    built["load_dataset"] = load_dataset(tmp_path / "ds")[0]
    return built


def test_every_built_graph_is_read_only(tmp_path):
    for name, g in _built_graphs(tmp_path).items():
        for field in ("indptr", "indices", "values"):
            arr = getattr(g, field)
            if arr is not None:
                assert_frozen(arr, f"{name} {field}")
        a = g.to_scipy()
        for field in ("data", "indices", "indptr"):
            assert_frozen(getattr(a, field), f"{name} to_scipy().{field}")
        if g.values is None:
            active, row_starts, row_rank, slots, hubs = g._max_layout
            for arr in (active, row_starts, row_rank, *slots, *(nb for nb, _ in hubs)):
                assert_frozen(arr, f"{name} max layout")
