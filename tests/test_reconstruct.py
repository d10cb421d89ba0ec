import tracemalloc

import numpy as np
import pytest

from amlp import reconstruct
from amlp.errors import ValidationError
from amlp.graph import build_graph
from amlp.reconstruct import (
    ReconstructionConfig,
    _common_neighbors,
    _score_edge_candidates,
    pair_score,
    reconstruct_hard,
    reconstruct_soft,
)


def random_instance(n, p, d, seed):
    rng = np.random.default_rng(seed)
    dense = np.triu(rng.random((n, n)) < p, k=1)
    u, v = np.nonzero(dense)
    g = build_graph(np.column_stack([u, v]), n)
    x = rng.standard_normal((n, d))
    return g, x


def brute_force_hard(g, x, epsilon, all_pairs):
    """Dense double-loop oracle for the hard reconstruction."""
    n = g.n_nodes
    a = g.to_scipy().toarray()
    kept = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(i + 1, n):
            if not all_pairs and a[i, j] == 0:
                continue
            if pair_score(x[i], x[j], a[i], a[j]) >= epsilon:
                kept[i, j] = kept[j, i] = True
    return kept


# ---------------------------------------------------------------------------
# pair_score
# ---------------------------------------------------------------------------


def test_pair_score_identical_rows():
    x = np.array([1.0, 2.0])
    a = np.array([0.0, 1.0, 1.0])
    assert pair_score(x, x, a, a) == 1.0


def test_pair_score_orthogonal_features():
    a = np.array([1.0, 1.0])
    assert pair_score([1.0, 0.0], [0.0, 1.0], a, a) == 0.0


def test_pair_score_half():
    # cos(X) = 1/sqrt(2), cos(A) = 1 -> score (1/sqrt(2))^2 = 0.5
    score = pair_score([1.0, 0.0], [1.0, 1.0], [1.0, 1.0], [1.0, 1.0])
    assert np.isclose(score, 0.5, rtol=1e-12)


def test_pair_score_zero_norm_rows():
    assert pair_score([0.0, 0.0], [1.0, 1.0], [1.0], [1.0]) == 0.0
    assert pair_score([1.0, 1.0], [1.0, 1.0], [0.0], [1.0]) == 0.0


def test_pair_score_symmetric_and_scale_invariant():
    rng = np.random.default_rng(0)
    for _ in range(20):
        xi, xj = rng.standard_normal((2, 5))
        ai, aj = (rng.random((2, 8)) < 0.4).astype(float)
        s1 = pair_score(xi, xj, ai, aj)
        s2 = pair_score(xj, xi, aj, ai)
        assert np.isclose(s1, s2, rtol=1e-12)
        s3 = pair_score(3.7 * xi, 0.2 * xj, ai, aj)
        assert np.isclose(s1, s3, rtol=1e-10)
        assert 0.0 <= s1 <= 1.0


# ---------------------------------------------------------------------------
# reconstruct_hard
# ---------------------------------------------------------------------------


def test_hard_keeps_twin_pair_all_pairs():
    # nodes 0 and 1 are twins: identical features and identical adjacency
    # rows (both attached only to node 2), so their pair scores exactly 1
    g = build_graph([(0, 2), (1, 2)], 3)
    x = np.array([[1.0, 1.0], [1.0, 1.0], [0.5, -0.5]])
    cfg = ReconstructionConfig(epsilon=0.5, candidate_policy="all_pairs")
    s, stats = reconstruct_hard(g, x, cfg)
    assert 1 in s.neighbors(0)
    assert stats.candidates_scored == 3
    assert stats.edges_kept + stats.edges_removed == 3


def test_hard_keeps_edge_between_near_twins():
    # connected pair sharing all three remaining neighbors: cos_A = 3/4,
    # identical features, score (3/4)^2 = 0.5625 >= 0.5
    edges = [(0, 1)] + [(0, m) for m in (2, 3, 4)] + [(1, m) for m in (2, 3, 4)]
    g = build_graph(edges, 5)
    x = np.ones((5, 2))
    s, _ = reconstruct_hard(g, x, ReconstructionConfig(epsilon=0.5))
    assert 1 in s.neighbors(0)


def test_hard_drops_orthogonal_edge():
    g = build_graph([(0, 1)], 2)
    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    s, stats = reconstruct_hard(g, x, ReconstructionConfig(epsilon=0.05))
    assert s.n_edges == 0
    assert stats.edges_removed == 1


@pytest.mark.parametrize("policy", ["original_edges", "all_pairs"])
def test_hard_matches_brute_force(policy):
    g, x = random_instance(30, 0.2, 5, seed=42)
    cfg = ReconstructionConfig(epsilon=0.01, candidate_policy=policy)
    s, stats = reconstruct_hard(g, x, cfg)
    s.validate()
    kept = brute_force_hard(g, x, cfg.epsilon, all_pairs=(policy == "all_pairs"))
    assert np.array_equal(s.to_scipy().toarray() > 0, kept)
    if policy == "original_edges":
        assert stats.candidates_scored == g.n_edges
    else:
        assert stats.candidates_scored == 30 * 29 // 2


def test_hard_monotone_in_epsilon():
    g, x = random_instance(40, 0.15, 4, seed=7)
    eps_values = [0.001, 0.01, 0.05, 0.2, 0.8]
    prev = None
    for eps in eps_values:
        s, _ = reconstruct_hard(g, x, ReconstructionConfig(epsilon=eps))
        edges = {tuple(e) for e in s.edge_array()}
        if prev is not None:
            assert edges <= prev
        prev = edges


def test_all_pairs_cap():
    g = build_graph([(0, 1)], 30)
    x = np.zeros((30, 2))
    cfg = ReconstructionConfig(candidate_policy="all_pairs", all_pairs_cap=10)
    with pytest.raises(ValidationError, match="all_pairs"):
        reconstruct_hard(g, x, cfg)


def test_hard_requires_hard_mode():
    g, x = random_instance(10, 0.3, 3, seed=1)
    with pytest.raises(ValidationError):
        reconstruct_hard(g, x, ReconstructionConfig(mode="soft"))


# ---------------------------------------------------------------------------
# reconstruct_soft
# ---------------------------------------------------------------------------


def test_soft_weight_half_at_threshold():
    # triangle edge (0,1): cos_X = 1 (identical rows), cos_A = 1/2 from one
    # shared neighbor out of degree 2, so the score is exactly 0.25
    g = build_graph([(0, 1), (1, 2), (0, 2)], 3)
    x = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    a = g.to_scipy().toarray()
    score = pair_score(x[0], x[1], a[0], a[1])
    assert score == 0.25
    cfg = ReconstructionConfig(epsilon=score, mode="soft", steepness=10.0)
    s, _ = reconstruct_soft(g, x, cfg)
    w01 = s.values[list(s.indices[s.indptr[0] : s.indptr[1]]).index(1)]
    assert w01 == 0.5


def test_soft_saturates_at_high_steepness():
    g = build_graph([(0, 2), (1, 2), (0, 1)], 3)
    x = np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
    cfg = ReconstructionConfig(epsilon=0.05, mode="soft", steepness=1000.0)
    s, _ = reconstruct_soft(g, x, cfg)
    # twin pair (0,1) has score 1: sigmoid(1000 * 0.95) ~ 1
    w01 = s.values[list(s.indices[s.indptr[0] : s.indptr[1]]).index(1)]
    assert w01 > 1.0 - 1e-9


def test_soft_weights_in_unit_interval_and_symmetric():
    g, x = random_instance(25, 0.2, 4, seed=3)
    cfg = ReconstructionConfig(epsilon=0.01, mode="soft", steepness=15.0)
    s, _ = reconstruct_soft(g, x, cfg)
    assert np.all(s.values > 0.0) and np.all(s.values < 1.0)
    dense = s.to_scipy().toarray()
    assert np.array_equal(dense, dense.T)
    assert np.all(np.diag(dense) == 0.0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_soft_rounds_to_hard(seed):
    g, x = random_instance(30, 0.2, 5, seed=seed)
    hard_cfg = ReconstructionConfig(epsilon=0.01)
    soft_cfg = ReconstructionConfig(epsilon=0.01, mode="soft", steepness=1e6)
    s_hard, _ = reconstruct_hard(g, x, hard_cfg)
    s_soft, _ = reconstruct_soft(g, x, soft_cfg)
    rounded = (s_soft.to_scipy().toarray() >= 0.5)
    assert np.array_equal(rounded, s_hard.to_scipy().toarray() > 0)


def test_soft_stats_consistent_with_hard():
    g, x = random_instance(20, 0.3, 4, seed=9)
    _, hard_stats = reconstruct_hard(g, x, ReconstructionConfig(epsilon=0.02))
    _, soft_stats = reconstruct_soft(
        g, x, ReconstructionConfig(epsilon=0.02, mode="soft", steepness=30.0)
    )
    assert hard_stats.candidates_scored == soft_stats.candidates_scored
    assert hard_stats.edges_kept == soft_stats.edges_kept
    assert np.isclose(hard_stats.mean_score, soft_stats.mean_score)


# ---------------------------------------------------------------------------
# common-neighbour counts
# ---------------------------------------------------------------------------


def square_oracle(g, u, v):
    """Common-neighbour counts read off the whole sparse square A·A."""
    a = g.to_scipy()
    return np.asarray((a @ a).tocsr()[u, v]).ravel()


def star(leaves):
    return build_graph([(0, i) for i in range(1, leaves + 1)], leaves + 1)


def hub_instance(seed):
    # a sparse random graph plus three hubs, two of them adjacent
    g, _ = random_instance(120, 0.03, 1, seed)
    rng = np.random.default_rng(seed)
    edges = [tuple(e) for e in g.edge_array()] + [(0, 1)]
    for hub in (0, 1, 2):
        edges += [(hub, int(w)) for w in rng.choice(np.arange(3, 120), 80, replace=False)]
    return build_graph(edges, 120)


def test_common_neighbors_match_square_on_edges():
    graphs = [random_instance(60, p, 1, seed)[0] for p, seed in ((0.05, 0), (0.3, 1))]
    graphs += [hub_instance(2), hub_instance(3), star(2000)]
    # isolated nodes: a few edges among the first nodes of a large range
    graphs.append(build_graph([(0, 1), (1, 2), (0, 2), (2, 3), (5, 7)], 50))
    for g in graphs:
        e = g.edge_array()
        got = _common_neighbors(g, e[:, 0], e[:, 1])
        assert got.dtype == np.int64
        assert np.array_equal(got, square_oracle(g, e[:, 0], e[:, 1]))


def test_common_neighbors_match_square_on_any_pairs():
    # non-edges, self-pairs and isolated endpoints, in both orders
    g = hub_instance(4)
    u, v = np.nonzero(np.ones((120, 120), dtype=bool))
    assert np.array_equal(_common_neighbors(g, u, v), square_oracle(g, u, v))
    empty = build_graph([], 6)
    u, v = np.nonzero(np.ones((6, 6), dtype=bool))
    assert np.array_equal(_common_neighbors(empty, u, v), np.zeros(36, dtype=np.int64))
    none = np.zeros(0, dtype=np.int64)
    assert _common_neighbors(g, none, none).size == 0


@pytest.mark.parametrize("chunk", [1, 3, 50])
def test_common_neighbors_chunking(monkeypatch, chunk):
    # chunks far smaller than one hub's row, so an edge straddles many
    monkeypatch.setattr(reconstruct, "_LOOKUP_CHUNK", chunk)
    g = hub_instance(5)
    e = g.edge_array()
    assert np.array_equal(
        _common_neighbors(g, e[:, 0], e[:, 1]), square_oracle(g, e[:, 0], e[:, 1])
    )


def test_edge_scoring_memory_on_large_star():
    # A·A of a 20,000-leaf star holds 4e8 entries; the lookup needs O(m)
    leaves = 20_000
    g = star(leaves)
    x = np.random.default_rng(0).standard_normal((leaves + 1, 2))
    edges = g.edge_array()
    tracemalloc.start()
    try:
        scores = _score_edge_candidates(g, x, edges)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the hub and every leaf share no neighbour, so every score is 0
    assert np.array_equal(scores, np.zeros(leaves))
    assert peak < 8 * (32 * edges.shape[0] + 12 * reconstruct._LOOKUP_CHUNK)
