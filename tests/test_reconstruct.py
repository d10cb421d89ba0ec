import functools
from dataclasses import replace

import numpy as np
import pytest

from amlp import graph, reconstruct
from amlp.errors import ValidationError
from amlp.graph import SparseGraph, build_graph, common_neighbors, graph_from_edges
from amlp.reconstruct import (
    ReconstructionConfig,
    ReconstructionStats,
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


@pytest.mark.parametrize("policy", ["original_edges", "all_pairs"])
@pytest.mark.parametrize("mode", ["hard", "soft"])
def test_reconstruction_of_weighted_graph_reads_its_structure(soft_preset, policy, mode):
    """Reconstructing a weighted S scores its neighbor structure alone, as
    it scores that of the binary graph with S's edges."""
    s, x, _ = soft_preset
    cfg = ReconstructionConfig(candidate_policy=policy, mode=mode)
    fn = reconstruct_soft if mode == "soft" else reconstruct_hard
    got, got_stats = fn(s, x, cfg)
    want, want_stats = fn(replace(s, values=None), x, cfg)
    assert got_stats == want_stats
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    if mode == "soft":
        assert got.values.tobytes() == want.values.tobytes()
    else:
        assert got.values is None and want.values is None


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
        got = common_neighbors(g, e[:, 0], e[:, 1])
        assert got.dtype == np.int64
        assert np.array_equal(got, square_oracle(g, e[:, 0], e[:, 1]))


def test_common_neighbors_match_square_on_any_pairs():
    # non-edges, self-pairs and isolated endpoints, in both orders
    g = hub_instance(4)
    u, v = np.nonzero(np.ones((120, 120), dtype=bool))
    assert np.array_equal(common_neighbors(g, u, v), square_oracle(g, u, v))
    empty = build_graph([], 6)
    u, v = np.nonzero(np.ones((6, 6), dtype=bool))
    assert np.array_equal(common_neighbors(empty, u, v), np.zeros(36, dtype=np.int64))
    none = np.zeros(0, dtype=np.int64)
    assert common_neighbors(g, none, none).size == 0


@pytest.mark.parametrize("chunk", [1, 3, 50])
def test_common_neighbors_chunking(monkeypatch, chunk):
    # chunks far smaller than one hub's row, so an edge straddles many
    monkeypatch.setattr(graph, "_LOOKUP_CHUNK", chunk)
    g = hub_instance(5)
    e = g.edge_array()
    assert np.array_equal(
        common_neighbors(g, e[:, 0], e[:, 1]), square_oracle(g, e[:, 0], e[:, 1])
    )


def test_chunks_split_long_ranges(monkeypatch):
    """With chunks of 4 positions, the 9-entry rows of two adjacent hubs,
    which share 8 leaves, are split over several chunks, and every chunk but
    the last holds exactly 4 positions, in common_neighbors and in
    two_hop_counts alike. The counts are A·A's."""
    chunks = []
    chunked = graph._chunked_ranges

    def spy(start, size):
        for lo, hi, first, sz in chunked(start, size):
            chunks.append(int(sz.sum()))
            yield lo, hi, first, sz

    monkeypatch.setattr(graph, "_LOOKUP_CHUNK", 4)
    monkeypatch.setattr(graph, "_chunked_ranges", spy)
    g = build_graph([(0, 1)] + [(hub, w) for hub in (0, 1) for w in range(2, 10)], 10)
    # Σ min(d_u, d_v) = 9 + 2 + 9 lookups: hub 0's row, a leaf's, hub 1's
    u, v = np.array([0, 2, 1]), np.array([1, 3, 0])
    assert np.array_equal(common_neighbors(g, u, v), [8, 2, 8])
    assert chunks == [4, 4, 4, 4, 4]
    chunks.clear()
    # two-hop walks from rows 0 and 1 to columns right of node 0: through
    # the other hub 8 and 9, through the leaves 8 each
    n = g.n_nodes
    out = np.full((2, n - 1), np.nan)
    graph.two_hop_counts(g, 0, 2, out)
    a = g.to_dense()
    assert (out == (a @ a)[0:2, 1:]).all()
    assert chunks == [4] * 8 + [1]


@pytest.mark.parametrize("rows", [1, 3, 50])
def test_edge_scoring_gather_chunking(monkeypatch, rows):
    # buffers of a few rows give the same dots as one gather of every edge
    g = hub_instance(5)
    x = np.random.default_rng(5).standard_normal((g.n_nodes, 7))
    u, v = g.edges()[:2]
    want = _score_edge_candidates(g, x, u, v)
    monkeypatch.setattr(reconstruct, "_GATHER_BYTES", 8 * 7 * rows)
    assert np.array_equal(_score_edge_candidates(g, x, u, v), want)


def test_edge_scoring_memory_on_large_star(traced_peak):
    # A·A of a 20,000-leaf star holds 4e8 entries; the lookup needs O(m)
    leaves = 20_000
    g = star(leaves)
    x = np.random.default_rng(0).standard_normal((leaves + 1, 2))
    u, v = g.edges()[:2]
    scores, peak = traced_peak(lambda: _score_edge_candidates(g, x, u, v))
    # the hub and every leaf share no neighbour, so every score is 0
    assert np.array_equal(scores, np.zeros(leaves))
    assert peak < 8 * (32 * u.size + 12 * graph._LOOKUP_CHUNK)


# ---------------------------------------------------------------------------
# two-hop counts of the all-pairs loop
# ---------------------------------------------------------------------------


TWO_HOP_GRAPHS = {
    "random-sparse": random_instance(70, 0.05, 1, 0)[0],
    "random-dense": random_instance(40, 0.4, 1, 1)[0],
    "hubs": hub_instance(6),
    "star": star(2000),
    "isolated-nodes": build_graph([(0, 1), (1, 2), (0, 2), (2, 3), (5, 7)], 50),
    "no-edges": build_graph([], 6),
    "n1": build_graph([], 1),
    "n2": build_graph([(0, 1)], 2),
}


@functools.cache
def dense_square(name):
    a = TWO_HOP_GRAPHS[name].to_dense()
    return a @ a


@pytest.mark.parametrize("chunk", [1, 3, 50])
@pytest.mark.parametrize("sub_block", [1, 3, 64])
@pytest.mark.parametrize("name", TWO_HOP_GRAPHS)
def test_two_hop_counts_match_dense_square(monkeypatch, name, sub_block, chunk):
    monkeypatch.setattr(graph, "_LOOKUP_CHUNK", chunk)
    g, square = TWO_HOP_GRAPHS[name], dense_square(name)
    n = g.n_nodes
    s0s = range(0, n, sub_block)
    if name == "star" and chunk < 50:
        # chunks of 1 or 3 positions split each leaf's reach through the hub,
        # up to 2,000 columns, that many ways: the hub's sub-block and the
        # next, a sample across the rows and the last 300 rows keep the case
        # short
        s0s = sorted({0, 1, *range(0, n, 97 * sub_block), *range(n - 300, n, sub_block)})
    elif name == "star" and sub_block == 1:
        # of the star's 2,000 one-row sub-blocks every 7th, to keep it short
        s0s = range(0, n, 7)
    for s0 in s0s:
        s1 = min(s0 + sub_block, n)
        # garbage in the buffer, which the count must overwrite
        out = np.full((s1 - s0, n - s0 - 1), np.nan)
        graph.two_hop_counts(g, s0, s1, out)
        assert (out == square[s0:s1, s0 + 1 :]).all(), (s0, s1)


def test_two_hop_counts_memory_is_a_chunk(traced_peak):
    # the sub-block of a 20,000-leaf star's hub, and the next one, whose
    # every row reaches all leaves through the hub: their sparse product
    # alone would hold 64 x 20,000 entries
    g = star(20_000)
    n = g.n_nodes
    for s0 in (0, 1):
        s1 = s0 + reconstruct._SUB_BLOCK
        out = np.empty((s1 - s0, n - s0 - 1))
        _, peak = traced_peak(lambda: graph.two_hop_counts(g, s0, s1, out))
        nnz_rows = int(g.indptr[s1] - g.indptr[s0])
        # the rows' neighbour lists, and the three arrays of one chunk, which
        # holds at most _LOOKUP_CHUNK positions
        assert peak < 8 * (5 * nnz_rows + 3 * graph._LOOKUP_CHUNK) + (1 << 16)
        assert peak < out.nbytes / 2
        # two leaves share the hub, and the hub shares nothing with a leaf
        hub = int(s0 == 0)
        assert (out[hub:] == 1).all() and (out[:hub] == 0).all()


def test_common_neighbors_memory_is_a_chunk(traced_peak):
    # the hub with itself, 64 times: 64 lookups of the hub's 20,000-entry
    # row, as many as the two-hop count of a sub-block below the hub
    g = star(20_000)
    n = g.n_nodes
    hub = np.zeros(reconstruct._SUB_BLOCK, dtype=np.int64)
    counts, peak = traced_peak(lambda: common_neighbors(g, hub, hub))
    assert (counts == n - 1).all()
    # the degrees and keys, a few arrays per pair, and the three arrays of
    # one chunk, which holds at most _LOOKUP_CHUNK lookups
    pairs = hub.size
    assert peak < 8 * (n + g.indices.size + 8 * pairs + 3 * graph._LOOKUP_CHUNK) + (1 << 16)


# ---------------------------------------------------------------------------
# all-pairs block loop
# ---------------------------------------------------------------------------


def reference_all_pairs(g, x):
    """The all-pairs loop as it was before its per-call workspace: full
    (_BLOCK x N) blocks, each yielding (u, v, score) for the pairs u < v."""
    n = g.n_nodes
    sq = np.einsum("ij,ij->i", x, x)
    deg = g.degrees().astype(np.float64)
    a = g.to_scipy()
    for start in range(0, n, reconstruct._BLOCK):
        stop = min(start + reconstruct._BLOCK, n)
        dx = x[start:stop] @ x.T
        common = (a[start:stop] @ a.T).toarray()
        denom_x = np.sqrt(np.outer(sq[start:stop], sq))
        denom_a = np.sqrt(np.outer(deg[start:stop], deg))
        with np.errstate(divide="ignore", invalid="ignore"):
            cx = np.where(denom_x > 0, dx / denom_x, 0.0)
            ca = np.where(denom_a > 0, common / denom_a, 0.0)
        blk = np.clip((cx * ca) ** 2, 0.0, 1.0)
        rows, cols = np.nonzero(np.arange(n)[None, :] > np.arange(start, stop)[:, None])
        yield rows + start, cols, blk[rows, cols]


def reference_stats(cfg, score_blocks):
    """The statistics of the candidate loop over ``score_blocks``, with the
    score sum taken one block at a time as the loop takes it."""
    total = kept = 0
    score_sum = 0.0
    for scores in score_blocks:
        total += scores.size
        kept += int((scores >= cfg.epsilon).sum())
        score_sum += float(scores.sum())
    return ReconstructionStats(
        candidates_scored=total,
        edges_kept=kept,
        edges_removed=total - kept,
        mean_score=score_sum / total if total else 0.0,
    )


def reference_hard(g, cfg, blocks):
    us, vs, score_blocks = [], [], []
    for u, v, scores in blocks:
        keep = scores >= cfg.epsilon
        score_blocks.append(scores)
        us.append(u[keep])
        vs.append(v[keep])
    u = np.concatenate(us) if us else np.zeros(0, dtype=np.int64)
    v = np.concatenate(vs) if vs else np.zeros(0, dtype=np.int64)
    return graph_from_edges(g.n_nodes, u, v), reference_stats(cfg, score_blocks)


def reference_soft(g, cfg, blocks):
    us, vs, ws, score_blocks = [], [], [], []
    for u, v, scores in blocks:
        score_blocks.append(scores)
        us.append(u)
        vs.append(v)
        ws.append(reconstruct._sigmoid(cfg.steepness * (scores - cfg.epsilon)))
    u = np.concatenate(us) if us else np.zeros(0, dtype=np.int64)
    v = np.concatenate(vs) if vs else np.zeros(0, dtype=np.int64)
    w = np.concatenate(ws) if ws else np.zeros(0, dtype=np.float64)
    return graph_from_edges(g.n_nodes, u, v, w), reference_stats(cfg, score_blocks)


def all_pairs_instance(n, seed):
    """Two feature classes over a sparse graph, with a hub, isolated nodes
    and zero feature rows."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, n)
    x = rng.standard_normal((n, 6)) + 2.0 * labels[:, None]
    p = np.where(labels[:, None] == labels[None, :], 6.0, 1.0) / max(n, 1)
    dense = np.triu(rng.random((n, n)) < p, k=1)
    if n > 8:
        dense[0, 1 : n // 2] = True  # a hub
        dense[:, -2:] = dense[-2:, :] = False  # isolated nodes
        x[[1, -1]] = 0.0  # zero-norm rows, one of them isolated
    u, v = np.nonzero(dense)
    return build_graph(np.column_stack([u, v]), n), x


def assert_same_array(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# 512 = 73·7 + 1: with 7-row sub-blocks each block ends in a one-row one
@pytest.mark.parametrize("sub_block", [1, 7, reconstruct._SUB_BLOCK])
@pytest.mark.parametrize("n", [2, 3, 130, 511, 512, 513, 514, 1030])
def test_all_pairs_blocks_match_reference(monkeypatch, sub_block, n):
    monkeypatch.setattr(reconstruct, "_SUB_BLOCK", sub_block)
    g, x = all_pairs_instance(n, seed=n)
    cfg = ReconstructionConfig(candidate_policy="all_pairs", epsilon=0.01)
    # the reference ends N = 513 with an empty block, which adds nothing
    want = [b for b in reference_all_pairs(g, x) if b[2].size]
    got = []
    for pairs, scores in reconstruct._iter_candidate_scores(g, x, cfg):
        keep = scores >= cfg.epsilon
        u, v = pairs(None)
        kept_u, kept_v = pairs(keep)
        assert_same_array(kept_u, u[keep])
        assert_same_array(kept_v, v[keep])
        got.append((u, v, scores.copy()))
    assert len(got) == len(want)
    for blocks in zip(got, want):
        for got_arr, want_arr in zip(*blocks):
            assert_same_array(got_arr, want_arr)


@pytest.mark.parametrize("n", [2, 3, 130, 513, 1030])
def test_all_pairs_reconstructions_match_reference(n):
    g, x = all_pairs_instance(n, seed=100 + n)
    hard = ReconstructionConfig(candidate_policy="all_pairs", epsilon=0.01)
    soft = ReconstructionConfig(candidate_policy="all_pairs", epsilon=0.01, mode="soft")
    for run, reference, cfg, fields in (
        (reconstruct_hard, reference_hard, hard, ("indptr", "indices")),
        (reconstruct_soft, reference_soft, soft, ("indptr", "indices", "values")),
    ):
        s, stats = run(g, x, cfg)
        s_ref, stats_ref = reference(g, cfg, reference_all_pairs(g, x))
        assert stats.as_dict() == stats_ref.as_dict()
        for field in fields:
            assert_same_array(getattr(s, field), getattr(s_ref, field))


@pytest.mark.parametrize("n", [12, 60, 300])
def test_policies_agree_bitwise_on_complete_graphs(n):
    """On a complete graph the original edges are all the pairs, in the same
    order, so both policies give the same refinement bit for bit. Integer
    features make every dot product exact, whether it comes from the edge
    gathers or the block product, and with N <= _BLOCK ``mean_score`` sums
    one sequence of scores under both policies."""
    rng = np.random.default_rng(n)
    g = build_graph(np.column_stack(np.triu_indices(n, k=1)), n)
    x = rng.integers(-3, 4, (n, 5)).astype(np.float64)
    x[n // 3] = 0.0
    for mode, run in (("hard", reconstruct_hard), ("soft", reconstruct_soft)):
        s_edges, stats_edges = run(g, x, ReconstructionConfig(epsilon=0.05, mode=mode))
        s_all, stats_all = run(
            g, x, ReconstructionConfig(epsilon=0.05, mode=mode, candidate_policy="all_pairs")
        )
        assert stats_edges.candidates_scored == n * (n - 1) // 2
        assert stats_edges.as_dict() == stats_all.as_dict()
        assert 0 < stats_edges.edges_kept < stats_edges.candidates_scored
        for field in ("indptr", "indices"):
            assert_same_array(getattr(s_edges, field), getattr(s_all, field))
        if mode == "soft":
            assert_same_array(s_edges.values, s_all.values)
        else:
            assert s_edges.values is None and s_all.values is None


def test_all_pairs_memory_is_the_workspace(traced_peak):
    # the reference loop holds about ten (_BLOCK x N) temporaries per block
    n = 2000
    g, x = all_pairs_instance(n, seed=7)
    # an epsilon that keeps about 2% of the pairs, so the workspace dominates
    cfg = ReconstructionConfig(candidate_policy="all_pairs", epsilon=0.1)
    (_, stats), peak = traced_peak(lambda: reconstruct_hard(g, x, cfg))
    block, sub = reconstruct._BLOCK, reconstruct._SUB_BLOCK
    # the (_BLOCK x N) feature product and scores, four (_SUB_BLOCK x N)
    # buffers, the kept mask of a block, and the refined graph's assembly
    workspace = 8 * (2 * block * n + 4 * sub * n) + block * n
    assert peak < workspace + 200 * stats.edges_kept + (1 << 20)


@pytest.mark.parametrize("epsilon", [0.1, 0.001])
def test_all_pairs_memory_is_one_block_buffer(traced_peak, epsilon):
    # epsilon 0.1 keeps about 1% of the pairs, 0.001 about 21%
    n = 2000
    g, x = all_pairs_instance(n, seed=7)
    cfg = ReconstructionConfig(candidate_policy="all_pairs", epsilon=epsilon)
    (_, stats), peak = traced_peak(lambda: reconstruct_hard(g, x, cfg))
    block, sub = reconstruct._BLOCK, reconstruct._SUB_BLOCK
    # one (_BLOCK x N) buffer holds the feature product and the packed
    # scores; then four (_SUB_BLOCK x N) buffers and the kept mask of a
    # block. The assembly starts after the block buffer is freed, so the
    # peak is the larger of the two, not their sum.
    workspace = 8 * (block * n + 4 * sub * n) + block * n
    assert peak < max(workspace, 80 * stats.edges_kept) + (1 << 20)


# ---------------------------------------------------------------------------
# assembly of the refined graph
# ---------------------------------------------------------------------------


def sorted_upper_pairs(n, p, seed):
    """Unique pairs u < v sorted by (u, v), each present with probability p."""
    rng = np.random.default_rng(seed)
    u, v = np.nonzero(np.triu(rng.random((n, n)) < p, k=1))
    return n, u.astype(np.int64), v.astype(np.int64)


def listed_pairs(n, edges):
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    return n, e[:, 0], e[:, 1]


ASSEMBLY_CASES = {
    "no-pairs": listed_pairs(5, []),
    "n1": listed_pairs(1, []),
    "n2-empty": listed_pairs(2, []),
    "n2": listed_pairs(2, [(0, 1)]),
    "star": listed_pairs(9, [(0, i) for i in range(1, 9)]),
    "star-on-last-node": listed_pairs(9, [(i, 8) for i in range(8)]),
    "isolated-nodes": listed_pairs(10, [(1, 4), (1, 7), (4, 7), (7, 8)]),
    "random-sparse": sorted_upper_pairs(40, 0.1, 0),
    "random-half": sorted_upper_pairs(41, 0.5, 1),
    "random-dense": sorted_upper_pairs(60, 0.9, 2),
}


def csr_from_sorted_directed_pairs(n, rows, cols, values=None):
    """The SparseGraph whose entries are the directed pairs (rows[i],
    cols[i]), given sorted by (row, col) with both orientations of each edge."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return SparseGraph(n, indptr, cols.astype(np.int64), values)


def sorted_pairs_graph(n, u, v, w=None):
    """Reference assembly of unique pairs u < v sorted by (u, v), as the
    candidate loop yields them: a row's (v, u) entries hold its columns below
    the diagonal in increasing order and its (u, v) entries those above it,
    so a stable sort by row of [(v, u); (u, v)] sorts by (row, col)."""
    rows = np.concatenate([v, u])
    order = np.argsort(rows, kind="stable")
    values = None if w is None else np.concatenate([w, w])[order]
    return csr_from_sorted_directed_pairs(n, rows[order], np.concatenate([u, v])[order], values)


def directed_unique_graph(n, u, v):
    """Reference assembly of any unweighted pairs: both orientations,
    self-loops dropped, deduplicated and sorted by np.unique of the directed
    (row, col) ids."""
    keep = u != v
    rows = np.concatenate([u[keep], v[keep]])
    cols = np.concatenate([v[keep], u[keep]])
    _, first = np.unique(rows * np.int64(n) + cols, return_index=True)
    return csr_from_sorted_directed_pairs(n, rows[first], cols[first])


def assert_same_graph(got, want):
    assert got.n_nodes == want.n_nodes
    for field in ("indptr", "indices"):
        assert_same_array(getattr(got, field), getattr(want, field))
    assert (got.values is None) == (want.values is None)
    if want.values is not None:
        assert_same_array(got.values, want.values)


@pytest.mark.parametrize("case", ASSEMBLY_CASES)
def test_sorted_pairs_assembly_matches_general_assembly(case):
    """On unique sorted pairs, graph_from_edges gives the bytes of both
    reference assemblies, with weights and without."""
    n, u, v = ASSEMBLY_CASES[case]
    got = graph_from_edges(n, u, v)
    assert_same_graph(got, sorted_pairs_graph(n, u, v))
    assert_same_graph(got, directed_unique_graph(n, u, v))

    w = np.random.default_rng(u.size).random(u.size)
    assert_same_graph(graph_from_edges(n, u, v, w), sorted_pairs_graph(n, u, v, w))


def scrambled(n, u, v, w, seed):
    """The pairs (u, v) with weights w, shuffled, a random half reversed,
    some listed again (either way round, with other weights) and self-loops
    added, together with the unique sorted pairs u < v that remain and the
    weight each keeps: that of its first listing."""
    rng = np.random.default_rng(seed)
    again = rng.integers(0, max(u.size, 1), u.size // 2 + 1) if u.size else np.zeros(0, int)
    loops = rng.integers(0, n, 3) if n else np.zeros(0, int)
    su = np.concatenate([u, u[again], loops])
    sv = np.concatenate([v, v[again], loops])
    sw = rng.random(su.size)
    sw[: u.size] = w
    perm = rng.permutation(su.size)
    su, sv, sw = su[perm], sv[perm], sw[perm]
    flip = rng.random(su.size) < 0.5
    su, sv = np.where(flip, sv, su), np.where(flip, su, sv)
    first = {}
    for a, b, x in zip(su.tolist(), sv.tolist(), sw.tolist()):
        if a != b:
            first.setdefault((min(a, b), max(a, b)), x)
    kept = sorted(first)
    ku = np.array([a for a, _ in kept], dtype=np.int64)
    kv = np.array([b for _, b in kept], dtype=np.int64)
    return (su, sv, sw), (ku, kv, np.array([first[k] for k in kept], dtype=np.float64))


@pytest.mark.parametrize("case", ASSEMBLY_CASES)
def test_graph_from_edges_keeps_the_first_listing_of_each_pair(case):
    """Shuffled, reversed and repeated pairs and self-loops build the graph
    of the unique pairs, each weighted as first listed."""
    n, u, v = ASSEMBLY_CASES[case]
    w = np.random.default_rng(1).random(u.size)
    (su, sv, sw), (ku, kv, kw) = scrambled(n, u, v, w, seed=u.size)
    got = graph_from_edges(n, su, sv)
    assert_same_graph(got, sorted_pairs_graph(n, ku, kv))
    assert_same_graph(got, directed_unique_graph(n, su, sv))
    assert_same_graph(graph_from_edges(n, su, sv, sw), sorted_pairs_graph(n, ku, kv, kw))


@pytest.mark.parametrize(
    "policy, mode", [("all_pairs", "hard"), ("original_edges", "soft"), ("all_pairs", "soft")]
)
def test_reconstruction_assembles_its_pairs_like_the_reference(policy, mode):
    """The refined graph is the reference assembly of the candidate loop's
    pairs, on the homophilic preset."""
    from amlp.synth import generate_dataset, homophilic_preset

    g, x, _ = generate_dataset(homophilic_preset(seed=0))
    cfg = ReconstructionConfig(candidate_policy=policy, mode=mode)
    u, v, w, _ = reconstruct._scored_pairs(g, x, cfg)
    want = sorted_pairs_graph(g.n_nodes, u, v, w)
    assert_same_graph(graph_from_edges(g.n_nodes, u, v, w), want)
    assert_same_graph(reconstruct.reconstruct(g, x, cfg)[0], want)
    assert_same_graph(graph_from_edges(g.n_nodes, u, v), directed_unique_graph(g.n_nodes, u, v))
