from dataclasses import replace

import numpy as np
import pytest

from amlp.errors import ValidationError
from amlp.graph import (
    AGGREGATORS,
    MaxAggregator,
    SparseGraph,
    aggregate,
    aggregator,
    build_graph,
    dirichlet_energy,
    homophily_ratio,
    normalize_no_self_loops,
    normalize_with_self_loops,
    propagate,
    row_normalize,
    spmm,
)
from amlp.synth import generate_dataset, heterophilic_preset, homophilic_preset


def random_graph(n, p, seed):
    rng = np.random.default_rng(seed)
    dense = rng.random((n, n)) < p
    dense = np.triu(dense, k=1)
    u, v = np.nonzero(dense)
    return build_graph(np.column_stack([u, v]), n)


def dense_adj(g):
    return g.to_scipy().toarray()


# ---------------------------------------------------------------------------
# build_graph
# ---------------------------------------------------------------------------


def test_build_graph_single_edge():
    g = build_graph([(0, 1)], 2)
    assert g.n_nodes == 2
    assert list(g.neighbors(0)) == [1]
    assert list(g.neighbors(1)) == [0]


def test_build_graph_dedup_and_self_loop():
    g = build_graph([(0, 1), (1, 0), (2, 2)], 3)
    assert list(g.neighbors(0)) == [1]
    assert list(g.neighbors(1)) == [0]
    assert list(g.neighbors(2)) == []
    g.validate()


def test_build_graph_matches_dense_oracle():
    rng = np.random.default_rng(7)
    n = 50
    edges = rng.integers(0, n, size=(200, 2))
    g = build_graph(edges, n)
    g.validate()
    # dense oracle: symmetrize then zero the diagonal
    dense = np.zeros((n, n), dtype=bool)
    for u, v in edges:
        dense[u, v] = True
        dense[v, u] = True
    np.fill_diagonal(dense, False)
    assert np.array_equal(dense_adj(g) > 0, dense)


def test_build_graph_rejects_out_of_range_with_position():
    with pytest.raises(ValidationError, match="edge 2"):
        build_graph([(0, 1), (0, 5)], 3)


def test_build_graph_takes_arrays_lists_and_generators_alike():
    edges = np.array([[0, 1], [3, 2], [1, 0], [2, 2], [4, 1]])
    want = build_graph([tuple(e) for e in edges.tolist()], 5)
    for given in (edges, edges.astype(np.int32), (tuple(e) for e in edges)):
        g = build_graph(given, 5)
        assert np.array_equal(g.indptr, want.indptr)
        assert np.array_equal(g.indices, want.indices)
    for empty in (np.zeros((0, 2), dtype=np.int64), [], iter([])):
        assert build_graph(empty, 3).indices.size == 0
    bad = np.array([[0, 1], [0, 5]])
    for given in (bad, bad.tolist(), (tuple(e) for e in bad)):
        with pytest.raises(ValidationError) as err:
            build_graph(given, 3)
        assert str(err.value) == "edge 2: index pair (0, 5) out of range for 3 nodes"
    for given in (np.arange(3), [1, 2, 3], np.zeros((2, 3), dtype=np.int64)):
        with pytest.raises(ValidationError, match="edge list must be pairs"):
            build_graph(given, 3)


@pytest.mark.parametrize(
    "indptr, indices, row",
    [
        # node 0 isolated, row 1 sorted, rows 2 (descending) and 3
        # (duplicate) not; row boundaries may step down
        ([0, 0, 2, 4, 7], [2, 3, 3, 1, 2, 2, 1], 2),
        ([0, 2, 3, 4], [1, 1, 0, 0], 0),
        # the only bad step is the last one, after an empty first row
        ([0, 0, 1, 3], [2, 1, 0], 2),
    ],
)
def test_validate_reports_first_row_not_strictly_increasing(indptr, indices, row):
    g = SparseGraph(
        n_nodes=len(indptr) - 1, indptr=np.array(indptr), indices=np.array(indices)
    )
    with pytest.raises(ValidationError, match=f"row {row} not strictly increasing"):
        g.validate()


def _edge01(values=None, self_loops=False):
    """The single edge (0, 1), optionally with weights or the self_loops flag."""
    g = build_graph([(0, 1)], 2)
    return SparseGraph(2, g.indptr, g.indices, values, self_loops)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: _edge01(self_loops=True), "diagonal entry is missing"),
        (
            lambda: SparseGraph(
                2,
                np.array([0, 2, 4]),
                np.array([0, 1, 0, 1]),
                np.full(4, 0.5),
                self_loops=False,
            ),
            "self-loop present",
        ),
        (lambda: _edge01(np.array([0.5, np.nan])), "non-finite weight"),
        (lambda: _edge01(np.array([0.5, 0.25])), "normalized adjacency not symmetric"),
        (
            lambda: SparseGraph(2, np.array([0, 1, 1]), np.array([1])),
            "adjacency structure not symmetric",
        ),
    ],
)
def test_validate_refuses(make, message):
    with pytest.raises(ValidationError, match=message):
        make().validate()


@pytest.mark.parametrize("seed", range(3))
def test_normalizations_and_soft_graphs_validate(seed):
    from amlp.reconstruct import ReconstructionConfig, reconstruct_soft

    g = random_graph(30, 0.1, seed + 500)
    x = np.random.default_rng(seed + 500).standard_normal((30, 4))
    wg, _ = reconstruct_soft(g, x, ReconstructionConfig(mode="soft", steepness=20.0))
    for adj in (
        normalize_with_self_loops(g),
        normalize_no_self_loops(g),
        wg,
        normalize_no_self_loops(wg),
    ):
        adj.validate()


# ---------------------------------------------------------------------------
# normalizations
# ---------------------------------------------------------------------------


def test_normalize_with_self_loops_single_edge():
    at = normalize_with_self_loops(build_graph([(0, 1)], 2))
    assert np.allclose(at.to_dense(), [[0.5, 0.5], [0.5, 0.5]])
    assert at.self_loops
    assert at.n_edges == 1
    at.validate()


def test_normalize_with_self_loops_empty_graph_is_identity():
    at = normalize_with_self_loops(build_graph([], 3))
    assert np.array_equal(at.to_dense(), np.eye(3))


def test_normalize_with_self_loops_triangle():
    at = normalize_with_self_loops(build_graph([(0, 1), (1, 2), (0, 2)], 3))
    assert np.allclose(at.to_dense(), np.full((3, 3), 1.0 / 3.0))


def reference_with_self_loops(g):
    """A~ as scipy builds it: the entries of A+I as COO triplets, converted
    to CSR and sorted (the construction normalize_with_self_loops replaced)."""
    import scipy.sparse as sp

    deg = g.degrees().astype(np.float64)
    rows = np.concatenate(
        [np.repeat(np.arange(g.n_nodes), g.degrees()), np.arange(g.n_nodes)]
    )
    cols = np.concatenate([g.indices, np.arange(g.n_nodes)])
    vals = 1.0 / np.sqrt((deg[rows] + 1.0) * (deg[cols] + 1.0))
    coo = sp.coo_matrix((vals, (rows, cols)), shape=(g.n_nodes, g.n_nodes))
    csr = coo.tocsr()
    csr.sort_indices()
    return csr.indptr.astype(np.int64), csr.indices.astype(np.int64), csr.data


def assert_same_as_reference(g):
    at = normalize_with_self_loops(g)
    indptr, indices, values = reference_with_self_loops(g)
    for got, want in ((at.indptr, indptr), (at.indices, indices), (at.values, values)):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
    assert at.self_loops
    at.validate()


@pytest.mark.parametrize("seed", range(20))
def test_normalize_with_self_loops_matches_coo_reference(seed):
    # repeated pairs, self-pairs, and nodes above every drawn index, which
    # stay isolated
    rng = np.random.default_rng(seed + 900)
    n = int(rng.integers(1, 120))
    touched = int(rng.integers(1, n + 1))
    edges = rng.integers(0, touched, size=(int(rng.integers(0, 3 * n)), 2))
    g = build_graph(np.concatenate([edges, edges[: edges.shape[0] // 3]]), n)
    assert_same_as_reference(g)


@pytest.mark.parametrize(
    "g",
    [
        build_graph([], 1),
        build_graph([], 5),
        build_graph([(0, leaf) for leaf in range(1, 2001)], 2001),
        build_graph([(leaf, 1000) for leaf in range(2001) if leaf != 1000], 2001),
    ],
    ids=["one-node", "no-edges", "star-hub-first", "star-hub-middle"],
)
def test_normalize_with_self_loops_matches_coo_reference_on_edge_cases(g):
    assert_same_as_reference(g)


def test_normalize_with_self_loops_refuses_weighted_or_self_looped_input():
    g = build_graph([(0, 1), (1, 2)], 3)
    at = normalize_with_self_loops(g)
    weighted = SparseGraph(3, g.indptr, g.indices, np.full(g.indices.size, 0.5))
    for bad in (weighted, at, replace(at, values=None)):
        with pytest.raises(ValidationError, match="binary graph without self-loops"):
            normalize_with_self_loops(bad)


def test_normalize_with_self_loops_memory(traced_peak):
    # N = 20,000 at mean degree 38; scipy's COO -> CSR build peaked at 39 MiB
    n = 20_000
    rng = np.random.default_rng(3)
    g = build_graph(rng.integers(0, n, size=(19 * n, 2)), n)
    at, peak = traced_peak(lambda: normalize_with_self_loops(g))
    entries = at.indices.size
    assert entries == g.indices.size + n
    # A~'s indices and values, one more array of its size (the other
    # factor of the product), and eight arrays of one element per node
    assert peak < 8 * (3 * entries + 8 * n)
    assert peak < 26 << 20


def test_normalize_no_self_loops_shares_the_structure():
    g = random_graph(30, 0.2, 11)
    st = normalize_no_self_loops(g)
    assert st.indptr is g.indptr and st.indices is g.indices


def test_normalize_no_self_loops_single_edge():
    st = normalize_no_self_loops(build_graph([(0, 1)], 2))
    assert np.array_equal(st.to_dense(), [[0.0, 1.0], [1.0, 0.0]])
    assert not st.self_loops
    st.validate()


def test_normalize_no_self_loops_triangle():
    st = normalize_no_self_loops(build_graph([(0, 1), (1, 2), (0, 2)], 3))
    expected = np.full((3, 3), 0.5)
    np.fill_diagonal(expected, 0.0)
    assert np.allclose(st.to_dense(), expected)


def test_normalize_no_self_loops_isolated_node_zero_row():
    st = normalize_no_self_loops(build_graph([(0, 1)], 3))
    dense = st.to_dense()
    assert np.all(dense[2] == 0.0)
    assert np.all(dense[:, 2] == 0.0)


@pytest.mark.parametrize("seed", range(5))
def test_normalized_values_exactly_symmetric(seed):
    g = random_graph(40, 0.1, seed)
    for adj in (normalize_with_self_loops(g), normalize_no_self_loops(g)):
        dense = adj.to_dense()
        assert np.array_equal(dense, dense.T)


def test_normalize_weighted_graph():
    # weighted triangle: weights 0.5, 0.25, 1.0 on edges (0,1), (1,2), (0,2)
    g = build_graph([(0, 1), (1, 2), (0, 2)], 3)
    w = {(0, 1): 0.5, (1, 2): 0.25, (0, 2): 1.0}
    rows = np.repeat(np.arange(3), g.degrees())
    vals = np.array([w[tuple(sorted((int(r), int(c))))] for r, c in zip(rows, g.indices)])
    wg = SparseGraph(n_nodes=3, indptr=g.indptr, indices=g.indices, values=vals)
    # degrees count neighbors; only the normalization sums the weights
    assert np.array_equal(wg.degrees(), [2, 2, 2])
    st = normalize_no_self_loops(wg)
    dense = st.to_dense()
    assert np.array_equal(dense, dense.T)
    assert np.isclose(dense[0, 1], 0.5 / np.sqrt(1.5 * 0.75))
    eig = np.linalg.eigvalsh(dense)
    assert np.abs(eig).max() <= 1.0 + 1e-9


@pytest.mark.parametrize("seed", range(3))
def test_spectral_bound_weighted_random(seed):
    """Soft reconstruction output also keeps the normalized spectrum in [-1, 1]."""
    from amlp.reconstruct import ReconstructionConfig, reconstruct_soft

    rng = np.random.default_rng(seed + 400)
    g = random_graph(40, 0.15, seed + 400)
    x = rng.standard_normal((40, 5))
    wg, _ = reconstruct_soft(
        g, x, ReconstructionConfig(mode="soft", steepness=20.0, epsilon=0.01)
    )
    st = normalize_no_self_loops(wg)
    eig = np.linalg.eigvalsh(st.to_dense())
    assert np.abs(eig).max() <= 1.0 + 1e-9


@pytest.mark.parametrize("seed", range(5))
def test_spectral_bound_random_graphs(seed):
    g = random_graph(60, 0.08, seed)
    st = normalize_no_self_loops(g)
    eig = np.linalg.eigvalsh(st.to_dense())
    assert np.abs(eig).max() <= 1.0 + 1e-9
    at = normalize_with_self_loops(g)
    eig = np.linalg.eigvalsh(at.to_dense())
    assert np.abs(eig).max() <= 1.0 + 1e-9


def _strength_no_self_loops_values(g):
    """The reference for S~'s values on a weighted graph: the strengths
    summed by np.add.at, in the order of the stored entries."""
    counts = np.diff(g.indptr)
    rows = np.repeat(np.arange(g.n_nodes), counts)
    strength = np.zeros(g.n_nodes)
    np.add.at(strength, rows, g.values)
    inv_sqrt = np.zeros(g.n_nodes)
    nz = strength > 0
    inv_sqrt[nz] = 1.0 / np.sqrt(strength[nz])
    vals = inv_sqrt[rows] * inv_sqrt[g.indices]
    vals *= g.values
    return vals


def test_normalize_soft_graph_keeps_strength_bits(soft_preset):
    s = soft_preset[0]
    assert s.values is not None and s.n_edges > 0
    st = normalize_no_self_loops(s)
    assert st.values.tobytes() == _strength_no_self_loops_values(s).tobytes()


def test_degrees_count_neighbors_of_weighted_graphs(soft_preset):
    s = soft_preset[0]
    b = replace(s, values=None)
    assert s.degrees().dtype == np.int64
    assert np.array_equal(s.degrees(), b.degrees())
    at = normalize_with_self_loops(b)
    assert np.array_equal(at.degrees(), b.degrees() + 1)


# ---------------------------------------------------------------------------
# spmm / propagate
# ---------------------------------------------------------------------------


def test_spmm_swap():
    st = normalize_no_self_loops(build_graph([(0, 1)], 2))
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(spmm(st, x), [[3.0, 4.0], [1.0, 2.0]])


def test_spmm_identity():
    at = normalize_with_self_loops(build_graph([], 3))
    x = np.arange(6, dtype=float).reshape(3, 2)
    assert np.array_equal(spmm(at, x), x)


def test_spmm_matches_dense_oracle():
    g = random_graph(30, 0.15, 3)
    st = normalize_no_self_loops(g)
    x = np.random.default_rng(4).standard_normal((30, 7))
    assert np.max(np.abs(spmm(st, x) - st.to_dense() @ x)) <= 1e-12


def test_spmm_dimension_mismatch():
    st = normalize_no_self_loops(build_graph([(0, 1)], 2))
    with pytest.raises(ValidationError):
        spmm(st, np.zeros((3, 2)))


def test_propagate_involution():
    st = normalize_no_self_loops(build_graph([(0, 1)], 2))
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.allclose(propagate(st, x, 2), x)


def test_propagate_k1_equals_spmm():
    g = random_graph(20, 0.2, 5)
    st = normalize_no_self_loops(g)
    x = np.random.default_rng(6).standard_normal((20, 4))
    assert np.array_equal(propagate(st, x, 1), spmm(st, x))


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_propagate_matches_dense_power_oracle(k):
    g = random_graph(20, 0.2, 11)
    st = normalize_no_self_loops(g)
    x = np.random.default_rng(12).standard_normal((20, 5))
    expected = np.linalg.matrix_power(st.to_dense(), k) @ x
    got = propagate(st, x, k)
    denom = max(np.abs(expected).max(), 1e-30)
    assert np.abs(got - expected).max() / denom <= 1e-10


def test_propagate_rejects_k0():
    st = normalize_no_self_loops(build_graph([(0, 1)], 2))
    with pytest.raises(ValidationError):
        propagate(st, np.zeros((2, 1)), 0)


def test_propagate_of_a_vector_is_one_column():
    st = normalize_no_self_loops(random_graph(30, 0.15, 13))
    v = np.random.default_rng(14).standard_normal(30)
    a = st.to_scipy()
    got = propagate(st, v, 2)
    assert got.shape == (30,) and got.tobytes() == (a @ (a @ v)).tobytes()


# ---------------------------------------------------------------------------
# aggregate
# ---------------------------------------------------------------------------


def test_aggregate_two_neighbor_reductions():
    # node 0 has neighbors 1 and 2 with rows [1,2] and [3,4]
    g = build_graph([(0, 1), (0, 2)], 3)
    x = np.array([[9.0, 9.0], [1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(aggregate("mean", g, x)[0], [2.0, 3.0])
    assert np.array_equal(aggregate("max", g, x)[0], [3.0, 4.0])
    assert np.array_equal(aggregate("sum", g, x)[0], [4.0, 6.0])


def test_aggregate_weighted_sum_single_edge():
    g = build_graph([(0, 1)], 2)
    at = normalize_with_self_loops(g)
    x = np.eye(2)
    assert np.allclose(aggregate("weighted_sum", g, x, at), [[0.5, 0.5], [0.5, 0.5]])


def test_aggregate_isolated_node_zero_row():
    g = build_graph([(0, 1)], 3)
    x = np.ones((3, 2))
    for kind in ("mean", "max", "sum"):
        assert np.array_equal(aggregate(kind, g, x)[2], [0.0, 0.0])


def test_aggregate_sum_equals_mean_scaled_by_degree():
    g = random_graph(40, 0.1, 21)
    x = np.random.default_rng(22).standard_normal((40, 6))
    s = aggregate("sum", g, x)
    m = aggregate("mean", g, x)
    deg = g.degrees()
    nz = deg > 0
    assert np.array_equal(m[nz], s[nz] / deg[nz, None])


def test_aggregate_requires_a_tilde_for_weighted_sum():
    g = build_graph([(0, 1)], 2)
    with pytest.raises(ValidationError):
        aggregate("weighted_sum", g, np.zeros((2, 1)))


@pytest.mark.parametrize("kind", AGGREGATORS)
def test_aggregators_refuse_weighted_or_self_looped_graphs(kind):
    g = build_graph([(0, 1), (1, 2)], 3)
    at = normalize_with_self_loops(g)
    weighted = SparseGraph(3, g.indptr, g.indices, np.full(g.indices.size, 0.5))
    for bad in (weighted, at, replace(at, values=None)):
        with pytest.raises(ValidationError, match="binary graph without self-loops"):
            aggregator(kind, bad, at)
        with pytest.raises(ValidationError, match="binary graph without self-loops"):
            aggregate(kind, bad, np.zeros((3, 2)), at)


def _adjoint_graph(name):
    if name == "star":
        return build_graph([(0, i) for i in range(1, 25)], 25)
    # random edges among the first 30 nodes; the last 5 are isolated
    seed = int(name[-1])
    rng = np.random.default_rng(seed + 600)
    u, v = np.nonzero(np.triu(rng.random((30, 30)) < 0.12, k=1))
    return build_graph(np.column_stack([u, v]), 35)


@pytest.mark.parametrize("kind", AGGREGATORS)
@pytest.mark.parametrize("name", ["random0", "random1", "star"])
def test_aggregator_backward_is_adjoint_of_forward(kind, name):
    g = _adjoint_graph(name)
    at = normalize_with_self_loops(g)
    rng = np.random.default_rng(601)
    z = rng.standard_normal((g.n_nodes, 5))
    g_y = rng.standard_normal((g.n_nodes, 5))
    op = aggregator(kind, g, at)
    y = op.forward(z)
    assert np.array_equal(aggregate(kind, g, z, at), y)
    lhs = float(np.sum(y * g_y))
    rhs = float(np.sum(z * op.backward(g_y)))
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))


def test_mean_aggregator_backward_matches_precomputed_transpose():
    """The mean's backward keeps the bits of the transposed CSR of D^-1 A."""
    import scipy.sparse as sp

    from amlp.synth import generate_dataset, heterophilic_preset

    g, x, _ = generate_dataset(heterophilic_preset(seed=0))
    deg = g.degrees().astype(np.float64)
    inv = np.zeros_like(deg)
    inv[deg > 0] = 1.0 / deg[deg > 0]
    ref_t = (sp.diags(inv) @ g.to_scipy()).T.tocsr()
    g_y = np.random.default_rng(602).standard_normal((g.n_nodes, 7))
    assert np.array_equal(aggregator("mean", g).backward(g_y), ref_t @ g_y)


def test_mean_aggregator_builds_its_transpose_on_first_backward(monkeypatch):
    from amlp import graph

    g = _adjoint_graph("random0")
    z = np.random.default_rng(603).standard_normal((g.n_nodes, 3))
    built = []
    init = graph.LinearAggregator.__init__

    def record(self, *args):
        init(self, *args)
        built.append(self)

    monkeypatch.setattr(graph.LinearAggregator, "__init__", record)
    aggregate("mean", g, z)
    assert len(built) == 1 and built[0].m_t is None

    op = aggregator("mean", g)
    op.forward(z)
    assert op.m_t is None
    op.backward(z)
    m_t = op.m_t
    assert m_t is not None
    op.backward(z)
    assert op.m_t is m_t


# ---------------------------------------------------------------------------
# MaxAggregator
# ---------------------------------------------------------------------------


def naive_max(g, z):
    """Per-node reference: values and the winning neighbor of every entry
    (-1 for isolated nodes), first neighbor on ties."""
    n, c = z.shape
    y = np.zeros_like(z)
    arg = np.full((n, c), -1, dtype=np.int64)
    cols = np.arange(c)
    for v in range(n):
        nb = g.neighbors(v)
        if nb.size:
            block = z[nb]
            j = block.argmax(axis=0)
            y[v] = block[j, cols]
            arg[v] = nb[j]
    return y, arg


def naive_max_backward(arg, g_y):
    n, c = g_y.shape
    g_z = np.zeros_like(g_y)
    rows = arg.ravel()
    mask = rows >= 0
    cols = np.tile(np.arange(c), n)
    np.add.at(g_z, (rows[mask], cols[mask]), g_y.ravel()[mask])
    return g_z


def same_bits(a, b):
    """Equal shapes and bit patterns (so -0.0 differs from 0.0)."""
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def check_max_against_reference(g, z, seed=0):
    op = MaxAggregator(g)
    y = op.forward(z)
    ref_y, ref_arg = naive_max(g, z)
    assert same_bits(y, ref_y)
    c = z.shape[1]
    winners = op._flat.reshape(-1, c) // c
    assert np.array_equal(winners, ref_arg[g.degrees() > 0])
    g_y = np.random.default_rng(seed).standard_normal(z.shape)
    assert same_bits(op.backward(g_y), naive_max_backward(ref_arg, g_y))
    return op


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_max_aggregator_matches_per_node_reference(seed):
    g = random_graph(60, 0.08 * (seed + 1), 30 + seed)
    z = np.random.default_rng(seed).standard_normal((60, 7))
    check_max_against_reference(g, z, seed)
    assert same_bits(aggregate("max", g, z), naive_max(g, z)[0])


def test_max_aggregator_ties_pick_first_neighbor():
    g = random_graph(50, 0.2, 40)
    rng = np.random.default_rng(41)
    # duplicated feature rows: whole neighbor rows tie
    check_max_against_reference(g, rng.standard_normal((4, 5))[rng.integers(0, 4, 50)])
    # rounded values: single entries tie
    check_max_against_reference(g, np.round(rng.standard_normal((50, 5)), 1))
    # +0.0 and -0.0 compare equal; the first neighbor's zero is kept
    signed_zeros = np.where(rng.random((50, 5)) < 0.5, -0.0, 0.0)
    check_max_against_reference(g, signed_zeros)


def test_max_aggregator_isolated_nodes():
    g = build_graph([(0, 1), (1, 3), (3, 4)], 6)
    z = np.random.default_rng(42).standard_normal((6, 3))
    op = check_max_against_reference(g, z)
    y = op.forward(z)
    assert np.array_equal(y[[2, 5]], np.zeros((2, 3)))
    assert np.array_equal(op.backward(np.ones((6, 3)))[[2, 5]], np.zeros((2, 3)))


def test_max_aggregator_no_edges():
    g = build_graph([], 4)
    z = np.random.default_rng(43).standard_normal((4, 3))
    op = check_max_against_reference(g, z)
    assert np.array_equal(op.forward(z), np.zeros((4, 3)))
    assert np.array_equal(op.backward(np.ones((4, 3))), np.zeros((4, 3)))


def test_max_aggregator_star_uses_hub_path():
    leaves = 2000
    g = build_graph([(0, i) for i in range(1, leaves + 1)], leaves + 1)
    z = np.random.default_rng(44).standard_normal((leaves + 1, 4))
    op = check_max_against_reference(g, z)
    # h-index 1: one slot for the leaves, one hub reduced on its own
    assert len(op.slots) == 1 and len(op.hubs) == 1


@pytest.mark.parametrize("seed", [0, 1])
def test_max_aggregator_iterations_bounded_by_h_index(seed):
    # a few hubs on top of a sparse random graph
    rng = np.random.default_rng(45 + seed)
    n = 300
    edges = [tuple(e) for e in rng.integers(0, n, size=(400, 2))]
    edges += [(hub, int(v)) for hub in range(3) for v in rng.integers(0, n, 150)]
    g = build_graph(edges, n)
    deg = np.sort(g.degrees())[::-1]
    h = int(np.sum(deg >= np.arange(1, n + 1)))
    op = check_max_against_reference(g, rng.standard_normal((n, 6)), seed)
    assert len(op.slots) + len(op.hubs) <= 2 * h
    assert len(op.slots) + len(op.hubs) < deg[0]


@pytest.mark.parametrize("preset", [homophilic_preset, heterophilic_preset])
def test_max_aggregator_slot_count_minimizes_iterations(preset):
    g = generate_dataset(preset(19003))[0]
    deg = g.degrees()
    steps = [cut + int(np.count_nonzero(deg > cut)) for cut in range(deg.max() + 1)]
    op = check_max_against_reference(g, np.random.default_rng(46).standard_normal((g.n_nodes, 5)))
    assert len(op.slots) == int(np.argmin(steps))
    assert len(op.slots) + len(op.hubs) == min(steps)


def test_max_aggregator_on_weighted_graph_is_structural(soft_preset):
    s, x, _ = soft_preset
    rng = np.random.default_rng(530)
    z = np.round(np.column_stack([x, rng.standard_normal((s.n_nodes, 8))]), 1)
    g_y = rng.standard_normal(z.shape)
    got, want = MaxAggregator(s), MaxAggregator(replace(s, values=None))
    assert got.forward(z).tobytes() == want.forward(z).tobytes()
    assert got.backward(g_y).tobytes() == want.backward(g_y).tobytes()


# ---------------------------------------------------------------------------
# row_normalize
# ---------------------------------------------------------------------------


def test_row_normalize_345():
    assert np.allclose(row_normalize(np.array([[3.0, 4.0]])), [[0.6, 0.8]])


def test_row_normalize_zero_row():
    out = row_normalize(np.array([[0.0, 0.0], [1.0, 0.0]]))
    assert np.array_equal(out[0], [0.0, 0.0])
    assert np.array_equal(out[1], [1.0, 0.0])


def _reference_row_normalize(m, eps_norm=1e-12):
    norms = np.linalg.norm(m, axis=1)
    out = np.zeros_like(m)
    nz = norms >= eps_norm
    out[nz] = m[nz] / norms[nz, None]
    return out


@pytest.mark.parametrize("order", ["C", "F"])
def test_row_normalize_matches_linalg_norm_bitwise(order):
    rng = np.random.default_rng(32)
    m = np.asarray(rng.standard_normal((300, 37)), order=order)
    m[::11] = 0.0
    m[5] *= 1e-13  # below eps_norm: a zero row
    got, want = row_normalize(m), _reference_row_normalize(m)
    assert got.tobytes(order="A") == want.tobytes(order="A")
    assert got.flags.c_contiguous == want.flags.c_contiguous
    assert not got[5].any()


def test_row_normalize_allocates_only_its_result(traced_peak):
    n, c = 400, 256
    m = np.random.default_rng(33).standard_normal((n, c))
    _, peak = traced_peak(lambda: row_normalize(m))
    # the norms, the mask and the ufunc buffers of the masked division
    assert peak <= 8 * n * c + 16 * n + 131_072, peak


def test_row_normalize_norms_are_unit_or_zero():
    rng = np.random.default_rng(31)
    for _ in range(10):
        m = rng.standard_normal((20, 5))
        m[rng.integers(0, 20)] = 0.0
        norms = np.linalg.norm(row_normalize(m), axis=1)
        assert np.all((np.abs(norms - 1.0) <= 1e-12) | (norms == 0.0))


# ---------------------------------------------------------------------------
# dirichlet_energy
# ---------------------------------------------------------------------------


def brute_force_dirichlet(at, y):
    dense = at.to_dense()
    total = 0.0
    for i in range(dense.shape[0]):
        for j in range(dense.shape[1]):
            total += dense[i, j] * np.sum((y[i] - y[j]) ** 2)
    return total


def test_dirichlet_identical_rows_zero():
    at = normalize_with_self_loops(build_graph([(0, 1), (1, 2)], 3))
    y = np.tile([0.6, 0.8], (3, 1))
    assert dirichlet_energy(at, y) == 0.0


def test_dirichlet_single_edge_value():
    at = normalize_with_self_loops(build_graph([(0, 1)], 2))
    y = np.eye(2)
    assert np.isclose(dirichlet_energy(at, y), 2.0, rtol=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_dirichlet_matches_brute_force(seed):
    g = random_graph(25, 0.2, seed + 100)
    at = normalize_with_self_loops(g)
    y = row_normalize(np.random.default_rng(seed).standard_normal((25, 4)))
    got = dirichlet_energy(at, y)
    expected = brute_force_dirichlet(at, y)
    assert np.isclose(got, expected, rtol=1e-12)


def test_dirichlet_permutation_invariant():
    g = random_graph(30, 0.15, 200)
    at = normalize_with_self_loops(g)
    rng = np.random.default_rng(201)
    y = row_normalize(rng.standard_normal((30, 3)))
    perm = rng.permutation(30)
    # permute the underlying graph and embedding together
    edges = g.edge_array()
    g2 = build_graph(np.column_stack([perm[edges[:, 0]], perm[edges[:, 1]]]), 30)
    at2 = normalize_with_self_loops(g2)
    y2 = np.empty_like(y)
    y2[perm] = y
    assert np.isclose(dirichlet_energy(at, y), dirichlet_energy(at2, y2), rtol=1e-12)


def test_dirichlet_energy_allocates_one_product(traced_peak):
    # N x c below numpy's 256 KiB threshold for reusing a temporary, so that
    # Yh * (A Yh) would allocate a second N x c array
    n, c = 400, 64
    g = random_graph(n, 0.01, 202)
    at = normalize_with_self_loops(g)
    y = row_normalize(np.random.default_rng(203).standard_normal((n, c)))
    a = at.to_scipy()
    sq = np.einsum("ij,ij->i", y, y)
    cross = float(np.sum(y * (a @ y)))
    want = max(2.0 * float(np.asarray(a.sum(axis=1)).ravel() @ sq) - 2.0 * cross, 0.0)
    got, peak = traced_peak(lambda: dirichlet_energy(at, y))
    assert got == want
    # A Yh, then the scipy matrix, the row sums and the squared norms
    nnz = at.indices.size
    assert peak <= 8 * n * c + 16 * (nnz + n) + 4096, peak


def test_dirichlet_requires_self_loop_normalization():
    st = normalize_no_self_loops(build_graph([(0, 1)], 2))
    with pytest.raises(ValidationError):
        dirichlet_energy(st, np.eye(2))


# ---------------------------------------------------------------------------
# homophily_ratio
# ---------------------------------------------------------------------------


def test_homophily_all_same_label():
    g = build_graph([(0, 1), (1, 2)], 3)
    assert homophily_ratio(g, np.zeros(3, dtype=np.int64)) == 1.0


def test_homophily_complete_bipartite():
    edges = [(u, v) for u in range(3) for v in range(3, 6)]
    g = build_graph(edges, 6)
    labels = np.array([0, 0, 0, 1, 1, 1])
    assert homophily_ratio(g, labels) == 0.0


def test_homophily_excludes_unlabeled_and_isolated():
    g = build_graph([(0, 1)], 3)
    labels = np.array([0, 0, -1])  # node 2 isolated and unlabeled
    assert homophily_ratio(g, labels) == 1.0


def test_homophily_no_eligible_node():
    g = build_graph([], 3)
    with pytest.raises(ValidationError):
        homophily_ratio(g, np.array([0, 1, 0]))


def test_homophily_ratio_of_weighted_graph_is_structural(soft_preset):
    s, _, labels = soft_preset
    want = homophily_ratio(replace(s, values=None), labels)
    assert homophily_ratio(s, labels) == want
    assert 0.0 < want < 1.0


# ---------------------------------------------------------------------------
# ownership of the CSR layout
# ---------------------------------------------------------------------------


def test_only_graph_reads_the_csr_layout():
    """graph.py alone knows the CSR layout: no other module of the package
    reads an attribute named ``indptr``."""
    import ast
    from pathlib import Path

    import amlp

    readers = sorted(
        path.name
        for path in Path(amlp.__file__).parent.glob("*.py")
        if any(
            isinstance(node, ast.Attribute) and node.attr == "indptr"
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
        )
    )
    assert readers == ["graph.py"]
