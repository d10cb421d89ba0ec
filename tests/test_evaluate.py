import itertools

import numpy as np
import pytest

from amlp.errors import ValidationError
from amlp.evaluate import (
    MetricsRecord,
    _lloyd,
    high_order_dissimilarity,
    hungarian_acc,
    kmeans,
    linear_probe,
    make_splits,
    nmi,
)
from amlp.graph import build_graph


# ---------------------------------------------------------------------------
# kmeans
# ---------------------------------------------------------------------------


def test_kmeans_separates_distant_clouds():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((30, 3)) * 0.1
    b = rng.standard_normal((30, 3)) * 0.1 + 100.0
    x = np.vstack([a, b])
    res = kmeans(x, 2, seed=0)
    labels = res.assignments
    assert len(set(labels[:30])) == 1
    assert len(set(labels[30:])) == 1
    assert labels[0] != labels[-1]


def test_kmeans_k1_mean_and_variance():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((25, 4))
    res = kmeans(x, 1, seed=0)
    assert np.allclose(res.centroids[0], x.mean(axis=0))
    assert np.isclose(res.inertia, np.sum((x - x.mean(axis=0)) ** 2), rtol=1e-9)


def test_kmeans_matches_exhaustive_oracle():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((8, 2))
    res = kmeans(x, 2, seed=0, restarts=20)
    best = np.inf
    for bits in itertools.product([0, 1], repeat=8):
        bits = np.asarray(bits)
        inertia = 0.0
        for side in (0, 1):
            pts = x[bits == side]
            if pts.shape[0]:
                inertia += float(np.sum((pts - pts.mean(axis=0)) ** 2))
        best = min(best, inertia)
    assert np.isclose(res.inertia, best, rtol=1e-9)


def test_kmeans_inertia_recomputation_invariant():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((40, 5))
    res = kmeans(x, 4, seed=1)
    recomputed = float(np.sum((x - res.centroids[res.assignments]) ** 2))
    assert abs(res.inertia - recomputed) <= 1e-9


def test_kmeans_deterministic():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((30, 3))
    r1 = kmeans(x, 3, seed=7)
    r2 = kmeans(x, 3, seed=7)
    assert np.array_equal(r1.assignments, r2.assignments)
    assert r1.inertia == r2.inertia


def test_kmeans_lloyd_inertia_nonincreasing():
    rng = np.random.default_rng(5)
    for trial in range(5):
        x = rng.standard_normal((50, 4))
        init = x[rng.choice(50, size=3, replace=False)].copy()
        _, _, history = _lloyd(x, init, max_iter=100)
        assert all(b <= a + 1e-9 for a, b in zip(history, history[1:]))


def test_kmeans_rejects_k_over_n():
    with pytest.raises(ValidationError):
        kmeans(np.zeros((3, 2)), 4)


def test_kmeans_rejects_zero_restarts():
    with pytest.raises(ValidationError, match="restarts must be >= 1, got 0"):
        kmeans(np.zeros((3, 2)), 2, restarts=0)


# ---------------------------------------------------------------------------
# hungarian_acc
# ---------------------------------------------------------------------------


def brute_force_acc(pred, truth):
    """Try every injective mapping of the smaller label set into the larger."""
    pred_ids = np.unique(pred)
    truth_ids = np.unique(truth)
    best = 0
    if len(pred_ids) <= len(truth_ids):
        for mapping in itertools.permutations(truth_ids, len(pred_ids)):
            lookup = dict(zip(pred_ids, mapping))
            best = max(best, sum(lookup[p] == t for p, t in zip(pred, truth)))
    else:
        for mapping in itertools.permutations(pred_ids, len(truth_ids)):
            lookup = dict(zip(truth_ids, mapping))
            best = max(best, sum(lookup[t] == p for p, t in zip(pred, truth)))
    return best / len(pred)


def test_acc_identical():
    labels = np.array([0, 1, 2, 1, 0])
    assert hungarian_acc(labels, labels) == 1.0


def test_acc_relabeling_invariant():
    truth = np.array([0, 0, 1, 1, 2, 2])
    pred = np.array([2, 2, 0, 0, 1, 1])
    assert hungarian_acc(pred, truth) == 1.0


def test_acc_hand_example():
    pred = np.array([0, 0, 1, 1])
    truth = np.array([0, 1, 1, 1])
    assert hungarian_acc(pred, truth) == 0.75


def test_acc_relabel_invariance_general():
    rng = np.random.default_rng(14)
    pred = rng.integers(0, 4, size=60)
    truth = rng.integers(0, 3, size=60)
    base = hungarian_acc(pred, truth)
    perm = rng.permutation(4)
    assert hungarian_acc(perm[pred], truth) == base
    perm_t = rng.permutation(3)
    assert hungarian_acc(pred, perm_t[truth]) == base


def test_acc_matches_brute_force_200_pairs():
    rng = np.random.default_rng(6)
    for _ in range(200):
        n = int(rng.integers(4, 30))
        kp = int(rng.integers(1, 6))
        kt = int(rng.integers(1, 6))
        pred = rng.integers(0, kp, size=n)
        truth = rng.integers(0, kt, size=n)
        assert hungarian_acc(pred, truth) == brute_force_acc(pred, truth)


# ---------------------------------------------------------------------------
# nmi
# ---------------------------------------------------------------------------


def test_nmi_identical_partitions():
    labels = np.array([0, 0, 1, 1, 2])
    assert abs(nmi(labels, labels) - 1.0) <= 1e-12


def test_nmi_identical_up_to_relabeling():
    a = np.array([0, 0, 1, 1])
    b = np.array([5, 5, 2, 2])
    assert abs(nmi(a, b) - 1.0) <= 1e-12


def test_nmi_constant_pred():
    pred = np.zeros(6, dtype=np.int64)
    truth = np.array([0, 1, 0, 1, 0, 1])
    assert nmi(pred, truth) == 0.0


def test_nmi_independent_partitions():
    pred = np.array([0, 0, 1, 1])
    truth = np.array([0, 1, 0, 1])
    assert abs(nmi(pred, truth)) <= 1e-12


def test_nmi_relabeling_invariance():
    rng = np.random.default_rng(7)
    pred = rng.integers(0, 4, size=50)
    truth = rng.integers(0, 3, size=50)
    base = nmi(pred, truth)
    perm = rng.permutation(4)
    assert np.isclose(nmi(perm[pred], truth), base, rtol=1e-12)


# ---------------------------------------------------------------------------
# make_splits
# ---------------------------------------------------------------------------


def test_splits_sizes_100_nodes():
    rng = np.random.default_rng(8)
    labels = rng.integers(0, 3, size=100)
    ss = make_splits(labels, (0.48, 0.32, 0.20), n_splits=4, seed=0)
    for tr, va, te in ss.splits:
        assert abs(tr.size - 48) <= 1
        assert abs(va.size - 32) <= 1
        assert abs(te.size - 20) <= 1
        assert tr.size + va.size + te.size == 100
        all_idx = np.concatenate([tr, va, te])
        assert np.unique(all_idx).size == 100


def test_splits_deterministic():
    labels = np.random.default_rng(9).integers(0, 4, size=80)
    s1 = make_splits(labels, seed=3, n_splits=2)
    s2 = make_splits(labels, seed=3, n_splits=2)
    for (a1, b1, c1), (a2, b2, c2) in zip(s1.splits, s2.splits):
        assert np.array_equal(a1, a2)
        assert np.array_equal(b1, b2)
        assert np.array_equal(c1, c2)


def test_splits_stratified_within_one_node():
    rng = np.random.default_rng(10)
    for trial in range(5):
        labels = rng.integers(0, 5, size=int(rng.integers(50, 200)))
        ratios = (0.48, 0.32, 0.20)
        ss = make_splits(labels, ratios, n_splits=2, seed=trial)
        for tr, va, te in ss.splits:
            for c in np.unique(labels):
                n_c = int((labels == c).sum())
                for seg, r in zip((tr, va, te), ratios):
                    got = int((labels[seg] == c).sum())
                    assert abs(got - n_c * r) <= 1.0 + 1e-9
                assert (labels[tr] == c).sum() >= 1


def test_splits_singleton_class_goes_to_train():
    labels = np.array([0, 0, 0, 0, 0, 0, 0, 0, 1])  # class 1 has one node
    ss = make_splits(labels, (0.48, 0.32, 0.20), n_splits=3, seed=0)
    for tr, va, te in ss.splits:
        assert (labels[tr] == 1).sum() == 1


def test_splits_ignores_unlabeled():
    labels = np.array([0, 1, -1, 0, 1, -1, 0, 1])
    ss = make_splits(labels, (0.5, 0.25, 0.25), n_splits=1, seed=0)
    tr, va, te = ss.splits[0]
    assert 2 not in np.concatenate([tr, va, te])
    assert 5 not in np.concatenate([tr, va, te])


# ---------------------------------------------------------------------------
# linear_probe
# ---------------------------------------------------------------------------


def test_probe_linearly_separable():
    rng = np.random.default_rng(11)
    n = 60
    x = np.vstack(
        [rng.standard_normal((n, 2)) + [6, 0], rng.standard_normal((n, 2)) - [6, 0]]
    )
    labels = np.array([0] * n + [1] * n)
    ss = make_splits(labels, (0.5, 0.25, 0.25), n_splits=1, seed=0)
    acc = linear_probe(x, labels, ss.splits[0])
    assert acc == 1.0


def test_probe_random_labels_near_chance():
    rng = np.random.default_rng(12)
    n = 600
    x = rng.standard_normal((n, 8))
    labels = rng.integers(0, 3, size=n)
    ss = make_splits(labels, (0.48, 0.32, 0.20), n_splits=1, seed=0)
    acc = linear_probe(x, labels, ss.splits[0])
    assert abs(acc - 1.0 / 3.0) <= 0.1


def test_probe_duplication_leaves_decision_unchanged():
    from amlp.evaluate import _fit_probe

    rng = np.random.default_rng(13)
    n = 40
    x = rng.standard_normal((n, 3))
    y = rng.integers(0, 2, size=n)
    xv = rng.standard_normal((10, 3))
    yv = rng.integers(0, 2, size=10)
    w1 = _fit_probe(x, y, xv, yv, 2)
    w2 = _fit_probe(np.vstack([x, x]), np.concatenate([y, y]), xv, yv, 2)
    xa = np.column_stack([x, np.ones(n)])
    assert np.array_equal((xa @ w1).argmax(axis=1), (xa @ w2).argmax(axis=1))


def test_probe_missing_class_in_train():
    x = np.zeros((6, 2))
    labels = np.array([0, 0, 0, 1, 1, 1])
    split = (np.array([0, 1]), np.array([3]), np.array([4, 5]))
    with pytest.raises(ValidationError):
        linear_probe(x, labels, split)


# ---------------------------------------------------------------------------
# high-order dissimilarity
# ---------------------------------------------------------------------------


def four_node_example():
    # bipartite-style 4-node graph with features making nodes 1 and 3
    # (1-indexed) high-order twins
    g = build_graph([(0, 1), (0, 3), (1, 2), (2, 3)], 4)
    x = np.array(
        [[1.0, 1.0, -1.0], [0.0, 1.0, 0.0], [1.0, 1.0, 1.0], [1.0, 0.0, 0.0]]
    )
    return g, x


def test_high_order_four_node_example():
    g, x = four_node_example()
    m_term, n_term = high_order_dissimilarity(x, g, 0, 2)  # pair (1,3) 1-indexed
    assert n_term == 0.0
    assert m_term > 0.0


def test_high_order_same_node():
    g, x = four_node_example()
    assert high_order_dissimilarity(x, g, 1, 1) == (0.0, 0.0)


def test_high_order_symmetric():
    g, x = four_node_example()
    assert high_order_dissimilarity(x, g, 0, 2) == high_order_dissimilarity(x, g, 2, 0)


def test_high_order_twins_zero():
    # nodes 0 and 1: identical features and adjacency rows
    g = build_graph([(0, 2), (1, 2)], 3)
    x = np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 1.0]])
    m_term, n_term = high_order_dissimilarity(x, g, 0, 1)
    assert m_term == 0.0
    assert n_term == 0.0


def brute_force_high_order(x, g, i, j):
    from amlp.graph import row_normalize

    xh = row_normalize(x)
    ah = row_normalize(g.to_scipy().toarray())
    m = float(np.sum((xh[i] - xh[j]) ** 2) + np.sum((ah[i] - ah[j]) ** 2))
    nt = 0.0
    for mm in range(g.n_nodes):
        if mm in (i, j):
            continue
        nt += abs(float(xh[i] @ xh[mm]) - float(xh[j] @ xh[mm]))
        nt += abs(float(ah[i] @ ah[mm]) - float(ah[j] @ ah[mm]))
    return m, nt


@pytest.mark.parametrize("seed", range(3))
def test_high_order_matches_brute_force(seed):
    rng = np.random.default_rng(20 + seed)
    n = 15
    dense = np.triu(rng.random((n, n)) < 0.3, k=1)
    u, v = np.nonzero(dense)
    g = build_graph(np.column_stack([u, v]), n)
    x = rng.standard_normal((n, 5))
    i, j = sorted(rng.choice(n, size=2, replace=False))
    got = high_order_dissimilarity(x, g, int(i), int(j))
    expected = brute_force_high_order(x, g, int(i), int(j))
    assert np.isclose(got[0], expected[0], rtol=1e-12, atol=1e-14)
    assert np.isclose(got[1], expected[1], rtol=1e-12, atol=1e-14)


# ---------------------------------------------------------------------------
# MetricsRecord
# ---------------------------------------------------------------------------


def test_metrics_record_summary():
    rec = MetricsRecord(acc_values=[0.5, 0.7], nmi_values=[0.2, 0.4])
    assert np.isclose(rec.acc_mean, 0.6)
    assert np.isclose(rec.nmi_mean, 0.3)
    d = rec.as_dict()
    assert d["acc"]["per_seed"] == [0.5, 0.7]
