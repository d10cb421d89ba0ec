import itertools
import re

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from amlp import evaluate
from amlp.errors import ValidationError
from amlp.evaluate import (
    ClusterResult,
    MetricsRecord,
    _lloyd,
    _max_matching_total,
    _softmax,
    _sq_dists,
    high_order_dissimilarity,
    hungarian_acc,
    kmeans,
    linear_probe,
    make_splits,
    nmi,
)
from amlp.graph import build_graph
from amlp.model import AdamState, adam_step


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
        _, _, (history,) = _lloyd(x, init[None], max_iter=100)
        assert all(b <= a + 1e-9 for a, b in zip(history, history[1:]))


def test_kmeans_rejects_k_over_n():
    with pytest.raises(ValidationError):
        kmeans(np.zeros((3, 2)), 4)


def test_kmeans_rejects_zero_restarts():
    with pytest.raises(ValidationError, match="restarts must be >= 1, got 0"):
        kmeans(np.zeros((3, 2)), 2, restarts=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e200])
def test_kmeans_rejects_non_finite_input(bad):
    x = np.random.default_rng(8).standard_normal((20, 3))
    x[7, 1] = bad  # 1e200 is finite, but its square overflows
    with pytest.raises(ValidationError, match="must be finite"):
        kmeans(x, 2)


# Reference: k-means as it ran one restart at a time, one (N x c)(c x k)
# product and a boolean-mask mean per cluster; the batched kmeans must
# reproduce its assignments, centroids and inertia bit for bit.


def _reference_sq_dists(x, x_sq, centroids):
    d2 = (
        x_sq[:, None]
        - 2.0 * (x @ centroids.T)
        + np.einsum("ij,ij->i", centroids, centroids)[None, :]
    )
    return np.maximum(d2, 0.0)


def _reference_kmeanspp_init(x, x_sq, k, rng):
    n = x.shape[0]
    centroids = np.empty((k, x.shape[1]))
    first = int(rng.integers(n))
    centroids[0] = x[first]
    closest = _reference_sq_dists(x, x_sq, centroids[:1]).ravel()
    for j in range(1, k):
        total = closest.sum()
        if total <= 0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=closest / total))
        centroids[j] = x[idx]
        closest = np.minimum(
            closest, _reference_sq_dists(x, x_sq, centroids[j : j + 1]).ravel()
        )
    return centroids


def _reference_lloyd(x, centroids, max_iter, x_sq):
    k = centroids.shape[0]
    assign = None
    for _ in range(max_iter):
        d2 = _reference_sq_dists(x, x_sq, centroids)
        new_assign = d2.argmin(axis=1)
        point_costs = d2[np.arange(x.shape[0]), new_assign].copy()
        for j in range(k):
            members = new_assign == j
            if members.any():
                centroids[j] = x[members].mean(axis=0)
            else:
                far = int(point_costs.argmax())
                centroids[j] = x[far]
                new_assign[far] = j
                point_costs[far] = 0.0
        if assign is not None and np.array_equal(assign, new_assign):
            break
        assign = new_assign
    return assign, centroids


def _reference_kmeans(x, k, seed, restarts, max_iter=300):
    rng = np.random.default_rng(seed)
    x_sq = np.einsum("ij,ij->i", x, x)
    best = None
    for _ in range(restarts):
        init = _reference_kmeanspp_init(x, x_sq, k, rng)
        assign, centroids = _reference_lloyd(x, init, max_iter, x_sq)
        diffs = x - centroids[assign]
        inertia = float(np.einsum("ij,ij->", diffs, diffs))
        if best is None or inertia < best.inertia:
            best = ClusterResult(assign, centroids, inertia, restarts)
    return best


@pytest.mark.parametrize(
    "n, c, k, sets",
    [(7, 3, 2, 1), (50, 16, 3, 5), (400, 64, 4, 16), (1000, 100, 1, 10), (4000, 64, 4, 10)],
)
def test_sq_dists_round_like_one_product_per_set(n, c, k, sets):
    """A single set's block equals its own (N x c)(c x k) product chain bit
    for bit, which k-means++ seeding relies on; block a of a stack equals
    columns a*k to (a+1)*k of one (N x c)(c x A*k) product chain over the
    stacked centroids."""
    rng = np.random.default_rng(n + c)
    x = rng.standard_normal((n, c))
    x_sq = np.einsum("ij,ij->i", x, x)
    centroids = rng.standard_normal((sets, k, c))
    got = _sq_dists(x, x_sq, centroids)
    wide = _reference_sq_dists(x, x_sq, centroids.reshape(-1, c)).T
    for a in range(sets):
        one = _sq_dists(x, x_sq, centroids[a : a + 1])[0]
        assert np.array_equal(one, _reference_sq_dists(x, x_sq, centroids[a]).T)
        assert np.array_equal(got[a], wide[a * k : (a + 1) * k])


def assert_same_clustering(got, want):
    assert got.assignments.dtype == want.assignments.dtype
    assert np.array_equal(got.assignments, want.assignments)
    assert np.array_equal(got.centroids, want.centroids)
    assert got.inertia == want.inertia


def _kmeans_cases():
    rng = np.random.default_rng(40)
    cases = []
    for i in range(36):
        n = int(rng.integers(1, 120))
        c = int(rng.integers(1, 24))
        k = [1, n, min(n, int(rng.integers(2, 9)))][i % 3]
        x = rng.standard_normal((n, c)) * [0.01, 1.0, 100.0][i % 3]
        if i % 4 == 1:
            x = np.round(x, 1)  # exact ties between distances
        cases.append((f"random{i}", x, k, [1, 3, 10][i % 3], 300))
    # three distinct rows and k = 5: duplicate centroids leave clusters
    # empty, so every restart takes the seizure path
    base = rng.standard_normal((3, 4))
    cases.append(("seizure", base[rng.integers(0, 3, 60)], 5, 10, 300))
    dup = rng.standard_normal((50, 6))
    cases.append(("duplicated", np.vstack([dup, dup[:25], dup[:5]]), 12, 3, 300))
    cases.append(("rounded", np.round(rng.standard_normal((200, 3)), 1), 6, 10, 300))
    for max_iter in (1, 2, 4):  # stops before the fixpoint
        cases.append((f"max_iter{max_iter}", rng.standard_normal((300, 5)), 7, 10, max_iter))
    # one group of 4 restarts (c // k = 4); at seed 5 one restart's cluster
    # empties mid-run and seizes a point, while the other three update by
    # the one-hot product until their last, exact, update
    mix = np.random.default_rng(45)
    centers = mix.standard_normal((8, 24))
    x = centers[mix.integers(0, 8, 60)] + mix.standard_normal((60, 24)) * 0.3
    cases.append(("mixed_group", x, 6, 4, 300))
    return cases


_KMEANS_CASES = _kmeans_cases()


@pytest.mark.parametrize(
    "x, k, restarts, max_iter",
    [case[1:] for case in _KMEANS_CASES],
    ids=[case[0] for case in _KMEANS_CASES],
)
def test_kmeans_matches_one_restart_at_a_time(x, k, restarts, max_iter):
    for seed in (0, 5):
        assert_same_clustering(
            kmeans(x, k, seed=seed, restarts=restarts, max_iter=max_iter),
            _reference_kmeans(x, k, seed, restarts, max_iter),
        )


def test_kmeans_mixed_group_takes_both_paths(monkeypatch):
    """The mixed_group case at seed 5 runs as one _lloyd group in which some
    centroid updates seize a point for an empty cluster and others are the
    one-hot product's sums / counts, which never reach _cluster_means."""
    x, k, restarts, max_iter = next(case[1:] for case in _KMEANS_CASES if case[0] == "mixed_group")
    counts = {"groups": 0, "iterations": 0, "exact": 0, "seizing": 0}
    lloyd, cluster_means = evaluate._lloyd, evaluate._cluster_means

    def counted_lloyd(*args):
        assign, centroids, history = lloyd(*args)
        counts["groups"] += 1
        counts["iterations"] += sum(len(h) for h in history)
        return assign, centroids, history

    def counted_cluster_means(x, labels, costs, out):
        counts["exact"] += 1
        counts["seizing"] += int(np.bincount(labels, minlength=out.shape[0]).min() == 0)
        cluster_means(x, labels, costs, out)

    monkeypatch.setattr(evaluate, "_lloyd", counted_lloyd)
    monkeypatch.setattr(evaluate, "_cluster_means", counted_cluster_means)
    got = kmeans(x, k, seed=5, restarts=restarts, max_iter=max_iter)
    assert counts["groups"] == 1
    assert counts["seizing"] >= 1
    # every restart's last update is exact; the rest took the product path
    assert restarts <= counts["exact"] < counts["iterations"]
    assert_same_clustering(got, _reference_kmeans(x, k, 5, restarts, max_iter))


def test_kmeans_matches_reference_on_embedding_shape():
    """An N=4000, c=64, k=4 embedding: the CLI's clustering shape, where the
    restarts advance in one group."""
    rng = np.random.default_rng(41)
    labels = rng.integers(0, 4, 4000)
    y = rng.standard_normal((4000, 64)) * 2.0 + rng.standard_normal((4, 64))[labels]
    y /= np.linalg.norm(y, axis=1, keepdims=True)
    assert_same_clustering(kmeans(y, 4, seed=3), _reference_kmeans(y, 4, 3, 10))


@pytest.mark.parametrize(
    "n, c, k, restarts",
    [(4000, 64, 4, 10), (2000, 8, 4, 60), (1000, 2, 9, 5), (4000, 64, 4, 16), (3000, 500, 4, 10)],
)
def test_kmeans_memory_is_linear_in_x(traced_peak, n, c, k, restarts):
    """Restarts run in groups of c // k, so the traced peak stays within a
    constant times N * (c + k) however many restarts there are. At
    (4000, 64, 4, 16) one group fills A*k = c, the widest one-hot block and
    distance product; (3000, 500, 4, 10) is wide_train's clustering."""
    rng = np.random.default_rng(42)
    x = rng.standard_normal((n, c)) + rng.integers(0, k, n)[:, None]
    _, peak = traced_peak(lambda: kmeans(x, k, restarts=restarts, max_iter=20))
    assert peak <= 5 * 8 * n * (c + k)


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


def test_max_matching_total_matches_linear_sum_assignment():
    rng = np.random.default_rng(15)
    for i in range(400):
        shape = rng.integers(1, 9, 2) if i % 2 else np.repeat(rng.integers(1, 9), 2)
        table = rng.integers(0, [3, 50, 10**6][i % 3], shape)
        if i % 5 == 0:
            table[:, -1] = table[:, 0]  # tied columns
        rows, cols = linear_sum_assignment(-table)
        assert _max_matching_total(table) == table[rows, cols].sum()


def test_acc_matches_linear_sum_assignment():
    rng = np.random.default_rng(16)
    for i in range(100):
        n = int(rng.integers(5, 400))
        pred = rng.integers(0, int(rng.integers(1, 12)), n)
        truth = rng.integers(0, int(rng.integers(1, 12)), n)
        _, pi = np.unique(pred, return_inverse=True)
        _, ti = np.unique(truth, return_inverse=True)
        table = np.zeros((pi.max() + 1, ti.max() + 1), dtype=np.int64)
        np.add.at(table, (pi, ti), 1)
        rows, cols = linear_sum_assignment(-table)
        assert hungarian_acc(pred, truth) == float(table[rows, cols].sum()) / n


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


@pytest.mark.parametrize(
    "ratios, named",
    [
        ((-0.5, 1.0, 0.5), "[0, 1]"),
        ((0.5, 1.5, -1.0), "[0, 1]"),
        ((float("nan"), 0.5, 0.5), "[0, 1]"),
        ((0.5, 0.5), "three"),
        ((0.5, 0.5, 0.0), "test split"),
        ((0.6, 0.39, 0.01), "test split"),
    ],
)
def test_splits_refuse_bad_ratios_and_empty_test(ratios, named):
    labels = np.repeat(np.arange(4), 10)
    with pytest.raises(ValidationError, match=re.escape(named)):
        make_splits(labels, ratios, n_splits=2, seed=0)


def test_splits_allow_empty_validation():
    labels = np.repeat(np.arange(3), 8)
    for tr, va, te in make_splits(labels, (0.75, 0.0, 0.25), n_splits=2).splits:
        assert va.size == 0 and tr.size == 18 and te.size == 6
        acc = linear_probe(np.eye(3)[labels], labels, (tr, va, te), max_epochs=20)
        assert 0.0 <= acc <= 1.0


# ---------------------------------------------------------------------------
# linear_probe
# ---------------------------------------------------------------------------


def test_probe_refuses_empty_test_split():
    labels = np.repeat(np.arange(2), 5)
    split = (np.arange(10), np.array([], dtype=np.int64), np.array([], dtype=np.int64))
    with pytest.raises(ValidationError, match="test split is empty"):
        linear_probe(np.eye(2)[labels], labels, split)


@pytest.mark.parametrize(
    "call, named",
    [
        (lambda labels, split: make_splits(labels, n_splits=0), "n_splits must be >= 1, got 0"),
        (lambda labels, split: linear_probe(np.eye(2)[labels], labels, split, max_epochs=0),
         "max_epochs must be >= 1, got 0"),
        (lambda labels, split: linear_probe(np.eye(2)[labels], labels, split, lr=float("nan")),
         "lr must be a finite number > 0, got nan"),
        (lambda labels, split: linear_probe(np.eye(2)[labels], labels, split, lr=-1),
         "lr must be a finite number > 0, got -1"),
    ],
    ids=["n_splits=0", "max_epochs=0", "lr=nan", "lr=-1"],
)
def test_evaluation_refuses_bad_parameters(call, named):
    """Unchecked, each of these returns a result: no splits, or the test
    accuracy of untrained or loss-ascending weights."""
    labels = np.repeat(np.arange(2), 10)
    split = make_splits(labels, n_splits=1).splits[0]
    with pytest.raises(ValidationError, match=re.escape(named)):
        call(labels, split)


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


def _reference_softmax(logits):
    row_max = logits[:, :1].copy()
    for j in range(1, logits.shape[1]):
        np.maximum(row_max, logits[:, j : j + 1], out=row_max)
    z = logits - row_max
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _reference_fit_probe(x, y, x_val, y_val, n_classes, max_epochs=500, lr=1e-2, patience=100):
    """The row-major probe fit that the class-major softmax replaced."""
    xa = np.column_stack([x, np.ones(x.shape[0])])
    xva = np.column_stack([x_val, np.ones(x_val.shape[0])])
    w = np.zeros((xa.shape[1], n_classes))
    state = AdamState.zeros_like(w)
    onehot = np.zeros((y.size, n_classes))
    onehot[np.arange(y.size), y] = 1.0
    best_w = w.copy()
    best_acc = -1.0
    since_best = 0
    for _ in range(max_epochs):
        probs = _reference_softmax(xa @ w)
        grad = xa.T @ (probs - onehot) / y.size
        w, state = adam_step(state, w, grad, lr)
        if y_val.size:
            val_acc = float(((xva @ w).argmax(axis=1) == y_val).mean())
        else:  # degenerate split: fall back to training accuracy
            val_acc = float(((xa @ w).argmax(axis=1) == y).mean())
        if val_acc > best_acc:
            best_acc = val_acc
            best_w = w.copy()
            since_best = 0
        else:
            since_best += 1
            if since_best >= patience:
                break
    return best_w


def _probe_case(n, d, n_classes, seed, n_val, n_test, rounded=False):
    """Embeddings with a class signal, and a random (train, val, test) split
    in which every class has a training node."""
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % n_classes
    y_hat = rng.standard_normal((n, d)) + 0.5 * rng.standard_normal((n_classes, d))[labels]
    if rounded:  # few distinct values: tied logits, tied validation accuracies
        y_hat = np.round(y_hat)
    order = rng.permutation(np.arange(n_classes, n))
    val, test = order[:n_val], order[n_val : n_val + n_test]
    train = np.concatenate([np.arange(n_classes), order[n_val + n_test :]])
    return y_hat, labels, tuple(np.sort(s) for s in (train, val, test))


def _probe_cases():
    for c in range(2, 13):
        yield f"classes{c}", _probe_case(30 * c, 6, c, c, 9 * c, 6 * c), {"max_epochs": 150}
    yield "empty_val", _probe_case(120, 5, 3, 20, 0, 30), {"max_epochs": 150}
    yield "rounded", _probe_case(160, 4, 4, 21, 50, 30, rounded=True), {"max_epochs": 200}
    yield "rounded_classes9", _probe_case(180, 3, 9, 22, 50, 30, rounded=True), {
        "max_epochs": 200
    }
    yield "patience", _probe_case(200, 8, 3, 23, 60, 40), {"max_epochs": 500, "patience": 5}
    # the split of the benchmark's classify command: 1920 train, 1280 val
    yield "shape_1920x64_classes4", _probe_case(4000, 64, 4, 24, 1280, 800), {}


@pytest.mark.parametrize(
    "case, kwargs", [(c, k) for _, c, k in _probe_cases()], ids=[i for i, _, _ in _probe_cases()]
)
def test_fit_probe_matches_row_major_reference(monkeypatch, case, kwargs):
    """The class-major probe returns the reference's weights byte for byte,
    after the same number of epochs, and linear_probe its test accuracy."""
    import amlp.evaluate
    from amlp import model

    y_hat, labels, (train, val, test) = case
    steps = []

    def counting_step(*args):
        steps.append(None)
        return model.adam_step(*args)

    monkeypatch.setattr(amlp.evaluate, "adam_step", counting_step)
    monkeypatch.setitem(globals(), "adam_step", counting_step)
    n_classes = int(labels.max()) + 1
    fit_args = (y_hat[train], labels[train], y_hat[val], labels[val], n_classes)
    want = _reference_fit_probe(*fit_args, **kwargs)
    epochs = len(steps)
    got = amlp.evaluate._fit_probe(*fit_args, **kwargs)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert len(steps) == 2 * epochs
    if "patience" in kwargs:
        assert epochs < kwargs["max_epochs"]
    # linear_probe takes no patience: it fits with the default
    probe_kwargs = {k: v for k, v in kwargs.items() if k != "patience"}
    if probe_kwargs != kwargs:
        want = _reference_fit_probe(*fit_args, **probe_kwargs)
    xt = np.column_stack([y_hat[test], np.ones(test.size)])
    acc = float(((xt @ want).argmax(axis=1) == labels[test]).mean())
    assert linear_probe(y_hat, labels, (train, val, test), **probe_kwargs) == acc


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_probe_rejects_non_finite_input(bad):
    y_hat, labels, split = _probe_case(60, 3, 2, 0, 20, 10)
    y_hat[7, 1] = bad
    with pytest.raises(ValidationError, match="linear-probe input must be finite"):
        linear_probe(y_hat, labels, split)


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


@pytest.mark.parametrize("n_classes", range(2, 13))
def test_softmax_matches_reduction_formula(n_classes):
    rng = np.random.default_rng(n_classes)
    logits = rng.standard_normal((300, n_classes)) * 5
    logits[:100] = np.round(logits[:100])  # ties, including the row max
    logits[100:110] = logits[100:110, :1]  # every class tied
    logits[110:120, 0] = -0.0
    logits[110:120, 1:] = 0.0
    logits[120:130] = -logits[120:130, ::-1]
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    want = e / e.sum(axis=1, keepdims=True)
    got = _softmax(logits)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
