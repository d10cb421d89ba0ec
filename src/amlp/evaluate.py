"""Clustering and classification evaluation.

K-means (k-means++ seeding, restarts, deterministic given one seed),
Hungarian-matched clustering accuracy, NMI with geometric-mean normalization,
stratified split generation, a frozen-embedding linear probe, and the
high-order dissimilarity diagnostic comparing two nodes' interaction patterns
with every third node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .graph import SparseGraph, check_labels, row_normalize
from .model import AdamState, _adam_scratch, adam_step

KMEANS_RESTARTS = 10
SPLIT_RATIOS = (0.48, 0.32, 0.20)
N_SPLITS = 10


@dataclass
class ClusterResult:
    assignments: np.ndarray
    centroids: np.ndarray
    inertia: float
    restarts_used: int


@dataclass
class SplitSet:
    """Disjoint (train, val, test) index arrays over the labeled nodes."""

    splits: list[tuple[np.ndarray, np.ndarray, np.ndarray]]
    ratios: tuple[float, float, float]


@dataclass
class MetricsRecord:
    acc_values: list[float]
    nmi_values: list[float]

    @property
    def acc_mean(self) -> float:
        return float(np.mean(self.acc_values))

    @property
    def acc_std(self) -> float:
        return float(np.std(self.acc_values))

    @property
    def nmi_mean(self) -> float:
        return float(np.mean(self.nmi_values))

    @property
    def nmi_std(self) -> float:
        return float(np.std(self.nmi_values))

    def as_dict(self) -> dict:
        return {
            "acc": {
                "per_seed": self.acc_values,
                "mean": self.acc_mean,
                "std": self.acc_std,
            },
            "nmi": {
                "per_seed": self.nmi_values,
                "mean": self.nmi_mean,
                "std": self.nmi_std,
            },
        }


# ---------------------------------------------------------------------------
# K-means
# ---------------------------------------------------------------------------


def _sq_dists(x: np.ndarray, x_sq: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances from the rows of x to a stack of centroid
    sets (A x k x c), as an A x k x N block; ``x_sq`` holds the squared row
    norms of x, computed once per k-means call.

    One (N x c)(c x A*k) product serves every set, so block a rounds as
    columns a*k to (a+1)*k of ``x @ centroids.reshape(-1, c).T`` do, and a
    single set as ``x @ centroids[0].T`` (k-means++ seeding relies on this).
    ``-2p + |x|^2`` equals ``|x|^2 - 2p`` bit for bit, and the k x N layout
    keeps the elementwise passes and the argmin chain on rows of length N.
    """
    sets, k, c = centroids.shape
    prod = x @ centroids.reshape(-1, c).T
    d2 = np.multiply(prod.T, -2.0, order="C").reshape(sets, k, -1)
    d2 += x_sq
    d2 += np.einsum("aij,aij->ai", centroids, centroids)[:, :, None]
    return np.maximum(d2, 0.0, out=d2)


def _nearest(d2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Index and value of each point's nearest centroid in an A x k x N
    distance block, as two A x N arrays. Strict ``<`` over increasing j keeps
    the first minimum, as ``argmin`` does on finite distances."""
    assign = np.zeros(d2[:, 0].shape, dtype=np.intp)
    cost = d2[:, 0].copy()
    for j in range(1, d2.shape[1]):
        closer = d2[:, j] < cost
        np.minimum(cost, d2[:, j], out=cost)
        # j exceeds every index set so far, so max() writes j where closer
        np.maximum(assign, closer * j, out=assign)
    return assign, cost


def _kmeanspp_init(
    x: np.ndarray, x_sq: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    n = x.shape[0]
    centroids = np.empty((k, x.shape[1]))
    first = int(rng.integers(n))
    centroids[0] = x[first]
    closest = _sq_dists(x, x_sq, centroids[None, :1])[0, 0]
    for j in range(1, k):
        total = closest.sum()
        if total <= 0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=closest / total))
        centroids[j] = x[idx]
        closest = np.minimum(closest, _sq_dists(x, x_sq, centroids[None, j : j + 1])[0, 0])
    return centroids


def _cluster_means(x: np.ndarray, labels: np.ndarray, costs: np.ndarray, out: np.ndarray) -> None:
    """Each cluster's exact mean into ``out``, in np.mean's arithmetic (row
    sum, then / count) without its overhead. An empty cluster seizes the
    costliest point; zeroing its cost keeps a later one from seizing it."""
    for j in range(out.shape[0]):
        members = np.flatnonzero(labels == j)
        if members.size:
            out[j] = x.take(members, axis=0).sum(axis=0) / members.size
        else:
            far = int(costs.argmax())
            out[j] = x[far]
            labels[far] = j
            costs[far] = 0.0


def _lloyd(
    x: np.ndarray,
    centroids: np.ndarray,
    max_iter: int,
    x_sq: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, list[list[float]]]:
    """Lloyd iterations for a stack of restarts, each until its assignment
    reaches a fixpoint.

    ``centroids`` (R x k x c) holds each restart's initial centroids and is
    updated in place. The A active restarts advance together: one distance
    product per iteration, and one (A*k x N)(N x c) product of the one-hot
    assignments with x, whose sums / counts are the next centroids. A restart
    that empties a cluster, reaches its fixpoint or ``max_iter`` takes
    ``_cluster_means`` instead, so it drops out with exact means. Returns
    (assignments R x N, centroids, inertia_history), one history list per
    restart with one entry per iteration, from that iteration's assignment.
    """
    if x_sq is None:
        x_sq = np.einsum("ij,ij->i", x, x)
    restarts, k, c = centroids.shape
    n = x.shape[0]
    assign = np.empty((restarts, n), dtype=np.intp)
    history: list[list[float]] = [[] for _ in range(restarts)]
    active = list(range(restarts))
    for it in range(max_iter):
        new_assign, costs = _nearest(_sq_dists(x, x_sq, centroids[active]))
        onehot = (new_assign[:, None] == np.arange(k)[:, None]).astype(np.float64)
        counts = onehot.sum(axis=2)
        sums = (onehot.reshape(-1, n) @ x).reshape(-1, k, c)
        del onehot  # so it never meets the next iteration's distance block
        still = []
        for new, point_costs, total, count, r in zip(new_assign, costs, sums, counts, active):
            history[r].append(float(point_costs.sum()))
            if it == max_iter - 1 or not count.all() or (it > 0 and np.array_equal(assign[r], new)):
                _cluster_means(x, new, point_costs, centroids[r])
            else:
                np.divide(total, count[:, None], out=centroids[r])
            if it == 0 or not np.array_equal(assign[r], new):
                assign[r] = new
                still.append(r)
        active = still
        if not active:
            break
    return assign, centroids, history


def kmeans(
    x: np.ndarray,
    k: int,
    seed: int = 0,
    restarts: int = KMEANS_RESTARTS,
    max_iter: int = 300,
) -> ClusterResult:
    """K-means with k-means++ seeding; best inertia over restarts.

    All randomness flows from one generator seeded with ``seed``: every
    restart's seeding is drawn first, then the restarts run together in
    groups of A = max(1, c // k), so a group's distance and one-hot blocks,
    A*k x N <= max(c, k) x N, take O(N * (c + k)) memory however many
    restarts there are. Each restart ends on the exact means of its last
    assignment. Results are deterministic; ties between restarts keep the
    earlier one.
    """
    x = np.asarray(x, dtype=np.float64)
    if k < 1:
        raise ValidationError("k must be >= 1")
    if k > x.shape[0]:
        raise ValidationError(f"k={k} exceeds number of points {x.shape[0]}")
    if restarts < 1:
        raise ValidationError(f"restarts must be >= 1, got {restarts}")
    if max_iter < 1:
        raise ValidationError(f"max_iter must be >= 1, got {max_iter}")
    x_sq = np.einsum("ij,ij->i", x, x)
    if not np.isfinite(x_sq).all():
        raise ValidationError(
            "k-means input must be finite: a row holds NaN or inf, or its "
            "squared norm overflows"
        )
    rng = np.random.default_rng(seed)
    inits = np.stack([_kmeanspp_init(x, x_sq, k, rng) for _ in range(restarts)])
    group = max(1, x.shape[1] // k)
    best: ClusterResult | None = None
    for start in range(0, restarts, group):
        assign, centroids, _ = _lloyd(x, inits[start : start + group], max_iter, x_sq)
        for labels, cents in zip(assign, centroids):
            diffs = x - cents[labels]
            inertia = float(np.einsum("ij,ij->", diffs, diffs))
            if best is None or inertia < best.inertia:
                best = ClusterResult(labels.copy(), cents.copy(), inertia, restarts)
    return best


# ---------------------------------------------------------------------------
# Partition metrics
# ---------------------------------------------------------------------------


def _paired_labels(pred: np.ndarray, truth: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape or pred.ndim != 1:
        raise ValidationError("pred and truth must be 1-d arrays of equal length")
    mask = (truth >= 0) & (pred >= 0)
    if not mask.any():
        raise ValidationError("no labeled pairs to evaluate")
    return pred[mask], truth[mask]


def _contingency(pred: np.ndarray, truth: np.ndarray) -> np.ndarray:
    _, pi = np.unique(pred, return_inverse=True)
    _, ti = np.unique(truth, return_inverse=True)
    table = np.zeros((pi.max() + 1, ti.max() + 1), dtype=np.int64)
    np.add.at(table, (pi, ti), 1)
    return table


def _max_matching_total(table: np.ndarray) -> int:
    """Largest total of a one-to-one matching between the rows and columns
    of a non-negative integer table: Kuhn-Munkres with potentials, O(n^3) for
    n = max(table.shape), exact in int64. The table is padded with zeros to
    n x n, which leaves the largest total unchanged."""
    n = max(table.shape)
    # 1-based square cost matrix; row and column 0 are the algorithm's sentinel
    cost = np.zeros((n + 1, n + 1), dtype=np.int64)
    cost[1 : table.shape[0] + 1, 1 : table.shape[1] + 1] = -table
    inf = np.iinfo(np.int64).max // 2
    u = np.zeros(n + 1, dtype=np.int64)  # row potentials
    v = np.zeros(n + 1, dtype=np.int64)  # column potentials
    match = np.zeros(n + 1, dtype=np.int64)  # match[j]: row matched to column j
    way = np.zeros(n + 1, dtype=np.int64)
    for i in range(1, n + 1):
        # grow a shortest augmenting path from row i, Dijkstra-style over columns
        match[0] = i
        j0 = 0
        minv = np.full(n + 1, inf, dtype=np.int64)
        used = np.zeros(n + 1, dtype=bool)
        while match[j0] != 0:
            used[j0] = True
            i0 = match[j0]
            free = ~used
            reduced = cost[i0] - u[i0] - v
            better = free & (reduced < minv)
            minv[better] = reduced[better]
            way[better] = j0
            slack = np.where(free, minv, inf)
            j1 = int(slack.argmin())
            delta = slack[j1]
            u[match[used]] += delta
            v[used] -= delta
            minv[free] -= delta
            j0 = j1
        while j0 != 0:  # augment along the path
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    rows = match[1:] - 1
    cols = np.arange(n)
    real = (rows < table.shape[0]) & (cols < table.shape[1])
    return int(table[rows[real], cols[real]].sum())


def hungarian_acc(pred: np.ndarray, truth: np.ndarray) -> float:
    """Clustering accuracy under the optimal cluster-to-class matching."""
    pred, truth = _paired_labels(pred, truth)
    return _max_matching_total(_contingency(pred, truth)) / pred.size


def _entropy(counts: np.ndarray) -> float:
    p = counts / counts.sum()
    p = p[p > 0]
    return float(-(p * np.log(p)).sum())


def nmi(pred: np.ndarray, truth: np.ndarray) -> float:
    """Mutual information normalized by the geometric mean of the entropies.

    Identical partitions give 1.0; if either partition has zero entropy and
    the partitions differ, the value is 0.0.
    """
    pred, truth = _paired_labels(pred, truth)
    table = _contingency(pred, truth)
    # identical up to relabelling: each cluster meets one class, and each
    # class one cluster
    met = table > 0
    if (met.sum(axis=0) == 1).all() and (met.sum(axis=1) == 1).all():
        return 1.0
    table = table.astype(np.float64)
    n = table.sum()
    h_pred = _entropy(table.sum(axis=1))
    h_truth = _entropy(table.sum(axis=0))
    if h_pred == 0.0 or h_truth == 0.0:
        return 0.0
    pij = table / n
    pi = pij.sum(axis=1, keepdims=True)
    pj = pij.sum(axis=0, keepdims=True)
    nz = pij > 0
    mi = float((pij[nz] * np.log(pij[nz] / (pi @ pj)[nz])).sum())
    return mi / np.sqrt(h_pred * h_truth)


# ---------------------------------------------------------------------------
# Splits and linear probe
# ---------------------------------------------------------------------------


def _largest_remainder(total: int, ratios: np.ndarray) -> np.ndarray:
    quotas = total * ratios
    counts = np.floor(quotas).astype(np.int64)
    rem = total - counts.sum()
    order = np.argsort(-(quotas - counts), kind="stable")
    counts[order[:rem]] += 1
    return counts


def make_splits(
    labels: np.ndarray,
    ratios: tuple[float, float, float] = SPLIT_RATIOS,
    n_splits: int = N_SPLITS,
    seed: int = 0,
) -> SplitSet:
    """Stratified random (train, val, test) partitions of the labeled nodes.

    Deterministic per (seed, split index). Per-class counts follow the
    largest-remainder rule (so each class's segment sizes stay within one
    node of its exact quota), a correction pass pins the global segment
    sizes to within one node of the targets, and every class keeps at least
    one training node. Each ratio must lie in [0, 1]. A split with no test
    node is refused; an empty validation split is allowed, and
    ``linear_probe`` then picks its checkpoint by training accuracy.
    """
    labels = check_labels(labels)
    ratios_arr = np.asarray(ratios, dtype=np.float64)
    if ratios_arr.shape != (3,):
        raise ValidationError("ratios must be three fractions (train, val, test)")
    if not np.all((ratios_arr >= 0.0) & (ratios_arr <= 1.0)):
        raise ValidationError(f"ratios must lie in [0, 1], got {ratios_arr.tolist()}")
    if abs(ratios_arr.sum() - 1.0) > 1e-9:
        raise ValidationError("ratios must sum to 1")
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    if n_splits < 1:
        raise ValidationError(f"n_splits must be >= 1, got {n_splits}")
    labeled = np.flatnonzero(labels >= 0)
    if labeled.size == 0:
        raise ValidationError("no labeled nodes to split")
    classes = np.unique(labels[labeled])
    global_target = _largest_remainder(labeled.size, ratios_arr)
    # the counts draw no random numbers, so every split shares them
    members = {int(c): labeled[labels[labeled] == c] for c in classes}
    per_class_counts = {}
    for c, idx in members.items():
        counts = _largest_remainder(idx.size, ratios_arr)
        if counts[0] == 0:  # at least one train node per class
            donor = int(np.argmax(counts[1:])) + 1
            counts[donor] -= 1
            counts[0] += 1
        per_class_counts[c] = counts
    _balance_global(per_class_counts, global_target, ratios_arr)
    splits = []
    for s in range(n_splits):
        rng = np.random.default_rng((seed, s))
        segs: list[list[np.ndarray]] = [[], [], []]
        for c, idx in members.items():
            idx = rng.permutation(idx)
            counts = per_class_counts[c]
            segs[0].append(idx[: counts[0]])
            segs[1].append(idx[counts[0] : counts[0] + counts[1]])
            segs[2].append(idx[counts[0] + counts[1] :])
        split = tuple(np.sort(np.concatenate(s_)) for s_ in segs)
        if split[2].size == 0:
            raise ValidationError(
                f"ratios {ratios_arr.tolist()} leave the test split of "
                f"{labeled.size} labeled nodes empty"
            )
        splits.append(split)
    return SplitSet(splits=splits, ratios=tuple(float(r) for r in ratios_arr))


def _balance_global(per_class_counts, global_target, ratios):
    """Move single nodes between segments of some class until global segment
    sizes match the targets, keeping per-class counts within one of quota."""
    for _ in range(len(per_class_counts) * 6):
        totals = np.sum(list(per_class_counts.values()), axis=0)
        diff = totals - global_target
        if not diff.any():
            return
        src = int(np.argmax(diff))
        dst = int(np.argmin(diff))
        for c, counts in sorted(per_class_counts.items()):
            n_c = counts.sum()
            quota_src = n_c * ratios[src]
            quota_dst = n_c * ratios[dst]
            min_src = 1 if src == 0 else 0
            if counts[src] - 1 >= max(np.floor(quota_src), min_src) and counts[
                dst
            ] + 1 <= np.ceil(quota_dst):
                counts[src] -= 1
                counts[dst] += 1
                break
        else:
            return  # no legal move; leave as is


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Row softmax of an n x C logit array, bit for bit
    ``e / e.sum(axis=1, keepdims=True)`` with ``e = exp(logits - row max)``.

    The work runs class-major, on a C x n copy, so every numpy call runs
    over rows of length n instead of inner loops of length C; the last
    division writes the n x C, C-contiguous result.
    """
    n, c = logits.shape
    t = logits.T.copy()
    # reductions over axis 0 combine the class rows in order, elementwise
    row = np.maximum.reduce(t, axis=0)
    t -= row
    np.exp(t, out=t)
    if c < 8:
        # numpy adds fewer than 8 terms of a row in order, as this does
        row = np.add.reduce(t, axis=0)
    else:
        # from 8 terms on it adds a row's terms over 8 lanes pairwise
        row = np.add.reduce(t.T.copy(), axis=1)
    out = np.empty((n, c))
    np.divide(t, row, out=out.T)
    return out


def _fit_probe(
    x: np.ndarray,
    y: np.ndarray,
    x_val: np.ndarray,
    y_val: np.ndarray,
    n_classes: int,
    max_epochs: int = 500,
    lr: float = 1e-2,
    patience: int = 100,
) -> np.ndarray:
    """Multinomial logistic regression, full-batch Adam, best-val checkpoint.

    Features are augmented with a constant column for the bias; an empty
    validation split falls back to training accuracy. Returns the (d+1) x C
    weight matrix at the epoch with the best validation accuracy.
    """
    xa = np.column_stack([x, np.ones(x.shape[0])])
    if y_val.size:
        xva = np.column_stack([x_val, np.ones(x_val.shape[0])])
    else:
        xva, y_val = xa, y
    w = np.zeros((xa.shape[1], n_classes))
    state = AdamState.zeros_like(w)
    adam_scratch = _adam_scratch(w)
    onehot = np.zeros((y.size, n_classes))
    onehot[np.arange(y.size), y] = 1.0
    best_w = w.copy()
    best_acc = -1.0
    since_best = 0
    for _ in range(max_epochs):
        resid = _softmax(xa @ w)
        resid -= onehot
        grad = xa.T @ resid / y.size
        w, state = adam_step(state, w, grad, lr, *adam_scratch)
        hits = np.count_nonzero((xva @ w).argmax(axis=1) == y_val)
        val_acc = hits / y_val.size
        if val_acc > best_acc:
            best_acc = val_acc
            best_w = w.copy()
            since_best = 0
        else:
            since_best += 1
            if since_best >= patience:
                break
    return best_w


def linear_probe(
    y_hat: np.ndarray,
    labels: np.ndarray,
    split: tuple[np.ndarray, np.ndarray, np.ndarray],
    max_epochs: int = 500,
    lr: float = 1e-2,
) -> float:
    """Frozen-embedding linear classifier; returns test accuracy at the
    best-validation checkpoint."""
    if max_epochs < 1:
        raise ValidationError(f"max_epochs must be >= 1, got {max_epochs}")
    if not 0 < lr < np.inf:
        raise ValidationError(f"lr must be a finite number > 0, got {lr}")
    y_hat = np.asarray(y_hat)
    if not np.isfinite(y_hat).all():
        raise ValidationError("linear-probe input must be finite: y_hat holds NaN or inf")
    labels = check_labels(labels)
    train_idx, val_idx, test_idx = (np.asarray(s) for s in split)
    if test_idx.size == 0:
        raise ValidationError("the test split is empty")
    classes = np.unique(labels[labels >= 0])
    n_classes = int(classes.max()) + 1
    present = np.unique(labels[train_idx])
    missing = np.setdiff1d(classes, present)
    if missing.size:
        raise ValidationError(f"classes {missing.tolist()} absent from train split")
    w = _fit_probe(
        y_hat[train_idx],
        labels[train_idx],
        y_hat[val_idx],
        labels[val_idx],
        n_classes,
        max_epochs=max_epochs,
        lr=lr,
    )
    xt = np.column_stack([y_hat[test_idx], np.ones(test_idx.size)])
    return float(((xt @ w).argmax(axis=1) == labels[test_idx]).mean())


# ---------------------------------------------------------------------------
# High-order dissimilarity diagnostic
# ---------------------------------------------------------------------------


def high_order_dissimilarity(
    x: np.ndarray, g: SparseGraph, i: int, j: int
) -> tuple[float, float]:
    """Dissimilarity terms between nodes i and j.

    The first term compares the nodes directly (squared distances of the
    row-normalized feature and adjacency rows); the second compares their
    interaction patterns with every third node m: the sum over m of
    |Xh_i . Xh_m - Xh_j . Xh_m| + |Ah_i . Ah_m - Ah_j . Ah_m|. Zero-norm rows
    contribute zero, matching the row-normalization convention.
    """
    x = np.asarray(x, dtype=np.float64)
    n = g.n_nodes
    if not (0 <= i < n and 0 <= j < n):
        raise ValidationError("node index out of range")
    if x.shape[0] != n:
        raise ValidationError("feature rows do not match graph size")
    if i == j:
        return 0.0, 0.0
    import scipy.sparse as sp

    xh = row_normalize(x)
    deg = g.degrees().astype(np.float64)
    inv = np.zeros(n)
    inv[deg > 0] = 1.0 / np.sqrt(deg[deg > 0])
    ah = sp.diags(inv) @ g.to_scipy()
    ah_i = np.asarray(ah[i].todense()).ravel()
    ah_j = np.asarray(ah[j].todense()).ravel()
    m_term = float(np.sum((xh[i] - xh[j]) ** 2) + np.sum((ah_i - ah_j) ** 2))
    x_diff = np.abs(xh @ xh[i] - xh @ xh[j])
    a_diff = np.abs(np.asarray(ah @ ah_i).ravel() - np.asarray(ah @ ah_j).ravel())
    mask = np.ones(n, dtype=bool)
    mask[[i, j]] = False
    n_term = float(x_diff[mask].sum() + a_diff[mask].sum())
    return m_term, n_term
