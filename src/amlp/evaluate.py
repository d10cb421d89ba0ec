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
import scipy.sparse as sp

from .errors import ValidationError
from .graph import SparseGraph, check_labels, row_normalize
from .model import AdamState, adam_step


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

    def as_dict(self) -> dict:
        return {
            "ratios": list(self.ratios),
            "splits": [
                {"train": tr.tolist(), "val": va.tolist(), "test": te.tolist()}
                for tr, va, te in self.splits
            ],
        }


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
    """Squared Euclidean distances, N x k; ``x_sq`` holds the squared row
    norms of x, computed once per k-means call."""
    d2 = (
        x_sq[:, None]
        - 2.0 * (x @ centroids.T)
        + np.einsum("ij,ij->i", centroids, centroids)[None, :]
    )
    return np.maximum(d2, 0.0)


def _kmeanspp_init(
    x: np.ndarray, x_sq: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    n = x.shape[0]
    centroids = np.empty((k, x.shape[1]))
    first = int(rng.integers(n))
    centroids[0] = x[first]
    closest = _sq_dists(x, x_sq, centroids[:1]).ravel()
    for j in range(1, k):
        total = closest.sum()
        if total <= 0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=closest / total))
        centroids[j] = x[idx]
        closest = np.minimum(closest, _sq_dists(x, x_sq, centroids[j : j + 1]).ravel())
    return centroids


def _lloyd(
    x: np.ndarray,
    centroids: np.ndarray,
    max_iter: int,
    x_sq: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """Lloyd iterations until the assignment reaches a fixpoint.

    Returns (assignments, centroids, inertia_history), one history entry per
    iteration (computed from that iteration's assignment).
    """
    if x_sq is None:
        x_sq = np.einsum("ij,ij->i", x, x)
    k = centroids.shape[0]
    assign = None
    history: list[float] = []
    for _ in range(max_iter):
        d2 = _sq_dists(x, x_sq, centroids)
        new_assign = d2.argmin(axis=1)
        history.append(float(d2[np.arange(x.shape[0]), new_assign].sum()))
        point_costs = d2[np.arange(x.shape[0]), new_assign].copy()
        for j in range(k):
            members = new_assign == j
            if members.any():
                centroids[j] = x[members].mean(axis=0)
            else:
                # deterministically seize the costliest point; zeroing its
                # cost keeps a later empty cluster from seizing it again
                far = int(point_costs.argmax())
                centroids[j] = x[far]
                new_assign[far] = j
                point_costs[far] = 0.0
        if assign is not None and np.array_equal(assign, new_assign):
            break
        assign = new_assign
    return assign, centroids, history


def kmeans(
    x: np.ndarray,
    k: int,
    seed: int = 0,
    restarts: int = 10,
    max_iter: int = 300,
) -> ClusterResult:
    """K-means with k-means++ seeding; best inertia over restarts.

    All randomness flows from one generator seeded with ``seed``, so results
    are deterministic; ties between restarts keep the earlier one.
    """
    x = np.asarray(x, dtype=np.float64)
    if k < 1:
        raise ValidationError("k must be >= 1")
    if k > x.shape[0]:
        raise ValidationError(f"k={k} exceeds number of points {x.shape[0]}")
    if restarts < 1:
        raise ValidationError(f"restarts must be >= 1, got {restarts}")
    rng = np.random.default_rng(seed)
    x_sq = np.einsum("ij,ij->i", x, x)
    best: ClusterResult | None = None
    for r in range(restarts):
        init = _kmeanspp_init(x, x_sq, k, rng)
        assign, centroids, _ = _lloyd(x, init, max_iter, x_sq)
        diffs = x - centroids[assign]
        inertia = float(np.einsum("ij,ij->", diffs, diffs))
        if best is None or inertia < best.inertia:
            best = ClusterResult(
                assignments=assign,
                centroids=centroids,
                inertia=inertia,
                restarts_used=restarts,
            )
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


def hungarian_acc(pred: np.ndarray, truth: np.ndarray) -> float:
    """Clustering accuracy under the optimal cluster-to-class matching."""
    # imported here: scipy.optimize costs about 0.3 s, and most commands never score
    from scipy.optimize import linear_sum_assignment

    pred, truth = _paired_labels(pred, truth)
    table = _contingency(pred, truth)
    rows, cols = linear_sum_assignment(-table)
    return float(table[rows, cols].sum()) / pred.size


def _entropy(counts: np.ndarray) -> float:
    p = counts / counts.sum()
    p = p[p > 0]
    return float(-(p * np.log(p)).sum())


def _same_partition(a: np.ndarray, b: np.ndarray) -> bool:
    # canonical form: relabel by order of first appearance
    def canon(v):
        first = {}
        out = np.empty(v.size, dtype=np.int64)
        for i, lab in enumerate(v.tolist()):
            out[i] = first.setdefault(lab, len(first))
        return out

    return np.array_equal(canon(a), canon(b))


def nmi(pred: np.ndarray, truth: np.ndarray) -> float:
    """Mutual information normalized by the geometric mean of the entropies.

    Identical partitions give 1.0; if either partition has zero entropy and
    the partitions differ, the value is 0.0.
    """
    pred, truth = _paired_labels(pred, truth)
    if _same_partition(pred, truth):
        return 1.0
    table = _contingency(pred, truth).astype(np.float64)
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
    ratios: tuple[float, float, float] = (0.48, 0.32, 0.20),
    n_splits: int = 10,
    seed: int = 0,
) -> SplitSet:
    """Stratified random (train, val, test) partitions of the labeled nodes.

    Deterministic per (seed, split index). Per-class counts follow the
    largest-remainder rule (so each class's segment sizes stay within one
    node of its exact quota), a correction pass pins the global segment
    sizes to within one node of the targets, and every class keeps at least
    one training node.
    """
    labels = check_labels(labels)
    ratios_arr = np.asarray(ratios, dtype=np.float64)
    if abs(ratios_arr.sum() - 1.0) > 1e-9:
        raise ValidationError("ratios must sum to 1")
    labeled = np.flatnonzero(labels >= 0)
    if labeled.size == 0:
        raise ValidationError("no labeled nodes to split")
    classes = np.unique(labels[labeled])
    global_target = _largest_remainder(labeled.size, ratios_arr)
    splits = []
    for s in range(n_splits):
        rng = np.random.default_rng((seed, s))
        per_class_counts = {}
        for c in classes:
            idx = labeled[labels[labeled] == c]
            counts = _largest_remainder(idx.size, ratios_arr)
            if counts[0] == 0:  # at least one train node per class
                donor = int(np.argmax(counts[1:])) + 1
                counts[donor] -= 1
                counts[0] += 1
            per_class_counts[int(c)] = counts
        _balance_global(per_class_counts, global_target, ratios_arr, labels, labeled)
        segs: list[list[np.ndarray]] = [[], [], []]
        for c in classes:
            idx = labeled[labels[labeled] == c]
            idx = rng.permutation(idx)
            counts = per_class_counts[int(c)]
            segs[0].append(idx[: counts[0]])
            segs[1].append(idx[counts[0] : counts[0] + counts[1]])
            segs[2].append(idx[counts[0] + counts[1] :])
        splits.append(tuple(np.sort(np.concatenate(s_)) for s_ in segs))
    return SplitSet(splits=splits, ratios=tuple(float(r) for r in ratios_arr))


def _balance_global(per_class_counts, global_target, ratios, labels, labeled):
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
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


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

    Features are augmented with a constant column for the bias. Returns the
    (d+1) x C weight matrix at the epoch with the best validation accuracy.
    """
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
        probs = _softmax(xa @ w)
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


def linear_probe(
    y_hat: np.ndarray,
    labels: np.ndarray,
    split: tuple[np.ndarray, np.ndarray, np.ndarray],
    max_epochs: int = 500,
    lr: float = 1e-2,
) -> float:
    """Frozen-embedding linear classifier; returns test accuracy at the
    best-validation checkpoint."""
    labels = check_labels(labels)
    train_idx, val_idx, test_idx = (np.asarray(s) for s in split)
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
