"""Graph refinement from joint feature/structure similarity.

A candidate pair (i, j) is scored by the squared product of two cosines: the
cosine between feature rows X_i, X_j and the cosine between raw binary
adjacency rows A_i, A_j. Hard mode keeps the pair iff the score clears a
threshold epsilon; soft mode replaces the hard threshold with a sigmoid of
adjustable steepness, which converges to the hard decision as steepness grows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np
import scipy.sparse as sp

from .errors import ValidationError
from .graph import (
    SparseGraph,
    WeightedGraph,
    _csr_from_directed_pairs,
    check_features,
    graph_from_edges,
)

CANDIDATE_POLICIES = ("original_edges", "all_pairs")
MODES = ("hard", "soft")

DEFAULT_ALL_PAIRS_CAP = 20_000
_BLOCK = 512
# (edge, neighbour) lookups per chunk of _common_neighbors
_LOOKUP_CHUNK = 1 << 16


@dataclass(frozen=True)
class ReconstructionConfig:
    epsilon: float = 0.001
    candidate_policy: str = "original_edges"
    mode: str = "hard"
    steepness: float = 100.0
    all_pairs_cap: int = DEFAULT_ALL_PAIRS_CAP

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValidationError("epsilon must lie in (0, 1)")
        if self.candidate_policy not in CANDIDATE_POLICIES:
            raise ValidationError(f"candidate_policy must be one of {CANDIDATE_POLICIES}")
        if self.mode not in MODES:
            raise ValidationError(f"mode must be one of {MODES}")
        if self.steepness <= 0:
            raise ValidationError("steepness must be positive")


@dataclass
class ReconstructionStats:
    candidates_scored: int
    edges_kept: int
    edges_removed: int
    mean_score: float

    def as_dict(self) -> dict:
        return {
            "candidates_scored": self.candidates_scored,
            "edges_kept": self.edges_kept,
            "edges_removed": self.edges_removed,
            "mean_score": self.mean_score,
        }


def pair_score(x_i, x_j, a_i, a_j) -> float:
    """Squared product of feature-cosine and adjacency-row-cosine, in [0, 1].

    If either cosine is undefined (a zero-norm row), the score is 0: an
    undefined similarity is treated as no evidence of similarity.
    """
    x_i = np.asarray(x_i, dtype=np.float64).ravel()
    x_j = np.asarray(x_j, dtype=np.float64).ravel()
    a_i = np.asarray(a_i, dtype=np.float64).ravel()
    a_j = np.asarray(a_j, dtype=np.float64).ravel()
    sxi, sxj = float(x_i @ x_i), float(x_j @ x_j)
    sai, saj = float(a_i @ a_i), float(a_j @ a_j)
    if sxi == 0.0 or sxj == 0.0 or sai == 0.0 or saj == 0.0:
        return 0.0
    # sqrt of the squared-norm product keeps identical rows at exactly 1
    cx = float(x_i @ x_j) / np.sqrt(sxi * sxj)
    ca = float(a_i @ a_j) / np.sqrt(sai * saj)
    return float(np.clip((cx * ca) ** 2, 0.0, 1.0))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _iter_candidate_scores(
    g: SparseGraph, x: np.ndarray, cfg: ReconstructionConfig
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Yield (u, v, score) blocks over the candidate set, u < v."""
    if cfg.candidate_policy == "original_edges":
        edges = g.edge_array()
        yield edges[:, 0], edges[:, 1], _score_edge_candidates(g, x, edges)
        return
    if g.n_nodes > cfg.all_pairs_cap:
        raise ValidationError(
            f"all_pairs policy refused for {g.n_nodes} nodes "
            f"(cap {cfg.all_pairs_cap}); raise all_pairs_cap to override"
        )
    n = g.n_nodes
    sq = np.einsum("ij,ij->i", x, x)
    deg = g.degrees().astype(np.float64)
    a = g.to_scipy()
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
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


def _common_neighbors(g: SparseGraph, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Common-neighbour count of each pair (u[i], v[i]), i.e. (A·A)[u, v],
    without forming A·A (the masked product of Azad, Buluç & Gilbert, 2015).

    Each neighbour w of the lower-degree endpoint is looked up in the other
    endpoint's row by one binary search over the CSR's sorted keys
    ``row * N + col``: Σ min(d_u, d_v) lookups, done in chunks of about
    _LOOKUP_CHUNK so that memory stays O(m + chunk).
    """
    n = g.n_nodes
    deg = g.degrees()
    counts = np.zeros(u.size, dtype=np.int64)
    swap = deg[u] > deg[v]
    s = np.where(swap, v, u)
    t = np.where(swap, u, v)
    work = np.cumsum(deg[s])
    if u.size == 0 or work[-1] == 0:
        return counts
    keys = np.repeat(np.arange(n, dtype=np.int64), deg) * n + g.indices
    cuts = np.searchsorted(work, np.arange(_LOOKUP_CHUNK, work[-1], _LOOKUP_CHUNK))
    bounds = np.unique(np.concatenate(([0], cuts, [u.size])))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        size = deg[s[lo:hi]]
        edge = np.repeat(np.arange(hi - lo), size)
        # where each pair's neighbour sits in g.indices: the row start of s
        # plus the pair's rank within its edge
        start = g.indptr[s[lo:hi]] - (np.cumsum(size) - size)
        pos = np.arange(edge.size) + np.repeat(start, size)
        query = np.repeat(t[lo:hi] * n, size) + g.indices[pos]
        hit = keys.take(np.searchsorted(keys, query), mode="clip") == query
        counts[lo:hi] = np.bincount(edge[hit], minlength=hi - lo)
    return counts


def _score_edge_candidates(
    g: SparseGraph, x: np.ndarray, edges: np.ndarray
) -> np.ndarray:
    if edges.shape[0] == 0:
        return np.zeros(0, dtype=np.float64)
    u, v = edges[:, 0], edges[:, 1]
    sq = np.einsum("ij,ij->i", x, x)
    deg = g.degrees().astype(np.float64)
    # chunked so the x[u]/x[v] gather copies stay small
    dot_x = np.empty(u.size, dtype=np.float64)
    for i in range(0, u.size, 2048):
        sl = slice(i, i + 2048)
        dot_x[sl] = np.einsum("ij,ij->i", x[u[sl]], x[v[sl]])
    common = _common_neighbors(g, u, v)
    denom_x = np.sqrt(sq[u] * sq[v])
    denom_a = np.sqrt(deg[u] * deg[v])
    score = np.zeros(u.size, dtype=np.float64)
    ok = (denom_x > 0) & (denom_a > 0)
    score[ok] = ((dot_x[ok] / denom_x[ok]) * (common[ok] / denom_a[ok])) ** 2
    return np.clip(score, 0.0, 1.0)


class _StatsAccumulator:
    def __init__(self):
        self.total = 0
        self.kept = 0
        self.score_sum = 0.0

    def add(self, scores: np.ndarray, kept: int):
        self.total += int(scores.size)
        self.kept += kept
        self.score_sum += float(scores.sum())

    def finish(self) -> ReconstructionStats:
        return ReconstructionStats(
            candidates_scored=self.total,
            edges_kept=self.kept,
            edges_removed=self.total - self.kept,
            mean_score=self.score_sum / self.total if self.total else 0.0,
        )


def reconstruct_hard(
    g: SparseGraph, x: np.ndarray, cfg: ReconstructionConfig
) -> tuple[SparseGraph, ReconstructionStats]:
    """Refined graph S: candidate pairs with score >= epsilon survive."""
    if cfg.mode != "hard":
        raise ValidationError("reconstruct_hard requires cfg.mode == 'hard'")
    x = check_features(x, g.n_nodes)
    acc = _StatsAccumulator()
    us, vs = [], []
    for u, v, scores in _iter_candidate_scores(g, x, cfg):
        keep = scores >= cfg.epsilon
        acc.add(scores, int(keep.sum()))
        us.append(u[keep])
        vs.append(v[keep])
    u = np.concatenate(us) if us else np.zeros(0, dtype=np.int64)
    v = np.concatenate(vs) if vs else np.zeros(0, dtype=np.int64)
    return graph_from_edges(g.n_nodes, u, v), acc.finish()


def reconstruct_soft(
    g: SparseGraph, x: np.ndarray, cfg: ReconstructionConfig
) -> tuple[WeightedGraph, ReconstructionStats]:
    """Sigmoid-relaxed refinement: weight = sigmoid(steepness * (score - epsilon)).

    Same candidate set as hard mode; as steepness grows the weights converge
    to the hard 0/1 decisions (exactly 0.5 at score == epsilon). Stats count
    a candidate as kept when its score clears epsilon, i.e. weight >= 0.5.
    """
    if cfg.mode != "soft":
        raise ValidationError("reconstruct_soft requires cfg.mode == 'soft'")
    x = check_features(x, g.n_nodes)
    acc = _StatsAccumulator()
    us, vs, ws = [], [], []
    for u, v, scores in _iter_candidate_scores(g, x, cfg):
        acc.add(scores, int((scores >= cfg.epsilon).sum()))
        us.append(u)
        vs.append(v)
        ws.append(_sigmoid(cfg.steepness * (scores - cfg.epsilon)))
    u = np.concatenate(us) if us else np.zeros(0, dtype=np.int64)
    v = np.concatenate(vs) if vs else np.zeros(0, dtype=np.int64)
    w = np.concatenate(ws) if ws else np.zeros(0, dtype=np.float64)
    wg = _csr_from_directed_pairs(
        g.n_nodes, np.concatenate([u, v]), np.concatenate([v, u]), np.concatenate([w, w])
    )
    return wg, acc.finish()
