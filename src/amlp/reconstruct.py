"""Graph refinement from joint feature/structure similarity.

A candidate pair (i, j) is scored by the squared product of two cosines: the
cosine between feature rows X_i, X_j and the cosine between raw binary
adjacency rows A_i, A_j. Hard mode keeps the pair iff the score clears a
threshold epsilon; soft mode replaces the hard threshold with a sigmoid of
adjustable steepness, which converges to the hard decision as steepness grows.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import ValidationError
from .graph import SparseGraph, _csr_from_directed_pairs, check_features

CANDIDATE_POLICIES = ("original_edges", "all_pairs")
MODES = ("hard", "soft")

DEFAULT_ALL_PAIRS_CAP = 20_000
_BLOCK = 512
# rows per sub-block of the all-pairs loop, whose buffers hold _SUB_BLOCK x N
_SUB_BLOCK = 64
# (edge, neighbour) lookups per chunk of _common_neighbors
_LOOKUP_CHUNK = 1 << 16
# bytes in each of the two edge-endpoint feature buffers of _score_edge_candidates
_GATHER_BYTES = 1 << 22


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
        if not (math.isfinite(self.steepness) and self.steepness > 0):
            raise ValidationError(
                f"steepness must be finite and positive, got {self.steepness}"
            )


@dataclass
class ReconstructionStats:
    candidates_scored: int
    edges_kept: int
    edges_removed: int
    mean_score: float

    def as_dict(self) -> dict:
        return asdict(self)


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


# ``pairs(mask)``: the endpoints (u, v), u < v, of a block's candidates
# selected by a boolean mask over its scores, or of all of them for None
Pairs = Callable[[np.ndarray | None], tuple[np.ndarray, np.ndarray]]


def _iter_candidate_scores(
    g: SparseGraph, x: np.ndarray, cfg: ReconstructionConfig
) -> Iterator[tuple[Pairs, np.ndarray]]:
    """Yield (pairs, score) blocks over the candidate set.

    ``score`` may be a view of a buffer that the next block overwrites, so a
    consumer reads it, and calls ``pairs``, before asking for the next block.
    """
    if cfg.candidate_policy == "original_edges":
        edges = g.edge_array()
        u, v = edges[:, 0], edges[:, 1]
        scores = _score_edge_candidates(g, x, edges)
        yield (lambda mask: (u, v) if mask is None else (u[mask], v[mask])), scores
        return
    if g.n_nodes > cfg.all_pairs_cap:
        raise ValidationError(
            f"all_pairs policy refused for {g.n_nodes} nodes "
            f"(cap {cfg.all_pairs_cap}); raise all_pairs_cap to override"
        )
    yield from _iter_all_pairs(g, x)


def _block_pairs(n: int, start: int, stop: int) -> Pairs:
    """``pairs`` of the block of rows start..stop-1, whose scores list each
    row i's columns i+1..n-1 in turn."""
    lengths = n - 1 - np.arange(start, stop)
    offsets = np.cumsum(lengths) - lengths
    total = int(lengths.sum())

    def pairs(mask):
        pos = np.arange(total) if mask is None else np.flatnonzero(mask)
        r = np.searchsorted(offsets, pos, side="right") - 1
        u = r + start
        return u, pos - offsets[r] + u + 1

    return pairs


def _iter_all_pairs(g: SparseGraph, x: np.ndarray) -> Iterator[tuple[Pairs, np.ndarray]]:
    """Score all N(N-1)/2 pairs i < j in blocks of _BLOCK rows, row-major.

    The dense buffers, O(_BLOCK·N), are allocated once per call; a sub-block
    allocates only its sparse common-neighbour product. The feature product of
    a block is computed at full width: BLAS rounding depends on the operand
    shape, and the full width keeps every score equal to one computed from
    ``x[block] @ x.T`` (a sub-block product ``x[s0:s1] @ x.T`` rounds
    differently). Every other step runs in sub-blocks of _SUB_BLOCK rows on
    the columns right of the sub-block's first row, so the pair work is
    N(N-1)/2 plus O(N·_SUB_BLOCK). The sum of each block's scores enters
    ``mean_score``, so its last bits depend on _BLOCK.
    """
    n = g.n_nodes
    if n < 2:
        return
    sq = np.einsum("ij,ij->i", x, x)
    deg = g.degrees().astype(np.float64)
    a = g.to_scipy()
    height = min(_BLOCK, n)
    dx = np.empty((height, n))
    # A block's packed scores overwrite its own feature product. Once the
    # sub-blocks ending at local row r are packed, they fill fewer than r·N
    # slots (each row packs fewer than N), and the next sub-block reads dx
    # from slot r·N on; a sub-block's own dx rows are read into cos_x before
    # its scores are packed.
    scores = dx.reshape(-1)
    # flat, so that each (rows, cols) sub-block view is C-contiguous, which
    # toarray(out=) requires
    size = min(_SUB_BLOCK, height) * n
    common, denom, cos_x = np.empty(size), np.empty(size), np.empty(size)
    positive = np.empty(size, dtype=bool)
    for start in range(0, n - 1, _BLOCK):
        stop = min(start + _BLOCK, n)
        np.matmul(x[start:stop], x.T, out=dx[: stop - start])
        k = 0
        for s0 in range(start, min(stop, n - 1), _SUB_BLOCK):
            s1 = min(s0 + _SUB_BLOCK, stop)
            shape = (s1 - s0, n - s0 - 1)
            cells = shape[0] * shape[1]
            den = denom[:cells].reshape(shape)
            pos = positive[:cells].reshape(shape)
            cx = cos_x[:cells].reshape(shape)
            np.multiply(sq[s0:s1, None], sq[None, s0 + 1 :], out=den)
            np.sqrt(den, out=den)
            np.greater(den, 0.0, out=pos)
            cx.fill(0.0)
            np.divide(dx[s0 - start : s1 - start, s0 + 1 :], den, out=cx, where=pos)
            ca = common[:cells].reshape(shape)
            (a[s0:s1] @ a[s0 + 1 :].T).toarray(out=ca)
            np.multiply(deg[s0:s1, None], deg[None, s0 + 1 :], out=den)
            np.sqrt(den, out=den)
            np.greater(den, 0.0, out=pos)
            # in place: where a degree is 0 the count is already 0
            np.divide(ca, den, out=ca, where=pos)
            np.multiply(cx, ca, out=cx)
            np.square(cx, out=cx)
            np.clip(cx, 0.0, 1.0, out=cx)
            for r in range(shape[0]):
                w = shape[1] - r
                scores[k : k + w] = cx[r, r:]
                k += w
        yield _block_pairs(n, start, stop), scores[:k]


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
    # the x[u]/x[v] rows are gathered chunk by chunk into two buffers made
    # once per call: fresh temporaries for every chunk page-faulted or not
    # depending on where the allocator had placed earlier arrays (0 to 18,000
    # faults, 0.2 to 0.3 s, per call at N=3000, d=1500)
    rows = min(u.size, max(1, _GATHER_BYTES // (8 * max(1, x.shape[1]))))
    xu = np.empty((rows, x.shape[1]))
    xv = np.empty_like(xu)
    dot_x = np.empty(u.size, dtype=np.float64)
    for i in range(0, u.size, rows):
        m = min(rows, u.size - i)
        # mode="clip" (the indices are valid nodes) lets take write into out
        # directly instead of through a temporary
        np.take(x, u[i : i + m], axis=0, out=xu[:m], mode="clip")
        np.take(x, v[i : i + m], axis=0, out=xv[:m], mode="clip")
        dot_x[i : i + m] = np.einsum("ij,ij->i", xu[:m], xv[:m])
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


def _scored_pairs(
    g: SparseGraph, x: np.ndarray, cfg: ReconstructionConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, ReconstructionStats]:
    """(u, v, weights, stats) over the candidate set: the pairs that clear
    epsilon and no weights in hard mode, every pair and its sigmoid weight in
    soft mode. The pairs come as ``_iter_candidate_scores`` yields them:
    unique, u < v, sorted by (u, v). The candidate loop's buffers are freed
    on return, before the caller assembles the refined graph."""
    soft = cfg.mode == "soft"
    acc = _StatsAccumulator()
    us, vs, ws = [], [], []
    for pairs, scores in _iter_candidate_scores(g, x, cfg):
        keep = scores >= cfg.epsilon
        acc.add(scores, int(keep.sum()))
        u, v = pairs(None if soft else keep)
        us.append(u)
        vs.append(v)
        if soft:
            ws.append(_sigmoid(cfg.steepness * (scores - cfg.epsilon)))
    u = np.concatenate(us) if us else np.zeros(0, dtype=np.int64)
    v = np.concatenate(vs) if vs else np.zeros(0, dtype=np.int64)
    w = None
    if soft:
        w = np.concatenate(ws) if ws else np.zeros(0, dtype=np.float64)
    return u, v, w, acc.finish()


def _graph_from_sorted_pairs(
    n_nodes: int, u: np.ndarray, v: np.ndarray, w: np.ndarray | None = None
) -> SparseGraph:
    """The symmetric SparseGraph of unordered pairs (u[i], v[i]), with weight
    w[i] on both orientations if given.

    Requires the pairs unique, with u < v and sorted by (u, v), as the
    candidate loop yields them. Then a row's (v, u) entries hold its columns
    below the diagonal in increasing order and its (u, v) entries those above
    it, so a stable sort by row of [(v, u); (u, v)] sorts by (row, col)
    without comparing columns.
    """
    rows = np.concatenate([v, u])
    order = np.argsort(rows, kind="stable")
    rows = rows[order]
    cols = np.concatenate([u, v])[order]
    values = None if w is None else np.concatenate([w, w])[order]
    return _csr_from_directed_pairs(n_nodes, rows, cols, values)


def reconstruct_hard(
    g: SparseGraph, x: np.ndarray, cfg: ReconstructionConfig
) -> tuple[SparseGraph, ReconstructionStats]:
    """Refined graph S: candidate pairs with score >= epsilon survive."""
    if cfg.mode != "hard":
        raise ValidationError("reconstruct_hard requires cfg.mode == 'hard'")
    x = check_features(x, g.n_nodes)
    u, v, _, stats = _scored_pairs(g, x, cfg)
    return _graph_from_sorted_pairs(g.n_nodes, u, v), stats


def reconstruct_soft(
    g: SparseGraph, x: np.ndarray, cfg: ReconstructionConfig
) -> tuple[SparseGraph, ReconstructionStats]:
    """Sigmoid-relaxed refinement: weight = sigmoid(steepness * (score - epsilon)).

    Same candidate set as hard mode; as steepness grows the weights converge
    to the hard 0/1 decisions (exactly 0.5 at score == epsilon). Stats count
    a candidate as kept when its score clears epsilon, i.e. weight >= 0.5.
    """
    if cfg.mode != "soft":
        raise ValidationError("reconstruct_soft requires cfg.mode == 'soft'")
    x = check_features(x, g.n_nodes)
    u, v, w, stats = _scored_pairs(g, x, cfg)
    return _graph_from_sorted_pairs(g.n_nodes, u, v, w), stats
