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
from .graph import SparseGraph, check_features, graph_from_edges

CANDIDATE_POLICIES = ("original_edges", "all_pairs")
MODES = ("hard", "soft")

DEFAULT_ALL_PAIRS_CAP = 20_000
_BLOCK = 512
# rows per sub-block of the all-pairs loop, whose buffers hold _SUB_BLOCK x N
_SUB_BLOCK = 64
# CSR positions visited per chunk of _common_neighbors and _two_hop_counts
_LOOKUP_CHUNK = 1 << 16
# bytes in each of the two edge-endpoint feature buffers of _score_edge_candidates
_GATHER_BYTES = 1 << 20


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


def _pair_scores(dot, sq, common, deg, out, den, pos) -> None:
    """Write ``pair_score`` of pairs into ``out``, from their feature dot
    products, float64 common-neighbour counts (overwritten), and endpoints'
    squared feature norms ``sq`` and degrees ``deg`` as (first, second)
    pairs, each operand broadcast to ``out``'s shape; ``den`` and ``pos`` are
    float64 and bool scratch of that shape."""
    np.multiply(sq[0], sq[1], out=den)
    np.sqrt(den, out=den)
    np.greater(den, 0.0, out=pos)
    out.fill(0.0)
    np.divide(dot, den, out=out, where=pos)
    np.multiply(deg[0], deg[1], out=den)
    np.sqrt(den, out=den)
    np.greater(den, 0.0, out=pos)
    # in place: where a degree is 0 the count is already 0
    np.divide(common, den, out=common, where=pos)
    np.multiply(out, common, out=out)
    np.square(out, out=out)
    np.clip(out, 0.0, 1.0, out=out)


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
            f"(cap {cfg.all_pairs_cap}); the cap is the library setting "
            "ReconstructionConfig.all_pairs_cap, which no command-line flag or run-config "
            "key sets"
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

    The dense buffers, O(_BLOCK·N), are allocated once per call; a sub-block's
    common-neighbour counts are written into one of them by
    ``_two_hop_counts``, which allocates O(N + _LOOKUP_CHUNK) besides the
    sub-block's neighbour lists and the O(nnz) keys made once per call. The
    feature product of a block is computed at full width: BLAS rounding
    depends on the operand shape, and the full width keeps every score equal
    to one computed from ``x[block] @ x.T`` (a sub-block product
    ``x[s0:s1] @ x.T`` rounds differently). Every other step runs in
    sub-blocks of _SUB_BLOCK rows on the columns right of the sub-block's
    first row, so the pair work is N(N-1)/2 plus O(N·_SUB_BLOCK). The sum of
    each block's scores enters ``mean_score``, so its last bits depend on
    _BLOCK.
    """
    n = g.n_nodes
    sq = np.einsum("ij,ij->i", x, x)
    deg = g.degrees().astype(np.float64)
    keys = _row_keys(g)
    height = min(_BLOCK, n)
    dx = np.empty((height, n))
    # A block's packed scores overwrite its own feature product. Once the
    # sub-blocks ending at local row r are packed, they fill fewer than r·N
    # slots (each row packs fewer than N), and the next sub-block reads dx
    # from slot r·N on; a sub-block's own dx rows are read into pscore before
    # its scores are packed.
    scores = dx.reshape(-1)
    # flat, so that each (rows, cols) sub-block view is C-contiguous, as
    # _two_hop_counts requires
    size = min(_SUB_BLOCK, height) * n
    common, denom, pscore = np.empty(size), np.empty(size), np.empty(size)
    positive = np.empty(size, dtype=bool)
    for start in range(0, n - 1, _BLOCK):
        stop = min(start + _BLOCK, n)
        np.matmul(x[start:stop], x.T, out=dx[: stop - start])
        k = 0
        for s0 in range(start, min(stop, n - 1), _SUB_BLOCK):
            s1 = min(s0 + _SUB_BLOCK, stop)
            shape = (s1 - s0, n - s0 - 1)
            cells = shape[0] * shape[1]
            den, pos, sc, ca = (b[:cells].reshape(shape) for b in (denom, positive, pscore, common))
            _two_hop_counts(g, keys, s0, s1, ca)
            _pair_scores(
                dx[s0 - start : s1 - start, s0 + 1 :], (sq[s0:s1, None], sq[None, s0 + 1 :]),
                ca, (deg[s0:s1, None], deg[None, s0 + 1 :]), sc, den, pos,
            )
            for r in range(shape[0]):
                w = shape[1] - r
                scores[k : k + w] = sc[r, r:]
                k += w
        yield _block_pairs(n, start, stop), scores[:k]


def _row_keys(g: SparseGraph) -> np.ndarray:
    """The CSR's entries as keys ``row * N + col``, sorted as they are stored:
    one np.searchsorted finds an entry, or the first column of a row past a
    given one."""
    return g.rows() * g.n_nodes + g.indices


def _chunked_ranges(
    start: np.ndarray, size: np.ndarray
) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
    """Cut the positions of the ranges start[i] .. start[i] + size[i] - 1,
    i = 0..size.size-1, taken in order, into chunks of _LOOKUP_CHUNK
    positions, the last one fewer, splitting any range that crosses a cut.
    Yield (lo, hi, chunk_start, chunk_size) per chunk: it holds the part
    chunk_start[j] .. chunk_start[j] + chunk_size[j] - 1 of range lo + j,
    j = 0..hi-lo-1. It holds no array of a chunk's size, so a caller that
    drops its chunk's arrays before asking for the next one holds one chunk
    at a time."""
    end = np.cumsum(size)
    begin = end - size
    total = int(end[-1]) if end.size else 0
    for a in range(0, total, _LOOKUP_CHUNK):
        b = min(a + _LOOKUP_CHUNK, total)
        # the ranges that end past a and begin before b
        lo = int(np.searchsorted(end, a, side="right"))
        hi = int(np.searchsorted(begin, b, side="left"))
        skip = np.maximum(a - begin[lo:hi], 0)
        yield lo, hi, start[lo:hi] + skip, np.minimum(b - begin[lo:hi], size[lo:hi]) - skip


def _range_positions(start: np.ndarray, size: np.ndarray) -> np.ndarray:
    """The positions start[i] .. start[i] + size[i] - 1 of every range, in order."""
    # each range's start, less the positions listed before it
    pos = np.repeat(start - (np.cumsum(size) - size), size)
    pos += np.arange(pos.size)
    return pos


def _common_neighbors(g: SparseGraph, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Common-neighbour count of each pair (u[i], v[i]), i.e. (A·A)[u, v],
    without forming A·A (the masked product of Azad, Buluç & Gilbert, 2015).

    Each neighbour w of the lower-degree endpoint is looked up in the other
    endpoint's row by one binary search over ``_row_keys``: Σ min(d_u, d_v)
    lookups, done in chunks of at most _LOOKUP_CHUNK, which split a hub's
    row, so that memory stays O(m + chunk).
    """
    n = g.n_nodes
    deg = g.degrees()
    counts = np.zeros(u.size, dtype=np.int64)
    swap = deg[u] > deg[v]
    s = np.where(swap, v, u)
    t = np.where(swap, u, v)
    keys = _row_keys(g)
    for lo, hi, first, sz in _chunked_ranges(g.indptr[s], deg[s]):
        query = np.repeat(t[lo:hi] * n, sz)
        query += g.indices[_range_positions(first, sz)]
        hit = keys.take(np.searchsorted(keys, query), mode="clip") == query
        del query
        # a pair split over chunks adds up its parts
        counts[lo:hi] += np.bincount(
            np.repeat(np.arange(hi - lo), sz)[hit], minlength=hi - lo
        )
        del hit  # the next chunk's arrays are built without this one's
    return counts


def _two_hop_counts(
    g: SparseGraph, keys: np.ndarray, s0: int, s1: int, out: np.ndarray
) -> None:
    """Write (A·A)[s0:s1, s0+1:], the common-neighbour counts of rows
    s0..s1-1 with the columns right of s0, into the C-contiguous ``out``.

    Gustavson's row-by-row product (ACM TOMS, 1978) into a dense
    accumulator: each neighbour w of row i adds one to (i, j) for every j in
    w's row past s0, whose start one binary search over ``keys``
    (``_row_keys(g)``) finds. The additions run in chunks of at most
    _LOOKUP_CHUNK, one chunk's arrays at a time, so that memory stays
    O(N + chunk) besides the rows' neighbour lists. The counts are integers,
    so they are exact.
    """
    n = g.n_nodes
    flat = out.reshape(-1)
    flat.fill(0.0)
    mid = g.indices[g.indptr[s0] : g.indptr[s1]]
    # one per neighbour w of a row i: the flat cell of (i, j) less j
    base = np.repeat(
        np.arange(s1 - s0) * out.shape[1] - (s0 + 1), np.diff(g.indptr[s0 : s1 + 1])
    )
    start = np.searchsorted(keys, mid * n + s0, side="right")
    size = g.indptr[mid + 1] - start
    for lo, hi, first, sz in _chunked_ranges(start, size):
        cell = np.repeat(base[lo:hi], sz)
        cell += g.indices[_range_positions(first, sz)]
        np.add.at(flat, cell, 1.0)
        del cell  # the next chunk's arrays are built without this one's


def _score_edge_candidates(
    g: SparseGraph, x: np.ndarray, edges: np.ndarray
) -> np.ndarray:
    u, v = edges[:, 0], edges[:, 1]
    sq = np.einsum("ij,ij->i", x, x)
    deg = g.degrees().astype(np.float64)
    # the x[u]/x[v] rows are gathered chunk by chunk into two buffers made
    # once per call: fresh temporaries for every chunk page-faulted or not
    # depending on where the allocator had placed earlier arrays (0 to 18,000
    # faults, 0.2 to 0.3 s, per call at N=3000, d=1500)
    rows = max(1, min(u.size, _GATHER_BYTES // (8 * max(1, x.shape[1]))))
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
    common = _common_neighbors(g, u, v).astype(np.float64)
    score, den, pos = np.empty(u.size), np.empty(u.size), np.empty(u.size, dtype=bool)
    _pair_scores(dot_x, (sq[u], sq[v]), common, (deg[u], deg[v]), score, den, pos)
    return score


def _scored_pairs(
    g: SparseGraph, x: np.ndarray, cfg: ReconstructionConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, ReconstructionStats]:
    """(u, v, weights, stats) over the candidate set: the pairs that clear
    epsilon and no weights in hard mode, every pair and its sigmoid weight in
    soft mode. The pairs come as ``_iter_candidate_scores`` yields them:
    unique, u < v, sorted by (u, v). The candidate loop's buffers are freed
    on return, before the caller assembles the refined graph."""
    soft = cfg.mode == "soft"
    total = kept = 0
    score_sum = 0.0
    us, vs, ws = [], [], []
    for pairs, scores in _iter_candidate_scores(g, x, cfg):
        keep = scores >= cfg.epsilon
        total += int(scores.size)
        kept += int(keep.sum())
        score_sum += float(scores.sum())
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
    stats = ReconstructionStats(
        candidates_scored=total,
        edges_kept=kept,
        edges_removed=total - kept,
        mean_score=score_sum / total if total else 0.0,
    )
    return u, v, w, stats


def _reconstruct(
    g: SparseGraph, x: np.ndarray, cfg: ReconstructionConfig, mode: str
) -> tuple[SparseGraph, ReconstructionStats]:
    if cfg.mode != mode:
        raise ValidationError(f"reconstruct_{mode} requires cfg.mode == {mode!r}")
    x = check_features(x, g.n_nodes)
    u, v, w, stats = _scored_pairs(g, x, cfg)
    return graph_from_edges(g.n_nodes, u, v, w), stats


def reconstruct_hard(
    g: SparseGraph, x: np.ndarray, cfg: ReconstructionConfig
) -> tuple[SparseGraph, ReconstructionStats]:
    """Refined graph S: candidate pairs with score >= epsilon survive."""
    return _reconstruct(g, x, cfg, "hard")


def reconstruct_soft(
    g: SparseGraph, x: np.ndarray, cfg: ReconstructionConfig
) -> tuple[SparseGraph, ReconstructionStats]:
    """Sigmoid-relaxed refinement: weight = sigmoid(steepness * (score - epsilon)).

    Same candidate set as hard mode; as steepness grows the weights converge
    to the hard 0/1 decisions (exactly 0.5 at score == epsilon). Stats count
    a candidate as kept when its score clears epsilon, i.e. weight >= 0.5.
    """
    return _reconstruct(g, x, cfg, "soft")


def reconstruct(g: SparseGraph, x: np.ndarray, cfg: ReconstructionConfig):
    """reconstruct_hard or reconstruct_soft, as cfg.mode names, looked up at each call."""
    return (reconstruct_hard if cfg.mode == "hard" else reconstruct_soft)(g, x, cfg)
