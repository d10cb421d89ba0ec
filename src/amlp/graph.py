"""Sparse graph storage, adjacency normalizations, propagation and aggregation.

Graphs, weighted graphs and normalized adjacencies are one CSR type,
``SparseGraph``, symmetric in structure and values. A graph read from edges
is binary and self-loop-free; soft reconstruction adds weights; the
``self_loops`` flag distinguishes the GCN-style normalization
(D+I)^{-1/2}(A+I)(D+I)^{-1/2} from the self-loop-free D^{-1/2}SD^{-1/2} used
after graph reconstruction. Either normalization has all its eigenvalues in
[-1, 1] (up to roundoff).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .errors import ValidationError

# scipy.sparse is imported where a CSR matrix is first built, so that commands
# which never multiply by one (cluster, classify, sbm, prep, reconstruct on
# either candidate policy) do not pay its import, about a quarter of a second
# and 20 MB per process
if TYPE_CHECKING:
    import scipy.sparse as sp

AGGREGATORS = ("mean", "max", "sum", "weighted_sum")

DEFAULT_EPS_NORM = 1e-12

# bytes of a column block of _propagate_into's k hops (the CSR's, if more)
_HOP_BYTES = 1 << 20


@dataclass(frozen=True)
class SparseGraph:
    """Symmetric graph or adjacency matrix in CSR layout.

    ``indptr`` has length ``n_nodes + 1``; ``indices[indptr[v]:indptr[v+1]]``
    are the (strictly increasing) neighbors of node ``v``. Structure is
    symmetric: (i, j) present iff (j, i) present. ``values`` is None for a
    binary adjacency; otherwise it holds one weight per stored entry, such as
    the sigmoid scores of soft reconstruction or the entries of a normalized
    adjacency. With ``self_loops`` every diagonal entry is stored (the
    GCN-style normalization); without, none is.

    A graph is immutable: its three arrays, and the arrays they view, are
    made read-only on construction. So the operators that depend on the
    graph alone are built on first use and kept on the instance for its
    lifetime: the scipy CSR of ``to_scipy``, whose arrays are read-only too,
    both normalizations and ``MaxAggregator``'s neighbor layout. Nothing that
    depends on features is kept. A copy made by ``dataclasses.replace``
    shares the arrays but none of these.
    """

    n_nodes: int
    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray | None = None
    self_loops: bool = False

    def __post_init__(self):
        _freeze(self.indptr, self.indices, self.values)

    @property
    def n_edges(self) -> int:
        """Number of undirected edges (each stored twice internally); the
        diagonal of a ``self_loops`` matrix is not counted."""
        return (self.indices.size - self.n_nodes * self.self_loops) // 2

    def degrees(self) -> np.ndarray:
        """Neighbor counts (stored entries per row), weighted or not."""
        return np.diff(self.indptr)

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def to_scipy(self) -> sp.csr_matrix:
        """The matrix as a scipy CSR matrix (float64 ones when ``values`` is
        None), built once per graph; its arrays are read-only."""
        return self._csr

    @cached_property
    def _csr(self) -> sp.csr_matrix:
        import scipy.sparse as sp

        data = np.ones(self.indices.size) if self.values is None else self.values
        a = sp.csr_matrix(
            (data, self.indices, self.indptr), shape=(self.n_nodes, self.n_nodes)
        )
        # scipy keeps views of these arrays, or of int32 copies of them
        _freeze(a.data, a.indices, a.indptr)
        return a

    @cached_property
    def _with_self_loops(self) -> SparseGraph:
        return _normalize_with_self_loops(self)

    @cached_property
    def _no_self_loops(self) -> SparseGraph:
        return _normalize_no_self_loops(self)

    @cached_property
    def _max_layout(self) -> tuple:
        return _max_aggregator_layout(self)

    def to_dense(self) -> np.ndarray:
        return self.to_scipy().toarray()

    def rows(self) -> np.ndarray:
        """The row of each stored entry, aligned with ``indices``."""
        return np.repeat(np.arange(self.n_nodes, dtype=np.int64), np.diff(self.indptr))

    def edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """Unordered edges (u, v, weight) with u < v, sorted by (u, v); the
        weights are None for a binary graph."""
        rows = self.rows()
        mask = rows < self.indices
        return rows[mask], self.indices[mask], None if self.values is None else self.values[mask]

    def edge_array(self) -> np.ndarray:
        """Unordered edges as an (m, 2) array with u < v, lexicographically sorted."""
        return np.column_stack(self.edges()[:2])

    def validate(self) -> None:
        """Raise ValidationError if any structural invariant is broken, or a
        weight is non-finite or differs from its transpose's."""
        if self.indptr.shape != (self.n_nodes + 1,):
            raise ValidationError("indptr length must be n_nodes + 1")
        if self.indptr[0] != 0 or self.indptr[-1] != self.indices.size:
            raise ValidationError("indptr endpoints inconsistent with indices")
        if np.any(np.diff(self.indptr) < 0):
            raise ValidationError("indptr must be non-decreasing")
        if self.indices.size:
            if self.indices.min() < 0 or self.indices.max() >= self.n_nodes:
                raise ValidationError("column index out of range")
        rows = self.rows()
        on_diagonal = rows[rows == self.indices]
        if self.self_loops:
            if np.unique(on_diagonal).size != self.n_nodes:
                raise ValidationError("self_loops=True but a diagonal entry is missing")
        elif on_diagonal.size:
            raise ValidationError("self-loop present")
        # a step that ends at a row start compares two different rows
        bad = np.diff(self.indices) <= 0
        row_starts = self.indptr[1:-1]
        bad[row_starts[(row_starts > 0) & (row_starts < self.indices.size)] - 1] = False
        if bad.any():
            v = int(np.searchsorted(self.indptr, np.argmax(bad), side="right")) - 1
            raise ValidationError(f"row {v} not strictly increasing")
        a = replace(self, values=None).to_scipy()
        if (a != a.T).nnz != 0:
            raise ValidationError("adjacency structure not symmetric")
        if self.values is None:
            return
        if not np.all(np.isfinite(self.values)):
            raise ValidationError("non-finite weight")
        a = self.to_scipy()
        if (a != a.T).nnz != 0:
            raise ValidationError("normalized adjacency not symmetric")


def _freeze(*arrays: np.ndarray | None) -> None:
    """Make each array, and every array it views, read-only."""
    for a in arrays:
        while isinstance(a, np.ndarray):
            a.setflags(write=False)
            a = a.base


def graph_from_edges(
    n_nodes: int, u: np.ndarray, v: np.ndarray, values: np.ndarray | None = None
) -> SparseGraph:
    """The symmetric SparseGraph of the unordered pairs (u[i], v[i]), with
    weight values[i] on both orientations if given. Self-loops are dropped;
    of a pair listed more than once, in either orientation, the first listing
    is kept. Assumes indices already validated.

    The unique (low, high) pairs come sorted. Then row r's (high, low)
    entries hold its columns below r in increasing order and its (low, high)
    entries those above it, so a stable sort by row of [(high, low);
    (low, high)] sorts by (row, col) without comparing columns.
    """
    u, v = (np.asarray(a, dtype=np.int64) for a in (u, v))
    keep = u != v
    ids = np.minimum(u, v) * np.int64(n_nodes) + np.maximum(u, v)
    # np.unique keeps the first listing of each id
    ids, first = np.unique(ids[keep], return_index=True)
    low, high = np.divmod(ids, n_nodes)
    del ids
    rows = np.concatenate([high, low])
    indptr = np.zeros(n_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n_nodes), out=indptr[1:])
    order = np.argsort(rows, kind="stable")
    del rows
    cols = np.concatenate([low, high])
    del low, high
    if values is not None:
        values = np.asarray(values)[keep][first]
        values = np.concatenate([values, values])[order]
    return SparseGraph(n_nodes, indptr, cols[order], values)


def build_graph(edge_list, n_nodes: int) -> SparseGraph:
    """Assemble a SparseGraph from an iterable of (u, v) index pairs.

    Each input edge is inserted in both directions; duplicates are merged and
    self-loops dropped. Out-of-range indices are rejected with the 1-based
    position of the offending pair.
    """
    if n_nodes < 0:
        raise ValidationError("n_nodes must be non-negative")
    if not isinstance(edge_list, np.ndarray):
        edge_list = list(edge_list)
    edges = np.asarray(edge_list, dtype=np.int64)
    if edges.size == 0:
        edges = edges.reshape(0, 2)
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise ValidationError("edge list must be pairs of node indices")
    bad = np.flatnonzero(
        (edges[:, 0] < 0)
        | (edges[:, 0] >= n_nodes)
        | (edges[:, 1] < 0)
        | (edges[:, 1] >= n_nodes)
    )
    if bad.size:
        i = int(bad[0])
        raise ValidationError(
            f"edge {i + 1}: index pair ({edges[i, 0]}, {edges[i, 1]}) "
            f"out of range for {n_nodes} nodes"
        )
    return graph_from_edges(n_nodes, edges[:, 0], edges[:, 1])


def check_features(x: np.ndarray, n_nodes: int | None = None) -> np.ndarray:
    """Validate a dense feature matrix: 2-d, finite, optionally n_nodes rows."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValidationError("feature matrix must be 2-dimensional")
    if not np.all(np.isfinite(x)):
        raise ValidationError("feature matrix contains non-finite entries")
    if n_nodes is not None and x.shape[0] != n_nodes:
        raise ValidationError(
            f"feature matrix has {x.shape[0]} rows, expected {n_nodes}"
        )
    return x


def check_labels(labels: np.ndarray, n_nodes: int | None = None) -> np.ndarray:
    """Validate a label vector: integers >= -1, -1 meaning unlabeled."""
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValidationError("label vector must be 1-dimensional")
    if not np.issubdtype(labels.dtype, np.integer):
        raise ValidationError("labels must be integers")
    labels = labels.astype(np.int64)
    if labels.size and labels.min() < -1:
        raise ValidationError("labels must be >= -1")
    if n_nodes is not None and labels.size != n_nodes:
        raise ValidationError(f"label vector has length {labels.size}, expected {n_nodes}")
    return labels


def normalize_with_self_loops(g: SparseGraph) -> SparseGraph:
    """GCN-style normalization (D+I)^{-1/2}(A+I)(D+I)^{-1/2}.

    Entry (i, j) is 1/sqrt((d_i+1)(d_j+1)) for every edge and every diagonal
    position; an isolated node gets diagonal entry 1. Values are exactly
    symmetric because each side evaluates the same product. ``g`` must be a
    binary graph without self-loops. It is built once per graph, and every
    call returns that one SparseGraph.
    """
    if g.values is not None or g.self_loops:
        raise ValidationError("A+I needs a binary graph without self-loops")
    return g._with_self_loops


def _normalize_with_self_loops(g: SparseGraph) -> SparseGraph:
    """normalize_with_self_loops' construction. Each diagonal entry goes into
    g's sorted row after the neighbors below it, so the rows stay sorted."""
    n = g.n_nodes
    counts = np.diff(g.indptr)
    rows = g.rows()
    below = np.bincount(rows[g.indices < rows], minlength=n)
    del rows  # one nnz-sized array fewer while A~ is built
    indices = np.insert(
        np.asarray(g.indices, dtype=np.int64), g.indptr[:-1] + below, np.arange(n)
    )
    d1 = counts + 1.0
    # 1/sqrt((d_i+1)(d_j+1)), evaluated in one array
    vals = d1[indices]
    vals *= np.repeat(d1, counts + 1)
    np.sqrt(vals, out=vals)
    np.divide(1.0, vals, out=vals)
    return SparseGraph(n, g.indptr + np.arange(n + 1), indices, vals, self_loops=True)


def normalize_no_self_loops(g: SparseGraph) -> SparseGraph:
    """Self-loop-free normalization D^{-1/2}SD^{-1/2}.

    D holds S's row sums: the neighbor counts of a binary ``g``, else its
    weights' sums. Rows that sum to zero come out all-zero, which downstream
    code treats as "no aggregation" for those nodes. It is built once per
    graph, and every call returns that one SparseGraph.
    """
    return g._no_self_loops


def _normalize_no_self_loops(g: SparseGraph) -> SparseGraph:
    rows = g.rows()
    strength = np.bincount(rows, g.values, g.n_nodes)
    inv_sqrt = np.zeros(g.n_nodes, dtype=np.float64)
    nz = strength > 0
    inv_sqrt[nz] = 1.0 / np.sqrt(strength[nz])
    vals = inv_sqrt[rows] * inv_sqrt[g.indices]
    if g.values is not None:
        vals *= g.values
    # the structure is g's: its read-only arrays are shared, not copied
    return SparseGraph(
        g.n_nodes, np.asarray(g.indptr, np.int64), np.asarray(g.indices, np.int64), vals
    )


def spmm(adj: SparseGraph, m: np.ndarray) -> np.ndarray:
    """Sparse-dense product adj @ m."""
    return propagate(adj, m, 1)


def propagate(adj: SparseGraph, x: np.ndarray, k: int) -> np.ndarray:
    """k-hop propagation: compute adj^k @ x by k successive products.

    The matrix power is never materialized. k must be >= 1; the model adds
    the raw (0-hop) term separately.
    """
    if k < 1:
        raise ValidationError("hop count k must be >= 1")
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] != adj.n_nodes:
        raise ValidationError(
            f"matrix has {x.shape[0]} rows, adjacency expects {adj.n_nodes}"
        )
    cols = x[:, None] if x.ndim == 1 else x  # a vector runs as one column
    return _propagate_into(adj.to_scipy(), cols, k, np.empty(cols.shape)).reshape(x.shape)


def _propagate_into(a: sp.csr_matrix, x: np.ndarray, k: int, out: np.ndarray, add=False):
    """Write a^k @ x into ``out``, which may be ``x``, or add it when ``add``.

    The k products run on column blocks of about _HOP_BYTES, or the CSR's
    bytes if more, lest a tall x be hopped a column per read of the CSR; they
    hold at most two blocks at a time. Each column of a sparse product is
    summed on its own, so the bits are those of the whole product."""
    n, c = x.shape
    budget = max(_HOP_BYTES, a.data.nbytes + a.indices.nbytes + a.indptr.nbytes)
    width = max(1, budget // (8 * max(n, 1)))
    for j in range(0, c, width):
        block = x[:, j : j + width]
        for _ in range(k):
            block = a @ block
        if add:
            out[:, j : j + width] += block
        else:
            out[:, j : j + width] = block
    return out


def aggregate(
    kind: str,
    g: SparseGraph,
    x: np.ndarray,
    a_tilde: SparseGraph | None = None,
) -> np.ndarray:
    """Classical neighborhood aggregation over a node's neighbors.

    mean/max/sum reduce over the neighbor rows of the binary ``g`` and give
    a zero row to isolated nodes; weighted_sum is the GCN-style a_tilde @ x,
    which includes the node itself through the diagonal.
    """
    op = aggregator(kind, g, a_tilde)
    return op.forward(check_features(x, g.n_nodes))


def aggregator(
    kind: str, g: SparseGraph, a_tilde: SparseGraph | None = None
) -> MaxAggregator | LinearAggregator:
    """The operator of one classical aggregator over ``g``: ``forward(z)``
    aggregates the neighbor rows of z, ``backward(G)`` maps a gradient with
    respect to the result back to z. ``g`` must be binary and without
    self-loops; weighted_sum needs its self-loop normalization ``a_tilde``."""
    if kind not in AGGREGATORS:
        raise ValidationError(f"unknown aggregator {kind!r}; expected one of {AGGREGATORS}")
    if g.values is not None or g.self_loops:
        raise ValidationError("aggregation needs a binary graph without self-loops")
    if kind == "max":
        return MaxAggregator(g)
    if kind == "weighted_sum":
        if a_tilde is None:
            raise ValidationError("weighted_sum aggregation requires a_tilde")
        return LinearAggregator(a_tilde.to_scipy())
    return LinearAggregator(g.to_scipy(), g.degrees() if kind == "mean" else None)


class LinearAggregator:
    """z -> M z for a symmetric sparse M, or with ``deg`` the mean
    (M z) / max(deg, 1): the sum is divided row by row, so the mean of a row
    is exactly its sum divided by the degree.

    The adjoint of the mean, G -> M D^{-1} G, is one CSR matrix, so a
    backward pass is a single sparse product. It is built on the first
    ``backward`` call (``m_t`` is None until then), since a forward-only
    caller never needs it.
    """

    def __init__(self, m: sp.csr_matrix, deg: np.ndarray | None = None):
        self.m = m
        self.m_t = m
        self.div = None
        if deg is not None:
            self.div = np.maximum(deg, 1).astype(np.float64)[:, None]
            self.m_t = None

    def forward(self, z: np.ndarray) -> np.ndarray:
        out = self.m @ z
        if self.div is not None:
            out /= self.div
        return out

    def backward(self, g_y: np.ndarray) -> np.ndarray:
        """Gradient with respect to z, given the gradient with respect to
        forward(z)."""
        if self.m_t is None:
            import scipy.sparse as sp

            self.m_t = (sp.diags(1.0 / self.div[:, 0]) @ self.m).T.tocsr()
        return self.m_t @ g_y


class MaxAggregator:
    """Elementwise maximum over each node's neighbor rows, with its gradient.

    The neighbor layout (``_max_aggregator_layout``) depends on the graph
    alone, so it is built once per graph and shared by every operator over
    it; each operator keeps its own winners of the last forward. Nodes are
    sorted by degree, highest first, and slot ``j`` lists the j-th neighbor
    of every node of degree greater than ``j``; those nodes form a prefix of
    the order, so one vectorized step per slot updates them all. Slots exist
    only for ``j < L``, and the nodes of degree greater than ``L`` (hubs) are
    reduced one by one over all their neighbors. ``L`` minimizes the Python
    iterations of a forward pass, L + #(degree > L). At L = h, the h-index of
    the degree sequence, at most h nodes are hubs, so a pass runs at most
    ``2h <= 2 sqrt(nnz)`` iterations whatever the degree skew.

    Ties resolve to the smallest neighbor index, as ``argmax`` over the
    neighbor rows would. Isolated nodes get a zero row and no gradient.
    """

    def __init__(self, g: SparseGraph):
        self.active, self.row_starts, self.row_rank, self.slots, self.hubs = g._max_layout
        self.indices = g.indices
        self.slot_dtype = np.min_scalar_type(len(self.slots))
        self._flat = None

    def forward(self, z: np.ndarray) -> np.ndarray:
        """Row v of the result is the columnwise maximum of z over v's neighbors."""
        c = z.shape[1]
        # arg[i, col]: the neighbor of the i-th non-isolated node that wins col
        arg = np.empty((self.active.size, c), dtype=np.int64)
        if self.slots:
            best = z[self.slots[0]]
            slot = np.zeros(best.shape, dtype=self.slot_dtype)
            for j, nb in enumerate(self.slots[1:], start=1):
                k = nb.size
                cand = z[nb]
                gt = cand > best[:k]
                np.maximum(best[:k], cand, out=best[:k])
                # slot[gt] = j without branching on the mask: j exceeds every
                # earlier slot index
                np.maximum(slot[:k], np.multiply(gt, j, dtype=slot.dtype), out=slot[:k])
            arg[self.row_rank] = self.indices[self.row_starts[:, None] + slot]
        for nb, r in self.hubs:
            arg[r] = nb[z[nb].argmax(axis=0)]
        arg *= c
        arg += np.arange(c)
        self._flat = arg.ravel()
        y = np.zeros_like(z)
        # read the winning entries back rather than keep the running maximum,
        # so that equal values (+0.0 and -0.0) resolve to the first hit too
        y[self.active] = z.ravel()[arg]
        return y

    def backward(self, g_y: np.ndarray) -> np.ndarray:
        """Gradient with respect to z of the last forward call: each output
        entry's gradient goes to the neighbor entry that won its maximum."""
        n, c = g_y.shape
        g_z = np.bincount(
            self._flat, weights=g_y[self.active].ravel(), minlength=n * c
        )
        return g_z.reshape(n, c)


def _max_aggregator_layout(g: SparseGraph) -> tuple:
    """MaxAggregator's layout of ``g``: (active, row_starts, row_rank,
    slots, hubs), with every array read-only."""
    deg = g.degrees()
    order = np.argsort(-deg, kind="stable")
    sorted_deg = deg[order]
    # hubs_at[L]: the nodes of degree > L, which are hubs when L slots exist
    cut = np.arange(deg.max(initial=0) + 1)
    hubs_at = g.n_nodes - np.searchsorted(sorted_deg[::-1], cut, side="right")
    n_slots = int(np.argmin(cut + hubs_at))
    n_hubs = int(hubs_at[n_slots])
    rows = order[n_hubs : np.count_nonzero(sorted_deg)]
    # backward adds in ascending node order over the non-isolated nodes
    active = np.flatnonzero(deg > 0)
    row_starts = g.indptr[rows]
    row_rank = np.searchsorted(active, rows)
    # slot j covers the rows of degree > j, a prefix since degrees descend
    lengths = np.searchsorted(-deg[rows], -np.arange(n_slots))
    slots = tuple(g.indices[row_starts[:k] + j] for j, k in enumerate(lengths))
    hubs = tuple(
        (g.neighbors(v), r)
        for v, r in zip(order[:n_hubs], np.searchsorted(active, order[:n_hubs]))
    )
    _freeze(active, row_starts, row_rank, *slots)
    return active, row_starts, row_rank, slots, hubs


def row_normalize(m: np.ndarray, eps_norm: float = DEFAULT_EPS_NORM) -> np.ndarray:
    """Divide each row by its Euclidean norm; rows with norm < eps_norm become zero."""
    m = np.asarray(m, dtype=np.float64)
    out = np.empty_like(m)
    n = m.shape[0]
    _row_normalize_into(m, out, np.empty(n), np.empty(n, dtype=bool), out, eps_norm)
    return out


def _row_normalize_into(
    m: np.ndarray,
    out: np.ndarray,
    norms: np.ndarray,
    nz: np.ndarray,
    scratch: np.ndarray,
    eps_norm: float,
) -> None:
    """Write ``m`` row-normalized into ``out``, which may be ``m`` itself,
    allocating no array of m's shape: the row norms go to ``norms``, the mask
    of rows with norm >= eps_norm to ``nz``, and the other rows of ``out``
    become zero, their norms 1.0 so that no division by them needs a mask.
    ``scratch`` (m's shape; it may be ``out`` but not ``m``) receives the
    squares. The norms are the steps np.linalg.norm(m, axis=1) takes for real
    input, so the bits are row_normalize's."""
    np.multiply(m, m, out=scratch)
    np.add.reduce(scratch, axis=1, out=norms)
    np.sqrt(norms, out=norms)
    np.greater_equal(norms, eps_norm, out=nz)
    zero = ~nz
    norms[zero] = 1.0
    np.divide(m, norms[:, None], out=out)
    out[zero] = 0.0


def dirichlet_energy(a_tilde: SparseGraph, y_hat: np.ndarray) -> float:
    """Adjacency-weighted smoothness sum_{ij} w_ij ||Y_i - Y_j||^2.

    The sum runs over all ordered nonzero pairs of the normalized adjacency
    (each undirected edge counts twice); diagonal terms contribute zero.
    """
    if not a_tilde.self_loops:
        raise ValidationError("dirichlet_energy expects the self-loop normalization")
    y_hat = np.asarray(y_hat, dtype=np.float64)
    if y_hat.shape[0] != a_tilde.n_nodes:
        raise ValidationError(
            f"embedding has {y_hat.shape[0]} rows, adjacency expects {a_tilde.n_nodes}"
        )
    a = a_tilde.to_scipy()
    row_sums = np.asarray(a.sum(axis=1)).ravel()
    sq = np.einsum("ij,ij->i", y_hat, y_hat)
    ay = a @ y_hat
    cross = float(np.multiply(y_hat, ay, out=ay).sum())
    val = 2.0 * float(row_sums @ sq) - 2.0 * cross
    return max(val, 0.0)


def homophily_ratio(g: SparseGraph, labels: np.ndarray) -> float:
    """Node homophily: mean, over labeled nodes of degree >= 1, of the
    fraction of neighbors sharing the node's label, weights aside. In [0, 1]."""
    labels = check_labels(labels, g.n_nodes)
    deg = g.degrees()
    eligible = (labels >= 0) & (deg > 0)
    if not eligible.any():
        raise ValidationError("no labeled node with degree >= 1")
    rows = g.rows()
    same = labels[rows] == labels[g.indices]
    same &= labels[rows] >= 0
    counts = np.bincount(rows[same], minlength=g.n_nodes)
    frac = counts[eligible] / deg[eligible]
    return float(frac.mean())
