"""Single-layer aggregation-aware network: losses, gradients, training.

The model is one weight matrix W (d x c), no bias, no activation. The forward
pass adds a raw-information term to the k-hop propagated features:

    Y = S^k X W + X W = (P + X) W,   P = S^k X

and training minimizes

    L = L_agg + lambda * L_rec
    L_agg = ||P W - X W||_F^2                 (aggregation-aware loss)
    L_rec = ||Yh Yh^T - A||_F^2 / N^2         (inner-product decoder loss)

with Yh the row-normalized Y and A the self-loop normalized adjacency of the
original graph. Both the loss and its analytic gradient are evaluated with
the Gram trick (through Yh^T Yh and sparse products), so nothing of size
N x N is ever materialized. train() evaluates them in one of two forms: on
P = S^k X, through the d x d matrix M = (P-X)^T (P-X), or, when S is sparse
enough for its products to cost less than M W, on the c-wide Z = X W, as
Y = S^k Z + Z, without P or M. The empirical-study variant trains the same W
under a fixed classical aggregator with the objective L_rec + lambda * L_agg,
where L_agg uses the raw self-loop-free adjacency.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from .errors import NumericalError, ValidationError
from .graph import (
    LinearAggregator,
    SparseGraph,
    aggregator as aggregator_op,  # exp1_train's argument is named aggregator
    check_features,
    dirichlet_energy,
    normalize_no_self_loops,
    normalize_with_self_loops,
    propagate,
    _row_normalize_into,
)
from .reconstruct import (
    ReconstructionConfig,
    ReconstructionStats,
    reconstruct_hard,
    reconstruct_soft,
)

# Early-stop rule for "train until convergence": relative total-loss change
# below EARLY_STOP_REL_TOL for EARLY_STOP_PATIENCE consecutive epochs.
EARLY_STOP_REL_TOL = 1e-6
EARLY_STOP_PATIENCE = 10

# train()'s choice of form. Per column of W, an epoch of the hidden form runs
# 2k sparse products on N x c arrays and HIDDEN_PASSES more elementwise passes
# over them where the P form runs M W, 2 d^2 flops. PASS_FLOPS prices one
# element of a pass, and one row or one stored entry of a sparse product, in
# dense GEMM flops. Measured on one BLAS thread at N = 3000, c = 500: about
# 1.0 ns per element of a pass, 0.4 ns per row plus 0.7 ns per entry of a
# product, and 0.020 ns per flop of a 1500 x 1500 by 1500 x 500 product.
PASS_FLOPS = 50
HIDDEN_PASSES = 8


def _propagates_hidden(n: int, d: int, k: int, nnz: int) -> bool:
    """Whether train() on N = ``n`` nodes, ``d`` features, ``k`` hops and a
    propagation graph of ``nnz`` stored entries runs the hidden form: true
    when M W would cost more than the hidden form's extra N x c work."""
    return 2 * d * d > PASS_FLOPS * (2 * k * (nnz + n) + HIDDEN_PASSES * n)


def _check_lambda(lambda_: float) -> None:
    if not (math.isfinite(lambda_) and lambda_ >= 0):
        raise ValidationError(f"lambda must be finite and >= 0, got {lambda_}")


@dataclass(frozen=True)
class AMLPConfig:
    k: int = 3
    lambda_: float = 0.1
    hidden_dim: int = 500
    learning_rate: float = 1e-3
    epochs: int = 200
    seed: int = 0
    eps_norm: float = 1e-12
    early_stop: bool = False
    # ablation switch: False drops the aggregation term, leaving lambda * L_rec
    use_agg_loss: bool = True

    def __post_init__(self):
        if self.k < 1:
            raise ValidationError("k must be >= 1")
        _check_lambda(self.lambda_)
        if self.hidden_dim < 1:
            raise ValidationError("hidden_dim must be >= 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValidationError(
                f"learning_rate must be finite and positive, got {self.learning_rate}"
            )
        if self.epochs < 1:
            raise ValidationError("epochs must be >= 1")
        if not (math.isfinite(self.eps_norm) and self.eps_norm > 0):
            raise ValidationError(
                f"eps_norm must be finite and positive, got {self.eps_norm}"
            )

    def as_dict(self) -> dict:
        return config_as_dict(self)


# JSON keys of the config fields whose Python names differ
CONFIG_ALIASES = {"lambda_": "lambda"}


def config_keys(cls) -> dict:
    """JSON key -> field name of each field of the config dataclass ``cls``,
    in declaration order."""
    return {CONFIG_ALIASES.get(f.name, f.name): f.name for f in fields(cls)}


def config_as_dict(cfg) -> dict:
    """The fields of the config dataclass ``cfg`` under their JSON keys."""
    return {key: getattr(cfg, name) for key, name in config_keys(type(cfg)).items()}


@dataclass
class AMLPModel:
    """Trained weight matrix plus the configuration that produced it."""

    W: np.ndarray
    config: AMLPConfig


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def zeros_like(cls, w: np.ndarray) -> "AdamState":
        return cls(m=np.zeros_like(w), v=np.zeros_like(w))


@dataclass
class TrainReport:
    losses_agg: np.ndarray
    losses_rec: np.ndarray
    losses_total: np.ndarray
    wall_clock_seconds: float
    final_dirichlet: float
    epochs_run: int
    early_stopped: bool
    recon_stats: ReconstructionStats | None = None

    def as_dict(self) -> dict:
        d = {
            "epochs_run": self.epochs_run,
            "early_stopped": self.early_stopped,
            "wall_clock_seconds": self.wall_clock_seconds,
            "final_dirichlet_energy": self.final_dirichlet,
            "losses": {
                "agg": self.losses_agg.tolist(),
                "rec": self.losses_rec.tolist(),
                "total": self.losses_total.tolist(),
            },
        }
        if self.recon_stats is not None:
            d["reconstruction"] = self.recon_stats.as_dict()
        return d


def init_weights(d: int, c: int, seed: int) -> np.ndarray:
    """Uniform init on [-1/sqrt(c), 1/sqrt(c)], deterministic given seed."""
    if d < 1 or c < 1:
        raise ValidationError("weight dimensions must be >= 1")
    rng = np.random.default_rng(seed)
    bound = 1.0 / np.sqrt(c)
    return rng.uniform(-bound, bound, size=(d, c))


def forward(p: np.ndarray, x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Y = (P + X) W, the propagated projection plus the raw-information term."""
    p = np.asarray(p, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if p.shape != x.shape:
        raise ValidationError(f"P shape {p.shape} != X shape {x.shape}")
    if w.shape[0] != x.shape[1]:
        raise ValidationError(f"W has {w.shape[0]} rows, features have {x.shape[1]} columns")
    return (p + x) @ w


def loss_agg(p: np.ndarray, x: np.ndarray, w: np.ndarray) -> float:
    """||(P - X) W||_F^2 via the d x d Gram matrix M = (P-X)^T (P-X)."""
    diff = np.asarray(p, dtype=np.float64) - np.asarray(x, dtype=np.float64)
    m = diff.T @ diff
    return float(np.sum(w * (m @ w)))


class _Decoder:
    """The inner-product decoder loss L_rec = ||Yh Yh^T - A||_F^2 / N^2 of
    N x c embeddings against the self-loop normalized ``a_tilde``, and its
    gradient, in buffers allocated once and overwritten by every call: Yh,
    G = dL_rec/dYh, one N x c scratch array that ends as dL_rec/dY, the row
    norms, row dots and nonzero-row mask, and the c x c Gram with a scratch
    of its shape. Only the sparse product A Yh allocates."""

    def __init__(self, a_tilde: SparseGraph, n: int, c: int, eps_norm: float):
        self.a_sp = a_tilde.to_scipy()
        self.a_frob2 = float(np.sum(a_tilde.values**2))
        self.eps_norm = eps_norm
        self.y_hat = np.empty((n, c))
        self.g_yhat = np.empty((n, c))
        self.scratch = np.empty((n, c))
        self.norms = np.empty(n)
        self.dots = np.empty(n)
        self.nz = np.empty(n, dtype=bool)
        self.gram = np.empty((c, c))
        self.gram_sq = np.empty((c, c))

    def normalize(self, y: np.ndarray) -> np.ndarray:
        """Yh, the rows of ``y`` over their norms, in the Yh buffer; ``y``
        may be that buffer. Rows of norm < eps_norm become zero."""
        _row_normalize_into(
            y, self.y_hat, self.norms, self.nz, self.scratch, self.eps_norm
        )
        return self.y_hat

    def loss(self, y: np.ndarray) -> float:
        """L_rec of ``y``, leaving Yh, the norms, the nonzero-row mask and G
        in their buffers."""
        n = y.shape[0]
        y_hat, t = self.normalize(y), self.scratch
        gram = np.matmul(y_hat.T, y_hat, out=self.gram)
        ay = self.a_sp @ y_hat
        cross = float(np.multiply(y_hat, ay, out=t).sum())
        gram_frob2 = float(np.multiply(gram, gram, out=self.gram_sq).sum())
        l_rec = (gram_frob2 - 2.0 * cross + self.a_frob2) / (n * n)
        g_yhat = np.matmul(y_hat, gram, out=self.g_yhat)
        np.subtract(g_yhat, ay, out=g_yhat)
        np.multiply(4.0 / (n * n), g_yhat, out=g_yhat)
        return l_rec

    def grad(self) -> np.ndarray:
        """dL_rec/dY of the last loss(): G backpropagated through the row
        normalization, zero on zero-norm rows. It is written into the scratch
        buffer, which the next call overwrites."""
        g_yhat, y_hat, nz = self.g_yhat, self.y_hat, self.nz
        dots = np.einsum("ij,ij->i", g_yhat, y_hat, out=self.dots)
        g_y = np.multiply(dots[:, None], y_hat, out=self.scratch)
        np.subtract(g_yhat, g_y, out=g_y)
        np.divide(g_y, self.norms[:, None], out=g_y, where=nz[:, None])
        g_y[~nz] = 0.0
        return g_y


def loss_rec(
    y: np.ndarray, a_tilde: SparseGraph, eps_norm: float = 1e-12
) -> float:
    """Inner-product decoder loss ||Yh Yh^T - A||_F^2 / N^2, never forming N x N."""
    y = np.asarray(y, dtype=np.float64)
    if not a_tilde.self_loops:
        raise ValidationError("loss_rec expects the self-loop normalization")
    if y.shape[0] != a_tilde.n_nodes:
        raise ValidationError("embedding row count does not match adjacency")
    return _Decoder(a_tilde, *y.shape, eps_norm).loss(y)


def total_loss(
    p: np.ndarray,
    x: np.ndarray,
    w: np.ndarray,
    a_tilde: SparseGraph,
    cfg: AMLPConfig,
) -> tuple[float, float, float]:
    """(L, L_agg, L_rec) with L = L_agg + lambda * L_rec."""
    la = loss_agg(p, x, w)
    lr = loss_rec(forward(p, x, w), a_tilde, cfg.eps_norm)
    return la + cfg.lambda_ * lr, la, lr


def gradient(
    p: np.ndarray,
    x: np.ndarray,
    w: np.ndarray,
    a_tilde: SparseGraph,
    cfg: AMLPConfig,
) -> np.ndarray:
    """Analytic dL/dW for L = L_agg + lambda * L_rec.

    The aggregation term contributes 2 M W with M = (P-X)^T (P-X); the
    decoder term is chained through row normalization and Y = (P+X) W.
    """
    p = np.asarray(p, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    kernel = _TrainingKernel.from_p(p, x, a_tilde, w.shape[1], cfg.lambda_, cfg.eps_norm)
    return kernel.loss_and_grad(w)[3]


def adam_step(
    state: AdamState, w: np.ndarray, grad: np.ndarray, lr: float
) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam update; returns the new weights and state."""
    if grad.shape != w.shape:
        raise ValidationError("gradient shape does not match weights")
    t = state.step + 1
    # m, v and the returned weights are new arrays; s is the one scratch array.
    # The expression and its operand order are those of the textbook update
    #   m = b1 m + (1 - b1) g,  v = b2 v + (1 - b2) g g,
    #   w - lr (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps)
    s = np.multiply(1.0 - state.beta1, grad)
    m = np.multiply(state.beta1, state.m)
    m += s
    v = np.multiply(1.0 - state.beta2, grad)
    v *= grad
    v += np.multiply(state.beta2, state.v, out=s)
    np.divide(m, 1.0 - state.beta1**t, out=s)
    s *= lr
    w_new = np.divide(v, 1.0 - state.beta2**t)
    np.sqrt(w_new, out=w_new)
    w_new += state.eps
    np.divide(s, w_new, out=s)
    np.subtract(w, s, out=w_new)
    return w_new, replace(state, m=m, v=v, step=t)


class _TrainingKernel:
    """The loss L = a * L_agg + r * L_rec of one linear layer, its gradient
    and the epoch loop that minimizes it.

    Y = B W, or Y = agg(B W) under a nonlinear aggregator operator ``agg``;
    L_agg = ||D W||^2 = sum(W * M W) with the d x d matrix M = D^T D, or no
    aggregation term when ``m`` is None. train()'s P form (from_p) weighs
    the terms (1 or 0, lambda) with B = P + X and D = P - X; its hidden form
    is the subclass _HiddenKernel. exp1_train weighs them
    (lambda or 0, 1) with B = M X for a linear aggregator M, or B = X under
    max, and D = A X - X.

    The buffers every epoch writes into (c = hidden_dim columns): the
    decoder's, whose Yh buffer receives Y; MW, which B^T G_Y reuses; the
    gradient; and, under ``agg``, the B W that ``agg`` reads."""

    def __init__(self, b, m, a_tilde, c, a, r, eps_norm, agg=None):
        self.b, self.m, self.a, self.r, self.agg = b, m, a, r, agg
        n, d = b.shape
        self.decoder = _Decoder(a_tilde, n, c, eps_norm)
        self.mw = None if m is None else np.empty((d, c))
        self.grad = np.empty((d, c))
        self.bw = None if agg is None else np.empty((n, c))

    @classmethod
    def from_p(cls, p, x, a_tilde, c, lambda_, eps_norm, use_agg_loss=True):
        """The kernel of train(): B = P + X and M = (P-X)^T(P-X), weighed
        (1 or 0, lambda). Set-up holds one N x d array besides ``p`` and
        ``x``: B is written into the buffer of P - X once M is formed from it.
        ``p`` is only read."""
        diff = p - x
        m = diff.T @ diff
        b = np.add(p, x, out=diff)
        return cls(b, m, a_tilde, c, 1.0 if use_agg_loss else 0.0, lambda_, eps_norm)

    def forward(self, w: np.ndarray) -> np.ndarray:
        """Y = B W in the Yh buffer, or agg(B W)."""
        if self.agg is None:
            return np.matmul(self.b, w, out=self.decoder.y_hat)
        return self.agg.forward(np.matmul(self.b, w, out=self.bw))

    def loss_and_grad(self, w: np.ndarray) -> tuple[float, float, float, np.ndarray]:
        """(L, L_agg, L_rec, dL/dW); the gradient array is reused by the next
        call. L_agg is 0 without M, and then r must be nonzero."""
        g = self.grad
        la = 0.0
        if self.m is not None:
            mw = np.matmul(self.m, w, out=self.mw)
            la = float(np.multiply(w, mw, out=g).sum())
            if self.a:
                np.multiply(2.0 * self.a, mw, out=g)
            else:
                g.fill(0.0)
        lr_ = self.decoder.loss(self.forward(w))
        if self.r:
            g_y = self.decoder.grad()
            if self.agg is not None:
                g_y = self.agg.backward(g_y)
            if self.m is None:
                np.matmul(self.b.T, g_y, out=g)
            else:
                btg = np.matmul(self.b.T, g_y, out=mw)  # MW is spent by now
                if self.r != 1.0:
                    np.multiply(self.r, btg, out=btg)
                np.add(g, btg, out=g)
        total = (self.a * la if self.a else 0.0) + self.r * lr_
        return total, la, lr_, g

    def fit(self, cfg: AMLPConfig):
        """Adam from the seeded initial weights, then Yh = row-normalized
        forward(W) in the decoder's buffer. Returns (W, Yh, one
        (L, L_agg, L_rec) per epoch, early_stopped). Raises NumericalError
        with the epoch and loss values if the loss goes non-finite."""
        w = init_weights(*self.grad.shape, cfg.seed)
        state = AdamState.zeros_like(w)
        losses = []
        stall = 0
        # an overflow shows as a non-finite loss, which raises the one report
        with np.errstate(all="ignore"):
            for epoch in range(cfg.epochs):
                total, la, lr_, grad = self.loss_and_grad(w)
                if not np.isfinite(total):
                    raise NumericalError(
                        f"non-finite loss at epoch {epoch}: total={total}, agg={la}, rec={lr_}"
                    )
                losses.append((total, la, lr_))
                w, state = adam_step(state, w, grad, cfg.learning_rate)
                if cfg.early_stop and epoch > 0:
                    rel = abs(total - losses[-2][0]) / max(abs(total), 1e-300)
                    stall = stall + 1 if rel < EARLY_STOP_REL_TOL else 0
                    if stall >= EARLY_STOP_PATIENCE:
                        break
        y_hat = self.decoder.normalize(self.forward(w))
        return w, y_hat, losses, stall >= EARLY_STOP_PATIENCE


class _HiddenKernel(_TrainingKernel):
    """train()'s kernel in the hidden form, which propagates after
    projecting: Z = X W, Y = S^k Z + Z and L_agg = ||D_W||^2 with
    D_W = S^k Z - Z, weighed (1 or 0, lambda) as from_p weighs them. It holds
    X and S = S~ as a scipy CSR matrix, never P = S^k X, B or M. As S is
    symmetric, dL/dW = X^T (S^k H + r G_Y - 2a D_W) with H = 2a D_W + r G_Y.

    An epoch adds 2k sparse products, each allocating its N x c result, and
    HIDDEN_PASSES elementwise passes over N x c arrays to the P form's work,
    and drops M W. Besides the decoder's buffers and the gradient, the one
    buffer it writes into is Z's, which H reuses."""

    def __init__(self, x, s_tilde, k, a_tilde, c, lambda_, eps_norm, use_agg_loss=True):
        super().__init__(
            x, None, a_tilde, c, 1.0 if use_agg_loss else 0.0, lambda_, eps_norm
        )
        self.s, self.k = s_tilde.to_scipy(), k
        self.z = np.empty((x.shape[0], c))

    def _hops(self, z: np.ndarray) -> np.ndarray:
        """S^k z in a new array."""
        for _ in range(self.k):
            z = self.s @ z
        return z

    def forward(self, w: np.ndarray) -> np.ndarray:
        """Y = S^k X W + X W in the Yh buffer."""
        z = np.matmul(self.b, w, out=self.z)
        return np.add(self._hops(z), z, out=self.decoder.y_hat)

    def loss_and_grad(self, w: np.ndarray) -> tuple[float, float, float, np.ndarray]:
        z = np.matmul(self.b, w, out=self.z)
        d_w = self._hops(z)
        y = np.add(d_w, z, out=self.decoder.y_hat)
        np.subtract(d_w, z, out=d_w)
        la = float(np.vdot(d_w, d_w))
        lr_ = self.decoder.loss(y)
        # Z's buffer takes H, D_W's becomes r G_Y - 2a D_W
        h, e = z, np.multiply(2.0 * self.a, d_w, out=d_w)
        if self.r:
            g_y = self.decoder.grad()
            if self.r != 1.0:
                np.multiply(self.r, g_y, out=g_y)
            np.add(e, g_y, out=h)
            np.subtract(g_y, e, out=e)
        else:
            np.copyto(h, e)
            np.negative(e, out=e)
        np.add(self._hops(h), e, out=e)
        np.matmul(self.b.T, e, out=self.grad)
        total = (self.a * la if self.a else 0.0) + self.r * lr_
        return total, la, lr_, self.grad


def train(
    g: SparseGraph,
    x: np.ndarray,
    cfg: AMLPConfig | None = None,
    recon_cfg: ReconstructionConfig | None = None,
) -> tuple[AMLPModel, np.ndarray, TrainReport]:
    """Full pipeline: reconstruct S, propagate k hops, train W, return Yh.

    The hops run on the d-wide X once (the P form) or on the c-wide X W every
    epoch (the hidden form), whichever _propagates_hidden prices lower.

    Raises NumericalError with the epoch and loss values if the loss goes
    non-finite.
    """
    cfg = cfg or AMLPConfig()
    recon_cfg = recon_cfg or ReconstructionConfig()
    if g.n_nodes < 2:
        raise ValidationError("training needs at least 2 nodes")
    x = check_features(x, g.n_nodes)
    t0 = time.perf_counter()
    reconstruct = reconstruct_hard if recon_cfg.mode == "hard" else reconstruct_soft
    s, stats = reconstruct(g, x, recon_cfg)
    s_tilde = normalize_no_self_loops(s)
    a_tilde = normalize_with_self_loops(g)
    loss_args = (a_tilde, cfg.hidden_dim, cfg.lambda_, cfg.eps_norm, cfg.use_agg_loss)
    if _propagates_hidden(*x.shape, cfg.k, s_tilde.indices.size):
        kernel = _HiddenKernel(x, s_tilde, cfg.k, *loss_args)
    else:  # P = S~^k X is dropped once B and M exist
        kernel = _TrainingKernel.from_p(propagate(s_tilde, x, cfg.k), x, *loss_args)
    w, y_hat, losses, early_stopped = kernel.fit(cfg)
    del kernel  # B, M or Z, and the epoch buffers; Yh outlives them
    total, agg, rec = map(np.asarray, zip(*losses))
    report = TrainReport(
        losses_agg=agg,
        losses_rec=rec,
        losses_total=total,
        wall_clock_seconds=time.perf_counter() - t0,
        final_dirichlet=dirichlet_energy(a_tilde, y_hat),
        epochs_run=len(total),
        early_stopped=early_stopped,
        recon_stats=stats,
    )
    return AMLPModel(W=w, config=cfg), y_hat, report


# ---------------------------------------------------------------------------
# Empirical-study variant: classical aggregator + optional aggregation loss
# ---------------------------------------------------------------------------


def exp1_train(
    g: SparseGraph,
    x: np.ndarray,
    aggregator: str,
    use_agg_loss: bool,
    lambda_: float = 0.1,
    cfg: AMLPConfig | None = None,
) -> tuple[float, np.ndarray]:
    """Train the autoencoder variant Y = agg(X W) and report Dirichlet energy.

    Objective is L_rec alone, or L_rec + lambda * L_agg with the pre-defined
    aggregation loss ||A X W - X W||_F^2 over the raw self-loop-free adjacency.
    Returns (Dr, Yh) where Dr is measured against the self-loop normalized
    adjacency of g.

    Mean, sum and weighted_sum are linear maps M, so agg(X W) = (M X) W:
    F = M X is computed once and the kernel runs with B = F, leaving the
    decoder's A Yh as an epoch's one sparse product. Max keeps B = X and runs
    its forward on X W and its backward every epoch. Set-up holds one N x d
    array at a time: A X - X, formed in the buffer of A X, until M1 is formed
    from it, then F.
    """
    cfg = cfg or AMLPConfig()
    _check_lambda(lambda_)
    x = check_features(x, g.n_nodes)
    a_tilde = normalize_with_self_loops(g)
    agg = aggregator_op(aggregator, g, a_tilde)
    m1 = None
    if use_agg_loss:
        diff = g.to_scipy() @ x
        diff -= x
        m1 = diff.T @ diff
        del diff  # freed before F exists: one N x d array at a time
    linear = isinstance(agg, LinearAggregator)
    kernel = _TrainingKernel(
        agg.forward(x) if linear else x, m1, a_tilde, cfg.hidden_dim,
        lambda_ if use_agg_loss else 0.0, 1.0, cfg.eps_norm, None if linear else agg,
    )
    _, y_hat, _, _ = kernel.fit(cfg)
    del kernel  # F, M1 and the epoch buffers; Yh outlives them
    return dirichlet_energy(a_tilde, y_hat), y_hat
