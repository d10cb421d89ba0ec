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
    DEFAULT_EPS_NORM,
    _HOP_BYTES,
    LinearAggregator,
    SparseGraph,
    aggregator as aggregator_op,  # exp1_train's argument is named aggregator
    check_features,
    dirichlet_energy,
    normalize_no_self_loops,
    normalize_with_self_loops,
    propagate,
    _propagate_into,
    _row_normalize_into,
)
from .reconstruct import ReconstructionConfig, ReconstructionStats, reconstruct

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
    eps_norm: float = DEFAULT_EPS_NORM
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
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
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


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    step: int = 0

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


def _checked_p_x(p, x, w) -> tuple[np.ndarray, np.ndarray]:
    """P and X as float64 arrays, after checking that P, X and W agree in shape."""
    p = np.asarray(p, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if p.shape != x.shape:
        raise ValidationError(f"P shape {p.shape} != X shape {x.shape}")
    if w.shape[0] != x.shape[1]:
        raise ValidationError(f"W has {w.shape[0]} rows, features have {x.shape[1]} columns")
    return p, x


def forward(p: np.ndarray, x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Y = (P + X) W, the propagated projection plus the raw-information term."""
    p, x = _checked_p_x(p, x, w)
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
    G = dL_rec/dYh, the row norms, row dots and nonzero-row mask, and the
    c x c Gram, squared in place once G is formed. G's buffer also takes the
    squares of the row normalization and Yh * A Yh, so a caller may keep an
    N x c array there that is dead by the time it calls loss() or normalize().

    Each loss() allocates one N x c array, the sparse product A Yh. It lives
    until a caller drops ``ay`` or the next loss() drops it before forming
    its own, and grad() writes dL_rec/dY into it."""

    def __init__(self, a_tilde: SparseGraph, n: int, c: int, eps_norm: float):
        if not a_tilde.self_loops:
            raise ValidationError("loss_rec expects the self-loop normalization")
        if n != a_tilde.n_nodes:
            raise ValidationError("embedding row count does not match adjacency")
        self.a_sp = a_tilde.to_scipy()
        self.a_frob2 = float(np.sum(a_tilde.values**2))
        self.eps_norm = eps_norm
        self.y_hat = np.empty((n, c))
        self.g_yhat = np.empty((n, c))
        self.ay = None
        self.norms = np.empty(n)
        self.dots = np.empty(n)
        self.nz = np.empty(n, dtype=bool)
        self.gram = np.empty((c, c))

    def normalize(self, y: np.ndarray) -> np.ndarray:
        """Yh, the rows of ``y`` over their norms, in the Yh buffer; ``y``
        may be that buffer but not G's. Rows of norm < eps_norm become zero."""
        _row_normalize_into(
            y, self.y_hat, self.norms, self.nz, self.g_yhat, self.eps_norm
        )
        return self.y_hat

    def loss(self, y: np.ndarray) -> float:
        """L_rec of ``y``, leaving Yh, the norms, the nonzero-row mask, G and
        A Yh in place."""
        n = y.shape[0]
        y_hat = self.normalize(y)
        gram = np.matmul(y_hat.T, y_hat, out=self.gram)
        self.ay = None  # the last epoch's product goes before this one exists
        ay = self.ay = self.a_sp @ y_hat
        cross = float(np.multiply(y_hat, ay, out=self.g_yhat).sum())
        g_yhat = np.matmul(y_hat, gram, out=self.g_yhat)
        gram_frob2 = float(np.multiply(gram, gram, out=gram).sum())
        l_rec = (gram_frob2 - 2.0 * cross + self.a_frob2) / (n * n)
        np.subtract(g_yhat, ay, out=g_yhat)
        np.multiply(4.0 / (n * n), g_yhat, out=g_yhat)
        return l_rec

    def grad(self) -> np.ndarray:
        """dL_rec/dY of the last loss(): G backpropagated through the row
        normalization, zero on zero-norm rows. It is written over A Yh, which
        the next loss() replaces."""
        g_yhat, y_hat, nz = self.g_yhat, self.y_hat, self.nz
        dots = np.einsum("ij,ij->i", g_yhat, y_hat, out=self.dots)
        g_y = np.multiply(dots[:, None], y_hat, out=self.ay)
        np.subtract(g_yhat, g_y, out=g_y)
        np.divide(g_y, self.norms[:, None], out=g_y)
        g_y[~nz] = 0.0
        return g_y


def loss_rec(
    y: np.ndarray, a_tilde: SparseGraph, eps_norm: float = DEFAULT_EPS_NORM
) -> float:
    """Inner-product decoder loss ||Yh Yh^T - A||_F^2 / N^2, never forming N x N."""
    y = np.asarray(y, dtype=np.float64)
    return _Decoder(a_tilde, *y.shape, eps_norm).loss(y)


def _p_kernel(p, x, w, a_tilde: SparseGraph, cfg: AMLPConfig) -> "_TrainingKernel":
    """train()'s P-form kernel for ``cfg`` and a W of any width, after the
    checks of forward; _Decoder makes those of loss_rec."""
    p, x = _checked_p_x(p, x, w)
    return _TrainingKernel.from_p(p, x, a_tilde, replace(cfg, hidden_dim=w.shape[1]))


def total_loss(
    p: np.ndarray,
    x: np.ndarray,
    w: np.ndarray,
    a_tilde: SparseGraph,
    cfg: AMLPConfig,
) -> tuple[float, float, float]:
    """(L, L_agg, L_rec), L = L_agg + lambda * L_rec; L_agg only under use_agg_loss."""
    return _p_kernel(p, x, w, a_tilde, cfg).loss_and_grad(w)[:3]


def gradient(
    p: np.ndarray,
    x: np.ndarray,
    w: np.ndarray,
    a_tilde: SparseGraph,
    cfg: AMLPConfig,
) -> np.ndarray:
    """Analytic dL/dW of total_loss's L.

    The aggregation term, if on, contributes 2 M W with M = (P-X)^T (P-X);
    the decoder term is chained through row normalization and Y = (P+X) W.
    """
    return _p_kernel(p, x, w, a_tilde, cfg).loss_and_grad(w)[3]


def adam_step(
    state: AdamState,
    w: np.ndarray,
    grad: np.ndarray,
    lr: float,
    s: np.ndarray | None = None,
    u: np.ndarray | None = None,
) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam update; returns the new weights and state.

    Without ``s`` and ``u`` the new weights, m and v are new arrays and the
    inputs are left alone. Given two scratch arrays of one size, at least a
    row of W, it writes the new values into ``w``, ``state.m`` and ``state.v``
    instead, in chunks of as many rows as the scratch holds, and allocates no
    array; the returned state holds those same m and v."""
    if grad.shape != w.shape:
        raise ValidationError("gradient shape does not match weights")
    t = state.step + 1
    if s is None:
        s, m, v, w_new = (np.empty(w.shape) for _ in range(4))
        u = w_new
    else:
        m, v, w_new = state.m, state.v, w
    rows = s.size // w[0].size
    for r in (slice(i, i + rows) for i in range(0, len(w), rows)):
        g, m_r, v_r = grad[r], m[r], v[r]
        s_r, u_r = (a.reshape(-1)[: g.size].reshape(g.shape) for a in (s, u))
        # the textbook update m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g,
        # w - lr (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps) in its operand
        # order; each output is written after the last read of what it replaces
        np.multiply(1.0 - ADAM_BETA1, g, out=s_r)
        np.multiply(ADAM_BETA1, state.m[r], out=m_r)
        m_r += s_r
        np.multiply(ADAM_BETA2, state.v[r], out=s_r)
        np.multiply(1.0 - ADAM_BETA2, g, out=v_r)
        v_r *= g
        v_r += s_r
        np.divide(m_r, 1.0 - ADAM_BETA1**t, out=s_r)
        s_r *= lr
        np.divide(v_r, 1.0 - ADAM_BETA2**t, out=u_r)
        np.sqrt(u_r, out=u_r)
        u_r += ADAM_EPS
        np.divide(s_r, u_r, out=s_r)
        np.subtract(w[r], s_r, out=w_new[r])
    return w_new, replace(state, m=m, v=v, step=t)


def _adam_scratch(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Adam's two flat scratch chunks for ``w``: at most W, about _HOP_BYTES, at least a row."""
    size = min(w.size, max(_HOP_BYTES // 8, w[0].size))
    return np.empty(size), np.empty(size)


class _TrainingKernel:
    """The loss L = a * L_agg + r * L_rec of one linear layer, its gradient
    and the epoch loop that minimizes it.

    Y = B W, or Y = agg(B W) under a nonlinear aggregator operator ``agg``;
    L_agg = ||D W||^2 = sum(W * M W) with the d x d matrix M = D^T D, or no
    aggregation term when ``m`` is None. train()'s P form (from_p) weighs
    the terms by term_weights(cfg) with B = P + X and D = P - X; its hidden form
    is the subclass _HiddenKernel. exp1_train weighs them
    (lambda or 0, 1) with B = M X for a linear aggregator M, or B = X under
    max, and D = A X - X.

    The buffers every epoch writes into (c = hidden_dim columns): the
    decoder's, whose Yh buffer receives Y and, under ``agg``, whose G buffer
    receives the B W that ``agg`` reads, dead once ``agg`` has returned; MW,
    which B^T G_Y reuses; the gradient; and, in fit, W and Adam's m and v,
    updated in place, and its two scratch chunks. So an epoch allocates no
    array but the decoder's A Yh and, under ``agg``, what ``agg`` returns."""

    def __init__(self, b, m, a_tilde, c, a, r, eps_norm, agg=None):
        self.b, self.m, self.a, self.r, self.agg = b, m, a, r, agg
        n, d = b.shape
        self.decoder = _Decoder(a_tilde, n, c, eps_norm)
        self.mw = None if m is None else np.empty((d, c))
        self.grad = np.empty((d, c))

    @staticmethod
    def term_weights(cfg: AMLPConfig) -> tuple[float, float]:
        """train()'s (a, r): 1, or 0 under the use_agg_loss ablation, and lambda."""
        return 1.0 if cfg.use_agg_loss else 0.0, cfg.lambda_

    @classmethod
    def from_p(cls, p, x, a_tilde, cfg: AMLPConfig):
        """The kernel of train() for ``cfg``: B = P + X and M = (P-X)^T(P-X),
        weighed by term_weights(cfg), with c = cfg.hidden_dim. Set-up holds one
        N x d array besides ``p`` and ``x``: B is written into the buffer of
        P - X once M is formed from it. ``p`` is only read."""
        diff = p - x
        m = diff.T @ diff
        b = np.add(p, x, out=diff)
        return cls(b, m, a_tilde, cfg.hidden_dim, *cls.term_weights(cfg), cfg.eps_norm)

    def forward(self, w: np.ndarray) -> np.ndarray:
        """Y = B W in the Yh buffer, or agg(B W)."""
        if self.agg is None:
            return np.matmul(self.b, w, out=self.decoder.y_hat)
        return self.agg.forward(np.matmul(self.b, w, out=self.decoder.g_yhat))

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
                np.multiply(self.r, btg, out=btg)
                np.add(g, btg, out=g)
        total = (self.a * la if self.a else 0.0) + self.r * lr_
        return total, la, lr_, g

    def fit(self, cfg: AMLPConfig):
        """Adam, in place, from the seeded initial weights, then
        Yh = row-normalized forward(W) in the decoder's buffer. Returns (W,
        Yh, one (L, L_agg, L_rec) per epoch, early_stopped). Raises
        NumericalError with the epoch and loss values if the loss goes
        non-finite."""
        w = init_weights(*self.grad.shape, cfg.seed)
        state = AdamState.zeros_like(w)
        adam_scratch = _adam_scratch(w)
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
                w, state = adam_step(state, w, grad, cfg.learning_rate, *adam_scratch)
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
    D_W = S^k Z - Z, weighed by term_weights(cfg) as from_p weighs them. It holds
    X and S = S~ as a scipy CSR matrix, never P = S^k X, B or M. As S is
    symmetric, dL/dW = X^T (S^k H + r G_Y - 2a D_W) with H = 2a D_W + r G_Y.

    An epoch adds 2k sparse products and HIDDEN_PASSES elementwise passes
    over N x c arrays to the P form's work, and drops M W. The products run
    in _propagate_into, two column blocks at a time, and those of H add into
    E. Besides the decoder's buffers, it holds one N x c buffer, D_W's, which
    then takes the backward sum E. Z, and then H, live in the decoder's G
    buffer: Z is dead before the decoder's loss and H is formed after its
    grad, whose A Yh is dropped once H and E exist. X^T E goes into the Yh
    buffer, dead until the next forward, unless d > N."""

    def __init__(self, x, s_tilde, a_tilde, cfg: AMLPConfig):
        super().__init__(
            x, None, a_tilde, cfg.hidden_dim, *self.term_weights(cfg), cfg.eps_norm
        )
        self.s, self.k = s_tilde.to_scipy(), cfg.k
        self.d_w = np.empty((x.shape[0], cfg.hidden_dim))
        if x.shape[1] <= x.shape[0]:
            self.grad = self.decoder.y_hat.ravel()[: self.grad.size].reshape(self.grad.shape)

    def forward(self, w: np.ndarray) -> np.ndarray:
        """Y = S^k X W + X W in the Yh buffer; Z = X W in G's, S^k Z in D_W's."""
        z = np.matmul(self.b, w, out=self.decoder.g_yhat)
        return np.add(_propagate_into(self.s, z, self.k, self.d_w), z, out=self.decoder.y_hat)

    def loss_and_grad(self, w: np.ndarray) -> tuple[float, float, float, np.ndarray]:
        y = self.forward(w)
        d_w = np.subtract(self.d_w, self.decoder.g_yhat, out=self.d_w)
        la = float(np.vdot(d_w, d_w))
        lr_ = self.decoder.loss(y)
        # D_W's buffer becomes E = r G_Y - 2a D_W, G's takes H once G is spent
        e, h = np.multiply(2.0 * self.a, d_w, out=d_w), self.decoder.g_yhat
        g_y = self.decoder.grad()
        np.multiply(self.r, g_y, out=g_y)
        np.add(e, g_y, out=h)
        np.subtract(g_y, e, out=e)
        self.decoder.ay = g_y = None  # A Yh is spent; the hops' blocks come next
        _propagate_into(self.s, h, self.k, e, add=True)
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
    s, stats = reconstruct(g, x, recon_cfg)
    s_tilde = normalize_no_self_loops(s)
    a_tilde = normalize_with_self_loops(g)
    if _propagates_hidden(*x.shape, cfg.k, s_tilde.indices.size):
        kernel = _HiddenKernel(x, s_tilde, a_tilde, cfg)
    else:  # P = S~^k X is dropped once B and M exist
        kernel = _TrainingKernel.from_p(propagate(s_tilde, x, cfg.k), x, a_tilde, cfg)
    del s, s_tilde  # S~ keeps its CSR, which only the hidden kernel needs from here
    w, y_hat, losses, early_stopped = kernel.fit(cfg)
    del kernel  # B and M or D_W's buffer, and the epoch buffers; Yh outlives them
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
    lambda_: float = AMLPConfig.lambda_,
    cfg: AMLPConfig | None = None,
) -> tuple[float, np.ndarray]:
    """Train the autoencoder variant Y = agg(X W) and report Dirichlet energy.

    Objective is L_rec alone, or L_rec + lambda * L_agg with the pre-defined
    aggregation loss ||A X W - X W||_F^2 over the raw self-loop-free adjacency.
    Returns (Dr, Yh) where Dr is measured against the self-loop normalized
    adjacency of g. Of ``cfg`` it reads hidden_dim, learning_rate, epochs,
    seed, eps_norm and early_stop; its k, lambda_ and use_agg_loss are inert,
    since the arguments own lambda and the flag and no propagation runs.

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
