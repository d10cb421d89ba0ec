from dataclasses import replace

import numpy as np
import pytest

from amlp.errors import ValidationError
from amlp.graph import (
    build_graph,
    normalize_no_self_loops,
    normalize_with_self_loops,
    propagate,
    row_normalize,
)
from amlp.model import (
    AMLPConfig,
    AdamState,
    adam_step,
    exp1_train,
    forward,
    gradient,
    init_weights,
    loss_agg,
    loss_rec,
    total_loss,
    train,
)
from amlp.reconstruct import ReconstructionConfig


def random_setup(n, d, c, seed, p=0.2):
    """Random graph + features + weights, plus P = S~^k X for k=2."""
    rng = np.random.default_rng(seed)
    dense = np.triu(rng.random((n, n)) < p, k=1)
    u, v = np.nonzero(dense)
    g = build_graph(np.column_stack([u, v]), n)
    x = rng.standard_normal((n, d))
    w = rng.standard_normal((d, c)) * 0.3
    st = normalize_no_self_loops(g)
    at = normalize_with_self_loops(g)
    p_mat = propagate(st, x, 2)
    return g, x, w, p_mat, at


def dense_loss_rec(y, at, eps_norm=1e-12):
    """Direct N x N oracle for the decoder loss."""
    y_hat = row_normalize(y, eps_norm)
    n = y.shape[0]
    return float(np.sum((y_hat @ y_hat.T - at.to_dense()) ** 2)) / (n * n)


# ---------------------------------------------------------------------------
# init_weights
# ---------------------------------------------------------------------------


def test_init_weights_bounds():
    w = init_weights(50, 1, seed=0)
    assert np.all(np.abs(w) <= 1.0)
    w = init_weights(50, 4, seed=0)
    assert np.all(np.abs(w) <= 0.5)


def test_init_weights_deterministic():
    assert np.array_equal(init_weights(10, 3, seed=5), init_weights(10, 3, seed=5))
    assert not np.array_equal(init_weights(10, 3, seed=5), init_weights(10, 3, seed=6))


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------


def test_forward_zero_weights():
    _, x, w, p_mat, _ = random_setup(10, 4, 3, seed=1)
    assert np.array_equal(forward(p_mat, x, np.zeros_like(w)), np.zeros((10, 3)))


def test_forward_p_equals_x_doubles():
    # two-node single edge with identical feature rows: S~X = X
    g = build_graph([(0, 1)], 2)
    st = normalize_no_self_loops(g)
    x = np.array([[1.0, 2.0], [1.0, 2.0]])
    p_mat = propagate(st, x, 3)
    w = np.array([[0.5], [-1.0]])
    assert np.allclose(forward(p_mat, x, w), 2.0 * x @ w)


def test_forward_matches_dense_oracle():
    _, x, w, p_mat, _ = random_setup(12, 5, 4, seed=2)
    expected = (p_mat + x) @ w
    got = forward(p_mat, x, w)
    assert np.abs(got - expected).max() <= 1e-12 * max(1.0, np.abs(expected).max())


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def test_loss_agg_zero_cases():
    _, x, w, p_mat, _ = random_setup(10, 4, 3, seed=3)
    assert loss_agg(p_mat, x, np.zeros_like(w)) == 0.0
    assert loss_agg(x, x, w) == 0.0


def test_loss_agg_matches_direct_frobenius():
    rng = np.random.default_rng(4)
    p = rng.standard_normal((10, 4))
    x = rng.standard_normal((10, 4))
    w = rng.standard_normal((4, 3))
    direct = float(np.sum(((p - x) @ w) ** 2))
    assert np.isclose(loss_agg(p, x, w), direct, rtol=1e-10)


def test_loss_agg_quadratic_scaling():
    rng = np.random.default_rng(5)
    p = rng.standard_normal((8, 3))
    x = rng.standard_normal((8, 3))
    w = rng.standard_normal((3, 2))
    base = loss_agg(p, x, w)
    assert np.isclose(loss_agg(p, x, 2.0 * w), 4.0 * base, rtol=1e-12)
    assert np.isclose(loss_agg(p, x, -3.0 * w), 9.0 * base, rtol=1e-12)


def test_loss_rec_single_node():
    g = build_graph([], 1)
    at = normalize_with_self_loops(g)
    assert np.isclose(loss_rec(np.array([[2.0, 1.0]]), at), 0.0, atol=1e-15)


def test_loss_rec_orthogonal_rows_identity_target():
    g = build_graph([], 4)   # empty graph: A~ = I
    at = normalize_with_self_loops(g)
    y = np.eye(4) * 3.0      # orthogonal rows, Yh Yh^T = I
    assert np.isclose(loss_rec(y, at), 0.0, atol=1e-15)


@pytest.mark.parametrize("seed", range(5))
def test_loss_rec_matches_dense_oracle(seed):
    n = int(np.random.default_rng(seed).integers(5, 50))
    g, x, w, p_mat, at = random_setup(n, 6, 4, seed=seed + 10)
    y = forward(p_mat, x, w)
    got = loss_rec(y, at)
    expected = dense_loss_rec(y, at)
    assert np.isclose(got, expected, rtol=1e-10)


def test_total_loss_lambda_zero():
    g, x, w, p_mat, at = random_setup(10, 4, 3, seed=20)
    cfg = AMLPConfig(lambda_=0.0)
    total, la, lr_ = total_loss(p_mat, x, w, at, cfg)
    assert total == la == loss_agg(p_mat, x, w)


def test_total_loss_zero_weights_decoder_only():
    g, x, w, p_mat, at = random_setup(10, 4, 3, seed=21)
    lam = 0.7
    cfg = AMLPConfig(lambda_=lam)
    total, la, lr_ = total_loss(p_mat, x, np.zeros_like(w), at, cfg)
    n = x.shape[0]
    expected = lam * float(np.sum(at.values**2)) / (n * n)
    assert la == 0.0
    assert np.isclose(total, expected, rtol=1e-12)


def test_total_loss_is_sum():
    g, x, w, p_mat, at = random_setup(15, 5, 3, seed=22)
    cfg = AMLPConfig(lambda_=0.1)
    total, la, lr_ = total_loss(p_mat, x, w, at, cfg)
    assert abs(total - la - cfg.lambda_ * lr_) <= 1e-14 * max(1.0, abs(total))


# ---------------------------------------------------------------------------
# gradient vs central finite differences
# ---------------------------------------------------------------------------


def fd_gradient(p, x, w, at, cfg, h=1e-5):
    g = np.zeros_like(w)
    for idx in np.ndindex(*w.shape):
        wp = w.copy()
        wp[idx] += h
        lp = total_loss(p, x, wp, at, cfg)[0]
        wm = w.copy()
        wm[idx] -= h
        lm = total_loss(p, x, wm, at, cfg)[0]
        g[idx] = (lp - lm) / (2.0 * h)
    return g


def test_gradient_zero_at_w0_lambda0():
    g, x, w, p_mat, at = random_setup(10, 4, 3, seed=30)
    cfg = AMLPConfig(lambda_=0.0)
    assert np.array_equal(gradient(p_mat, x, np.zeros_like(w), at, cfg), np.zeros_like(w))


def test_gradient_zero_when_p_equals_x():
    g, x, w, p_mat, at = random_setup(10, 4, 3, seed=31)
    cfg = AMLPConfig(lambda_=0.0)
    assert np.allclose(gradient(x, x, w, at, cfg), 0.0)


@pytest.mark.parametrize("lam", [0.0, 0.1, 1.0])
def test_gradient_matches_finite_differences(lam):
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        n, d, c = int(rng.integers(8, 16)), int(rng.integers(3, 7)), int(rng.integers(2, 4))
        g, x, w, p_mat, at = random_setup(n, d, c, seed=200 + seed)
        w = w[:d, :c] if w.shape == (d, c) else init_weights(d, c, seed) * 2.0
        cfg = AMLPConfig(lambda_=lam)
        analytic = gradient(p_mat, x, w, at, cfg)
        numeric = fd_gradient(p_mat, x, w, at, cfg)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
        assert (np.abs(analytic - numeric) / denom).max() <= 1e-4


def test_gradient_rec_matches_dense_path():
    # decoder gradient through the dense N x N formulation as an oracle
    g, x, w, p_mat, at = random_setup(20, 5, 3, seed=40)
    cfg = AMLPConfig(lambda_=1.0)
    analytic = gradient(p_mat, x, w, at, cfg) - gradient(
        p_mat, x, w, at, AMLPConfig(lambda_=0.0)
    )
    n = x.shape[0]
    b = p_mat + x
    y = b @ w
    norms = np.linalg.norm(y, axis=1)
    y_hat = row_normalize(y)
    dense_residual = y_hat @ y_hat.T - at.to_dense()
    g_yhat = (4.0 / (n * n)) * dense_residual @ y_hat
    g_y = np.zeros_like(g_yhat)
    nz = norms >= 1e-12
    dots = np.einsum("ij,ij->i", g_yhat[nz], y_hat[nz])
    g_y[nz] = (g_yhat[nz] - dots[:, None] * y_hat[nz]) / norms[nz, None]
    dense_grad = b.T @ g_y
    denom = max(np.abs(dense_grad).max(), 1e-30)
    assert np.abs(analytic - dense_grad).max() / denom <= 1e-10


# ---------------------------------------------------------------------------
# adam_step
# ---------------------------------------------------------------------------


def test_adam_zero_gradient_keeps_weights():
    w = np.full((3, 2), 1.5)
    state = AdamState.zeros_like(w)
    w2, state2 = adam_step(state, w, np.zeros_like(w), lr=0.1)
    assert np.array_equal(w2, w)
    assert state2.step == 1


def test_adam_first_step_hand_computed():
    # scalar weight, g=1, lr=0.1: bias-corrected ratio is 1/(1+1e-8)
    w = np.array([[2.0]])
    state = AdamState.zeros_like(w)
    w2, _ = adam_step(state, w, np.array([[1.0]]), lr=0.1)
    expected = 2.0 - 0.1 * (1.0 / (1.0 + 1e-8))
    assert np.isclose(w2[0, 0], expected, rtol=1e-14)


def test_adam_deterministic():
    rng = np.random.default_rng(50)
    w = rng.standard_normal((4, 3))
    g = rng.standard_normal((4, 3))
    out1 = adam_step(AdamState.zeros_like(w), w, g, lr=0.01)
    out2 = adam_step(AdamState.zeros_like(w), w, g, lr=0.01)
    assert np.array_equal(out1[0], out2[0])
    assert np.array_equal(out1[1].m, out2[1].m)


# ---------------------------------------------------------------------------
# Proposition-style trace identity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 3])
def test_trace_identity(k):
    # ||S~^k X W - X W||_F^2 == trace((XW)^T (S~^k - I)^2 (XW))
    rng = np.random.default_rng(60 + k)
    n = 30
    dense = np.triu(rng.random((n, n)) < 0.2, k=1)
    u, v = np.nonzero(dense)
    g = build_graph(np.column_stack([u, v]), n)
    st = normalize_no_self_loops(g)
    x = rng.standard_normal((n, 6))
    w = rng.standard_normal((6, 4))
    p_mat = propagate(st, x, k)
    lhs = loss_agg(p_mat, x, w)
    sk = np.linalg.matrix_power(st.to_dense(), k)
    filt = sk - np.eye(n)
    xw = x @ w
    rhs = float(np.trace(xw.T @ filt @ filt @ xw))
    assert np.isclose(lhs, rhs, rtol=1e-10)


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def small_instance(seed=0, n=40, with_labels=False, p=0.15, d=6):
    rng = np.random.default_rng(seed)
    dense = np.triu(rng.random((n, n)) < p, k=1)
    u, v = np.nonzero(dense)
    g = build_graph(np.column_stack([u, v]), n)
    x = rng.standard_normal((n, d))
    return g, x


def test_train_lambda0_nonincreasing_endpoint():
    g, x = small_instance(seed=70)
    cfg = AMLPConfig(k=2, lambda_=0.0, hidden_dim=8, epochs=60, seed=1)
    _, _, report = train(g, x, cfg)
    assert report.losses_agg[-1] <= report.losses_agg[0]


def test_train_deterministic_report():
    g, x = small_instance(seed=71)
    cfg = AMLPConfig(k=2, hidden_dim=8, epochs=20, seed=3)
    m1, y1, r1 = train(g, x, cfg)
    m2, y2, r2 = train(g, x, cfg)
    assert np.array_equal(m1.W, m2.W)
    assert np.array_equal(y1, y2)
    assert np.array_equal(r1.losses_total, r2.losses_total)
    assert r1.final_dirichlet == r2.final_dirichlet


def test_train_report_counts():
    g, x = small_instance(seed=72)
    cfg = AMLPConfig(k=1, hidden_dim=4, epochs=15, seed=0)
    _, y_hat, report = train(g, x, cfg)
    assert report.epochs_run == 15
    assert len(report.losses_total) == 15
    assert y_hat.shape == (40, 4)
    norms = np.linalg.norm(y_hat, axis=1)
    assert np.all((np.abs(norms - 1.0) <= 1e-9) | (norms == 0.0))


def test_train_early_stop_records_fewer_epochs():
    g, x = small_instance(seed=73)
    # tiny lr so the loss plateaus immediately
    cfg = AMLPConfig(
        k=1, hidden_dim=4, epochs=200, seed=0, learning_rate=1e-12, early_stop=True
    )
    _, _, report = train(g, x, cfg)
    assert report.early_stopped
    assert report.epochs_run < 200
    assert len(report.losses_total) == report.epochs_run


def test_train_needs_two_nodes():
    g = build_graph([], 1)
    with pytest.raises(ValidationError):
        train(g, np.zeros((1, 2)), AMLPConfig(hidden_dim=2, epochs=1))


def test_train_permutation_equivariance():
    g, x = small_instance(seed=74, n=30)
    cfg = AMLPConfig(k=2, hidden_dim=6, epochs=25, seed=5)
    _, y1, _ = train(g, x, cfg)
    rng = np.random.default_rng(75)
    perm = rng.permutation(30)
    edges = g.edge_array()
    g2 = build_graph(
        np.column_stack([perm[edges[:, 0]], perm[edges[:, 1]]]), 30
    )
    x2 = np.empty_like(x)
    x2[perm] = x
    _, y2, _ = train(g2, x2, cfg)
    assert np.allclose(y2[perm], y1, atol=1e-8)


def test_train_without_agg_loss_is_decoder_only():
    g, x = small_instance(seed=77)
    cfg = AMLPConfig(k=2, hidden_dim=6, epochs=10, seed=0, use_agg_loss=False)
    _, _, report = train(g, x, cfg)
    assert np.allclose(report.losses_total, cfg.lambda_ * report.losses_rec)


def test_train_soft_mode_runs():
    g, x = small_instance(seed=76, n=25)
    cfg = AMLPConfig(k=2, hidden_dim=4, epochs=10, seed=0)
    recon = ReconstructionConfig(mode="soft", steepness=25.0)
    _, y_hat, report = train(g, x, cfg, recon)
    assert np.all(np.isfinite(y_hat))
    assert report.recon_stats.candidates_scored == g.n_edges


# ---------------------------------------------------------------------------
# exp1_train
# ---------------------------------------------------------------------------


def test_exp1_deterministic():
    g, x = small_instance(seed=80, n=30)
    cfg = AMLPConfig(hidden_dim=8, epochs=15, seed=2)
    dr1, y1 = exp1_train(g, x, "weighted_sum", use_agg_loss=False, cfg=cfg)
    dr2, y2 = exp1_train(g, x, "weighted_sum", use_agg_loss=False, cfg=cfg)
    assert dr1 == dr2
    assert np.array_equal(y1, y2)


@pytest.mark.parametrize("agg", ["mean", "max", "sum", "weighted_sum"])
def test_exp1_all_aggregators_run(agg):
    g, x = small_instance(seed=81, n=25)
    cfg = AMLPConfig(hidden_dim=6, epochs=8, seed=1)
    dr, y_hat = exp1_train(g, x, agg, use_agg_loss=True, cfg=cfg)
    assert np.isfinite(dr) and dr >= 0.0
    assert y_hat.shape == (25, 6)


def test_exp1_max_dirichlet_energies_pinned():
    # recorded from the per-node loop implementation of max aggregation
    g, x = small_instance(seed=82)
    cfg = AMLPConfig(hidden_dim=6, epochs=20, seed=3)
    dr0, _ = exp1_train(g, x, "max", use_agg_loss=False, cfg=cfg)
    dr1, _ = exp1_train(g, x, "max", use_agg_loss=True, cfg=cfg)
    assert dr0 == 12.628918649492832
    assert dr1 == 11.477717804277418


@pytest.mark.parametrize("agg", ["mean", "sum", "weighted_sum", "max"])
def test_exp1_gradient_matches_fd(agg):
    """FD check of the full exp1 objective via a 1-epoch probe."""
    from amlp.graph import aggregator
    from amlp.model import _Decoder

    rng = np.random.default_rng(90)
    g, x = small_instance(seed=90, n=12)
    x = x[:, :4]
    at = normalize_with_self_loops(g)
    decoder = _Decoder(at, 12, 3, 1e-12)
    w = rng.standard_normal((4, 3)) * 0.4
    lam = 0.1
    a_bin = g.to_scipy()
    diff = a_bin @ x - x
    m1 = diff.T @ diff

    def objective(wm):
        op = aggregator(agg, g, at)
        y = op.forward(x @ wm)
        lr_ = decoder.loss(y)
        return lr_ + lam * float(np.sum(wm * (m1 @ wm)))

    op = aggregator(agg, g, at)
    z = x @ w
    y = op.forward(z)
    decoder.loss(y)
    g_y = decoder.grad()
    analytic = x.T @ op.backward(g_y) + lam * 2.0 * (m1 @ w)
    h = 1e-6
    numeric = np.zeros_like(w)
    for idx in np.ndindex(*w.shape):
        wp = w.copy()
        wp[idx] += h
        wm_ = w.copy()
        wm_[idx] -= h
        numeric[idx] = (objective(wp) - objective(wm_)) / (2 * h)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    assert (np.abs(analytic - numeric) / denom).max() <= 1e-4


@pytest.mark.parametrize("agg", ["mean", "sum", "weighted_sum"])
def test_exp1_precomputed_gradient_matches_fd(agg):
    """FD check of the gradient exp1_train takes for a linear aggregator M:
    with F = M X, dL/dW = F^T G_Y + lambda * 2 M1 W."""
    from amlp.graph import aggregator
    from amlp.model import _Decoder

    rng = np.random.default_rng(91)
    g, x = small_instance(seed=91, n=12)
    x = x[:, :4]
    at = normalize_with_self_loops(g)
    decoder = _Decoder(at, 12, 3, 1e-12)
    w = rng.standard_normal((4, 3)) * 0.4
    lam = 0.1
    diff = g.to_scipy() @ x - x
    m1 = diff.T @ diff

    def objective(wm):
        y = aggregator(agg, g, at).forward(x @ wm)
        lr_ = decoder.loss(y)
        return lr_ + lam * float(np.sum(wm * (m1 @ wm)))

    f = aggregator(agg, g, at).forward(x)
    decoder.loss(f @ w)
    g_y = decoder.grad()
    analytic = f.T @ g_y + lam * 2.0 * (m1 @ w)
    h = 1e-6
    numeric = np.zeros_like(w)
    for idx in np.ndindex(*w.shape):
        wp = w.copy()
        wp[idx] += h
        wm_ = w.copy()
        wm_[idx] -= h
        numeric[idx] = (objective(wp) - objective(wm_)) / (2 * h)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    assert (np.abs(analytic - numeric) / denom).max() <= 1e-4


def _reference_exp1_train(g, x, aggregator, use_agg_loss, lambda_, cfg):
    """exp1_train as one aggregator forward on X W and one backward per epoch."""
    from amlp.graph import aggregator as aggregator_op, dirichlet_energy
    from amlp.model import _Decoder

    a_tilde = normalize_with_self_loops(g)
    agg = aggregator_op(aggregator, g, a_tilde)
    decoder = _Decoder(a_tilde, g.n_nodes, cfg.hidden_dim, cfg.eps_norm)
    if use_agg_loss:
        diff = g.to_scipy() @ x - x
        m1 = diff.T @ diff
    w = init_weights(x.shape[1], cfg.hidden_dim, cfg.seed)
    state = AdamState.zeros_like(w)
    for _ in range(cfg.epochs):
        y = agg.forward(x @ w)
        decoder.loss(y)
        g_y = decoder.grad()
        grad = x.T @ agg.backward(g_y)
        if use_agg_loss:
            grad = grad + lambda_ * 2.0 * (m1 @ w)
        w, state = adam_step(state, w, grad, cfg.learning_rate)
    y_hat = row_normalize(agg.forward(x @ w), cfg.eps_norm)
    return dirichlet_energy(a_tilde, y_hat), y_hat


@pytest.fixture(scope="module")
def presets():
    from amlp.synth import generate_dataset, heterophilic_preset, homophilic_preset

    return {
        name: generate_dataset(preset(seed=0))[:2]
        for name, preset in (("hom", homophilic_preset), ("het", heterophilic_preset))
    }


@pytest.mark.parametrize("use_agg_loss", [False, True])
@pytest.mark.parametrize("agg", ["mean", "max", "sum", "weighted_sum"])
@pytest.mark.parametrize("preset", ["hom", "het"])
def test_exp1_matches_per_epoch_aggregator_reference(presets, preset, agg, use_agg_loss):
    g, x = presets[preset]
    cfg = AMLPConfig(hidden_dim=8, epochs=6, seed=1)
    dr, y_hat = exp1_train(g, x, agg, use_agg_loss, 0.1, cfg)
    ref_dr, ref_y = _reference_exp1_train(g, x, agg, use_agg_loss, 0.1, cfg)
    if agg == "max":
        assert dr == ref_dr
        assert np.array_equal(y_hat, ref_y)
    else:
        # (M X) W rounds differently from M (X W)
        assert abs(dr - ref_dr) <= 1e-12 * abs(ref_dr)
        assert np.abs(y_hat - ref_y).max() <= 1e-12


@pytest.mark.parametrize("agg", ["mean", "max", "sum", "weighted_sum"])
def test_exp1_aggregator_call_counts(monkeypatch, agg):
    from amlp import graph

    calls = {"forward": 0, "backward": 0}
    cls = graph.MaxAggregator if agg == "max" else graph.LinearAggregator

    def spy(name):
        original = getattr(cls, name)

        def counted(self, *args):
            calls[name] += 1
            return original(self, *args)

        monkeypatch.setattr(cls, name, counted)

    spy("forward")
    spy("backward")
    g, x = small_instance(seed=83, n=25)
    cfg = AMLPConfig(hidden_dim=4, epochs=7, seed=0)
    exp1_train(g, x, agg, use_agg_loss=True, cfg=cfg)
    if agg == "max":
        assert calls == {"forward": cfg.epochs + 1, "backward": cfg.epochs}
    else:
        assert calls == {"forward": 1, "backward": 0}


# ---------------------------------------------------------------------------
# Workspace kernel against the allocating formulas it replaced
# ---------------------------------------------------------------------------


def _ref_rec_pieces(y, a_sp, a_frob2, eps_norm):
    n = y.shape[0]
    norms = np.linalg.norm(y, axis=1)
    nz = norms >= eps_norm
    y_hat = np.zeros_like(y)
    y_hat[nz] = y[nz] / norms[nz, None]
    gram = y_hat.T @ y_hat
    ay = a_sp @ y_hat
    cross = float(np.sum(y_hat * ay))
    l_rec = (float(np.sum(gram * gram)) - 2.0 * cross + a_frob2) / (n * n)
    g_yhat = (4.0 / (n * n)) * (y_hat @ gram - ay)
    return l_rec, y_hat, norms, nz, g_yhat


def _ref_chain_row_normalize(g_yhat, y_hat, norms, nz):
    g_y = np.zeros_like(g_yhat)
    dots = np.einsum("ij,ij->i", g_yhat[nz], y_hat[nz])
    g_y[nz] = (g_yhat[nz] - dots[:, None] * y_hat[nz]) / norms[nz, None]
    return g_y


def _ref_adam_step(state, w, grad, lr):
    t = state.step + 1
    m = state.beta1 * state.m + (1.0 - state.beta1) * grad
    v = state.beta2 * state.v + (1.0 - state.beta2) * grad * grad
    m_hat = m / (1.0 - state.beta1**t)
    v_hat = v / (1.0 - state.beta2**t)
    w_new = w - lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return w_new, AdamState(m=m, v=v, step=t)


def _ref_loss_and_grad(p, x, at, w, lambda_, use_agg_loss, eps_norm=1e-12):
    b = p + x
    diff = p - x
    m = diff.T @ diff
    a_sp = at.to_scipy()
    a_frob2 = float(np.sum(at.values**2))
    mw = m @ w
    la = float(np.sum(w * mw))
    g = 2.0 * mw if use_agg_loss else np.zeros_like(w)
    y = b @ w
    lr_, y_hat, norms, nz, g_yhat = _ref_rec_pieces(y, a_sp, a_frob2, eps_norm)
    if lambda_ != 0.0:
        g_y = _ref_chain_row_normalize(g_yhat, y_hat, norms, nz)
        g += lambda_ * (b.T @ g_y)
    total = (la if use_agg_loss else 0.0) + lambda_ * lr_
    return total, la, lr_, g


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _isolated_zero_rows_graph(rng=None):
    """A random graph on 60 nodes and 7 features whose last five nodes have
    zero features."""
    rng = np.random.default_rng(120) if rng is None else rng
    n, d = 60, 7
    dense = np.triu(rng.random((n, n)) < 0.15, k=1)
    u, v = np.nonzero(dense)
    g = build_graph(np.column_stack([u, v]), n)
    x = rng.standard_normal((n, d))
    x[n - 5 :] = 0.0
    return g, x


def _isolated_zero_rows_setup():
    """Random instance whose last five nodes have zero features and no edges
    in the propagation graph, as hard reconstruction leaves many nodes, but
    keep their edges in A: their rows of Y and Yh are zero while their rows
    of dL_rec/dYh are not."""
    rng = np.random.default_rng(120)
    g, x = _isolated_zero_rows_graph(rng)
    n, d, c = x.shape + (5,)
    u, v = g.edge_array().T
    kept = (u < n - 5) & (v < n - 5)
    s = build_graph(np.column_stack([u[kept], v[kept]]), n)
    p_mat = propagate(normalize_no_self_loops(s), x, 2)
    w = rng.standard_normal((d, c)) * 0.3
    return x, w, p_mat, normalize_with_self_loops(g)


def _kernel_setup(zero_rows):
    if zero_rows:
        return _isolated_zero_rows_setup()
    _, x, w, p_mat, at = random_setup(50, 6, 4, seed=110)
    return x, w, p_mat, at


@pytest.mark.parametrize(
    "lambda_, use_agg_loss", [(0.1, True), (0.0, True), (0.1, False)]
)
@pytest.mark.parametrize("zero_rows", [False, True])
def test_workspace_kernel_matches_reference_bitwise(lambda_, use_agg_loss, zero_rows):
    from amlp.model import _TrainingKernel

    x, w, p_mat, at = _kernel_setup(zero_rows)
    if zero_rows:
        assert not np.linalg.norm((p_mat + x) @ w, axis=1).all()
    kernel = _TrainingKernel.from_p(p_mat, x, at, w.shape[1], lambda_, 1e-12, use_agg_loss)
    got = kernel.loss_and_grad(w)
    want = _ref_loss_and_grad(p_mat, x, at, w, lambda_, use_agg_loss)
    assert got[:3] == want[:3]
    assert _same_bits(got[3], want[3])
    if use_agg_loss:
        cfg = AMLPConfig(lambda_=lambda_, hidden_dim=w.shape[1])
        assert _same_bits(gradient(p_mat, x, w, at, cfg), want[3])
        assert loss_rec((p_mat + x) @ w, at) == want[2]
    # ten epochs of the training loop
    w_got, w_ref = w.copy(), w.copy()
    s_got, s_ref = AdamState.zeros_like(w), AdamState.zeros_like(w)
    for _ in range(10):
        got = kernel.loss_and_grad(w_got)
        want = _ref_loss_and_grad(p_mat, x, at, w_ref, lambda_, use_agg_loss)
        assert got[:3] == want[:3]
        assert _same_bits(got[3], want[3])
        w_got, s_got = adam_step(s_got, w_got, got[3], 1e-2)
        w_ref, s_ref = _ref_adam_step(s_ref, w_ref, want[3], 1e-2)
        assert _same_bits(w_got, w_ref)
        assert _same_bits(s_got.m, s_ref.m) and _same_bits(s_got.v, s_ref.v)


@pytest.mark.parametrize("zero_rows", [False, True])
def test_decoder_pieces_without_workspace_match_reference(zero_rows):
    """A fresh _Decoder leaves the reference's Yh, norms, mask and G, and
    its gradient is the reference chain rule's, bit for bit."""
    from amlp.model import _Decoder

    x, w, p_mat, at = _kernel_setup(zero_rows)
    y = (p_mat + x) @ w
    if zero_rows:
        zero = np.linalg.norm(y, axis=1) == 0.0
        assert zero.any() and (at.to_scipy()[zero] @ (p_mat + x)).any()
    a_sp = at.to_scipy()
    a_frob2 = float(np.sum(at.values**2))
    decoder = _Decoder(at, *y.shape, 1e-12)
    want = _ref_rec_pieces(y, a_sp, a_frob2, 1e-12)
    assert decoder.loss(y) == want[0]
    got = (decoder.y_hat, decoder.norms, decoder.nz, decoder.g_yhat)
    for a, b in zip(got, want[1:]):
        assert _same_bits(a, b)
    assert _same_bits(
        decoder.grad(), _ref_chain_row_normalize(want[4], want[1], want[2], want[3])
    )


def test_epoch_allocates_only_the_sparse_product(traced_peak):
    from amlp.model import _TrainingKernel

    n, d, c = 2000, 8, 16
    _, x, w, p_mat, at = random_setup(n, d, c, seed=130, p=0.002)
    kernel = _TrainingKernel.from_p(p_mat, x, at, c, 0.1, 1e-12)

    def epoch(w, state):
        _, _, _, grad = kernel.loss_and_grad(w)
        return adam_step(state, w, grad, 1e-3)

    w, state = epoch(w, AdamState.zeros_like(w))  # warm-up epoch
    peaks = []
    for _ in range(5):
        (w, state), peak = traced_peak(lambda: epoch(w, state))
        peaks.append(peak)
    nc, dc = n * c * 8, d * c * 8
    # A Yh is the one N x c array an epoch allocates; Adam returns new m, v
    # and weights and uses one scratch array
    assert max(peaks) <= 2 * nc + 8 * dc + 16_384, peaks


def test_adam_step_leaves_its_inputs_alone():
    rng = np.random.default_rng(140)
    w = rng.standard_normal((5, 3))
    grad = rng.standard_normal((5, 3))
    _, state = adam_step(AdamState.zeros_like(w), w, grad, 1e-2)
    grad = rng.standard_normal((5, 3))
    before = [a.copy() for a in (w, grad, state.m, state.v)]
    w_new, new_state = adam_step(state, w, grad, 1e-2)
    for a, b in zip((w, grad, state.m, state.v), before):
        assert _same_bits(a, b)
    assert state.step == 1 and new_state.step == 2
    for out in (w_new, new_state.m, new_state.v):
        for a in (w, grad, state.m, state.v):
            assert not np.shares_memory(out, a)


# ---------------------------------------------------------------------------
# train(): what it holds at each stage, and its finish
# ---------------------------------------------------------------------------


def test_train_memory_is_set_up_or_epoch_loop(traced_peak):
    """Set-up holds P, the buffer that is P - X and then B, and M; the epoch
    loop holds B, M, the decoder workspace, A Yh and the d x c arrays of the
    gradient and Adam. The graphs and the caller's X are outside the N x d
    count."""
    n, d, c = 2000, 400, 16
    g, x = small_instance(seed=150, n=n, p=0.005, d=d)
    cfg = AMLPConfig(k=2, hidden_dim=c, epochs=3, seed=0)
    train(g, x, replace(cfg, epochs=1))  # warm-up run
    _, peak = traced_peak(lambda: train(g, x, cfg))
    nnz = g.indices.size
    bound = 8 * (max(2 * n * d, n * d + 4 * n * c + 8 * d * c) + d * d)
    bound += 64 * (nnz + n) + 2**20
    assert peak <= bound, (peak, bound)


def _ref_row_normalize(m, eps_norm):
    norms = np.linalg.norm(m, axis=1)
    out = np.zeros_like(m)
    nz = norms >= eps_norm
    out[nz] = m[nz] / norms[nz, None]
    return out


def _ref_dirichlet(at, y_hat):
    a = at.to_scipy()
    row_sums = np.asarray(a.sum(axis=1)).ravel()
    sq = np.einsum("ij,ij->i", y_hat, y_hat)
    cross = float(np.sum(y_hat * (a @ y_hat)))
    return max(2.0 * float(row_sums @ sq) - 2.0 * cross, 0.0)


@pytest.mark.parametrize("mode", ["hard", "soft"])
@pytest.mark.parametrize(
    "lambda_, use_agg_loss", [(0.1, True), (0.0, True), (0.1, False)]
)
def test_train_matches_reference_bitwise(mode, lambda_, use_agg_loss):
    """train() against its epochs run on the reference formulas and the
    finish row_normalize((P + X) W); hard reconstruction isolates the
    zero-feature nodes, so Yh has zero rows."""
    from amlp.reconstruct import reconstruct_hard, reconstruct_soft

    g, x = _isolated_zero_rows_graph()
    cfg = AMLPConfig(
        k=2, lambda_=lambda_, hidden_dim=5, epochs=12, learning_rate=1e-2,
        use_agg_loss=use_agg_loss,
    )
    recon = ReconstructionConfig(mode=mode)
    model, y_hat, report = train(g, x, cfg, recon)

    reconstruct = reconstruct_hard if mode == "hard" else reconstruct_soft
    s, _ = reconstruct(g, x, recon)
    p_mat = propagate(normalize_no_self_loops(s), x, cfg.k)
    at = normalize_with_self_loops(g)
    w = init_weights(x.shape[1], cfg.hidden_dim, cfg.seed)
    state = AdamState.zeros_like(w)
    losses = []
    for _ in range(cfg.epochs):
        *loss, grad = _ref_loss_and_grad(p_mat, x, at, w, lambda_, use_agg_loss)
        losses.append(loss)
        w, state = _ref_adam_step(state, w, grad, cfg.learning_rate)
    want = _ref_row_normalize((p_mat + x) @ w, cfg.eps_norm)

    if mode == "hard":
        assert not np.linalg.norm(want, axis=1).all()
    assert _same_bits(model.W, w)
    assert _same_bits(y_hat, want) and y_hat.flags.c_contiguous
    total, agg, rec = np.array(losses).T
    assert _same_bits(report.losses_total, total)
    assert _same_bits(report.losses_agg, agg)
    assert _same_bits(report.losses_rec, rec)
    assert report.final_dirichlet == _ref_dirichlet(at, want)


def test_kernel_leaves_p_alone():
    from amlp.model import _TrainingKernel

    x, w, p_mat, at = _isolated_zero_rows_setup()
    before = p_mat.copy()
    kernel = _TrainingKernel.from_p(p_mat, x, at, w.shape[1], 0.1, 1e-12)
    assert _same_bits(p_mat, before)
    assert _same_bits(kernel.b, p_mat + x)
    assert not np.shares_memory(kernel.b, p_mat)


@pytest.mark.parametrize("run", ["train", "mean", "max"])
def test_kernel_is_released_before_dirichlet_energy(monkeypatch, run):
    """B, M and the epoch buffers are gone when the Dirichlet energy
    allocates its N x c product; only Yh outlives the kernel."""
    import weakref

    from amlp import model

    kernels, alive = [], []
    kernel_init, energy = model._TrainingKernel.__init__, model.dirichlet_energy

    def kernel_init_hook(self, *args, **kwargs):
        kernel_init(self, *args, **kwargs)
        kernels.append(weakref.ref(self))

    def energy_hook(*args):
        alive.extend(ref() is not None for ref in kernels)
        return energy(*args)

    monkeypatch.setattr(model._TrainingKernel, "__init__", kernel_init_hook)
    monkeypatch.setattr(model, "dirichlet_energy", energy_hook)
    g, x = small_instance(seed=84, n=30)
    cfg = AMLPConfig(hidden_dim=4, epochs=3)
    if run == "train":
        train(g, x, cfg)
    else:
        exp1_train(g, x, run, True, cfg=cfg)
    assert alive == [False]


# ---------------------------------------------------------------------------
# train(): the hidden form, Y = S~^k Z + Z with Z = X W
# ---------------------------------------------------------------------------


def _hidden_form_instance(kind):
    """A 40-node, 200-feature instance on whose propagation graph train()
    runs the hidden form. Kind "isolated": a sparse random graph whose last
    five nodes have no edges and zero features, while A keeps their edges;
    kind "empty": a propagation graph with no edges at all."""
    rng = np.random.default_rng(170)
    n, d = 40, 200
    u, v = np.nonzero(np.triu(rng.random((n, n)) < 0.15, k=1))
    g = build_graph(np.column_stack([u, v]), n)
    x = rng.standard_normal((n, d))
    s = build_graph([], n)
    if kind == "isolated":
        u, v = np.nonzero(np.triu(rng.random((n, n)) < 0.05, k=1))
        kept = (u < n - 5) & (v < n - 5)
        s = build_graph(np.column_stack([u[kept], v[kept]]), n)
        x[n - 5 :] = 0.0
    return x, normalize_no_self_loops(s), normalize_with_self_loops(g)


def _max_rel(got, want):
    return np.abs(np.asarray(got) - want).max() / np.abs(want).max()


@pytest.mark.parametrize("kind", ["isolated", "empty"])
@pytest.mark.parametrize("k", [1, 3])
@pytest.mark.parametrize(
    "lambda_, use_agg_loss", [(0.1, True), (0.0, True), (0.1, False)]
)
def test_hidden_kernel_matches_p_form(kind, k, lambda_, use_agg_loss):
    from amlp.model import _HiddenKernel, _propagates_hidden, _TrainingKernel

    x, st, at = _hidden_form_instance(kind)
    (n, d), c = x.shape, 6
    assert _propagates_hidden(n, d, k, st.indices.size)
    w = np.random.default_rng(171).standard_normal((d, c)) * 0.3
    before = x.copy()
    hidden = _HiddenKernel(x, st, k, at, c, lambda_, 1e-12, use_agg_loss)
    p_form = _TrainingKernel.from_p(propagate(st, x, k), x, at, c, lambda_, 1e-12, use_agg_loss)
    y = p_form.forward(w).copy()
    assert _max_rel(hidden.forward(w), y) <= 1e-12
    if kind == "isolated":
        assert not np.linalg.norm(y, axis=1).all()
    got, want = hidden.loss_and_grad(w), p_form.loss_and_grad(w)
    for a, b in zip(got[:3], want[:3]):
        assert abs(a - b) <= 1e-12 * abs(b), (a, b)
    assert _max_rel(got[3], want[3]) <= 1e-12
    assert _same_bits(x, before)


@pytest.mark.parametrize("lam", [0.0, 0.1, 1.0])
def test_hidden_kernel_gradient_matches_finite_differences(lam):
    from amlp.model import _HiddenKernel

    h = 1e-5
    for seed in range(5):
        rng = np.random.default_rng(180 + seed)
        n, d, c = int(rng.integers(8, 16)), int(rng.integers(3, 7)), int(rng.integers(2, 4))
        g, x, w, _, at = random_setup(n, d, c, seed=190 + seed)
        kernel = _HiddenKernel(x, normalize_no_self_loops(g), 1 + seed % 3, at, c, lam, 1e-12)
        analytic = kernel.loss_and_grad(w)[3].copy()
        numeric = np.zeros_like(w)
        for idx in np.ndindex(*w.shape):
            wp, wm = w.copy(), w.copy()
            wp[idx] += h
            wm[idx] -= h
            numeric[idx] = (kernel.loss_and_grad(wp)[0] - kernel.loss_and_grad(wm)[0]) / (2 * h)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
        assert (np.abs(analytic - numeric) / denom).max() <= 1e-4


def test_form_selection_of_benchmark_and_test_shapes():
    """wide_train and criterion 10 (hard reconstruction of the N = 3000,
    d = 1500 SBM, k = 3) run the hidden form; cli_pipeline (N = 4000,
    d = 64), criterion 7 (the homophilic preset, N = 400, d = 16) and the
    shapes of the bitwise train() and kernel tests run the P form even on a
    propagation graph with no edges, the cheapest one for the hidden form."""
    from amlp.model import _propagates_hidden
    from amlp.reconstruct import reconstruct_hard
    from amlp.synth import SbmSpec, generate_features, generate_sbm

    spec = SbmSpec(
        n_nodes=3000, n_classes=4, p_in=0.02, p_out=0.002, feature_dim=1500,
        class_separation=1.0, noise_sigma=0.02, seed=0,
    )
    g, labels = generate_sbm(spec)
    x = generate_features(labels, 1500, 1.0, 0.02, seed=1)
    nnz = reconstruct_hard(g, x, ReconstructionConfig())[0].indices.size
    assert _propagates_hidden(3000, 1500, 3, nnz)
    # benchmark seeds leave 5.1k to 5.7k entries; the choice holds below 8k
    assert _propagates_hidden(3000, 1500, 3, 7900)
    assert not _propagates_hidden(3000, 1500, 3, 8100)
    for n, d, k in [(4000, 64, 3), (400, 16, 3), (60, 7, 2), (50, 6, 2), (2000, 400, 2)]:
        assert not _propagates_hidden(n, d, k, 0), (n, d, k)


def _hidden_form_sbm(n, d, p_in, seed):
    from amlp.synth import SbmSpec, generate_features, generate_sbm

    spec = SbmSpec(
        n_nodes=n, n_classes=3, p_in=p_in, p_out=p_in / 10, feature_dim=d,
        class_separation=1.0, noise_sigma=0.02, seed=seed,
    )
    g, labels = generate_sbm(spec)
    return g, generate_features(labels, d, 1.0, 0.02, seed=seed + 1)


def test_train_runs_the_hidden_form_without_propagate(monkeypatch):
    """At a hidden-form shape train() never calls propagate, and its outputs
    are those of the P form up to roundoff."""
    from amlp import model

    g, x = _hidden_form_sbm(60, 300, 0.2, seed=3)
    cfg = AMLPConfig(k=3, hidden_dim=8, epochs=30, learning_rate=1e-2)
    calls = []
    propagate_fn = model.propagate
    monkeypatch.setattr(model, "propagate", lambda *a: calls.append(a) or propagate_fn(*a))
    got_model, got_y, got = train(g, x, cfg)
    assert calls == []
    monkeypatch.setattr(model, "_propagates_hidden", lambda *a: False)
    want_model, want_y, want = train(g, x, cfg)
    assert len(calls) == 1
    assert _max_rel(got_model.W, want_model.W) <= 1e-10
    assert _max_rel(got_y, want_y) <= 1e-10
    for name in ("losses_total", "losses_agg", "losses_rec"):
        assert _max_rel(getattr(got, name), getattr(want, name)) <= 1e-12, name
    assert abs(got.final_dirichlet - want.final_dirichlet) <= 1e-12 * want.final_dirichlet


def test_train_memory_in_the_hidden_form(traced_peak):
    """The hidden form holds no N x d or d x d array: besides the
    reconstruction's two edge-feature buffers, train() holds the decoder
    workspace, Z, the hops' results, A Yh and the d x c arrays of the
    gradient and Adam. The P form holds 2 N d + d^2 here."""
    from amlp.model import _propagates_hidden
    from amlp.reconstruct import _GATHER_BYTES, reconstruct_hard

    n, d, c = 1000, 1500, 8
    g, x = _hidden_form_sbm(n, d, 0.01, seed=5)
    s, _ = reconstruct_hard(g, x, ReconstructionConfig())
    assert s.indices.size and _propagates_hidden(n, d, 2, s.indices.size)
    cfg = AMLPConfig(k=2, hidden_dim=c, epochs=3, seed=0)
    train(g, x, replace(cfg, epochs=1))  # warm-up run
    _, peak = traced_peak(lambda: train(g, x, cfg))
    gather = 2 * min(_GATHER_BYTES, 8 * g.n_edges * d)
    bound = gather + 8 * (8 * n * c + 8 * d * c) + 64 * (g.indices.size + n) + 2**20
    assert bound < 8 * n * d  # one N x d array more would not fit
    assert peak <= bound, (peak, bound)


# ---------------------------------------------------------------------------
# exp1_train(): what it holds, and the bits of its linear kinds
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("agg", ["mean", "sum", "weighted_sum", "max"])
def test_exp1_memory_is_set_up_or_epoch_loop(traced_peak, agg):
    """Set-up holds one N x d array at a time (A X - X, then F = M X) and M1;
    the epoch loop holds F, M1, the decoder workspace, A Yh, max's operands
    and the d x c arrays of the gradient and Adam. The graphs and the
    caller's X are outside the N x d count."""
    n, d, c = 2000, 400, 16
    g, x = small_instance(seed=150, n=n, p=0.005, d=d)
    cfg = AMLPConfig(hidden_dim=c, epochs=3, seed=0)
    exp1_train(g, x, agg, True, 0.1, replace(cfg, epochs=1))  # warm-up run
    _, peak = traced_peak(lambda: exp1_train(g, x, agg, True, 0.1, cfg))
    nnz = g.indices.size
    bound = 8 * (n * d + d * d + 8 * n * c + 8 * d * c) + 64 * (nnz + n) + 2**20
    assert peak <= bound, (peak, bound)


def _ref_linear_exp1_train(g, x, aggregator, use_agg_loss, lambda_, cfg):
    """exp1_train for a linear aggregator M on the reference formulas:
    F = M X once, Y = F W and dL/dW = F^T G_Y + (2 lambda) M1 W."""
    from amlp.graph import aggregator as aggregator_op

    at = normalize_with_self_loops(g)
    f = aggregator_op(aggregator, g, at).forward(x)
    a_sp = at.to_scipy()
    a_frob2 = float(np.sum(at.values**2))
    if use_agg_loss:
        diff = g.to_scipy() @ x - x
        m1 = diff.T @ diff
    w = init_weights(x.shape[1], cfg.hidden_dim, cfg.seed)
    state = AdamState.zeros_like(w)
    for _ in range(cfg.epochs):
        _, y_hat, norms, nz, g_yhat = _ref_rec_pieces(f @ w, a_sp, a_frob2, cfg.eps_norm)
        grad = f.T @ _ref_chain_row_normalize(g_yhat, y_hat, norms, nz)
        if use_agg_loss:
            grad = grad + (2.0 * lambda_) * (m1 @ w)
        w, state = _ref_adam_step(state, w, grad, cfg.learning_rate)
    y_hat = _ref_row_normalize(f @ w, cfg.eps_norm)
    return _ref_dirichlet(at, y_hat), y_hat


@pytest.mark.parametrize("use_agg_loss", [False, True])
@pytest.mark.parametrize("agg", ["mean", "sum", "weighted_sum"])
@pytest.mark.parametrize("preset", ["hom", "het"])
def test_exp1_linear_kinds_match_reference_bitwise(presets, preset, agg, use_agg_loss):
    g, x = presets[preset]
    cfg = AMLPConfig(hidden_dim=8, epochs=6, seed=1, learning_rate=1e-2)
    dr, y_hat = exp1_train(g, x, agg, use_agg_loss, 0.1, cfg)
    ref_dr, ref_y = _ref_linear_exp1_train(g, x, agg, use_agg_loss, 0.1, cfg)
    assert dr == ref_dr
    assert _same_bits(y_hat, ref_y)


# ---------------------------------------------------------------------------
# Config values
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "key, value",
    [
        ("eps_norm", 0.0),
        ("eps_norm", -1.0),
        ("eps_norm", float("nan")),
        ("eps_norm", float("inf")),
        ("lambda_", float("nan")),
        ("lambda_", float("inf")),
        ("learning_rate", float("nan")),
        ("learning_rate", float("inf")),
    ],
)
def test_config_refuses_non_finite_values(key, value):
    with pytest.raises(ValidationError, match=key.rstrip("_")):
        AMLPConfig(**{key: value})


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -2.0])
def test_reconstruction_config_refuses_bad_steepness(value):
    with pytest.raises(ValidationError, match="steepness"):
        ReconstructionConfig(steepness=value)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -0.5])
def test_exp1_refuses_bad_lambda(value):
    g, x = small_instance(seed=83, n=20)
    with pytest.raises(ValidationError, match="lambda"):
        exp1_train(g, x, "mean", True, lambda_=value, cfg=AMLPConfig(hidden_dim=4, epochs=2))
