"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Criterion 8 needs user-supplied Texas and Washington datasets in the standard
directory format under datasets/texas and datasets/washington (or a directory
named by AMLP_DATASETS); it is skipped when they are absent.
"""

import itertools
import os
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from amlp.evaluate import high_order_dissimilarity, hungarian_acc, kmeans, nmi
from amlp.graph import (
    AGGREGATORS,
    build_graph,
    normalize_no_self_loops,
    normalize_with_self_loops,
    propagate,
    row_normalize,
)
from amlp.model import (
    AMLPConfig,
    exp1_train,
    gradient,
    loss_agg,
    loss_rec,
    total_loss,
    train,
)
from amlp.reconstruct import ReconstructionConfig
from amlp.synth import generate_dataset, heterophilic_preset, homophilic_preset

DATASETS_ROOT = Path(os.environ.get("AMLP_DATASETS", Path(__file__).parent.parent / "datasets"))


def _report(num: int, passed: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num}: {'PASS' if passed else 'FAIL'} - {detail}")


def random_graph(rng, n, p):
    dense = np.triu(rng.random((n, n)) < p, k=1)
    u, v = np.nonzero(dense)
    return build_graph(np.column_stack([u, v]), n)


# ---------------------------------------------------------------------------
# 1. trace identity of the aggregation loss
# ---------------------------------------------------------------------------


def test_criterion_1_trace_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for trial in range(50):
        n = int(rng.integers(5, 51))
        k = int(rng.integers(1, 4))
        g = random_graph(rng, n, 0.2)
        st = normalize_no_self_loops(g)
        d, c = int(rng.integers(2, 8)), int(rng.integers(1, 5))
        x = rng.standard_normal((n, d))
        w = rng.standard_normal((d, c))
        lhs = loss_agg(propagate(st, x, k), x, w)
        sk = np.linalg.matrix_power(st.to_dense(), k)
        filt = sk - np.eye(n)
        xw = x @ w
        rhs = float(np.trace(xw.T @ filt @ filt @ xw))
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-30))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 5.0
    _report(1, ok, f"50 instances, worst rel err {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-10
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# 2. analytic gradient vs central finite differences
# ---------------------------------------------------------------------------


def _fd_gradient(p, x, w, at, cfg, h=1e-5):
    g = np.zeros_like(w)
    for idx in np.ndindex(*w.shape):
        wp = w.copy()
        wp[idx] += h
        wm = w.copy()
        wm[idx] -= h
        g[idx] = (
            total_loss(p, x, wp, at, cfg)[0] - total_loss(p, x, wm, at, cfg)[0]
        ) / (2.0 * h)
    return g


def test_criterion_2_gradient_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    lambdas = [0.0, 0.1, 1.0]
    worst = 0.0
    for trial in range(20):
        n = int(rng.integers(6, 21))
        d = int(rng.integers(2, 9))
        c = int(rng.integers(1, 5))
        g = random_graph(rng, n, 0.3)
        st = normalize_no_self_loops(g)
        at = normalize_with_self_loops(g)
        x = rng.standard_normal((n, d))
        p = propagate(st, x, 2)
        w = rng.standard_normal((d, c)) * 0.5
        cfg = AMLPConfig(lambda_=lambdas[trial % 3], hidden_dim=c)
        analytic = gradient(p, x, w, at, cfg)
        numeric = _fd_gradient(p, x, w, at, cfg)
        rel = np.abs(analytic - numeric) / np.maximum(
            np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6
        )
        worst = max(worst, float(rel.max()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and elapsed < 10.0
    _report(2, ok, f"20 instances, worst per-entry rel err {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-4
    assert elapsed < 10.0


# ---------------------------------------------------------------------------
# 3. Gram-trick fidelity of the decoder loss and its gradient
# ---------------------------------------------------------------------------


def test_criterion_3_gram_fidelity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(303)
    worst_loss = worst_grad = 0.0
    for trial in range(15):
        n = int(rng.integers(5, 51))
        d, c = int(rng.integers(2, 8)), int(rng.integers(1, 5))
        g = random_graph(rng, n, 0.2)
        at = normalize_with_self_loops(g)
        st = normalize_no_self_loops(g)
        x = rng.standard_normal((n, d))
        p = propagate(st, x, 2)
        w = rng.standard_normal((d, c)) * 0.5
        y = (p + x) @ w
        # dense N x N oracle for the loss
        y_hat = row_normalize(y)
        dense = float(np.sum((y_hat @ y_hat.T - at.to_dense()) ** 2)) / (n * n)
        got = loss_rec(y, at)
        worst_loss = max(worst_loss, abs(got - dense) / max(abs(dense), 1e-30))
        # dense oracle for the decoder gradient (lambda = 1 isolates it)
        cfg1 = AMLPConfig(lambda_=1.0, hidden_dim=c)
        cfg0 = AMLPConfig(lambda_=0.0, hidden_dim=c)
        rec_grad = gradient(p, x, w, at, cfg1) - gradient(p, x, w, at, cfg0)
        norms = np.linalg.norm(y, axis=1)
        g_yhat = (4.0 / (n * n)) * (y_hat @ y_hat.T - at.to_dense()) @ y_hat
        g_y = np.zeros_like(g_yhat)
        nz = norms >= 1e-12
        dots = np.einsum("ij,ij->i", g_yhat[nz], y_hat[nz])
        g_y[nz] = (g_yhat[nz] - dots[:, None] * y_hat[nz]) / norms[nz, None]
        dense_grad = (p + x).T @ g_y
        denom = max(float(np.abs(dense_grad).max()), 1e-30)
        worst_grad = max(worst_grad, float(np.abs(rec_grad - dense_grad).max()) / denom)
    elapsed = time.perf_counter() - t0
    ok = worst_loss <= 1e-10 and worst_grad <= 1e-10 and elapsed < 5.0
    _report(
        3,
        ok,
        f"loss rel err {worst_loss:.2e}, grad rel err {worst_grad:.2e}, {elapsed:.2f}s",
    )
    assert worst_loss <= 1e-10
    assert worst_grad <= 1e-10
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# 4. Hungarian ACC oracle equivalence + NMI conventions
# ---------------------------------------------------------------------------


def _brute_force_acc(pred, truth):
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


def test_criterion_4_acc_and_nmi():
    rng = np.random.default_rng(404)
    mismatches = 0
    for _ in range(200):
        n = int(rng.integers(4, 40))
        pred = rng.integers(0, int(rng.integers(1, 6)), size=n)
        truth = rng.integers(0, int(rng.integers(1, 6)), size=n)
        if hungarian_acc(pred, truth) != _brute_force_acc(pred, truth):
            mismatches += 1
    labels = np.array([0, 0, 1, 1, 2, 2])
    nmi_identical = nmi(labels, labels)
    nmi_indep = nmi(np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1]))
    ok = (
        mismatches == 0
        and abs(nmi_identical - 1.0) <= 1e-12
        and abs(nmi_indep) <= 1e-12
    )
    _report(
        4,
        ok,
        f"200 ACC pairs exact, NMI(identical)={nmi_identical}, NMI(indep)={nmi_indep:.2e}",
    )
    assert mismatches == 0
    assert abs(nmi_identical - 1.0) <= 1e-12
    assert abs(nmi_indep) <= 1e-12


# ---------------------------------------------------------------------------
# 5. spectral bound of the normalized adjacency
# ---------------------------------------------------------------------------


def test_criterion_5_spectral_bound():
    rng = np.random.default_rng(505)
    worst = 0.0
    for trial in range(20):
        n = int(rng.integers(10, 101))
        p = float(rng.uniform(0.02, 0.3))
        g = random_graph(rng, n, p)
        st = normalize_no_self_loops(g)
        eig = np.linalg.eigvalsh(st.to_dense())
        worst = max(worst, float(np.abs(eig).max()))
    ok = worst <= 1.0 + 1e-9
    _report(5, ok, f"20 graphs, max |eigenvalue| {worst:.12f}")
    assert worst <= 1.0 + 1e-9


# ---------------------------------------------------------------------------
# 6. aggregator study directions on the SBM presets
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_6_exp1_directions():
    t0 = time.perf_counter()
    seeds = range(5)
    cfg_by_seed = {
        s: AMLPConfig(hidden_dim=64, learning_rate=1e-3, epochs=200, seed=s)
        for s in seeds
    }
    results = {}
    for tag, preset in (("hom", homophilic_preset), ("het", heterophilic_preset)):
        data = {s: generate_dataset(preset(seed=s)) for s in seeds}
        for agg in AGGREGATORS:
            without, with_ = [], []
            for s in seeds:
                g, x, _ = data[s]
                dr0, _ = exp1_train(g, x, agg, use_agg_loss=False, cfg=cfg_by_seed[s])
                dr1, _ = exp1_train(
                    g, x, agg, use_agg_loss=True, lambda_=0.1, cfg=cfg_by_seed[s]
                )
                without.append(dr0)
                with_.append(dr1)
            results[(tag, agg)] = (float(np.mean(without)), float(np.mean(with_)))
    elapsed = time.perf_counter() - t0
    hom_down = [a for a in AGGREGATORS if results[("hom", a)][1] < results[("hom", a)][0]]
    het_up = [a for a in AGGREGATORS if results[("het", a)][1] > results[("het", a)][0]]
    ok = len(hom_down) == 4 and len(het_up) >= 3 and elapsed < 60.0
    detail = (
        f"homophilic down for {len(hom_down)}/4, heterophilic up for "
        f"{len(het_up)}/4, {elapsed:.1f}s"
    )
    _report(6, ok, detail)
    assert len(hom_down) == 4, results
    assert len(het_up) >= 3, results
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 7. end-to-end clustering lift on the homophilic preset
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_7_clustering_lift():
    t0 = time.perf_counter()
    amlp_accs, raw_accs = [], []
    for seed in range(5):
        g, x, labels = generate_dataset(homophilic_preset(seed=seed))
        cfg = AMLPConfig(
            k=3, lambda_=0.1, hidden_dim=500, learning_rate=1e-4, epochs=200, seed=seed
        )
        # the sparse SBM has no hubs, so candidate edges carry little shared-
        # neighbor evidence; the sigmoid-relaxed refinement keeps the graph
        recon = ReconstructionConfig(mode="soft", steepness=100.0)
        _, y_hat, _ = train(g, x, cfg, recon)
        amlp_accs.append(
            hungarian_acc(kmeans(y_hat, 4, seed=seed).assignments, labels)
        )
        raw_accs.append(
            hungarian_acc(
                kmeans(row_normalize(x), 4, seed=seed).assignments, labels
            )
        )
    elapsed = time.perf_counter() - t0
    lift = 100.0 * (float(np.mean(amlp_accs)) - float(np.mean(raw_accs)))
    ok = lift >= 10.0 and elapsed < 60.0
    _report(
        7,
        ok,
        f"mean ACC {np.mean(amlp_accs):.3f} vs raw {np.mean(raw_accs):.3f} "
        f"(lift {lift:+.1f} points), {elapsed:.1f}s",
    )
    assert lift >= 10.0, (amlp_accs, raw_accs)
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 8. ablation on user-supplied Texas / Washington
# ---------------------------------------------------------------------------


def _best_grid_acc(g, x, labels, n_classes, use_agg_loss):
    from amlp.dataio import load_dataset  # noqa: F401  (kept for symmetry)

    best = 0.0
    for k in (1, 2, 3, 5, 7, 8, 9, 10):
        for lam in (1.0, 0.1, 0.01, 0.001):
            for seed in range(5):
                cfg = AMLPConfig(
                    k=k,
                    lambda_=lam,
                    hidden_dim=100,
                    learning_rate=1e-3,
                    epochs=200,
                    seed=seed,
                    use_agg_loss=use_agg_loss,
                )
                _, y_hat, _ = train(g, x, cfg)
                acc = hungarian_acc(
                    kmeans(y_hat, n_classes, seed=seed).assignments, labels
                )
                best = max(best, acc)
    return best


def test_criterion_8_ablation_on_supplied_datasets():
    from amlp.dataio import load_dataset

    paths = {name: DATASETS_ROOT / name for name in ("texas", "washington")}
    missing = [str(p) for p in paths.values() if not (p / "meta.json").is_file()]
    if missing:
        _report(8, True, f"SKIPPED - datasets absent: {', '.join(missing)}")
        pytest.skip(f"user-supplied datasets absent: {missing}")
    results = {}
    for name, path in paths.items():
        g, x, labels = load_dataset(path)
        n_classes = int(labels.max()) + 1
        full = _best_grid_acc(g, x, labels, n_classes, use_agg_loss=True)
        no_agg = _best_grid_acc(g, x, labels, n_classes, use_agg_loss=False)
        results[name] = (full, no_agg)
    texas_full = results["texas"][0]
    ok = all(full >= no_agg for full, no_agg in results.values()) and abs(
        texas_full - 0.7432
    ) <= 0.08
    _report(8, ok, ", ".join(f"{n}: full {f:.4f} vs w/o {na:.4f}" for n, (f, na) in results.items()))
    for name, (full, no_agg) in results.items():
        assert full >= no_agg, (name, full, no_agg)
    assert abs(texas_full - 0.7432) <= 0.08, texas_full


# ---------------------------------------------------------------------------
# 9. high-order diagnostic on the 4-node worked example
# ---------------------------------------------------------------------------


def test_criterion_9_high_order_example():
    g = build_graph([(0, 1), (0, 3), (1, 2), (2, 3)], 4)
    x = np.array(
        [[1.0, 1.0, -1.0], [0.0, 1.0, 0.0], [1.0, 1.0, 1.0], [1.0, 0.0, 0.0]]
    )
    m_term, n_term = high_order_dissimilarity(x, g, 0, 2)
    ok = n_term == 0.0 and m_term > 0.0
    _report(9, ok, f"pair (1,3): N_term = {n_term!r} (exact zero), M_term = {m_term:.6f}")
    assert n_term == 0.0
    assert m_term > 0.0


# ---------------------------------------------------------------------------
# 10. performance envelope at N=3000, d=1500, c=500, k=3
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_criterion_10_performance_envelope():
    from amlp.synth import SbmSpec, generate_features, generate_sbm

    spec = SbmSpec(
        n_nodes=3000,
        n_classes=4,
        p_in=0.02,
        p_out=0.002,
        feature_dim=1500,
        class_separation=1.0,
        noise_sigma=0.02,
        seed=0,
    )
    g, labels = generate_sbm(spec)
    x = generate_features(labels, 1500, 1.0, 0.02, seed=1)
    cfg = AMLPConfig(
        k=3, lambda_=0.1, hidden_dim=500, learning_rate=1e-3, epochs=200, seed=0
    )
    tracemalloc.start()
    t0 = time.perf_counter()
    _, y_hat, report = train(g, x, cfg)
    elapsed = time.perf_counter() - t0
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    # legit working set is O(Nd + d^2 + Nc): ~210 MB at this shape; a single
    # dense N x N float64 is 72 MB, so a budget of 400 MB rules out the dense
    # decoder path (which needs two of them) while leaving BLAS headroom
    mem_ok = peak < 400e6
    nxn = 3000 * 3000 * 8

    # targeted no-N-x-N probe where N^2 dwarfs every legitimate array:
    # decoder loss + gradient at N=6000, c=32 allocates ~2 MB legitimately
    rng = np.random.default_rng(10)
    n_big = 6000
    ring = build_graph(np.column_stack([np.arange(n_big), (np.arange(n_big) + 1) % n_big]), n_big)
    at_big = normalize_with_self_loops(ring)
    st_big = normalize_no_self_loops(ring)
    x_big = rng.standard_normal((n_big, 32))
    p_big = propagate(st_big, x_big, 2)
    w_big = rng.standard_normal((32, 32)) * 0.3
    cfg_big = AMLPConfig(lambda_=0.1, hidden_dim=32)
    tracemalloc.start()
    loss_rec((p_big + x_big) @ w_big, at_big)
    gradient(p_big, x_big, w_big, at_big, cfg_big)
    _, probe_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    probe_ok = probe_peak < n_big * n_big * 8  # 288 MB; actual is ~2-10 MB

    ok = elapsed <= 120.0 and mem_ok and probe_ok
    _report(
        10,
        ok,
        f"200 epochs in {elapsed:.1f}s (limit 120s), peak {peak / 1e6:.0f} MB "
        f"(N x N would add {nxn / 1e6:.0f} MB); decoder probe peak "
        f"{probe_peak / 1e6:.1f} MB at N=6000",
    )
    assert elapsed <= 120.0
    assert mem_ok, f"peak {peak}"
    assert probe_ok, f"probe peak {probe_peak}"
