"""Synthetic stochastic block models with class-conditional Gaussian features.

Used for property-based acceptance without external datasets: the presets mirror
the scale of small web-graph benchmarks while keeping runtimes in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .graph import SparseGraph, graph_from_edges


@dataclass(frozen=True)
class SbmSpec:
    n_nodes: int
    n_classes: int
    p_in: float
    p_out: float
    feature_dim: int = 16
    class_separation: float = 1.0
    noise_sigma: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not (0 <= self.p_in <= 1 and 0 <= self.p_out <= 1):
            raise ValidationError("edge probabilities must lie in [0, 1]")
        if self.n_classes > self.n_nodes:
            raise ValidationError("more classes than nodes")
        if self.n_classes < 1 or self.n_nodes < 1:
            raise ValidationError("n_nodes and n_classes must be >= 1")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")


# name -> the SbmSpec fields each preset sets; the rest keep their defaults.
# Homophilic: mostly intra-class edges at web-graph sparsity (mean degree ~4,
# like the small university webgraphs); heterophilic: sparse intra-class,
# dense inter-class. Features are noisy enough that raw feature clustering is
# weak and the graph carries the class signal.
PRESETS = {
    "homophilic": dict(n_nodes=400, n_classes=4, p_in=0.03, p_out=0.003, noise_sigma=0.8),
    "heterophilic": dict(n_nodes=400, n_classes=4, p_in=0.01, p_out=0.10, noise_sigma=0.8),
}


def preset(name: str, seed: int = 0, **overrides) -> SbmSpec:
    """The spec of the preset ``name`` with ``seed`` and the given fields overridden."""
    return SbmSpec(**{**PRESETS[name], "seed": seed, **overrides})


def homophilic_preset(seed: int = 0, **overrides) -> SbmSpec:
    return preset("homophilic", seed, **overrides)


def heterophilic_preset(seed: int = 0, **overrides) -> SbmSpec:
    return preset("heterophilic", seed, **overrides)


def _class_sizes(n_nodes: int, n_classes: int) -> np.ndarray:
    base = n_nodes // n_classes
    sizes = np.full(n_classes, base, dtype=np.int64)
    sizes[: n_nodes - base * n_classes] += 1
    return sizes


def generate_sbm(spec: SbmSpec) -> tuple[SparseGraph, np.ndarray]:
    """Sample an SBM graph and its (balanced, block-contiguous) labels.

    Every unordered pair is an independent Bernoulli draw with probability
    p_in (same class) or p_out (different class); sampling walks class-pair
    blocks in a fixed order so results are deterministic given the seed.
    """
    rng = np.random.default_rng(spec.seed)
    sizes = _class_sizes(spec.n_nodes, spec.n_classes)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    labels = np.repeat(np.arange(spec.n_classes), sizes)
    us, vs = [], []
    for bi in range(spec.n_classes):
        for bj in range(bi, spec.n_classes):
            p = spec.p_in if bi == bj else spec.p_out
            ni, nj = sizes[bi], sizes[bj]
            if ni == 0 or nj == 0 or p == 0.0:
                continue
            draws = rng.random((ni, nj)) < p
            if bi == bj:
                draws = np.triu(draws, k=1)
            r, c = np.nonzero(draws)
            us.append(r + offsets[bi])
            vs.append(c + offsets[bj])
    u = np.concatenate(us) if us else np.zeros(0, dtype=np.int64)
    v = np.concatenate(vs) if vs else np.zeros(0, dtype=np.int64)
    return graph_from_edges(spec.n_nodes, u, v), labels


def generate_features(
    labels: np.ndarray,
    feature_dim: int,
    class_separation: float,
    noise_sigma: float,
    seed: int,
) -> np.ndarray:
    """Class-conditional Gaussian features.

    Each class mean is a seeded random direction scaled by class_separation;
    rows are the label's mean plus isotropic Gaussian noise.
    """
    labels = np.asarray(labels)
    if labels.size and labels.min() < 0:
        raise ValidationError("generate_features requires fully labeled nodes")
    n_classes = int(labels.max()) + 1 if labels.size else 0
    rng = np.random.default_rng(seed)
    means = rng.standard_normal((n_classes, feature_dim))
    norms = np.linalg.norm(means, axis=1, keepdims=True)
    means = class_separation * means / np.maximum(norms, 1e-30)
    noise = noise_sigma * rng.standard_normal((labels.size, feature_dim))
    return means[labels] + noise


def generate_dataset(spec: SbmSpec) -> tuple[SparseGraph, np.ndarray, np.ndarray]:
    """Graph, features and labels in one call (feature seed derived from spec seed)."""
    g, labels = generate_sbm(spec)
    x = generate_features(
        labels,
        spec.feature_dim,
        spec.class_separation,
        spec.noise_sigma,
        seed=spec.seed + 1,
    )
    return g, x, labels
