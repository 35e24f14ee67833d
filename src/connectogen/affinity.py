"""Multi-kernel subject-affinity learning and GCN adjacency normalization.

A bank of adaptive-bandwidth Gaussian kernels (one per (knn, sigma) pair) is
blended with entropy-weighted averaging into a single symmetric nonnegative
affinity matrix with unit diagonal.  The normalization step produces
D^{-1/2} (A + I) D^{-1/2} for graph-convolution propagation; it and the
submatrix selection also take a stack of one affinity per view.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, ValidationError


@dataclass(frozen=True)
class MKMLConfig:
    knn_values: tuple[int, ...] = (10, 15)
    sigma_multipliers: tuple[float, ...] = (1.0, 1.25, 1.5, 1.75, 2.0)
    weight_iters: int = 10
    rho: float = 1.0

    @property
    def num_kernels(self) -> int:
        """One kernel per (knn, sigma) pair of the grid."""
        return len(self.knn_values) * len(self.sigma_multipliers)

    def __post_init__(self):
        if self.rho <= 0 or self.weight_iters < 1:
            raise PreconditionError("rho must be > 0 and weight_iters >= 1")


def _pairwise_distances(features: np.ndarray) -> np.ndarray:
    sq = np.sum(features * features, axis=1, keepdims=True)
    d2 = sq + sq.T - 2.0 * (features @ features.T)
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, 0.0)
    return np.sqrt(d2)


def gaussian_kernel_bank(features, cfg: MKMLConfig = MKMLConfig()) -> list[np.ndarray]:
    """Adaptive-bandwidth Gaussian kernels over subject feature rows.

    Kernel (k, sigma): K(i,j) = exp(-d(i,j)^2 / (2 eps_ij^2)) with
    eps_ij = sigma * (mu_i + mu_j) / 2 and mu_i the mean distance from i to
    its k nearest neighbours.  knn values >= n are clamped to n-1 with a
    warning.
    """
    features = np.asarray(features, dtype=np.float64)
    return _kernel_bank(_pairwise_distances(features), cfg)


def _kernel_bank(dist: np.ndarray, cfg: MKMLConfig) -> list[np.ndarray]:
    """:func:`gaussian_kernel_bank` of the subjects' (n, n) pairwise distances."""
    n = dist.shape[0]
    if n < 2:
        raise PreconditionError(f"need at least 2 subjects, got {n}")
    sorted_d = np.sort(dist, axis=1)  # column 0 is the self distance

    kernels = []
    for knn in cfg.knn_values:
        if knn >= n:
            warnings.warn(f"knn={knn} >= n={n}; clamping to {n - 1}")
            knn = n - 1
        if knn < 1:
            raise PreconditionError("knn values must be >= 1")
        mu = sorted_d[:, 1:knn + 1].mean(axis=1)
        eps_base = (mu[:, None] + mu[None, :]) / 2.0
        for sigma in cfg.sigma_multipliers:
            eps = sigma * eps_base
            with np.errstate(divide="ignore", invalid="ignore"):
                k = np.exp(-(dist * dist) / (2.0 * eps * eps))
            k[dist == 0] = 1.0  # zero-distance pairs, incl. the diagonal
            k[(eps == 0) & (dist > 0)] = 0.0
            k = (k + k.T) / 2.0
            kernels.append(k)
    return kernels


def learn_affinity(features, cfg: MKMLConfig = MKMLConfig()) -> np.ndarray:
    """Blend the kernel bank into one affinity matrix.

    Alternates for cfg.weight_iters rounds: S = row-normalized sum of
    weighted kernels, then kernel weights w_l proportional to
    exp(<K_l, S>_F / rho) (softmax-stabilized).  Returns (S + S^T)/2 with
    the diagonal forced to 1.
    """
    features = np.asarray(features, dtype=np.float64)
    n = features.shape[0]
    dist = _pairwise_distances(features)
    if n >= 2 and np.all(dist == 0):
        warnings.warn("all subjects identical; returning all-ones affinity")
        return np.ones((n, n))

    kernels = _kernel_bank(dist, cfg)
    weights = np.full(len(kernels), 1.0 / len(kernels))
    s = None
    for _ in range(cfg.weight_iters):
        combined = sum(w * k for w, k in zip(weights, kernels))
        row_sums = combined.sum(axis=1, keepdims=True)
        row_sums[row_sums == 0] = 1.0
        s = combined / row_sums
        scores = np.array([np.sum(k * s) for k in kernels]) / cfg.rho
        scores -= scores.max()
        weights = np.exp(scores)
        weights /= weights.sum()

    affinity = (s + s.T) / 2.0
    np.fill_diagonal(affinity, 1.0)
    return affinity


def normalize_adjacency(affinity) -> np.ndarray:
    """D^{-1/2} (A + I) D^{-1/2} with D the row sums of A + I.

    ``affinity`` is one (n, n) matrix or a (v, n, n) stack, normalized
    matrix by matrix.
    """
    a = np.asarray(affinity, dtype=np.float64)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2]:
        raise ValidationError(f"affinity must be square, got {a.shape}")
    if np.isnan(a).any():
        raise ValidationError("affinity contains NaN entries")
    a_tilde = a + np.eye(a.shape[-1])
    d = a_tilde.sum(axis=-1)
    inv_sqrt = 1.0 / np.sqrt(d)
    return inv_sqrt[..., :, None] * a_tilde * inv_sqrt[..., None, :]


def sub_affinity(affinity, indices) -> np.ndarray:
    """Principal submatrix at the given subject indices of an affinity
    matrix, or of every matrix of a (v, n, n) stack."""
    a = np.asarray(affinity)
    idx = np.asarray(indices, dtype=int)
    if idx.size == 0:
        raise PreconditionError("sub_affinity: empty index set")
    if len(set(idx.tolist())) != idx.size:
        raise PreconditionError("sub_affinity: indices must be distinct")
    if idx.min() < 0 or idx.max() >= a.shape[-1]:
        raise PreconditionError(
            f"sub_affinity: index out of range [0, {a.shape[-1]}) in {idx.tolist()}")
    # two takes keep a stack C-contiguous; a[..., idx[:, None], idx] would
    # make the view axis the innermost one
    return np.take(np.take(a, idx, axis=-2), idx, axis=-1)
