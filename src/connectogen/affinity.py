"""Multi-kernel subject-affinity learning and GCN adjacency normalization.

A bank of adaptive-bandwidth Gaussian kernels (one per (knn, sigma) pair) is
blended with entropy-weighted averaging into a single symmetric nonnegative
affinity matrix with unit diagonal.  The normalization step produces
D^{-1/2} (A + I) D^{-1/2} for graph-convolution propagation; it and the
submatrix selection also take a stack of one affinity per view.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

from .errors import PreconditionError, ValidationError


def _count(x) -> bool:
    """Whether ``x`` is an integer >= 1 (a bool is not)."""
    return isinstance(x, Integral) and not isinstance(x, bool) and x >= 1


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
        if not self.rho > 0 or not _count(self.weight_iters):
            raise PreconditionError("rho must be > 0 and weight_iters an integer >= 1")
        knn = self.knn_values
        if not knn or not all(map(_count, knn)):
            raise PreconditionError(f"knn_values must be integers >= 1, got {knn!r}")
        sigmas = self.sigma_multipliers
        if not sigmas or not all(isinstance(x, Real) and math.isfinite(x) and x > 0
                                 for x in sigmas):
            raise PreconditionError(f"sigma_multipliers must be finite and > 0, got {sigmas!r}")


def _pairwise_distances(features: np.ndarray) -> np.ndarray:
    sq = np.sum(features * features, axis=1, keepdims=True)
    d2 = sq + sq.T - 2.0 * (features @ features.T)
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, 0.0)
    return np.sqrt(d2)


def _kernel_bank(dist: np.ndarray, cfg: MKMLConfig) -> np.ndarray:
    """Adaptive-bandwidth Gaussian kernels from the subjects' (n, n)
    pairwise distances, as one (num_kernels, n, n) array.

    Kernel (k, sigma): K(i,j) = exp(-d(i,j)^2 / (2 eps_ij^2)) with
    eps_ij = sigma * (mu_i + mu_j) / 2 and mu_i the mean distance from i to
    its k nearest neighbours, symmetrized.  knn values >= n are clamped to
    n-1 with a warning.
    """
    n = dist.shape[0]
    if n < 2:
        raise PreconditionError(f"need at least 2 subjects, got {n}")
    sorted_d = np.sort(dist, axis=1)  # column 0 is the self distance
    sigmas = np.array(cfg.sigma_multipliers, dtype=np.float64)[:, None, None]
    neg_sq = -(dist * dist)

    blocks = []
    for knn in cfg.knn_values:
        if knn >= n:
            warnings.warn(f"knn={knn} >= n={n}; clamping to {n - 1}")
            knn = n - 1
        mu = sorted_d[:, 1:knn + 1].mean(axis=1)
        eps = sigmas * ((mu[:, None] + mu[None, :]) / 2.0)  # one (n, n) per sigma
        with np.errstate(divide="ignore", invalid="ignore"):
            k = np.exp(neg_sq / (2.0 * eps * eps))
        k[:, dist == 0] = 1.0  # zero-distance pairs, incl. the diagonal
        k[(eps == 0) & (dist > 0)] = 0.0
        blocks.append((k + k.transpose(0, 2, 1)) / 2.0)
    return np.concatenate(blocks)


def learn_affinity(features, cfg: MKMLConfig = MKMLConfig()) -> np.ndarray:
    """Blend the kernel bank into one affinity matrix.

    Alternates for cfg.weight_iters rounds: S = row-normalized sum of
    weighted kernels, then kernel weights w_l proportional to
    exp(<K_l, S>_F / rho) (softmax-stabilized).  Returns (S + S^T)/2 with
    the diagonal forced to 1.

    With the bank flattened to an (L, n*n) matrix K, each round is two
    matrix-vector products: the weighted sum is w @ K and the Frobenius
    products are K @ vec(S).  Only the summation order differs from
    forming the weighted (L, n, n) bank, so results agree to rounding.
    """
    features = np.asarray(features, dtype=np.float64)
    n = features.shape[0]
    dist = _pairwise_distances(features)
    if n >= 2 and np.all(dist == 0):
        warnings.warn("all subjects identical; returning all-ones affinity")
        return np.ones((n, n))

    flat = _kernel_bank(dist, cfg).reshape(cfg.num_kernels, n * n)
    weights = np.full(cfg.num_kernels, 1.0 / cfg.num_kernels)
    s = None
    for _ in range(cfg.weight_iters):
        combined = (weights @ flat).reshape(n, n)
        row_sums = combined.sum(axis=1, keepdims=True)
        row_sums[row_sums == 0] = 1.0
        s = combined / row_sums
        scores = (flat @ s.ravel()) / cfg.rho
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
