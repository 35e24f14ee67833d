"""Multi-kernel subject-affinity learning and GCN adjacency normalization.

A bank of adaptive-bandwidth Gaussian kernels (one per (knn, sigma) pair) is
blended with entropy-weighted averaging into a single symmetric nonnegative
affinity matrix with unit diagonal.  The normalization step produces
D^{-1/2} (A + I) D^{-1/2} for graph-convolution propagation; it and the
submatrix selection also take a stack of one affinity per view.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import PreconditionError, ValidationError

# The published kernel grid: one kernel per (knn, sigma) pair, knn-major,
# blended over _WEIGHT_ITERS entropy-weighted rounds at temperature _RHO.
_KNN_VALUES = (10, 15)
_SIGMA_MULTIPLIERS = (1.0, 1.25, 1.5, 1.75, 2.0)
_NUM_KERNELS = len(_KNN_VALUES) * len(_SIGMA_MULTIPLIERS)
_WEIGHT_ITERS = 10
_RHO = 1.0


def _pairwise_distances(features: np.ndarray) -> np.ndarray:
    sq = np.sum(features * features, axis=1, keepdims=True)
    d2 = sq + sq.T - 2.0 * (features @ features.T)
    np.maximum(d2, 0.0, out=d2)
    np.fill_diagonal(d2, 0.0)
    return np.sqrt(d2)


def _kernel_bank(dist: np.ndarray) -> np.ndarray:
    """Adaptive-bandwidth Gaussian kernels from the subjects' (n, n)
    pairwise distances, as one (_NUM_KERNELS, n, n) array.

    Kernel (k, sigma): K(i,j) = exp(-d(i,j)^2 / (2 eps_ij^2)) with
    eps_ij = sigma * (mu_i + mu_j) / 2 and mu_i the mean distance from i to
    its k nearest neighbours, symmetrized.  knn values >= n are clamped to
    n-1 with a warning.
    """
    n = dist.shape[0]
    if n < 2:
        raise PreconditionError(f"need at least 2 subjects, got {n}")
    sorted_d = np.sort(dist, axis=1)  # column 0 is the self distance
    sigmas = np.array(_SIGMA_MULTIPLIERS, dtype=np.float64)[:, None, None]
    neg_sq = -(dist * dist)

    blocks = []
    for knn in _KNN_VALUES:
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


def learn_affinity(features) -> np.ndarray:
    """Blend the kernel bank into one affinity matrix.

    Alternates for _WEIGHT_ITERS rounds: S = row-normalized sum of
    weighted kernels, then kernel weights w_l proportional to
    exp(<K_l, S>_F / _RHO) (softmax-stabilized).  Returns (S + S^T)/2 with
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

    flat = _kernel_bank(dist).reshape(_NUM_KERNELS, n * n)
    weights = np.full(_NUM_KERNELS, 1.0 / _NUM_KERNELS)
    s = None
    for _ in range(_WEIGHT_ITERS):
        combined = (weights @ flat).reshape(n, n)
        row_sums = combined.sum(axis=1, keepdims=True)
        row_sums[row_sums == 0] = 1.0
        s = combined / row_sums
        scores = (flat @ s.ravel()) / _RHO
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
