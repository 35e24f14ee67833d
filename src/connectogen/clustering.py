"""Cluster source-graph embeddings into homogeneous groups.

Pipeline: learned affinity over the embeddings, deterministic spectral
projection to c coordinates, then seeded k-means++.  This mirrors the
affinity -> low-dimensional projection -> k-means recipe while staying
dependency-free and reproducible (the projection replaces a stochastic
t-SNE with the top eigenvectors of the normalized affinity).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .affinity import learn_affinity, normalize_adjacency
from .errors import NumericError, PreconditionError

_KMEANS_MAX_ITERS = 300


@dataclass(frozen=True)
class ClusterAssignment:
    labels: np.ndarray  # (n,) ints in [0, c)
    centroids: np.ndarray  # (c, dim)


def spectral_embed(affinity, c: int) -> np.ndarray:
    """Top-c eigenvectors (by eigenvalue) of the normalized affinity.

    Columns are unit-norm with the largest-magnitude entry made positive,
    so the embedding is deterministic across runs.
    """
    a = np.asarray(affinity, dtype=np.float64)
    n = a.shape[0]
    if not 1 <= c < n:
        raise PreconditionError(f"need 1 <= c < n, got c={c}, n={n}")
    norm = normalize_adjacency(a)
    try:
        eigvals, eigvecs = np.linalg.eigh(norm)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigensolver failed: {exc}") from exc
    coords = eigvecs[:, ::-1][:, :c].copy()
    for col in range(c):
        pivot = np.argmax(np.abs(coords[:, col]))
        if coords[pivot, col] < 0:
            coords[:, col] = -coords[:, col]
    return coords


def kmeans(points, c: int, seed: int) -> ClusterAssignment:
    """Seeded k-means++ with Lloyd iterations until assignments stabilize.

    An empty cluster is repaired by re-seeding its centroid at the point
    farthest from its currently assigned centroid.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[:, None]
    n = pts.shape[0]
    if c < 1 or n < c:
        raise PreconditionError(f"need n >= c >= 1, got n={n}, c={c}")
    rng = np.random.default_rng(seed)

    centroids = np.empty((c, pts.shape[1]))
    centroids[0] = pts[rng.integers(n)]
    for idx in range(1, c):
        d2 = np.min(((pts[:, None, :] - centroids[None, :idx, :]) ** 2).sum(-1), axis=1)
        total = d2.sum()
        if total == 0:
            centroids[idx] = pts[rng.integers(n)]
        else:
            centroids[idx] = pts[rng.choice(n, p=d2 / total)]

    labels = np.full(n, -1)
    for _ in range(_KMEANS_MAX_ITERS):
        d2 = ((pts[:, None, :] - centroids[None, :, :]) ** 2).sum(-1)
        new_labels = np.argmin(d2, axis=1)
        for j in range(c):
            if not np.any(new_labels == j):
                dist_own = d2[np.arange(n), new_labels]
                farthest = int(np.argmax(dist_own))
                centroids[j] = pts[farthest]
                new_labels[farthest] = j
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for j in range(c):
            centroids[j] = pts[labels == j].mean(axis=0)
    return ClusterAssignment(labels=labels.astype(int), centroids=centroids)


def cluster_source_embeddings(embeddings, c: int = 2, seed: int = 0) -> ClusterAssignment:
    """Affinity on embeddings -> spectral projection -> k-means labels."""
    z = np.asarray(embeddings, dtype=np.float64)
    if z.shape[0] <= c:
        raise PreconditionError(f"need more subjects than clusters, got n={z.shape[0]}, c={c}")
    if c == 1:
        return ClusterAssignment(labels=np.zeros(z.shape[0], dtype=int),
                                 centroids=z.mean(axis=0, keepdims=True))
    affinity = learn_affinity(z)
    coords = spectral_embed(affinity, c)
    return kmeans(coords, c, seed)
