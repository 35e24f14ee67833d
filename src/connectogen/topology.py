"""Weighted-graph topology metrics over connectivity matrices.

Six per-node scores: closeness (cc), betweenness (bc), eigenvector (ec),
pagerank (pc), Burt effective size (eff), and Onnela weighted clustering
coefficient (clst).  Every metric takes one (r, r) connectivity matrix and
returns an (r,) score vector, or an (n, r, r) stack and returns (n, r).
Path-based metrics need a weight-to-length mapping:

* ``"distance"`` (default): weights already are path lengths; a zero weight
  means the edge is absent.  Morphological dissimilarity networks fit this.
* ``"inverse"``: length = 1/weight for positive weights, absent otherwise.

Eigenvector centrality also has a tape-recorded fixed-iteration variant so
training losses can differentiate through it.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from ._topology_kernels import (
    brandes_betweenness,
    burt_effective_size,
    dijkstra_all,
    onnela_clustering,
)
from .data import check_connectivity
from .errors import DegenerateError, PreconditionError, ValidationError

DISTANCE = "distance"
INVERSE = "inverse"

_EC_EPS = 1e-12


def _as_stack(weights) -> tuple[np.ndarray, bool]:
    """Validate one graph or a stack; return an (n, r, r) stack and whether
    the input was a single (r, r) graph."""
    w = check_connectivity(weights)
    return w.reshape((-1,) + w.shape[-2:]), w.ndim == 2


def _unstack(out: np.ndarray, single: bool) -> np.ndarray:
    return out[0] if single else out


def _length_matrix(w: np.ndarray, interp: str) -> np.ndarray:
    lengths = np.full(w.shape, np.inf)
    positive = w > 0
    if interp == DISTANCE:
        lengths[positive] = w[positive]
    elif interp == INVERSE:
        lengths[positive] = 1.0 / w[positive]
    else:
        raise PreconditionError(f"unknown interpretation {interp!r}")
    diag = np.arange(w.shape[-1])
    lengths[..., diag, diag] = 0.0
    return lengths


def shortest_paths(weights, interp: str = DISTANCE) -> np.ndarray:
    """All-pairs shortest-path distances; np.inf marks unreachable pairs."""
    w, single = _as_stack(weights)
    return _unstack(dijkstra_all(_length_matrix(w, interp)), single)


def closeness(weights, interp: str = DISTANCE) -> np.ndarray:
    """(r-1) / sum of distances; 0 whenever any pair is unreachable."""
    w, single = _as_stack(weights)
    r = w.shape[-1]
    if r < 2:
        raise PreconditionError("closeness needs at least 2 nodes")
    sums = dijkstra_all(_length_matrix(w, interp)).sum(axis=2)
    out = np.zeros(sums.shape)
    finite = np.isfinite(sums) & (sums > 0)
    out[finite] = (r - 1) / sums[finite]
    return _unstack(out, single)


def betweenness(weights, interp: str = DISTANCE) -> np.ndarray:
    """Shortest-path betweenness normalized by 2/((r-1)(r-2))."""
    w, single = _as_stack(weights)
    r = w.shape[-1]
    if r < 3:
        raise PreconditionError("betweenness needs at least 3 nodes")
    raw = brandes_betweenness(_length_matrix(w, interp))
    # raw counts ordered pairs; unordered pairs x the Eq-normalization
    return _unstack(raw / ((r - 1) * (r - 2)), single)


def _norms(v: np.ndarray) -> np.ndarray:
    """L2 norm of each row, by the same dot product np.linalg.norm takes for
    one vector, so a stack of one graph repeats the single-graph arithmetic."""
    return np.sqrt(np.matmul(v[:, None, :], v[:, :, None]))[:, 0, 0]


def _power_iterate(step, ops: np.ndarray, x: np.ndarray, tol: float, max_steps: int,
                   moved) -> np.ndarray:
    """Iterate ``x <- step(ops, x)`` until each row moves by less than ``tol``.

    Row i of ``x`` iterates with operator ``ops[i]``; ``moved(new, old)``
    measures each row's move, and a row leaves the batch once it has
    converged.  Stops after ``max_steps``.
    """
    out = np.empty_like(x)
    rows = np.arange(len(x))
    for _ in range(max_steps):
        y = step(ops, x)
        done = moved(y, x) < tol
        x = y
        if done.any():
            out[rows[done]] = x[done]
            keep = ~done
            rows, ops, x = rows[keep], ops[keep], x[keep]
            if not rows.size:
                break
    out[rows] = x
    return out


def eigenvector(weights) -> np.ndarray:
    """Principal-eigenvector centrality, unit L2 norm, positive orientation.

    Power iteration runs on W + delta*I (same eigenvectors, spectrum shifted
    positive) so bipartite-like spectra with a -lambda_max eigenvalue still
    converge; stops when successive iterates move < 1e-9 or at 1000 steps.
    Each graph of a stack stops on its own.
    """
    w, single = _as_stack(weights)
    n, r, _ = w.shape
    if not np.all(np.any(w > 0, axis=(1, 2))):
        raise DegenerateError("eigenvector centrality of an all-zero graph")
    shifted = w + w.sum(axis=2).max(axis=1)[:, None, None] * np.eye(r)

    def step(ops, x):
        y = np.matmul(ops, x[:, :, None])[:, :, 0]
        return y / _norms(y)[:, None]

    x = _power_iterate(step, shifted, np.full((n, r), 1.0 / np.sqrt(r)), 1e-9, 1000,
                       lambda y, x: _norms(y - x))
    flip = x[np.arange(n), np.argmax(np.abs(x), axis=1)] < 0
    x[flip] = -x[flip]
    return _unstack(x / _norms(x)[:, None], single)


def pagerank(weights, damping: float = 0.85) -> np.ndarray:
    """Weighted PageRank; dangling nodes spread uniformly; sums to 1.

    Each graph of a stack stops on its own.
    """
    w, single = _as_stack(weights)
    if not 0.0 <= damping < 1.0:
        raise PreconditionError(f"damping must be in [0, 1), got {damping}")
    n, r, _ = w.shape
    row_sums = w.sum(axis=2)
    linked = row_sums > 0
    transition = np.where(linked[:, :, None],
                          w / np.where(linked, row_sums, 1.0)[:, :, None], 1.0 / r)
    teleport = (1.0 - damping) / r

    def step(ops, p):
        return damping * np.matmul(ops, p[:, :, None])[:, :, 0] + teleport

    p = _power_iterate(step, transition.transpose(0, 2, 1), np.full((n, r), 1.0 / r),
                       1e-10, 10_000, lambda a, b: np.abs(a - b).sum(axis=1))
    return _unstack(p / p.sum(axis=1, keepdims=True), single)


def effective_size(weights) -> np.ndarray:
    """Burt's effective size of every node's ego network."""
    w, single = _as_stack(weights)
    return _unstack(burt_effective_size(w), single)


def clustering_coefficient(weights) -> np.ndarray:
    """Onnela weighted clustering coefficient per node."""
    w, single = _as_stack(weights)
    return _unstack(onnela_clustering(w), single)


METRICS = {
    "cc": lambda w, interp: closeness(w, interp),
    "bc": lambda w, interp: betweenness(w, interp),
    "ec": lambda w, interp: eigenvector(w),
    "pc": lambda w, interp: pagerank(w),
    "eff": lambda w, interp: effective_size(w),
    "clst": lambda w, interp: clustering_coefficient(w),
}


def centrality_matrix(graphs, metric: str, interp: str = DISTANCE) -> np.ndarray:
    """One centrality vector per graph of a list or (n, r, r) stack, as (n, r)."""
    key = metric.lower()
    if key not in METRICS:
        raise PreconditionError(f"unknown metric {metric!r}; choose from {sorted(METRICS)}")
    stack = np.asarray(graphs, dtype=np.float64)
    if stack.size == 0:
        return np.zeros((0, 0))
    if stack.ndim != 3:
        raise ValidationError(f"expected a stack of graphs, got shape {stack.shape}")
    return METRICS[key](stack, interp)


def ec_or_zero(weights) -> np.ndarray:
    """Eigenvector centrality, returning zeros for an all-zero graph."""
    w, single = _as_stack(weights)
    out = np.zeros(w.shape[:2])
    nonzero = np.any(w > 0, axis=(1, 2))
    if nonzero.any():
        out[nonzero] = eigenvector(w[nonzero])
    return _unstack(out, single)


# ---------------------------------------------------------------------------
# differentiable path (tape-recorded fixed-iteration power method)

def differentiable_eigenvector(g: ad.Tensor, iters: int = 50) -> ad.Tensor:
    """Eigenvector centrality of one graph with gradients through the input.

    Clamps negatives to zero, then runs ``iters`` normalized power-iteration
    steps recorded on the active tape.  Returns an (r, 1) column tensor that
    matches :func:`eigenvector` on inputs where the plain iteration converges.
    """
    r = g.shape[0]
    if g.shape != (r, r):
        raise PreconditionError(f"expected a square tensor, got {g.shape}")
    if not np.any(g.data > 0):
        raise DegenerateError("differentiable eigenvector of a nonpositive graph")
    clamped = ad.relu(g)
    x = ad.constant(np.full((r, 1), 1.0 / np.sqrt(r)))
    eps = ad.constant([[_EC_EPS]])
    for _ in range(iters):
        y = ad.matmul(clamped, x)
        norm = ad.sqrt(ad.add(ad.sum_all(ad.mul(y, y)), eps))
        x = ad.matmul(y, ad.reciprocal(norm))
    return x


def batched_eigenvector_rows(features: ad.Tensor, r: int, iters: int = 50) -> ad.Tensor:
    """Eigenvector centralities for a batch of vectorized graphs.

    ``features`` is (n, r(r-1)/2); each row is clamped, expanded to a
    symmetric adjacency, and power-iterated in parallel.  All-zero rows
    yield all-zero centralities instead of raising, so training losses stay
    finite early on.  Returns an (n, r) tensor on the active tape.
    """
    n = features.shape[0]
    clamped = ad.relu(features)
    a_flat = ad.devectorize_rows(clamped, r)
    x = ad.constant(np.full((n, r), 1.0 / np.sqrt(r)))
    eps = ad.constant(np.full((n, 1), _EC_EPS))
    for _ in range(iters):
        y = ad.batched_matvec(a_flat, x, r)
        inv_norm = ad.reciprocal(ad.add(ad.row_l2_norms(y), eps))
        x = ad.mul(y, ad.tile_cols(inv_norm, r))
    return x
