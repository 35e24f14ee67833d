"""Weighted-graph topology metrics over connectivity matrices.

Six per-node scores: closeness (cc), betweenness (bc), eigenvector (ec),
pagerank (pc), Burt effective size (eff), and Onnela weighted clustering
coefficient (clst).  :func:`centralities` scores one (r, r) connectivity
matrix, returning (r,) vectors, or an (n, r, r) stack, returning (n, r),
for all six in one pass, with one set of shortest paths that closeness and
betweenness share; evaluation and the ``metrics`` command call it.
:func:`closeness` and :func:`betweenness` also score alone.  Path-based
metrics need a weight-to-length mapping:

* ``"distance"`` (default): weights already are path lengths; a zero weight
  means the edge is absent.  Morphological dissimilarity networks fit this.
* ``"inverse"``: length = 1/weight for positive weights, absent otherwise.

Eigenvector centrality, from one forward for every caller, is also recorded
on the tape as one op over raw vectorized rows (:func:`batched_eigenvector_rows`),
which expands and clamps them with :func:`connectogen.data.devectorize` and
is differentiated at its fixed point.  Training scores both sides of its
topological loss with that op: the generated rows on the tape, and the real
target rows, once, as constants.  The op keeps no graph stack on the
tape: its backward rebuilds the graphs from the rows with ``devectorize``,
one chunk of the kernels' rule at a time.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from ._topology_kernels import (
    _chunks,
    brandes_betweenness,
    burt_effective_size,
    dijkstra_all,
    onnela_clustering,
)
from .data import check_connectivity, devectorize, edge_index
from .errors import DegenerateError, PreconditionError

DISTANCE = "distance"
INVERSE = "inverse"

_EC_TOL = 1e-12  # a graph stops once successive unit iterates move less
_EC_MAX_STEPS = 200  # a graph still moving then is solved by eigh
_PC_DAMPING = 0.85


def _as_stack(weights) -> tuple[np.ndarray, bool]:
    """Validate one graph or a stack; return an (n, r, r) stack and whether
    the input was a single (r, r) graph."""
    w = check_connectivity(weights)
    return (w[None] if w.ndim == 2 else w), w.ndim == 2


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


def _closeness(dist: np.ndarray) -> np.ndarray:
    """Closeness of each graph from its (n, r, r) distance stack."""
    sums = dist.sum(axis=2)
    out = np.zeros(sums.shape)
    finite = np.isfinite(sums) & (sums > 0)
    out[finite] = (dist.shape[-1] - 1) / sums[finite]
    return out


def _betweenness(lengths: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """Normalized betweenness of each graph from its lengths and distances."""
    r = lengths.shape[-1]
    # raw counts ordered pairs; unordered pairs x the Eq-normalization
    return brandes_betweenness(lengths, dist) / ((r - 1) * (r - 2))


def _need_nodes(r: int, least: int, metric: str) -> None:
    if r < least:
        raise PreconditionError(f"{metric} needs at least {least} nodes")


def closeness(weights, interp: str = DISTANCE) -> np.ndarray:
    """(r-1) / sum of distances; 0 whenever any pair is unreachable."""
    w, single = _as_stack(weights)
    _need_nodes(w.shape[-1], 2, "closeness")
    return _unstack(_closeness(dijkstra_all(_length_matrix(w, interp))), single)


def betweenness(weights, interp: str = DISTANCE) -> np.ndarray:
    """Shortest-path betweenness normalized by 2/((r-1)(r-2))."""
    w, single = _as_stack(weights)
    _need_nodes(w.shape[-1], 3, "betweenness")
    lengths = _length_matrix(w, interp)
    return _unstack(_betweenness(lengths, dijkstra_all(lengths)), single)


def _norms(v: np.ndarray) -> np.ndarray:
    """L2 norm of each row, by the same dot product np.linalg.norm takes for
    one vector, so a stack of one graph repeats the single-graph arithmetic."""
    return np.sqrt(np.matmul(v[:, None, :], v[:, :, None]))[:, 0, 0]


def _power_iterate(step, ops: np.ndarray, x: np.ndarray, tol: float, max_steps: int,
                   moved) -> tuple[np.ndarray, np.ndarray]:
    """Iterate ``x <- step(ops, x)`` until each row moves by less than ``tol``.

    Row i of ``x`` iterates with operator ``ops[i]``; ``moved(new, old)``
    measures each row's move, and a row's result is its iterate at the step
    it converged.  Converged rows stay in the batch until half of it has
    converged, and only then is the batch compacted, so the operator stack
    is copied a few times rather than at every step where a row converges.
    Stops after ``max_steps``; returns the iterates and the indices of the
    rows still moving then.
    """
    out = np.empty_like(x)
    rows = np.arange(len(x))
    moving = np.ones(len(x), dtype=bool)
    for _ in range(max_steps):
        if not moving.any():
            break
        y = step(ops, x)
        done = moving & (moved(y, x) < tol)
        x = y
        if done.any():
            out[rows[done]] = x[done]
            moving &= ~done
            if 2 * np.count_nonzero(moving) <= len(rows):
                rows, ops, x, moving = rows[moving], ops[moving], x[moving], moving[moving]
    out[rows[moving]] = x[moving]
    return out, rows[moving]


def _principal_eigenpairs(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Principal eigenvectors (unit L2 norm, positive orientation) and
    eigenvalues of an (n, r, r) stack of nonnegative symmetric graphs.

    Power iteration from the uniform unit vector; each graph stops on its
    own.  A graph still moving at the step cap (a bipartite-like spectrum,
    lambda_min near -lambda_max, makes the iterate oscillate) is solved by
    eigh instead.  An all-zero graph gets a zero vector and eigenvalue.
    """
    n, r, _ = w.shape
    vec = np.zeros((n, r))
    live = np.flatnonzero(np.any(w > 0, axis=(1, 2)))
    ops = w if len(live) == n else w[live]

    def step(ops, x):
        y = np.matmul(ops, x[:, :, None])[:, :, 0]
        return y / _norms(y)[:, None]

    start = np.full((len(live), r), 1.0 / np.sqrt(max(r, 1)))  # r = 0 has no entry
    x, moving = _power_iterate(step, ops, start,
                               _EC_TOL, _EC_MAX_STEPS, lambda y, x: _norms(y - x))
    if moving.size:
        top = np.linalg.eigh(ops[moving])[1][:, :, -1]
        flip = top[np.arange(len(moving)), np.argmax(np.abs(top), axis=1)] < 0
        top[flip] = -top[flip]
        x[moving] = top
    vec[live] = x
    lam = np.matmul(vec[:, None, :], np.matmul(w, vec[:, :, None]))[:, 0, 0]
    return vec, lam


def _need_edges(w: np.ndarray) -> None:
    if not np.all(np.any(w > 0, axis=(1, 2))):
        raise DegenerateError("eigenvector centrality of an all-zero graph")


def _pagerank(w: np.ndarray) -> np.ndarray:
    """Weighted PageRank of each graph of an (n, r, r) stack; dangling nodes
    spread uniformly; each row sums to 1.  Each graph stops on its own."""
    n, r, _ = w.shape
    row_sums = w.sum(axis=2)
    linked = row_sums > 0
    transition = np.where(linked[:, :, None],
                          w / np.where(linked, row_sums, 1.0)[:, :, None], 1.0 / r)
    teleport = (1.0 - _PC_DAMPING) / r

    def step(ops, p):
        return _PC_DAMPING * np.matmul(ops, p[:, :, None])[:, :, 0] + teleport

    p, _ = _power_iterate(step, transition.transpose(0, 2, 1), np.full((n, r), 1.0 / r),
                          1e-10, 10_000, lambda a, b: np.abs(a - b).sum(axis=1))
    return p / p.sum(axis=1, keepdims=True)


def centralities(weights, interp: str = DISTANCE) -> dict[str, np.ndarray]:
    """All six centralities of one graph or an (n, r, r) stack, in one pass.

    Returns a dict keyed cc, bc, ec, pc, eff, clst, in that order, of (r,)
    or (n, r) scores: cc and bc as :func:`closeness` and :func:`betweenness`
    give them, ec of unit L2 norm and positive orientation, pc summing to 1
    with dangling nodes spreading uniformly.  The stack is validated once,
    its length matrix built once, and Floyd-Warshall run once: closeness and
    betweenness read the same distances.  A graph unfit for a metric raises
    in key order: PreconditionError for too few nodes or an unknown
    ``interp``, DegenerateError for an all-zero graph.
    """
    w, single = _as_stack(weights)
    _need_nodes(w.shape[-1], 2, "closeness")
    lengths = _length_matrix(w, interp)
    _need_nodes(w.shape[-1], 3, "betweenness")
    _need_edges(w)
    dist = dijkstra_all(lengths)
    scores = {
        "cc": _closeness(dist),
        "bc": _betweenness(lengths, dist),
        "ec": _principal_eigenpairs(w)[0],
        "pc": _pagerank(w),
        "eff": burt_effective_size(w),
        "clst": onnela_clustering(w),
    }
    return {key: _unstack(value, single) for key, value in scores.items()}


# ---------------------------------------------------------------------------
# differentiable path (one tape op, differentiated at the fixed point)

def batched_eigenvector_rows(features: ad.Tensor, r: int) -> ad.Tensor:
    """Eigenvector centralities for a batch of vectorized graphs.

    ``features`` holds raw (n, r(r-1)/2) rows.  The op applies the relu
    itself: :func:`connectogen.data.devectorize` clamps and expands each row
    to a symmetric adjacency W (and raises its DimensionError for rows of
    another width), whose principal unit eigenvector v is recorded as one
    op.  The (n, r, r) stack of graphs is dropped after the forward; the
    tape keeps v, the eigenvalues and ``features`` by reference, so the rows
    must not change before the backward.  The backward differentiates the
    fixed point W v = lambda v: for upstream g, u solves
    (lambda I - W + v v^T) u = (I - v v^T) g and dL/dW = u v^T, so feature
    (i, j) gets u_i v_j + u_j v_i where it is positive and 0 elsewhere.  It
    rebuilds W with ``devectorize`` chunk by chunk, cut by the kernels' rule
    (:mod:`connectogen._topology_kernels`), so its temporaries stay
    O(chunk * r^2).  All-zero rows yield all-zero centralities and a zero
    gradient instead of raising, so training losses stay finite early on.
    Returns an (n, r) tensor, on the active tape if ``features`` requires
    grad; constant rows, such as training's real targets, record nothing.
    """
    x = features.data
    vec, lam = _principal_eigenpairs(devectorize(x, r))
    upper, lower, _ = edge_index(r)
    diag = np.arange(r)

    def bw(g):
        rhs = g - vec * (vec * g).sum(axis=1, keepdims=True)
        # an all-zero graph (v = 0, lam = 0) gets the system I, so u v^T = 0
        shift = np.where(lam > 0, lam, 1.0)
        grad = np.empty(x.shape)
        for part in _chunks(len(x), r):
            v, rows = vec[part], x[part]
            system = devectorize(rows, r)
            np.subtract(v[:, :, None] * v[:, None, :], system, out=system)
            system[:, diag, diag] += shift[part, None]
            u = np.linalg.solve(system, rhs[part, :, None])
            uv = np.multiply(u, v[:, None, :], out=system).reshape(len(v), r * r)
            out = grad[part]
            np.add(np.take(uv, upper, axis=1), np.take(uv, lower, axis=1), out=out)
            out *= rows > 0  # relu'(0) = 0
        return (grad,)

    return ad._emit(ad._result(vec), [features], bw)
