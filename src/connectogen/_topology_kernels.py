"""Shortest-path and neighbourhood kernels over stacks of graphs.

Every kernel takes an (n, r, r) float64 stack and returns one result per
graph: an (n, r, r) stack of distances or an (n, r) stack of per-node
scores.  A length stack is symmetric, holds np.inf for absent edges and 0
on the diagonal, and its edge lengths are strictly positive.  A weight
stack is symmetric, nonnegative and zero on the diagonal.

Floyd-Warshall and the betweenness sweeps run over a stack in chunks of
graphs, cut by one rule: a chunk holds as many graphs as keep the sweeps'
five (chunk, r, r) temporaries within ``_BETWEENNESS_CHUNK_BYTES``, which
is sized to a core's L2 cache.  The backward of the eigenvector-centrality
op (``topology.batched_eigenvector_rows``) rebuilds its graphs and solves
them over the same chunks.  Graphs do not interact, so the chunking changes
no bit of any result.

Betweenness matches distance ties within the absolute tolerance
``_TIE_TOL``.  For a source s, the edge v->w belongs to the shortest-path
DAG when D[s,v] + L[v,w] lies within that tolerance of D[s,w] and v
settles before w: (D[s,v], v) sorts before (D[s,w], w), the order in
which Dijkstra's algorithm, breaking ties by the lower index, settles
nodes.  The second condition keeps the DAG acyclic when an edge is
shorter than the tolerance, so the sweeps over that order below see
every edge once.
"""

import numpy as np

_TIE_TOL = 1e-12
# bound on the bytes of a chunk's five (graphs, r, r) betweenness temporaries;
# Floyd-Warshall and the EC op's backward run over the same chunks
_BETWEENNESS_CHUNK_BYTES = 2 * 2**20


def _chunks(n, r):
    """Slices that cut a stack of n graphs of r nodes into chunks."""
    size = max(1, _BETWEENNESS_CHUNK_BYTES // max(1, 5 * 8 * r * r))
    return [slice(start, start + size) for start in range(0, n, size)]


def dijkstra_all(lengths):
    """All-pairs shortest-path distances of each graph, by Floyd-Warshall.

    Unreachable pairs stay np.inf.  (The name predates the algorithm; the
    benchmark's per-kernel metrics are keyed by it.)
    """
    dist = np.array(lengths, dtype=np.float64)
    n, r, _ = dist.shape
    for part in _chunks(n, r):
        chunk = dist[part]
        via = np.empty_like(chunk)
        for mid in range(r):
            np.add(chunk[:, :, mid, None], chunk[:, None, mid, :], out=via)
            np.minimum(chunk, via, out=chunk)
    return dist


def _within_tolerance(gap):
    """Overwrite each D[s,v] + L[v,w] - D[s,w] with 1.0 where it lies within
    ``_TIE_TOL`` of 0 and with 0.0 elsewhere (NaN from inf - inf included)."""
    np.less_equal(np.abs(gap, out=gap), _TIE_TOL, out=gap)


def brandes_betweenness(lengths, dist):
    """Unnormalized betweenness of each graph, by Brandes' accumulation.

    ``dist`` holds the graphs' shortest-path distances, from
    :func:`dijkstra_all`.  Returns, per node, the sum over ordered pairs
    (s, t) of the fraction of shortest s-t paths passing through it
    (endpoints excluded).  Every source of every graph runs at once, in two
    sweeps over its settle order (Brandes 2001).  The forward sweep counts
    shortest paths: sigma[s, w] is the sum of sigma[s, v] over the DAG
    edges v->w.  The backward sweep accumulates dependencies: delta[s, v]
    is sigma[s, v] times the sum of (1 + delta[s, w]) / sigma[s, w] over
    the DAG edges v->w.  A step gathers one length row per source, so a
    graph costs O(r^3).
    """
    lengths = np.asarray(lengths, dtype=np.float64)
    dist = np.asarray(dist, dtype=np.float64)
    n, r, _ = lengths.shape
    parts = _chunks(n, r)
    if len(parts) == 1:
        return _brandes_stack(lengths, dist)
    return np.concatenate([_brandes_stack(lengths[part], dist[part]) for part in parts])


def _brandes_stack(lengths, dist):
    """:func:`brandes_betweenness` of one chunk, all of it at once."""
    n, r, _ = dist.shape
    order = np.argsort(dist, axis=2, kind="stable")  # order[g, s, t]: t-th settled
    at = (np.arange(n)[:, None] * r + np.arange(r)) * r  # flat index of [g, s, 0]
    rows = np.reshape(lengths, (n * r, r))
    first = np.arange(n)[:, None] * r  # row index of lengths[g, 0]
    flat_dist = dist.reshape(-1)
    nodes = np.arange(r)
    sigma = np.zeros((n, r, r))
    sigma[:, nodes, nodes] = 1.0  # a source settles first: lengths are positive
    flat_sigma = sigma.reshape(-1)
    # (1 + delta) / sigma of the nodes the backward sweep has passed, else 0
    coef = np.zeros((n, r, r))
    flat_coef = coef.reshape(-1)
    # each step fills tight[g, s, x] with 1.0 where the edge between its node
    # and x is tight; mode="clip" takes the rows unbuffered (indices are valid)
    tight = np.empty((n, r, r))
    with np.errstate(invalid="ignore"):  # inf - inf between unreachable nodes
        # a node not yet settled still has sigma 0, so only the edges v->w
        # with v settled before w add to sigma[s, w]
        for t in range(1, r):
            w = order[:, :, t]
            np.take(rows, first + w, axis=0, out=tight, mode="clip")  # L[w, v] = L[v, w]
            w = at + w  # flat index of [g, s, w]
            tight += dist
            tight -= flat_dist[w][:, :, None]
            _within_tolerance(tight)
            flat_sigma[w] = np.einsum("gsv,gsv->gs", tight, sigma)
        # a node not yet passed still has coef 0, so only the edges v->w
        # with w settled after v add to delta[s, v]
        for t in range(r - 1, 0, -1):
            v = order[:, :, t]
            np.take(rows, first + v, axis=0, out=tight, mode="clip")  # L[v, w]
            v = at + v  # flat index of [g, s, v]
            tight += flat_dist[v][:, :, None]
            tight -= dist
            _within_tolerance(tight)
            sigma_v = flat_sigma[v]
            delta_v = sigma_v * np.einsum("gsw,gsw->gs", tight, coef)
            # an unreachable node (sigma 0, delta 0) divides by inf to coef 0
            flat_coef[v] = (1.0 + delta_v) / np.where(sigma_v > 0, sigma_v, np.inf)
            flat_sigma[v] = delta_v  # sigma[s, v] is not read again
    sigma[:, nodes, nodes] = 0.0  # a source is not between itself and others
    return sigma.sum(axis=1)  # now delta, summed over sources


def burt_effective_size(w):
    """Burt's effective size per node of each weighted undirected graph.

    Row sums of mask * (1 - P M^T), where P holds each node's weights over
    its strength, M each node's weights over its largest weight, and the
    mask marks edges.
    """
    strength = w.sum(axis=2)
    peak = w.max(axis=2)
    p = w / np.where(strength > 0, strength, 1.0)[:, :, None]
    m = w / np.where(peak > 0, peak, 1.0)[:, :, None]
    redundancy = p @ m.transpose(0, 2, 1)
    return np.where(w > 0, 1.0 - redundancy, 0.0).sum(axis=2)


def onnela_clustering(w):
    """Onnela weighted clustering coefficient, weights rescaled by each graph's max.

    diag(W^3) / (k (k - 1)) with W the cube-rooted rescaled weights and k
    the degree; nodes of degree below 2 score 0.
    """
    w_max = w.max(axis=(1, 2))
    wh = np.cbrt(w / np.where(w_max > 0, w_max, 1.0)[:, None, None])
    triangles = ((wh @ wh) * wh).sum(axis=2)  # diag(W^3), as W is symmetric
    degree = (w > 0).sum(axis=2)
    pairs = degree * (degree - 1)
    return np.where(pairs > 0, triangles / np.maximum(pairs, 1), 0.0)
