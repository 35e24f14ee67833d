"""Shortest-path and neighbourhood kernels over stacks of graphs.

Every kernel takes an (n, r, r) float64 stack and returns one result per
graph: an (n, r, r) stack of distances or an (n, r) stack of per-node
scores.  A length stack holds np.inf for absent edges and 0 on the
diagonal, and its edge lengths are strictly positive.  A weight stack is
symmetric, nonnegative and zero on the diagonal.

Betweenness matches distance ties within the absolute tolerance
``_TIE_TOL``.  For a source s, the edge v->w belongs to the shortest-path
DAG when D[s,v] + L[v,w] lies within that tolerance of D[s,w] and
(D[s,v], v) sorts before (D[s,w], w).  The second condition orients every
tight edge in the order in which Dijkstra's algorithm, breaking ties by
the lower index, settles nodes.  It keeps the DAG acyclic when an edge is
shorter than the tolerance, so the linear systems below stay nonsingular.
"""

import numpy as np

_TIE_TOL = 1e-12


def dijkstra_all(lengths):
    """All-pairs shortest-path distances of each graph, by Floyd-Warshall.

    Unreachable pairs stay np.inf.  (The name predates the algorithm; the
    benchmark's per-kernel metrics are keyed by it.)
    """
    dist = np.array(lengths, dtype=np.float64)
    for mid in range(dist.shape[-1]):
        np.minimum(dist, dist[:, :, mid, None] + dist[:, None, mid, :], out=dist)
    return dist


def brandes_betweenness(lengths):
    """Unnormalized betweenness of each graph, by Brandes' accumulation.

    Returns, per node, the sum over ordered pairs (s, t) of the fraction of
    shortest s-t paths passing through it (endpoints excluded).  For every
    source at once, with A the DAG's adjacency, the path counts solve
    (I - A^T) sigma = e_s and the dependencies solve (I - B) delta = B 1,
    where B[v, w] = A[v, w] sigma[v] / sigma[w] (Brandes 2001).  Graphs are
    processed one at a time, so memory stays O(r^3).
    """
    dist = dijkstra_all(lengths)
    n, r, _ = dist.shape
    eye = np.eye(r)
    nodes = np.arange(r)
    out = np.zeros((n, r))
    for g in range(n):
        d = dist[g]  # d[s, v]
        d_from, d_to = d[:, :, None], d[:, None, :]
        with np.errstate(invalid="ignore"):  # inf - inf between unreachable nodes
            tight = np.abs(d_from + lengths[g] - d_to) <= _TIE_TOL
        settled_first = (d_from < d_to) | ((d_from == d_to) & (nodes[:, None] < nodes))
        dag = (tight & settled_first).astype(np.float64)  # dag[s, v, w]: edge v->w
        sigma = np.linalg.solve(eye - dag.transpose(0, 2, 1), eye[:, :, None])[..., 0]
        reached = np.where(sigma > 0, sigma, 1.0)
        ratio = dag * (sigma[:, :, None] / reached[:, None, :])
        delta = np.linalg.solve(eye - ratio, ratio.sum(axis=2)[:, :, None])[..., 0]
        delta[nodes, nodes] = 0.0  # a source is not between itself and others
        out[g] = delta.sum(axis=0)
    return out


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
