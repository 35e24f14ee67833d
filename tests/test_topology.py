import numpy as np
import pytest

from connectogen import autodiff as ad
from connectogen import topology
from connectogen.data import devectorize, vectorize_upper
from connectogen.errors import DegenerateError, PreconditionError, ValidationError

import oracles


def path_graph(r):
    w = np.zeros((r, r))
    for i in range(r - 1):
        w[i, i + 1] = w[i + 1, i] = 1.0
    return w


def star_graph(leaves):
    w = np.zeros((leaves + 1, leaves + 1))
    w[0, 1:] = 1.0
    w[1:, 0] = 1.0
    return w


def complete_graph(r):
    return np.ones((r, r)) - np.eye(r)


class TestShortestPaths:
    def test_path_graph_distance(self):
        d = topology.shortest_paths(path_graph(3))
        assert d[0, 2] == 2.0

    def test_disconnected_pair_infinite(self):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = 1.0
        d = topology.shortest_paths(w)
        assert np.isinf(d[0, 2])
        assert d[2, 2] == 0.0

    def test_triangle_heavy_edge_rerouted(self):
        w = np.array([[0, 1, 3], [1, 0, 1], [3, 1, 0]], float)
        d = topology.shortest_paths(w)
        assert d[0, 2] == 2.0  # via the two light edges

    def test_inverse_interpretation(self):
        w = np.array([[0, 2.0], [2.0, 0]])
        assert topology.shortest_paths(w, topology.INVERSE)[0, 1] == 0.5

    def test_matches_floyd_warshall_random(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            w = oracles.random_connectivity(rng, int(rng.integers(3, 9)))
            d = topology.shortest_paths(w)
            fw = oracles.floyd_warshall(oracles.length_matrix(w))
            assert np.allclose(d, fw, atol=1e-10, equal_nan=False)

    def test_nan_rejected(self):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = np.nan
        with pytest.raises(ValidationError):
            topology.shortest_paths(w)


class TestCloseness:
    def test_star_center_unit(self):
        assert topology.closeness(star_graph(4))[0] == 1.0

    def test_path_endpoint(self):
        assert np.isclose(topology.closeness(path_graph(3))[0], 2 / 3)

    def test_isolated_node_zero(self):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = 1.0
        assert topology.closeness(w)[2] == 0.0
        assert topology.closeness(w)[0] == 0.0  # unreachable pair zeroes everyone

    def test_small_graph_rejected(self):
        with pytest.raises(PreconditionError):
            topology.closeness(np.zeros((1, 1)))


class TestBetweenness:
    def test_star_center(self):
        bc = topology.betweenness(star_graph(4))
        assert bc[0] == 1.0
        assert np.all(bc[1:] == 0.0)

    def test_complete_graph_zero(self):
        assert np.all(topology.betweenness(complete_graph(5)) == 0.0)

    def test_path_middle_node(self):
        assert topology.betweenness(path_graph(3))[1] == 1.0

    def test_too_small(self):
        with pytest.raises(PreconditionError):
            topology.betweenness(np.zeros((2, 2)))

    def test_tied_paths_split_fractionally(self):
        # C4: each opposite pair has two shortest paths, each middle carries 1/2
        c4 = np.array([[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]], float)
        bc = topology.betweenness(c4)
        expected = oracles.betweenness_by_enumeration(c4)
        assert np.allclose(bc, expected, atol=1e-12)


class TestEigenvector:
    def test_cycle_uniform(self):
        c4 = np.array([[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]], float)
        assert np.allclose(topology.eigenvector(c4), 0.5)

    def test_star_center_largest(self):
        ec = topology.eigenvector(star_graph(4))
        assert ec[0] > ec[1:].max()
        assert np.allclose(ec, oracles.eigenvector_dense(star_graph(4)), atol=1e-6)

    def test_zero_graph_degenerate(self):
        with pytest.raises(DegenerateError):
            topology.eigenvector(np.zeros((3, 3)))

    def test_unit_norm(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            w = oracles.random_connectivity(rng, 6)
            assert abs(np.linalg.norm(topology.eigenvector(w)) - 1.0) < 1e-9


class TestPagerank:
    def test_complete_graph_uniform(self):
        assert np.allclose(topology.pagerank(complete_graph(4)), 0.25)

    def test_zero_graph_uniform(self):
        assert np.allclose(topology.pagerank(np.zeros((5, 5))), 0.2)

    def test_path_middle_ranks_higher(self):
        pc = topology.pagerank(path_graph(3))
        assert pc[1] > pc[0] and pc[1] > pc[2]

    def test_sums_to_one(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            w = oracles.random_connectivity(rng, 7)
            assert abs(topology.pagerank(w).sum() - 1.0) < 1e-9

    def test_damping_bounds(self):
        with pytest.raises(PreconditionError):
            topology.pagerank(complete_graph(3), damping=1.0)
        with pytest.raises(PreconditionError):
            topology.pagerank(complete_graph(3), damping=-0.1)


class TestEffectiveSize:
    def test_star_center_three_leaves(self):
        assert topology.effective_size(star_graph(3))[0] == 3.0

    def test_triangle_all_one(self):
        assert np.allclose(topology.effective_size(complete_graph(3)), 1.0)

    def test_isolated_node_zero(self):
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 0] = 1.0
        assert topology.effective_size(w)[3] == 0.0


class TestClusteringCoefficient:
    def test_triangle_unit(self):
        assert np.allclose(topology.clustering_coefficient(complete_graph(3)), 1.0)

    def test_star_zero(self):
        assert np.all(topology.clustering_coefficient(star_graph(4)) == 0.0)

    def test_matches_triangle_enumeration(self):
        rng = np.random.default_rng(3)
        w = oracles.random_connectivity(rng, 6)
        assert np.allclose(topology.clustering_coefficient(w),
                           oracles.clustering_by_triangles(w), atol=1e-10)


class TestOracleSuite:
    """All six metrics against independent oracles on random small graphs."""

    def _suite(self):
        rng = np.random.default_rng(20)
        graphs = []
        for _ in range(20):
            r = int(rng.integers(4, 9))
            graphs.append(oracles.random_connectivity(rng, r, density=0.75))
        return graphs

    def test_combinatorial_metrics(self):
        for idx, w in enumerate(self._suite()):
            assert np.allclose(topology.closeness(w),
                               oracles.closeness_by_enumeration(w), atol=1e-8), idx
            assert np.allclose(topology.betweenness(w),
                               oracles.betweenness_by_enumeration(w), atol=1e-8), idx
            assert np.allclose(topology.effective_size(w),
                               oracles.effective_size_direct(w), atol=1e-8), idx
            assert np.allclose(topology.clustering_coefficient(w),
                               oracles.clustering_by_triangles(w), atol=1e-8), idx

    def test_spectral_metrics(self):
        for idx, w in enumerate(self._suite()):
            assert np.allclose(topology.eigenvector(w),
                               oracles.eigenvector_dense(w), atol=1e-6), idx
            assert np.allclose(topology.pagerank(w),
                               oracles.pagerank_by_solve(w), atol=1e-6), idx


class TestPermutationEquivariance:
    @pytest.mark.parametrize("metric", ["cc", "bc", "ec", "pc", "eff", "clst"])
    def test_metric_commutes_with_node_permutation(self, metric):
        rng = np.random.default_rng(17)
        for _ in range(5):
            w = oracles.random_connectivity(rng, 7)
            perm = rng.permutation(7)
            permuted = w[np.ix_(perm, perm)]
            base = topology.METRICS[metric](w, topology.DISTANCE)
            moved = topology.METRICS[metric](permuted, topology.DISTANCE)
            assert np.allclose(base[perm], moved, atol=1e-9)


class TestCentralityMatrix:
    def test_single_triangle_clst(self):
        out = topology.centrality_matrix([complete_graph(3)], "clst")
        assert np.allclose(out, [[1.0, 1.0, 1.0]])

    def test_empty_list(self):
        assert topology.centrality_matrix([], "cc").shape == (0, 0)

    def test_star_rows(self):
        out = topology.centrality_matrix([star_graph(4)] * 3, "bc")
        assert out.shape == (3, 5)
        assert np.allclose(out, [[1, 0, 0, 0, 0]] * 3)

    def test_unknown_metric(self):
        with pytest.raises(PreconditionError):
            topology.centrality_matrix([complete_graph(3)], "nope")


class TestDifferentiableEigenvector:
    def test_matches_plain_eigenvector_on_positive_matrix(self):
        rng = np.random.default_rng(4)
        w = oracles.random_connectivity(rng, 6, density=1.0)
        out = topology.differentiable_eigenvector(ad.constant(w), iters=60)
        assert np.allclose(out.data.ravel(), topology.eigenvector(w), atol=1e-4)

    def test_c4_symmetric_result_and_gradient(self):
        c4 = np.array([[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]], float)
        g = ad.parameter(c4.copy())
        with ad.Tape() as tape:
            ec = topology.differentiable_eigenvector(g, iters=30)
            loss = ad.mean(ec)
        assert np.allclose(ec.data.ravel(), 0.5)
        grad = ad.backward(tape, loss)[g.node_id].data
        perm = [1, 2, 3, 0]  # rotation symmetry of the cycle
        assert np.allclose(grad, grad[np.ix_(perm, perm)], atol=1e-9)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        # strictly positive entries keep finite differences away from the
        # relu kink at zero (relu'(0)=0 by convention)
        w = oracles.random_connectivity(rng, 5, density=1.0) + 0.5

        def loss_np(arr):
            out = topology.differentiable_eigenvector(ad.Tensor(arr), iters=40)
            return out.data.ravel()[0]

        g = ad.parameter(w.copy())
        with ad.Tape() as tape:
            ec = topology.differentiable_eigenvector(g, iters=40)
            loss = ad.matmul(ad.constant(np.eye(1, 5)), ec)  # EC of node 0
        grad = ad.backward(tape, loss)[g.node_id].data
        fd = oracles.finite_difference(loss_np, w, h=1e-6)
        denom = max(np.abs(fd).max(), 1e-12)
        assert np.abs(grad - fd).max() / denom < 1e-3

    def test_zero_input_degenerate(self):
        with pytest.raises(DegenerateError):
            topology.differentiable_eigenvector(ad.constant(np.zeros((3, 3))))


class TestBatchedEigenvector:
    def test_agrees_with_per_graph_path(self):
        rng = np.random.default_rng(6)
        r = 6
        f = r * (r - 1) // 2
        feats = rng.uniform(0.1, 1.0, size=(4, f))
        batched = topology.batched_eigenvector_rows(ad.constant(feats), r, iters=60)
        for row in range(4):
            single = topology.differentiable_eigenvector(
                ad.constant(devectorize(feats[row], r)), iters=60)
            assert np.allclose(batched.data[row], single.data.ravel(), atol=1e-10)

    def test_zero_rows_give_zero_centralities(self):
        r = 5
        feats = np.zeros((2, r * (r - 1) // 2))
        feats[1, 0] = 1.0
        out = topology.batched_eigenvector_rows(ad.constant(feats), r, iters=20)
        assert np.all(out.data[0] == 0.0)
        assert np.any(out.data[1] > 0.0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        r = 4
        f = r * (r - 1) // 2
        feats = rng.uniform(0.2, 1.0, size=(2, f))

        def build(x):
            return ad.mean(topology.batched_eigenvector_rows(x, r, iters=30))

        p = ad.parameter(feats.copy())
        with ad.Tape() as tape:
            loss = build(p)
        grad = ad.backward(tape, loss)[p.node_id].data

        def loss_np(arr):
            return topology.batched_eigenvector_rows(
                ad.Tensor(arr), r, iters=30).data.mean()

        fd = oracles.finite_difference(loss_np, feats, h=1e-6)
        denom = max(np.abs(fd).max(), 1e-12)
        assert np.abs(grad - fd).max() / denom < 1e-3


def test_batched_kernels_match_oracles():
    from connectogen import _topology_kernels as kernels

    r = 8
    rng = np.random.default_rng(8)
    graphs = [oracles.random_connectivity(rng, r) for _ in range(4)]
    tied = np.triu(rng.integers(0, 3, size=(r, r)).astype(float), k=1)
    graphs.append(tied + tied.T)  # integer weights: many equal-length paths
    split = oracles.random_connectivity(rng, r)
    split[:3, 3:] = split[3:, :3] = 0.0
    graphs.append(split)  # two components
    tiny = np.triu(np.random.default_rng(1).uniform(size=(r, r)), k=1)
    tiny = tiny + tiny.T
    tiny[0, 1] = tiny[1, 0] = 1e-14  # an edge shorter than the tie tolerance
    graphs.append(tiny)
    weights = np.stack(graphs)
    lengths = np.stack([oracles.length_matrix(w) for w in graphs])

    dist = kernels.dijkstra_all(lengths)
    raw_bc = kernels.brandes_betweenness(lengths)
    eff = kernels.burt_effective_size(weights)
    clst = kernels.onnela_clustering(weights)
    for i, w in enumerate(graphs):
        assert np.allclose(dist[i], oracles.floyd_warshall(lengths[i]), rtol=0, atol=1e-12), i
        assert np.allclose(raw_bc[i] / ((r - 1) * (r - 2)),
                           oracles.betweenness_by_enumeration(w), rtol=0, atol=1e-12), i
        assert np.allclose(eff[i], oracles.effective_size_direct(w), rtol=0, atol=1e-12), i
        assert np.allclose(clst[i], oracles.clustering_by_triangles(w), rtol=0, atol=1e-12), i
        one = slice(i, i + 1)
        assert np.array_equal(dist[i], kernels.dijkstra_all(lengths[one])[0])
        assert np.array_equal(raw_bc[i], kernels.brandes_betweenness(lengths[one])[0])
        assert np.array_equal(eff[i], kernels.burt_effective_size(weights[one])[0])
        assert np.array_equal(clst[i], kernels.onnela_clustering(weights[one])[0])
    assert np.allclose(raw_bc[-1], [12, 4, 6, 4, 6, 0, 0, 4], rtol=0, atol=1e-12)


def test_metrics_accept_stacks():
    rng = np.random.default_rng(10)
    stack = np.stack([oracles.random_connectivity(rng, 6) for _ in range(3)])
    for fn in (topology.shortest_paths, topology.closeness, topology.betweenness,
               topology.eigenvector, topology.pagerank, topology.effective_size,
               topology.clustering_coefficient):
        batched = fn(stack)
        assert batched.shape[0] == 3
        for i in range(3):
            assert np.array_equal(batched[i], fn(stack[i])), fn.__name__


def test_vectorize_devectorize_consistency_with_metrics():
    # metrics on a devectorized round trip equal metrics on the original
    rng = np.random.default_rng(9)
    w = oracles.random_connectivity(rng, 6)
    back = devectorize(vectorize_upper(w), 6)
    assert np.allclose(topology.closeness(w), topology.closeness(back))
