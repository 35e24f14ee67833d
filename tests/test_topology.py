import numpy as np
import pytest

from connectogen import autodiff as ad
from connectogen import topology
from connectogen.data import devectorize, simulate_population, vectorize_upper
from connectogen.errors import (
    DegenerateError,
    DimensionError,
    PreconditionError,
    ValidationError,
)

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


def score(weights, metric, interp=topology.DISTANCE):
    """One metric's scores, read from the one centrality pass."""
    return topology.centralities(weights, interp)[metric]


def closeness_by_floyd_warshall(w, interp=topology.DISTANCE):
    """(r-1) / row sums of the Floyd-Warshall distances, 0 where any is inf."""
    sums = oracles.floyd_warshall(oracles.length_matrix(w, interp)).sum(axis=1)
    return np.where(np.isfinite(sums), (len(w) - 1) / sums, 0.0)


class TestShortestPaths:
    """The path lengths closeness and betweenness read from the one pass."""

    def test_path_graph_distance(self):
        assert score(path_graph(3), "cc")[0] == 2.0 / 3.0  # 2 / (1 + 2)

    def test_disconnected_pair_infinite(self):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = 1.0
        assert np.all(score(w, "cc") == 0.0)

    def test_triangle_heavy_edge_rerouted(self):
        w = np.array([[0, 1, 3], [1, 0, 1], [3, 1, 0]], float)
        scores = topology.centralities(w)
        assert scores["cc"][0] == 2.0 / 3.0  # d(0, 2) = 2 via the two light edges
        assert scores["bc"][1] == 1.0  # node 1 carries the only 0-2 path

    def test_inverse_interpretation(self):
        w = np.array([[0, 2.0], [2.0, 0]])
        assert topology.closeness(w, topology.INVERSE)[0] == 2.0  # 1 / 0.5

    @pytest.mark.parametrize("interp", [topology.DISTANCE, topology.INVERSE])
    def test_matches_floyd_warshall_random(self, interp):
        rng = np.random.default_rng(0)
        for _ in range(20):
            w = oracles.random_connectivity(rng, int(rng.integers(3, 9)))
            assert np.allclose(score(w, "cc", interp), closeness_by_floyd_warshall(w, interp),
                               rtol=0, atol=1e-10)

    def test_nan_rejected(self):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = np.nan
        with pytest.raises(ValidationError):
            topology.centralities(w)


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
        assert np.allclose(score(c4, "ec"), 0.5)

    def test_star_center_largest(self):
        ec = score(star_graph(4), "ec")
        assert ec[0] > ec[1:].max()
        assert np.allclose(ec, oracles.eigenvector_dense(star_graph(4)), atol=1e-6)

    def test_zero_graph_degenerate(self):
        with pytest.raises(DegenerateError):
            topology.centralities(np.zeros((3, 3)))

    def test_unit_norm(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            w = oracles.random_connectivity(rng, 6)
            assert abs(np.linalg.norm(score(w, "ec")) - 1.0) < 1e-9


class TestPagerank:
    def test_complete_graph_uniform(self):
        assert np.allclose(score(complete_graph(4), "pc"), 0.25)

    def test_dangling_nodes_spread_uniformly(self):
        w = np.zeros((5, 5))
        w[0, 1] = w[1, 0] = 1.0  # nodes 2-4 have no edge
        pc = score(w, "pc")
        assert pc[2] == pc[3] == pc[4]
        assert np.allclose(pc, oracles.pagerank_by_solve(w), rtol=0, atol=1e-9)

    def test_path_middle_ranks_higher(self):
        pc = score(path_graph(3), "pc")
        assert pc[1] > pc[0] and pc[1] > pc[2]

    def test_sums_to_one(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            w = oracles.random_connectivity(rng, 7)
            assert abs(score(w, "pc").sum() - 1.0) < 1e-9

    def test_damping_is_085(self):
        # P3 at damping d: p_end = (1-d)/3 + d p_mid / 2 and p_mid = (1-d)/3 + 2 d p_end,
        # so d = 0.85 gives (19, 36, 19) / 74
        assert np.allclose(score(path_graph(3), "pc"), np.array([19, 36, 19]) / 74,
                           rtol=0, atol=1e-9)


class TestEffectiveSize:
    def test_star_center_three_leaves(self):
        assert score(star_graph(3), "eff")[0] == 3.0

    def test_triangle_all_one(self):
        assert np.allclose(score(complete_graph(3), "eff"), 1.0)

    def test_isolated_node_zero(self):
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 0] = 1.0
        assert score(w, "eff")[3] == 0.0


class TestClusteringCoefficient:
    def test_triangle_unit(self):
        assert np.allclose(score(complete_graph(3), "clst"), 1.0)

    def test_star_zero(self):
        assert np.all(score(star_graph(4), "clst") == 0.0)

    def test_matches_triangle_enumeration(self):
        rng = np.random.default_rng(3)
        w = oracles.random_connectivity(rng, 6)
        assert np.allclose(score(w, "clst"), oracles.clustering_by_triangles(w), atol=1e-10)


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
            scores = topology.centralities(w)
            assert np.allclose(scores["cc"],
                               oracles.closeness_by_enumeration(w), atol=1e-8), idx
            assert np.allclose(scores["bc"],
                               oracles.betweenness_by_enumeration(w), atol=1e-8), idx
            assert np.allclose(scores["eff"],
                               oracles.effective_size_direct(w), atol=1e-8), idx
            assert np.allclose(scores["clst"],
                               oracles.clustering_by_triangles(w), atol=1e-8), idx

    def test_spectral_metrics(self):
        for idx, w in enumerate(self._suite()):
            scores = topology.centralities(w)
            assert np.allclose(scores["ec"], oracles.eigenvector_dense(w), atol=1e-6), idx
            assert np.allclose(scores["pc"], oracles.pagerank_by_solve(w), atol=1e-6), idx


class TestPermutationEquivariance:
    @pytest.mark.parametrize("metric", ["cc", "bc", "ec", "pc", "eff", "clst"])
    def test_metric_commutes_with_node_permutation(self, metric):
        rng = np.random.default_rng(17)
        for _ in range(5):
            w = oracles.random_connectivity(rng, 7)
            perm = rng.permutation(7)
            permuted = w[np.ix_(perm, perm)]
            base = score(w, metric)
            moved = score(permuted, metric)
            assert np.allclose(base[perm], moved, atol=1e-9)


class TestCentralityStack:
    def test_single_triangle_clst(self):
        out = score([complete_graph(3)], "clst")
        assert np.allclose(out, [[1.0, 1.0, 1.0]])

    def test_empty_list_rejected(self):
        with pytest.raises(ValidationError):
            topology.centralities([])

    def test_star_rows(self):
        out = score([star_graph(4)] * 3, "bc")
        assert out.shape == (3, 5)
        assert np.allclose(out, [[1, 0, 0, 0, 0]] * 3)

    def test_keys_are_the_six_metrics_in_order(self):
        scores = topology.centralities(complete_graph(3))
        assert list(scores) == ["cc", "bc", "ec", "pc", "eff", "clst"]


def near_bipartite_graph(seed):
    """Strictly positive weights, heavy across two halves, so lambda_min/lambda_max
    is near -1 and an unshifted power iteration oscillates."""
    rng = np.random.default_rng(seed)
    w = rng.uniform(1e-4, 2e-4, size=(6, 6))
    w[:3, 3:] = rng.uniform(0.5, 1.5, size=(3, 3))
    w = np.triu(w, k=1)
    return w + w.T


class TestDifferentiableEigenvector:
    """The tape op behind the EC topological loss, differentiated at its fixed point."""

    def test_matches_plain_eigenvector_on_positive_matrix(self):
        rng = np.random.default_rng(4)
        w = oracles.random_connectivity(rng, 6, density=1.0)
        out = topology.batched_eigenvector_rows(
            ad.constant(vectorize_upper(w)), 6)
        assert np.allclose(out.data.ravel(), score(w, "ec"), atol=1e-4)

    def test_c4_symmetric_result_and_gradient(self):
        c4 = np.array([[0, 1, 0, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 0, 1, 0]], float)
        g = ad.parameter(vectorize_upper(c4))
        with ad.Tape() as tape:
            ec = topology.batched_eigenvector_rows(g, 4)
            loss = ad.mean(ec)
        assert np.allclose(ec.data.ravel(), 0.5)
        grad = devectorize(ad.backward(tape, loss)[g.node_id].data.ravel(), 4)
        perm = [1, 2, 3, 0]  # rotation symmetry of the cycle
        assert np.allclose(grad, grad[np.ix_(perm, perm)], atol=1e-9)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        # strictly positive entries keep finite differences away from the
        # relu kink at zero (relu'(0)=0 by convention)
        feats = vectorize_upper(oracles.random_connectivity(rng, 5, density=1.0)) + 0.5

        def loss_np(arr):
            out = topology.batched_eigenvector_rows(ad.Tensor(arr), 5)
            return out.data.ravel()[0]

        g = ad.parameter(feats.copy())
        with ad.Tape() as tape:
            ec = topology.batched_eigenvector_rows(g, 5)
            loss = ad.matmul(ec, ad.constant(np.eye(5, 1)))  # EC of node 0
        grad = ad.backward(tape, loss)[g.node_id].data
        fd = oracles.finite_difference(loss_np, feats, h=1e-6)
        denom = max(np.abs(fd).max(), 1e-12)
        assert np.abs(grad - fd).max() / denom < 1e-3

    def test_zero_input_degenerate(self):
        # no error: an all-zero graph gets zero centralities and no gradient
        g = ad.parameter(np.zeros((1, 3)))
        with ad.Tape() as tape:
            loss = oracles.sum_all(topology.batched_eigenvector_rows(g, 3))
        assert loss.item() == 0.0
        assert np.all(ad.backward(tape, loss)[g.node_id].data == 0.0)

    def test_zero_graph_stays_zero(self):
        # a zero row beside a live one: zero centralities and zero gradient
        # for it, while the live row's gradient flows
        feats = np.zeros((2, 3))
        feats[1] = [0.3, 0.7, 0.5]
        g = ad.parameter(feats)
        with ad.Tape() as tape:
            out = topology.batched_eigenvector_rows(g, 3)
            loss = oracles.sum_all(ad.mul(out, ad.constant([[1.0, 2.0, 3.0]] * 2)))
        grad = ad.backward(tape, loss)[g.node_id].data
        assert np.all(out.data[0] == 0.0)
        assert np.all(grad[0] == 0.0)
        assert np.any(grad[1] != 0.0)

    @pytest.mark.parametrize("name", ["star", "near_bipartite"])
    def test_bipartite_spectra_match_dense_oracle(self, name):
        w = star_graph(5) if name == "star" else near_bipartite_graph(3)
        vals = np.linalg.eigvalsh(w)
        assert vals[0] / vals[-1] < -0.99
        r = w.shape[0]
        out = topology.batched_eigenvector_rows(ad.constant(vectorize_upper(w)), r)
        assert np.abs(out.data[0] - oracles.eigenvector_dense(w)).max() < 1e-9

    @pytest.mark.parametrize("name", ["star", "near_bipartite"])
    def test_bipartite_spectra_gradient_matches_finite_differences(self, name):
        w = star_graph(5) if name == "star" else near_bipartite_graph(4)
        r = w.shape[0]
        feats = vectorize_upper(w)[None]
        weights = np.random.default_rng(9).standard_normal((1, r))

        def loss_np(arr):
            out = topology.batched_eigenvector_rows(ad.Tensor(arr), r)
            return (out.data * weights).sum()

        g = ad.parameter(feats.copy())
        with ad.Tape() as tape:
            ec = topology.batched_eigenvector_rows(g, r)
            loss = oracles.sum_all(ad.mul(ec, ad.constant(weights)))
        grad = ad.backward(tape, loss)[g.node_id].data
        fd = oracles.finite_difference(loss_np, feats, h=1e-6)
        # the star's absent leaf-leaf edges sit on the relu kink (relu'(0)=0),
        # where a central difference measures half a one-sided slope
        positive = feats > 0
        denom = max(np.abs(fd[positive]).max(), 1e-12)
        assert np.abs(grad - fd)[positive].max() / denom < 1e-3


class TestBatchedEigenvector:
    def test_agrees_with_per_graph_path(self):
        rng = np.random.default_rng(6)
        r = 6
        f = r * (r - 1) // 2
        feats = rng.uniform(0.1, 1.0, size=(4, f))
        batched = topology.batched_eigenvector_rows(ad.constant(feats), r)
        for row in range(4):
            single = score(devectorize(feats[row], r), "ec")
            assert np.allclose(batched.data[row], single, atol=1e-8)

    def test_zero_rows_give_zero_centralities(self):
        r = 5
        feats = np.zeros((2, r * (r - 1) // 2))
        feats[1, 0] = 1.0
        out = topology.batched_eigenvector_rows(ad.constant(feats), r)
        assert np.all(out.data[0] == 0.0)
        assert np.any(out.data[1] > 0.0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        r = 4
        f = r * (r - 1) // 2
        feats = rng.uniform(0.2, 1.0, size=(2, f))

        def build(x):
            return ad.mean(topology.batched_eigenvector_rows(x, r))

        p = ad.parameter(feats.copy())
        with ad.Tape() as tape:
            loss = build(p)
        grad = ad.backward(tape, loss)[p.node_id].data

        def loss_np(arr):
            return topology.batched_eigenvector_rows(ad.Tensor(arr), r).data.mean()

        fd = oracles.finite_difference(loss_np, feats, h=1e-6)
        denom = max(np.abs(fd).max(), 1e-12)
        assert np.abs(grad - fd).max() / denom < 1e-3


def complete_bipartite_graph(r):
    """K(a, r - a) with a = max(1, r // 3): lambda_min = -lambda_max, and the
    halves differ in size, so the uniform start oscillates and the EC
    forward falls back to eigh."""
    a = max(1, r // 3)
    w = np.zeros((r, r))
    w[:a, a:] = w[a:, :a] = 1.0
    return w


class TestEigenvectorRowsChunkedBackward:
    """The op drops its graphs after the forward and rebuilds them chunk by
    chunk in the backward; the whole-stack reference gives the same bits."""

    # stack name -> (graphs for a chunk size, chunks they make)
    STACKS = {"chunk-1": (lambda size: size - 1, 1), "chunk": (lambda size: size, 1),
              "chunk+1": (lambda size: size + 1, 2),
              "uneven": (lambda size: 3 * size + size // 2 + 1, 4)}

    @pytest.mark.parametrize("r", [4, 6, 35, 116])
    @pytest.mark.parametrize("stack", list(STACKS))
    def test_matches_whole_stack_reference_bitwise(self, r, stack, monkeypatch):
        from connectogen import _topology_kernels as kernels

        size = kernels._chunks(1, r)[0].stop  # graphs per chunk
        graphs, chunks = self.STACKS[stack]
        n = graphs(size)
        assert len(kernels._chunks(n, r)) == chunks
        rng = np.random.default_rng(r * 100 + n)
        x = rng.uniform(-0.3, 1.0, size=(n, r * (r - 1) // 2))
        x[0] = -1.0  # an all-zero graph after the relu
        x[-1] = vectorize_upper(complete_bipartite_graph(r))
        upstream = rng.standard_normal((n, r))
        eigh_calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: eigh_calls.append(len(a)) or eigh(a))

        p = ad.parameter(x.copy())
        with ad.Tape() as tape:
            ec = topology.batched_eigenvector_rows(p, r)
            loss = oracles.sum_all(ad.mul(ec, ad.constant(upstream)))
        assert eigh_calls  # the bipartite graph took the fallback
        grad = ad.backward(tape, loss)[p.node_id].data
        ref_ec, ref_grad = oracles.eigenvector_rows_and_gradient(x, r, upstream)
        assert ec.data.tobytes() == ref_ec.tobytes()
        assert grad.tobytes() == ref_grad.tobytes()
        assert np.all(ec.data[0] == 0.0) and np.all(grad[0] == 0.0)

    def test_tape_holds_no_graph_stack(self):
        """After the forward, with the tape alive, the op keeps O(n r)."""
        import tracemalloc

        r, n = 60, 40
        rows = ad.parameter(np.random.default_rng(3).uniform(-0.2, 1.0, (n, r * (r - 1) // 2)))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with ad.Tape() as tape:
                loss = ad.mean(topology.batched_eigenvector_rows(rows, r))
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept < n * r * r * 8 / 4, f"{kept} bytes kept"
        assert np.any(ad.backward(tape, loss)[rows.node_id].data != 0.0)

    def test_rejects_rows_of_another_width(self):
        with pytest.raises(DimensionError):
            topology.batched_eigenvector_rows(ad.constant(np.ones((2, 5))), 4)


def test_one_eigenvector_implementation():
    """Training, the real targets and evaluation share one EC forward: on a
    real target view with an all-zero graph spliced in, every entry point
    gives the same bits."""
    ds = simulate_population(s=6, r=35, v=3, clusters=2, seed=7)
    view = 1  # a target view when view 0 is the source
    feats = np.insert(ds.feature_matrix(view), 2, 0.0, axis=0)
    stack = np.insert(ds.tensor[:, view], 2, 0.0, axis=0)
    live = [0, 1, 3, 4, 5, 6]
    ec = topology.ec_or_zero(stack)
    assert np.all(ec[2] == 0.0)
    assert np.array_equal(topology.batched_eigenvector_rows(ad.constant(feats), 35).data, ec)
    assert np.array_equal(score(stack[live], "ec"), ec[live])
    for i in live:
        assert np.array_equal(score(stack[i], "ec"), ec[i])


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
    raw_bc = kernels.brandes_betweenness(lengths, dist)
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
        assert np.array_equal(raw_bc[i], kernels.brandes_betweenness(lengths[one], dist[one])[0])
        assert np.array_equal(eff[i], kernels.burt_effective_size(weights[one])[0])
        assert np.array_equal(clst[i], kernels.onnela_clustering(weights[one])[0])
    assert np.allclose(raw_bc[-1], [12, 4, 6, 4, 6, 0, 0, 4], rtol=0, atol=1e-12)


def test_betweenness_chunks_change_no_bit(monkeypatch):
    """A stack cut into several chunks by a lowered byte bound gives the
    one-chunk result bit for bit."""
    from connectogen import _topology_kernels as kernels

    r = 12
    stack = simulate_population(s=7, r=r, v=2, clusters=2, seed=6).tensor.reshape(-1, r, r)
    lengths = np.stack([oracles.length_matrix(w) for w in stack])  # 14 graphs
    dist = kernels.dijkstra_all(lengths)
    whole = kernels.brandes_betweenness(lengths, dist)
    per_graph = 5 * 8 * r * r
    monkeypatch.setattr(kernels, "_BETWEENNESS_CHUNK_BYTES", 3 * per_graph)  # 5 chunks
    assert np.array_equal(kernels.brandes_betweenness(lengths, dist), whole)
    monkeypatch.setattr(kernels, "_BETWEENNESS_CHUNK_BYTES", 1)  # one graph per chunk
    assert np.array_equal(kernels.brandes_betweenness(lengths, dist), whole)


def test_floyd_warshall_chunks_change_no_bit(monkeypatch):
    """Floyd-Warshall over several chunks, cut by a lowered byte bound,
    gives the one-chunk distances bit for bit."""
    from connectogen import _topology_kernels as kernels

    r = 12
    stack = simulate_population(s=7, r=r, v=2, clusters=2, seed=6).tensor.reshape(-1, r, r)
    for interp in (topology.DISTANCE, topology.INVERSE):
        lengths = np.stack([oracles.length_matrix(w, interp) for w in stack])  # 14 graphs
        assert len(kernels._chunks(len(lengths), r)) == 1
        whole = kernels.dijkstra_all(lengths)
        per_graph = 5 * 8 * r * r
        for bound, chunks in ((3 * per_graph, 5), (1, 14)):
            monkeypatch.setattr(kernels, "_BETWEENNESS_CHUNK_BYTES", bound)
            assert len(kernels._chunks(len(lengths), r)) == chunks
            assert np.array_equal(kernels.dijkstra_all(lengths), whole)
        monkeypatch.undo()


def test_betweenness_chunk_holds_an_evaluation_stack():
    # evaluating 2 subjects x 5 views with a baseline hands the kernel 30
    # graphs at r=35, which must still run as one chunk
    from connectogen import _topology_kernels as kernels

    assert kernels._BETWEENNESS_CHUNK_BYTES // (5 * 8 * 35 * 35) >= 30


def _symmetric(upper):
    upper = np.triu(upper, k=1)
    return upper + np.swapaxes(upper, -1, -2)


@pytest.mark.parametrize("interp", [topology.DISTANCE, topology.INVERSE])
def test_betweenness_sweep_matches_solver(interp):
    """The settle-order sweeps agree with Brandes' dense linear systems."""
    from connectogen import _topology_kernels as kernels

    rng = np.random.default_rng(11)
    r = 20
    split = np.stack([oracles.random_connectivity(rng, r) for _ in range(2)])
    split[:, :7, 7:] = split[:, 7:, :7] = 0.0  # two components
    stacks = [
        simulate_population(s=4, r=35, v=2, clusters=2, seed=3).tensor[:, 1],
        simulate_population(s=2, r=116, v=2, clusters=2, seed=4).tensor[:, 0],
        _symmetric(rng.integers(0, 3, size=(4, r, r)).astype(float)),  # many ties
        _symmetric((rng.uniform(size=(4, r, r)) < 0.15).astype(float)),  # sparse, unit
        split,
    ]
    for stack in stacks:
        lengths = np.stack([oracles.length_matrix(w, interp) for w in stack])
        raw = kernels.brandes_betweenness(lengths, kernels.dijkstra_all(lengths))
        for i in range(len(stack)):
            ref = oracles.betweenness_by_solve(lengths[i])
            assert np.abs(raw[i] - ref).max() <= 1e-12 * np.abs(ref).max(), (stack.shape, i)


def test_power_iteration_stacks_match_single_graphs():
    """Graphs that converge at different steps, or never, in one stack give
    the bits each gives alone.  The dense graphs converge first (EC in 25-32
    steps), so the batch is compacted while the sparser ones still move; the
    star and the path are bipartite, so EC reaches the step cap on them and
    falls back to eigh."""
    rng = np.random.default_rng(12)
    r = 9
    stack = np.stack([oracles.random_connectivity(rng, r, density=d)
                      for d in (0.9, 0.9, 0.9, 0.5, 0.5)]
                     + [star_graph(r - 1), np.zeros((r, r)), path_graph(r)])
    ec = topology.ec_or_zero(stack)
    live = [0, 1, 2, 3, 4, 5, 7]
    scores = topology.centralities(stack[live])  # the zero graph has no EC to raise on
    assert np.array_equal(scores["ec"], ec[live])
    for i, w in enumerate(stack):
        assert np.array_equal(ec[i], topology.ec_or_zero(w)), i
        if i in live:
            single = topology.centralities(w)
            assert np.array_equal(ec[i], single["ec"]), i
            assert np.array_equal(scores["pc"][live.index(i)], single["pc"]), i


def test_metrics_accept_stacks():
    rng = np.random.default_rng(10)
    stack = np.stack([oracles.random_connectivity(rng, 6) for _ in range(3)])
    batched = topology.centralities(stack)
    for i in range(3):
        single = topology.centralities(stack[i])
        for metric, values in batched.items():
            assert values.shape == (3, 6), metric
            assert np.array_equal(values[i], single[metric]), metric
    for fn in (topology.closeness, topology.betweenness):
        batched = fn(stack)
        for i in range(3):
            assert np.array_equal(batched[i], fn(stack[i])), fn.__name__


@pytest.mark.parametrize("interp", [topology.DISTANCE, topology.INVERSE])
def test_centralities_equal_closeness_betweenness_and_single_graphs(interp):
    rng = np.random.default_rng(21)
    stack = np.stack([oracles.random_connectivity(rng, 9, density=d) for d in (0.9, 0.4, 0.2)]
                     + [star_graph(8), path_graph(9)])
    scores = topology.centralities(stack, interp)
    assert np.array_equal(scores["cc"], topology.closeness(stack, interp))
    assert np.array_equal(scores["bc"], topology.betweenness(stack, interp))
    for i in range(len(stack)):
        single = topology.centralities(stack[i], interp)
        for metric, values in scores.items():
            assert np.array_equal(values[i], single[metric]), (metric, i)


def test_centralities_raise_what_the_first_unfit_metric_raises():
    with pytest.raises(PreconditionError, match="closeness needs at least 2 nodes"):
        topology.centralities(np.zeros((1, 1)), "no such interpretation")
    with pytest.raises(PreconditionError, match="unknown interpretation"):
        topology.centralities(np.ones((2, 2)) - np.eye(2), "no such interpretation")
    with pytest.raises(PreconditionError, match="betweenness needs at least 3 nodes"):
        topology.centralities(np.ones((2, 2)) - np.eye(2))
    with pytest.raises(DegenerateError):
        topology.centralities(np.stack([star_graph(3), np.zeros((4, 4))]))


@pytest.mark.parametrize("r", [3, 7])
def test_every_public_function_scores_an_empty_stack(r):
    empty = np.zeros((0, r, r))
    for interp in (topology.DISTANCE, topology.INVERSE):
        scores = topology.centralities(empty, interp)
        assert list(scores) == ["cc", "bc", "ec", "pc", "eff", "clst"]
        assert all(values.shape == (0, r) for values in scores.values())
        assert topology.closeness(empty, interp).shape == (0, r)
        assert topology.betweenness(empty, interp).shape == (0, r)
    assert topology.ec_or_zero(empty).shape == (0, r)
    rows = ad.parameter(np.zeros((0, r * (r - 1) // 2)))
    with ad.Tape() as tape:
        out = topology.batched_eigenvector_rows(rows, r)
        loss = oracles.sum_all(out)
    assert out.shape == (0, r)
    assert ad.backward(tape, loss)[rows.node_id].shape == rows.shape


def test_vectorize_devectorize_consistency_with_metrics():
    # metrics on a devectorized round trip equal metrics on the original
    rng = np.random.default_rng(9)
    w = oracles.random_connectivity(rng, 6)
    back = devectorize(vectorize_upper(w), 6)
    assert np.allclose(topology.closeness(w), topology.closeness(back))
