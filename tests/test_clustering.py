import numpy as np
import pytest

from connectogen import clustering
from connectogen.errors import PreconditionError

from oracles import adjusted_rand_index


def _two_block_affinity(n_half=6, strong=0.9, weak=0.05):
    n = 2 * n_half
    a = np.full((n, n), weak)
    a[:n_half, :n_half] = strong
    a[n_half:, n_half:] = strong
    np.fill_diagonal(a, 1.0)
    return a


class TestSpectralEmbed:
    def test_block_affinity_separates_linearly(self):
        coords = clustering.spectral_embed(_two_block_affinity(), 2)
        first, second = coords[:6, 1], coords[6:, 1]
        # the second eigenvector splits the blocks by sign
        assert np.all(np.sign(first) == np.sign(first[0]))
        assert np.all(np.sign(second) == -np.sign(first[0]))

    def test_all_ones_two_subjects_symmetric(self):
        coords = clustering.spectral_embed(np.ones((2, 2)), 1)
        assert np.allclose(coords[0], coords[1])

    def test_deterministic_sign_convention(self):
        a = _two_block_affinity()
        c1 = clustering.spectral_embed(a, 2)
        c2 = clustering.spectral_embed(a, 2)
        assert np.array_equal(c1, c2)
        for col in range(2):
            assert c1[np.argmax(np.abs(c1[:, col])), col] > 0

    def test_c_bounds(self):
        with pytest.raises(PreconditionError):
            clustering.spectral_embed(np.eye(3), 3)


class TestKMeans:
    def test_single_cluster_centroid_is_mean(self):
        pts = np.random.default_rng(0).standard_normal((7, 2))
        res = clustering.kmeans(pts, 1, seed=0)
        assert np.all(res.labels == 0)
        assert np.allclose(res.centroids[0], pts.mean(axis=0))

    def test_separated_clouds_recovered_exactly(self):
        rng = np.random.default_rng(1)
        a = rng.normal(0, 0.1, size=(12, 2))
        b = rng.normal(8, 0.1, size=(12, 2))
        pts = np.vstack([a, b])
        truth = np.r_[np.zeros(12), np.ones(12)]
        res = clustering.kmeans(pts, 2, seed=3)
        assert adjusted_rand_index(res.labels, truth) == 1.0

    def test_seed_determinism(self):
        pts = np.random.default_rng(2).standard_normal((30, 3))
        r1 = clustering.kmeans(pts, 4, seed=9)
        r2 = clustering.kmeans(pts, 4, seed=9)
        assert np.array_equal(r1.labels, r2.labels)
        assert np.array_equal(r1.centroids, r2.centroids)

    def test_every_cluster_nonempty(self):
        rng = np.random.default_rng(3)
        for seed in range(10):
            pts = rng.standard_normal((15, 2))
            res = clustering.kmeans(pts, 4, seed=seed)
            assert set(res.labels.tolist()) == {0, 1, 2, 3}

    def test_n_less_than_c(self):
        with pytest.raises(PreconditionError):
            clustering.kmeans(np.zeros((2, 2)), 3, seed=0)


class TestPipeline:
    def _embeddings(self, seed, n_half=15, dim=8, gap=6.0):
        rng = np.random.default_rng(seed)
        a = rng.normal(0, 1, size=(n_half, dim))
        b = rng.normal(gap, 1, size=(n_half, dim))
        return np.vstack([a, b]), np.r_[np.zeros(n_half), np.ones(n_half)]

    def test_planted_clusters_recovered(self):
        hits = 0
        for seed in range(10):
            z, truth = self._embeddings(seed)
            res = clustering.cluster_source_embeddings(z, c=2, seed=seed)
            if adjusted_rand_index(res.labels, truth) >= 0.9:
                hits += 1
        assert hits >= 9

    def test_single_cluster_all_zero_labels(self):
        z = np.random.default_rng(0).standard_normal((9, 4))
        res = clustering.cluster_source_embeddings(z, c=1, seed=0)
        assert np.all(res.labels == 0)

    def test_permutation_equivariance_up_to_relabeling(self):
        z, _ = self._embeddings(4)
        rng = np.random.default_rng(7)
        perm = rng.permutation(z.shape[0])
        base = clustering.cluster_source_embeddings(z, c=2, seed=5)
        permuted = clustering.cluster_source_embeddings(z[perm], c=2, seed=5)
        assert adjusted_rand_index(base.labels[perm], permuted.labels) == 1.0

    def test_labels_partition_subjects(self):
        z = np.random.default_rng(11).standard_normal((20, 5))
        res = clustering.cluster_source_embeddings(z, c=3, seed=2)
        assert res.labels.shape == (20,)
        assert np.all((res.labels >= 0) & (res.labels < 3))

    def test_needs_more_subjects_than_clusters(self):
        with pytest.raises(PreconditionError):
            clustering.cluster_source_embeddings(np.zeros((2, 3)), c=2, seed=0)
