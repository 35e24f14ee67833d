import numpy as np
import pytest

from connectogen import data
from connectogen.errors import DimensionError, IngestionError, PreconditionError, ValidationError


class TestVectorize:
    def test_traversal_order_r3(self):
        a, b, c = 0.3, 0.7, 0.2
        w = np.array([[0, a, b], [a, 0, c], [b, c, 0]])
        assert np.array_equal(data.vectorize_upper(w), [a, b, c])

    def test_length_for_r35(self):
        w = np.zeros((35, 35))
        assert data.vectorize_upper(w).size == 595

    def test_asymmetric_rejected(self):
        w = np.array([[0, 1.0], [2.0, 0]])
        with pytest.raises(ValidationError, match="not symmetric"):
            data.vectorize_upper(w)

    def test_negative_rejected(self):
        w = np.array([[0, -1.0], [-1.0, 0]])
        with pytest.raises(ValidationError, match="negative"):
            data.vectorize_upper(w)

    def test_nan_rejected(self):
        w = np.array([[0, np.nan], [np.nan, 0]])
        with pytest.raises(ValidationError, match="NaN"):
            data.vectorize_upper(w)

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_infinite_rejected(self, value):
        # an infinite weight once gave NaN effective sizes and a zero-length
        # "inverse" edge instead of an error
        w = np.array([[0, value, 1.0], [value, 0, 1.0], [1.0, 1.0, 0]])
        with pytest.raises(ValidationError, match="infinite"):
            data.check_connectivity(w)
        with pytest.raises(ValidationError, match="infinite"):
            data.check_connectivity(np.stack([np.zeros((3, 3)), w]))

    def test_stack_accepted_by_check_but_not_by_vectorize(self):
        stack = np.zeros((2, 3, 3))
        assert data.check_connectivity(stack).shape == (2, 3, 3)
        with pytest.raises(ValidationError, match="one square matrix"):
            data.vectorize_upper(stack)


class TestDevectorize:
    def test_inverse_of_vectorize_r3(self):
        assert np.array_equal(
            data.devectorize([0.3, 0.7, 0.2], 3),
            [[0, 0.3, 0.7], [0.3, 0, 0.2], [0.7, 0.2, 0]])

    def test_zero_vector(self):
        assert np.array_equal(data.devectorize(np.zeros(3), 3), np.zeros((3, 3)))

    def test_negative_entries_clamped(self):
        w = data.devectorize([-0.2, 0.5, 0.1], 3)
        assert w[0, 1] == 0.0 and w[1, 0] == 0.0
        assert w[0, 2] == 0.5

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            data.devectorize([1.0, 2.0], 3)

    def test_round_trip_100_random(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            r = int(rng.integers(3, 12))
            vec = rng.uniform(0, 2, size=r * (r - 1) // 2)
            w = data.devectorize(vec, r)
            assert np.array_equal(data.vectorize_upper(w), vec)
            assert np.array_equal(data.devectorize(data.vectorize_upper(w), r), w)


def _write_dataset(tmp_path, subjects, views, r=4, mutate=None):
    rng = np.random.default_rng(1)
    root = tmp_path / "ds"
    root.mkdir()
    (root / "manifest.txt").write_text("\n".join(subjects) + "\n")
    for k in range(views):
        d = root / f"view_{k}"
        d.mkdir()
        for sid in subjects:
            w = data.devectorize(rng.uniform(0, 1, size=r * (r - 1) // 2), r)
            if mutate:
                w = mutate(sid, k, w)
            data.write_matrix_csv(d / f"{sid}.csv", w)
    return root


class TestLoadDataset:
    def test_small_fixture(self, tmp_path):
        root = _write_dataset(tmp_path, ["s1", "s2"], views=2)
        ds = data.load_dataset(root)
        assert (ds.s, ds.v, ds.r, ds.f) == (2, 2, 4, 6)
        assert ds.subject_ids == ("s1", "s2")

    def test_asymmetric_matrix_fails(self, tmp_path):
        root = _write_dataset(tmp_path, ["s1"], views=1)
        path = root / "view_0" / "s1.csv"
        w = np.zeros((4, 4))
        w[0, 1] = 1.0  # symmetric counterpart missing
        lines = [",".join(str(x) for x in row) for row in w]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(IngestionError, match="s1.csv"):
            data.load_dataset(root)

    def test_wrong_row_count_fails(self, tmp_path):
        root = _write_dataset(tmp_path, ["s1"], views=1)
        (root / "view_0" / "s1.csv").write_text("0,1\n1,0\n0,0\n")
        with pytest.raises(IngestionError):
            data.load_dataset(root)

    def test_nan_entry_names_file(self, tmp_path):
        root = _write_dataset(tmp_path, ["s1"], views=1)
        (root / "view_0" / "s1.csv").write_text("0,nan\nnan,0\n")
        with pytest.raises(IngestionError, match="s1.csv"):
            data.load_dataset(root)

    def test_missing_file(self, tmp_path):
        root = _write_dataset(tmp_path, ["s1", "s2"], views=2)
        (root / "view_1" / "s2.csv").unlink()
        with pytest.raises(IngestionError, match="s2.csv"):
            data.load_dataset(root)

    def test_mismatched_r_across_views(self, tmp_path):
        root = _write_dataset(tmp_path, ["s1"], views=2)
        data.write_matrix_csv(root / "view_1" / "s1.csv", np.zeros((5, 5)))
        with pytest.raises(IngestionError, match="ROIs"):
            data.load_dataset(root)

    def test_save_load_round_trip(self, tmp_path):
        ds = data.simulate_population(s=5, r=6, v=3, seed=9)
        data.save_dataset(ds, tmp_path / "out")
        back = data.load_dataset(tmp_path / "out")
        assert back.subject_ids == ds.subject_ids
        assert np.array_equal(back.tensor, ds.tensor)


class TestSplits:
    def test_paper_sizes_310(self):
        ds = data.simulate_population(s=310, r=4, v=2, seed=0)
        train, test = data.ratio_split(ds, 0.9, seed=3)
        assert train.size == 279 and test.size == 31
        assert set(train).isdisjoint(test)

    def test_kfold_even(self):
        ds = data.simulate_population(s=6, r=4, v=2, seed=0)
        folds = data.kfold_split(ds, 3, seed=1)
        assert [f.size for f in folds] == [2, 2, 2]
        merged = np.concatenate(folds)
        assert sorted(merged.tolist()) == list(range(6))

    def test_split_determinism(self):
        ds = data.simulate_population(s=20, r=4, v=2, seed=0)
        a = data.ratio_split(ds, 0.8, seed=7)
        b = data.ratio_split(ds, 0.8, seed=7)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_kfold_disjoint_union_random(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            s = int(rng.integers(5, 40))
            folds_n = int(rng.integers(2, min(s, 6)))
            ds = data.simulate_population(s=s, r=4, v=2, seed=0)
            folds = data.kfold_split(ds, folds_n, seed=int(rng.integers(1000)))
            merged = sorted(np.concatenate(folds).tolist())
            assert merged == list(range(s))

    def test_too_many_folds(self):
        ds = data.simulate_population(s=3, r=4, v=2, seed=0)
        with pytest.raises(PreconditionError):
            data.kfold_split(ds, 4, seed=0)

    def test_bad_fraction(self):
        ds = data.simulate_population(s=4, r=4, v=2, seed=0)
        with pytest.raises(PreconditionError):
            data.ratio_split(ds, 1.0, seed=0)


class TestSimulator:
    def test_dims_and_validity(self):
        ds = data.simulate_population(s=12, r=35, v=6, clusters=2, seed=7)
        assert (ds.s, ds.v, ds.r, ds.f, ds.k) == (12, 6, 35, 595, 5)
        for i in range(ds.s):
            for k in range(ds.v):
                data.check_connectivity(ds.tensor[i, k])

    def test_noiseless_single_cluster_rank(self):
        ds = data.simulate_population(s=30, r=10, v=2, clusters=1, noise=0.0,
                                      latent_dim=4, seed=3)
        feats = ds.feature_matrix(0)
        assert np.linalg.matrix_rank(feats, tol=1e-9) <= 4

    def test_seed_determinism(self):
        a = data.simulate_population(s=8, r=6, v=3, seed=11)
        b = data.simulate_population(s=8, r=6, v=3, seed=11)
        assert np.array_equal(a.tensor, b.tensor)
        c = data.simulate_population(s=8, r=6, v=3, seed=12)
        assert not np.array_equal(a.tensor, c.tensor)

    def test_invalid_params(self):
        with pytest.raises(PreconditionError):
            data.simulate_population(s=1, r=6, v=3)
        with pytest.raises(PreconditionError):
            data.simulate_population(s=5, r=2, v=3)
        with pytest.raises(PreconditionError):
            data.simulate_population(s=5, r=6, v=1)

    def test_weights_bounded_scale(self):
        ds = data.simulate_population(s=20, r=8, v=2, separation=6.0, seed=0)
        assert ds.tensor.max() < 3.0  # [0, ~1] by construction
