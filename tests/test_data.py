import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
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

    def test_stack_matches_row_by_row(self):
        rng = np.random.default_rng(3)
        rows = rng.uniform(-0.5, 1.0, size=(2, 3, 10))  # negatives are clamped
        stack = data.devectorize(rows, 5)
        assert stack.shape == (2, 3, 5, 5)
        for i in range(2):
            for j in range(3):
                assert np.array_equal(stack[i, j], data.devectorize(rows[i, j], 5))
        with pytest.raises(DimensionError):
            data.devectorize(np.zeros((4, 9)), 5)

    def test_round_trip_100_random(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            r = int(rng.integers(3, 12))
            vec = rng.uniform(0, 2, size=r * (r - 1) // 2)
            w = data.devectorize(vec, r)
            assert np.array_equal(data.vectorize_upper(w), vec)
            assert np.array_equal(data.devectorize(data.vectorize_upper(w), r), w)

    @pytest.mark.parametrize("r", [1, 2, 3, 35, 116])
    @pytest.mark.parametrize("lead", [(), (4,), (2, 3)], ids=["row", "stack", "stack2d"])
    def test_gather_matches_clamped_scatter_bitwise(self, r, lead):
        # the gather equals relu then the oracle's scatter bit for bit: the
        # sign of -0.0 survives the clamp and NaN passes through it
        f = r * (r - 1) // 2
        rows = np.random.default_rng(r).uniform(-1.0, 1.0, size=lead + (f,))
        flat = rows.reshape(-1)
        flat[::3], flat[1::5], flat[2::7] = -0.0, 0.0, np.nan
        got = data.devectorize(rows, r)
        n = int(np.prod(lead, dtype=int))
        want = oracles.devectorize_rows(np.maximum(rows, 0.0).reshape(n, f), r)
        assert got.shape == lead + (r, r)
        assert got.tobytes() == want.reshape(lead + (r, r)).tobytes()

    def test_edge_index_is_memoized_and_read_only(self):
        upper, lower, source = data.edge_index(4)
        assert data.edge_index(4)[0] is upper
        assert upper.tolist() == [1, 2, 3, 6, 7, 11]
        assert lower.tolist() == [4, 8, 12, 9, 13, 14]
        assert np.array_equal(source[upper], np.arange(6))
        assert np.array_equal(source[lower], np.arange(6))
        for index in (upper, lower, source):
            with pytest.raises(ValueError):
                index[0] = 0


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

    def test_selected_views_only(self, tmp_path):
        # the unlisted view 0 is never read: its unparsable file goes unseen
        root = _write_dataset(tmp_path, ["s1", "s2"], views=3)
        full = data.load_dataset(root)
        (root / "view_0" / "s1.csv").write_text("zero\n")
        part = data.load_dataset(root, views=[2, 1])
        assert part.subject_ids == full.subject_ids
        assert np.array_equal(part.tensor, full.tensor[:, [2, 1]])
        with pytest.raises(IngestionError, match="s1.csv"):
            data.load_dataset(root, views=[1, 0])
        with pytest.raises(IngestionError, match="no view_3 directory"):
            data.load_dataset(root, views=[1, 3])

    @pytest.mark.parametrize("sid", ["../outside", "../../outside", "a/b", "/abs", ".", "..",
                                     "s\0x"])
    def test_subject_id_that_leaves_its_directory_is_rejected(self, tmp_path, sid):
        # "../outside" once read ds/outside.csv, beside the view directories
        root = _write_dataset(tmp_path, ["s1"], views=1)
        data.write_matrix_csv(root / "outside.csv", np.zeros((4, 4)))
        (root / "manifest.txt").write_text(f"s1\n{sid}\n")
        with pytest.raises(IngestionError, match="not a plain file name"):
            data.load_dataset(root)

    @pytest.mark.parametrize("name", ["view_+1", "view_ 1", "view_\u0661", "view_1.0", "view_"])
    @pytest.mark.parametrize("reader", [data.load_dataset, data._read_views],
                             ids=["load_dataset", "prediction_dir"])
    def test_view_index_is_ascii_digits(self, tmp_path, reader, name):
        # int() once read "view_+1", "view_ 1" and "view_<Arabic-Indic one>" as view 1
        root = _write_dataset(tmp_path, ["s1"], views=2)
        (root / "view_1").rename(root / name)
        with pytest.raises(IngestionError, match="view directory name must be view_<index>"):
            reader(root)

    @pytest.mark.parametrize("reader", [data.load_dataset, data._read_views],
                             ids=["load_dataset", "prediction_dir"])
    def test_two_directories_for_one_view(self, tmp_path, reader):
        root = _write_dataset(tmp_path, ["s1"], views=2)
        (root / "view_1").rename(root / "view_01")
        (root / "view_1").mkdir()
        with pytest.raises(IngestionError, match="a second directory for view 1"):
            reader(root)

    def test_save_load_round_trip(self, tmp_path):
        ds = data.simulate_population(s=5, r=6, v=3, seed=9)
        data.save_dataset(ds, tmp_path / "out")
        back = data.load_dataset(tmp_path / "out")
        assert back.subject_ids == ds.subject_ids
        assert np.array_equal(back.tensor, ds.tensor)


def _dataset_with_ids(ids):
    return data.PopulationDataset(subject_ids=tuple(ids), tensor=np.zeros((len(ids), 2, 3, 3)))


class TestSubjectIdRule:
    """One rule for reading and writing: an id is saved only if it loads back as itself."""

    @pytest.mark.parametrize("ids,message", [
        (("../escaped", "b"), "not a plain file name"),  # once wrote ds/escaped.csv
        (("a", "", "c"), "blank, padded or spans lines"),  # once loaded back as 2 subjects
        ((" a", "b"), "blank, padded or spans lines"),
        (("a\nx", "b"), "blank, padded or spans lines"),
        (("a", "a", "c"), "duplicate subject ids"),  # once overwrote a's files
        ((), "no subjects listed"),
    ], ids=["escapes", "blank", "padded", "line_break", "repeated", "none"])
    def test_writer_rejects_before_making_anything(self, tmp_path, ids, message):
        with pytest.raises(ValidationError, match=message):
            data.save_dataset(_dataset_with_ids(ids), tmp_path / "ds")
        assert not list(tmp_path.iterdir())

    @settings(max_examples=150, deadline=None, database=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.text(alphabet="a.- /\t\n\r\x0b\x1c\x85\u2028\0\u00fc", max_size=3),
                    max_size=3))
    @example(["a b", "x.y", "...", "-1", "\u00fc", "a\tb"])
    def test_saved_ids_load_back_as_themselves(self, tmp_path, ids):
        root = tmp_path / str(len(list(tmp_path.iterdir())))
        try:
            data.save_dataset(_dataset_with_ids(ids), root)
        except ValidationError:
            assert not root.exists()
        else:
            assert data.load_dataset(root).subject_ids == tuple(ids)


_SPECIALS = np.array([[-0.0, 5e-324, 2.2250738585072009e-308],
                      [1e308, -np.inf, 0.1], [np.inf, 1e-310, -1.7976931348623157e308]])


@settings(max_examples=200, deadline=None, database=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(hnp.arrays(np.float64, st.integers(1, 8).map(lambda r: (r, r)),
                  elements=st.floats(allow_nan=False)))
@example(_SPECIALS)
def test_matrix_csv_matches_oracles_and_round_trips_bitwise(tmp_path, w):
    assert data.format_matrix_csv(w) == oracles.format_matrix_csv_by_cell(w)
    path = tmp_path / "w.csv"
    data.write_matrix_csv(path, w)
    back = data._parse_matrix_csv(path)
    assert back.dtype == np.float64 and back.tobytes() == w.tobytes()


# (name, file text, expected: None for an array, else a fragment of the message)
_READER_CASES = [
    ("bad_cell_later_line", "0,1\n1,0\n0,x\n", ":3: unparsable value"),
    ("blank_line_before_bad_cell", "\n0,1\n\n1,x\n", ":4: unparsable value"),
    ("empty_cell", "0,1\n1,\n", ":2: unparsable value (could not convert string to float: '')"),
    ("trailing_comma", "0,1,\n1,0,\n", ":1: unparsable value"),
    ("ragged_rows", "0,1\n1\n", "ragged rows"),
    ("ragged_then_bad_cell", "0,1\n1\n2,y\n", ":3: unparsable value"),
    ("bad_cell_then_ragged", "0,z\n1\n", ":1: unparsable value"),
    ("blank_lines", "\n0,1\n\n  \n1,0\n\n", None),
    ("crlf", "0,1\r\n1,0\r\n", None),
    ("whitespace_around_cells", " 0 , 1\t\n\t1 ,0 \n", None),
    ("underscore_digits", "0,1_0\n1_0,0\n", None),
    ("non_ascii_digits", "0,\u0967\n\u0967,0\n", None),
    ("nan_and_inf", "nan,inf\n-inf,NaN\n", None),
    ("no_final_newline", "0,2.5\n2.5,0", None),
    ("empty_file", "", "empty matrix file"),
    ("blank_file", "\n \n\t\n", "empty matrix file"),
    ("non_square", "0,1,2\n1,0,2\n", "matrix is 2x3, expected square"),
    ("comment_line", "# comment\n0,1\n1,0\n", ":1: unparsable value"),
]


@pytest.mark.parametrize("text,expected", [c[1:] for c in _READER_CASES],
                         ids=[c[0] for c in _READER_CASES])
def test_reader_matches_line_by_line_oracle(tmp_path, text, expected):
    path = tmp_path / "m.csv"
    path.write_bytes(text.encode("utf-8"))
    try:
        want = oracles.parse_matrix_csv_by_line(path)
    except IngestionError as exc:
        assert expected is not None and expected in str(exc)
        with pytest.raises(IngestionError) as got:
            data._parse_matrix_csv(path)
        assert str(got.value) == str(exc)
    else:
        assert expected is None
        got = data._parse_matrix_csv(path)
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()


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


def test_feature_matrix_layout():
    # C-contiguous float64 rows equal to each subject's vectorize_upper, for
    # the whole view and for a chosen subset: downstream BLAS products round
    # by the array's layout as well as its values
    ds = data.simulate_population(s=6, r=7, v=3, seed=2)
    for view in range(ds.v):
        for subjects in (None, [4, 1, 3]):
            feats = ds.feature_matrix(view, subjects)
            chosen = range(ds.s) if subjects is None else subjects
            expected = np.stack([data.vectorize_upper(ds.tensor[i, view]) for i in chosen])
            assert feats.dtype == np.float64 and feats.flags.c_contiguous
            assert np.array_equal(feats, expected)


def test_subset_is_one_copy_of_the_chosen_subjects():
    ds = data.simulate_population(s=6, r=5, v=3, seed=2)
    subjects = [4, 1, 3]
    part = ds.subset(subjects)
    assert np.array_equal(part.tensor, ds.tensor[subjects])
    assert not np.shares_memory(part.tensor, ds.tensor)
    assert part.subject_ids == ("subj0004", "subj0001", "subj0003")


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
