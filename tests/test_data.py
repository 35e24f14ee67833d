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

    def test_nan_reported_before_infinity(self):
        # the infinite entry comes first in memory, the NaN message still wins
        w = np.array([[0, np.inf, 1.0], [np.inf, 0, np.nan], [1.0, np.nan, 0]])
        with pytest.raises(ValidationError, match="contains NaN entries"):
            data.check_connectivity(w)
        with pytest.raises(ValidationError, match="contains NaN entries"):
            data.check_connectivity(np.stack([np.where(np.isnan(w), 0.0, w), w]))

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


def _invalid(fault):
    """A 2-view dataset of subjects a and b that breaks the graph rule: in b's
    view 1, in every graph's shape, or with a third subject's graphs."""
    tensor = np.zeros((3 if fault == "extra_graph" else 2, 2, 3, 4 if fault == "non_square" else 3))
    w = tensor[1, 1]
    if fault in ("nan", "inf", "-inf", "negative"):
        w[0, 1] = w[1, 0] = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf, "negative": -1.0}[fault]
    elif fault == "asymmetric":
        w[0, 1] = 1.0
    elif fault == "diagonal":
        w[2, 2] = 1.0
    return data.PopulationDataset(subject_ids=("a", "b"), tensor=tensor)


@pytest.mark.parametrize("fault,message", [
    ("nan", "view_1/b.csv: contains NaN"),  # once saved, then refused by load_dataset
    ("inf", "view_1/b.csv: contains infinite"),
    ("-inf", "view_1/b.csv: contains infinite"),
    ("negative", "view_1/b.csv: negative weights"),
    ("asymmetric", "view_1/b.csv: not symmetric"),
    ("diagonal", "view_1/b.csv: diagonal must be zero"),
    ("non_square", "view_0/a.csv: expected a square matrix"),
    ("extra_graph", "view_0: 3 graphs for 2 subjects"),  # once wrote a.csv and b.csv first
])
def test_writer_rejects_invalid_graphs_before_making_anything(tmp_path, fault, message):
    with pytest.raises(ValidationError, match=message):
        data.save_dataset(_invalid(fault), tmp_path / "ds")
    assert not list(tmp_path.iterdir())


def _parses(monkeypatch):
    """The paths parsed as matrix CSVs from here on."""
    parsed = []
    real = data._parse_matrix_csv

    def counting(path):
        parsed.append(path)
        return real(path)

    monkeypatch.setattr(data, "_parse_matrix_csv", counting)
    return parsed


def _drop_values(root):
    for path in root.glob(f"view_*/{data.VALUES_FILE}"):
        path.unlink()


def _listing(root):
    return {path: path.stat().st_mtime_ns for path in root.rglob("*")}


# nonnegative entries, -0.0 and subnormals included; -0.0 may sit on the diagonal
_ENTRIES = st.sampled_from([-0.0, 0.0, 5e-324, 1e308]) | st.floats(0.0, 1e308)


@st.composite
def _valid_datasets(draw):
    r = draw(st.sampled_from([2, 3, 35]))
    s, v = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    upper = draw(hnp.arrays(np.float64, (s, v, data.feature_count(r)), elements=_ENTRIES))
    diagonal = draw(hnp.arrays(np.float64, (s, v, r), elements=st.sampled_from([0.0, -0.0])))
    iu, ju = np.triu_indices(r, k=1)
    tensor = np.zeros((s, v, r, r))
    tensor[..., iu, ju] = tensor[..., ju, iu] = upper
    tensor[..., np.arange(r), np.arange(r)] = diagonal
    return data.PopulationDataset(subject_ids=tuple(f"s{i}" for i in range(s)), tensor=tensor)


class TestValuesFile:
    """Each view's values file is derived data: a load reads it only when it
    matches the CSVs beside it, and otherwise parses them as if it were absent."""

    @settings(max_examples=40, deadline=None, database=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture,
                                     HealthCheck.data_too_large, HealthCheck.too_slow])
    @given(_valid_datasets())
    def test_stored_load_equals_parse_bit_for_bit(self, tmp_path, ds):
        root = tmp_path / str(len(list(tmp_path.iterdir())))
        written = data.save_dataset(ds, root)
        assert [p for p in written if p.name == data.VALUES_FILE] == [
            root / f"view_{k}" / data.VALUES_FILE for k in range(ds.v)]
        with pytest.MonkeyPatch.context() as mp:
            parsed = _parses(mp)
            stored = data.load_dataset(root).tensor
            assert parsed == []
            _drop_values(root)
            parsed_back = data.load_dataset(root).tensor
            assert len(parsed) == ds.s * ds.v
        assert stored.dtype == parsed_back.dtype == np.float64
        assert stored.flags.c_contiguous and stored.flags.writeable
        assert stored.tobytes() == parsed_back.tobytes() == ds.tensor.tobytes()

    def test_csv_edited_after_saving(self, tmp_path, monkeypatch):
        ds = data.simulate_population(s=3, r=5, v=2, seed=4)
        root = tmp_path / "ds"
        data.save_dataset(ds, root)
        path = root / "view_1" / "subj0002.csv"
        edited = ds.tensor[2, 1].copy()
        edited[0, 3] = edited[3, 0] = 0.25
        data.write_matrix_csv(path, edited)
        parsed = _parses(monkeypatch)
        back = data.load_dataset(root).tensor
        assert len(parsed) == ds.s * ds.v
        assert np.array_equal(back[2, 1], edited)
        assert np.array_equal(np.delete(back.reshape(6, 5, 5), 5, axis=0),
                              np.delete(ds.tensor.reshape(6, 5, 5), 5, axis=0))
        edited[0, 3] = edited[3, 0] = np.nan
        path.write_text(data.format_matrix_csv(edited))
        with pytest.raises(IngestionError, match="subj0002.csv: contains NaN entries"):
            data.load_dataset(root)

    @staticmethod
    def _patch_values(path, patch):
        raw = bytearray(path.read_bytes())
        path.write_bytes(bytes(patch(raw)))

    @pytest.mark.parametrize("miss", [
        "no_values_file", "one_view_without", "truncated", "wrong_magic", "wrong_version",
        "wrong_key", "wrong_s", "wrong_r", "invalid_values", "reordered_manifest",
        "missing_csv"])
    def test_any_miss_parses_with_the_same_result(self, tmp_path, monkeypatch, miss):
        ds = data.simulate_population(s=4, r=5, v=3, seed=5)
        root, plain = tmp_path / "ds", tmp_path / "plain"
        for where in (root, plain):
            data.save_dataset(ds, where)
        _drop_values(plain)
        values = root / "view_1" / data.VALUES_FILE
        header = len(data.VALUES_MAGIC) + 1
        if miss == "no_values_file":
            _drop_values(root)
        elif miss == "one_view_without":
            values.unlink()
        elif miss == "truncated":
            self._patch_values(values, lambda raw: raw[:-1])
        elif miss == "wrong_magic":
            self._patch_values(values, lambda raw: b"X" + raw[1:])
        elif miss == "wrong_version":
            self._patch_values(values, lambda raw: raw[:header - 1] + b"\x02" + raw[header:])
        elif miss == "wrong_key":
            self._patch_values(values, lambda raw: raw[:header] + bytes([raw[header] ^ 1])
                               + raw[header + 1:])
        elif miss in ("wrong_s", "wrong_r"):
            # a well-sized file for 5 subjects of 5 ROIs, or for 4 subjects of 4 ROIs
            s, r = (5, 5) if miss == "wrong_s" else (4, 4)
            self._patch_values(values, lambda raw: raw[:header + 32]
                               + np.array([s, r], "<u4").tobytes() + bytes(8 * s * r * r))
        elif miss == "invalid_values":
            # the key still matches the CSVs, but a stored entry is NaN
            self._patch_values(values, lambda raw: raw[:-16] + np.array(
                [np.nan], "<f8").tobytes() + raw[-8:])
        elif miss == "reordered_manifest":
            for where in (root, plain):
                (where / "manifest.txt").write_text("\n".join(reversed(ds.subject_ids)) + "\n")
        elif miss == "missing_csv":
            for where in (root, plain):
                (where / "view_2" / "subj0003.csv").unlink()
        parsed = _parses(monkeypatch)
        if miss == "missing_csv":
            with pytest.raises(IngestionError) as want:
                data.load_dataset(plain)
            with pytest.raises(IngestionError) as got:
                data.load_dataset(root)
            assert str(got.value) == str(want.value).replace(str(plain), str(root))
            return
        want = data.load_dataset(plain)
        del parsed[:]
        got = data.load_dataset(root)
        assert len(parsed) == ds.s * ds.v
        assert got.subject_ids == want.subject_ids
        assert got.tensor.tobytes() == want.tensor.tobytes()

    def test_directory_without_values_files_loads_as_before(self, tmp_path, monkeypatch):
        # the layout as written before values files existed
        root = _write_dataset(tmp_path, ["s1", "s2"], views=3)
        assert not list(root.glob(f"view_*/{data.VALUES_FILE}"))
        parsed = _parses(monkeypatch)
        ds = data.load_dataset(root)
        assert len(parsed) == 6 and (ds.s, ds.v, ds.r) == (2, 3, 4)
        assert np.array_equal(ds.tensor[1, 2], data.read_matrix_csv(root / "view_2" / "s2.csv"))

    def test_reads_and_hashes_only_the_requested_views(self, tmp_path, monkeypatch):
        ds = data.simulate_population(s=3, r=4, v=4, seed=6)
        root = tmp_path / "ds"
        data.save_dataset(ds, root)
        reads = []
        real = data._read_bytes

        def counting(path):
            reads.append(path.relative_to(root).as_posix())
            return real(path)

        monkeypatch.setattr(data, "_read_bytes", counting)
        part = data.load_dataset(root, views=[3, 1])
        assert part.tensor.tobytes() == np.ascontiguousarray(ds.tensor[:, [3, 1]]).tobytes()
        # the manifest, each requested view's values file, then each subject's
        # CSVs in the order the parse loop reads them
        assert reads == (["manifest.txt", f"view_3/{data.VALUES_FILE}",
                          f"view_1/{data.VALUES_FILE}"]
                         + [f"view_{k}/{sid}.csv" for sid in ds.subject_ids for k in (3, 1)])

    @pytest.mark.parametrize("stale", [False, True], ids=["stored", "stale"])
    def test_a_load_writes_nothing(self, tmp_path, stale):
        ds = data.simulate_population(s=3, r=4, v=2, seed=7)
        root = tmp_path / "ds"
        data.save_dataset(ds, root)
        if stale:
            data.write_matrix_csv(root / "view_0" / "subj0001.csv", np.zeros((4, 4)))
        before = _listing(root)
        data.load_dataset(root)
        data._read_views(root, views=[1])
        assert _listing(root) == before


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
    ("cr_line_ends", "0,1\r1,0\r", None),
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
    # C-contiguous float64 rows equal to each subject's vectorize_upper:
    # downstream BLAS products round by the array's layout as well as its values
    ds = data.simulate_population(s=6, r=7, v=3, seed=2)
    for view in range(ds.v):
        feats = ds.feature_matrix(view)
        expected = np.stack([data.vectorize_upper(ds.tensor[i, view]) for i in range(ds.s)])
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
        # 30 subjects, 45 features, but only 8 latent coordinates
        ds = data.simulate_population(s=30, r=10, v=2, clusters=1, noise=0.0, seed=3)
        feats = ds.feature_matrix(0)
        assert np.linalg.matrix_rank(feats, tol=1e-9) <= 8

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
