"""Brain-graph data model: connectivity matrices, multigraph datasets, and IO.

A connectivity matrix is a symmetric nonnegative r-by-r float64 array with a
zero diagonal.  A population dataset stacks s subjects times v views of such
matrices plus the derived per-view feature matrices (vectorized strict upper
triangles, f = r(r-1)/2 features), whose layout only :func:`edge_index` knows.

On-disk layout of a multigraph directory::

    <root>/manifest.txt          one subject id per line (UTF-8)
    <root>/view_<k>/<id>.csv     r lines of r comma-separated decimals
    <root>/view_<k>/values.bin   the view's parsed values (derived, optional)

A dataset holds view_0..view_{v-1}; a prediction directory holds only the
target views.  This module is the layout's one owner: :func:`_write_views`
writes every such directory and :func:`_read_views` reads every one, and
both keep one subject-id rule (:func:`_check_subject_ids`) and one graph
rule (:func:`check_connectivity`).  Every file connectogen writes goes
through :func:`_write_atomic`: a fresh temporary name beside the target,
then a rename into place.

The values file holds one view's (s, r, r) float64 values, little-endian:
``VALUES_MAGIC``, a version byte, a 32-byte key, u32 s and r, then the
values in manifest order.  The key is the SHA-256, over the manifest's
subjects in order, of each subject id (UTF-8) and of the exact bytes of
its CSV, each prefixed by its length as a u64.  A reader uses the stored
values only when every requested view has a well-formed values file for
the manifest's subject count, every key matches the CSV bytes on disk and
the stacked values pass :func:`check_connectivity`; on any miss it parses
every CSV as if no values file existed, so results and errors never depend
on it, and deleting it is always safe.  Readers never write one.

Every matrix CSV (dataset views, predictions, the ``metrics`` graph) goes
through one reader and one formatter, each a single bulk call per file.  The reader converts all
cells with one ``np.array(rows, dtype=np.float64)``; numpy applies
``float`` to each cell, so the accepted syntax is Python's: surrounding
whitespace, ``1_0``, non-ASCII digits, ``nan`` and ``inf`` all load.
Blank lines are skipped; ``#`` lines are not comments.  The formatter
fills one ``%.17g`` template per matrix, so float64 values round-trip
exactly.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DimensionError, IngestionError, PreconditionError, ValidationError


def feature_count(r: int) -> int:
    return r * (r - 1) // 2


def check_connectivity(weights, name: str = "matrix") -> np.ndarray:
    """Validate and return a connectivity matrix, or an (n, r, r) stack of them, as float64."""
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim not in (2, 3) or w.shape[-1] != w.shape[-2]:
        raise ValidationError(
            f"{name}: expected a square matrix or a stack of them, got shape {w.shape}")
    if np.isnan(w).any():
        raise ValidationError(f"{name}: contains NaN entries")
    if np.isinf(w).any():
        raise ValidationError(f"{name}: contains infinite entries")
    if not np.array_equal(w, np.swapaxes(w, -1, -2)):
        raise ValidationError(f"{name}: not symmetric")
    if np.any(np.diagonal(w, axis1=-2, axis2=-1) != 0):
        raise ValidationError(f"{name}: diagonal must be zero")
    if np.any(w < 0):
        raise ValidationError(f"{name}: negative weights")
    return w


@functools.lru_cache(maxsize=8)
def edge_index(r: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only indices between feature rows and flattened r-node graphs.

    Feature k is the k-th pair i < j of the strict upper triangle in
    row-major order.  Returns each feature's flat indices i*r+j and j*r+i,
    and the feature each of the r*r entries reads (0 on the diagonal).
    """
    iu, ju = np.triu_indices(r, k=1)
    upper, lower = iu * r + ju, ju * r + iu
    source = np.zeros(r * r, dtype=np.intp)
    source[upper] = source[lower] = np.arange(len(upper))
    for index in (upper, lower, source):
        index.flags.writeable = False
    return upper, lower, source


def vectorize_upper(weights, name: str = "matrix") -> np.ndarray:
    """Strict upper triangle in :func:`edge_index` order."""
    w = check_connectivity(weights, name)
    if w.ndim != 2:
        raise ValidationError(f"{name}: expected one square matrix, got shape {w.shape}")
    return np.take(w, edge_index(w.shape[0])[0])


def devectorize(vec, r: int) -> np.ndarray:
    """Rebuild a symmetric zero-diagonal matrix, clamping negatives to zero.

    ``vec`` holds f = r(r-1)/2 values, or is a stack (..., f) of such rows;
    the result is (r, r), or (..., r, r) for a stack.
    """
    v = np.asarray(vec, dtype=np.float64)
    f = feature_count(r)
    if v.ndim == 0 or v.shape[-1] != f:
        raise DimensionError(f"devectorize: expected {f} values for r={r}, got {v.shape}")
    if r < 2:  # no features: numpy takes nothing from an empty axis
        return np.zeros(v.shape[:-1] + (r, r))
    flat = np.take(v, edge_index(r)[2], axis=-1)
    np.maximum(flat, 0.0, out=flat)
    flat[..., ::r + 1] = 0.0
    return flat.reshape(v.shape[:-1] + (r, r))


@dataclass(frozen=True)
class PopulationDataset:
    """s subjects times v views of validated connectivity matrices."""

    subject_ids: tuple[str, ...]
    tensor: np.ndarray  # (s, v, r, r)
    planted_clusters: tuple[int, ...] | None = None  # simulator metadata only

    @property
    def s(self) -> int:
        return self.tensor.shape[0]

    @property
    def v(self) -> int:
        return self.tensor.shape[1]

    @property
    def r(self) -> int:
        return self.tensor.shape[2]

    @property
    def k(self) -> int:
        return self.v - 1

    @property
    def f(self) -> int:
        return feature_count(self.r)

    def feature_matrix(self, view: int) -> np.ndarray:
        """Stack vectorized upper triangles of one view, (s, f)."""
        graphs = self.tensor[:, view]
        return np.take(graphs.reshape(len(graphs), -1), edge_index(self.r)[0], axis=1)

    def subset(self, subjects) -> "PopulationDataset":
        subjects = list(subjects)
        planted = None
        if self.planted_clusters is not None:
            planted = tuple(self.planted_clusters[i] for i in subjects)
        return PopulationDataset(
            subject_ids=tuple(self.subject_ids[i] for i in subjects),
            tensor=self.tensor[subjects],  # advanced indexing copies
            planted_clusters=planted,
        )


def _read_bytes(path: Path) -> bytes:
    """A file's bytes; a file that cannot be read is an IngestionError.  Every
    file this module reads (manifest, matrix CSV, values file) is opened here."""
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise IngestionError(f"{path}: cannot read ({exc})") from exc


def _read_text(path: Path) -> str:
    """A file's UTF-8 text, CRLF and CR line ends read as LF (as text-mode
    ``open`` reads them); a file that cannot be read or decoded is an
    IngestionError."""
    try:
        text = _read_bytes(path).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise IngestionError(f"{path}: not UTF-8 text ({exc})") from exc
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _check_subject_ids(ids, where, error) -> None:
    """The one subject-id rule, for reading and writing alike: at least one id,
    none repeated, and each reads back from a manifest as itself, as its file
    name: nonempty, no surrounding whitespace, no line break, and a plain file
    name (not ``.`` or ``..``, no ``/`` or NUL).  A fault raises ``error``."""
    if not ids:
        raise error(f"{where}: no subjects listed")
    if len(set(ids)) != len(ids):
        raise error(f"{where}: duplicate subject ids")
    for sid in ids:
        if sid.splitlines() != [sid] or sid != sid.strip():
            raise error(f"{where}: subject id {sid!r} is blank, padded or spans lines")
        if "/" in sid or "\0" in sid or sid in (".", ".."):
            raise error(f"{where}: subject id {sid!r} is not a plain file name")


def read_manifest(root: Path) -> list[str]:
    """The subject ids that ``<root>/manifest.txt`` lists, one per non-blank
    line, stripped; a missing or unreadable manifest, or ids that break
    :func:`_check_subject_ids`, is an IngestionError."""
    manifest = Path(root) / "manifest.txt"
    if not manifest.is_file():
        raise IngestionError(f"{manifest}: manifest not found")
    ids = [line.strip() for line in _read_text(manifest).splitlines() if line.strip()]
    _check_subject_ids(ids, manifest, IngestionError)
    return ids


def _parse_matrix_csv(path: Path) -> np.ndarray:
    """Parse one matrix CSV into a square float64 array; any fault is an IngestionError.

    Only when the bulk conversion fails are the lines converted again one at
    a time, to name the first unparsable line; an unparsable value wins over
    ragged rows.
    """
    lines = _read_text(path).split("\n")
    rows = [line.split(",") for line in map(str.strip, lines) if line]
    if not rows:
        raise IngestionError(f"{path}: empty matrix file")
    try:
        arr = np.array(rows, dtype=np.float64)
    except ValueError:
        for line_no, line in enumerate(map(str.strip, lines), 1):
            try:
                if line:
                    list(map(float, line.split(",")))
            except ValueError as exc:
                raise IngestionError(f"{path}:{line_no}: unparsable value ({exc})") from exc
        raise IngestionError(f"{path}: ragged rows") from None
    if arr.shape[0] != arr.shape[1]:
        raise IngestionError(f"{path}: matrix is {arr.shape[0]}x{arr.shape[1]}, expected square")
    return arr


def read_matrix_csv(path: Path) -> np.ndarray:
    """Parse and validate one connectivity CSV; any fault is an IngestionError."""
    try:
        return check_connectivity(_parse_matrix_csv(path), name=str(path))
    except ValidationError as exc:
        raise IngestionError(str(exc)) from exc


def format_matrix_csv(weights: np.ndarray) -> str:
    """One line per row of comma-separated ``%.17g`` cells, each line ending in a newline."""
    w = np.asarray(weights, dtype=np.float64)
    rows, cols = w.shape
    return ((",".join(["%.17g"] * cols) + "\n") * rows) % tuple(w.ravel().tolist())


def _write_atomic(path, payload: bytes | str) -> None:
    """Write ``payload`` (a str as UTF-8) to ``path`` through a fresh temporary
    file beside it, renamed into place; missing parent directories are made.
    The file gets the mode a plain ``open`` gives, 0666 less the umask."""
    path = Path(path)
    if isinstance(payload, str):
        payload = payload.encode("utf-8")
    tmp = path.with_name(f"{path.name}.{os.urandom(6).hex()}.tmp")
    try:
        fh = open(tmp, "xb")
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_matrix_csv(path: Path, weights: np.ndarray) -> bytes:
    """Write a 2-D matrix as UTF-8 :func:`format_matrix_csv` text, float64
    round-tripping exactly; returns the bytes written."""
    payload = format_matrix_csv(weights).encode("utf-8")
    _write_atomic(path, payload)
    return payload


def view_index(view_dir: Path) -> int:
    """The index of a ``view_<index>`` directory, whose index is ASCII digits;
    any other name is an IngestionError."""
    suffix = view_dir.name[len("view_"):]
    if not (suffix.isascii() and suffix.isdigit()):
        raise IngestionError(f"{view_dir}: view directory name must be view_<index>")
    return int(suffix)


def _view_dirs(root: Path) -> dict[int, Path]:
    """The ``view_<index>`` directories under ``root``, by index; none, or two
    for one index, is an IngestionError."""
    by_index = {}
    for view_dir in sorted(root.glob("view_*")):
        k = view_index(view_dir)
        if k in by_index:
            raise IngestionError(f"{view_dir}: a second directory for view {k}")
        by_index[k] = view_dir
    if not by_index:
        raise IngestionError(f"{root}: no view_* directories")
    return by_index


def view_directories(root) -> dict[int, Path]:
    """The ``view_<index>`` directories of a dataset, by index; anything but
    view_0..view_{v-1} with v >= 1 is an IngestionError.  Reads no matrix."""
    by_index = _view_dirs(Path(root))
    if sorted(by_index) != list(range(len(by_index))):
        raise IngestionError(f"{root}: view directories must be view_0..view_{{v-1}}")
    return by_index


VALUES_FILE = "values.bin"
VALUES_MAGIC = b"CGVAL"
VALUES_VERSION = 1
_VALUES_PREFIX = VALUES_MAGIC + struct.pack("<B", VALUES_VERSION)
_VALUES_HEADER = len(_VALUES_PREFIX) + 32 + 8  # then the key, and u32 s and r


def _key_update(digest, sid: str, csv: bytes) -> None:
    """Add one subject's id and CSV bytes, each length-prefixed, to a view's key."""
    name = sid.encode("utf-8")
    digest.update(struct.pack("<Q", len(name)) + name + struct.pack("<Q", len(csv)))
    digest.update(csv)


def _pack_values(key: bytes, graphs: np.ndarray) -> bytes:
    s, r, _ = graphs.shape
    header = _VALUES_PREFIX + key + struct.pack("<2I", s, r)
    return header + np.ascontiguousarray(graphs, dtype="<f8").tobytes()


def _unpack_values(raw: bytes, s: int):
    """A values file's key and (s, r, r) values, or None unless it is
    well-formed for ``s`` subjects of at least one ROI."""
    if len(raw) < _VALUES_HEADER or not raw.startswith(_VALUES_PREFIX):
        return None
    key = raw[len(_VALUES_PREFIX):_VALUES_HEADER - 8]
    stored_s, r = struct.unpack_from("<2I", raw, _VALUES_HEADER - 8)
    if stored_s != s or r < 1 or len(raw) != _VALUES_HEADER + 8 * s * r * r:
        return None
    return key, np.frombuffer(raw, dtype="<f8", offset=_VALUES_HEADER).reshape(s, r, r)


def _stored_views(subject_ids, view_dirs):
    """The (s, n, r, r) graphs stored in ``view_dirs``' values files, or None
    on any miss: a missing or malformed values file, a CSV that is missing,
    unreadable or changed since the values were written, or values that
    fail :func:`check_connectivity`.  CSVs are read subject by subject, as
    the parse loop reads them, and only hashed."""
    if not view_dirs:
        return None
    stored = []
    for view_dir in view_dirs:
        try:
            entry = _unpack_values(_read_bytes(view_dir / VALUES_FILE), len(subject_ids))
        except IngestionError:
            return None
        if entry is None or (stored and entry[1].shape != stored[0][1].shape):
            return None
        stored.append(entry)
    digests = [hashlib.sha256() for _ in view_dirs]
    for sid in subject_ids:
        for digest, view_dir in zip(digests, view_dirs):
            try:
                _key_update(digest, sid, _read_bytes(view_dir / f"{sid}.csv"))
            except IngestionError:
                return None
    if any(digest.digest() != key for digest, (key, _) in zip(digests, stored)):
        return None
    graphs = np.stack([values for _, values in stored], axis=1, dtype=np.float64)
    try:
        check_connectivity(graphs.reshape(-1, *graphs.shape[2:]))
    except ValidationError:
        return None
    return graphs


def _read_views(root, views=None, find_views=_view_dirs):
    """Read and fully validate a multigraph directory.

    Returns the subject ids, the view indices read and their (s, n, r, r)
    graphs.  ``find_views(root)`` lists the view directories by index;
    ``views``, a list of indices, reads only those, in that order, and an
    index with no directory is an IngestionError.  Any other fault (a
    missing, unreadable or invalid file, graphs of different sizes) is one
    too.  The graphs come from the views' values files when every one
    matches its CSVs, and from parsing every CSV otherwise.
    """
    root = Path(root)
    subject_ids = read_manifest(root)
    by_index = find_views(root)
    views = sorted(by_index) if views is None else list(views)
    for k in views:
        if k not in by_index:
            raise IngestionError(f"{root}: no view_{k} directory")
    stored = _stored_views(subject_ids, [by_index[k] for k in views])
    if stored is not None:
        return subject_ids, views, stored

    r = None
    matrices = []
    for sid in subject_ids:
        per_view = []
        for k in views:
            path = by_index[k] / f"{sid}.csv"
            if not path.is_file():
                raise IngestionError(f"{path}: missing matrix file")
            w = read_matrix_csv(path)
            if r is None:
                r = w.shape[0]
            elif w.shape[0] != r:
                raise IngestionError(f"{path}: {w.shape[0]} ROIs, expected {r}")
            per_view.append(w)
        matrices.append(per_view)
    return subject_ids, views, np.asarray(matrices)


def _write_views(root, subject_ids, views: dict[int, np.ndarray]) -> list[Path]:
    """Write a multigraph directory: the manifest, then for each ``{view
    index: (s, r, r) graphs}`` entry one CSV per subject and the view's
    values file.  The ids and graphs are checked before anything is made;
    an invalid graph is a ValidationError naming the file it would be.
    Returns the written paths, sorted."""
    root = Path(root)
    manifest = root / "manifest.txt"
    _check_subject_ids(subject_ids, manifest, ValidationError)
    for k, graphs in views.items():
        if len(graphs) != len(subject_ids):
            raise ValidationError(
                f"{root / f'view_{k}'}: {len(graphs)} graphs for {len(subject_ids)} subjects")
        try:
            check_connectivity(graphs)
        except ValidationError:
            for sid, w in zip(subject_ids, graphs):
                check_connectivity(w, name=str(root / f"view_{k}" / f"{sid}.csv"))
            raise
    _write_atomic(manifest, "\n".join(subject_ids) + "\n")
    written = [manifest]
    for k, graphs in views.items():
        digest = hashlib.sha256()
        for sid, w in zip(subject_ids, graphs, strict=True):
            path = root / f"view_{k}" / f"{sid}.csv"
            _key_update(digest, sid, write_matrix_csv(path, w))
            written.append(path)
        path = root / f"view_{k}" / VALUES_FILE
        _write_atomic(path, _pack_values(digest.digest(), graphs))
        written.append(path)
    return sorted(written)


def load_dataset(root, views=None) -> PopulationDataset:
    """Load and fully validate a dataset directory, whose views must be
    view_0..view_{v-1}.

    ``views``, a list of view indices, reads only those views' matrices;
    the result's view axis then holds them in that order.  An index with
    no view directory is an IngestionError.
    """
    subject_ids, _, tensor = _read_views(root, views, view_directories)
    return PopulationDataset(subject_ids=tuple(subject_ids), tensor=tensor)


def save_dataset(dataset: PopulationDataset, root) -> list[Path]:
    """Write a dataset directory; returns the written paths, sorted.  Subject
    ids that would not read back as themselves, and graphs that
    :func:`check_connectivity` refuses, are a ValidationError, raised before
    anything is written."""
    return _write_views(root, dataset.subject_ids,
                        {k: dataset.tensor[:, k] for k in range(dataset.v)})


def ratio_split(dataset: PopulationDataset, train_frac: float, seed: int):
    """Deterministic shuffled split; train size is floor(train_frac * s)."""
    if not 0.0 < train_frac < 1.0:
        raise PreconditionError(f"train_frac must be in (0, 1), got {train_frac}")
    if dataset.s < 2:
        raise PreconditionError("need at least 2 subjects to split")
    order = np.random.default_rng(seed).permutation(dataset.s)
    n_train = int(math.floor(train_frac * dataset.s))
    n_train = min(max(n_train, 1), dataset.s - 1)
    return np.sort(order[:n_train]), np.sort(order[n_train:])


def kfold_split(dataset: PopulationDataset, folds: int, seed: int):
    """Disjoint near-equal folds covering all subjects, shuffled by seed."""
    if folds < 2:
        raise PreconditionError(f"folds must be >= 2, got {folds}")
    if folds > dataset.s:
        raise PreconditionError(f"folds={folds} exceeds subject count {dataset.s}")
    order = np.random.default_rng(seed).permutation(dataset.s)
    return [np.sort(part) for part in np.array_split(order, folds)]


_LATENT_DIM = 8  # the simulator's latent width


def simulate_population(s: int, r: int, v: int, clusters: int = 2,
                        separation: float = 4.0, noise: float = 0.1,
                        seed: int = 0) -> PopulationDataset:
    """Synthetic multigraph population with planted subject clusters.

    Each subject draws a nonnegative latent vector from one of ``clusters``
    Gaussian modes; mode c concentrates its mass (scaled by ``separation``,
    in units of the unit within-cluster spread) on its own block of latent
    coordinates, so modes stay apart for every seed.  Every view applies
    its own nonnegative linear map plus Gaussian noise and an absolute
    value, then rescales so weights land in [0, ~1].  Latents and maps are
    nonnegative, so with noise=0 the absolute value is the identity and
    each view's feature matrix has rank <= 8, the latent width.
    """
    if s < 2 or r < 3 or v < 2 or clusters < 1:
        raise PreconditionError(
            f"need s>=2, r>=3, v>=2, clusters>=1 (got s={s}, r={r}, v={v}, clusters={clusters})")
    if separation < 0 or noise < 0:
        raise PreconditionError("separation/noise must be >= 0")
    if clusters > _LATENT_DIM:
        raise PreconditionError(
            f"clusters={clusters} exceeds the {_LATENT_DIM} latent coordinates that plant modes")

    rng = np.random.default_rng(seed)
    f = feature_count(r)

    means = np.zeros((clusters, _LATENT_DIM))
    for c, block in enumerate(np.array_split(np.arange(_LATENT_DIM), clusters)):
        means[c, block] = separation * (0.5 + np.abs(rng.standard_normal(block.size)))
    maps = np.abs(rng.standard_normal((v, _LATENT_DIM, f))) / _LATENT_DIM
    labels = rng.integers(0, clusters, size=s)
    latents = np.abs(means[labels] + rng.standard_normal((s, _LATENT_DIM)))

    feats = np.stack([np.abs(latents @ maps[k] + noise * rng.standard_normal((s, f)))
                      for k in range(v)], axis=1)
    tensor = devectorize(feats / (1.0 + separation), r)

    ids = tuple(f"subj{i:04d}" for i in range(s))
    return PopulationDataset(subject_ids=ids, tensor=tensor,
                             planted_clusters=tuple(int(x) for x in labels))
