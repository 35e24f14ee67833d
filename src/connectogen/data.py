"""Brain-graph data model: connectivity matrices, multigraph datasets, and IO.

A connectivity matrix is a symmetric nonnegative r-by-r float64 array with a
zero diagonal.  A population dataset stacks s subjects times v views of such
matrices plus the derived per-view feature matrices (vectorized strict upper
triangles, f = r(r-1)/2 features).

On-disk layout::

    <root>/manifest.txt          one subject id per line (UTF-8)
    <root>/view_<k>/<id>.csv     r lines of r comma-separated decimals

The writer emits 17 significant digits so float64 values round-trip exactly.
"""

from __future__ import annotations

import math
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


def vectorize_upper(weights, name: str = "matrix") -> np.ndarray:
    """Strict upper triangle in row-major order (row index ascending, then column)."""
    w = check_connectivity(weights, name)
    if w.ndim != 2:
        raise ValidationError(f"{name}: expected one square matrix, got shape {w.shape}")
    iu, ju = np.triu_indices(w.shape[0], k=1)
    return w[iu, ju].copy()


def devectorize(vec, r: int) -> np.ndarray:
    """Rebuild a symmetric zero-diagonal matrix, clamping negatives to zero."""
    v = np.asarray(vec, dtype=np.float64).ravel()
    f = feature_count(r)
    if v.size != f:
        raise DimensionError(f"devectorize: expected {f} values for r={r}, got {v.size}")
    v = np.maximum(v, 0.0)
    w = np.zeros((r, r))
    iu, ju = np.triu_indices(r, k=1)
    w[iu, ju] = v
    w[ju, iu] = v
    return w


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

    def matrix(self, subject: int, view: int) -> np.ndarray:
        return self.tensor[subject, view]

    def feature_matrix(self, view: int, subjects=None) -> np.ndarray:
        """Stack vectorized upper triangles of one view, (n, f)."""
        idx = range(self.s) if subjects is None else subjects
        iu, ju = np.triu_indices(self.r, k=1)
        return np.stack([self.tensor[i, view][iu, ju] for i in idx])

    def subset(self, subjects) -> "PopulationDataset":
        subjects = list(subjects)
        planted = None
        if self.planted_clusters is not None:
            planted = tuple(self.planted_clusters[i] for i in subjects)
        return PopulationDataset(
            subject_ids=tuple(self.subject_ids[i] for i in subjects),
            tensor=self.tensor[subjects].copy(),
            planted_clusters=planted,
        )


def _parse_matrix_csv(path: Path) -> np.ndarray:
    try:
        rows = []
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rows.append([float(cell) for cell in line.split(",")])
                except ValueError as exc:
                    raise IngestionError(f"{path}:{line_no}: unparsable value ({exc})") from exc
    except OSError as exc:
        raise IngestionError(f"{path}: cannot read ({exc})") from exc
    if not rows:
        raise IngestionError(f"{path}: empty matrix file")
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise IngestionError(f"{path}: ragged rows")
    arr = np.asarray(rows, dtype=np.float64)
    if arr.shape[0] != arr.shape[1]:
        raise IngestionError(f"{path}: matrix is {arr.shape[0]}x{arr.shape[1]}, expected square")
    return arr


def write_matrix_csv(path: Path, weights: np.ndarray) -> None:
    lines = [",".join(f"{x:.17g}" for x in row) for row in np.asarray(weights)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_dataset(root) -> PopulationDataset:
    """Load and fully validate a dataset directory."""
    root = Path(root)
    manifest = root / "manifest.txt"
    if not manifest.is_file():
        raise IngestionError(f"{manifest}: manifest not found")
    subject_ids = [line.strip() for line in manifest.read_text(encoding="utf-8").splitlines()
                   if line.strip()]
    if not subject_ids:
        raise IngestionError(f"{manifest}: no subjects listed")
    if len(set(subject_ids)) != len(subject_ids):
        raise IngestionError(f"{manifest}: duplicate subject ids")

    view_dirs = sorted(root.glob("view_*"), key=lambda p: p.name)
    indices = []
    for d in view_dirs:
        try:
            indices.append(int(d.name.split("_", 1)[1]))
        except ValueError:
            raise IngestionError(f"{d}: view directory name must be view_<index>")
    if sorted(indices) != list(range(len(indices))) or not indices:
        raise IngestionError(f"{root}: view directories must be view_0..view_{{v-1}}")
    v = len(indices)
    by_index = {int(d.name.split("_", 1)[1]): d for d in view_dirs}

    r = None
    matrices = []
    for sid in subject_ids:
        per_view = []
        for k in range(v):
            path = by_index[k] / f"{sid}.csv"
            if not path.is_file():
                raise IngestionError(f"{path}: missing matrix file")
            w = _parse_matrix_csv(path)
            try:
                w = check_connectivity(w, name=str(path))
            except ValidationError as exc:
                raise IngestionError(str(exc)) from exc
            if r is None:
                r = w.shape[0]
            elif w.shape[0] != r:
                raise IngestionError(f"{path}: {w.shape[0]} ROIs, expected {r}")
            per_view.append(w)
        matrices.append(per_view)

    return PopulationDataset(subject_ids=tuple(subject_ids), tensor=np.asarray(matrices))


def save_dataset(dataset: PopulationDataset, root) -> None:
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    (root / "manifest.txt").write_text(
        "\n".join(dataset.subject_ids) + "\n", encoding="utf-8")
    for k in range(dataset.v):
        view_dir = root / f"view_{k}"
        view_dir.mkdir(exist_ok=True)
        for i, sid in enumerate(dataset.subject_ids):
            write_matrix_csv(view_dir / f"{sid}.csv", dataset.tensor[i, k])


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


def simulate_population(s: int, r: int, v: int, clusters: int = 2,
                        separation: float = 4.0, noise: float = 0.1,
                        latent_dim: int = 8, seed: int = 0) -> PopulationDataset:
    """Synthetic multigraph population with planted subject clusters.

    Each subject draws a nonnegative latent vector from one of ``clusters``
    Gaussian modes; mode c concentrates its mass (scaled by ``separation``,
    in units of the unit within-cluster spread) on its own block of latent
    coordinates, so modes stay apart for every seed.  Every view applies
    its own nonnegative linear map plus Gaussian noise and an absolute
    value, then rescales so weights land in [0, ~1].  Latents and maps are
    nonnegative, so with noise=0 the absolute value is the identity and
    each view's feature matrix has rank <= latent_dim.
    """
    if s < 2 or r < 3 or v < 2 or clusters < 1:
        raise PreconditionError(
            f"need s>=2, r>=3, v>=2, clusters>=1 (got s={s}, r={r}, v={v}, clusters={clusters})")
    if separation < 0 or noise < 0 or latent_dim < 1:
        raise PreconditionError("separation/noise must be >= 0 and latent_dim >= 1")
    if clusters > latent_dim:
        raise PreconditionError(
            f"latent_dim={latent_dim} must be >= clusters={clusters} to plant modes")

    rng = np.random.default_rng(seed)
    f = feature_count(r)

    means = np.zeros((clusters, latent_dim))
    for c, block in enumerate(np.array_split(np.arange(latent_dim), clusters)):
        means[c, block] = separation * (0.5 + np.abs(rng.standard_normal(block.size)))
    maps = np.abs(rng.standard_normal((v, latent_dim, f))) / latent_dim
    labels = rng.integers(0, clusters, size=s)
    latents = np.abs(means[labels] + rng.standard_normal((s, latent_dim)))

    tensor = np.empty((s, v, r, r))
    iu, ju = np.triu_indices(r, k=1)
    for k in range(v):
        feats = np.abs(latents @ maps[k] + noise * rng.standard_normal((s, f)))
        feats /= 1.0 + separation
        for i in range(s):
            w = np.zeros((r, r))
            w[iu, ju] = feats[i]
            w[ju, iu] = feats[i]
            tensor[i, k] = w

    ids = tuple(f"subj{i:04d}" for i in range(s))
    return PopulationDataset(subject_ids=ids, tensor=tensor,
                             planted_clusters=tuple(int(x) for x in labels))
