"""Evaluation protocol: graph MAE, topology-score MAE, KL divergence,
two-tailed paired t-tests, and report emission.

Graph MAE averages absolute differences over strict upper-triangular
entries (symmetric matrices would only double-count).  KL divergence
discretizes both score samples on their joint range with epsilon-smoothed
histogram bins and uses natural logs, direction KL(real || predicted).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import topology
from .errors import DimensionError, PreconditionError

METRIC_ORDER = ("cc", "bc", "ec", "pc", "eff", "clst")
MAE_COLUMNS = ("mae", "mae_cc", "mae_bc", "mae_ec", "mae_pc", "mae_eff", "mae_clst")


@dataclass(frozen=True)
class HistogramSpec:
    bins: int = 32
    epsilon: float = 1e-9

    def __post_init__(self):
        if self.bins < 2:
            raise PreconditionError("bins must be >= 2")
        if self.epsilon <= 0:
            raise PreconditionError("epsilon must be > 0")


def _upper(values: np.ndarray) -> np.ndarray:
    r = values.shape[0]
    iu, ju = np.triu_indices(r, k=1)
    return values[iu, ju]


def mae_graphs(real, pred) -> float:
    """Mean over subjects of mean absolute upper-triangular difference."""
    real, pred = list(real), list(pred)
    if len(real) != len(pred):
        raise DimensionError(f"{len(real)} real vs {len(pred)} predicted graphs")
    if not real:
        raise PreconditionError("no graphs to compare")
    total = 0.0
    for a, b in zip(real, pred):
        a, b = np.asarray(a), np.asarray(b)
        if a.shape != b.shape:
            raise DimensionError(f"graph shapes differ: {a.shape} vs {b.shape}")
        total += float(np.abs(_upper(a) - _upper(b)).mean())
    return total / len(real)


def mae_topology(real, pred, metric: str, interp: str = topology.DISTANCE) -> float:
    """Mean absolute difference between per-node centrality matrices."""
    x_real = topology.centrality_matrix(real, metric, interp)
    x_pred = topology.centrality_matrix(pred, metric, interp)
    if x_real.shape != x_pred.shape:
        raise DimensionError(f"centrality shapes differ: {x_real.shape} vs {x_pred.shape}")
    return float(np.abs(x_real - x_pred).mean())


def kl_divergence(real_scores, pred_scores, spec: HistogramSpec = HistogramSpec()) -> float:
    """KL(real || predicted) between epsilon-smoothed histograms (natural log)."""
    real = np.asarray(real_scores, dtype=np.float64).ravel()
    pred = np.asarray(pred_scores, dtype=np.float64).ravel()
    if real.size == 0 or pred.size == 0:
        raise PreconditionError("score lists must be nonempty")
    lo = min(real.min(), pred.min())
    hi = max(real.max(), pred.max())
    if hi == lo:
        hi = lo + 1.0  # all mass lands in one shared bin either way
    edges = np.linspace(lo, hi, spec.bins + 1)
    p = np.histogram(real, bins=edges)[0].astype(np.float64) + spec.epsilon
    q = np.histogram(pred, bins=edges)[0].astype(np.float64) + spec.epsilon
    p /= p.sum()
    q /= q.sum()
    return float(np.sum(p * np.log(p / q)))


def _betacf(a: float, b: float, x: float, tol: float = 1e-10) -> float:
    """Continued fraction for the regularized incomplete beta (Lentz)."""
    tiny = 1e-30
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 400):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < tol:
            break
    return h


def _betainc(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log(1.0 - x))
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def paired_ttest(a, b) -> tuple[float, float]:
    """Two-tailed paired t-test; p from the Student-t CDF via incomplete beta.

    Zero-variance differences give p=1 when the mean difference is zero and
    p=0 otherwise.
    """
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.size != b.size:
        raise DimensionError(f"paired samples differ in length: {a.size} vs {b.size}")
    if a.size < 2:
        raise PreconditionError("paired t-test needs at least 2 pairs")
    d = a - b
    m = d.size
    sd = float(d.std(ddof=1))
    mean = float(d.mean())
    if sd == 0.0:
        if mean == 0.0:
            return 0.0, 1.0
        return math.copysign(math.inf, mean), 0.0
    t = mean / (sd / math.sqrt(m))
    dof = m - 1
    p = _betainc(dof / 2.0, 0.5, dof / (dof + t * t))
    return t, p


@dataclass
class EvaluationReport:
    """Per-target-view metric grid plus averaged summary rows."""

    view_labels: list[str]
    mae: np.ndarray  # (k, 7) columns per MAE_COLUMNS
    mae_avg: np.ndarray  # (7,)
    kl: np.ndarray  # (k, 6) columns per METRIC_ORDER
    kl_avg: np.ndarray  # (6,)
    p_values: np.ndarray | None = None  # (k, 7) vs a baseline run


def subject_graph_maes(pred: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """(k, m) per-subject graph MAEs, for paired significance tests."""
    m, _, _, k = pred.shape
    out = np.empty((k, m))
    for i in range(k):
        for s in range(m):
            out[i, s] = np.abs(_upper(truth[s, :, :, i]) - _upper(pred[s, :, :, i])).mean()
    return out


def centrality_table(tensor: np.ndarray, metric: str,
                     interp: str = topology.DISTANCE) -> np.ndarray:
    """(k, m, r) centralities of every graph of an (m, r, r, k) tensor."""
    m, r, _, k = tensor.shape
    graphs = np.moveaxis(tensor, -1, 0).reshape(k * m, r, r)
    return topology.centrality_matrix(graphs, metric, interp).reshape(k, m, r)


def _subject_maes(real: np.ndarray, pred: np.ndarray) -> np.ndarray:
    """(k, m) per-subject mean absolute differences between two (k, m, r) tables."""
    return np.abs(real - pred).mean(axis=2)


def subject_metric_maes(pred: np.ndarray, truth: np.ndarray, metric: str,
                        interp: str = topology.DISTANCE) -> np.ndarray:
    """(k, m) per-subject centrality MAEs for one metric."""
    return _subject_maes(centrality_table(truth, metric, interp),
                         centrality_table(pred, metric, interp))


def evaluate(pred: np.ndarray, truth: np.ndarray, interp: str = topology.DISTANCE,
             hist: HistogramSpec = HistogramSpec(),
             view_labels: list[str] | None = None,
             baseline: np.ndarray | None = None) -> EvaluationReport:
    """Fill the full per-view MAE and KL tables for (m, r, r, k) tensors.

    With a ``baseline`` prediction tensor, the report also carries two-tailed
    paired t-test p-values of the per-subject MAEs, ours against the
    baseline's.  Each graph's centralities are computed once per metric.
    """
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape or pred.ndim != 4:
        raise DimensionError(
            f"prediction {pred.shape} and truth {truth.shape} must be equal (m, r, r, k)")
    if baseline is not None:
        baseline = np.asarray(baseline, dtype=np.float64)
        if baseline.shape != truth.shape:
            raise DimensionError(
                f"baseline {baseline.shape} and truth {truth.shape} must be equal (m, r, r, k)")
    m, _, _, k = pred.shape
    if m == 0 or k == 0:
        raise PreconditionError("need at least one subject and one target view")
    labels = view_labels if view_labels is not None else [str(i + 1) for i in range(k)]

    mae = np.empty((k, len(MAE_COLUMNS)))
    kl = np.empty((k, len(METRIC_ORDER)))
    for i in range(k):
        mae[i, 0] = mae_graphs(truth[..., i], pred[..., i])
    p_values = None
    if baseline is not None:
        p_values = np.empty_like(mae)
        ours = subject_graph_maes(pred, truth)
        base = subject_graph_maes(baseline, truth)
        for i in range(k):
            p_values[i, 0] = paired_ttest(ours[i], base[i])[1]

    for col, metric in enumerate(METRIC_ORDER, start=1):
        x_real = centrality_table(truth, metric, interp)
        x_pred = centrality_table(pred, metric, interp)
        mae[:, col] = np.abs(x_real - x_pred).reshape(k, -1).mean(axis=1)
        for i in range(k):
            kl[i, col - 1] = kl_divergence(x_real[i].ravel(), x_pred[i].ravel(), hist)
        if baseline is not None:
            ours = _subject_maes(x_real, x_pred)
            base = _subject_maes(x_real, centrality_table(baseline, metric, interp))
            for i in range(k):
                p_values[i, col] = paired_ttest(ours[i], base[i])[1]

    return EvaluationReport(view_labels=list(labels), mae=mae, mae_avg=mae.mean(axis=0),
                            kl=kl, kl_avg=kl.mean(axis=0), p_values=p_values)


def report_csv(report: EvaluationReport) -> str:
    lines = ["view," + ",".join(MAE_COLUMNS)]
    for label, row in zip(report.view_labels, report.mae):
        lines.append(label + "," + ",".join(f"{x:.17g}" for x in row))
    lines.append("avg," + ",".join(f"{x:.17g}" for x in report.mae_avg))
    return "\n".join(lines) + "\n"


def kl_csv(report: EvaluationReport) -> str:
    lines = ["view," + ",".join(f"kl_{m}" for m in METRIC_ORDER)]
    for label, row in zip(report.view_labels, report.kl):
        lines.append(label + "," + ",".join(f"{x:.17g}" for x in row))
    lines.append("avg," + ",".join(f"{x:.17g}" for x in report.kl_avg))
    return "\n".join(lines) + "\n"


def pvalues_csv(report: EvaluationReport) -> str:
    if report.p_values is None:
        raise PreconditionError("report carries no p-values")
    lines = ["view," + ",".join(f"p_{c}" for c in MAE_COLUMNS)]
    for label, row in zip(report.view_labels, report.p_values):
        lines.append(label + "," + ",".join(f"{x:.17g}" for x in row))
    return "\n".join(lines) + "\n"


def report_markdown(report: EvaluationReport) -> str:
    def table(header, labels, rows, avg):
        out = ["| view | " + " | ".join(header) + " |",
               "|" + "---|" * (len(header) + 1)]
        for label, row in zip(labels, rows):
            out.append("| " + label + " | " + " | ".join(f"{x:.6g}" for x in row) + " |")
        if avg is not None:
            out.append("| avg | " + " | ".join(f"{x:.6g}" for x in avg) + " |")
        return "\n".join(out)

    parts = ["## Mean absolute error",
             table(MAE_COLUMNS, report.view_labels, report.mae, report.mae_avg),
             "", "## KL divergence (real || predicted)",
             table([f"kl_{m}" for m in METRIC_ORDER], report.view_labels,
                   report.kl, report.kl_avg)]
    if report.p_values is not None:
        parts += ["", "## Paired t-test p-values vs baseline",
                  table([f"p_{c}" for c in MAE_COLUMNS], report.view_labels,
                        report.p_values, None)]
    return "\n".join(parts) + "\n"


def parse_report_csv(text: str) -> tuple[list[str], np.ndarray]:
    """Parse a report CSV back into (labels, value matrix) for round-trips."""
    lines = [ln for ln in text.strip().splitlines() if ln]
    header = lines[0].split(",")
    if header[0] != "view":
        raise PreconditionError("not a report CSV: first column must be 'view'")
    labels, rows = [], []
    for line in lines[1:]:
        cells = line.split(",")
        labels.append(cells[0])
        rows.append([float(c) for c in cells[1:]])
    return labels, np.asarray(rows)
