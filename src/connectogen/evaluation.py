"""Evaluation protocol: graph MAE, topology-score MAE, KL divergence,
two-tailed paired t-tests, and report emission.

Graph MAE averages absolute differences over strict upper-triangular
entries (symmetric matrices would only double-count), first per subject,
then over subjects.  KL divergence discretizes both score samples on their
joint range with epsilon-smoothed histogram bins and uses natural logs,
direction KL(real || predicted).

:func:`evaluate` is array code over whole stacks: one
:func:`topology.centralities` pass over truth, prediction and baseline
stacked together, one KL pass over every (view, metric) cell, and graph
MAEs as expressions over the (view, subject) grid.  The public single-case
functions (:func:`mae_graphs`, :func:`subject_graph_maes`,
:func:`kl_divergence`) run on the same code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import topology
from .data import edge_index
from .errors import DimensionError, PreconditionError

METRIC_ORDER = ("cc", "bc", "ec", "pc", "eff", "clst")
MAE_COLUMNS = ("mae", "mae_cc", "mae_bc", "mae_ec", "mae_pc", "mae_eff", "mae_clst")
# KL histograms: bins over each sample pair's joint range, and the count
# added to every bin before normalizing
_KL_BINS = 32
_KL_EPSILON = 1e-9


def _upper_maes(real: np.ndarray, pred: np.ndarray) -> np.ndarray:
    """Mean absolute upper-triangular difference of each graph pair of two
    equal (..., r, r) stacks, as (...)."""
    r = real.shape[-1]
    upper = edge_index(r)[0]

    def entries(graphs):
        # np.take leaves each graph's entries contiguous, so every mean sums
        # them in the order one graph's mean would
        return np.take(graphs.reshape(graphs.shape[:-2] + (r * r,)), upper, axis=-1)

    return np.abs(entries(real) - entries(pred)).mean(axis=-1)


def _mean_in_order(values: np.ndarray) -> np.ndarray:
    """Mean over the last axis, summed left to right."""
    return np.cumsum(values, axis=-1)[..., -1] / values.shape[-1]


def mae_graphs(real, pred) -> float:
    """Mean over subjects of mean absolute upper-triangular difference."""
    real, pred = list(real), list(pred)
    if len(real) != len(pred):
        raise DimensionError(f"{len(real)} real vs {len(pred)} predicted graphs")
    if not real:
        raise PreconditionError("no graphs to compare")
    try:
        real, pred = np.asarray(real), np.asarray(pred)
    except ValueError:
        raise DimensionError("the graphs of one comparison must share one shape") from None
    if real.shape != pred.shape:
        raise DimensionError(f"graph shapes differ: {real.shape[1:]} vs {pred.shape[1:]}")
    return float(_mean_in_order(_upper_maes(real, pred)))


def _kl_rows(real: np.ndarray, pred: np.ndarray) -> np.ndarray:
    """KL(real || predicted) of each row pair of (n, a) and (n, b) samples.

    Each row pair is binned on its own joint range, with the counts
    ``np.histogram`` gives for the edges ``np.linspace`` gives: a sample x
    falls in the bin whose left edge is the last edge <= x, and the last bin
    also holds its right edge.
    """
    lo = np.minimum(real.min(axis=1), pred.min(axis=1))
    hi = np.maximum(real.max(axis=1), pred.max(axis=1))
    hi = np.where(hi == lo, lo + 1.0, hi)  # all mass lands in one shared bin either way
    bins = _KL_BINS
    # the left edges of the bins, by np.linspace's arithmetic row by row
    delta = (hi - lo)[:, None]
    step = delta / bins
    ramp = np.arange(float(bins))
    left = np.where(step == 0, ramp / bins * delta, ramp * step) + lo[:, None]

    def smoothed(samples):
        index = (samples[:, :, None] >= left[:, None, :]).sum(axis=2) - 1
        index += np.arange(len(samples))[:, None] * bins
        counts = np.bincount(index.ravel(), minlength=len(samples) * bins)
        hist = counts.reshape(len(samples), bins) + _KL_EPSILON
        hist /= hist.sum(axis=1, keepdims=True)
        return hist

    p, q = smoothed(real), smoothed(pred)
    return (p * np.log(p / q)).sum(axis=1)


def kl_divergence(real_scores, pred_scores) -> float:
    """KL(real || predicted) between epsilon-smoothed histograms (natural log)."""
    real = np.asarray(real_scores, dtype=np.float64).ravel()
    pred = np.asarray(pred_scores, dtype=np.float64).ravel()
    if real.size == 0 or pred.size == 0:
        raise PreconditionError("score lists must be nonempty")
    return float(_kl_rows(real[None], pred[None])[0])


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
    return _upper_maes(np.moveaxis(truth, -1, 0), np.moveaxis(pred, -1, 0))


def _graph_stack(tensor: np.ndarray) -> np.ndarray:
    """The graphs of an (m, r, r, k) tensor as a (k * m, r, r) stack, view-major."""
    m, r, _, k = tensor.shape
    return np.moveaxis(tensor, -1, 0).reshape(k * m, r, r)


def evaluate(pred: np.ndarray, truth: np.ndarray, interp: str = topology.DISTANCE,
             view_labels: list[str] | None = None,
             baseline: np.ndarray | None = None) -> EvaluationReport:
    """Fill the full per-view MAE and KL tables for (m, r, r, k) tensors.

    With a ``baseline`` prediction tensor, the report also carries two-tailed
    paired t-test p-values of the per-subject MAEs, ours against the
    baseline's.  All six centralities come from one pass over truth,
    prediction and baseline stacked together.
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
    m, r, _, k = pred.shape
    if m == 0 or k == 0:
        raise PreconditionError("need at least one subject and one target view")
    labels = view_labels if view_labels is not None else [str(i + 1) for i in range(k)]

    runs = [pred] + ([baseline] if baseline is not None else [])
    scores = topology.centralities(_graph_stack(np.concatenate([truth] + runs)), interp)
    # (metric, view, run, subject, node); run 0 is the truth
    tables = np.stack([scores[metric].reshape(k, len(runs) + 1, m, r)
                       for metric in METRIC_ORDER])
    x_real, x_pred = tables[:, :, 0], tables[:, :, 1]
    graph_maes = [subject_graph_maes(run, truth) for run in runs]

    mae = np.empty((k, len(MAE_COLUMNS)))
    mae[:, 0] = _mean_in_order(graph_maes[0])
    mae[:, 1:] = np.abs(x_real - x_pred).reshape(len(METRIC_ORDER), k, -1).mean(axis=2).T
    kl = np.empty((k, len(METRIC_ORDER)))
    kl[:] = _kl_rows(x_real.reshape(-1, m * r),
                     x_pred.reshape(-1, m * r)).reshape(len(METRIC_ORDER), k).T

    p_values = None
    if baseline is not None:
        # (column of MAE_COLUMNS, view, subject) per-subject MAEs of each run
        ours, base = (np.concatenate([graph_maes[j][None],
                                      np.abs(x_real - tables[:, :, j + 1]).mean(axis=3)])
                      for j in range(2))
        p_values = np.array([[paired_ttest(ours[col, i], base[col, i])[1]
                              for col in range(len(MAE_COLUMNS))] for i in range(k)])

    return EvaluationReport(view_labels=list(labels), mae=mae, mae_avg=mae.mean(axis=0),
                            kl=kl, kl_avg=kl.mean(axis=0), p_values=p_values)


def _table_csv(header, labels, rows, avg=None) -> str:
    """A CSV with a ``view`` column, one ``%.17g`` row per label and an
    ``avg`` row when ``avg`` is given."""
    if avg is not None:
        labels, rows = [*labels, "avg"], [*rows, avg]
    lines = ["view," + ",".join(header)]
    lines += [label + "," + ",".join(f"{x:.17g}" for x in row) for label, row in zip(labels, rows)]
    return "\n".join(lines) + "\n"


def report_csv(report: EvaluationReport) -> str:
    return _table_csv(MAE_COLUMNS, report.view_labels, report.mae, report.mae_avg)


def kl_csv(report: EvaluationReport) -> str:
    return _table_csv([f"kl_{m}" for m in METRIC_ORDER], report.view_labels,
                      report.kl, report.kl_avg)


def pvalues_csv(report: EvaluationReport) -> str:
    if report.p_values is None:
        raise PreconditionError("report carries no p-values")
    return _table_csv([f"p_{c}" for c in MAE_COLUMNS], report.view_labels, report.p_values)


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

