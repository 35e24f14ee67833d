"""The benchmark's workloads: one round of each, and the checks on its outputs.

A round makes its inputs from the seed, runs the workload's operations
through connectogen's public API (train workloads) or its CLI, in this
process (paper_evaluate), and checks what they return.  Rounds of one run
repeat the same inputs, so their outputs must agree byte for byte.

Functions are looked up on the ``connectogen`` modules at call time, so the
traced run sees the wrappers that ``tracing.install`` puts there.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import connectogen as cg
from connectogen import cli

VIEWS = 6
CLUSTERS = 2
SOURCE_VIEW = 0
TRAIN_FRAC = 0.9


@dataclass(frozen=True)
class Scale:
    subjects: int
    rois: int
    iterations: int  # per train() call; for paper_evaluate, of the short CLI train
    eval_subjects: int = 0  # held-out subjects that paper_evaluate scores


SCALES = {
    "paper_train": Scale(subjects=120, rois=35, iterations=20),
    # s=40 rather than 120 keeps an iteration near 2 s (5.4 s at s=120) and
    # peak RSS near 0.6 GB (1.3 GB), at the same row width f=6670
    "aal_train": Scale(subjects=40, rois=116, iterations=7),
    # a 54-subject training set keeps set-up short; the timed work depends
    # only on the scored subjects
    "paper_evaluate": Scale(subjects=60, rois=35, iterations=2, eval_subjects=2),
}
# plain evaluate calls per round, for more than one op_s sample per round
PLAIN_EVALUATES = 2
SMOKE_SCALES = {
    "paper_train": Scale(subjects=24, rois=8, iterations=2),
    "aal_train": Scale(subjects=24, rois=8, iterations=2),
    "paper_evaluate": Scale(subjects=24, rois=8, iterations=2, eval_subjects=3),
}


Span = tuple  # (perf_counter start, end[, weight]); the weight defaults to 1


@dataclass
class Round:
    setup: list[list[Span]]  # set-up samples, each the sum of its spans
    ops: list[Span]  # unit operations: training iterations or plain CLI evaluate calls
    work: list[Span]  # the round's timed work: train(), or both CLI evaluate calls
    mae_ratio: float
    extra: dict  # further per-round seconds (name -> spans), reported but not gated
    fingerprint: bytes  # outputs that every round of a run must reproduce exactly


@dataclass
class Session:
    """Operations attempted and failed in one benchmark run, and its tracer."""

    work: Path
    tracer: object = None
    attempted: int = 0
    failed: set = field(default_factory=set)
    errors: list = field(default_factory=list)
    bytes_written: int = 0

    def run(self, name: str, fn, *args):
        """Call ``fn(*args)`` as one operation; return its result and its span."""
        self.attempted += 1
        span = contextlib.nullcontext()
        if self.tracer is not None:
            self.tracer.begin_operation()
            span = self.tracer.span(name)
        with span:
            start = time.perf_counter()
            try:
                result = fn(*args)
            except Exception:
                self.failed.add(self.attempted)
                raise
            end = time.perf_counter()
        return result, (start, end)

    def check(self, ok: bool, message: str) -> None:
        """Fail the latest operation unless ``ok``."""
        if not ok:
            self.failed.add(self.attempted)
            self.errors.append(message)


# ---------------------------------------------------------------------------
# checks

def check_trace_losses(session: Session, losses: np.ndarray, what: str) -> None:
    session.check(losses.size > 0 and bool(np.all(np.isfinite(losses))),
                  f"{what}: non-finite or missing training losses")


def check_prediction(session: Session, pred: np.ndarray, shape: tuple, what: str) -> None:
    if pred.shape != shape:
        session.check(False, f"{what}: shape {pred.shape}, expected {shape}")
        return
    diag = np.diagonal(pred, axis1=1, axis2=2)
    for ok, message in (
            (np.all(np.isfinite(pred)), "non-finite entries"),
            (np.array_equal(pred, pred.transpose(0, 2, 1, 3)), "not symmetric"),
            (np.all(diag == 0), "nonzero diagonal"),
            (np.all(pred >= 0), "negative entries")):
        session.check(bool(ok), f"{what}: {message}")


def check_against_networkx(session: Session, graphs: list[np.ndarray]) -> None:
    """Closeness and betweenness (weights as distances) must match networkx."""
    import networkx as nx

    for idx, w in enumerate(graphs):
        r = w.shape[0]
        g = nx.Graph()
        g.add_nodes_from(range(r))
        iu, ju = np.nonzero(np.triu(w, k=1) > 0)
        g.add_weighted_edges_from((int(i), int(j), float(w[i, j])) for i, j in zip(iu, ju))
        expected = {
            "closeness": nx.closeness_centrality(g, distance="weight"),
            "betweenness": nx.betweenness_centrality(g, weight="weight", normalized=True),
        }
        for name, ref in expected.items():
            ours = getattr(cg.topology, name)(w)
            gap = float(np.max(np.abs(ours - np.array([ref[i] for i in range(r)]))))
            session.check(gap <= 1e-9, f"graph {idx}: {name} differs from networkx by {gap:.3g}")


def graph_mae(pred: np.ndarray, truth: np.ndarray) -> float:
    """Mean over target views of ``mae_graphs`` for (m, r, r, k) tensors."""
    k = truth.shape[-1]
    return float(np.mean([cg.mae_graphs(list(truth[..., i]), list(pred[..., i]))
                          for i in range(k)]))


def _targets(dataset) -> np.ndarray:
    views = [v for v in range(dataset.v) if v != SOURCE_VIEW]
    return np.stack([dataset.tensor[:, v] for v in views], axis=-1)


def _population(scale: Scale, seed: int):
    dataset = cg.simulate_population(s=scale.subjects, r=scale.rois, v=VIEWS,
                                     clusters=CLUSTERS, seed=seed)
    train_idx, test_idx = cg.ratio_split(dataset, TRAIN_FRAC, seed)
    return dataset.subset(train_idx), test_idx, dataset


# ---------------------------------------------------------------------------
# train workloads: paper_train, aal_train

def train_round(session: Session, scale: Scale, seed: int, first: bool) -> Round:
    start = time.perf_counter()
    train_set, test_idx, dataset = _population(scale, seed)
    test_set = dataset.subset(test_idx)
    prepare = (start, time.perf_counter())

    cfg = cg.TrainingConfig(iterations=scale.iterations, clusters=CLUSTERS, seed=seed)
    (untrained, _), untrained_span = session.run(
        "bench.train_untrained", cg.train, train_set, SOURCE_VIEW, replace(cfg, iterations=0))
    (bundle, trace), train_span = session.run(
        "bench.train", cg.train, train_set, SOURCE_VIEW, cfg)
    walls = np.array([rec.wall_time for rec in trace.records])
    losses = np.array([[rec.l_d, rec.l_adv, rec.l_gp, rec.l_gdc, rec.l_g, rec.l_top, rec.l_inf]
                       for rec in trace.records])
    check_trace_losses(session, losses, "train")

    truth = _targets(test_set)
    features = test_set.feature_matrix(SOURCE_VIEW)
    pred, _ = session.run("bench.predict", cg.predict_multigraph, bundle, features)
    check_prediction(session, pred, truth.shape, "trained prediction")
    base, _ = session.run("bench.predict_untrained", cg.predict_multigraph, untrained, features)
    check_prediction(session, base, truth.shape, "untrained prediction")
    ratio = graph_mae(pred, truth) / graph_mae(base, truth)

    # train() starts its iteration clock right after its pre-loop set-up
    loop_start = train_span[1] - walls[-1]
    ticks = loop_start + np.concatenate([[0.0], walls])
    return Round(
        setup=[[prepare, untrained_span], [prepare, (train_span[0], loop_start)]],
        ops=list(zip(ticks[:-1], ticks[1:])),
        work=[train_span],
        mae_ratio=ratio,
        extra={},
        fingerprint=trace.to_csv().encode() + pred.tobytes())


# ---------------------------------------------------------------------------
# paper_evaluate

def _cli(session: Session, manifest: Path, *argv: str) -> Span:
    def call():
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(list(argv))
        if code != 0:
            raise RuntimeError(f"connectogen {' '.join(argv)} exited with {code}")

    _, span = session.run(f"cli.{argv[0]}", call)
    if session.tracer is not None:
        listed = json.loads(manifest.read_text(encoding="utf-8"))["outputs"]
        session.bytes_written += manifest.stat().st_size + sum(
            Path(entry["path"]).stat().st_size for entry in listed)
    return span


def _load_predictions(root: Path, ids, views: list[int]) -> np.ndarray:
    return np.stack([np.stack([np.loadtxt(root / f"view_{v}" / f"{sid}.csv", delimiter=",",
                                          ndmin=2) for v in views], axis=-1) for sid in ids])


def _csv_values(path: Path) -> np.ndarray:
    rows = path.read_text(encoding="utf-8").strip().splitlines()[1:]
    return np.array([[float(cell) for cell in row.split(",")[1:]] for row in rows])


def evaluate_round(session: Session, scale: Scale, seed: int, first: bool) -> Round:
    work = session.work
    shutil.rmtree(work, ignore_errors=True)
    start = time.perf_counter()
    train_set, test_idx, dataset = _population(scale, seed)
    test_set = dataset.subset(test_idx[:scale.eval_subjects])
    cg.save_dataset(train_set, work / "train")
    cg.save_dataset(test_set, work / "test")
    common = ["--source-view", str(SOURCE_VIEW), "--seed", str(seed)]
    for name, iterations in (("untrained", 0), ("trained", scale.iterations)):
        model = work / f"{name}.model"
        _cli(session, work / f"{name}.model.run.json", "train", "--data", str(work / "train"),
             "--out", str(model), "--iterations", str(iterations), *common)
        _cli(session, work / f"pred_{name}" / "run_manifest.json", "predict",
             "--model", str(model), "--data", str(work / "test"),
             "--source-view", str(SOURCE_VIEW), "--out", str(work / f"pred_{name}"))
    setup = (start, time.perf_counter())

    pred_dir, base_dir = work / "pred_trained", work / "pred_untrained"
    plain = [_cli(session, work / "report.run.json", "evaluate", "--pred", str(pred_dir),
                  "--truth", str(work / "test"), "--out", str(work / "report"))
             for _ in range(PLAIN_EVALUATES)]
    baseline = _cli(session, work / "paired.run.json", "evaluate", "--pred", str(pred_dir),
                    "--truth", str(work / "test"), "--baseline", str(base_dir),
                    "--out", str(work / "paired"))

    trace_csv = work / "trained.model.trace.csv"
    check_trace_losses(session, _csv_values(trace_csv), "cli train")
    truth = _targets(test_set)
    views = [v for v in range(VIEWS) if v != SOURCE_VIEW]
    pred = _load_predictions(pred_dir, test_set.subject_ids, views)
    base = _load_predictions(base_dir, test_set.subject_ids, views)
    check_prediction(session, pred, truth.shape, "trained prediction")
    check_prediction(session, base, truth.shape, "untrained prediction")
    reports = [work / name for name in ("report.csv", "report_kl.csv", "paired.csv",
                                        "paired_kl.csv", "paired_pvalues.csv")]
    for path in reports:
        session.check(bool(np.all(np.isfinite(_csv_values(path)))), f"{path.name}: non-finite")
    if first:
        check_against_networkx(session, [truth[0, ..., 0], truth[1, ..., 1],
                                         pred[0, ..., 0], pred[1, ..., 1]])
    report_mae = _csv_values(work / "report.csv")[-1, 0]  # the avg row's graph MAE
    ratio = report_mae / graph_mae(base, truth)

    # work: the mean of the plain calls (their median, for two) plus --baseline
    return Round(
        setup=[[setup]],
        ops=plain,
        work=[(*span, 1.0 / len(plain)) for span in plain] + [baseline],
        mae_ratio=ratio,
        extra={"evaluate_baseline_s": [baseline]},
        fingerprint=b"".join(p.read_bytes() for p in [trace_csv, *reports]))


ROUNDS = {"paper_train": train_round, "aal_train": train_round,
          "paper_evaluate": evaluate_round}
