"""Command-line entry point: simulate, train, predict, evaluate, metrics.

Every successful run writes exactly one JSON run manifest next to its
outputs (full resolved configuration, seeds, input paths, output hashes);
the exit status is 0 iff that manifest was written.  Output files are
written to a temporary path and atomically renamed into place.

Exit codes: 0 success, 2 usage, 3 ingestion, 4 numeric/training, 5 I/O.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import __version__
from . import evaluation, topology
from .data import (
    PopulationDataset,
    kfold_split,
    load_dataset,
    save_dataset,
    simulate_population,
)
from .errors import (
    IngestionError,
    NumericError,
    PreconditionError,
    SerializationError,
    TrainingError,
    ValidationError,
)
from .losses import LossWeights
from .models import load_bundle, save_bundle
from .training import TrainingConfig, predict_multigraph, target_views, train

USAGE_EXIT = 2
INGEST_EXIT = 3
NUMERIC_EXIT = 4
IO_EXIT = 5


def _atomic_write_bytes(path: Path, payload: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_write_text(path: Path, text: str) -> None:
    _atomic_write_bytes(path, text.encode("utf-8"))


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(path: Path, command: str, config: dict, inputs: list[Path],
                    outputs: list[Path]) -> None:
    payload = {
        "command": command,
        "tool_version": __version__,
        "config": config,
        "inputs": [str(p) for p in inputs],
        "outputs": [{"path": str(p), "sha256": _sha256(p)} for p in outputs],
    }
    _atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _dataset_files(root: Path, dataset: PopulationDataset) -> list[Path]:
    files = [root / "manifest.txt"]
    for k in range(dataset.v):
        files.extend(root / f"view_{k}" / f"{sid}.csv" for sid in dataset.subject_ids)
    return sorted(files)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_simulate(args) -> int:
    dataset = simulate_population(
        s=args.subjects, r=args.rois, v=args.views, clusters=args.clusters,
        separation=args.separation, noise=args.noise, seed=args.seed)
    out = Path(args.out)
    save_dataset(dataset, out)
    _write_manifest(
        out / "run_manifest.json", "simulate",
        {"subjects": args.subjects, "rois": args.rois, "views": args.views,
         "clusters": args.clusters, "separation": args.separation,
         "noise": args.noise, "seed": args.seed, "out": str(out)},
        inputs=[], outputs=_dataset_files(out, dataset))
    print(f"wrote {dataset.s} subjects x {dataset.v} views to {out}")
    return 0


def _training_config(args) -> tuple[TrainingConfig, LossWeights]:
    cfg = TrainingConfig(
        iterations=args.iterations, batch_size=args.batch_size, lr=args.lr,
        n_critic=args.n_critic, centrality_mode=args.centrality,
        clusters=args.clusters, seed=args.seed, gp_mode=args.gp_mode,
        interp=args.interp)
    weights = LossWeights(
        lambda_gdc=args.lambda_gdc, lambda_gp=args.lambda_gp,
        lambda_top=args.lambda_top, lambda_inf=args.lambda_inf,
        sigma_gp=args.sigma_gp)
    return cfg, weights


def _config_dict(cfg: TrainingConfig, weights: LossWeights, extra: dict) -> dict:
    out = {
        "iterations": cfg.iterations, "batch_size": cfg.batch_size, "lr": cfg.lr,
        "beta1": cfg.beta1, "beta2": cfg.beta2, "n_critic": cfg.n_critic,
        "centrality_mode": cfg.centrality_mode, "clusters": cfg.clusters,
        "seed": cfg.seed, "gp_mode": cfg.gp_mode, "interp": cfg.interp,
        "lambda_gdc": weights.lambda_gdc, "lambda_gp": weights.lambda_gp,
        "lambda_top": weights.lambda_top, "lambda_inf": weights.lambda_inf,
        "sigma_gp": weights.sigma_gp,
    }
    out.update(extra)
    return out


def _cmd_train(args) -> int:
    dataset = load_dataset(args.data)
    cfg, weights = _training_config(args)
    bundle, trace = train(dataset, args.source_view, cfg, weights)

    model_path = Path(args.out)
    model_path.parent.mkdir(parents=True, exist_ok=True)
    tmp = model_path.with_name(model_path.name + ".tmp")
    try:
        save_bundle(bundle, tmp)
        os.replace(tmp, model_path)
    finally:
        tmp.unlink(missing_ok=True)

    trace_path = Path(args.trace) if args.trace else model_path.with_suffix(
        model_path.suffix + ".trace.csv")
    _atomic_write_text(trace_path, trace.to_csv())

    _write_manifest(
        model_path.with_suffix(model_path.suffix + ".run.json"), "train",
        _config_dict(cfg, weights, {"data": str(args.data),
                                    "source_view": args.source_view}),
        inputs=[Path(args.data)], outputs=[model_path, trace_path])
    print(f"trained {cfg.iterations} iterations; model at {model_path}")
    return 0


def _cmd_predict(args) -> int:
    bundle = load_bundle(args.model)
    dataset = load_dataset(args.data)
    if dataset.r != bundle.dims.r or dataset.v != bundle.dims.v:
        raise PreconditionError(
            f"dataset (r={dataset.r}, v={dataset.v}) does not match model "
            f"(r={bundle.dims.r}, v={bundle.dims.v})")
    if not 0 <= args.source_view < dataset.v:
        raise PreconditionError(f"source view {args.source_view} out of range")

    features = dataset.feature_matrix(args.source_view)
    pred = predict_multigraph(bundle, features)
    targets = target_views(dataset.v, args.source_view)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _atomic_write_text(out / "manifest.txt", "\n".join(dataset.subject_ids) + "\n")
    written = [out / "manifest.txt"]
    for slot, view in enumerate(targets):
        view_dir = out / f"view_{view}"
        view_dir.mkdir(exist_ok=True)
        for s, sid in enumerate(dataset.subject_ids):
            path = view_dir / f"{sid}.csv"
            lines = [",".join(f"{x:.17g}" for x in row) for row in pred[s, :, :, slot]]
            _atomic_write_text(path, "\n".join(lines) + "\n")
            written.append(path)

    _write_manifest(
        out / "run_manifest.json", "predict",
        {"model": str(args.model), "data": str(args.data),
         "source_view": args.source_view, "target_views": targets},
        inputs=[Path(args.model), Path(args.data)], outputs=sorted(written))
    print(f"wrote {len(targets)} predicted views for {dataset.s} subjects to {out}")
    return 0


def _load_prediction_dir(root: Path) -> tuple[list[str], dict[int, np.ndarray]]:
    """Prediction directories hold view_<orig index> subdirs for targets only."""
    manifest = root / "manifest.txt"
    if not manifest.is_file():
        raise IngestionError(f"{manifest}: manifest not found")
    ids = [ln.strip() for ln in manifest.read_text(encoding="utf-8").splitlines()
           if ln.strip()]
    views = {}
    for view_dir in sorted(root.glob("view_*")):
        idx = int(view_dir.name.split("_", 1)[1])
        mats = []
        for sid in ids:
            path = view_dir / f"{sid}.csv"
            if not path.is_file():
                raise IngestionError(f"{path}: missing prediction file")
            mats.append(np.loadtxt(path, delimiter=",", ndmin=2))
        views[idx] = np.stack(mats)
    if not views:
        raise IngestionError(f"{root}: no view_* directories")
    return ids, views


def _tensorize(ids, views: dict[int, np.ndarray]):
    order = sorted(views)
    stack = np.stack([views[i] for i in order], axis=-1)
    return order, stack


def _evaluate_pair(args) -> int:
    pred_ids, pred_views = _load_prediction_dir(Path(args.pred))
    truth = load_dataset(args.truth)
    if list(truth.subject_ids) != pred_ids:
        raise IngestionError("prediction and truth subject lists differ")
    order, pred_tensor = _tensorize(pred_ids, pred_views)
    if any(v >= truth.v for v in order):
        raise IngestionError(f"prediction views {order} exceed truth views {truth.v}")
    truth_tensor = np.stack([truth.tensor[:, v] for v in order], axis=-1)
    inputs = [Path(args.pred), Path(args.truth)]
    base_tensor = None
    if args.baseline:
        base_ids, base_views = _load_prediction_dir(Path(args.baseline))
        if base_ids != pred_ids or sorted(base_views) != order:
            raise IngestionError("baseline predictions do not match the prediction set")
        _, base_tensor = _tensorize(base_ids, base_views)
        inputs.append(Path(args.baseline))
    report = evaluation.evaluate(pred_tensor, truth_tensor, interp=args.interp,
                                 view_labels=[str(v) for v in order], baseline=base_tensor)

    out_prefix = Path(args.out)
    out_prefix.parent.mkdir(parents=True, exist_ok=True)
    outputs = []
    for suffix, text in (("", evaluation.report_csv(report)),
                         ("_kl", evaluation.kl_csv(report))):
        path = out_prefix.with_name(out_prefix.name + suffix + ".csv")
        _atomic_write_text(path, text)
        outputs.append(path)
    if report.p_values is not None:
        path = out_prefix.with_name(out_prefix.name + "_pvalues.csv")
        _atomic_write_text(path, evaluation.pvalues_csv(report))
        outputs.append(path)
    md_path = out_prefix.with_name(out_prefix.name + ".md")
    _atomic_write_text(md_path, evaluation.report_markdown(report))
    outputs.append(md_path)

    _write_manifest(
        out_prefix.with_name(out_prefix.name + ".run.json"), "evaluate",
        {"pred": str(args.pred), "truth": str(args.truth),
         "baseline": args.baseline, "interp": args.interp},
        inputs=inputs, outputs=outputs)
    print(evaluation.report_markdown(report))
    return 0


def _evaluate_folds(args) -> int:
    dataset = load_dataset(args.data)
    cfg, weights = _training_config(args)
    folds = kfold_split(dataset, args.folds, args.seed)
    targets = target_views(dataset.v, args.source_view)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = []
    reports = []
    for fold_idx, test_idx in enumerate(folds):
        train_idx = np.setdiff1d(np.arange(dataset.s), test_idx)
        bundle, _ = train(dataset.subset(train_idx), args.source_view, cfg, weights)
        test_set = dataset.subset(test_idx)
        pred = predict_multigraph(bundle, test_set.feature_matrix(args.source_view))
        truth = np.stack([test_set.tensor[:, v] for v in targets], axis=-1)
        report = evaluation.evaluate(pred, truth, interp=cfg.interp,
                                     view_labels=[str(v) for v in targets])
        reports.append(report)
        path = out_dir / f"fold_{fold_idx}.csv"
        _atomic_write_text(path, evaluation.report_csv(report))
        outputs.append(path)

    averaged = evaluation.EvaluationReport(
        view_labels=[str(v) for v in targets],
        mae=np.mean([rep.mae for rep in reports], axis=0),
        mae_avg=np.mean([rep.mae_avg for rep in reports], axis=0),
        kl=np.mean([rep.kl for rep in reports], axis=0),
        kl_avg=np.mean([rep.kl_avg for rep in reports], axis=0))
    for name, text in (("folds_avg.csv", evaluation.report_csv(averaged)),
                       ("folds_avg_kl.csv", evaluation.kl_csv(averaged)),
                       ("folds_avg.md", evaluation.report_markdown(averaged))):
        path = out_dir / name
        _atomic_write_text(path, text)
        outputs.append(path)

    _write_manifest(
        out_dir / "run_manifest.json", "evaluate",
        _config_dict(cfg, weights, {"data": str(args.data), "folds": args.folds,
                                    "source_view": args.source_view}),
        inputs=[Path(args.data)], outputs=outputs)
    print(evaluation.report_markdown(averaged))
    return 0


def _cmd_evaluate(args) -> int:
    if args.folds:
        if not args.data:
            raise PreconditionError("--folds mode needs --data")
        return _evaluate_folds(args)
    if not args.pred or not args.truth:
        raise PreconditionError("evaluate needs --pred and --truth (or --folds with --data)")
    return _evaluate_pair(args)


def _cmd_metrics(args) -> int:
    path = Path(args.graph)
    try:
        weights = np.loadtxt(path, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise IngestionError(f"{path}: cannot parse graph CSV ({exc})") from exc
    try:
        from .data import check_connectivity
        weights = check_connectivity(weights, name=str(path))
    except ValidationError as exc:
        raise IngestionError(str(exc)) from exc

    rows = [("cc", topology.closeness(weights, args.interp)),
            ("bc", topology.betweenness(weights, args.interp)),
            ("ec", topology.eigenvector(weights)),
            ("pc", topology.pagerank(weights)),
            ("eff", topology.effective_size(weights)),
            ("clst", topology.clustering_coefficient(weights))]
    r = weights.shape[0]
    lines = ["metric," + ",".join(f"roi_{i}" for i in range(r))]
    for name, values in rows:
        lines.append(name + "," + ",".join(f"{x:.17g}" for x in values))
    text = "\n".join(lines) + "\n"

    if args.out:
        out = Path(args.out)
        _atomic_write_text(out, text)
        _write_manifest(out.with_suffix(out.suffix + ".run.json"), "metrics",
                        {"graph": str(path), "interp": args.interp},
                        inputs=[path], outputs=[out])
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def _add_training_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--iterations", type=int, default=1000)
    p.add_argument("--batch-size", type=int, default=70)
    p.add_argument("--lr", type=float, default=1e-4)
    p.add_argument("--n-critic", type=int, default=5)
    p.add_argument("--clusters", type=int, default=2)
    p.add_argument("--centrality", choices=["cc", "bc", "ec"], default="ec")
    p.add_argument("--gp-mode", choices=["probe", "exact"], default="probe")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lambda-gdc", type=float, default=1.0)
    p.add_argument("--lambda-gp", type=float, default=0.1)
    p.add_argument("--lambda-top", type=float, default=0.1)
    p.add_argument("--lambda-inf", type=float, default=1.0)
    p.add_argument("--sigma-gp", type=float, default=None,
                   help="gradient-penalty target norm (default: number of target views)")
    p.add_argument("--interp", choices=[topology.DISTANCE, topology.INVERSE],
                   default=topology.DISTANCE)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="connectogen",
        description="Predict all views of a brain multigraph from a single source view.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic multigraph dataset")
    p.add_argument("--subjects", type=int, default=120)
    p.add_argument("--rois", type=int, default=35)
    p.add_argument("--views", type=int, default=6)
    p.add_argument("--clusters", type=int, default=2)
    p.add_argument("--separation", type=float, default=4.0)
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("train", help="train a prediction model on a dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--source-view", type=int, required=True)
    p.add_argument("--out", required=True, help="model file path")
    p.add_argument("--trace", default=None, help="training trace CSV path")
    _add_training_flags(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="predict target views for test subjects")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True, help="dataset dir with the source view")
    p.add_argument("--source-view", type=int, required=True)
    p.add_argument("--out", required=True, help="prediction directory")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("evaluate", help="score predictions against ground truth")
    p.add_argument("--pred", default=None)
    p.add_argument("--truth", default=None)
    p.add_argument("--baseline", default=None,
                   help="second prediction dir; adds paired t-test p-values")
    p.add_argument("--folds", type=int, default=None,
                   help="run k-fold split/train/predict/evaluate on --data")
    p.add_argument("--data", default=None)
    p.add_argument("--source-view", type=int, default=0)
    p.add_argument("--out", default="report")
    _add_training_flags(p)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("metrics", help="print topology scores for one graph CSV")
    p.add_argument("--graph", required=True)
    p.add_argument("--interp", choices=[topology.DISTANCE, topology.INVERSE],
                   default=topology.DISTANCE)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_metrics)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code else 0
    try:
        return args.func(args)
    except IngestionError as exc:
        print(f"ingestion error: {exc}", file=sys.stderr)
        return INGEST_EXIT
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return INGEST_EXIT
    except (NumericError, TrainingError, SerializationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return NUMERIC_EXIT
    except (PreconditionError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return IO_EXIT


if __name__ == "__main__":
    sys.exit(main())
