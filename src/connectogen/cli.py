"""Command-line entry point: simulate, train, predict, evaluate, metrics.

Every successful run writes exactly one JSON run manifest next to its
outputs (full resolved configuration, seeds, input paths, output hashes);
the exit status is 0 iff that manifest was written.  Datasets and
prediction directories share one multigraph layout, which only
:mod:`connectogen.data` reads and writes; every file, the run manifest
included, goes through its one writer, which renames a temporary file into
place.

Exit codes: 0 success, 2 usage, 3 ingestion, 4 numeric/training, 5 I/O.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import __version__
from . import evaluation, topology
from .data import (
    _read_views,
    _write_atomic,
    _write_views,
    kfold_split,
    load_dataset,
    read_matrix_csv,
    save_dataset,
    simulate_population,
    view_directories,
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


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _environment() -> dict:
    """The interpreter, numpy and BLAS builds and the CPU count behind a run."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "cpu_count": os.cpu_count()}


def _write_manifest(path: Path, command: str, config: dict, inputs: list[Path],
                    outputs: list[Path]) -> None:
    payload = {
        "command": command,
        "tool_version": __version__,
        "environment": _environment(),
        "config": config,
        "inputs": [str(p) for p in inputs],
        "outputs": [{"path": str(p), "sha256": _sha256(p)} for p in outputs],
    }
    _write_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# subcommands

def _cmd_simulate(args) -> int:
    dataset = simulate_population(
        s=args.subjects, r=args.rois, v=args.views, clusters=args.clusters,
        separation=args.separation, noise=args.noise, seed=args.seed)
    out = Path(args.out)
    written = save_dataset(dataset, out)
    _write_manifest(
        out / "run_manifest.json", "simulate",
        {"subjects": args.subjects, "rois": args.rois, "views": args.views,
         "clusters": args.clusters, "separation": args.separation,
         "noise": args.noise, "seed": args.seed, "out": str(out)},
        inputs=[], outputs=written)
    print(f"wrote {dataset.s} subjects x {dataset.v} views to {out}")
    return 0


# every field of the two training dataclasses is a training flag; the
# defaults live in the dataclasses
_CONFIG_FLAGS = tuple(f.name for f in fields(TrainingConfig))
_WEIGHT_FLAGS = tuple(f.name for f in fields(LossWeights))
_FLAG_HELP = {"sigma_gp": "gradient-penalty target norm (default: number of target views)"}
# evaluate flags that only --folds mode reads; each is absent from the
# namespace unless given, so that plain evaluate can reject them
_FOLD_FLAGS = ("data", "source_view") + _CONFIG_FLAGS + _WEIGHT_FLAGS


def _training_config(args) -> tuple[TrainingConfig, LossWeights]:
    given = vars(args)
    cfg = TrainingConfig(**{name: given[name] for name in _CONFIG_FLAGS if name in given})
    weights = LossWeights(**{name: given[name] for name in _WEIGHT_FLAGS if name in given})
    return cfg, weights


def _config_dict(cfg: TrainingConfig, weights: LossWeights, extra: dict) -> dict:
    return {**asdict(cfg), **asdict(weights), **extra}


def _cmd_train(args) -> int:
    cfg, weights = _training_config(args)
    dataset = load_dataset(args.data)
    bundle, trace = train(dataset, args.source_view, cfg, weights)

    model_path = Path(args.out)
    save_bundle(bundle, model_path)

    trace_path = Path(args.trace) if args.trace else model_path.with_suffix(
        model_path.suffix + ".trace.csv")
    _write_atomic(trace_path, trace.to_csv())

    _write_manifest(
        model_path.with_suffix(model_path.suffix + ".run.json"), "train",
        _config_dict(cfg, weights, {"data": str(args.data),
                                    "source_view": args.source_view}),
        inputs=[Path(args.data)], outputs=[model_path, trace_path])
    print(f"trained {cfg.iterations} iterations; model at {model_path}")
    return 0


def _cmd_predict(args) -> int:
    bundle = load_bundle(args.model)
    v = len(view_directories(args.data))
    if v != bundle.dims.v:
        raise PreconditionError(f"dataset has {v} views, model has {bundle.dims.v}")
    if not 0 <= args.source_view < v:
        raise PreconditionError(f"source view {args.source_view} out of range")
    # only the source view: the target views are predicted, never read
    dataset = load_dataset(args.data, views=[args.source_view])
    if dataset.r != bundle.dims.r:
        raise PreconditionError(
            f"dataset has {dataset.r} ROIs, model has {bundle.dims.r}")

    features = dataset.feature_matrix(0)
    pred = predict_multigraph(bundle, features)
    targets = target_views(v, args.source_view)

    out = Path(args.out)
    written = _write_views(out, dataset.subject_ids,
                           {view: pred[..., slot] for slot, view in enumerate(targets)})

    _write_manifest(
        out / "run_manifest.json", "predict",
        {"model": str(args.model), "data": str(args.data),
         "source_view": args.source_view, "target_views": targets},
        inputs=[Path(args.model), Path(args.data)], outputs=written)
    print(f"wrote {len(targets)} predicted views for {dataset.s} subjects to {out}")
    return 0


def _graphs_last(tensor: np.ndarray) -> np.ndarray:
    """(s, n, r, r) graphs as the (s, r, r, n) stack that evaluation scores."""
    return np.ascontiguousarray(np.moveaxis(tensor, 1, -1))


def _evaluate_pair(args) -> int:
    pred_ids, order, pred = _read_views(args.pred)
    # only the scored views: the truth's source view is never read
    truth = load_dataset(args.truth, views=order)
    if list(truth.subject_ids) != pred_ids:
        raise IngestionError("prediction and truth subject lists differ")
    if pred.shape != truth.tensor.shape:
        raise IngestionError(
            f"prediction graphs {pred.shape} do not match truth {truth.tensor.shape}")
    inputs = [Path(args.pred), Path(args.truth)]
    base = None
    if args.baseline:
        base_ids, base_order, base = _read_views(args.baseline)
        if base_ids != pred_ids or base_order != order:
            raise IngestionError("baseline predictions do not match the prediction set")
        if base.shape != truth.tensor.shape:
            raise IngestionError(
                f"baseline graphs {base.shape} do not match truth {truth.tensor.shape}")
        inputs.append(Path(args.baseline))
        base = _graphs_last(base)
    report = evaluation.evaluate(_graphs_last(pred), _graphs_last(truth.tensor),
                                 interp=args.interp, view_labels=[str(v) for v in order],
                                 baseline=base)

    out_prefix = Path(args.out)
    outputs = []
    for suffix, text in (("", evaluation.report_csv(report)),
                         ("_kl", evaluation.kl_csv(report))):
        path = out_prefix.with_name(out_prefix.name + suffix + ".csv")
        _write_atomic(path, text)
        outputs.append(path)
    if report.p_values is not None:
        path = out_prefix.with_name(out_prefix.name + "_pvalues.csv")
        _write_atomic(path, evaluation.pvalues_csv(report))
        outputs.append(path)
    md_path = out_prefix.with_name(out_prefix.name + ".md")
    _write_atomic(md_path, evaluation.report_markdown(report))
    outputs.append(md_path)

    _write_manifest(
        out_prefix.with_name(out_prefix.name + ".run.json"), "evaluate",
        {"pred": str(args.pred), "truth": str(args.truth),
         "baseline": args.baseline, "interp": args.interp},
        inputs=inputs, outputs=outputs)
    print(evaluation.report_markdown(report))
    return 0


def _evaluate_folds(args) -> int:
    cfg, weights = _training_config(args)
    source_view = getattr(args, "source_view", 0)
    dataset = load_dataset(args.data)
    folds = kfold_split(dataset, args.folds, cfg.seed)
    targets = target_views(dataset.v, source_view)

    out_dir = Path(args.out)
    outputs = []
    reports = []
    for fold_idx, test_idx in enumerate(folds):
        train_idx = np.setdiff1d(np.arange(dataset.s), test_idx)
        bundle, _ = train(dataset.subset(train_idx), source_view, cfg, weights)
        test_set = dataset.subset(test_idx)
        pred = predict_multigraph(bundle, test_set.feature_matrix(source_view))
        truth = np.stack([test_set.tensor[:, v] for v in targets], axis=-1)
        report = evaluation.evaluate(pred, truth, interp=args.interp,
                                     view_labels=[str(v) for v in targets])
        reports.append(report)
        path = out_dir / f"fold_{fold_idx}.csv"
        _write_atomic(path, evaluation.report_csv(report))
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
        _write_atomic(path, text)
        outputs.append(path)

    _write_manifest(
        out_dir / "run_manifest.json", "evaluate",
        _config_dict(cfg, weights, {"data": str(args.data), "folds": args.folds,
                                    "source_view": source_view,
                                    "interp": args.interp}),
        inputs=[Path(args.data)], outputs=outputs)
    print(evaluation.report_markdown(averaged))
    return 0


def _cmd_evaluate(args) -> int:
    if args.folds is not None:
        given = ["--" + name for name in ("pred", "truth", "baseline")
                 if getattr(args, name) is not None]
        if given:
            raise PreconditionError(f"--folds mode does not read {', '.join(given)}")
        if not getattr(args, "data", None):
            raise PreconditionError("--folds mode needs --data")
        return _evaluate_folds(args)
    given = ["--" + name.replace("_", "-") for name in _FOLD_FLAGS if name in vars(args)]
    if given:
        raise PreconditionError(f"only --folds mode reads {', '.join(given)}")
    if not args.pred or not args.truth:
        raise PreconditionError("evaluate needs --pred and --truth (or --folds with --data)")
    return _evaluate_pair(args)


def _cmd_metrics(args) -> int:
    path = Path(args.graph)
    weights = read_matrix_csv(path)

    scores = topology.centralities(weights, args.interp)
    r = weights.shape[0]
    lines = ["metric," + ",".join(f"roi_{i}" for i in range(r))]
    for name, values in scores.items():
        lines.append(name + "," + ",".join(f"{x:.17g}" for x in values))
    text = "\n".join(lines) + "\n"

    if args.out:
        out = Path(args.out)
        _write_atomic(out, text)
        _write_manifest(out.with_suffix(out.suffix + ".run.json"), "metrics",
                        {"graph": str(path), "interp": args.interp},
                        inputs=[path], outputs=[out])
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def _add_training_flags(p: argparse.ArgumentParser) -> None:
    """One flag per training field; an absent flag leaves no attribute, so
    the dataclass default applies and evaluate can tell what was given."""
    for field in fields(TrainingConfig) + fields(LossWeights):
        p.add_argument("--" + field.name.replace("_", "-"), default=argparse.SUPPRESS,
                       type=int if isinstance(field.default, int) else float,
                       help=_FLAG_HELP.get(field.name))


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
    p.add_argument("--data", default=argparse.SUPPRESS, help="dataset dir (--folds only)")
    p.add_argument("--source-view", type=int, default=argparse.SUPPRESS,
                   help="source view (--folds only; default 0)")
    p.add_argument("--out", default="report")
    p.add_argument("--interp", choices=[topology.DISTANCE, topology.INVERSE],
                   default=topology.DISTANCE)
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
