#!/usr/bin/env python3
"""connectogen's benchmark: three closed-loop workloads, one process, one client.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload paper_train --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off, timing a
fixed reference computation every quarter second to take the host's slow
phases out of them (``speed.py``).  ``--trace 1``
runs one untraced round, then one round with every public connectogen
function wrapped in a span, and reports the per-layer metrics and the
tracing overhead.  ``--smoke`` shrinks every workload to run in seconds.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit status is 0
only when every correctness check passed.  Results, with the environment,
and the spans of a traced run are written under ``perfbench/out/``.

See perfbench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
BLAS_THREADS = "1"
UNITS = {"setup_s": "s", "op_p50_s": "s", "op_tail_s": "s", "work_s": "s",
         "mae_ratio": "ratio", "peak_rss_mb": "MB"}
# op_tail_s is reported but not gated: its run-to-run spread on paper_train
# (0.22 of the median over ten seeds) is too close to the widest bound the
# gate allows
END_TO_END = ("setup_s", "op_p50_s", "work_s", "mae_ratio", "peak_rss_mb")
# what each workload calls its numbers in the README
_TRAIN_NAMES = {"op_p50_s": "iter_p50_s", "op_tail_s": "iter_tail_s", "work_s": "train_s",
                "mae_ratio": "test_mae_ratio"}
DOC_NAMES = {"paper_train": _TRAIN_NAMES, "aal_train": _TRAIN_NAMES,
             "paper_evaluate": {"op_p50_s": "evaluate_s", "op_tail_s": "evaluate_tail_s"}}
WORKLOADS = tuple(DOC_NAMES)
# the part of speed.py's reference whose slow phases match the workload's
REFERENCE = {"paper_train": "numpy", "aal_train": "numpy", "paper_evaluate": "python"}


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n): the highest percentile with ten samples beyond it.

    Below 40 samples that percentile would sit under p75, so the value with
    a quarter of the samples beyond it (nearest rank) is reported instead.
    """
    ordered = sorted(samples)
    n = len(ordered)
    beyond = min(10, n // 4)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, n


def environment() -> dict:
    import importlib.util
    import platform

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        from connectogen._jit import JIT_ACTIVE
    except ImportError:
        JIT_ACTIVE = None  # connectogen without the optional numba path
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "jit_active": JIT_ACTIVE,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
    }


def measure(workload: str, seed: int, seconds: float, traced: bool, smoke: bool):
    """Run rounds until ``seconds`` are spent (at least two).

    Returns the rounds, the session, the tracer (traced runs only), the
    speed sampler (untraced runs only) and the peak RSS in MB after two
    rounds: later rounds repeat the same work, yet the allocator keeps
    growing a little with each, which would tie the figure to how many
    rounds fitted.
    """
    import speed
    import tracing
    import workloads as wl

    scale = (wl.SMOKE_SCALES if smoke else wl.SCALES)[workload]
    round_fn = wl.ROUNDS[workload]
    session = wl.Session(work=OUT / f"work-{os.getpid()}")
    rounds, tracer, peak_rss_mb = [], None, 0.0
    sampler = None if traced else speed.Sampler()
    deadline = time.perf_counter() + seconds
    try:
        if sampler is not None:
            sampler.start()
        while True:
            undo = []
            if traced and len(rounds) == 1:
                tracer = tracing.Tracer()
                session.tracer = tracer
                undo = tracing.install(tracer)
            start = time.perf_counter()
            try:
                rounds.append(round_fn(session, scale, seed, first=not rounds))
            finally:
                tracing.uninstall(undo)
                session.tracer = None
            elapsed = time.perf_counter() - start
            if len(rounds) == 2:
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if len(rounds) > 1:
                session.check(rounds[-1].fingerprint == rounds[0].fingerprint,
                              f"round {len(rounds)} outputs differ from round 1")
            if len(rounds) >= 2 and (traced or smoke
                                     or time.perf_counter() + elapsed > deadline):
                break
    except Exception:
        traceback.print_exc()
        session.errors.append("an operation raised")
    finally:
        if sampler is not None:
            sampler.stop()
        shutil.rmtree(session.work, ignore_errors=True)
    return rounds, session, tracer, sampler, peak_rss_mb


class Clock:
    """Wall and reference seconds of spans (see speed.py).

    Without a sampler (traced runs) both figures are the spans' durations.
    """

    def __init__(self, sampler, part: str):
        self.sampler, self.part = sampler, part

    def seconds(self, spans) -> tuple[float, float]:
        wall = ref = 0.0
        for span in spans:
            weight = span[2] if len(span) > 2 else 1.0
            if self.sampler is None:
                w = r = span[1] - span[0]
            else:
                w, r = self.sampler.seconds(span[0], span[1], self.part)
            wall += weight * w
            ref += weight * r
        return wall, ref


def summarize(workload: str, rounds, session, clock: Clock,
              peak_rss_mb: float) -> tuple[dict, list]:
    """The end-to-end metrics, and (name, value, unit) report lines under the README's names.

    Times are reference seconds; each is also reported in wall seconds
    under its name with ``_wall`` appended.
    """
    def median_pair(groups):
        pairs = [clock.seconds(spans) for spans in groups]
        return tuple(statistics.median(p[i] for p in pairs) for i in (0, 1))

    ops = [clock.seconds([span]) for rnd in rounds for span in rnd.ops]
    tails = [tail([op[i] for op in ops]) for i in (0, 1)]
    _, tail_pct, n = tails[1]
    times = {
        "setup_s": median_pair(sample for rnd in rounds for sample in rnd.setup),
        "op_p50_s": tuple(statistics.median(op[i] for op in ops) for i in (0, 1)),
        "op_tail_s": (tails[0][0], tails[1][0]),
        "work_s": median_pair(rnd.work for rnd in rounds),
    }
    values = {key: ref for key, (_, ref) in times.items()}
    values.update(mae_ratio=rounds[0].mae_ratio, peak_rss_mb=peak_rss_mb)
    names = DOC_NAMES[workload]
    lines = [(names.get(key, key), value, UNITS[key]) for key, value in values.items()]
    lines += [(names.get(key, key) + "_wall", wall, "s") for key, (wall, _) in times.items()]
    for key in rounds[0].extra:
        wall, ref = median_pair(rnd.extra[key] for rnd in rounds)
        lines += [(key, ref, "s"), (key + "_wall", wall, "s")]
    if clock.sampler is not None:
        samples = clock.sampler.samples
        lines += [("reference_samples", len(samples), "count")]
        lines += [(f"reference_{part}_p50_ms", 1e3 * statistics.median(x[col] for x in samples),
                   "ms") for col, part in ((2, "python"), (3, "numpy")) if samples]
    lines += [("tail_percentile", tail_pct, "%"), ("op_samples", n, "count"),
              ("rounds", len(rounds), "count"),
              ("fail_frac", len(session.failed) / max(session.attempted, 1), "ratio")]
    return {key: values[key] for key in END_TO_END}, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs (r=8, 2 iterations, 3 evaluated subjects)")
    args = parser.parse_args(argv)

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))
    import warnings
    warnings.filterwarnings("ignore", message="knn=")
    warnings.filterwarnings("ignore", message="numba unavailable")
    import connectogen  # noqa: F401  (fail before any output when the sources are missing)
    OUT.mkdir(exist_ok=True)

    env = environment()
    print("environment " + json.dumps(env, sort_keys=True))
    rounds, session, tracer, sampler, peak_rss_mb = measure(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    clock = Clock(sampler, REFERENCE[args.workload])
    correct = bool(rounds) and not session.errors
    for message in session.errors:
        print(f"check failed: {message}", file=sys.stderr)

    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "environment": env,
              "attempted": session.attempted, "failed": len(session.failed),
              "errors": session.errors}
    metrics = {}
    if rounds:
        e2e, lines = summarize(args.workload, rounds, session, clock, peak_rss_mb)
        result.update(end_to_end=e2e, report={name: value for name, value, _ in lines},
                      rounds=[{"setup": rnd.setup, "ops": rnd.ops, "work": rnd.work,
                               **rnd.extra} for rnd in rounds],
                      reference_samples=sampler.samples if sampler is not None else [])
        for name, value, unit in lines:
            print(f"{args.workload} {name} = {value:.6g} {unit}")
        metrics = {key: {"value": value, "unit": UNITS[key]} for key, value in e2e.items()}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    if tracer is not None and len(rounds) == 2:
        import tracing
        untraced_s, traced_s = (clock.seconds(rnd.work)[0] for rnd in rounds)
        overhead = traced_s - untraced_s
        layers = tracing.per_layer_metrics(tracer, session.bytes_written, overhead)
        print(f"{args.workload} trace overhead = {overhead:.4g} s on "
              f"{untraced_s:.4g} s untraced work")
        tracer.write_spans(OUT / f"{stem}.spans.csv.gz")
        result["per_layer"] = {key: value for key, (value, _) in layers.items()}
        metrics = {key: {"value": value, "unit": unit} for key, (value, unit) in layers.items()}
        for key, entry in metrics.items():
            print(f"{key} {entry['value']:.6g} {entry['unit']}")
    elif args.trace:
        correct = False
        metrics = {}
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=2, sort_keys=True) + "\n",
                                      encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": session.attempted,
                      "failed": len(session.failed), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
