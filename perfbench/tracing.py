"""In-memory spans around connectogen's public functions, for the traced run.

``install`` wraps every public function defined in a ``connectogen``
submodule and rebinds the wrapper wherever the original is reachable by
name: its own module, every other submodule that imported it with
``from .x import y``, and the package namespace.  Callers therefore hit the
wrapper whether they write ``topology.closeness(...)`` or ``closeness(...)``.
``uninstall`` puts every original back.

A span is ``(id, parent_id, name, start, end)``; the parent is the span
that was open on entry, so nesting follows the call stack.  A layer's self
time is its span durations minus the time covered by its direct children.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import pkgutil
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

# per-layer metric name -> span name, for names that differ from the function
TOPOLOGY_METRIC_FUNCS = {
    "cc": "topology.closeness",
    "bc": "topology.betweenness",
    "ec": "topology.eigenvector",
    "pc": "topology.pagerank",
    "eff": "topology.effective_size",
    "clst": "topology.clustering_coefficient",
}
KERNELS = ("dijkstra_all", "brandes_betweenness", "burt_effective_size",
           "onnela_clustering")
_LAYER_OF_MODULE = {"_topology_kernels": "topology.kernel"}


class Tracer:
    """Span and counter store; one per traced run."""

    def __init__(self):
        # one entry per span in each array; arrays hold no objects the garbage
        # collector must scan, which keeps tracing overhead flat as spans pile up
        self._ids = array("q")
        self._parents = array("q")
        self._names = array("l")
        self._starts = array("d")
        self._ends = array("d")
        self._name_index: dict[str, int] = {}
        self._stack = [0]
        self._next_id = 1
        self.counts: Counter = Counter()
        self.preloop_s = 0.0
        self._distinct: set = set()
        self._evaluation_depth = 0  # open evaluation.* spans

    @contextmanager
    def span(self, name: str):
        """Span around a block of the benchmark's own code."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._record(sid, parent, self._name_id(name), start, end)

    def _name_id(self, name: str) -> int:
        return self._name_index.setdefault(name, len(self._name_index))

    def _record(self, sid: int, parent: int, name_id: int, start: float, end: float) -> None:
        self._ids.append(sid)
        self._parents.append(parent)
        self._names.append(name_id)
        self._starts.append(start)
        self._ends.append(end)

    @property
    def span_count(self) -> int:
        return len(self._ids)

    def spans(self):
        """Yield ``(id, parent_id, name, start, end)`` per recorded span."""
        names = list(self._name_index)
        for sid, parent, name_id, start, end in zip(self._ids, self._parents, self._names,
                                                    self._starts, self._ends):
            yield sid, parent, names[name_id], start, end

    def begin_operation(self) -> None:
        """Forget which centralities were computed: repeats count within one operation."""
        self._distinct = set()

    def wrap(self, name: str, fn, hook=None):
        depth_step = 1 if name.startswith("evaluation.") else 0
        name_id = self._name_id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(self, args)
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1]
            self._stack.append(sid)
            self._evaluation_depth += depth_step
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._evaluation_depth -= depth_step
                self._stack.pop()
                self._record(sid, parent, name_id, start, end)
            if name == "training.train":
                records = result[1].records
                self.preloop_s += (end - start) - (records[-1].wall_time if records else 0.0)
            return result

        return wrapper

    # -- derived numbers ------------------------------------------------

    def layer_times(self) -> tuple[dict, dict, Counter]:
        """Self seconds, inclusive seconds and call count per span name."""
        child = defaultdict(float)
        for _, parent, _, start, end in self.spans():
            child[parent] += end - start
        self_s, total_s, calls = defaultdict(float), defaultdict(float), Counter()
        for sid, _, name, start, end in self.spans():
            total_s[name] += end - start
            self_s[name] += (end - start) - child[sid]
            calls[name] += 1
        return self_s, total_s, calls

    def write_spans(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for sid, parent, name, start, end in self.spans():
                fh.write(f"{sid},{parent},{name},{start:.9f},{end:.9f}\n")


def _count_matmul(tracer: Tracer, args) -> None:
    a, b = args[0], args[1]
    tracer.counts["matmul.flop"] += 2 * a.shape[0] * a.shape[1] * b.shape[1]


def _note_centrality(metric: str):
    """Count the evaluation layer's centralities, and the distinct ones per operation."""
    def hook(tracer: Tracer, args) -> None:
        if not tracer._evaluation_depth:
            return
        graph = np.ascontiguousarray(args[0], dtype=np.float64)
        tracer.counts["centrality.computed"] += 1
        key = (metric, hash(graph.tobytes()))
        if key not in tracer._distinct:
            tracer._distinct.add(key)
            tracer.counts["centrality.distinct"] += 1
    return hook


_HOOKS = {"autodiff.matmul": _count_matmul}
_HOOKS.update({func: _note_centrality(metric)
               for metric, func in TOPOLOGY_METRIC_FUNCS.items()})


def install(tracer: Tracer) -> list:
    """Wrap connectogen's public functions and ``Adam.step``; return the undo list."""
    import connectogen

    modules = {info.name: importlib.import_module(f"connectogen.{info.name}")
               for info in pkgutil.iter_modules(connectogen.__path__)}
    namespaces = [connectogen, *modules.values()]
    undo = []
    for mod_name, module in modules.items():
        if mod_name == "cli":
            continue  # the benchmark opens a cli.<command> span around each cli.main call
        layer = _LAYER_OF_MODULE.get(mod_name, mod_name)
        for attr, obj in list(vars(module).items()):
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__):
                continue
            name = f"{layer}.{attr}"
            wrapper = tracer.wrap(name, obj, _HOOKS.get(name))
            for ns in namespaces:
                for ns_attr, value in list(vars(ns).items()):
                    if value is obj:
                        undo.append((ns, ns_attr, obj))
                        setattr(ns, ns_attr, wrapper)
    adam = modules["autodiff"].Adam
    undo.append((adam, "step", adam.step))
    adam.step = tracer.wrap("autodiff.Adam.step", adam.step)
    return undo


def uninstall(undo: list) -> None:
    for ns, attr, original in reversed(undo):
        setattr(ns, attr, original)


def per_layer_metrics(tracer: Tracer, bytes_written: int, overhead_s: float) -> dict:
    """The per-layer metrics, by name, as ``(value, unit)``."""
    self_s, total_s, calls = tracer.layer_times()
    out = {}

    def s(name, key=None):
        out[f"{key or name}.s"] = (self_s.get(name, 0.0), "s")

    def n(name, key=None, suffix="calls"):
        out[f"{key or name}.{suffix}"] = (calls.get(name, 0), "count")

    def total(name):
        out[f"{name}.total_s"] = (total_s.get(name, 0.0), "s")

    out["training.setup.s"] = (tracer.preloop_s, "s")
    total("training.train")
    for name in ("affinity.learn_affinity", "affinity.normalize_adjacency"):
        s(name)
        n(name)
    s("clustering.cluster_source_embeddings")
    s("models.discriminate")
    n("models.discriminate")
    total("models.discriminate")
    s("models.encode")
    s("models.generate")
    s("losses.gradient_penalty")
    n("losses.gradient_penalty")
    total("losses.gradient_penalty")
    s("losses.topological_loss")
    total("losses.topological_loss")
    s("topology.batched_eigenvector_rows")
    s("autodiff.batched_matvec")
    n("autodiff.batched_matvec")
    s("autodiff.devectorize_rows")
    s("autodiff.backward")
    n("autodiff.backward")
    s("autodiff.Adam.step")
    n("autodiff.matmul")
    out["autodiff.matmul.gflop"] = (tracer.counts["matmul.flop"] / 1e9, "gflop")
    for metric, func in TOPOLOGY_METRIC_FUNCS.items():
        s(func, f"topology.{metric}")
        n(func, f"topology.{metric}", "graphs")
    for kernel in KERNELS:
        s(f"topology.kernel.{kernel}")
        n(f"topology.kernel.{kernel}")
    computed = tracer.counts["centrality.computed"]
    out["topology.centrality.useful_ratio"] = (
        tracer.counts["centrality.distinct"] / computed if computed else 0.0, "ratio")
    s("evaluation.evaluate")
    total("evaluation.evaluate")
    s("evaluation.subject_metric_maes")
    n("evaluation.subject_metric_maes")
    total("evaluation.subject_metric_maes")
    s("evaluation.kl_divergence")
    n("evaluation.paired_ttest")
    s("data.simulate_population")
    s("data.save_dataset")
    s("data.load_dataset")
    n("data.load_dataset")
    for command in ("train", "predict", "evaluate"):
        s(f"cli.{command}")
        total(f"cli.{command}")
    out["cli.bytes_written"] = (bytes_written, "bytes")
    out["trace.spans"] = (tracer.span_count, "count")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out
