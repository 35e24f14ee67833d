"""The machine's speed during a run, sampled with a fixed reference computation.

On a shared host the same code can run 1.6 times slower for tens of seconds
at a time while a neighbour is busy, and such a phase can cover a whole
run.  A run's medians then say more about the neighbour than about the
program.  ``Sampler`` times a fixed reference computation every
``PERIOD`` seconds of the run, from a ``SIGALRM`` handler, so samples
land inside the program's own operations.  ``Sampler.seconds`` then turns
a span of the run into two figures:

- wall seconds: the span's duration minus the time the sampler itself took
  inside it;
- reference seconds: those wall seconds times ``ref / measured``, where
  ``measured`` is the mean reference time within ``WINDOW`` seconds of
  the span and ``ref`` the time the reference takes at the speed the
  benchmark reports in.  At that speed both figures agree; in a slow phase
  the reference slows with the program and the factor takes the phase out.

The reference has two parts, timed separately.  ``python`` runs Dijkstra
with ``heapq`` over a fixed 35-node graph: dicts, tuples and a heap, like
the pure-Python topology kernels.  ``numpy`` multiplies small matrices,
like the autodiff engine's per-op work.  Each workload picks the part that
moves with it (``REFERENCE`` in ``run.py``).  Neither touches connectogen,
so a change to the program cannot change the reference.
"""

from __future__ import annotations

import gc
import heapq
import random
import signal
import time

import numpy as np

PERIOD = 0.25  # seconds of wall time between samples
WINDOW = 0.5  # a span's speed is the mean of the samples within this many seconds of it
# reference times at the reported speed: the fast phase of a 2-vCPU
# Intel Xeon virtual machine (Python 3.11, numpy 2.4 on OpenBLAS, one thread)
REF_S = {"python": 0.0020, "numpy": 0.00285}

_rng = random.Random(0)
_NODES = 35
_ADJ = [[(j, _rng.uniform(0.05, 1.0)) for j in range(_NODES) if j != i] for i in range(_NODES)]
_INF = float("inf")
_np_rng = np.random.default_rng(0)
_X = _np_rng.uniform(size=(70, 64))
_W = _np_rng.uniform(size=(64, 32))


def reference_python() -> float:
    """Single-source shortest paths from every other node; returns a checksum."""
    total = 0.0
    for source in range(0, _NODES, 2):
        dist = {source: 0.0}
        heap = [(0.0, source)]
        done = set()
        while heap:
            d, u = heapq.heappop(heap)
            if u in done:
                continue
            done.add(u)
            total += d
            for v, weight in _ADJ[u]:
                nd = d + weight
                if nd < dist.get(v, _INF):
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
    return total


def reference_numpy() -> float:
    """Small dense products and elementwise ops; returns a checksum."""
    total = 0.0
    for _ in range(200):
        h = np.maximum(_X @ _W, 0.0)
        g = h.T @ _X
        g *= 0.5
        total += g[0, 0]
    return total


class Sampler:
    """Times the reference every ``PERIOD`` seconds between ``start`` and ``stop``."""

    def __init__(self):
        # (start, end, python seconds, numpy seconds) per sample
        self.samples: list[tuple[float, float, float, float]] = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        enabled = gc.isenabled()
        gc.disable()  # a collection here would time the program's heap, not the machine
        try:
            t0 = time.perf_counter()
            reference_python()
            t1 = time.perf_counter()
            reference_numpy()
            t2 = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.samples.append((t0, t2, t1 - t0, t2 - t1))

    def start(self) -> None:
        self._sample(None, None)  # so that every span has a sample to refer to
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def seconds(self, start: float, end: float, part: str) -> tuple[float, float]:
        """(wall seconds, reference seconds) of the span ``[start, end]``."""
        inside = sum(e - s for s, e, _, _ in self.samples if s >= start and e <= end)
        wall = end - start - inside
        column = 2 if part == "python" else 3
        near = [x[column] for x in self.samples
                if x[1] >= start - WINDOW and x[0] <= end + WINDOW]
        if not near:  # a span far from every sample: take the closest one
            near = [min(self.samples, key=lambda x: min(abs(x[0] - start), abs(x[1] - end)))[column]]
        return wall, wall * REF_S[part] / (sum(near) / len(near))
