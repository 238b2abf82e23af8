"""A fixed reference kernel that tracks how fast the machine runs right now.

On a shared host, other tenants use the same cores. The speed of one
process then drifts by tens of percent over minutes, which is more than
any regression bound. The benchmark therefore runs this kernel between
ops. It uses the same kinds of work as gridscreen: a LAPACK solve, a small
GEMM, a Python loop over numpy scalars, and JSON encoding. Each time is
scaled by ``REFERENCE_MS / kernel_ms``, where ``kernel_ms`` is the mean
kernel time within ``WINDOW_S`` of the timed interval. The mean, not the
median, because the kernel's times are bimodal: a core is either shared at
that moment or it is not. The scaled time is what the op would take on a
machine where the kernel takes ``REFERENCE_MS``. The kernel never calls
gridscreen, so a change to the program cannot move it. Raw times are
reported next to the scaled ones.
"""

from __future__ import annotations

import json
import time

import numpy as np

REFERENCE_MS = 1.0    # about the kernel's time on an idle 2-vCPU x86-64 VM, OpenBLAS, 1 thread
WINDOW_S = 1.0        # kernel runs this close to a timed interval set its scale
EVERY_S = 0.05        # least time between two kernel runs in the op loop
_N = 40


class SpeedClock:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.random((_N, _N)) + _N * np.eye(_N)
        self._b = rng.random((_N, 2 * _N))
        self.samples: list[float] = []     # kernel ms
        self.times: list[float] = []       # perf_counter at the middle of each kernel run
        self._last = -np.inf

    def _kernel(self) -> float:
        acc = 0.0
        for _ in range(3):
            w = np.linalg.solve(self._a, self._b)
            g = w.T @ self._a
            for i in range(_N):
                if w[i, 0] > 0:
                    acc += float(w[i, 1]) / float(w[i, 0]) + float(g[i, i])
            acc += len(json.dumps(w[:4].tolist()))
        return acc

    def sample(self):
        t0 = time.perf_counter()
        self._kernel()
        self._last = time.perf_counter()
        self.samples.append(1e3 * (self._last - t0))
        self.times.append(0.5 * (t0 + self._last))

    def sample_several(self, n: int = 5):
        for _ in range(n):
            self.sample()

    def tick(self):
        """Run the kernel if EVERY_S has passed since its last run."""
        if time.perf_counter() - self._last >= EVERY_S:
            self.sample()

    def scale(self, start: float = -np.inf, end: float = np.inf) -> float:
        """Factor that turns a time measured over [start, end] into reference-speed time."""
        times = np.asarray(self.times)
        near = (times >= start - WINDOW_S) & (times <= end + WINDOW_S)
        samples = np.asarray(self.samples)[near] if near.any() else np.asarray(self.samples)
        return REFERENCE_MS / float(samples.mean())
