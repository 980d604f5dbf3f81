"""How fast the host runs a fixed loop, sampled while a pipeline call runs.

On a small cloud VM the same call on the same input can take 1.7x longer
for seconds to minutes at a time: the host slows the whole core, and CPU
time stretches with wall time.  A short reference loop of the same kind of
work as the simulator (small numpy arrays, fancy indexing, scatter-add) is
timed every :data:`INTERVAL_S` of wall time from a ``SIGALRM`` handler, and
once before and once after the call.  Since the samples are spread evenly
over wall time, ``wall * mean(1 / sample)`` is the call's work in units of
the reference loop: a slow spell stretches the call and the samples alike.
The time the handler takes is counted and taken off the call's wall time.
"""
from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.1
_PARTICLES = 132
_PAIRS = 500
_REPEATS = 10     # about 1 ms per sample on the VM the benchmark was sized on


class HostSpeed:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._pos = rng.random((_PARTICLES, 3))
        self._acc = np.zeros((_PARTICLES, 3))
        self._i = rng.integers(0, _PARTICLES, _PAIRS)
        self._j = rng.integers(0, _PARTICLES, _PAIRS)
        self.samples: list[float] = []
        self.handler_s = 0.0
        self._installed = False

    def sample(self) -> float:
        """Time one pass of the reference loop and keep it."""
        start = time.perf_counter()
        for _ in range(_REPEATS):
            d = self._pos[self._j] - self._pos[self._i]
            dist = np.sqrt(np.einsum("ij,ij->i", d, d))
            force = np.zeros_like(self._pos)
            np.add.at(force, self._i, d * dist[:, None])
            self._acc += 1e-12 * force
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        return elapsed

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        self.sample()
        self.handler_s += time.perf_counter() - start

    def __enter__(self) -> "HostSpeed":
        # the handler stays installed once set, so an alarm that is already
        # on its way when the timer stops never meets the default action
        if not self._installed:
            signal.signal(signal.SIGALRM, self._on_alarm)
            self._installed = True
        self.samples = []
        self.handler_s = 0.0
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.sample()

    def work(self, wall_s: float) -> float:
        """``wall_s`` of pipeline time in units of the reference loop."""
        return wall_s * statistics.fmean(1.0 / s for s in self.samples)
