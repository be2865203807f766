"""Timings corrected for the speed of a shared host.

On a host shared with other tenants the same code runs up to 1.6 times
slower for seconds to minutes at a time, and CPU time stretches with
wall time, so neither clock alone can tell a slower program from a
busier host. A fixed *probe* — 400 small numpy calls and dict stores
from an interpreter loop, the mix the program itself runs — is timed
beside the work, and each timing is scaled by ``REFERENCE_S / probe``.
The result is in *reference seconds*: seconds of a host that runs the
probe in exactly ``REFERENCE_S`` of CPU time. Only the host's speed
cancels; a change to the program moves the work's time, never the
probe's.

Two ways to probe, by where the work runs:

* :class:`Bracket` probes on the timing thread between its calls, for
  work that runs on that thread. Contention on a shared host is per
  CPU, so a probe on the same thread tracks it best.
* :class:`Sampler` probes on a thread of its own every ``INTERVAL_S``,
  for work that runs in other processes across every CPU. It times the
  probe in thread CPU time, so sharing a CPU with that work does not
  count as a slower host.
"""

from __future__ import annotations

import gc
import os
import statistics
import threading
import time
from typing import Any, Callable, List, Tuple

import numpy as np

__all__ = ["REFERENCE_S", "Bracket", "Sampler", "probe"]

#: CPU seconds the probe takes on a reference host.
REFERENCE_S = 1.0e-3

#: How often a :class:`Sampler` probes.
INTERVAL_S = 0.05

_VALUES = np.random.default_rng(0).random(256)

# A process forked mid-probe (a sweep pool worker, while a Sampler
# probes) would start with the collector off; forks wait for the probe.
_PROBING = threading.Lock()
os.register_at_fork(
    before=_PROBING.acquire,
    after_in_parent=_PROBING.release,
    after_in_child=_PROBING.release,
)


def probe() -> float:
    """CPU seconds this host takes for the probe right now."""
    with _PROBING:
        return _probe()


def _probe() -> float:
    # A collection inside the probe would charge it for the program's
    # heap, which a change to the program can grow.
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.thread_time()
        table = {}
        for i in range(400):
            table[i & 63] = float(np.cumsum(_VALUES)[-1])
        return time.thread_time() - start
    finally:
        if enabled:
            gc.enable()


class Bracket:
    """Scales each call by the mean of the probes just before and after
    it, taken on the calling thread."""

    def __init__(self) -> None:
        self.last = probe()

    def time(self, fn: Callable[[], Any]) -> Tuple[Any, float, float]:
        """``fn()``'s result, wall seconds and reference seconds."""
        start = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - start
        before, self.last = self.last, probe()
        return result, wall, wall * 2.0 * REFERENCE_S / (before + self.last)

    def close(self) -> None:
        pass


class Sampler:
    """Scales each call by the mean of the probes a background thread
    took while it ran."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            self.samples.append((time.perf_counter(), probe()))

    def time(self, fn: Callable[[], Any]) -> Tuple[Any, float, float]:
        """``fn()``'s result, wall seconds and reference seconds."""
        start = time.perf_counter()
        result = fn()
        end = time.perf_counter()
        during = [p for t, p in list(self.samples) if start <= t <= end]
        speed = statistics.fmean(during) if during else probe()
        return result, end - start, (end - start) * REFERENCE_S / speed

    def close(self) -> None:
        self._stop.set()
        self._thread.join()
