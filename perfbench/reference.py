"""Put solve times on a common scale while the host's speed drifts.

The host this benchmark was built on runs the same Python code at speeds up
to 2x apart, in spells from seconds to minutes (README.md gives the
figures). A short, fixed reference loop measures that speed: it runs right
before and right after each timed call, and from a timer signal every
INTERVAL_S during it. A call's normalised time is its wall time multiplied
by REFERENCE_S over the mean loop time seen around and during it, so it
reads as the wall time the call would take at the loop's reference speed.

The loop is min-degree elimination of a fixed graph on dict-of-set
adjacency, the same kind of interpreter work as twcount's hot paths, written
here so that no change to twcount moves it.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

# The loop's time on the reference host in its fast state (see README.md).
REFERENCE_S = 0.00035
INTERVAL_S = 0.04


def _graph(n: int = 40) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {v: set() for v in range(n)}
    for v in range(n):
        for step in (1, 5, 11):
            u = (v + step) % n
            adj[v].add(u)
            adj[u].add(v)
    return adj


_GRAPH = _graph()


def reference_loop() -> float:
    """Wall seconds of one min-degree elimination of the fixed graph.

    The garbage collector is off meanwhile: a full collection would scan
    whatever heap twcount keeps, and charge it to the loop instead of the
    call that made it.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        work = {v: set(s) for v, s in _GRAPH.items()}
        width = 0
        while work:
            v = min(work, key=lambda u: (len(work[u]), u))
            nbrs = work.pop(v)
            width = max(width, len(nbrs))
            for a in nbrs:
                work[a].discard(v)
                work[a] |= nbrs - {a}
        elapsed = time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()
    if width < 3:  # keeps the loop's result in use
        raise AssertionError(width)
    return elapsed


def normalised(wall_s: float, ref_s: float) -> float:
    """Wall seconds put on the scale of the reference speed."""
    return wall_s * REFERENCE_S / ref_s


class HostClock:
    """Times calls together with the host's speed during them."""

    def __init__(self) -> None:
        self._samples: list[float] = []
        self._spent = 0.0
        for _ in range(20):  # warm the loop up
            reference_loop()

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self._samples.append(reference_loop())
        self._spent += time.perf_counter() - start

    def measure(self, fn, *args):
        """Returns (fn's result, wall seconds less the sampling, mean loop
        seconds)."""
        self._samples = [reference_loop()]
        self._spent = 0.0
        previous = signal.signal(signal.SIGALRM, self._tick)
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            wall = time.perf_counter() - start
            signal.signal(signal.SIGALRM, previous)
        wall -= self._spent
        self._samples.append(reference_loop())
        return result, wall, statistics.fmean(self._samples)
