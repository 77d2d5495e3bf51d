"""Speed probe: how fast the processor runs a fixed piece of Python while a
benchmark child works.

The benchmark runs on a shared VM whose speed drifts by tens of percent
within seconds and minutes, so raw times of runs made minutes apart differ
more than any change worth measuring.  Every benchmark child starts the
probe first: a SIGALRM every INTERVAL_S runs CHUNK_ITERATIONS steps of a
fixed integer loop in the child's main thread, between the child's own
bytecodes, and times them.  The mean chunk time, without the slowest and
fastest TRIM of the samples, measures the child's speed over the time it
ran; `run.py` multiplies the child's times by REF_CHUNK_S over it (see
`reference_seconds`).  A mean
rather than a median, because a child's time is the sum of its slow and
fast stretches; trimmed, because a sample the kernel preempted says nothing
about speed.

The probe costs about 1.5% of the child's time: a ~0.3 ms chunk every 20 ms.
"""

from __future__ import annotations

import signal
import statistics
import time

INTERVAL_S = 0.02
CHUNK_ITERATIONS = 3000
MIN_SAMPLES = 5
TRIM = 0.1


def _chunk() -> int:
    s = 0
    for k in range(CHUNK_ITERATIONS):
        s = (s * 31 + k) % 1000003
    return s


class Probe:
    """Timed chunks on SIGALRM between `start` and `stop`.  Owns the
    process's SIGALRM handler and real-time interval timer meanwhile."""

    def __init__(self):
        self.samples: list[float] = []

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        _chunk()
        self.samples.append(time.perf_counter() - start)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> dict:
        """Stop sampling; {"samples": n, "chunk_s": trimmed mean chunk time}.
        A child too short for MIN_SAMPLES timer samples takes the rest at once."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        while len(self.samples) < MIN_SAMPLES:
            self._sample()
        ordered = sorted(self.samples)
        cut = int(len(ordered) * TRIM)
        return {"samples": len(ordered), "chunk_s": statistics.fmean(ordered[cut:len(ordered) - cut])}
