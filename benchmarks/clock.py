"""Probe-calibrated time for a box whose speed drifts.

On the shared 2-vCPU reference box the same Python work runs up to 1.4x
slower from one half-minute to the next (raw run-to-run spread about 20%
of the median), and the two vCPUs slow each other down, so a second-core
monitor cannot help.  A tiny fixed probe, run from a SIGALRM handler every
``INTERVAL_S`` in the measuring process itself, tracks the current speed.
``Clock.warp`` maps a ``time.perf_counter()`` reading to *reference
seconds*: time spent in probes is removed, and each stretch between two
probes is scaled by ``REFERENCE_PROBE_S`` over the mean duration of its
two probes.  On a quiet box a reference second is about a real second.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

INTERVAL_S = 0.05
# about the median probe duration on the reference box (2-vCPU Xeon, 2.1 GHz)
REFERENCE_PROBE_S = 1.5e-3

_VEC = np.arange(8192, dtype=float)


def probe_kernel() -> None:
    """Fixed direct and FFT convolutions.

    Against interleaved runs of dense draws and exact laws, this numpy-heavy
    probe cut the normalized spread to 2-4%, where a pure-interpreter probe
    left 5-7%.
    """
    for _ in range(4):
        np.convolve(_VEC[:700], _VEC[:700])
        np.fft.irfft(np.fft.rfft(_VEC) * np.fft.rfft(_VEC))


class Clock:
    """Collects probes while running; converts times afterwards."""

    def __init__(self):
        self.probes: list[tuple[float, float]] = []
        self._old = None

    def _probe(self, *_sig) -> None:
        t0 = time.perf_counter()
        probe_kernel()
        self.probes.append((t0, time.perf_counter()))

    def start(self) -> None:
        self._probe()
        self._old = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        self._probe()
        self._index()

    def _index(self) -> None:
        """Cumulative reference seconds at each probe's end."""
        durs = [e - s for s, e in self.probes]
        self._starts = [s for s, _ in self.probes]
        self._ends = [e for _, e in self.probes]
        # gap i runs from probe i's end to probe i+1's start
        self._scale = [2.0 * REFERENCE_PROBE_S / (durs[i] + durs[i + 1]) for i in range(len(durs) - 1)]
        self._cum = [0.0]
        for i, k in enumerate(self._scale):
            self._cum.append(self._cum[-1] + k * (self._starts[i + 1] - self._ends[i]))
        self._edge = REFERENCE_PROBE_S / durs[0], REFERENCE_PROBE_S / durs[-1]

    def warp(self, t: float) -> float:
        """Reference seconds from the end of the first probe to ``t``."""
        if t <= self._ends[0]:
            return (t - self._starts[0]) * self._edge[0] if t < self._starts[0] else 0.0
        if t >= self._ends[-1]:
            return self._cum[-1] + (t - self._ends[-1]) * self._edge[1]
        i = bisect.bisect_right(self._ends, t) - 1  # last probe that ended by t
        gap_end = self._starts[i + 1]
        return self._cum[i] + self._scale[i] * (min(t, gap_end) - self._ends[i])

    def seconds(self, a: float, b: float) -> float:
        return self.warp(b) - self.warp(a)

    def slowdown(self, a: float, b: float) -> float:
        """Real seconds per reference second over [a, b]."""
        return (b - a) / self.seconds(a, b)
