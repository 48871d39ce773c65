"""Machine-speed probe: a fixed numpy kernel timed between ops.

On a shared host one core's speed drifts by tens of percent over seconds to
minutes, far more than the differences the benchmark has to resolve. The
kernel below does the kinds of work gpexact spends its time on (complex
exponentials over arrays larger than the L2 cache, FFTs, and many small
numpy calls from Python), so its time rises and falls with the ops'. An op's
wall time multiplied by ``REFERENCE_S / (kernel time around the op)`` is its
time at reference speed: the speed at which the kernel takes REFERENCE_S.

The kernel is part of the benchmark, never of the program under test, so two
versions of gpexact are always compared against the same yardstick.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.008   # kernel time that defines reference speed
MIN_GAP_S = 0.25      # probe at most this often between short ops
NEAR_S = 1.0          # probes this close to an op describe its speed


class SpeedProbe:
    def __init__(self):
        self._phase = np.linspace(0.0, 50.0, 1 << 18)
        self._wave = np.empty(self._phase.size, dtype=complex)
        self._signal = np.exp(1j * np.linspace(0.0, 1.0, 1 << 16)) \
            .reshape(16, 4096)
        self._mat = 0.5 * np.eye(4)
        self.samples: list[tuple[float, float]] = []   # (midpoint, seconds)

    def _kernel(self) -> float:
        t0 = time.perf_counter()
        np.multiply(1j, self._phase, out=self._wave)
        np.exp(self._wave, out=self._wave)
        spec = np.fft.fft(self._signal, axis=1)
        vec = np.ones(4)
        for _ in range(300):
            vec = self._mat @ vec + 1.0
        float(self._wave[-1].real + spec[-1, -1].real + vec[-1])
        return time.perf_counter() - t0

    def measure(self) -> None:
        """Best of two kernel runs, so that one interrupt does not count."""
        t0 = time.perf_counter()
        best = min(self._kernel(), self._kernel())
        self.samples.append((0.5 * (t0 + time.perf_counter()), best))

    def measure_if_due(self) -> None:
        if time.perf_counter() - self.samples[-1][0] >= MIN_GAP_S:
            self.measure()

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S over the kernel's median time around [start, end]:
        the last probe before the op, the first after it, and any other
        within NEAR_S of it."""
        before = [d for t, d in self.samples if t <= start]
        after = [d for t, d in self.samples if t >= end]
        near = [d for t, d in self.samples
                if start - NEAR_S <= t <= end + NEAR_S]
        return REFERENCE_S / statistics.median(near + before[-1:] + after[:1])
