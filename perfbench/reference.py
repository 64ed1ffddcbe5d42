"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared host the speed of one core drifts by up to 2x within seconds
(other tenants on the same physical core, frequency changes), and a
process's CPU time drifts with it, so neither wall nor CPU time repeats
from run to run. The kernel below does a fixed amount of the kind of work
fixquant does (small per-position einsums like ``tensor_core.conv2d``,
elementwise rounding over histogram-sized vectors, interpreter-bound
Python) and never calls fixquant, so no change to the library moves it.
A ``Timeline`` times it every ``SEGMENT_S`` or so at the boundaries the
workloads mark, which cuts the run into segments of known speed; any
interval measured inside the run is then converted to nominal seconds by
weighting its overlap with each segment by ``NOMINAL_S / kernel time``.
Time spent in the kernel lies in no segment, so it never counts.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Typical kernel time on the machine the bounds were set on (2-vCPU x86_64
# VM, Python 3.11, numpy 2.4, one BLAS thread). It only sets the scale:
# nominal seconds are seconds at the speed where the kernel takes this long.
NOMINAL_S = 0.008

_rng = np.random.default_rng(20220121)
_IMG = _rng.normal(size=(8, 8, 34, 18))
_W = _rng.normal(size=(8, 8, 3, 3))
_VEC = _rng.normal(size=2048)


def _kernel() -> float:
    acc = 0.0
    for i in range(32):
        for j in range(16):
            patch = _IMG[:, :, i : i + 3, j : j + 3]
            acc += float(np.einsum("ncij,ocij->no", patch, _W)[0, 0])
    for k in range(100):
        x = _VEC / (0.01 + 0.001 * k)
        q = np.clip(np.sign(x) * np.floor(np.abs(x) + 0.5), -128, 127)
        acc += float(np.dot(q, _VEC))
    acc += sum(len(str(n)) for n in range(1000))
    return acc


# Shortest segment between two kernel timings.
SEGMENT_S = 0.3


def kernel_seconds(tries: int = 2) -> float:
    """Fastest of a few back-to-back kernel timings, so one interrupt does not count."""
    best = float("inf")
    for _ in range(tries):
        t = perf_counter()
        _kernel()
        best = min(best, perf_counter() - t)
    return best


def speed(before: float, after: float) -> float:
    """Factor that turns timings made between two kernel timings into nominal ones."""
    return NOMINAL_S / (0.5 * (before + after))


class Timeline:
    """Segments of a run with the machine speed measured around each.

    ``mark()`` closes the current segment when it is at least SEGMENT_S
    long (or when forced) and times the kernel; with ``sample=False`` it
    never times the kernel and every segment has factor 1.
    """

    def __init__(self, sample: bool = True):
        self.sample = sample
        self.segments: list[tuple[float, float, float]] = []
        self._kernel = kernel_seconds() if sample else NOMINAL_S
        self._start = perf_counter()

    def mark(self, force: bool = False) -> None:
        now = perf_counter()
        if not force and (not self.sample or now - self._start < SEGMENT_S):
            return
        k = kernel_seconds() if self.sample else NOMINAL_S
        self.segments.append((self._start, now, speed(self._kernel, k)))
        self._kernel = k
        self._start = perf_counter()

    def seconds(self, a: float, b: float, nominal: bool = True) -> float:
        """Time in [a, b] outside kernel timings; at nominal speed unless ``nominal`` is false."""
        total = 0.0
        for start, end, factor in self.segments:
            overlap = min(b, end) - max(a, start)
            if overlap > 0:
                total += overlap * factor if nominal else overlap
        return total
