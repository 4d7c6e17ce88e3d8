"""The host's speed, from a fixed calibration kernel timed between ops.

The benchmark runs on a few cores of a shared host whose speed moves
between levels up to 1.9x apart, for a second or for minutes at a time.
Wall and CPU time of the same code move together, so the slowdown is the
core's, not the scheduler's. A timed run therefore times this kernel right
before and right after each op, and reports every duration scaled to the
speed at which the kernel takes ``REFERENCE_S``:

    scaled = measured * REFERENCE_S / (mean of the kernel's two times)

The kernel is code of the kinds the library runs: numpy ufuncs on small
arrays, where dispatch dominates, and interpreted Python with objects,
method calls and dicts. Of the kernels tried, these tracked the library's
slowdown best (far-field scans and numeric amplitudes slowed 1.8-1.9x, the
scaled times 1.05-1.07x; numpy on large arrays left 1.12x).

A child process (set-up probe, CLI run) slows less than the kernel, since
it spends its time loading modules. Its calibration is a fresh interpreter
importing numpy, timed right before and right after it: scaled by that, a
`slabpdc preset fig4` process moved 1.01x between slow and fast phases
(0.93x scaled by the kernel). Neither calibration calls ``slabpdc``, so a
change of the library cannot change them.
"""

from __future__ import annotations

import difflib
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

# Typical time of calibrate() between ops on the 2-core Xeon (2.0 GHz) box
# the baseline in NOTES.md was taken on, Python 3.11, numpy 2.4; scaled
# durations read close to wall time there.
REFERENCE_S = 0.005
# The same for calibrate_process(), which scales child processes.
PROCESS_REFERENCE_S = 0.19
_X = np.linspace(0.0, 6.0, 400)


class _Line:
    def __init__(self, slope, offset):
        self.slope, self.offset = slope, offset

    def at(self, x):
        return self.slope * x + self.offset if x > 0 else -x


def calibrate():
    """Seconds the calibration kernel takes now: median of three runs."""
    return statistics.median(_kernel() for _ in range(3))


def _kernel():
    t0 = perf_counter()
    acc = 0.0
    for k in range(1, 61):
        z = np.exp(1j * k * _X) * np.sinc(_X / k)
        acc += float(np.abs(z).max()) + float(np.real(z).sum())
    sums = {}
    lines = [_Line(i, i + 1.0) for i in range(300)]
    for r in range(10):
        for line in lines:
            key = line.slope % 17
            sums[key] = sums.get(key, 0.0) + line.at(r - 3)
    difflib.SequenceMatcher(None, "abcde" * 20, "abdce" * 20).ratio()
    return perf_counter() - t0


def calibrate_process():
    """Seconds a fresh interpreter takes to start and import numpy now."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                   capture_output=True, timeout=60)
    return perf_counter() - t0
