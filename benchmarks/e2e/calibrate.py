"""A fixed piece of work timed around every pass, to take host noise out.

This benchmark runs on small shared machines whose speed drifts: on the
host it was defined on, the same pass took between 1.15 s and 2.36 s
within four minutes, with process CPU time rising in step (so the time
was lost outside the guest, not to scheduling inside it).  A drift like
that is wider than any bound the metrics could carry.  The kernel below
does the same kinds of work as the program (random gathers, sorts and
binary searches over arrays larger than L2, many small NumPy calls,
plain interpreter loops) but none of the program's code, so no change
to the program can move it.  It runs before and after every timed
interval; the interval's time is divided by how much slower than
``NOMINAL_S`` the kernel ran next to it.  End-to-end times are therefore
seconds *at the host's nominal speed*; ``obs.calibration_factor`` in the
traced run says how far from nominal the run was.
"""

from __future__ import annotations

import time
from typing import List

import numpy as np

#: what one kernel run takes on the defining host when it is quiet
NOMINAL_S = 0.090


class Calibrator:
    """Runs the kernel and remembers how long each run took."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._big = rng.random(2_000_000)  # 16 MB: beyond L2, as the index arrays are
        self._idx = rng.integers(0, len(self._big), 300_000)
        self._keys = np.sort(rng.random(100_000))
        self._probes = rng.random(4096)
        self.samples: List[float] = []

    def sample(self) -> float:
        t0 = time.perf_counter()
        big, idx, keys, probes = self._big, self._idx, self._keys, self._probes
        acc = 0.0
        for _ in range(8):
            gathered = big[idx]
            acc += np.sort(gathered)[0]
        acc += np.searchsorted(keys, gathered[:60_000]).sum()
        for i in range(8000):  # the shape of per-query bookkeeping
            lo = np.searchsorted(keys, probes[i & 4095])
            acc += keys[lo : lo + 64].sum()
        for i in range(300_000):
            acc += i * i
        elapsed = time.perf_counter() - t0
        self.samples.append(elapsed)
        return elapsed

    def slowdown(self) -> float:
        """How much slower than nominal the host ran over the interval
        between the last two samples."""
        return (self.samples[-2] + self.samples[-1]) / 2 / NOMINAL_S
