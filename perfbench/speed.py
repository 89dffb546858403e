"""The host's speed, read from a fixed reference task run between instances.

The benchmark's host is a shared virtual machine whose speed drifts by
tens of per cent within seconds, and by up to a factor of two over
minutes.  The drift is common to all code: set-up, rounds and a fixed
loop slow down together.  So a round runs a short reference task, which
uses nothing from commwb, every ``PROBE_EVERY_S`` seconds between
instances, and reports each time also *at the reference speed*: scaled by
``REFERENCE_S`` over the mean duration of the probes just before and just
after it, the seconds it would take on a host that runs the reference
task in ``REFERENCE_S``.  Work done before the first probe, the set-up,
is scaled by the median of the first ``SETUP_WINDOW`` probes.  The probes
lie outside every timed region.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

# About the time of one reference task on the machine of the README's
# reference figures in a fast phase; only a scale, the same on every commit.
REFERENCE_S = 0.0035
PROBE_EVERY_S = 0.1
SETUP_WINDOW = 6

_TABLE = (np.arange(144, dtype=np.int64) * 5 % 12).reshape(12, 12)
_ROWS = (np.arange(16 * 12, dtype=np.int64) * 7 % 12).reshape(16, 12)
_LONG = np.arange(75_000, dtype=np.int64) * 7919 % 100_003


def reference_task() -> int:
    """A fixed mix of the three kinds of work the program does: by time
    about a quarter interpreter work (dict, tuple and set traffic), a
    half small numpy gathers and a quarter whole-array numpy passes.  Of
    the mixes tried, this one tracked the rounds of all three workloads
    best."""
    counts: dict = {}
    for i in range(1500):
        key = (i * 40503 % 257, i % 7)
        counts[key] = counts.get(key, 0) + 1
    seen = set()
    for key in sorted(counts):
        seen.add(key[0] ^ key[1])
    total = len(seen)
    rows = _ROWS
    for _ in range(12):
        grid = _TABLE[rows[:, None, :], rows[None, :, :]].reshape(-1, 12)
        rows = np.unique(grid, axis=0)[:16]
        total += int(rows.sum())
    total += int(np.sort(_LONG)[::3].sum() + _LONG[_LONG % 7 == 3].sum())
    return total


class Speedometer:
    """Runs the reference task at most every ``PROBE_EVERY_S`` when asked,
    and keeps each run's start, end and duration.  Segment ``k`` is the
    time from the end of probe ``k`` to the start of probe ``k + 1``."""

    def __init__(self):
        self.samples: list = []
        self.marks: list = []
        self.spent = 0.0

    def probe(self) -> None:
        # no collection of the program's objects inside a probe, which
        # would make a probe's time depend on the program's heap
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            reference_task()
            end = time.perf_counter()
        finally:
            if collecting:
                gc.enable()
        self.samples.append(end - start)
        self.marks.append((start, end))
        self.spent += end - start

    def maybe_probe(self) -> None:
        if time.perf_counter() - self.marks[-1][1] >= PROBE_EVERY_S:
            self.probe()

    def warm(self, n: int) -> None:
        """Runs the task ``n`` times, so the first probe does not pay for
        numpy's first calls, then probes ``SETUP_WINDOW`` times."""
        for _ in range(n):
            reference_task()
        for _ in range(SETUP_WINDOW):
            self.probe()

    def segment(self) -> int:
        """The segment running now."""
        return len(self.samples) - 1

    def factors(self) -> list:
        """For each segment, the factor from measured seconds to seconds at
        the reference speed, from the probes on either side of it (the
        last segment has only the one before it)."""
        s = self.samples
        return [REFERENCE_S / statistics.fmean(s[k:k + 2])
                for k in range(len(s))]

    def setup_factor(self) -> float:
        """The factor for work done before the first probe."""
        return REFERENCE_S / statistics.median(self.samples[:SETUP_WINDOW])

    def elapsed(self, first: int, factors: list) -> float:
        """Seconds at the reference speed from the end of probe ``first``
        to the start of the last probe, the probes left out."""
        return sum((self.marks[k + 1][0] - self.marks[k][1]) * factors[k]
                   for k in range(first, len(self.marks) - 1))
