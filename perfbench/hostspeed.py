"""Host speed reference: a fixed kernel timed between operations.

On a shared host the speed of the CPU a run gets drifts by tens of
percent over seconds to minutes (other tenants' load on the same cores
and caches).  Every run interleaves short *slices* of a fixed reference
kernel with its operations and records how long each slice took.  An
operation's wall time divided by the local slowdown (the median of the
slices around it over :data:`NOMINAL_SLICE_S`) is its time on a host
running at the reference speed; the end-to-end metrics are computed
from those rescaled times.

The kernel mixes the kinds of work the program does: an interpreted
dict/list loop (netsim, metadata), a numpy table gather and XOR plus
SHA-1 (erasure coding, chunking, object names) and a small
``scipy.optimize.linprog`` HiGHS solve (download selection).  Its
inputs are fixed, and nothing in it depends on the code under
``src/``, so a change to the program moves the rescaled times by as
much as it moves the raw ones.  The garbage collector is off during a
slice, so the program's heap does not add collection pauses to it.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import statistics
import time

import numpy as np
from scipy.optimize import linprog

#: median slice time on the reference host: a 2-core 2.1 GHz Xeon VM
#: (Python 3, numpy 2.4, scipy 1.17) with no other load
NOMINAL_SLICE_S = 0.0080
#: minimum wall time between two slices
SLICE_EVERY_S = 0.15
#: slices on each side of an operation that set its local slowdown
NEIGHBOURS = 2

_rng = np.random.default_rng(20150421)
_BUF = _rng.integers(0, 256, size=1 << 18, dtype=np.uint8)
_TABLE = _rng.integers(0, 256, size=(256, 256), dtype=np.uint8)
_COST = _rng.random(14)
_RATES = _rng.random((7, 14))
_DEMAND = _rng.random(7) + 1.0


def _interpreted() -> int:
    table: dict[int, float] = {}
    for i in range(15000):
        key = i % 97
        table[key] = table.get(key, 0.0) * 0.5 + i
    return len(sorted(table.items()))


def _vector() -> bytes:
    mixed = _TABLE[7][_BUF]
    mixed ^= _TABLE[11][_BUF]
    return hashlib.sha1(mixed.tobytes()).digest()


def _solve() -> float:
    return linprog(_COST, A_ub=-_RATES, b_ub=-_DEMAND, bounds=(0, 1),
                   method="highs").fun


def run_slice() -> float:
    """Run the reference kernel once; returns its wall seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _interpreted()
        _vector()
        _solve()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """Slices taken during a run, and the slowdown they imply."""

    def __init__(self) -> None:
        self.at: list[float] = []  # slice midpoints (perf_counter)
        self.took: list[float] = []  # slice durations
        self._last = float("-inf")

    def tick(self) -> None:
        t0 = time.perf_counter()
        took = run_slice()
        self.at.append(t0 + took / 2)
        self.took.append(took)
        self._last = t0 + took

    def maybe_tick(self) -> None:
        """Take a slice if :data:`SLICE_EVERY_S` has passed since the last."""
        if time.perf_counter() - self._last >= SLICE_EVERY_S:
            self.tick()

    def slowdown(self, t: float) -> float:
        """Local slice time at ``t`` over the nominal one (1.0: reference
        speed; 1.3: the host ran 30% slower)."""
        if not self.took:
            return 1.0
        i = bisect.bisect_left(self.at, t)
        near = self.took[max(0, i - NEIGHBOURS):i + NEIGHBOURS]
        return statistics.median(near) / NOMINAL_SLICE_S

    def rescale(self, start: float, seconds: float) -> float:
        """Wall seconds measured from ``start`` at the reference speed."""
        return seconds / self.slowdown(start + seconds / 2)
