"""Op times at a fixed reference CPU speed.

On a shared host the CPU speed drifts between modes up to 1.7x apart that
last seconds at a time. Wall-clock medians of the same code then differ
between runs by more than the benchmark's bounds. So every timed phase runs a
fixed pure-Python probe, which calls nothing in flsolve, about every GAP_S
seconds between ops. Each op's wall time is scaled by PROBE_REF_S over the
median time of the probes nearest to it, which turns it into time at the
reference speed: the speed at which one probe takes PROBE_REF_S.

The probe runs outside the ops, so their wall times do not include it. A
change to flsolve moves the scaled times as much as the wall times; a change
in host speed moves the probe and the ops alike and cancels out.
"""

from __future__ import annotations

import bisect
import re
import statistics
import time
from array import array
from fractions import Fraction

perf = time.perf_counter
# A reference millisecond ("ref-ms") is the time of 2 probes. The probe
# takes about this long on the 2-vCPU host the benchmark was tuned on, so
# ref-ms there read close to wall-clock ms.
PROBE_REF_S = 500e-6
GAP_S = 0.02
# An op is scaled by the median of this many probes before and after it.
WINDOW = 4

_TOKEN = re.compile(r"[a-z]+|\d+|\S")
_TEXT = " ".join(
    f"v{i} = [add](v{i - 1}, {i * 7 % 13}) # {i} + 3 = {i + 3}" for i in range(1, 40)
)


def probe() -> int:
    """Tokenize, count and add fractions: the kind of work flsolve does."""
    counts: dict[str, int] = {}
    for token in _TOKEN.findall(_TEXT):
        counts[token] = counts.get(token, 0) + 1
    total = Fraction(0)
    for i in range(1, 60):
        total += Fraction(i, i + 1)
    return len(counts) + total.denominator % 7


class HostSpeed:
    """Probe times through a timed phase, and op times scaled by them."""

    def __init__(self) -> None:
        self.at = array("d")
        self.took = array("d")
        self._due = 0.0

    def tick(self) -> None:
        """Run the probe if GAP_S has passed since the last one."""
        t = perf()
        if t < self._due:
            return
        probe()
        self.at.append(t)
        self.took.append(perf() - t)
        self._due = t + GAP_S

    def probe_s(self) -> float:
        return statistics.median(self.took)

    def scaled(self, starts, durations) -> array:
        """Each op's seconds at the reference speed."""
        n = len(self.took)
        if n == 0:
            raise RuntimeError("the timed phase ran no probe")
        # local[i] serves ops that start between probe i - 1 and probe i.
        local = [
            statistics.median(self.took[max(0, i - WINDOW): min(n, i + WINDOW)])
            for i in range(n + 1)
        ]
        return array("d", (
            d * PROBE_REF_S / local[bisect.bisect(self.at, t)]
            for t, d in zip(starts, durations)
        ))
