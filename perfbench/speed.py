"""The machine's speed over time, from a fixed pure-Python probe.

The machine the benchmark was built on runs the same code up to 2x slower
for tens of seconds at a time, when other tenants load it.  The probe is a
few breadth-first searches over a fixed graph in plain Python (dicts, lists,
a deque, integer bit operations), like the library's inner loops, and it
does not call the library, so a change to sparsekit does not change it.  A
timed interval is rescaled by REFERENCE_S over the probe time measured around
it: the reported times are what the interval would have taken at the speed
where the probe takes REFERENCE_S.

A workload whose jobs are other processes gives its own probe and reference
time (`cli_roundtrip.make_speed`): the in-process probe does not follow the
speed of a process start.
"""

from __future__ import annotations

import random
import time
from collections import deque

# A round value near the probe's time on the machine the benchmark was built
# on (Intel Xeon vCPU, 2.1 GHz, CPython 3.11) in its quieter spells.  It only
# scales every reported time.
REFERENCE_S = 0.004
# Longest gap between probes while jobs run.
PROBE_EVERY_S = 0.2


def _probe_graph(n: int = 4000):
    rng = random.Random(0)
    adj = [[] for _ in range(n)]
    for _ in range(3 * n // 2):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            adj[u].append(v)
            adj[v].append(u)
    return adj


_GRAPH = _probe_graph()


def _timed_probe() -> float:
    t0 = time.perf_counter()
    _probe()
    return time.perf_counter() - t0


def _probe() -> int:
    total = 0
    for source in (0, 1):
        dist = {source: 0}
        queue = deque([source])
        mask = 0
        while queue:
            u = queue.popleft()
            mask |= 1 << (u & 63)
            for w in _GRAPH[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        total += len(dist) + (mask & 7)
    return total


class Speed:
    """Probe times along the run; `factor` rescales an interval.

    `run_probe` runs the probe once and returns its time; the default is the
    plain-Python probe above, timed on the wall clock."""

    def __init__(self, run_probe=_timed_probe, reference_s: float = REFERENCE_S,
                 every_s: float = PROBE_EVERY_S, warmup: int = 20):
        self._run_probe = run_probe
        self.reference_s = reference_s
        self.every_s = every_s
        for _ in range(warmup):  # let the interpreter specialize the probe
            run_probe()
        self.probes = []  # (end time, duration)

    def probe(self, times: int = 1) -> None:
        for _ in range(times):
            d = self._run_probe()
            self.probes.append((time.perf_counter(), d))

    def probe_if_due(self) -> None:
        if not self.probes or time.perf_counter() - self.probes[-1][0] >= self.every_s:
            self.probe()

    def mark(self) -> int:
        """Index of the latest probe; an interval started after it."""
        return len(self.probes) - 1

    def factor(self, mark: int) -> float:
        """The reference time over the median of the three probes before and
        the three after an interval that started after probe `mark` (call
        once a later probe exists)."""
        near = sorted(d for _, d in self.probes[max(0, mark - 2):mark + 4])
        return self.reference_s / near[len(near) // 2]

    def summary(self) -> dict:
        times = sorted(d for _, d in self.probes)
        return {"probes": len(times), "probe_min_s": times[0],
                "probe_median_s": times[len(times) // 2], "probe_max_s": times[-1]}
