"""Fixed calibration loops, timed next to every measurement.

On a shared host the same work takes from one to about two times as long
from one second to the next, as other tenants come and go. Pure-Python work
slows by much the same factor at the same moment, so the benchmark times a
fixed loop of its own right before and after each measurement and reports
the measured time scaled by the loop's nominal time over its time then: the
time the work would take on a host where the loop takes its nominal time.
A loop is a hop-then-cost Dijkstra over a fixed random graph, the same kind
of work as fitroute's tree search, and uses nothing from fitroute, so a
change to the program moves only the measured side of the ratio.

SHORT runs between each two `select_route` calls, cheap enough to leave the
calls most of a pass. LONG brackets each `run_cli` call and set-up build:
its working set is nearer theirs, and it follows a host that slows memory
more than arithmetic better than SHORT does.
"""

from __future__ import annotations

import heapq
import random
import statistics
import time


class Loop:
    """A Dijkstra from node 0 over a fixed random graph with `nodes` nodes
    and `links` links (parallel links allowed), nominal time `nominal_s`."""

    def __init__(self, nodes: int, links: int, nominal_s: float):
        rng = random.Random(0)
        self.adj: list[list[tuple[int, float]]] = [[] for _ in range(nodes)]
        for _ in range(links):
            a, b = rng.sample(range(nodes), 2)
            w = rng.random()
            self.adj[a].append((b, w))
            self.adj[b].append((a, w))
        self.nominal_s = nominal_s

    def _run(self) -> int:
        best = {0: (0, 0.0)}
        heap = [(0, 0.0, 0)]
        done = set()
        while heap:
            hops, cost, u = heapq.heappop(heap)
            if u in done:
                continue
            done.add(u)
            for v, w in self.adj[u]:
                cand = (hops + 1, cost + w)
                if v not in best or cand < best[v]:
                    best[v] = cand
                    heapq.heappush(heap, (cand[0], cand[1], v))
        return len(done)

    def time_s(self, k: int = 1) -> float:
        """Median wall time of k runs of the loop."""
        times = []
        for _ in range(k):
            start = time.perf_counter()
            self._run()
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    def scale(self, seconds: float, before: float, after: float) -> float:
        """`seconds` measured between loop times `before` and `after`, scaled
        to a host where the loop takes its nominal time."""
        return seconds * 2 * self.nominal_s / (before + after)


# nominal times: each loop's fastest time on a 2-vCPU Xeon VM under Python 3.11
SHORT = Loop(150, 450, nominal_s=2.3e-4)
LONG = Loop(2000, 4000, nominal_s=3.0e-3)
LONG_RUNS = 3   # runs of LONG, median taken, on each side of a measurement
