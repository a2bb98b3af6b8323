"""Correctness oracle for the benchmark's outputs, independent of fitroute.

It builds its own adjacency from a topology's link list and runs its own
breadth-first search; it calls neither `bfs_hops` nor `verify_claims`. Each
check returns the problems it found, an empty list when the answer is right.
"""

from __future__ import annotations

from collections import deque


class Graph:
    """Undirected graph of (a, b, bandwidth) links over nodes 0..n-1."""

    def __init__(self, n: int, links):
        self.n = n
        self.bandwidth = {(min(a, b), max(a, b)): bw for a, b, bw in links}
        self._full_adj = self._adjacency(0.0)
        self._full_hops: dict[int, dict[int, int]] = {}
        self._feasible: tuple[float, list, dict] | None = None

    def _adjacency(self, demand: float) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for (a, b), bw in self.bandwidth.items():
            if bw >= demand:
                adj[a].append(b)
                adj[b].append(a)
        return adj

    @staticmethod
    def _bfs(adj: list[list[int]], src: int) -> dict[int, int]:
        hops = {src: 0}
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if v not in hops:
                    hops[v] = hops[u] + 1
                    queue.append(v)
        return hops

    def full_hops(self, src: int) -> dict[int, int]:
        """Hop distance from src over every link; unreachable nodes absent."""
        if src not in self._full_hops:
            self._full_hops[src] = self._bfs(self._full_adj, src)
        return self._full_hops[src]

    def feasible_hops(self, src: int, demand: float) -> dict[int, int]:
        """Hop distance from src over the links that carry `demand`.

        Only the most recent demand's graph is kept: the stream workload
        draws a new demand for nearly every request.
        """
        if self._feasible is None or self._feasible[0] != demand:
            self._feasible = (demand, self._adjacency(demand), {})
        _, adj, cache = self._feasible
        if src not in cache:
            cache[src] = self._bfs(adj, src)
        return cache[src]


def graph_of(t) -> Graph:
    """Oracle graph of a fitroute Topology, read from its public link list."""
    return Graph(t.n, ((l.a, l.b, l.bandwidth) for l in t.links))


def path_problems(g: Graph, path, src: int, dst: int,
                  demand: float | None) -> list[str]:
    """A src->dst path must be simple and made of links; with a demand,
    every link must carry it."""
    if not path:
        return ["empty path"]
    problems = []
    if path[0] != src or path[-1] != dst:
        problems.append(f"path runs {path[0]}->{path[-1]}, query is {src}->{dst}")
    if len(set(path)) != len(path):
        problems.append("path repeats a node")
    for u, v in zip(path, path[1:]):
        bw = g.bandwidth.get((min(u, v), max(u, v)))
        if bw is None:
            problems.append(f"step {u}-{v} is not a link")
        elif demand is not None and bw < demand:
            problems.append(f"link {u}-{v} carries {bw!r} < demand {demand!r}")
    return problems


def fitness_problems(g: Graph, src: int, dst: int, demand: float,
                     status: str, hops: int | None, path) -> list[str]:
    """The fitness engine's answer: outcome class from full vs pruned
    reachability, and a route whose hop count is the pruned BFS distance."""
    feasible = g.feasible_hops(src, demand)
    if dst in feasible:
        expected = "route"
    elif dst in g.full_hops(src):
        expected = "no_bandwidth"
    else:
        expected = "unreachable"
    if status != expected:
        return [f"status {status}, expected {expected}"]
    if status != "route":
        return []
    problems = path_problems(g, path, src, dst, demand)
    if hops != len(path) - 1:
        problems.append(f"hops {hops} != path length {len(path) - 1}")
    if hops != feasible[dst]:
        problems.append(f"hops {hops} != pruned BFS distance {feasible[dst]}")
    return problems


def dv_problems(g: Graph, src: int, dst: int, infinity: int,
                hops: int | None, path) -> list[str]:
    """The distance-vector answer: the full-graph BFS distance, or none
    when that distance reaches the infinity metric."""
    dist = g.full_hops(src).get(dst)
    expected = dist if dist is not None and dist < infinity else None
    if hops != expected:
        return [f"dv hops {hops}, expected {expected}"]
    if path is None:
        return [] if hops is None else ["dv hops without a path"]
    problems = path_problems(g, path, src, dst, None)
    if hops != len(path) - 1:
        problems.append(f"dv hops {hops} != path length {len(path) - 1}")
    return problems


def report_problems(doc: dict) -> list[str]:
    """Report-wide checks of a `compare --format json` document."""
    s = doc["summary"]
    rows = doc["rows"]
    problems = []
    if s["violations"]:
        problems.append(f"{len(s['violations'])} claim violations reported")
    if s["rows"] != len(rows):
        problems.append(f"summary counts {s['rows']} rows, report has {len(rows)}")
    parts = s["ff_wins"] + s["ties"] + s["ff_longer"] + s["refusals"] + s["unreachable"]
    if parts != len(rows):
        problems.append(f"summary classes add up to {parts}, not {len(rows)}")
    refusals = sum(r["ff_status"] == "no_bandwidth" for r in rows)
    if s["refusals"] != refusals:
        problems.append(f"summary counts {s['refusals']} refusals, rows hold {refusals}")
    return problems


def row_problems(g: Graph, row: dict, demand: float, infinity: int) -> list[str]:
    """Both engines' answers in one row of a `compare --format json` report."""
    return (fitness_problems(g, row["src"], row["dst"], demand, row["ff_status"],
                             row["ff_hops"], row["ff_path"])
            + dv_problems(g, row["src"], row["dst"], infinity,
                          row["dv_hops"], row["dv_path"]))


def outcome_problems(g: Graph, req, outcome) -> list[str]:
    """One `select_route` outcome for a RouteRequest."""
    return fitness_problems(g, req.src, req.dst, req.demand, outcome.status,
                            getattr(outcome, "hops", None),
                            getattr(outcome, "path", None))
