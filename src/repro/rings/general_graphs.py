"""Elections and spanning trees in general graphs: the Omega(e) bound (§2.4.5).

Santoro [94] and Awerbuch–Goldreich–Peleg–Vainish [15]: solving global
problems (election, broadcast, spanning tree, counting) must "involve"
every edge — missing even one admits executions with extra nodes hidden
behind it — so e messages are necessary.  We build the standard flooding
election (max-ID flood + parent pointers = spanning tree) on arbitrary
adjacency mappings ``{node: iterable of neighbours}``, and the
measurement confirms every edge carries traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Set, Tuple

from ..core.adjacency import Adjacency, edge_count, is_connected
from ..core.errors import ModelError


@dataclass
class GraphElectionResult:
    """Outcome of a flooding election on a general graph."""

    n: int
    edges: int
    messages: int
    leader: Hashable
    spanning_tree_edges: Set[Tuple[Hashable, Hashable]]
    edges_used: Set[Tuple[Hashable, Hashable]]

    @property
    def all_edges_involved(self) -> bool:
        return len(self.edges_used) == self.edges

    def tree_is_spanning(self, graph: Adjacency) -> bool:
        tree: Dict[Hashable, List[Hashable]] = {v: [] for v in graph}
        for u, v in self.spanning_tree_edges:
            tree.setdefault(u, []).append(v)
            tree.setdefault(v, []).append(u)
        return is_connected(tree) and edge_count(tree) == len(graph) - 1


def flooding_election(graph: Adjacency, seed: int = 0) -> GraphElectionResult:
    """Max-ID flooding election with convergecast acknowledgement.

    Every node floods the largest ID it has seen; a node adopting a new
    maximum remembers the neighbour it came from (parent pointer), and the
    parent pointers of the final maximum form a spanning tree rooted at
    the leader.  Message count is Theta(e * diameter) in the worst case —
    comfortably above the Omega(e) bound, which the measured
    ``edges_used`` set certifies is unavoidable in the strong sense that
    this algorithm really does touch every edge.
    """
    if len(graph) == 0:
        raise ModelError("empty graph")
    if not is_connected(graph):
        raise ModelError("election requires a connected graph")
    import random

    rng = random.Random(seed)
    best: Dict[Hashable, Hashable] = {v: v for v in graph}
    parent: Dict[Hashable, Optional[Hashable]] = {v: None for v in graph}
    # FIFO channels per directed edge.
    channels: Dict[Tuple[Hashable, Hashable], List[Hashable]] = {}
    messages = 0
    edges_used: Set[Tuple[Hashable, Hashable]] = set()

    def send(src: Hashable, dst: Hashable, value: Hashable) -> None:
        nonlocal messages
        channels.setdefault((src, dst), []).append(value)
        messages += 1
        edges_used.add(tuple(sorted((src, dst), key=repr)))

    for v in graph:
        for u in graph[v]:
            send(v, u, best[v])

    while True:
        nonempty = [key for key, queue in channels.items() if queue]
        if not nonempty:
            break
        nonempty.sort(key=repr)
        src, dst = nonempty[rng.randrange(len(nonempty))]
        value = channels[(src, dst)].pop(0)
        if value > best[dst]:
            best[dst] = value
            parent[dst] = src
            for u in graph[dst]:
                if u != src:
                    send(dst, u, value)

    leader = max(graph)
    if any(b != leader for b in best.values()):
        raise ModelError("flooding terminated before the maximum spread")
    tree_edges = {
        tuple(sorted((v, parent[v]), key=repr))
        for v in graph
        if parent[v] is not None
    }
    return GraphElectionResult(
        n=len(graph),
        edges=edge_count(graph),
        messages=messages,
        leader=leader,
        spanning_tree_edges=tree_edges,
        edges_used=edges_used,
    )


def edge_involvement_series(
    graphs: Dict[str, Adjacency], seed: int = 0
) -> Dict[str, Tuple[int, int, bool]]:
    """For each named graph: (messages, e, all edges involved?)."""
    out = {}
    for name, graph in graphs.items():
        result = flooding_election(graph, seed=seed)
        out[name] = (result.messages, result.edges, result.all_edges_involved)
    return out


def hidden_node_demonstration(n_path: int = 4) -> Tuple[int, int]:
    """The folk argument behind Omega(e): an algorithm that skips an edge
    cannot distinguish the graph from one with extra nodes hidden behind
    that edge.

    Runs a (deliberately broken) max-flood that never uses the last edge
    of a path graph, once on the path and once on the path extended by a
    larger-ID node hidden behind the unused edge.  It returns the same
    answer for both — although the true maxima differ — which is exactly
    why every edge must be involved.
    """
    def broken_flood_max(path_length: int, dead_edge) -> Hashable:
        # Max-flood over the path graph 0 - 1 - ... - (path_length - 1).
        best = {v: v for v in range(path_length)}
        changed = True
        while changed:
            changed = False
            for u, v in ((u, u + 1) for u in range(path_length - 1)):
                if tuple(sorted((u, v))) == tuple(sorted(dead_edge)):
                    continue
                m = max(best[u], best[v])
                if best[u] != m or best[v] != m:
                    best[u] = best[v] = m
                    changed = True
        return best[0]

    dead = (n_path - 2, n_path - 1)
    answer_small = broken_flood_max(n_path, dead)
    # One more node hidden past the dead edge.
    answer_big = broken_flood_max(n_path + 1, dead)
    return answer_small, answer_big
