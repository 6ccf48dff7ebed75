"""Breadth-first search over adjacency mappings ``{node: iterable of
neighbours}``: a dict of lists, or any graph object that iterates its
nodes and maps each node to its neighbours.  Undirected graphs list each
edge under both endpoints."""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, Iterable, List, Mapping, Optional

Adjacency = Mapping[Hashable, Iterable[Hashable]]


def bfs_parents(adjacency: Adjacency, root: Hashable) -> Dict[Hashable, Optional[Hashable]]:
    """Each node reachable from ``root``, in BFS discovery order, mapped to
    the neighbour it was first reached from (``root`` to None)."""
    parents: Dict[Hashable, Optional[Hashable]] = {root: None}
    queue = deque([root])
    while queue:
        node = queue.popleft()
        for neighbour in adjacency[node]:
            if neighbour not in parents:
                parents[neighbour] = node
                queue.append(neighbour)
    return parents


def connected_components(adjacency: Adjacency) -> List[List[Hashable]]:
    """The components of an undirected graph, in order of first node."""
    components: List[List[Hashable]] = []
    seen: set = set()
    for node in adjacency:
        if node not in seen:
            components.append(list(bfs_parents(adjacency, node)))
            seen.update(components[-1])
    return components


def is_connected(adjacency: Adjacency) -> bool:
    return len(connected_components(adjacency)) == 1


def edge_count(adjacency: Adjacency) -> int:
    """Undirected edges; a self-loop counts once."""
    return len({frozenset((u, v)) for u in adjacency for v in adjacency[u]})
