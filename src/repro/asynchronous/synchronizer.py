"""Network synchronizers and Awerbuch's communication/time tradeoff (§2.2.6).

A synchronizer adapts synchronous algorithms to reliable asynchronous
networks.  Awerbuch [16] proved the tradeoff the survey cites: per
simulated pulse, the alpha synchronizer pays O(|E|) messages for O(1)
time, the beta synchronizer O(n) messages for O(tree depth) time — and no
synchronizer beats both at once.

This module runs both synchronizers in a discrete-event simulation with
unit hop delay over any adjacency mapping ``{node: neighbours}``,
counting overhead messages and elapsed time per pulse, so the E9 bench
can plot the tradeoff's two corners.

Mechanics (classic):

* every node, on entering pulse p, sends its payload to all neighbours,
  which acknowledge; a node is *safe* when all its payloads are acked;
* **alpha**: a safe node tells its neighbours; a node enters pulse p+1
  when it and all neighbours are safe (messages ~ 3*2|E| per pulse, time
  ~ 3);
* **beta**: safety reports convergecast up a BFS spanning tree to the
  root, which broadcasts the next-pulse signal down (extra messages
  ~ 2(n-1) per pulse, time ~ 2*depth + 3).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..core.adjacency import Adjacency, bfs_parents, edge_count
from ..core.errors import ModelError


@dataclass
class SynchronizerOutcome:
    name: str
    n: int
    edges: int
    pulses: int
    total_time: float
    payload_messages: int
    overhead_messages: int

    @property
    def overhead_per_pulse(self) -> float:
        return self.overhead_messages / self.pulses

    @property
    def time_per_pulse(self) -> float:
        return self.total_time / self.pulses


class _EventSim:
    """A tiny discrete-event kernel with unit hop delay."""

    def __init__(self):
        self.heap: List[Tuple[float, int, int, Tuple]] = []
        self.seq = 0
        self.now = 0.0

    def send(self, dest: int, msg: Tuple, delay: float = 1.0) -> None:
        self.seq += 1
        heapq.heappush(self.heap, (self.now + delay, self.seq, dest, msg))

    def pop(self) -> Optional[Tuple[int, Tuple]]:
        if not self.heap:
            return None
        time, _seq, dest, msg = heapq.heappop(self.heap)
        self.now = max(self.now, time)
        return dest, msg


def run_alpha_synchronizer(graph: Adjacency, pulses: int) -> SynchronizerOutcome:
    """Simulate ``pulses`` pulses of a broadcast payload under alpha."""
    nodes = list(graph)
    neighbors = {v: sorted(graph[v]) for v in nodes}
    sim = _EventSim()
    payload = 0
    overhead = 0

    pulse = {v: 0 for v in nodes}
    acks_pending = {v: 0 for v in nodes}
    safe_neighbors: Dict[int, Set[int]] = {v: set() for v in nodes}
    self_safe = {v: False for v in nodes}

    def enter_pulse(v: int) -> None:
        nonlocal payload
        acks_pending[v] = len(neighbors[v])
        safe_neighbors[v] = set()
        self_safe[v] = False
        for u in neighbors[v]:
            sim.send(u, ("payload", v, pulse[v]))

    def maybe_advance(v: int) -> None:
        if (
            self_safe[v]
            and len(safe_neighbors[v]) == len(neighbors[v])
            and pulse[v] + 1 < pulses
        ):
            pulse[v] += 1
            enter_pulse(v)

    for v in nodes:
        enter_pulse(v)

    while True:
        item = sim.pop()
        if item is None:
            break
        v, msg = item
        kind = msg[0]
        if kind == "payload":
            payload += 1
            _tag, src, _p = msg
            sim.send(src, ("ack", v))
        elif kind == "ack":
            overhead += 1
            acks_pending[v] -= 1
            if acks_pending[v] == 0:
                self_safe[v] = True
                for u in neighbors[v]:
                    sim.send(u, ("safe", v))
                maybe_advance(v)
        elif kind == "safe":
            overhead += 1
            safe_neighbors[v].add(msg[1])
            maybe_advance(v)

    return SynchronizerOutcome(
        name="alpha",
        n=len(nodes),
        edges=edge_count(graph),
        pulses=pulses,
        total_time=sim.now,
        payload_messages=payload,
        overhead_messages=overhead,
    )


def run_beta_synchronizer(
    graph: Adjacency, pulses: int, root: int = 0
) -> SynchronizerOutcome:
    """Simulate ``pulses`` pulses under beta (BFS spanning tree)."""
    nodes = list(graph)
    neighbors = {v: sorted(graph[v]) for v in nodes}
    parent = bfs_parents(graph, root)
    if len(parent) != len(nodes):
        raise ModelError("the beta synchronizer needs a connected graph")
    children = {v: [u for u in neighbors[v] if parent[u] == v] for v in nodes}
    sim = _EventSim()
    payload = 0
    overhead = 0

    pulse = {v: 0 for v in nodes}
    acks_pending = {v: 0 for v in nodes}
    subtree_safe: Dict[int, Set[int]] = {v: set() for v in nodes}
    self_safe = {v: False for v in nodes}

    def enter_pulse(v: int) -> None:
        acks_pending[v] = len(neighbors[v])
        subtree_safe[v] = set()
        self_safe[v] = False
        for u in neighbors[v]:
            sim.send(u, ("payload", v, pulse[v]))

    def maybe_report(v: int) -> None:
        if self_safe[v] and len(subtree_safe[v]) == len(children[v]):
            if parent[v] is not None:
                sim.send(parent[v], ("subtree-safe", v))
            else:
                # Root: whole network safe; broadcast the next pulse.
                if pulse[v] + 1 < pulses:
                    advance(v)

    def advance(v: int) -> None:
        pulse[v] += 1
        for c in children[v]:
            sim.send(c, ("next-pulse", pulse[v]))
        enter_pulse(v)

    for v in nodes:
        enter_pulse(v)

    while True:
        item = sim.pop()
        if item is None:
            break
        v, msg = item
        kind = msg[0]
        if kind == "payload":
            payload += 1
            sim.send(msg[1], ("ack", v))
        elif kind == "ack":
            overhead += 1
            acks_pending[v] -= 1
            if acks_pending[v] == 0:
                self_safe[v] = True
                maybe_report(v)
        elif kind == "subtree-safe":
            overhead += 1
            subtree_safe[v].add(msg[1])
            maybe_report(v)
        elif kind == "next-pulse":
            overhead += 1
            new_pulse = msg[1]
            pulse[v] = new_pulse
            for c in children[v]:
                sim.send(c, ("next-pulse", new_pulse))
            enter_pulse(v)

    return SynchronizerOutcome(
        name="beta",
        n=len(nodes),
        edges=edge_count(graph),
        pulses=pulses,
        total_time=sim.now,
        payload_messages=payload,
        overhead_messages=overhead,
    )


def tradeoff_comparison(graph: Adjacency, pulses: int = 5
                        ) -> Dict[str, SynchronizerOutcome]:
    """Run both synchronizers on the same graph; the Awerbuch corners."""
    return {
        "alpha": run_alpha_synchronizer(graph, pulses),
        "beta": run_beta_synchronizer(graph, pulses),
    }
