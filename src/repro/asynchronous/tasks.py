"""Decision tasks and the graph characterization of 1-fault solvability.

Moran–Wolfstahl [85] and Biran–Moran–Zaks [20] (§2.2.4): represent a
decision task by two graphs — the *input graph* on its input vectors and
the *decision graph* on its allowed output vectors, with edges between
vectors differing in exactly one coordinate.  Their theorem: a task whose
input graph is connected but whose reachable decision graph is
disconnected cannot be solved in an asynchronous system with one faulty
process (the generalization of FLP; consensus is the special case where
the decision graph is the two isolated points all-0 and all-1).

This module implements the representation and the checker, and bundles
the canonical examples on both sides of the line.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, Iterable, List, Mapping, Set, Tuple

from ..core.adjacency import connected_components, is_connected
from ..core.errors import ModelError
from ..impossibility.certificate import ImpossibilityCertificate

Vector = Tuple[Hashable, ...]


@dataclass(frozen=True)
class DecisionTask:
    """A task: input vectors and, per input, the allowed output vectors."""

    name: str
    inputs: FrozenSet[Vector]
    allowed: Mapping[Vector, FrozenSet[Vector]]

    def __post_init__(self):
        if not self.inputs:
            raise ModelError("a task needs at least one input vector")
        lengths = {len(v) for v in self.inputs}
        if len(lengths) != 1:
            raise ModelError("all input vectors must have the same arity")
        for vector in self.inputs:
            if vector not in self.allowed or not self.allowed[vector]:
                raise ModelError(
                    f"input {vector} has no allowed outputs — the task is "
                    "unsatisfiable"
                )

    @property
    def arity(self) -> int:
        return len(next(iter(self.inputs)))

    @property
    def outputs(self) -> FrozenSet[Vector]:
        out: Set[Vector] = set()
        for vectors in self.allowed.values():
            out |= set(vectors)
        return frozenset(out)


def _adjacency_graph(vectors: Iterable[Vector]) -> Dict[Vector, List[Vector]]:
    """The adjacency mapping with an edge between vectors differing in
    one coordinate."""
    vectors = list(vectors)
    graph: Dict[Vector, List[Vector]] = {vector: [] for vector in vectors}
    for a, b in itertools.combinations(vectors, 2):
        if sum(1 for x, y in zip(a, b) if x != y) == 1:
            graph[a].append(b)
            graph[b].append(a)
    return graph


def input_graph(task: DecisionTask) -> Dict[Vector, List[Vector]]:
    return _adjacency_graph(task.inputs)


def decision_graph(task: DecisionTask) -> Dict[Vector, List[Vector]]:
    return _adjacency_graph(task.outputs)


@dataclass
class SolvabilityVerdict:
    task_name: str
    input_connected: bool
    decision_connected: bool

    @property
    def provably_unsolvable(self) -> bool:
        """The Moran–Wolfstahl sufficient condition for impossibility."""
        return self.input_connected and not self.decision_connected


def analyze_task(task: DecisionTask) -> SolvabilityVerdict:
    return SolvabilityVerdict(
        task_name=task.name,
        input_connected=is_connected(input_graph(task)),
        decision_connected=is_connected(decision_graph(task)),
    )


def moran_wolfstahl_certificate(task: DecisionTask) -> ImpossibilityCertificate:
    """Certify 1-fault unsolvability via the graph condition.

    Raises :class:`ModelError` when the condition does not apply (the
    theorem is one-directional; a connected decision graph proves
    nothing by itself).
    """
    verdict = analyze_task(task)
    if not verdict.provably_unsolvable:
        raise ModelError(
            f"task {task.name!r} does not meet the condition "
            f"(input connected: {verdict.input_connected}, decision "
            f"connected: {verdict.decision_connected})"
        )
    components = [
        sorted(c) for c in connected_components(decision_graph(task))
    ]
    return ImpossibilityCertificate(
        claim=(
            f"task {task.name!r} is unsolvable in an asynchronous system "
            "with one faulty process: its input graph is connected but its "
            "decision graph is disconnected"
        ),
        scope=(
            f"{len(task.inputs)} input vectors, {len(task.outputs)} output "
            f"vectors, arity {task.arity}"
        ),
        technique="bivalence (graph characterization)",
        details={
            "decision_components": len(components),
            "component_sizes": [len(c) for c in components],
        },
    )


# ---------------------------------------------------------------------------
# Canonical tasks
# ---------------------------------------------------------------------------


def binary_consensus_task(n: int) -> DecisionTask:
    """Consensus: connected inputs, two isolated unanimous outputs."""
    inputs = frozenset(itertools.product((0, 1), repeat=n))
    allowed: Dict[Vector, FrozenSet[Vector]] = {}
    for vector in inputs:
        outs: Set[Vector] = set()
        for v in set(vector):  # validity: decide some present input
            outs.add(tuple([v] * n))
        allowed[vector] = frozenset(outs)
    return DecisionTask("binary-consensus", inputs, allowed)


def leader_task(n: int) -> DecisionTask:
    """Exactly one process outputs 1: every two distinct leader vectors
    differ in two coordinates, so the decision graph is fully
    disconnected — unsolvable with one fault."""
    inputs = frozenset({tuple([0] * n)})
    leaders = frozenset(
        tuple(1 if i == k else 0 for i in range(n)) for k in range(n)
    )
    return DecisionTask("leader-election", inputs, {tuple([0] * n): leaders})


def identity_task(n: int) -> DecisionTask:
    """Output your own input: no coordination at all; the decision graph
    spans everything — the condition (rightly) does not fire."""
    inputs = frozenset(itertools.product((0, 1), repeat=n))
    allowed = {vector: frozenset({vector}) for vector in inputs}
    return DecisionTask("identity", inputs, allowed)


def epsilon_agreement_task(n: int, grid: int = 4) -> DecisionTask:
    """Outputs within one grid step of each other, inside the input range:
    the discrete cousin of approximate agreement.  Its decision graph is
    connected, consistent with the task being solvable (§2.2.2, [36])."""
    inputs = frozenset(itertools.product((0, grid), repeat=n))
    levels = range(grid + 1)
    all_outputs = [
        v for v in itertools.product(levels, repeat=n)
        if max(v) - min(v) <= 1
    ]
    allowed: Dict[Vector, FrozenSet[Vector]] = {}
    for vector in inputs:
        low, high = min(vector), max(vector)
        allowed[vector] = frozenset(
            v for v in all_outputs if all(low <= x <= high for x in v)
        )
    return DecisionTask("epsilon-agreement", inputs, allowed)
