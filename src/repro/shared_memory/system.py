"""The asynchronous shared-memory system automaton.

Composes :class:`~repro.shared_memory.process.SharedMemoryProcess`
instances with a set of shared variables into one
:class:`~repro.core.automaton.IOAutomaton`:

* global state = (tuple of process local states, frozendict of variable
  values);
* one internal action ``('step', p)`` per process — performing p's pending
  atomic access;
* each process's output actions are outputs of the system; each process's
  input actions are inputs (ill-formed inputs are ignored, keeping the
  system input-enabled);
* one fairness task per process, so round-robin scheduling of tasks yields
  admissible executions ("every non-failed process keeps taking steps").

Also provides the admissible-liveness checker used by the mutual exclusion
results: a search for *fair starvation cycles*, i.e. infinite admissible
executions in which a victim process remains forever in its trying region.
The proper treatment of admissibility is, as the survey stresses, "one of
the most difficult aspects of this work" — the checker encodes it as three
side conditions on a cycle (every process is serviced, the environment
returns the resource, no vacuous stalls).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..core.adjacency import bfs_parents
from ..core.automaton import Action, IOAutomaton, Signature, State
from ..core.errors import ModelError
from ..core.freeze import frozendict
from ..core.packed import strongly_connected_components
from ..core.stategraph import state_graph
from .process import SharedMemoryProcess


class SharedMemorySystem(IOAutomaton):
    """Processes plus shared variables, as a single I/O automaton."""

    def __init__(
        self,
        processes: Sequence[SharedMemoryProcess],
        initial_memory: Dict[str, Hashable],
        name: str = "shared-memory-system",
    ):
        if len({p.name for p in processes}) != len(processes):
            raise ModelError("process names must be unique")
        self.processes: Tuple[SharedMemoryProcess, ...] = tuple(processes)
        self.initial_memory = frozendict(initial_memory)
        self.name = name
        self._index = {p.name: i for i, p in enumerate(self.processes)}

        inputs: Set[Action] = set()
        outputs: Set[Action] = set()
        internals: Set[Action] = {("step", p.name) for p in self.processes}
        for p in self.processes:
            inputs |= set(p.input_actions())
            outputs |= set(p.output_actions())
        self._signature = Signature(
            inputs=frozenset(inputs - outputs),
            outputs=frozenset(outputs),
            internals=frozenset(internals),
        )

    # -- IOAutomaton interface -------------------------------------------

    @property
    def signature(self) -> Signature:
        return self._signature

    def initial_states(self) -> Iterator[State]:
        locals_ = tuple(p.initial_local() for p in self.processes)
        yield (locals_, self.initial_memory)

    def enabled_actions(self, state: State) -> Iterator[Action]:
        locals_, _memory = state
        for i, p in enumerate(self.processes):
            output = p.output_action(locals_[i])
            if output is not None:
                yield output
            elif p.pending_access(locals_[i]) is not None:
                yield ("step", p.name)

    def apply(self, state: State, action: Action) -> Iterator[State]:
        kind = self._signature.classify(action)
        locals_, memory = state
        if kind == "internal":
            _tag, pname = action
            i = self._index[pname]
            p = self.processes[i]
            if p.output_action(locals_[i]) is not None:
                return  # outputs take priority; the step is not enabled
            access = p.pending_access(locals_[i])
            if access is None:
                return
            if access.var not in memory:
                raise ModelError(f"{pname} accessed unknown variable {access.var!r}")
            new_value, response = access.perform(memory[access.var])
            new_local = p.after_access(locals_[i], response)
            new_locals = locals_[:i] + (new_local,) + locals_[i + 1:]
            yield (new_locals, memory.set(access.var, new_value))
            return
        if kind == "output":
            for i, p in enumerate(self.processes):
                if p.output_action(locals_[i]) == action:
                    new_local = p.after_output(locals_[i])
                    new_locals = locals_[:i] + (new_local,) + locals_[i + 1:]
                    yield (new_locals, memory)
                    return
            return  # not currently enabled
        # Input: deliver to every receptive process; ignore if none.
        new_locals = list(locals_)
        touched = False
        for i, p in enumerate(self.processes):
            if action in p.input_actions():
                reaction = p.on_input(locals_[i], action)
                if reaction is not None:
                    new_locals[i] = reaction
                    touched = True
        yield (tuple(new_locals), memory) if touched else state

    def tasks(self) -> Sequence[FrozenSet[Action]]:
        return [
            frozenset({("step", p.name)} | set(p.output_actions()))
            for p in self.processes
        ]

    # -- convenience -------------------------------------------------------

    def local_state(self, state: State, pname: str) -> State:
        locals_, _memory = state
        return locals_[self._index[pname]]

    def memory(self, state: State) -> frozendict:
        return state[1]

    def process_named(self, pname: str) -> SharedMemoryProcess:
        return self.processes[self._index[pname]]


@dataclass
class StarvationWitness:
    """An admissible infinite execution starving ``victim``.

    ``stem`` is a path of (state, action) pairs from an initial state to
    the cycle entry; ``cycle`` is the repeating segment.  Pumping the cycle
    forever yields an admissible execution in which the victim's predicate
    (e.g. "in trying region") holds at every state.
    """

    victim: str
    stem_states: Tuple[State, ...]
    cycle_states: Tuple[State, ...]
    cycle_actions: Tuple[Action, ...]

    def describe(self) -> str:
        return (
            f"starvation of {self.victim}: stem of {len(self.stem_states)} states "
            f"reaches a fair cycle of {len(self.cycle_actions)} actions"
        )


def _process_of_action(system: SharedMemorySystem, action: Action) -> Optional[str]:
    """Which process an action belongs to (None for pure inputs)."""
    if isinstance(action, tuple) and len(action) == 2 and action[0] == "step":
        return action[1]
    for p in system.processes:
        if action in p.output_actions():
            return p.name
    return None


def run_system(
    system: SharedMemorySystem,
    scheduler=None,
    max_steps: int = 1_000,
    start: Optional[State] = None,
    stop_when: Optional[Callable[[State], bool]] = None,
    meter=None,
):
    """Drive the composed system under a scheduler, in the unified schema.

    A thin adapter over :meth:`repro.core.scheduler.Scheduler.run_traced`
    with ``substrate="shared-memory"`` and each STEP event attributed to
    the process owning the action (via :func:`_process_of_action`), so
    shared-memory runs interleave into the same
    :class:`~repro.core.runtime.Trace` schema as every other substrate.
    Defaults to the fair :class:`~repro.core.scheduler.RoundRobinScheduler`.
    Returns a :class:`~repro.core.scheduler.TracedExecution`.
    """
    from ..core.scheduler import RoundRobinScheduler

    if scheduler is None:
        scheduler = RoundRobinScheduler(system)
    return scheduler.run_traced(
        system,
        max_steps,
        start=start,
        stop_when=stop_when,
        substrate="shared-memory",
        actor_of=lambda action: _process_of_action(system, action) or "environment",
        meter=meter,
    )


def find_starvation_cycle(
    system: SharedMemorySystem,
    victim: str,
    victim_stuck: Callable[[State], bool],
    environment_returns: Optional[Callable[[State], Optional[Action]]] = None,
    forbidden_actions: Optional[Callable[[Action], bool]] = None,
    max_states: int = 100_000,
) -> Optional[StarvationWitness]:
    """Search for an admissible infinite execution starving ``victim``.

    The search explores the reachable graph (environment inputs included),
    restricts to states where ``victim_stuck`` holds, and looks for a
    strongly connected subgraph whose infinite unrolling is *admissible*:

    1. **process fairness** — every process either takes an action inside
       the cycle or has no enabled action at some state of the cycle;
    2. **environment cooperation** — if ``environment_returns(state)``
       names an input owed by a well-behaved environment (e.g. the exit of
       a process sitting in its critical region), that input occurs in the
       cycle;
    3. optionally, no ``forbidden_actions`` occur in the cycle (used to ask
       for deadlock rather than mere lockout).

    Returns a witness or None.  This is the mechanized form of "construct
    an incompatible infinite admissible execution" from [26].
    """
    graph = state_graph(system)
    frontier = graph.frontier(include_inputs=True)
    frontier.expand_all(max_states)
    state_of = graph.interner.state_of
    inputs = system.signature.inputs
    # The stuck subgraph over interned ids: each stuck state's (action,
    # successor) edges, local row then input row, that stay stuck.
    stuck = dict.fromkeys(
        sid for sid in frontier.order if victim_stuck(state_of(sid))
    )
    edges: Dict[int, List[Tuple[Action, int]]] = {
        sid: [
            (action, child)
            for packed in (graph._plocal, graph._pinput)
            for action, child in zip(packed.labels_of(sid), packed.successors_ids(sid))
            if child in stuck
            and not (child == sid and action in inputs)  # an ignored input
            and (forbidden_actions is None or not forbidden_actions(action))
        ]
        for sid in stuck
    }

    for component in strongly_connected_components(
        edges, lambda sid: [child for _action, child in edges[sid]]
    ):
        members = set(component)
        inner = {
            sid: [(a, child) for a, child in edges[sid] if child in members]
            for sid in component
        }
        actions_in_cycle = {a for row in inner.values() for a, _child in row}
        if not actions_in_cycle:
            continue
        states = [state_of(sid) for sid in component]
        # Condition 1: process fairness.
        if not all(
            any(_process_of_action(system, a) == p.name for a in actions_in_cycle)
            or any(p.is_idle(system.local_state(s, p.name)) for s in states)
            for p in system.processes
        ):
            continue
        # Condition 2: environment cooperation.
        if environment_returns is not None:
            owed = {environment_returns(s) for s in states} - {None}
            if not owed <= actions_in_cycle:
                continue
        cycle_ids, cycle_actions = _closed_walk_covering(inner)
        stem_ids = [cycle_ids[0]]
        while frontier.parent_of[stem_ids[-1]] is not None:
            stem_ids.append(frontier.parent_of[stem_ids[-1]][0])
        return StarvationWitness(
            victim=victim,
            stem_states=tuple(state_of(sid) for sid in reversed(stem_ids)),
            cycle_states=tuple(state_of(sid) for sid in cycle_ids),
            cycle_actions=tuple(cycle_actions),
        )
    return None


def _closed_walk_covering(
    inner: Dict[int, List[Tuple[Action, int]]]
) -> Tuple[List[int], List[Action]]:
    """A closed walk through a strongly connected component, given as each
    member's (action, successor) edges inside it, that takes every action
    at least once: one edge per action, stitched together (and back to
    the start) by BFS shortest paths inside the component."""
    chosen: Dict[Action, Tuple[int, int]] = {}
    for sid, row in inner.items():
        for action, child in row:
            chosen.setdefault(action, (sid, child))
    # successor -> the first action reaching it, per member.
    adjacency = {
        sid: {child: a for a, child in reversed(row)} for sid, row in inner.items()
    }
    first = next(iter(chosen.values()))[0]
    walk_ids: List[int] = [first]
    walk_actions: List[Action] = []

    def stitch(target: int) -> None:
        parents = bfs_parents(adjacency, walk_ids[-1])
        path: List[int] = []
        while parents[target] is not None:
            path.append(target)
            target = parents[target]
        for sid in reversed(path):
            walk_actions.append(adjacency[walk_ids[-1]][sid])
            walk_ids.append(sid)

    for action, (u, v) in chosen.items():
        stitch(u)
        walk_actions.append(action)
        walk_ids.append(v)
    stitch(first)
    return walk_ids, walk_actions
