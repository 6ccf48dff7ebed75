"""Bivalence (valency) arguments, the FLP proof engine.

The survey (§2.2.4) presents the Fischer–Lynch–Paterson proof and its many
descendants (Dolev–Dwork–Stockmeyer, Loui–Abu-Amara, Herlihy,
Bridgeland–Watro, Moran–Wolfstahl) as *bivalence arguments*: label each
reachable configuration with its **valency** — the set of decision values
still reachable from it — and show that a putative fault-tolerant protocol
must (a) have a bivalent initial configuration and (b) admit an admissible
execution that stays bivalent forever, so it never decides.

This module implements that argument generically over a
:class:`DecisionSystem`: any step-deterministic system whose events are
owned by processes and whose configurations expose per-process decisions.
The asynchronous message-passing model (FLP), asynchronous read/write
shared memory (Loui–Abu-Amara) and wait-free object systems (Herlihy) all
instantiate it; see :mod:`repro.asynchronous.flp` and
:mod:`repro.registers.herlihy`.

Internally every analysis runs over the bit-packed state engine
(:mod:`repro.core.packed`): configurations are interned to dense integer
ids once, adjacency lives in CSR integer rows, valencies are int
bitmasks, and visited sets are flat bitmaps — configurations only appear
at the public API boundary, so hot loops never hash a nested structure
twice.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..core.errors import SearchBudgetExceeded
from ..core.freeze import register_packed_owner
from ..core.packed import (
    IdFlags,
    IdToValue,
    PackedGraph,
    StateInterner,
    ValueTable,
    strongly_connected_components,
)

Configuration = Hashable
Event = Hashable
ProcessId = Hashable


class DecisionSystem(ABC):
    """A step-deterministic decision protocol under adversarial scheduling.

    Configurations are global states; events are atomic steps, each owned
    by one process; applying an event to a configuration yields exactly one
    successor.  Nondeterminism lives entirely in the *order* of events —
    which is the adversary's to choose.  This matches the FLP model (an
    event is "deliver message m to p, who then acts deterministically") and
    the shared-memory model (an event is "p performs its next access").
    """

    @property
    @abstractmethod
    def processes(self) -> Sequence[ProcessId]:
        """The process identifiers."""

    @property
    @abstractmethod
    def values(self) -> Sequence[Hashable]:
        """The possible decision values (usually (0, 1))."""

    @abstractmethod
    def initial_configurations(self) -> Iterable[Configuration]:
        """All initial configurations (one per input assignment)."""

    @abstractmethod
    def events(self, config: Configuration) -> Iterable[Event]:
        """Events applicable in ``config``."""

    @abstractmethod
    def owner(self, event: Event) -> ProcessId:
        """The process that takes the step."""

    @abstractmethod
    def apply(self, config: Configuration, event: Event) -> Configuration:
        """The unique successor configuration."""

    @abstractmethod
    def decisions(self, config: Configuration) -> Mapping[ProcessId, Hashable]:
        """The processes that have irrevocably decided, with their values."""

    def fair_events(self, config: Configuration) -> Mapping[ProcessId, Event]:
        """For each process, the event admissibility owes it next.

        Default: the first applicable event owned by each process (in the
        deterministic iteration order of :meth:`events`).  Asynchronous
        network systems override this to return "deliver the *oldest*
        pending message", which is what makes the stalling adversary's runs
        admissible.
        """
        owed: Dict[ProcessId, Event] = {}
        for event in self.events(config):
            pid = self.owner(event)
            if pid not in owed:
                owed[pid] = event
        return owed

    def decided_values(self, config: Configuration) -> FrozenSet[Hashable]:
        return frozenset(self.decisions(config).values())


@dataclass
class TransitionCache:
    """Memoized ``events``/``apply`` expansion for a :class:`DecisionSystem`.

    The decision-system analyses (valency labelling, agreement search,
    stalling adversaries, wait-freedom verdicts) all walk the same
    configuration graph; this cache is their shared successor oracle, the
    :class:`DecisionSystem` counterpart of
    :class:`repro.core.stategraph.StateGraph`.  Each configuration's full
    ``(event, successor)`` sweep is computed exactly once.

    Storage is packed: an interner assigns each configuration a dense id
    and successor sweeps live as CSR integer rows
    (:class:`~repro.core.packed.PackedGraph`).  The id-level surface
    (:meth:`intern`, :meth:`ensure_expanded`, :meth:`row_bounds`,
    :meth:`decided_values_of`) is what the analyses' hot loops use; the
    configuration-level surface (:meth:`transitions`, :meth:`apply`) is
    preserved for callers and materializes frozen states only at the
    boundary.
    """

    system: DecisionSystem
    hits: int = 0
    misses: int = 0

    # Identity hash so instances can register in the weak owner set.
    __hash__ = object.__hash__

    def __post_init__(self):
        self.interner = StateInterner()
        self.graph = PackedGraph(self.interner)
        self._views: List[Optional[Tuple[Tuple[Event, Configuration], ...]]] = []
        self._decided: List[Optional[FrozenSet[Hashable]]] = []
        register_packed_owner(self)

    def reset_packed_state(self) -> None:
        """Drop every id and row (cascade target of ``clear_intern_table``)."""
        self.interner = StateInterner()
        self.graph = PackedGraph(self.interner)
        self._views = []
        self._decided = []

    # -- id-level surface (hot paths) --------------------------------------

    def intern(self, config: Configuration) -> int:
        """The dense id of ``config`` (its only deep hash in this cache)."""
        return self.interner.intern(config)

    def config_of(self, sid: int) -> Configuration:
        return self.interner.state_of(sid)

    def ensure_expanded(self, sid: int) -> None:
        """Record ``sid``'s successor sweep if absent; count hit/miss."""
        graph = self.graph
        if graph.is_expanded(sid):
            self.hits += 1
            return
        self.misses += 1
        system = self.system
        config = self.interner.state_of(sid)
        intern = self.interner.intern
        events: List[Event] = []
        succ_ids: List[int] = []
        sweep = getattr(system, "sweep_transitions", None)
        if sweep is not None:
            # Bulk hook: one call computes every (event, successor) pair,
            # sharing per-configuration setup across the whole row.
            for event, child in sweep(config):
                events.append(event)
                succ_ids.append(intern(child))
        else:
            for event in system.events(config):
                events.append(event)
                succ_ids.append(intern(system.apply(config, event)))
        graph.add_row(sid, events, succ_ids)

    def row_bounds(self, sid: int) -> Tuple[int, int]:
        """(start, end) offsets of ``sid``'s CSR row (expanding if needed)."""
        self.ensure_expanded(sid)
        return self.graph.row_bounds(sid)

    def arrays(self):
        """The flat CSR internals ``(succ, labels)`` for tight loops."""
        return self.graph._succ, self.graph._labels

    def apply_id(self, sid: int, event: Event) -> Optional[int]:
        """The successor id through ``event``, or None if not applicable."""
        start, end = self.row_bounds(sid)
        succ, labels = self.arrays()
        for i in range(start, end):
            if labels[i] == event:
                return succ[i]
        return None

    def decided_values_of(self, sid: int) -> FrozenSet[Hashable]:
        """``system.decided_values`` memoized per id."""
        memo = self._decided
        if sid >= len(memo):
            memo.extend([None] * (sid + 1 - len(memo)))
        vals = memo[sid]
        if vals is None:
            vals = self.system.decided_values(self.interner.state_of(sid))
            memo[sid] = vals
        return vals

    # -- configuration-level surface ---------------------------------------

    def transitions(
        self, config: Configuration
    ) -> Tuple[Tuple[Event, Configuration], ...]:
        """All ``(event, successor)`` pairs out of ``config``, memoized."""
        return self.transitions_of(self.interner.intern(config))

    def transitions_of(
        self, sid: int
    ) -> Tuple[Tuple[Event, Configuration], ...]:
        """The view-tuple form of ``sid``'s row (built once per id)."""
        views = self._views
        if sid < len(views):
            view = views[sid]
            if view is not None:
                self.hits += 1
                return view
        else:
            views.extend([None] * (sid + 1 - len(views)))
        self.ensure_expanded(sid)
        start, end = self.graph.row_bounds(sid)
        succ, labels = self.graph._succ, self.graph._labels
        state_of = self.interner.state_of
        view = tuple(
            (labels[i], state_of(succ[i])) for i in range(start, end)
        )
        views[sid] = view
        return view

    def apply(self, config: Configuration, event: Event) -> Configuration:
        """The successor through ``event`` (from cache when expanded)."""
        for candidate, child in self.transitions(config):
            if candidate == event:
                return child
        return self.system.apply(config, event)

    @property
    def stats(self) -> Dict[str, Any]:
        packed = self.graph.stats
        return {
            "hits": self.hits,
            "misses": self.misses,
            "configurations_expanded": self.graph.rows,
            "states_interned": packed["states_interned"],
            "packed_bytes": packed["packed_bytes"],
        }


class _ValencyView(Mapping):
    """Read-through mapping {configuration: valency} over the packed
    mask table — what ``ValencyAnalyzer._valency_cache`` now is.

    Labels live as int masks indexed by state id; this view materializes
    frozen configurations and frozensets only when someone actually reads
    the mapping, so the labelling pass never pays per-configuration dict
    inserts.
    """

    def __init__(self, analyzer: "ValencyAnalyzer"):
        self._analyzer = analyzer

    def _sid_of(self, config: Configuration) -> Optional[int]:
        return self._analyzer.cache.interner.id_of(config)

    def __contains__(self, config: object) -> bool:
        sid = self._sid_of(config)
        return sid is not None and self._analyzer._masks.get(sid) >= 0

    def __getitem__(self, config: Configuration) -> FrozenSet[Hashable]:
        sid = self._sid_of(config)
        if sid is None:
            raise KeyError(config)
        mask = self._analyzer._masks.get(sid)
        if mask < 0:
            raise KeyError(config)
        return self._analyzer._value_table.set_of(mask)

    def get(self, config: Configuration, default=None):
        sid = self._sid_of(config)
        if sid is None:
            return default
        mask = self._analyzer._masks.get(sid)
        if mask < 0:
            return default
        return self._analyzer._value_table.set_of(mask)

    def __iter__(self):
        config_of = self._analyzer.cache.config_of
        return (config_of(sid) for sid, _mask in self._analyzer._masks.items())

    def __len__(self) -> int:
        return len(self._analyzer._masks)


@dataclass
class ValencyAnalyzer:
    """Computes valencies with global memoization.

    The valency of C is the set of values v such that some configuration
    reachable from C has a process decided on v.  Configurations are
    classified *v-valent* (singleton valency {v}), *bivalent* (≥2 values)
    or *null-valent* (no decision reachable — a protocol bug).

    Labelling is a single forward expansion of the not-yet-cached cone
    followed by one backward pass over its strongly connected components
    in reverse topological order, so whole-space analyses are
    O(configurations + transitions) — not O(configurations × queries).
    Both passes run over dense integer ids: valencies are stored as int
    bitmasks in a flat array indexed by configuration id, and the SCC
    union is bitwise-or on machine words.
    """

    system: DecisionSystem
    max_configurations: int = 200_000
    cache: Optional[TransitionCache] = None
    _valency_cache: Dict[Configuration, FrozenSet[Hashable]] = field(
        default_factory=dict
    )

    __hash__ = object.__hash__

    def __post_init__(self):
        if self.cache is None:
            self.cache = TransitionCache(self.system)
        self._masks = IdToValue()
        self._value_table = ValueTable(self.system.values)
        # The config-keyed label mapping is a read-through view over the
        # mask table (kept as a field for API/debugging compatibility).
        self._valency_cache = _ValencyView(self)
        register_packed_owner(self)

    def reset_packed_state(self) -> None:
        """Drop id-indexed labels (cascade target of ``clear_intern_table``)."""
        self._masks = IdToValue()

    def transitions(
        self, config: Configuration
    ) -> Tuple[Tuple[Event, Configuration], ...]:
        """Shared memoized successor expansion (see :class:`TransitionCache`)."""
        return self.cache.transitions(config)

    # -- labelling ----------------------------------------------------------

    def valency(self, config: Configuration) -> FrozenSet[Hashable]:
        """The valency of ``config`` (memoized over the whole analyzer)."""
        sid = self.cache.intern(config)
        mask = self._masks.get(sid)
        if mask < 0:
            self._label_ids([sid])
            mask = self._masks.get(sid)
        return self._value_table.set_of(mask)

    def valency_mask(self, config: Configuration) -> int:
        """The valency of ``config`` as an int bitmask over
        ``system.values`` (bit i = i-th distinct value labelled)."""
        sid = self.cache.intern(config)
        return self._mask_of_id(sid)

    def _mask_of_id(self, sid: int) -> int:
        mask = self._masks.get(sid)
        if mask < 0:
            self._label_ids([sid])
            mask = self._masks.get(sid)
        return mask

    def _label_ids(self, roots: Sequence[int]) -> None:
        """Label every configuration in the cones of the ``roots`` ids.

        One forward expansion discovers the not-yet-labelled subgraph
        (already-labelled ids act as boundary: their valencies are
        final).  Tarjan's algorithm then emits its strongly connected
        components sinks-first, so a single reverse-topological sweep —
        union of own decided-value masks and all successor masks —
        computes the exact fixpoint without iteration.
        """
        cache = self.cache
        masks = self._masks
        roots = [sid for sid in roots if masks.get(sid) < 0]
        if not roots:
            return
        # Successor rows are expanded lazily the first time the SCC
        # search reaches a node.  A child is *boundary* (valency final,
        # do not descend) when its mask was set before this pass; a
        # child labelled earlier in this pass sits in an emitted
        # component, which Tarjan ignores anyway.
        graph = cache.graph
        ensure_expanded = cache.ensure_expanded
        succ = graph._succ
        gstart = graph._start
        gend = graph._end
        new_count = 0
        already = len(masks)
        max_configurations = self.max_configurations
        value_table = self._value_table
        decided_values_of = cache.decided_values_of

        def unlabelled_successors(sid: int) -> List[int]:
            nonlocal new_count
            new_count += 1
            if new_count + already > max_configurations:
                raise SearchBudgetExceeded(
                    f"valency analysis exceeded {max_configurations} configurations"
                )
            ensure_expanded(sid)
            mvals = masks._vals
            known = len(mvals)
            return [
                child for child in succ[gstart[sid]:gend[sid]]
                if child >= known or mvals[child] < 0
            ]

        # Components arrive sinks-first, so every mask outside the
        # component is final: the valency is the union of the members'
        # own decided values and of every outgoing mask.
        for component in strongly_connected_components(
            roots, unlabelled_successors
        ):
            mvals = masks._vals
            valency = 0
            for member in component:
                vals = decided_values_of(member)
                if vals:
                    valency |= value_table.mask_of(vals)
            in_component = set(component)
            for member in component:
                for i in range(gstart[member], gend[member]):
                    child = succ[i]
                    if child not in in_component:
                        valency |= mvals[child]
            for member in component:
                masks.set(member, valency)

    def label_reachable(self) -> Dict[Configuration, FrozenSet[Hashable]]:
        """Valency of *every* reachable configuration, in one linear pass."""
        intern = self.cache.intern
        self._label_ids([intern(c) for c in self.system.initial_configurations()])
        return dict(self._valency_cache)

    def is_bivalent(self, config: Configuration) -> bool:
        return self._mask_of_id(self.cache.intern(config)).bit_count() >= 2

    def is_univalent(self, config: Configuration) -> bool:
        return self._mask_of_id(self.cache.intern(config)).bit_count() == 1

    def classify_initial(self) -> List[Tuple[Configuration, FrozenSet[Hashable]]]:
        """Valency of every initial configuration (one batched labelling)."""
        intern = self.cache.intern
        ids = [intern(config) for config in self.system.initial_configurations()]
        self._label_ids(ids)
        config_of = self.cache.config_of
        set_of = self._value_table.set_of
        masks = self._masks
        return [(config_of(sid), set_of(masks.get(sid))) for sid in ids]

    def bivalent_initial_configuration(self) -> Optional[Configuration]:
        """FLP Lemma 2 mechanized: find a bivalent initial configuration.

        For a correct 1-resilient binary consensus protocol one must exist;
        returning None for a protocol claimed correct is itself evidence of
        a validity or resilience defect (e.g. a constant protocol).
        """
        for config, val in self.classify_initial():
            if len(val) >= 2:
                return config
        return None

    def find_agreement_violation(
        self, max_configurations: Optional[int] = None
    ) -> Optional[Configuration]:
        """Search the full reachable space for two processes deciding differently."""
        budget = max_configurations or self.max_configurations
        cache = self.cache
        graph = cache.graph
        ensure_expanded = cache.ensure_expanded
        decided_values_of = cache.decided_values_of
        intern = cache.intern
        seen = bytearray(len(cache.interner))
        seen_count = 0
        queue: deque = deque(
            intern(config) for config in self.system.initial_configurations()
        )
        succ = graph._succ
        gstart = graph._start
        gend = graph._end
        while queue:
            sid = queue.popleft()
            if sid < len(seen) and seen[sid]:
                continue
            if sid >= len(seen):
                seen.extend(b"\x00" * (sid + 1 - len(seen)))
            seen[sid] = 1
            seen_count += 1
            if seen_count > budget:
                raise SearchBudgetExceeded(
                    f"agreement check exceeded {budget} configurations"
                )
            if len(decided_values_of(sid)) >= 2:
                return cache.config_of(sid)
            ensure_expanded(sid)
            for i in range(gstart[sid], gend[sid]):
                child = succ[i]
                if child >= len(seen) or not seen[child]:
                    queue.append(child)
        return None

    # The survey's name for the same query: a reachable configuration in
    # which two processes have decided differently.
    find_disagreement = find_agreement_violation


@dataclass
class DeciderWitness:
    """A configuration from which one process controls the decision.

    Bridgeland–Watro deciders: from ``config``, process ``process`` can on
    its own drive the system to 0-valence via ``schedule_to[0]`` and to
    1-valence via ``schedule_to[1]``.  The survey's Figure 2.  A protocol
    with a reachable decider cannot be 1-resilient: the other processes
    must be able to finish without p, but cannot know which way p decided.
    """

    config: Configuration
    process: ProcessId
    schedule_to: Dict[Hashable, Tuple[Event, ...]]


@dataclass
class StallResult:
    """Outcome of running the FLP stalling adversary.

    ``schedule`` is the bivalence-preserving event sequence constructed;
    ``stages`` counts completed fairness stages (each stage services the
    oldest obligation of one process).  ``stuck_at`` is set when the
    adversary could not preserve bivalence while honouring an obligation —
    for a *correct* protocol this never happens (that is FLP Lemma 3); when
    it does happen the protocol has a hook the resilience analysis can
    exploit, recorded in ``decider``.
    """

    schedule: Tuple[Event, ...]
    final_config: Configuration
    stages: int
    stuck_at: Optional[Configuration] = None
    decider: Optional[DeciderWitness] = None

    @property
    def stayed_bivalent(self) -> bool:
        return self.stuck_at is None


class StallingAdversary:
    """The FLP adversary: keep the configuration bivalent forever, fairly.

    Given a bivalent configuration, repeatedly pick the process whose
    fairness obligation is oldest and search for a finite schedule, ending
    with that obligation's event, that lands in a bivalent configuration
    (FLP Lemma 3 guarantees one exists for correct protocols).  The
    resulting run is admissible — every process keeps taking steps, every
    owed event is eventually performed — yet no process ever decides.
    """

    def __init__(
        self,
        analyzer: ValencyAnalyzer,
        extension_budget: int = 10_000,
    ):
        self.analyzer = analyzer
        self.system = analyzer.system
        self.extension_budget = extension_budget

    def _bivalent_id(self, sid: int) -> bool:
        return self.analyzer._mask_of_id(sid).bit_count() >= 2

    def extend_bivalent(
        self, config: Configuration, obligation_process: ProcessId
    ) -> Optional[Tuple[Tuple[Event, ...], Configuration]]:
        """Find a schedule whose last event is owed to ``obligation_process``
        and which leaves the configuration bivalent.

        BFS over schedules; the *final* event applied is always the current
        fairness obligation of the target process at the point of
        application (i.e. its oldest pending event there), so honouring it
        genuinely discharges the obligation.  The search runs over dense
        ids; only the returned landing configuration is materialized.
        """
        analyzer = self.analyzer
        cache = analyzer.cache
        graph = cache.graph
        system = self.system
        start_id = cache.intern(config)
        queue: deque = deque([(start_id, ())])
        seen = IdFlags()
        seen.add(start_id)
        explored = 0
        while queue:
            sid, schedule = queue.popleft()
            explored += 1
            if explored > self.extension_budget:
                return None
            owed = system.fair_events(cache.config_of(sid))
            if obligation_process in owed:
                obligation = owed[obligation_process]
                candidate = cache.apply_id(sid, obligation)
                if candidate is None:
                    candidate = cache.intern(
                        system.apply(cache.config_of(sid), obligation)
                    )
                if self._bivalent_id(candidate):
                    return (
                        schedule + (obligation,),
                        cache.config_of(candidate),
                    )
            cache.ensure_expanded(sid)
            rstart, rend = graph.row_bounds(sid)
            succ, labels = graph._succ, graph._labels
            for i in range(rstart, rend):
                child = succ[i]
                if child not in seen and self._bivalent_id(child):
                    seen.add(child)
                    queue.append((child, schedule + (labels[i],)))
        return None

    def run(self, start: Configuration, stages: int) -> StallResult:
        """Drive ``stages`` fairness stages from a bivalent configuration."""
        if not self.analyzer.is_bivalent(start):
            raise ValueError("stalling adversary needs a bivalent start configuration")
        config = start
        schedule: Tuple[Event, ...] = ()
        process_order = list(self.system.processes)
        completed = 0
        for stage in range(stages):
            target = process_order[stage % len(process_order)]
            if target not in self.system.fair_events(config):
                # Nothing owed to this process right now (it is quiescent);
                # the obligation is vacuously discharged.
                completed += 1
                continue
            extension = self.extend_bivalent(config, target)
            if extension is None:
                decider = self._diagnose_decider(config)
                return StallResult(
                    schedule=schedule,
                    final_config=config,
                    stages=completed,
                    stuck_at=config,
                    decider=decider,
                )
            ext_schedule, config = extension
            schedule = schedule + ext_schedule
            completed += 1
        return StallResult(schedule=schedule, final_config=config, stages=completed)

    def _diagnose_decider(self, config: Configuration) -> Optional[DeciderWitness]:
        """When stalling fails, look for the decider the proof predicts."""
        for process in self.system.processes:
            schedules: Dict[Hashable, Tuple[Event, ...]] = {}
            for value in self.system.values:
                found = self._solo_schedule_to_valency(config, process, value)
                if found is not None:
                    schedules[value] = found
            if len(schedules) >= 2:
                return DeciderWitness(config, process, schedules)
        return None

    def _solo_schedule_to_valency(
        self, config: Configuration, process: ProcessId, value: Hashable
    ) -> Optional[Tuple[Event, ...]]:
        """Can ``process``, stepping alone, force valency {value}?"""
        analyzer = self.analyzer
        cache = analyzer.cache
        graph = cache.graph
        system = self.system
        target_mask = analyzer._value_table.bit_of(value)
        start_id = cache.intern(config)
        queue: deque = deque([(start_id, ())])
        seen = IdFlags()
        seen.add(start_id)
        explored = 0
        while queue:
            sid, schedule = queue.popleft()
            explored += 1
            if explored > self.extension_budget:
                return None
            if analyzer._mask_of_id(sid) == target_mask:
                return schedule
            cache.ensure_expanded(sid)
            rstart, rend = graph.row_bounds(sid)
            succ, labels = graph._succ, graph._labels
            for i in range(rstart, rend):
                event = labels[i]
                if system.owner(event) != process:
                    continue
                child = succ[i]
                if child not in seen:
                    seen.add(child)
                    queue.append((child, schedule + (event,)))
        return None


def find_herlihy_decider(
    analyzer: ValencyAnalyzer,
    max_configurations: int = 100_000,
) -> Optional[Tuple[Configuration, Dict[Event, FrozenSet[Hashable]]]]:
    """Find a *critical* configuration: bivalent, all successors univalent.

    This is Herlihy's notion of decider (survey §2.3): in a wait-free
    consensus protocol, the adversary can always drive the system to such a
    configuration, and case analysis on which pairs of steps commute then
    gives the consensus-number separations.  Returns the configuration and
    the valency of each successor event.
    """
    system = analyzer.system
    cache = analyzer.cache
    graph = cache.graph
    value_table = analyzer._value_table
    seen = IdFlags()
    queue: deque = deque(
        cache.intern(config) for config in system.initial_configurations()
    )
    while queue:
        sid = queue.popleft()
        if not seen.add(sid):
            continue
        if len(seen) > max_configurations:
            raise SearchBudgetExceeded(
                f"decider search exceeded {max_configurations} configurations"
            )
        cache.ensure_expanded(sid)
        start, end = graph.row_bounds(sid)
        succ, labels = graph._succ, graph._labels
        if start != end and analyzer._mask_of_id(sid).bit_count() >= 2:
            child_masks = [
                analyzer._mask_of_id(succ[i]) for i in range(start, end)
            ]
            if all(mask.bit_count() == 1 for mask in child_masks):
                successor_valencies = {
                    labels[start + offset]: value_table.set_of(mask)
                    for offset, mask in enumerate(child_masks)
                }
                return cache.config_of(sid), successor_valencies
        for i in range(start, end):
            child = succ[i]
            if child not in seen:
                queue.append(child)
    return None
