"""Mechanized shared-memory lower bounds (survey §2.1).

Two results are mechanized here.

**Cremers–Hibbard values bound (E1).**  "Two values of a single
test-and-set variable are insufficient for fair 2-process mutual
exclusion."  We enumerate *every* protocol in two bounded classes —
memoryless single-variable TAS protocols, and symmetric protocols with one
bit of trying-region memory — model-check each candidate for mutual
exclusion, deadlock-freedom and lockout-freedom, and certify that no
candidate achieves all three with a 2-valued variable, while semaphore-like
candidates do achieve the first two (the paper's "a 2-valued semaphore is
plenty if there are no fairness requirements").

**Burns–Lynch register bound, n = 2 case (E2).**  "Mutual exclusion for n
processes requires at least n read/write registers."  Rather than
enumerate protocols, we implement the proof itself as an *adversary*: a
procedure that takes an arbitrary 2-process algorithm using a single
read/write register and constructs a violating execution, by the covering
argument — (1) a process must write before entering its critical region
(or it is invisible), and (2) a write to the only register obliterates all
evidence that the other process ever ran.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Tuple

from ..core.errors import ModelError
from ..core.execution import Execution
from ..core.freeze import frozendict
from ..impossibility.certificate import (
    CounterexampleCertificate,
    ImpossibilityCertificate,
)
from .mutex.base import CRITICAL, MutexProcess, MutexSystem, REMAINDER
from .variables import Access, Read, Write, tas

# --------------------------------------------------------------------------
# E1: exhaustive search over single-TAS-variable protocol classes
# --------------------------------------------------------------------------

# A trying-table entry is either ("enter", w) — move to the critical region
# writing w — or ("stay", m, w) — remain trying, switch to mode m, write w.
TryEntry = Tuple
TryTable = Dict[Tuple[int, int], TryEntry]  # (mode, value) -> entry
ExitTable = Dict[int, int]  # value -> written value


@dataclass(frozen=True)
class ProtocolTable:
    """One synthesized single-variable TAS protocol for one process."""

    values: int
    modes: int
    try_table: Tuple[TryEntry, ...]  # indexed by mode * values + value
    exit_table: Tuple[int, ...]  # indexed by value

    def try_entry(self, mode: int, value: int) -> TryEntry:
        return self.try_table[mode * self.values + value]


class SyntheticTasProcess(MutexProcess):
    """A mutex participant driven by a :class:`ProtocolTable`.

    Every trying step and the single exit step are one atomic test-and-set
    access, exactly the Cremers–Hibbard model.
    """

    VAR = "v"

    def __init__(self, name: str, table: ProtocolTable):
        super().__init__(name)
        self.table = table

    def initial_fields(self):
        return {"mode": 0}

    def _try_step(self, value: Hashable, arg: Hashable) -> Tuple[Hashable, Hashable]:
        entry = self.table.try_entry(arg, value)
        if entry[0] == "enter":
            return entry[1], ("enter",)
        return entry[2], ("stay", entry[1])

    def trying_access(self, local: frozendict) -> Optional[Access]:
        return tas(self.VAR, self._try_step, arg=local["mode"], name="synthetic-try")

    def after_trying(self, local: frozendict, response: Hashable) -> frozendict:
        if response[0] == "enter":
            return local.set("region", CRITICAL).set("mode", 0)
        return local.set("mode", response[1])

    def _exit_step(self, value: Hashable, arg: Hashable) -> Tuple[Hashable, Hashable]:
        return self.table.exit_table[value], None

    def exit_access(self, local: frozendict) -> Optional[Access]:
        return tas(self.VAR, self._exit_step, name="synthetic-exit")

    def after_exit(self, local: frozendict, response: Hashable) -> frozendict:
        return local.set("region", REMAINDER).set("mode", 0)


def enumerate_protocol_tables(values: int, modes: int) -> Iterator[ProtocolTable]:
    """Every protocol table over ``values`` shared values and ``modes``
    trying modes.

    Entry options per (mode, value): ``values`` ways to enter plus
    ``modes * values`` ways to stay.
    """
    entry_options: List[TryEntry] = [("enter", w) for w in range(values)]
    entry_options += [
        ("stay", m, w) for m in range(modes) for w in range(values)
    ]
    slots = modes * values
    exit_options = list(itertools.product(range(values), repeat=values))
    for try_choice in itertools.product(entry_options, repeat=slots):
        for exit_choice in exit_options:
            yield ProtocolTable(values, modes, tuple(try_choice), tuple(exit_choice))


def protocol_table_count(values: int, modes: int) -> int:
    """How many tables :func:`enumerate_protocol_tables` yields, without
    building any: ``values + modes * values`` entry options in each of
    ``modes * values`` slots, times ``values ** values`` exit tables."""
    return (values + modes * values) ** (modes * values) * values ** values


@dataclass
class CandidateVerdict:
    """Model-checking outcome for one candidate protocol pair."""

    tables: Tuple[ProtocolTable, ...]
    mutual_exclusion: bool
    deadlock_free: bool
    lockout_free: bool

    @property
    def fair_solution(self) -> bool:
        return self.mutual_exclusion and self.deadlock_free and self.lockout_free

    @property
    def unfair_solution(self) -> bool:
        return self.mutual_exclusion and self.deadlock_free and not self.lockout_free


def build_synthetic_system(tables: Iterable[ProtocolTable], initial_value: int = 0
                           ) -> MutexSystem:
    processes = [
        SyntheticTasProcess(f"p{i}", table) for i, table in enumerate(tables)
    ]
    return MutexSystem(
        processes,
        initial_memory={SyntheticTasProcess.VAR: initial_value},
        name="synthetic-tas",
    )


def check_candidate(tables: Tuple[ProtocolTable, ...],
                    max_states: int = 20_000) -> CandidateVerdict:
    """Model-check one candidate protocol pair for all three properties."""
    system = build_synthetic_system(tables)
    mutex_ok = system.check_mutual_exclusion(max_states=max_states) is None
    if not mutex_ok:
        return CandidateVerdict(tables, False, False, False)
    deadlock_ok = all(
        system.check_deadlock_freedom(p.name, max_states=max_states) is None
        for p in system.processes
    )
    if not deadlock_ok:
        return CandidateVerdict(tables, True, False, False)
    lockout_ok = all(
        system.check_lockout_freedom(p.name, max_states=max_states) is None
        for p in system.processes
    )
    return CandidateVerdict(tables, True, True, lockout_ok)


def search_two_process_protocols(
    values: int,
    modes: int = 1,
    symmetric: bool = False,
    max_candidates: Optional[int] = None,
) -> List[CandidateVerdict]:
    """Model-check every candidate 2-process protocol in the class.

    With ``symmetric=True`` both processes run the same table (the class is
    then linear rather than quadratic in the table count).  Returns the
    verdict list; see :func:`cremers_hibbard_certificate` for the certified
    conclusion.
    """
    count = protocol_table_count(values, modes)
    total = count if symmetric else count ** 2
    if max_candidates is not None and total > max_candidates:
        raise ModelError(
            f"protocol class has {total} candidates, above the limit "
            f"{max_candidates}; narrow the class"
        )
    tables = list(enumerate_protocol_tables(values, modes))
    if symmetric:
        candidates: Iterable[Tuple[ProtocolTable, ...]] = ((t, t) for t in tables)
    else:
        candidates = itertools.product(tables, repeat=2)
    return [check_candidate(pair) for pair in candidates]


def cremers_hibbard_certificate(
    values: int = 2, modes: int = 1, symmetric: bool = False
) -> ImpossibilityCertificate:
    """Certify: no candidate with ``values`` shared values is a *fair*
    mutual exclusion protocol, though unfair (semaphore-like) ones exist.

    Raises if a fair candidate is found — which would refute the claim for
    this class (and would be a library bug for values=2, or a discovery for
    values=3).
    """
    verdicts = search_two_process_protocols(values, modes, symmetric)
    fair = [v for v in verdicts if v.fair_solution]
    unfair = [v for v in verdicts if v.unfair_solution]
    if fair:
        raise ModelError(
            f"found {len(fair)} fair protocols with {values} values — "
            "the impossibility claim fails for this class"
        )
    shape = "symmetric" if symmetric else "asymmetric"
    return ImpossibilityCertificate(
        claim=(
            f"no 2-process mutual exclusion protocol over a single "
            f"{values}-valued test-and-set variable is lockout-free"
        ),
        scope=(
            f"{shape} protocols, {modes} trying mode(s), one TAS access per "
            f"step, exhaustive over {len(verdicts)} candidates"
        ),
        technique="pigeonhole / exhaustive model checking",
        candidates_checked=len(verdicts),
        details={
            "mutual_exclusion_holders": sum(
                1 for v in verdicts if v.mutual_exclusion
            ),
            "unfair_solutions": len(unfair),
            "fair_solutions": 0,
        },
    )


# --------------------------------------------------------------------------
# E2: the Burns–Lynch covering adversary for a single read/write register
# --------------------------------------------------------------------------


@dataclass
class SoloRun:
    """A process's solo behaviour: inputs + steps until critical entry.

    ``actions`` replays against the full system; ``first_write_index``
    locates the process's first write step within them (None if it enters
    its critical region without writing).  ``enters`` is False when the
    solo run cycles without entering (a progress violation on its own).
    """

    victim: str
    actions: Tuple
    first_write_index: Optional[int]
    enters: bool


def _classify_access(access: Access) -> str:
    if isinstance(access.op, Read):
        return "read"
    if isinstance(access.op, Write):
        return "write"
    raise ModelError(
        "the Burns–Lynch adversary applies to read/write algorithms only; "
        f"found operation {access.op!r}"
    )


def _solo_run(system: MutexSystem, victim: str, budget: int = 10_000) -> SoloRun:
    """Simulate ``victim`` running alone from the initial state."""
    state = next(iter(system.initial_states()))
    proc = system.process_named(victim)
    actions: List = [("try", victim)]
    state = next(iter(system.apply(state, ("try", victim))))
    first_write: Optional[int] = None
    seen = {state}
    for _ in range(budget):
        local = system.local_state(state, victim)
        output = proc.output_action(local)
        if output is not None:
            actions.append(output)
            state = next(iter(system.apply(state, output)))
            if output == ("crit", victim):
                return SoloRun(victim, tuple(actions), first_write, True)
            continue
        access = proc.pending_access(local)
        if access is None:
            break
        if _classify_access(access) == "write" and first_write is None:
            first_write = len(actions)
        actions.append(("step", victim))
        state = next(iter(system.apply(state, ("step", victim))))
        if state in seen and first_write is None:
            # Cycling on reads alone: never enters, never writes.
            return SoloRun(victim, tuple(actions), None, False)
        seen.add(state)
    return SoloRun(victim, tuple(actions), first_write, False)


def burns_lynch_attack(system: MutexSystem) -> CounterexampleCertificate:
    """Defeat any 2-process mutex algorithm over one read/write register.

    Implements the covering argument of [27] constructively: returns a
    certificate whose evidence is a concrete execution of ``system`` that
    either puts both processes in their critical regions simultaneously or
    exhibits a solo progress failure.  Raises :class:`ModelError` if the
    system does not match the theorem's hypotheses (two processes, one
    shared variable, read/write accesses only).
    """
    if len(system.processes) != 2:
        raise ModelError("the attack is stated for exactly two processes")
    if len(system.initial_memory) != 1:
        raise ModelError(
            "the attack applies to algorithms using a single shared register; "
            f"this system has {len(system.initial_memory)}"
        )
    p0, p1 = (p.name for p in system.processes)
    run0 = _solo_run(system, p0)
    run1 = _solo_run(system, p1)

    for run in (run0, run1):
        if not run.enters and run.first_write_index is None:
            execution = Execution.run(system, run.actions)
            return CounterexampleCertificate(
                claim=(
                    f"{system.name}: {run.victim} running alone never enters "
                    "its critical region — progress violation"
                ),
                technique="covering argument (solo run)",
                evidence=execution,
                details={"solo_steps": len(run.actions)},
            )

    # Interleave: p0 up to (but excluding) its first write — all reads, so
    # memory still looks initial to p1; p1's full solo run to its critical
    # region; then p0's continuation, whose first step *obliterates* the
    # register, hiding p1 entirely.
    if run0.first_write_index is None:
        prefix0 = list(run0.actions)  # p0 entered without ever writing
        suffix0: List = []
    else:
        prefix0 = list(run0.actions[: run0.first_write_index])
        suffix0 = list(run0.actions[run0.first_write_index:])
    actions = prefix0 + list(run1.actions) + suffix0
    execution = Execution.run(system, actions)
    final = execution.last_state
    both_critical = len(system.critical_processes(final)) == 2
    if not both_critical:
        raise ModelError(
            f"covering attack failed to violate mutual exclusion on "
            f"{system.name}; the system may not satisfy the theorem's "
            "hypotheses (e.g. nondeterministic or non-register operations)"
        )
    return CounterexampleCertificate(
        claim=(
            f"{system.name}: both processes simultaneously critical — "
            "mutual exclusion is impossible with a single read/write register"
        ),
        technique="covering argument (obliterated write)",
        evidence=execution,
        replay=lambda: len(
            system.critical_processes(Execution.run(system, actions).last_state)
        ) == 2,
        details={
            "p0_reads_before_first_write": len(prefix0) - 1,
            "schedule_length": len(actions),
        },
    )


# --------------------------------------------------------------------------
# A deliberately plausible single-register algorithm for the adversary to eat
# --------------------------------------------------------------------------


class NaiveSpinLockProcess(MutexProcess):
    """Read the register until it is 0, then write 1 and enter.

    The natural first attempt at a lock with one read/write register; the
    Burns–Lynch adversary finds its race in four moves.
    """

    VAR = "lock"

    def initial_fields(self):
        return {"pc": "read"}

    def trying_access(self, local: frozendict) -> Optional[Access]:
        from .variables import read as read_access, write as write_access

        if local["pc"] == "read":
            return read_access(self.VAR)
        return write_access(self.VAR, 1)

    def after_trying(self, local: frozendict, response: Hashable) -> frozendict:
        if local["pc"] == "read":
            if response == 0:
                return local.set("pc", "write")
            return local
        return local.set("region", CRITICAL).set("pc", "read")

    def start_exit(self, local: frozendict) -> frozendict:
        return local.set("pc", "release")

    def exit_access(self, local: frozendict) -> Optional[Access]:
        from .variables import write as write_access

        return write_access(self.VAR, 0)

    def after_exit(self, local: frozendict, response: Hashable) -> frozendict:
        return local.set("region", REMAINDER).set("pc", "read")


def naive_spin_lock_system() -> MutexSystem:
    processes = [NaiveSpinLockProcess("p0"), NaiveSpinLockProcess("p1")]
    return MutexSystem(
        processes,
        initial_memory={NaiveSpinLockProcess.VAR: 0},
        name="naive-spin-lock",
    )
