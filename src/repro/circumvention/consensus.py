"""Rotating-coordinator consensus: termination bought with suspicion.

The FLP circumvention receipt, both sides on one protocol.  The
Chandra–Toueg shape: rounds rotate the coordinator ``c = r mod n``; each
round the coordinator gathers timestamped estimates, proposes the most
recent, and processes **ack** unless their failure detector tells them
to suspect the coordinator — in which case they **nack** and the round
is wasted.  A quorum of acks decides.

Safety never depends on the detector: a decision requires a quorum
behind a single per-round proposal, so agreement and validity hold under
*every* suspicion schedule — wrong suspicions can only waste rounds.
Liveness is exactly the detector's accuracy:

* under an **eventually accurate** schedule (all suspicion atoms confined
  to rounds below some bound) the first clean round decides — the
  possible side;
* under a **relentless full coalition** (every process forever suspects
  every coordinator but itself) no round ever collects a quorum, and the
  run exits via a structured :class:`~repro.core.budget.BudgetExceeded`
  — never via a safety violation.  That stall *is* the impossibility
  made operational: take the detector away and FLP takes the protocol.

Suspicion schedules are chaos atoms:

* ``("suspect", r, pid)`` — ``pid`` suspects round ``r``'s coordinator
  during round ``r`` only;
* ``("relentless", pid)`` — ``pid`` suspects every coordinator, every
  round (except itself: a coordinator always backs its own proposal).

``budget=`` overdrafts return a resumable partial
:class:`ConsensusRun`; ``meter=`` (an external account, e.g. the chaos
campaign's) propagates the raise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.budget import Budget, BudgetExceeded
from ..core.runtime import DECIDE, DECLARE, SEND, Trace, TraceEvent, drive
from .partitions import Schedule

SUBSTRATE = "rotating-consensus"

SUSPECT_ATOM = "suspect"
RELENTLESS_ATOM = "relentless"


class SuspicionOracle:
    """Compiled suspicion schedule: does p suspect round r's coordinator?"""

    def __init__(self, atoms: Schedule, n: int):
        self.atoms = tuple(atoms)
        self.n = n
        self._scripted: Dict[Tuple[int, int], bool] = {}
        self._relentless: set = set()
        for atom in self.atoms:
            if atom[0] == SUSPECT_ATOM:
                _, r, pid = atom
                self._scripted[(r, pid)] = True
            elif atom[0] == RELENTLESS_ATOM:
                self._relentless.add(atom[1])
            else:
                raise ValueError(f"unknown suspicion atom {atom!r}")

    def suspects(self, rnd: int, pid: int, coordinator: int) -> bool:
        if pid == coordinator:
            return False
        if pid in self._relentless:
            return True
        return self._scripted.get((rnd, pid), False)

    def max_scripted_round(self) -> int:
        return max((r for (r, _p) in self._scripted), default=-1)


@dataclass
class ConsensusRun:
    """One rotating-coordinator run (possibly partial)."""

    trace: Trace
    complete: bool
    decided: Optional[int]
    rounds: int
    resume: Optional["_ConsensusSim"] = field(default=None, repr=False)
    interrupted: Optional[BudgetExceeded] = None


class _ConsensusSim:
    """Mutable state: estimates, timestamps, the round cursor, the log."""

    substrate = SUBSTRATE
    protocol = "rotating-coordinator"

    def __init__(
        self,
        atoms: Schedule,
        seed: Optional[int],
        inputs: Sequence[int],
        max_rounds: int,
    ):
        self.oracle = SuspicionOracle(atoms, len(inputs))
        self.seed = seed
        self.inputs = tuple(inputs)
        self.n = self.cost = len(inputs)
        self.quorum = self.n // 2 + 1
        self.max_rounds = max_rounds
        self.rnd = 0
        self.estimate = list(self.inputs)
        self.timestamp = [-1] * self.n
        self.decided: Optional[int] = None
        self.events: List[TraceEvent] = []
        self._step_no = 0

    def _emit(self, actor, kind, payload):
        self.events.append(
            TraceEvent(self._step_no, actor, kind, payload, self.rnd, None)
        )
        self._step_no += 1

    def restart(self) -> "_ConsensusSim":
        return _ConsensusSim(
            self.oracle.atoms, self.seed, self.inputs, self.max_rounds
        )

    def step(self) -> None:
        """One full round: gather, propose, ack-or-nack, maybe decide."""
        r = self.rnd
        c = r % self.n
        # Phase 1: estimates flow to the coordinator.
        for p in range(self.n):
            self._emit(
                p, SEND, ("estimate", self.estimate[p], self.timestamp[p])
            )
        # The coordinator adopts the most recently locked estimate
        # (highest timestamp; min pid breaks ties deterministically).
        best = max(
            range(self.n), key=lambda p: (self.timestamp[p], -p)
        )
        proposal = self.estimate[best]
        self._emit(c, SEND, ("propose", proposal))
        # Phase 2: ack unless the local detector suspects the coordinator.
        acks = 0
        for p in range(self.n):
            if self.oracle.suspects(r, p, c):
                self._emit(p, DECLARE, ("nack", c))
            else:
                self.estimate[p] = proposal
                self.timestamp[p] = r
                self._emit(p, DECLARE, ("ack", c))
                acks += 1
        # Phase 3: a quorum behind one proposal decides for everyone.
        if acks >= self.quorum:
            self.decided = proposal
            for p in range(self.n):
                self._emit(p, DECIDE, proposal)
        self.rnd = r + 1

    @property
    def done(self) -> bool:
        return self.decided is not None or self.rnd >= self.max_rounds

    def outcome(self) -> Dict:
        return {
            "decisions": tuple(
                (p, self.decided) for p in range(self.n)
            ),
            "rounds": self.rnd,
            "quorum": self.quorum,
            "complete": self.done,
        }


def run_rotating_consensus(
    atoms: Schedule,
    seed: Optional[int] = None,
    *,
    inputs: Sequence[int] = (0, 1, 1),
    max_rounds: int = 64,
    meter=None,
    budget: Optional[Budget] = None,
    resume: Optional[ConsensusRun] = None,
) -> ConsensusRun:
    """Run (or resume) rotating-coordinator consensus under a suspicion
    schedule.

    Charges ``meter`` (raising on overdraft) ``n`` steps per round; a
    ``budget=`` overdraft instead returns ``complete=False`` with a
    ``resume`` handle.
    """
    run = drive(
        lambda: _ConsensusSim(tuple(atoms), seed, inputs, max_rounds),
        meter=meter,
        budget=budget,
        resume=resume,
    )
    return ConsensusRun(
        trace=run.trace,
        complete=run.complete,
        decided=run.sim.decided,
        rounds=run.sim.rnd,
        resume=run.resume,
        interrupted=run.interrupted,
    )
