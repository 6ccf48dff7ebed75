"""Partial synchrony as adversary atoms: GST schedules, DLS consensus.

The survey's second escape hatch from FLP (§2.2.3, Dwork–Lynch–
Stockmeyer): the network may be arbitrarily asynchronous for an unknown
but finite prefix, after which a Global Stabilization Time (GST) makes
every message arrive on time.  Consensus is impossible before GST and
guaranteed after — and this module makes *both* halves mechanical by
promoting the synchrony assumption itself into first-class chaos atoms:

* ``("gst", g)`` — from round ``g`` onward the network is synchronous:
  every message on every link arrives within its round, whatever the
  scripted delays say.  Several atoms: the earliest wins (stabilization
  cannot be retracted).  A schedule with *no* gst atom never stabilizes
  (``default_gst`` can override).
* ``("delay", r, (src, dst), d)`` — the round-``r`` message on the
  directed link src->dst is delayed ``d >= 1`` rounds.  In a
  round-synchronized protocol a message that misses its round is lost to
  that round, so any ``d >= 1`` is a per-round drop; the shrinker's
  :func:`simplify_gst_atom` still reduces ``d`` toward 1 so 1-minimal
  schedules name the mildest sufficient delay.
* ``("down", r, pid)`` — ``pid`` crashes at round ``r`` (the partition
  adversary's atom, honoured here for at most ``t`` distinct pids).

ddmin deletion has clean one-sided semantics for delays and crashes
(removing one strictly heals the run); deleting a ``gst`` atom makes the
run *harsher* (stabilization never comes), which is harmless because
only safety violations shrink and safety never depends on synchrony.

The protocol is a DLS-style round-synchronized rotating coordinator with
locks: each round the live processes report ``(value, lock)`` to the
coordinator ``r mod n``; on ``n - t`` reports it proposes the value with
the highest lock round; reporters that hear the proposal lock it and
ack; on ``n - t`` acks the coordinator decides and broadcasts the
decision.  Quorums of size ``n - t`` intersect (``2t < n``), so a
decided value owns every later proposal — agreement and validity hold
under *every* delay schedule.  Liveness is exactly GST: under a pre-GST
blackout with a step budget below ``n * gst`` the run provably stalls,
exiting via a structured :class:`~repro.core.budget.BudgetExceeded`
receipt with nothing decided and nothing unsafe; give it budget past GST
and the first stabilized round with a live coordinator decides.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.budget import Budget, BudgetExceeded, BudgetMeter
from ..core.errors import ModelError
from ..core.runtime import (
    CRASH,
    DECIDE,
    DECLARE,
    DROP,
    SEND,
    Trace,
    TraceEvent,
    drive,
)
from .partitions import Atom, Schedule

SUBSTRATE = "gst-consensus"

GST_ATOM = "gst"
DELAY_ATOM = "delay"
DOWN_ATOM = "down"


class GSTAdversary:
    """Compiled form of a partial-synchrony schedule.

    O(1) per-message delivery queries; immutable across queries, so the
    simulator and any post-hoc monitor re-deciding deliveries from the
    trace can never disagree about what the network did.
    """

    def __init__(
        self,
        atoms: Iterable[Atom],
        n: int,
        t: int = 0,
        default_gst: Optional[int] = None,
    ):
        self.n = n
        self.atoms: Schedule = tuple(atoms)
        self.gst: Optional[int] = default_gst
        # (round, src, dst) -> scripted delay (rounds)
        self._delays: Dict[Tuple[int, int, int], int] = {}
        self.crashed_at: Dict[int, int] = {}
        for atom in self.atoms:
            tag = atom[0]
            if tag == GST_ATOM:
                _, g = atom
                self.gst = g if self.gst is None else min(self.gst, g)
            elif tag == DELAY_ATOM:
                _, r, link, d = atom
                src, dst = link
                key = (r, src, dst)
                self._delays[key] = max(self._delays.get(key, 0), d)
            elif tag == DOWN_ATOM:
                _, r, pid = atom
                if pid in self.crashed_at:
                    self.crashed_at[pid] = min(self.crashed_at[pid], r)
                elif len(self.crashed_at) < t:
                    self.crashed_at[pid] = r
            else:
                raise ValueError(f"unknown gst atom {atom!r}")

    def stabilized(self, rnd: int) -> bool:
        """Has GST passed by round ``rnd``?"""
        return self.gst is not None and rnd >= self.gst

    def delivered(self, rnd: int, src: int, dst: int) -> bool:
        """Does the round-``rnd`` message src->dst arrive within its round?

        Self-delivery always succeeds; after GST everything does — the
        synchrony bound overrides every scripted delay, which is the
        whole content of the DLS assumption.
        """
        if src == dst:
            return True
        if self.stabilized(rnd):
            return True
        return self._delays.get((rnd, src, dst), 0) < 1

    def crashed(self, rnd: int, pid: int) -> bool:
        at = self.crashed_at.get(pid)
        return at is not None and rnd >= at

    def reset(self) -> None:
        """Stateless — present for the FaultAdversary replay contract."""


def simplify_gst_atom(atom: Atom):
    """Strictly milder variants of one gst atom, for the shrinker.

    A shorter delay is milder (``d`` decreases toward 1); an earlier GST
    is milder (less asynchrony).  Both strictly decrease an integer, so
    per-atom simplification terminates.  Crashes have no internal
    structure — ddmin deletes them whole.
    """
    tag = atom[0]
    if tag == DELAY_ATOM:
        _, r, link, d = atom
        if d > 1:
            yield (DELAY_ATOM, r, link, 1)
    elif tag == GST_ATOM:
        _, g = atom
        for earlier in range(g - 1, -1, -1):
            yield (GST_ATOM, earlier)


def blackout_atoms(gst: int, n: int) -> Schedule:
    """The canonical pre-GST worst case: every link dark until ``gst``.

    One delay atom per (round, directed link) below ``gst``, plus the
    ``("gst", gst)`` stabilization atom — the schedule under which the
    impossibility half of DLS is exercised end to end.
    """
    atoms: List[Atom] = [(GST_ATOM, gst)]
    for r in range(gst):
        for src, dst in itertools.permutations(range(n), 2):
            atoms.append((DELAY_ATOM, r, (src, dst), 1))
    return tuple(atoms)


@dataclass
class GSTRun:
    """One DLS-consensus run (possibly partial, budget convention)."""

    trace: Trace
    complete: bool
    decisions: Dict[int, Optional[int]]
    rounds: int
    gst: Optional[int]
    crashed: Tuple[int, ...]
    resume: Optional["_GSTSim"] = field(default=None, repr=False)
    interrupted: Optional[BudgetExceeded] = None


class _GSTSim:
    """Mutable state: values, locks, the round cursor, the log."""

    substrate = SUBSTRATE
    protocol = "dls-rotating-coordinator"

    def __init__(
        self,
        atoms: Schedule,
        seed,
        inputs: Tuple[int, ...],
        t: int,
        max_rounds: int,
        default_gst: Optional[int],
    ):
        self.n = self.cost = len(inputs)
        self.t = t
        if 2 * t >= self.n:
            raise ModelError(
                f"DLS consensus needs n > 2t, got n={self.n}, t={t}"
            )
        self.adversary = GSTAdversary(atoms, self.n, t, default_gst)
        self.seed = seed
        self.inputs = tuple(inputs)
        self.max_rounds = max_rounds
        self.quorum = self.n - t
        self.rnd = 0
        self.value = list(self.inputs)
        self.lock = [-1] * self.n
        self.decided: List[Optional[int]] = [None] * self.n
        self.events: List[TraceEvent] = []
        self._step_no = 0
        self._announced_crashes: set = set()

    def _emit(self, actor, kind, payload):
        self.events.append(
            TraceEvent(self._step_no, actor, kind, payload, self.rnd, None)
        )
        self._step_no += 1

    def _live(self) -> List[int]:
        return [
            p for p in range(self.n) if not self.adversary.crashed(self.rnd, p)
        ]

    def restart(self) -> "_GSTSim":
        return _GSTSim(
            self.adversary.atoms, self.seed, self.inputs, self.t,
            self.max_rounds, self.adversary.gst,
        )

    def step(self) -> None:
        """One synchronized round: report, propose, ack, maybe decide."""
        r = self.rnd
        adv = self.adversary
        for pid, at in adv.crashed_at.items():
            if r >= at and pid not in self._announced_crashes:
                self._announced_crashes.add(pid)
                self._emit(pid, CRASH, ("at", at))
        live = self._live()
        c = r % self.n
        # A decided process keeps relaying its decision; the first round
        # in which the relay lands (GST at the latest) finishes everyone.
        settled = [p for p in live if self.decided[p] is not None]
        if settled:
            v = self.decided[settled[0]]
            for p in live:
                if self.decided[p] is None and any(
                    adv.delivered(r, q, p) for q in settled
                ):
                    self.decided[p] = v
                    self._emit(p, DECIDE, v)
            self.rnd = r + 1
            return
        if c not in live:
            self._emit(c, DROP, ("coordinator-down", r))
            self.rnd = r + 1
            return
        # Phase 1: reports flow to the coordinator (or die pre-GST).
        reports: Dict[int, Tuple[int, int]] = {}
        for p in live:
            self._emit(p, SEND, ("report", self.value[p], self.lock[p]))
            if adv.delivered(r, p, c):
                reports[p] = (self.value[p], self.lock[p])
            else:
                self._emit(c, DROP, ("report", p))
        if len(reports) < self.quorum:
            self._emit(c, DECLARE, ("no-quorum", len(reports)))
            self.rnd = r + 1
            return
        # Quorum intersection: the highest lock in any n-t reports
        # carries every previously decided value forward.
        best = max(reports, key=lambda p: (reports[p][1], -p))
        proposal = reports[best][0]
        self._emit(c, SEND, ("propose", proposal))
        # Phase 2: processes that hear the proposal lock it and ack.
        acks = 0
        for p in live:
            if adv.delivered(r, c, p) and adv.delivered(r, p, c):
                self.value[p] = proposal
                self.lock[p] = r
                self._emit(p, DECLARE, ("ack", c))
                acks += 1
            else:
                self._emit(p, DECLARE, ("miss", c))
        # Phase 3: a quorum of acks decides; the decision broadcast
        # reaches whoever the round still delivers to.
        if acks >= self.quorum:
            self.decided[c] = proposal
            self._emit(c, DECIDE, proposal)
            for p in live:
                if p != c and adv.delivered(r, c, p):
                    self.decided[p] = proposal
                    self._emit(p, DECIDE, proposal)
        self.rnd = r + 1

    @property
    def done(self) -> bool:
        live = self._live()
        if all(self.decided[p] is not None for p in live):
            return True
        return self.rnd >= self.max_rounds

    def outcome(self) -> Dict:
        return {
            "decisions": tuple(
                (p, self.decided[p]) for p in range(self.n)
            ),
            "rounds": self.rnd,
            "gst": self.adversary.gst,
            "crashed": tuple(sorted(self.adversary.crashed_at)),
            "complete": self.done,
        }


def run_gst_consensus(
    atoms: Schedule,
    seed=None,
    *,
    inputs: Sequence[int] = (0, 1, 1, 0),
    t: int = 1,
    max_rounds: int = 64,
    default_gst: Optional[int] = None,
    meter: Optional[BudgetMeter] = None,
    budget: Optional[Budget] = None,
    resume: Optional[GSTRun] = None,
) -> GSTRun:
    """Run (or resume) DLS consensus under a partial-synchrony schedule.

    Charges ``meter`` (raising on overdraft) ``n`` steps per round —
    which is what makes the pre-GST stall *provable*: under a blackout
    schedule with ``max_steps < n * gst`` the overdraft arrives before
    stabilization can, carrying the structured receipt.  A ``budget=``
    overdraft instead returns ``complete=False`` with a resume handle.
    """
    run = drive(
        lambda: _GSTSim(
            tuple(atoms), seed, tuple(inputs), t, max_rounds, default_gst
        ),
        meter=meter,
        budget=budget,
        resume=resume,
    )
    sim = run.sim
    return GSTRun(
        trace=run.trace,
        complete=run.complete,
        decisions={p: sim.decided[p] for p in range(sim.n)},
        rounds=sim.rnd,
        gst=sim.adversary.gst,
        crashed=tuple(sorted(sim.adversary.crashed_at)),
        resume=run.resume,
        interrupted=run.interrupted,
    )
