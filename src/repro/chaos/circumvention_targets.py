"""Chaos targets for the circumvention layer: detectors, leases, Omega.

Three honest protocols and their planted-bug / adversarial twins, so
campaigns exercise both sides of every circumvention:

* **quorum leases** — honest grants are quorum-backed and partition-safe
  (``lease-quorum``, a healthy control under arbitrary split / cut /
  crash schedules); the planted bug grants on *any* ack
  (``lease-no-quorum-bug``) and one partition atom at election time
  yields two concurrent leaseholders — the 1-minimal counterexample
  ddmin converges to;
* **failure detectors** — the adaptive heartbeat detector stabilizes on
  one live leader once the partition schedule goes quiet
  (``detector-heartbeat``, healthy); the planted bug disables adaptation
  with a timeout below the heartbeat interval
  (``detector-unstable-bug``) and the leader flaps forever, on the
  *empty* schedule — the detector itself is the counterexample;
* **rotating-coordinator consensus** — under eventually-accurate
  suspicion schedules every seed decides (``omega-rotating-consensus``,
  healthy: the FLP circumvention's possible side); under a relentless
  full-coalition schedule no round ever collects a quorum and the run
  exits via a structured budget overdraft, never via a safety violation
  (``rotating-consensus-adversarial``, ``expect_stall`` — the
  impossible side, made operational).

Simulator seeds are pinned (trace fingerprints incorporate the seed, so
a fixed sim seed makes behavioural coverage a function of the schedule
alone — the LCR-control idiom); campaign seeds still drive generation.
"""

from __future__ import annotations

import random
from typing import Iterator, List

from ..circumvention.consensus import run_rotating_consensus
from ..circumvention.detectors import run_heartbeat_detector
from ..circumvention.gst import run_gst_consensus
from ..circumvention.leases import run_quorum_lease
from ..circumvention.randomized import run_ben_or_traced
from ..core.budget import Budget, TandemMeter
from ..core.runtime import Trace
from . import generators
from .monitors import (
    AgreementMonitor,
    DegradedModeMonitor,
    LeaderStabilityMonitor,
    LeaseSafetyMonitor,
    TerminationMonitor,
    TraceMonitor,
    ValidityMonitor,
)
from .targets import Atom, ChaosTarget, Schedule


# ---------------------------------------------------------------------------
# Quorum leases under partition adversaries
# ---------------------------------------------------------------------------


class QuorumLeaseTarget(ChaosTarget):
    """Honest quorum leases fuzzed with partition schedules — healthy.

    Promise persistence plus quorum intersection make concurrent leases
    impossible under *every* schedule the partition adversary can throw,
    and the degraded-mode monitor holds the protocol to its own CAP
    contract (read-only without a quorum, bounded-staleness reads).  Any
    violation here is an engine bug, not the protocol.
    """

    name = "lease-quorum"
    substrate = "quorum-lease"
    expect_violation = False

    N = 4
    HORIZON = 48
    STALENESS = 8
    BUGGY = False

    def generate(self, rng: random.Random) -> Schedule:
        return generators.random_partition_atoms(
            rng, n=self.N, horizon=self.HORIZON
        )

    def run(self, atoms, seed, meter=None) -> Trace:
        return run_quorum_lease(
            atoms,
            seed=0,
            n=self.N,
            horizon=self.HORIZON,
            staleness_bound=self.STALENESS,
            buggy_no_quorum=self.BUGGY,
            meter=meter,
        ).trace

    def monitors(self, atoms) -> List[TraceMonitor]:
        return [
            LeaseSafetyMonitor(),
            DegradedModeMonitor(
                generators.partition_adversary(atoms, self.N), self.STALENESS
            ),
        ]

    def simplify_atom(self, atom) -> Iterator[Atom]:
        return generators.simplify_partition_atom(atom)


class BuggyLeaseTarget(QuorumLeaseTarget):
    """Leases granted on any single ack — the planted quorum bug.

    A split (or an asymmetric cut into the would-be grantee) during an
    election step leaves two requesters each collecting an ack on their
    own side, and both "win": two concurrent leaseholders, double
    writes.  ddmin shrinks the fuzzer's finding to the one atom that
    split the election.
    """

    name = "lease-no-quorum-bug"
    expect_violation = True
    BUGGY = True


# ---------------------------------------------------------------------------
# Heartbeat failure detectors
# ---------------------------------------------------------------------------


class HeartbeatDetectorTarget(ChaosTarget):
    """The adaptive heartbeat detector under partitions — healthy.

    Partition atoms are confined below ``STABLE_AFTER``, so the network
    is quiet for the rest of the horizon; adaptive timeouts then
    guarantee suspicion of live peers dies out, crashed peers stay
    suspected (completeness), and every live process settles on the
    minimum live pid as leader well before the stability window.
    """

    name = "detector-heartbeat"
    substrate = "failure-detector"
    expect_violation = False

    N = 4
    HORIZON = 40
    STABLE_AFTER = 16
    WINDOW = 8
    ADAPTIVE = True
    INITIAL_TIMEOUT = 4

    def generate(self, rng: random.Random) -> Schedule:
        return generators.random_partition_atoms(
            rng, n=self.N, horizon=self.STABLE_AFTER, max_down=1
        )

    def run(self, atoms, seed, meter=None) -> Trace:
        return run_heartbeat_detector(
            atoms,
            seed=0,
            n=self.N,
            horizon=self.HORIZON,
            adaptive=self.ADAPTIVE,
            initial_timeout=self.INITIAL_TIMEOUT,
            meter=meter,
        ).trace

    def monitors(self, atoms) -> List[TraceMonitor]:
        crashed = {atom[2] for atom in atoms if atom[0] == "down"}
        live = [p for p in range(self.N) if p not in crashed]
        return [
            LeaderStabilityMonitor(live, self.HORIZON, window=self.WINDOW)
        ]

    def simplify_atom(self, atom) -> Iterator[Atom]:
        return generators.simplify_partition_atom(atom)


class UnstableDetectorTarget(HeartbeatDetectorTarget):
    """A detector that never stabilizes — the planted timeout bug.

    Adaptation off and a timeout below the heartbeat interval: every
    arrival re-trusts a peer the very next step re-suspects, so every
    non-minimum process's leader flaps for the whole run.  The monitor
    fires on every seed — including the empty schedule, which is exactly
    what the shrinker reduces each finding to.
    """

    name = "detector-unstable-bug"
    expect_violation = True
    ADAPTIVE = False
    INITIAL_TIMEOUT = 0


# ---------------------------------------------------------------------------
# Rotating-coordinator consensus: both sides of the FLP circumvention
# ---------------------------------------------------------------------------


class OmegaConsensusTarget(ChaosTarget):
    """Rotating consensus under eventually-accurate suspicion — healthy.

    Suspicion atoms are confined below ``ACCURATE_AFTER`` rounds; the
    first clean round's coordinator collects a full quorum and decides,
    so termination (with agreement and validity) holds on every seed —
    the possible side of the circumvention the detector buys.
    """

    name = "omega-rotating-consensus"
    substrate = "rotating-consensus"
    expect_violation = False

    N = 3
    INPUTS = (0, 1, 1)
    ACCURATE_AFTER = 6
    MAX_ROUNDS = 64

    def generate(self, rng: random.Random) -> Schedule:
        return generators.random_suspicion_atoms(
            rng, n=self.N, accurate_after=self.ACCURATE_AFTER
        )

    def run(self, atoms, seed, meter=None) -> Trace:
        return run_rotating_consensus(
            atoms,
            seed=0,
            inputs=self.INPUTS,
            max_rounds=self.MAX_ROUNDS,
            meter=meter,
        ).trace

    def monitors(self, atoms) -> List[TraceMonitor]:
        honest = range(self.N)
        inputs = dict(enumerate(self.INPUTS))
        return [
            AgreementMonitor(honest),
            ValidityMonitor(inputs, honest, trusted=honest),
            TerminationMonitor(honest),
        ]


class AdversarialSuspicionTarget(OmegaConsensusTarget):
    """Rotating consensus under relentless suspicion — expected to stall.

    A full relentless coalition nacks every coordinator forever, so no
    round collects a quorum: the run burns its own step budget and exits
    via a structured ``BudgetExceeded`` — never via an agreement or
    validity violation, which is the safety half of the circumvention
    claim.  Sub-coalition schedules decide as soon as rotation reaches a
    coordinator outside the coalition, so the same target also exercises
    the recovery path.
    """

    name = "rotating-consensus-adversarial"
    expect_violation = False
    expect_stall = True

    #: Enough for 40 of the 64 possible rounds: a relentless run trips
    #: this cap (the receipt), a deciding run never gets close.
    STALL_BUDGET = Budget(max_steps=120)

    def generate(self, rng: random.Random) -> Schedule:
        return generators.random_relentless_atoms(rng, n=self.N)

    def run(self, atoms, seed, meter=None) -> Trace:
        own = self.STALL_BUDGET.meter(self.name)
        return run_rotating_consensus(
            atoms,
            seed=0,
            inputs=self.INPUTS,
            max_rounds=self.MAX_ROUNDS,
            meter=TandemMeter(meter, own),
        ).trace


# ---------------------------------------------------------------------------
# Ben-Or randomized consensus: FLP circumvented with coins
# ---------------------------------------------------------------------------


class BenOrTarget(ChaosTarget):
    """Honest Ben-Or under delivery scripts and crashes — healthy.

    Safety is coin-independent: agreement and validity hold under every
    delivery script and every ``<= t`` crash plan, which is what the
    monitors assert.  Termination is only probability-1, so it is *not*
    a per-schedule monitor here — the expected-round sweep
    (:func:`repro.circumvention.randomized.expected_rounds`) owns the
    statistical termination gate.
    """

    name = "benor-consensus"
    substrate = "benor-consensus"
    expect_violation = False

    N = 4
    T = 1
    INPUTS = (0, 1, 0, 1)
    BIASED = False
    MAX_EVENTS = 4000

    def generate(self, rng: random.Random) -> Schedule:
        return generators.random_benor_atoms(rng, n=self.N, t=self.T)

    def run(self, atoms, seed, meter=None) -> Trace:
        return run_ben_or_traced(
            atoms,
            seed=0,
            n=self.N,
            t=self.T,
            inputs=self.INPUTS,
            biased_coin=self.BIASED,
            max_events=self.MAX_EVENTS,
            meter=meter,
        ).trace

    def monitors(self, atoms) -> List[TraceMonitor]:
        crashed = generators.benor_adversary(atoms, self.T).crash_at
        honest = [p for p in range(self.N) if p not in crashed]
        inputs = dict(enumerate(self.INPUTS))
        checks: List[TraceMonitor] = [
            AgreementMonitor(honest),
            ValidityMonitor(inputs, honest, trusted=honest),
        ]
        if self.BIASED:
            checks.append(TerminationMonitor(honest))
        return checks


class BiasedCoinBenOrTarget(BenOrTarget):
    """Ben-Or with an anti-correlated "coin" — the planted bug.

    A literally biased coin cannot break Ben-Or's safety (the safety
    argument never mentions the coin), so the planted bug is the sharper
    failure randomization actually guards against: each process's coin
    is its own parity, ``pid % 2``.  On perfectly split inputs the
    report round then re-creates the split every phase — no strict
    majority, every proposal is ``?``, the "coin" restores the split —
    and the run never terminates, under *every* schedule including the
    empty one, which is exactly where ddmin shrinks each finding.  The
    termination monitor fires on every seed; agreement and validity
    still never do.
    """

    name = "benor-biased-coin-bug"
    expect_violation = True
    BIASED = True
    #: never terminates — cap the events so each case stays cheap
    MAX_EVENTS = 400


# ---------------------------------------------------------------------------
# DLS consensus under partial synchrony: GST atoms, provable stalls
# ---------------------------------------------------------------------------


class GSTConsensusTarget(ChaosTarget):
    """DLS rotating-coordinator consensus under GST schedules.

    Safety holds under *every* delay schedule (quorum intersection plus
    locks), which agreement/validity monitors assert on each completed
    run.  Liveness is exactly the synchrony assumption: a schedule whose
    ``("gst", g)`` lands beyond what the stall budget can reach, behind
    a pre-GST blackout, exhausts its own step budget and exits via a
    structured ``BudgetExceeded`` — the DLS impossibility half, as a
    first-class corpus behaviour (``expect_stall``).  Early-GST and
    lossy schedules decide and exercise the recovery half.
    """

    name = "gst-consensus"
    substrate = "gst-consensus"
    expect_violation = False
    expect_stall = True

    N = 4
    T = 1
    INPUTS = (0, 1, 1, 0)
    MAX_ROUNDS = 64

    #: 20 rounds of 4 steps: a blackout whose GST lies past round 20
    #: trips this cap (the receipt); an early-GST run never gets close.
    STALL_BUDGET = Budget(max_steps=80)

    def generate(self, rng: random.Random) -> Schedule:
        return generators.random_gst_atoms(rng, n=self.N)

    def run(self, atoms, seed, meter=None) -> Trace:
        own = self.STALL_BUDGET.meter(self.name)
        return run_gst_consensus(
            atoms,
            seed=0,
            inputs=self.INPUTS,
            t=self.T,
            max_rounds=self.MAX_ROUNDS,
            meter=TandemMeter(meter, own),
        ).trace

    def monitors(self, atoms) -> List[TraceMonitor]:
        crashed = generators.gst_adversary(atoms, self.N, self.T).crashed_at
        honest = [p for p in range(self.N) if p not in crashed]
        inputs = dict(enumerate(self.INPUTS))
        return [
            AgreementMonitor(honest),
            ValidityMonitor(inputs, honest, trusted=honest),
        ]

    def simplify_atom(self, atom) -> Iterator[Atom]:
        return generators.simplify_gst_atom(atom)


def circumvention_targets() -> List[ChaosTarget]:
    """The circumvention roster: honest/planted pairs plus two stalls."""
    return [
        QuorumLeaseTarget(),
        BuggyLeaseTarget(),
        HeartbeatDetectorTarget(),
        UnstableDetectorTarget(),
        OmegaConsensusTarget(),
        AdversarialSuspicionTarget(),
        BenOrTarget(),
        BiasedCoinBenOrTarget(),
        GSTConsensusTarget(),
    ]
