"""The t+1-round lower bound, mechanized by exhaustive crash-pattern search.

Survey §2.2.2: any agreement protocol tolerating t stopping faults needs
t+1 rounds [56, and the Dwork–Moses folklore version for crashes].  The
proof is a chain argument; its mechanized counterpart here is *exhaustive
adversary enumeration on bounded instances*:

* :func:`enumerate_crash_adversaries` generates every crash pattern with
  at most t faults over r rounds — each fault a (process, crash round,
  subset of recipients reached) triple, exactly the granularity the chain
  argument manipulates;

* :func:`find_round_bound_violation` runs a protocol under every pattern
  and every binary input vector, looking for a run that breaks agreement,
  validity or termination.  For a t-round truncation of FloodSet it finds
  the violating pattern (the lower bound's content); for the full
  t+1-round FloodSet it exhausts the space without a violation (the
  matching upper bound);

* :func:`find_fooling_pair` exhibits the chain argument's engine: two runs
  indistinguishable to some common nonfaulty process whose *other*
  processes decide differently.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..impossibility.certificate import (
    ImpossibilityCertificate,
)
from .synchronous import (
    SyncAdversary,
    CrashAdversary,
    NoFaults,
    Pid,
    SyncProtocol,
    SyncRun,
    run_synchronous,
)


def enumerate_crash_adversaries(
    n: int, t: int, rounds: int
) -> Iterator[SyncAdversary]:
    """Every crash adversary with at most t faults.

    Each faulty process gets a crash round in 1..rounds and a subset of the
    other processes that still receive its final-round messages.  The
    no-fault adversary is yielded first.
    """
    yield NoFaults()
    pids = list(range(n))
    for k in range(1, t + 1):
        for victims in itertools.combinations(pids, k):
            per_victim_options = []
            for victim in victims:
                others = [p for p in pids if p != victim]
                options = [
                    (rnd, subset)
                    for rnd in range(1, rounds + 1)
                    for size in range(len(others) + 1)
                    for subset in itertools.combinations(others, size)
                ]
                per_victim_options.append(options)
            for combo in itertools.product(*per_victim_options):
                yield CrashAdversary(
                    {victim: choice for victim, choice in zip(victims, combo)}
                )


@dataclass
class RoundBoundResult:
    """Outcome of the exhaustive search over crash patterns."""

    protocol_name: str
    n: int
    t: int
    rounds: int
    runs_checked: int
    violation: Optional[SyncRun]
    violated_property: Optional[str]


def _check_run(run: SyncRun) -> Optional[str]:
    if not run.all_honest_decided():
        return "termination"
    if not run.agreement_holds():
        return "agreement"
    if not run.validity_holds():
        return "validity"
    return None


def find_round_bound_violation(
    protocol: SyncProtocol,
    n: int,
    t: int,
    rounds: Optional[int] = None,
    input_vectors: Optional[Iterable[Sequence[Hashable]]] = None,
) -> RoundBoundResult:
    """Search every (input vector, crash pattern) pair for a violation."""
    rounds = rounds if rounds is not None else protocol.rounds(n, t)
    if input_vectors is None:
        input_vectors = list(itertools.product((0, 1), repeat=n))
    runs_checked = 0
    for inputs in input_vectors:
        for adversary in enumerate_crash_adversaries(n, t, rounds):
            run = run_synchronous(
                protocol, list(inputs), adversary=adversary, t=t, rounds=rounds,
                record_trace=False,
            )
            runs_checked += 1
            violated = _check_run(run)
            if violated is not None:
                return RoundBoundResult(
                    protocol.name, n, t, rounds, runs_checked, run, violated
                )
    return RoundBoundResult(protocol.name, n, t, rounds, runs_checked, None, None)


def round_lower_bound_certificate(
    protocol_factory, n: int, t: int
) -> ImpossibilityCertificate:
    """Certify the t+1-round bound for a protocol family.

    ``protocol_factory(rounds)`` must build the protocol truncated to the
    given number of rounds.  The certificate records, for every r <= t, a
    concrete crash pattern defeating the r-round version, and that the
    (t+1)-round version survives the full pattern space.
    """
    witnesses = []
    for r in range(1, t + 1):
        result = find_round_bound_violation(protocol_factory(r), n, t, rounds=r)
        if result.violation is None:
            raise AssertionError(
                f"{r}-round truncation unexpectedly survived all crash "
                f"patterns (n={n}, t={t}) — lower bound refuted for this family"
            )
        from ..impossibility.certificate import FailureWitness

        witnesses.append(
            FailureWitness(
                candidate=f"{result.protocol_name} ({r} rounds)",
                property_violated=result.violated_property,
                evidence=result.violation,
            )
        )
    full = find_round_bound_violation(protocol_factory(None), n, t)
    if full.violation is not None:
        raise AssertionError(
            f"t+1-round protocol violated {full.violated_property} — "
            "upper bound broken"
        )
    return ImpossibilityCertificate(
        claim=(
            f"no truncation below t+1={t + 1} rounds solves consensus with "
            f"t={t} stopping faults (n={n})"
        ),
        scope=(
            f"the FloodSet family; exhaustive over all crash patterns with "
            f"<= {t} faults and all binary inputs; {full.runs_checked} runs "
            f"checked at t+1 rounds"
        ),
        technique="chain (exhaustive crash-pattern search)",
        candidates_checked=t,
        witnesses=witnesses,
        details={"full_protocol_runs_checked": full.runs_checked},
    )


@dataclass
class FoolingPair:
    """Two runs a common nonfaulty process cannot distinguish, with
    incompatible obligations — the atom of every chain argument."""

    run_a: SyncRun
    run_b: SyncRun
    fooled_process: Pid
    reason: str


def find_fooling_pair(
    protocol: SyncProtocol,
    n: int,
    t: int,
    rounds: int,
    max_runs: int = 20_000,
) -> Optional[FoolingPair]:
    """Search pairs of runs for the chain argument's fooling configuration.

    Looks for runs R_a, R_b and a process p, nonfaulty in both, with equal
    views, where the *full honest decision sets* of the two runs differ —
    p must decide identically in both, so one run's other processes
    disagree with p or with validity.  At most ``max_runs`` runs are
    simulated, in (input vector, crash pattern) enumeration order.
    """
    scenarios = (
        (inputs, adversary)
        for inputs in itertools.product((0, 1), repeat=n)
        for adversary in enumerate_crash_adversaries(n, t, rounds)
    )
    runs: List[SyncRun] = [
        run_synchronous(
            protocol, list(inputs), adversary=adversary, t=t,
            rounds=rounds, record_trace=False,
        )
        for inputs, adversary in itertools.islice(scenarios, max_runs)
    ]
    # Index runs by each honest process's view.
    by_view: Dict[Tuple, List[Tuple[SyncRun, Pid]]] = {}
    for run in runs:
        for pid in run.honest_pids:
            by_view.setdefault(run.views[pid].key(), []).append((run, pid))
    for matches in by_view.values():
        for (run_a, pid), (run_b, _pid2) in itertools.combinations(matches, 2):
            decisions_a = frozenset(
                v for v in run_a.honest_decisions().values() if v is not None
            )
            decisions_b = frozenset(
                v for v in run_b.honest_decisions().values() if v is not None
            )
            if decisions_a != decisions_b:
                return FoolingPair(
                    run_a,
                    run_b,
                    pid,
                    reason=(
                        f"process {pid} sees identical views but the runs' "
                        f"honest decision sets are {set(decisions_a)} vs "
                        f"{set(decisions_b)}"
                    ),
                )
    return None
