"""Distributed consensus in synchronous systems (survey §2.2).

The synchronous round model with crash / omission / Byzantine fault
injection, the classic agreement algorithms, and the mechanized lower
bounds: the ring-splice scenario engine (n > 3t), the exhaustive
crash-pattern search (t+1 rounds), and the commit message bound.
"""

from .approximate import (
    ApproximateAgreement,
    ApproximateAgreementProcess,
    convergence_ratio,
    honest_range,
    reduce_values,
    stretching_adversary,
)
from .authenticated import (
    DolevStrong,
    DolevStrongProcess,
    EquivocatingSender,
    LateRevealRelay,
    chain_valid,
)
from .commit import (
    ABORT,
    COMMIT,
    BrokenCommit,
    DecentralizedCommit,
    TwoPhaseCommit,
    commit_rule_holds,
    dwork_skeen_series,
    failure_free_commit_run,
    information_paths_complete,
    message_count,
)
from .connectivity import (
    CycleProtocol,
    CycleRun,
    CycleScenario,
    FloodVote,
    connectivity_certificate,
    connectivity_scenarios,
    run_cycle,
    run_spliced_cycle,
)
from .eig import EIGByzantine, EIGProcess
from .firing_squad import (
    FloodingFiringSquad,
    HastyFiringSquad,
    SimultaneityResult,
    find_simultaneity_violation,
)
from .floodset import FloodSet, FloodSetProcess
from .lower_bounds import (
    FoolingPair,
    RoundBoundResult,
    enumerate_crash_adversaries,
    find_fooling_pair,
    find_round_bound_violation,
    round_lower_bound_certificate,
)
from .phase_king import PhaseKing, PhaseKingProcess
from .probabilistic import (
    CoinFlipAgreement,
    KarlinYaoResult,
    karlin_yao_certificate,
    karlin_yao_experiment,
)
from .scenarios import (
    Scenario,
    SplicedRun,
    balanced_three_partition,
    byzantine_scenarios,
    flm_certificate,
    run_spliced_ring,
)
from .synchronous import (
    ByzantineAdversary,
    CrashAdversary,
    NoFaults,
    OmissionAdversary,
    ProcessView,
    ScriptedByzantine,
    SyncAdversary,
    SyncProcess,
    SyncProtocol,
    SyncRun,
    run_synchronous,
)

__all__ = [
    "SyncProcess",
    "SyncProtocol",
    "SyncRun",
    "ProcessView",
    "run_synchronous",
    "SyncAdversary",
    "NoFaults",
    "CrashAdversary",
    "OmissionAdversary",
    "ByzantineAdversary",
    "ScriptedByzantine",
    "FloodSet",
    "FloodSetProcess",
    "EIGByzantine",
    "EIGProcess",
    "PhaseKing",
    "PhaseKingProcess",
    "DolevStrong",
    "DolevStrongProcess",
    "EquivocatingSender",
    "LateRevealRelay",
    "chain_valid",
    "ApproximateAgreement",
    "ApproximateAgreementProcess",
    "convergence_ratio",
    "honest_range",
    "reduce_values",
    "stretching_adversary",
    "TwoPhaseCommit",
    "DecentralizedCommit",
    "BrokenCommit",
    "COMMIT",
    "ABORT",
    "commit_rule_holds",
    "information_paths_complete",
    "message_count",
    "failure_free_commit_run",
    "dwork_skeen_series",
    "enumerate_crash_adversaries",
    "find_round_bound_violation",
    "round_lower_bound_certificate",
    "find_fooling_pair",
    "RoundBoundResult",
    "FoolingPair",
    "run_spliced_ring",
    "byzantine_scenarios",
    "flm_certificate",
    "balanced_three_partition",
    "SplicedRun",
    "Scenario",
    "CoinFlipAgreement",
    "KarlinYaoResult",
    "karlin_yao_experiment",
    "karlin_yao_certificate",
    "FloodingFiringSquad",
    "HastyFiringSquad",
    "SimultaneityResult",
    "find_simultaneity_violation",
    "CycleProtocol",
    "CycleRun",
    "CycleScenario",
    "FloodVote",
    "run_cycle",
    "run_spliced_cycle",
    "connectivity_scenarios",
    "connectivity_certificate",
]
