"""Resource budgets and graceful degradation across the substrates.

The contract under test: :class:`~repro.core.budget.Budget` is an
immutable policy, :class:`~repro.core.budget.BudgetMeter` the mutable
account, overdraft raises a structured :class:`BudgetExceeded` that
existing ``SearchBudgetExceeded`` handlers still catch — and every
budget-aware consumer degrades *gracefully*: explorations return a
resumable partial result on the shared frontier, the register search
returns a census with a resume cursor that accumulates to the unbudgeted
answer, and every simulator accepts a meter that preempts a run without
corrupting anything.  Plus the structured-replay satellites this PR
ships alongside the budgets: :class:`ReplayDivergence` diagnostics and
the trace JSONL round-trip.
"""

import time

import pytest

from repro.asynchronous.flp import QuorumVote
from repro.asynchronous.network import AsyncConsensusSystem
from repro.core import (
    SearchBudgetExceeded,
    Signature,
    TableAutomaton,
    explore,
)
from repro.core.budget import Budget, BudgetExceeded
from repro.core.runtime import (
    DECIDE,
    SEND,
    ReplayDivergence,
    ReplayError,
    SimulationRuntime,
    Trace,
)
from repro.core.scheduler import RandomScheduler
from repro.datalink.protocols import AlternatingBitReceiver, AlternatingBitSender
from repro.datalink.simulate import FairLossyScheduler, run_datalink
from repro.registers.exhaustive import search_register_consensus
from repro.rings.lcr import LCRProcess
from repro.rings.simulator import run_async_ring
from repro.shared_memory import run_system
from repro.shared_memory.mutex import peterson_system


# ---------------------------------------------------------------------------
# Budget and BudgetMeter semantics
# ---------------------------------------------------------------------------


class TestBudgetSemantics:
    def test_default_budget_is_unlimited(self):
        budget = Budget()
        assert budget.unlimited
        meter = budget.meter()
        for _ in range(10_000):
            meter.charge_steps()
        meter.charge_states(10_000)
        meter.check_time()

    def test_step_overdraft_is_structured(self):
        meter = Budget(max_steps=3).meter("unit-test")
        for _ in range(3):
            meter.charge_steps()
        with pytest.raises(BudgetExceeded) as info:
            meter.charge_steps()
        assert info.value.resource == "steps"
        assert info.value.spent == 4
        assert info.value.limit == 3
        assert "unit-test" in str(info.value)

    def test_state_overdraft(self):
        meter = Budget(max_states=2).meter()
        meter.charge_states(2)
        with pytest.raises(BudgetExceeded) as info:
            meter.charge_states()
        assert info.value.resource == "states"

    def test_time_overdraft(self):
        meter = Budget(max_seconds=0.001).meter()
        time.sleep(0.01)
        with pytest.raises(BudgetExceeded) as info:
            meter.check_time()
        assert info.value.resource == "seconds"

    def test_subclasses_search_budget_exceeded(self):
        # Existing `except SearchBudgetExceeded` handlers keep working.
        with pytest.raises(SearchBudgetExceeded):
            Budget(max_steps=0).meter().charge_steps()

    def test_snapshot_reports_spending(self):
        meter = Budget(max_steps=100).meter()
        meter.charge_steps(7)
        meter.charge_states(2)
        snapshot = meter.snapshot()
        assert snapshot["steps"] == 7
        assert snapshot["states"] == 2


# ---------------------------------------------------------------------------
# Graceful exploration: partial results on the shared frontier
# ---------------------------------------------------------------------------


def _counter(limit):
    sig = Signature(internals=frozenset({"inc"}))
    transitions = {(i, "inc"): [i + 1] for i in range(limit)}
    return TableAutomaton(sig, initial=[0], transitions=transitions, name="counter")


class TestExploreBudget:
    def test_partial_result_instead_of_raising(self):
        result = explore(_counter(50), budget=Budget(max_states=10))
        assert not result.complete
        assert result.budget_exceeded is not None
        assert result.budget_exceeded.resource == "states"
        assert 0 < len(result.reachable) <= 11

    def test_resume_on_the_shared_frontier(self):
        automaton = _counter(50)
        partial = explore(automaton, budget=Budget(max_states=10))
        assert not partial.complete
        finished = explore(automaton)
        assert finished.complete
        assert finished.reachable == set(range(51))
        # The resumed path is still navigable end to end.
        assert len(finished.path_to(50)) == 50

    def test_unlimited_budget_is_a_no_op(self):
        result = explore(_counter(5), budget=Budget())
        assert result.complete
        assert result.reachable == set(range(6))


class TestRegisterSearchBudget:
    def test_sliced_search_accumulates_to_the_full_census(self):
        full = search_register_consensus(depth=1)
        assert full.complete

        part = search_register_consensus(depth=1, budget=Budget(max_steps=20))
        assert not part.complete and part.resume_at == 20
        assert search_register_consensus(depth=1, resume=part) == full

        sliced = search_register_consensus(depth=1, budget=Budget(max_steps=5))
        slices = 1
        while not sliced.complete:
            assert sliced.resume_at > 0
            sliced = search_register_consensus(
                depth=1, budget=Budget(max_steps=5), resume=sliced
            )
            slices += 1
        assert slices > 1
        assert sliced.candidates == full.candidates
        assert sliced.solutions == full.solutions
        assert sliced.agreement_failures == full.agreement_failures
        assert sliced.validity_failures == full.validity_failures
        assert sliced.wait_freedom_failures == full.wait_freedom_failures


# ---------------------------------------------------------------------------
# Budgets threaded through the simulators
# ---------------------------------------------------------------------------


class TestSimulatorMeters:
    def test_async_network_run_is_preempted(self):
        system = AsyncConsensusSystem(QuorumVote(), 3)
        meter = Budget(max_steps=4).meter("async")
        with pytest.raises(BudgetExceeded):
            system.run_fair_traced((0, 1, 1), seed=5, meter=meter)

    def test_datalink_run_is_preempted(self):
        meter = Budget(max_steps=4).meter("datalink")
        with pytest.raises(BudgetExceeded):
            run_datalink(
                AlternatingBitSender(), AlternatingBitReceiver(),
                ["a", "b"], FairLossyScheduler(loss=0.2, seed=3),
                meter=meter,
            )

    def test_ring_run_is_preempted(self):
        meter = Budget(max_steps=4).meter("ring")
        with pytest.raises(BudgetExceeded):
            run_async_ring(
                processes=[LCRProcess(i) for i in (3, 1, 2)],
                seed=0, meter=meter,
            )

    def test_shared_memory_run_is_preempted(self):
        system = peterson_system()
        start = next(iter(system.initial_states()))
        for action in sorted(system.signature.inputs, key=repr):
            start = system.step(start, action)
        meter = Budget(max_steps=4).meter("shared-memory")
        with pytest.raises(BudgetExceeded):
            run_system(
                system, scheduler=RandomScheduler(seed=4), start=start,
                max_steps=25, meter=meter,
            )

    def test_generous_meter_changes_nothing(self):
        system = AsyncConsensusSystem(QuorumVote(), 3)
        plain = system.run_fair_traced((0, 1, 1), seed=5).trace
        metered = system.run_fair_traced(
            (0, 1, 1), seed=5, meter=Budget(max_steps=10**6).meter()
        ).trace
        assert metered.fingerprint() == plain.fingerprint()


# ---------------------------------------------------------------------------
# Structured replay divergence
# ---------------------------------------------------------------------------


def _toy_trace(payloads):
    runtime = SimulationRuntime(substrate="toy", protocol="unit", seed=0)
    for i, payload in enumerate(payloads):
        runtime.emit(SEND, f"p{i % 2}", payload, round=1 + i // 2)
    runtime.emit(DECIDE, "p0", payloads[-1])
    return runtime.finish(outcome={"decisions": tuple(payloads)})


class TestReplayDivergence:
    def test_pinpoints_first_divergent_event(self):
        original = _toy_trace(("a", "b", "c"))
        fresh = _toy_trace(("a", "x", "c"))
        divergence = ReplayDivergence(original, fresh)
        assert isinstance(divergence, ReplayError)
        assert divergence.index == 1
        assert divergence.expected.payload == "b"
        assert divergence.actual.payload == "x"

    def test_prefix_divergence_points_past_the_shorter_run(self):
        original = _toy_trace(("a", "b", "c"))
        fresh = Trace(
            substrate=original.substrate,
            protocol=original.protocol,
            seed=original.seed,
            events=original.events[:-1],
            outcome=original.outcome,
        )
        divergence = ReplayDivergence(original, fresh)
        assert divergence.index == len(fresh.events)
        assert divergence.expected == original.events[-1]
        assert divergence.actual is None

    def test_outcome_only_divergence_has_no_event_index(self):
        original = _toy_trace(("a", "b"))
        fresh = Trace(
            substrate=original.substrate,
            protocol=original.protocol,
            seed=original.seed,
            events=original.events,
            outcome=(("decisions", ("a", "z")),),
        )
        divergence = ReplayDivergence(original, fresh)
        assert divergence.index is None
        assert "outcome/metadata diverged" in str(divergence)


# ---------------------------------------------------------------------------
# Trace JSONL round-trip
# ---------------------------------------------------------------------------


class TestTraceJsonl:
    def test_round_trip_preserves_fingerprint(self):
        trace = _toy_trace(("m", ("tup", 1), frozenset({1, 2})))
        reloaded = Trace.from_jsonl(trace.to_jsonl())
        assert reloaded.fingerprint() == trace.fingerprint()
        assert reloaded.events == trace.events
        assert reloaded.outcome == trace.outcome

    def test_tuple_and_frozenset_payloads_keep_their_types(self):
        trace = _toy_trace((("nested", (1, 2)), frozenset({("a", 3)})))
        reloaded = Trace.from_jsonl(trace.to_jsonl())
        assert reloaded.events[0].payload == ("nested", (1, 2))
        assert isinstance(reloaded.events[1].payload, frozenset)

    def test_corruption_is_detected(self):
        text = _toy_trace(("a", "b")).to_jsonl()
        lines = text.splitlines()
        lines[1] = lines[1].replace('"a"', '"z"')
        with pytest.raises(ReplayError):
            Trace.from_jsonl("\n".join(lines) + "\n")

    def test_corruption_error_names_both_fingerprints(self):
        from repro.core.runtime import FingerprintMismatch

        original = _toy_trace(("a", "b"))
        text = original.to_jsonl()
        lines = text.splitlines()
        lines[1] = lines[1].replace('"a"', '"z"')
        with pytest.raises(FingerprintMismatch) as excinfo:
            Trace.from_jsonl("\n".join(lines) + "\n")
        err = excinfo.value
        # Structured fields: the recorded digest, the recomputed one, and
        # a context naming what was being verified.
        assert err.expected == original.fingerprint()
        assert err.actual != err.expected
        assert len(err.actual) == 64
        assert "reloaded trace" in err.context
        assert err.expected in str(err) and err.actual in str(err)

    def test_verify_false_skips_the_check(self):
        text = _toy_trace(("a", "b")).to_jsonl()
        lines = text.splitlines()
        lines[1] = lines[1].replace('"a"', '"z"')
        reloaded = Trace.from_jsonl("\n".join(lines) + "\n", verify=False)
        assert reloaded.events[0].payload == "z"

    def test_reloaded_trace_carries_no_replayer(self):
        trace = _toy_trace(("a",))
        assert not Trace.from_jsonl(trace.to_jsonl()).replayable
