"""Model-checking tests for the mutual exclusion algorithm zoo (§2.1).

Each algorithm is checked over its full reachable state space (environment
inputs included) for the three classic properties.  The outcomes mirror the
literature exactly:

=====================  =====  =========  ========
algorithm              mutex  deadlock-  lockout-
                              free       free
=====================  =====  =========  ========
TAS semaphore (2 val)   yes    yes        NO
handoff lock (4 val)    yes    yes        yes
Peterson (r/w)          yes    yes        yes
Dijkstra (r/w)          yes    yes        NO
bakery (r/w, FIFO)      yes    (simulated: unbounded state)
=====================  =====  =========  ========
"""

import pytest

from repro.shared_memory.kexclusion import (
    cas_semaphore_system,
    counting_semaphore_system,
)
from repro.shared_memory.mutex import (
    CRITICAL,
    TRYING,
    bakery_system,
    dijkstra_system,
    handoff_lock_system,
    peterson_system,
    tas_semaphore_system,
    tournament_system,
)


class TestTasSemaphore:
    def test_mutual_exclusion(self):
        assert tas_semaphore_system(2).check_mutual_exclusion() is None

    def test_mutual_exclusion_three_processes(self):
        assert tas_semaphore_system(3).check_mutual_exclusion() is None

    def test_deadlock_freedom(self):
        system = tas_semaphore_system(2)
        for p in ("p0", "p1"):
            assert system.check_deadlock_freedom(p) is None

    def test_admits_lockout(self):
        """The paper's point: 2 values cannot give fairness."""
        system = tas_semaphore_system(2)
        witness = system.check_lockout_freedom("p0")
        assert witness is not None
        assert witness.victim == "p0"
        # The victim is in its trying region at every state of the cycle.
        for state in witness.cycle_states:
            assert system.local_state(state, "p0")["region"] == TRYING
        # The cycle is fair to the winner: it keeps entering and exiting.
        assert ("crit", "p1") in witness.cycle_actions
        assert ("exit", "p1") in witness.cycle_actions


class TestHandoffLock:
    def test_mutual_exclusion(self):
        assert handoff_lock_system().check_mutual_exclusion() is None

    def test_deadlock_freedom(self):
        system = handoff_lock_system()
        for p in ("p0", "p1"):
            assert system.check_deadlock_freedom(p) is None

    def test_lockout_freedom(self):
        """Four values buy the fairness two values cannot express."""
        system = handoff_lock_system()
        for p in ("p0", "p1"):
            assert system.check_lockout_freedom(p) is None

    def test_rejects_bad_index(self):
        from repro.shared_memory.mutex import HandoffLockProcess

        with pytest.raises(ValueError):
            HandoffLockProcess("p2", 2)


class TestPeterson:
    def test_mutual_exclusion(self):
        assert peterson_system().check_mutual_exclusion() is None

    def test_deadlock_freedom(self):
        system = peterson_system()
        for p in ("p0", "p1"):
            assert system.check_deadlock_freedom(p) is None

    def test_lockout_freedom(self):
        system = peterson_system()
        for p in ("p0", "p1"):
            assert system.check_lockout_freedom(p) is None


class TestDijkstra:
    def test_mutual_exclusion_two(self):
        assert dijkstra_system(2).check_mutual_exclusion() is None

    def test_mutual_exclusion_three(self):
        assert dijkstra_system(3).check_mutual_exclusion(max_states=400_000) is None

    def test_deadlock_freedom(self):
        system = dijkstra_system(2)
        for p in ("p0", "p1"):
            assert system.check_deadlock_freedom(p) is None

    def test_admits_lockout(self):
        """Dijkstra's 1965 algorithm is famously unfair."""
        witness = dijkstra_system(2).check_lockout_freedom("p0")
        assert witness is not None


class TestBakerySimulation:
    """Bakery has unbounded tickets, so we verify by long scheduled runs."""

    def _drive(self, system, scheduler, steps):
        """Run with a scheduler while an environment keeps all processes
        requesting and releasing; check mutual exclusion throughout."""
        state = next(iter(system.initial_states()))
        max_critical = 0
        entries = {p.name: 0 for p in system.processes}
        for step in range(steps):
            # Environment: request for anyone idle, release anyone critical.
            for p in system.processes:
                local = system.local_state(state, p.name)
                if local["region"] == "rem" and local["announce"] is None:
                    state = next(iter(system.apply(state, ("try", p.name))))
                elif local["region"] == CRITICAL and local["announce"] is None:
                    state = next(iter(system.apply(state, ("exit", p.name))))
            enabled = sorted(system.enabled_actions(state), key=repr)
            if not enabled:
                break
            action = scheduler.choose_from(enabled, step)
            state = next(iter(system.apply(state, action)))
            crit = system.critical_processes(state)
            max_critical = max(max_critical, len(crit))
            if isinstance(action, tuple) and action[0] == "crit":
                entries[action[1]] += 1
        return max_critical, entries

    class _SeededPicker:
        def __init__(self, seed):
            import random

            self.rng = random.Random(seed)

        def choose_from(self, enabled, step):
            return enabled[self.rng.randrange(len(enabled))]

    class _RoundRobinPicker:
        def choose_from(self, enabled, step):
            return enabled[step % len(enabled)]

    @pytest.mark.parametrize("n", [2, 3])
    def test_mutual_exclusion_under_random_schedules(self, n):
        for seed in range(5):
            system = bakery_system(n)
            max_crit, entries = self._drive(
                system, self._SeededPicker(seed), steps=3_000
            )
            assert max_crit <= 1

    @pytest.mark.parametrize("n", [2, 3])
    def test_every_process_makes_progress(self, n):
        system = bakery_system(n)
        _max_crit, entries = self._drive(
            system, self._RoundRobinPicker(), steps=5_000
        )
        assert all(count > 0 for count in entries.values()), entries


class TestBoundedWaiting:
    """The quantitative fairness ladder (measured past each doorway)."""

    def test_handoff_lock_never_bypassed(self):
        system = handoff_lock_system()
        assert system.measure_bypass("p0", steps=6000, seeds=range(4)) == 0

    def test_peterson_bypass_bound_is_one(self):
        """The textbook bound: after the doorway, the other process enters
        at most once before we do."""
        system = peterson_system()
        assert system.measure_bypass("p0", steps=6000, seeds=range(4)) <= 1

    def test_bakery_bypass_bounded_by_n_minus_one(self):
        system = bakery_system(3)
        assert system.measure_bypass("p0", steps=6000, seeds=range(4)) <= 2

    def test_unfair_algorithms_admit_large_bypass(self):
        semaphore = tas_semaphore_system(2)
        assert semaphore.measure_bypass("p0", steps=6000, seeds=range(4)) > 3
        dijkstra = dijkstra_system(2)
        assert dijkstra.measure_bypass("p0", steps=6000, seeds=range(4)) > 3


def _witness_checks(system):
    """Every starvation witness the lockout and deadlock checkers return."""
    for p in system.processes:
        for check in (system.check_lockout_freedom, system.check_deadlock_freedom):
            witness = check(p.name)
            if witness is not None:
                yield witness


def _assert_valid_witness(system, witness):
    """A witness is a real admissible lasso: a replayable stem into a
    closed cycle of real transitions, the victim stuck throughout and
    every process serviced."""
    from repro.core.execution import Execution
    from repro.shared_memory.system import _process_of_action

    def action_between(state, succ):
        candidates = list(system.enabled_actions(state))
        candidates += sorted(system.signature.inputs, key=repr)
        for action in candidates:
            if succ in system.apply(state, action):
                return action
        raise AssertionError(f"no transition {state!r} -> {succ!r}")

    stem = witness.stem_states
    assert stem[0] in set(system.initial_states())
    stem_actions = [action_between(a, b) for a, b in zip(stem, stem[1:])]
    assert Execution.run(system, stem_actions, start=stem[0]).states == stem
    cycle = witness.cycle_states
    assert stem[-1] == cycle[0] == cycle[-1]
    assert len(cycle) == len(witness.cycle_actions) + 1 >= 2
    for state, action, succ in zip(cycle, witness.cycle_actions, cycle[1:]):
        assert system.is_enabled(state, action)
        assert succ in set(system.apply(state, action))
    victim = witness.victim
    for state in cycle:
        assert system.local_state(state, victim)["region"] == TRYING
    acting = {_process_of_action(system, a) for a in witness.cycle_actions}
    for p in system.processes:
        assert p.name in acting or any(
            p.is_idle(system.local_state(state, p.name)) for state in cycle
        ), p.name


class TestStarvationWitnesses:
    def test_synthetic_class_witnesses_are_admissible_lassos(self):
        from repro.shared_memory.lower_bounds import (
            build_synthetic_system,
            enumerate_protocol_tables,
        )

        found = 0
        for table in enumerate_protocol_tables(2, 1):
            system = build_synthetic_system((table, table))
            for witness in _witness_checks(system):
                _assert_valid_witness(system, witness)
                found += 1
        assert found > 0

    @pytest.mark.parametrize("build,witnesses", [
        (lambda: dijkstra_system(2), 2),
        (lambda: tournament_system(2), 0),
        (lambda: counting_semaphore_system(2, 1), 4),
        (lambda: counting_semaphore_system(3, 2), 6),
        (lambda: cas_semaphore_system(2, 1), 2),
    ], ids=["dijkstra", "tournament", "counting-semaphore",
            "counting-semaphore-3-of-2", "cas-semaphore"])
    def test_algorithm_witnesses_are_admissible_lassos(self, build, witnesses):
        system = build()
        found = list(_witness_checks(system))
        assert len(found) == witnesses
        for witness in found:
            _assert_valid_witness(system, witness)
