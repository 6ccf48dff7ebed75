"""Tests for the shared-memory lower bounds (E1, E2) and choice coordination.

The expensive exhaustive searches (thousands of candidates) live in the
benchmarks; here we run the smaller complete classes and spot-check the
searcher and the adversary.
"""

import pytest

from repro.core import ModelError
from repro.shared_memory import (
    MARK,
    RabinChoiceCoordination,
    burns_lynch_attack,
    check_candidate,
    cremers_hibbard_certificate,
    enumerate_protocol_tables,
    naive_spin_lock_system,
    search_two_process_protocols,
    symmetric_deterministic_failure,
)
from repro.shared_memory.mutex import peterson_system


class TestProtocolEnumeration:
    def test_memoryless_two_valued_class_size(self):
        # (2V)^V * V^V with V=2: 16 * 4 = 64.
        assert len(list(enumerate_protocol_tables(2, 1))) == 64

    def test_one_bit_two_valued_class_size(self):
        # (3V)^(2V) * V^V with V=2, modes=2: 6^4 * 4 = 5184.
        assert len(list(enumerate_protocol_tables(2, 2))) == 5184

    def test_tables_are_well_formed(self):
        for table in enumerate_protocol_tables(2, 1):
            for v in range(2):
                entry = table.try_entry(0, v)
                assert entry[0] in ("enter", "stay")
            assert all(w in (0, 1) for w in table.exit_table)


class TestCremersHibbard:
    """E1: two values are insufficient for fair mutual exclusion."""

    def test_symmetric_memoryless_two_values(self):
        verdicts = search_two_process_protocols(2, modes=1, symmetric=True)
        assert len(verdicts) == 64
        assert not any(v.fair_solution for v in verdicts)
        # Semaphore-like protocols do achieve mutex + progress.
        assert any(v.unfair_solution for v in verdicts)

    def test_certificate_asymmetric_memoryless(self):
        cert = cremers_hibbard_certificate(values=2, modes=1, symmetric=False)
        assert cert.candidates_checked == 64 * 64
        assert cert.details["fair_solutions"] == 0
        assert cert.details["unfair_solutions"] == 4
        assert cert.details["mutual_exclusion_holders"] == 2016
        cert.revalidate()

    def test_class_limit_enforced(self):
        with pytest.raises(ModelError):
            search_two_process_protocols(
                3, modes=2, symmetric=False, max_candidates=1000
            )

    @pytest.mark.parametrize("values,modes", [(1, 1), (2, 1), (2, 2), (3, 1)])
    def test_table_count_matches_enumeration(self, values, modes):
        from repro.shared_memory.lower_bounds import protocol_table_count

        assert protocol_table_count(values, modes) == sum(
            1 for _ in enumerate_protocol_tables(values, modes)
        )

    def test_semaphore_candidate_is_classified_unfair(self):
        """Hand-build the 2-valued semaphore inside the searched class and
        confirm the checker classifies it exactly as the paper says."""
        from repro.shared_memory.lower_bounds import ProtocolTable

        semaphore = ProtocolTable(
            values=2,
            modes=1,
            # v==0 (free): enter writing 1.  v==1 (held): spin, rewrite 1.
            try_table=(("enter", 1), ("stay", 0, 1)),
            # exit: always write 0.
            exit_table=(0, 0),
        )
        verdict = check_candidate((semaphore, semaphore))
        assert verdict.mutual_exclusion
        assert verdict.deadlock_free
        assert not verdict.lockout_free


class TestBurnsLynchAttack:
    """E2: one read/write register cannot support 2-process mutex."""

    def test_defeats_naive_spin_lock(self):
        cert = burns_lynch_attack(naive_spin_lock_system())
        assert "mutual exclusion" in cert.claim
        cert.revalidate()
        execution = cert.evidence
        system = execution.automaton
        assert len(system.critical_processes(execution.last_state)) == 2

    def test_rejects_multi_register_algorithms(self):
        """Peterson uses three registers: outside the theorem's hypotheses,
        so the adversary must refuse rather than report nonsense."""
        with pytest.raises(ModelError):
            burns_lynch_attack(peterson_system())

    def test_rejects_non_register_operations(self):
        from repro.shared_memory.mutex import tas_semaphore_system

        with pytest.raises(ModelError):
            burns_lynch_attack(tas_semaphore_system(2))


class TestChoiceCoordination:
    def test_symmetric_deterministic_protocol_fails(self):
        """A natural deterministic protocol: mark if the variable is empty,
        otherwise defer to the other variable.  The mirrored execution
        never produces exactly one marker."""

        def step(local, value):
            if value == "empty":
                if local == "scouting":
                    # First visit: leave a claim, go inspect the other one.
                    return "claimed", "claimed", 1, False
                return local, MARK, 0, True
            if value == "claimed":
                # Someone (possibly me) claimed here; mark the other one.
                return local, value, 1, False
            return local, value, 1, True

        cert = symmetric_deterministic_failure(
            step, initial_local="scouting", initial_value="empty",
            max_steps=100,
        )
        assert cert.details["markers"] != 1

    def test_rabin_randomized_succeeds(self):
        successes = 0
        for seed in range(10):
            algo = RabinChoiceCoordination(n_processes=3, seed=seed)
            if algo.run(scheduler_seed=seed + 100):
                successes += 1
        assert successes == 10

    def test_rabin_exactly_one_marker(self):
        algo = RabinChoiceCoordination(n_processes=4, seed=42)
        assert algo.run(scheduler_seed=1)
        assert algo.marker_count == 1

    def test_rabin_needs_two_processes(self):
        with pytest.raises(ValueError):
            RabinChoiceCoordination(n_processes=1)
