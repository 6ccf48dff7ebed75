"""Tests for the Moran–Wolfstahl task-solvability characterization (E18)."""

import networkx as nx
import pytest

from repro.asynchronous import (
    DecisionTask,
    analyze_task,
    binary_consensus_task,
    decision_graph,
    epsilon_agreement_task,
    identity_task,
    input_graph,
    leader_task,
    moran_wolfstahl_certificate,
)
from repro.core import ModelError


class TestGraphs:
    def test_consensus_input_graph_is_hypercube(self):
        graph = nx.Graph(input_graph(binary_consensus_task(3)))
        assert graph.number_of_nodes() == 8
        assert graph.number_of_edges() == 12  # the 3-cube
        assert nx.is_connected(graph)

    def test_consensus_decision_graph_is_two_points(self):
        graph = nx.Graph(decision_graph(binary_consensus_task(3)))
        assert graph.number_of_nodes() == 2
        assert graph.number_of_edges() == 0

    def test_epsilon_agreement_decision_graph_connected(self):
        graph = nx.Graph(decision_graph(epsilon_agreement_task(2)))
        assert nx.is_connected(graph)


class TestVerdicts:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_consensus_unsolvable(self, n):
        verdict = analyze_task(binary_consensus_task(n))
        assert verdict.provably_unsolvable

    def test_leader_election_unsolvable(self):
        assert analyze_task(leader_task(3)).provably_unsolvable

    def test_identity_not_flagged(self):
        assert not analyze_task(identity_task(2)).provably_unsolvable

    def test_epsilon_agreement_not_flagged(self):
        """Approximate agreement is solvable (§2.2.2) and the condition
        correctly declines to fire."""
        assert not analyze_task(epsilon_agreement_task(2)).provably_unsolvable


class TestCertificates:
    def test_consensus_certificate(self):
        cert = moran_wolfstahl_certificate(binary_consensus_task(3))
        assert cert.details["decision_components"] == 2

    def test_certificate_refused_when_condition_absent(self):
        with pytest.raises(ModelError):
            moran_wolfstahl_certificate(identity_task(2))


class TestTaskValidation:
    def test_unsatisfiable_task_rejected(self):
        with pytest.raises(ModelError):
            DecisionTask("bad", frozenset({(0, 0)}), {(0, 0): frozenset()})

    def test_mixed_arity_rejected(self):
        with pytest.raises(ModelError):
            DecisionTask(
                "bad",
                frozenset({(0,), (0, 1)}),
                {(0,): frozenset({(0,)}), (0, 1): frozenset({(0, 1)})},
            )

    def test_empty_inputs_rejected(self):
        with pytest.raises(ModelError):
            DecisionTask("bad", frozenset(), {})
