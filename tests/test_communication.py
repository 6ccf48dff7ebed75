"""Tests for two-party communication complexity (E21, §2.6)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.communication import (
    complexity_report,
    constant_matrix,
    equality_matrix,
    exact_complexity,
    fooling_set_bound,
    function_matrix,
    greater_than_matrix,
    largest_fooling_set,
    log_rank_bound,
    parity_matrix,
)


class TestExactComplexity:
    def test_constant_function_is_free(self):
        assert exact_complexity(constant_matrix(2)) == 0

    @pytest.mark.parametrize("bits,expected", [(1, 2), (2, 3)])
    def test_equality_costs_bits_plus_one(self, bits, expected):
        assert exact_complexity(equality_matrix(bits)) == expected

    def test_greater_than_two_bits(self):
        assert exact_complexity(greater_than_matrix(2)) == 3

    def test_parity_costs_two(self):
        """One bit each way, whatever the input size."""
        assert exact_complexity(parity_matrix(1)) == 2
        assert exact_complexity(parity_matrix(2)) == 2

    def test_single_bit_and(self):
        m = function_matrix(lambda x, y: x & y, 2, 2)
        assert exact_complexity(m) == 2


class TestLowerBounds:
    def test_equality_fooling_set_is_the_diagonal(self):
        fooling = largest_fooling_set(equality_matrix(2))
        assert sorted(fooling) == [(0, 0), (1, 1), (2, 2), (3, 3)]

    def test_fooling_bound_equality(self):
        assert fooling_set_bound(equality_matrix(2)) == 2

    def test_rank_bound_equality(self):
        # The identity matrix has full rank 2^bits.
        assert log_rank_bound(equality_matrix(2)) == 2

    @pytest.mark.parametrize("bits", [1, 2, 3, 4])
    def test_rank_bound_pins_known_ranks(self, bits):
        # Exact ranks: EQ is the identity (2^b), GT is strictly lower
        # triangular with 2^b - 1 nonzero rows, parity is rank 2 and the
        # constant-0 matrix rank 0; the bound is ceil(log2 rank).
        assert log_rank_bound(equality_matrix(bits)) == bits
        assert log_rank_bound(greater_than_matrix(bits)) == math.ceil(
            math.log2(2 ** bits - 1)
        )
        assert log_rank_bound(parity_matrix(bits)) == 1
        assert log_rank_bound(constant_matrix(bits)) == 0

    def test_bounds_sandwich(self):
        for matrix in (equality_matrix(2), greater_than_matrix(2),
                       parity_matrix(2)):
            report = complexity_report(matrix)
            assert report["fooling_bound"] <= report["exact"]
            assert report["log_rank_bound"] <= report["exact"]
            assert report["exact"] <= report["trivial_upper"]

    def test_constant_has_no_fooling_pairs(self):
        assert fooling_set_bound(constant_matrix(2)) == 0


class TestPropertyBased:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 1), min_size=3, max_size=3),
                    min_size=3, max_size=3))
    def test_bounds_sandwich_on_random_matrices(self, rows):
        matrix = tuple(tuple(r) for r in rows)
        exact = exact_complexity(matrix)
        assert fooling_set_bound(matrix) <= exact
        assert log_rank_bound(matrix) <= exact

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 1), min_size=2, max_size=4),
                    min_size=2, max_size=4).filter(
                        lambda rows: len({len(r) for r in rows}) == 1))
    def test_monochromatic_iff_zero_cost(self, rows):
        matrix = tuple(tuple(r) for r in rows)
        values = {v for row in matrix for v in row}
        assert (exact_complexity(matrix) == 0) == (len(values) == 1)
