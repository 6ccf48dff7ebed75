"""Two-party communication complexity (§2.6, Yao [103]).

The survey's last catalogue entry: lower bounds on the number of bits two
parties must exchange to compute a function of their distributed inputs,
proved by information-theoretic arguments.  For the small functions we
treat, everything is *exactly* computable:

* :func:`exact_complexity` — the true deterministic communication
  complexity, by exhaustive search over protocol trees (memoized
  recursion over combinatorial rectangles);
* :func:`fooling_set_bound` — the classic lower bound log2 of the largest
  fooling set (found exactly for small matrices);
* :func:`log_rank_bound` — the rank lower bound ceil(log2 rank(M));
* :func:`trivial_upper_bound` — send-everything, as the baseline.

The bundled functions (equality, greater-than, parity, constant) exhibit
the bounds' separations: EQ on k bits costs exactly k+1, matching its
2^k fooling set, while parity costs 2 regardless of input size.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from ..core.errors import ModelError

Matrix = Tuple[Tuple[int, ...], ...]  # M[x][y] = f(x, y)


def function_matrix(
    f: Callable[[int, int], int], x_size: int, y_size: int
) -> Matrix:
    return tuple(
        tuple(f(x, y) for y in range(y_size)) for x in range(x_size)
    )


# ---------------------------------------------------------------------------
# Exact deterministic complexity via protocol-tree search
# ---------------------------------------------------------------------------


def exact_complexity(matrix: Matrix) -> int:
    """The deterministic communication complexity of the matrix.

    A protocol is a binary tree: at each node one party announces one bit
    (any function of its input), splitting its side of the current
    rectangle; leaves must be monochromatic.  Cost = tree depth = bits
    exchanged in the worst case.  Exhaustive over all bipartitions with
    memoization on rectangles — exponential, but exact, and fine for the
    at-most-8x8 matrices the tests use.
    """
    x_all = frozenset(range(len(matrix)))
    y_all = frozenset(range(len(matrix[0])))

    @lru_cache(maxsize=None)
    def cost(xs: FrozenSet[int], ys: FrozenSet[int]) -> int:
        values = {matrix[x][y] for x in xs for y in ys}
        if len(values) <= 1:
            return 0
        best = math.inf
        # Alice speaks: any bipartition of xs into (part, xs - part).
        best = min(best, _best_split(xs, lambda part: max(
            cost(part, ys), cost(xs - part, ys))))
        # Bob speaks.
        best = min(best, _best_split(ys, lambda part: max(
            cost(xs, part), cost(xs, ys - part))))
        return 1 + int(best)

    def _best_split(side: FrozenSet[int], rec) -> float:
        items = sorted(side)
        best = math.inf
        # Nontrivial bipartitions; fixing items[0]'s side halves the work.
        for mask in range(2 ** (len(items) - 1)):
            part = frozenset(
                [items[0]] + [items[i] for i in range(1, len(items))
                              if (mask >> (i - 1)) & 1]
            )
            if part == side:
                continue
            best = min(best, rec(part))
        return best

    return cost(x_all, y_all)


# ---------------------------------------------------------------------------
# Lower bounds
# ---------------------------------------------------------------------------


def largest_fooling_set(matrix: Matrix, value: Optional[int] = None
                        ) -> List[Tuple[int, int]]:
    """The largest fooling set, exactly (branch and bound over cells).

    A fooling set for value v: cells (x, y) with M[x][y] = v such that for
    any two of them, at least one of the crossed cells differs from v.
    """
    best: List[Tuple[int, int]] = []
    values = {matrix[x][y] for x in range(len(matrix))
              for y in range(len(matrix[0]))}
    targets = [value] if value is not None else sorted(values)
    for v in targets:
        cells = [
            (x, y)
            for x in range(len(matrix))
            for y in range(len(matrix[0]))
            if matrix[x][y] == v
        ]

        def compatible(a, b):
            (x1, y1), (x2, y2) = a, b
            return matrix[x1][y2] != v or matrix[x2][y1] != v

        current: List[Tuple[int, int]] = []

        def extend(start: int) -> None:
            nonlocal best
            if len(current) > len(best):
                best = list(current)
            for i in range(start, len(cells)):
                cell = cells[i]
                if all(compatible(cell, other) for other in current):
                    current.append(cell)
                    extend(i + 1)
                    current.pop()

        extend(0)
    return best


def fooling_set_bound(matrix: Matrix) -> int:
    """D(f) >= ceil(log2 |fooling set|)."""
    size = len(largest_fooling_set(matrix))
    return math.ceil(math.log2(size)) if size > 1 else 0


def _rank(matrix: Matrix) -> int:
    """The exact rank of ``matrix`` over the rationals: each nonzero
    pivot row is eliminated from the rows left, in ``Fraction`` arithmetic."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    rank = 0
    while rows:
        pivot = rows.pop()
        col = next((j for j, x in enumerate(pivot) if x), None)
        if col is not None:
            rank += 1
            rows = [
                [x - row[col] / pivot[col] * y for x, y in zip(row, pivot)]
                for row in rows
            ]
    return rank


def log_rank_bound(matrix: Matrix) -> int:
    """D(f) >= ceil(log2 rank(M)) over the reals."""
    rank = _rank(matrix)
    return math.ceil(math.log2(rank)) if rank > 1 else 0


def trivial_upper_bound(matrix: Matrix) -> int:
    """Alice sends her whole input; Bob replies with the answer bit(s)."""
    x_bits = math.ceil(math.log2(len(matrix))) if len(matrix) > 1 else 0
    values = {matrix[x][y] for x in range(len(matrix))
              for y in range(len(matrix[0]))}
    answer_bits = math.ceil(math.log2(len(values))) if len(values) > 1 else 0
    return x_bits + answer_bits


# ---------------------------------------------------------------------------
# The standard functions
# ---------------------------------------------------------------------------


def equality_matrix(bits: int) -> Matrix:
    size = 2 ** bits
    return function_matrix(lambda x, y: int(x == y), size, size)


def greater_than_matrix(bits: int) -> Matrix:
    size = 2 ** bits
    return function_matrix(lambda x, y: int(x > y), size, size)


def parity_matrix(bits: int) -> Matrix:
    size = 2 ** bits
    return function_matrix(
        lambda x, y: (bin(x).count("1") + bin(y).count("1")) % 2, size, size
    )


def constant_matrix(bits: int) -> Matrix:
    size = 2 ** bits
    return function_matrix(lambda x, y: 0, size, size)


def complexity_report(matrix: Matrix) -> Dict[str, int]:
    """All bounds side by side; raises if they are mutually inconsistent."""
    exact = exact_complexity(matrix)
    fooling = fooling_set_bound(matrix)
    rank = log_rank_bound(matrix)
    trivial = trivial_upper_bound(matrix)
    if not (fooling <= exact and rank <= exact <= trivial):
        raise ModelError(
            f"bound sandwich violated: fooling {fooling}, rank {rank}, "
            f"exact {exact}, trivial {trivial}"
        )
    return {
        "fooling_bound": fooling,
        "log_rank_bound": rank,
        "exact": exact,
        "trivial_upper": trivial,
    }
