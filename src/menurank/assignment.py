"""Minimum-cost perfect matching on a square cost matrix.

Potentials-based Hungarian algorithm, O(n^3).  Costs may be any exactly
ordered numbers (ints, Fractions); no floating point enters the arithmetic,
so optima compare bit-exactly against brute force.  Ties resolve
deterministically by scan order.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


def min_cost_assignment(
    cost: Sequence[Sequence[int | Fraction]],
) -> tuple[list[int], int | Fraction]:
    """Assign each row a distinct column minimising the total cost.

    Returns ``(cols, total)`` where ``cols[r]`` is the 0-based column given to
    row ``r``.
    """
    n = len(cost)
    if n == 0:
        raise ValueError("empty cost matrix")
    for row in cost:
        if len(row) != n:
            raise ValueError("cost matrix must be square")

    INF = float("inf")  # sentinel for comparisons only, never added
    u = [0] * (n + 1)
    v = [0] * (n + 1)
    match = [0] * (n + 1)  # match[col] = row occupying col, 1-based, 0 = free

    for r in range(1, n + 1):
        match[0] = r
        j0 = 0
        minv: list = [INF] * (n + 1)
        way = [0] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = match[j0]
            delta = INF
            j1 = 0
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = cost[i0 - 1][j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match[j0] == 0:
                break
        while j0:
            match[j0] = match[way[j0]]
            j0 = way[j0]

    cols = [0] * n
    for col in range(1, n + 1):
        cols[match[col] - 1] = col - 1
    total = sum(cost[r][cols[r]] for r in range(n))
    return cols, total
