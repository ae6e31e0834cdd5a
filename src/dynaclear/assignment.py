"""Static matching primitives on cost matrices.

Two routes to an optimal k-assignment live here: a successive-shortest-path
solver for arbitrary k, and a small brute-force enumerator used to
cross-check the solver.  Totals are compensated sums of
the selected entries so that two solvers picking the same pairs report the
same double.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence, Tuple

import numpy as np

__all__ = [
    "Assignment",
    "min_k_assignment",
    "brute_force_k_assignment",
]

_BRUTE_DIM_CAP = 8


@dataclass(frozen=True)
class Assignment:
    """A set of (row, col) pairs and the exact sum of their costs."""

    pairs: Tuple[Tuple[int, int], ...]
    total: float

    def __post_init__(self) -> None:
        rows = [i for i, _ in self.pairs]
        cols = [j for _, j in self.pairs]
        if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
            raise ValueError("assignment reuses a row or column")
        if not math.isfinite(self.total):
            raise ValueError("assignment total must be finite")

    def __len__(self) -> int:
        return len(self.pairs)


def _as_cost_matrix(costs) -> np.ndarray:
    arr = np.asarray(costs, dtype=np.float64)
    if arr.ndim != 2 or arr.size == 0:
        raise ValueError("cost matrix must be 2-D and non-empty")
    if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
        raise ValueError("costs must be finite and non-negative")
    return arr


def _total(arr: np.ndarray, pairs: Sequence[Tuple[int, int]]) -> float:
    return math.fsum(float(arr[i, j]) for i, j in pairs)


def min_k_assignment(costs, k: int) -> Assignment:
    """Cheapest selection of k disjoint entries, one per chosen row and column.

    Successive shortest augmenting paths with row/column potentials, started
    from every unmatched row at once; after the p-th augmentation the matching
    is a minimum-cost p-assignment, so stopping at k needs no padding of the
    rectangle.
    """
    arr = _as_cost_matrix(costs)
    n, m = arr.shape
    if not 1 <= k <= min(n, m):
        raise ValueError(f"k must be in [1, {min(n, m)}], got {k}")

    u = np.zeros(n)
    v = np.zeros(m)
    row_for_col = np.full(m, -1, dtype=np.int64)
    col_for_row = np.full(n, -1, dtype=np.int64)

    for _ in range(k):
        free_rows = np.flatnonzero(col_for_row == -1)
        reduced = arr[free_rows] - u[free_rows, None] - v[None, :]
        source = reduced.argmin(axis=0)
        dist = reduced[source, np.arange(m)]
        reach_row = free_rows[source]
        prev_col = np.full(m, -1, dtype=np.int64)
        visited = np.zeros(m, dtype=bool)

        while True:
            masked = np.where(visited, np.inf, dist)
            j = int(masked.argmin())
            if not math.isfinite(masked[j]):
                raise RuntimeError("no augmenting path in a complete bipartite graph")
            visited[j] = True
            if row_for_col[j] == -1:
                break
            i = int(row_for_col[j])
            slack = dist[j] + (arr[i] - u[i] - v)
            better = ~visited & (slack < dist)
            dist[better] = slack[better]
            reach_row[better] = i
            prev_col[better] = j

        d_final = dist[j]
        u[free_rows] += d_final
        vis = np.flatnonzero(visited)
        matched_vis = vis[row_for_col[vis] >= 0]
        u[row_for_col[matched_vis]] += d_final - dist[matched_vis]
        v[vis] += dist[vis] - d_final

        while True:
            i = int(reach_row[j])
            back = int(prev_col[j])
            row_for_col[j] = i
            col_for_row[i] = j
            if back == -1:
                break
            j = back

    pairs = tuple(
        (int(i), int(col_for_row[i])) for i in np.flatnonzero(col_for_row >= 0)
    )
    return Assignment(pairs, _total(arr, pairs))


@lru_cache(maxsize=None)
def _perm_table(k: int) -> np.ndarray:
    return np.array(list(itertools.permutations(range(k))), dtype=np.int64)


def brute_force_k_assignment(costs, k: int) -> Assignment:
    """Exhaustive minimum over all row subsets, column subsets and pairings.

    Refuses matrices larger than 8 on a side; enumeration beyond that stops
    being a trustworthy oracle and starts being a space heater.
    """
    arr = _as_cost_matrix(costs)
    n, m = arr.shape
    if n > _BRUTE_DIM_CAP or m > _BRUTE_DIM_CAP:
        raise ValueError(f"brute force capped at {_BRUTE_DIM_CAP}x{_BRUTE_DIM_CAP}")
    if not 1 <= k <= min(n, m):
        raise ValueError(f"k must be in [1, {min(n, m)}], got {k}")

    perms = _perm_table(k)
    pos = np.arange(k)
    best_val = math.inf
    best_pairs: Tuple[Tuple[int, int], ...] = ()
    for rows in itertools.combinations(range(n), k):
        sub_rows = arr[list(rows)]
        for cols in itertools.combinations(range(m), k):
            sub = sub_rows[:, list(cols)]
            totals = sub[pos, perms].sum(axis=1)
            at = int(totals.argmin())
            if totals[at] < best_val:
                best_val = float(totals[at])
                best_pairs = tuple(
                    (rows[r], cols[int(perms[at, r])]) for r in range(k)
                )
    return Assignment(best_pairs, _total(arr, best_pairs))

