"""Static matching primitives on cost matrices.

`min_k_assignment` runs scipy's compiled `linear_sum_assignment`, the
rectangular shortest augmenting path method of Crouse (IEEE TAES 2016),
loaded from its extension file so that scipy.optimize is never imported;
k below min(n, m) is solved on a padded square.  `brute_force_k_assignment`
enumerates small cases and is the oracle that checks it.  Totals are
compensated sums of the selected entries, so two solvers picking the same
pairs report the same double.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import itertools
import math
import os
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


def _load_kernel():
    """scipy's compiled `linear_sum_assignment`, without importing scipy.optimize.

    The extension file is the whole solver.  Loading only that file keeps
    the roughly 50 MB that importing scipy.optimize adds out of every
    process.  Builds that lay scipy out differently get the public import.
    """
    scipy = importlib.util.find_spec("scipy")
    path = os.path.join(
        scipy.submodule_search_locations[0],
        "optimize",
        "_lsap" + importlib.machinery.EXTENSION_SUFFIXES[0],
    )
    if os.path.isfile(path):
        spec = importlib.util.spec_from_file_location("scipy.optimize._lsap", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module.linear_sum_assignment
    from scipy.optimize import linear_sum_assignment

    return linear_sum_assignment


_lsap = _load_kernel()


def min_k_assignment(costs, k: int) -> Assignment:
    """Cheapest selection of k disjoint entries, one per chosen row and column.

    k = min(n, m) goes straight to the kernel.  Smaller k pads the n x m
    matrix to a square of side n + m - k: m - k dummy rows and n - k dummy
    columns cost 0 against real ones and inf against each other, so every
    dummy row takes a real column, every dummy column a real row, and exactly
    k real rows meet real columns at minimum total cost.
    """
    arr = _as_cost_matrix(costs)
    n, m = arr.shape
    if not 1 <= k <= min(n, m):
        raise ValueError(f"k must be in [1, {min(n, m)}], got {k}")
    if k == min(n, m):
        rows, cols = _lsap(arr)
    else:
        side = n + m - k
        padded = np.zeros((side, side))
        padded[:n, :m] = arr
        padded[n:, m:] = np.inf
        rows, cols = _lsap(padded)
        real = (rows < n) & (cols < m)
        rows, cols = rows[real], cols[real]
    pairs = tuple(zip(rows.tolist(), cols.tolist()))
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

