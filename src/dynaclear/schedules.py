"""Clearing schedules: when the k-th matching event fires.

A schedule is a threshold function f(k) on the short side of the market: the
k-th couple is matched as soon as both sides hold at least f(k) unmatched
agents.  Greedy and FCFS use f = 1, the power-law family uses ceil(c * k^gamma),
the balanced schedule uses ceil(c * sqrt(k) * (log k)^(1/3)), and the patient
schedule never clears before the horizon.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Optional, Tuple

__all__ = [
    "ScheduleSpec",
    "threshold",
    "parse_schedule",
    "load_threshold_table",
]

FCFS = "fcfs"
GREEDY = "greedy"
PATIENT = "patient"
POWER = "power"
BALANCED = "balanced"
CUSTOM = "custom"

_KINDS = (FCFS, GREEDY, PATIENT, POWER, BALANCED, CUSTOM)


def _validate_table(table: Tuple[int, ...]) -> None:
    if not table:
        raise ValueError("threshold table is empty")
    prev = 1
    for pos, f in enumerate(table, start=1):
        if not isinstance(f, int) or f < 1:
            raise ValueError(f"threshold f({pos}) = {f!r} must be an integer >= 1")
        if f < prev:
            raise ValueError("threshold table must be non-decreasing")
        prev = f
    # A threshold that keeps pace with the match index starves the market:
    # the matched fraction can never grow.  Reject tables whose whole tail
    # sits at f(k) >= k.
    tail = range(max(2, (3 * len(table)) // 4), len(table) + 1)
    if len(tail) > 0 and all(table[k - 1] >= k for k in tail):
        raise ValueError("threshold table grows at least as fast as the match index")


@dataclass(frozen=True)
class ScheduleSpec:
    """One member of the clearing-schedule family.

    kind is one of "fcfs", "greedy", "patient", "power", "balanced",
    "custom"; gamma applies to power only, scale to power and balanced,
    table to custom only.
    """

    kind: str
    gamma: Optional[float] = None
    scale: float = 1.0
    table: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.kind == POWER:
            if self.gamma is None or not (0.0 <= self.gamma <= 1.0):
                raise ValueError("power schedule needs gamma in [0, 1]")
        elif self.gamma is not None:
            raise ValueError(f"gamma is meaningless for {self.kind}")
        if not (self.scale > 0.0 and math.isfinite(self.scale)):
            raise ValueError("scale must be positive and finite")
        if self.kind == CUSTOM:
            if self.table is None:
                raise ValueError("custom schedule needs a threshold table")
            _validate_table(self.table)
        elif self.table is not None:
            raise ValueError(f"threshold table is meaningless for {self.kind}")

    def label(self) -> str:
        if self.kind == POWER:
            if self.scale != 1.0:
                return f"power:{self.gamma:g}:{self.scale:g}"
            return f"power:{self.gamma:g}"
        if self.kind == BALANCED and self.scale != 1.0:
            return f"balanced:{self.scale:g}"
        return self.kind


def threshold(spec: ScheduleSpec, k: int) -> int:
    """Short-side threshold f(k) for the k-th match.

    Not defined for the patient schedule, which clears only at the horizon.
    """
    if k < 1:
        raise ValueError("match index starts at 1")
    if spec.kind == PATIENT:
        raise ValueError("patient schedule has no per-match threshold")
    if spec.kind in (GREEDY, FCFS):
        return 1
    if spec.kind == POWER:
        return max(1, math.ceil(spec.scale * k ** spec.gamma))
    if spec.kind == BALANCED:
        return max(1, math.ceil(spec.scale * math.sqrt(k) * math.log(k) ** (1.0 / 3.0)))
    table = spec.table
    if k > len(table):
        raise ValueError(f"threshold table covers k <= {len(table)}, asked for {k}")
    return table[k - 1]


def load_threshold_table(path: str) -> Tuple[int, ...]:
    """Read a custom threshold table from a CSV with header `k,f`.

    Rows must enumerate k = 1..n contiguously.
    """
    values = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or [c.strip() for c in reader.fieldnames] != ["k", "f"]:
            raise ValueError(f"{path}: expected CSV header 'k,f'")
        for lineno, row in enumerate(reader, start=1):
            k = int(row["k"])
            if k != lineno:
                raise ValueError(f"{path}: row {lineno} has k = {k}, expected {lineno}")
            values.append(int(row["f"]))
    return tuple(values)


def parse_schedule(text: str) -> ScheduleSpec:
    """Parse the schedule grammar.

    greedy | fcfs | patient | power:<gamma>[:<c>] | balanced[:<c>] |
    custom:<path-to-threshold-csv>
    """
    parts = text.strip().split(":")
    kind = parts[0].lower()
    try:
        if kind in (GREEDY, FCFS, PATIENT):
            if len(parts) != 1:
                raise ValueError(f"{kind} takes no parameters")
            return ScheduleSpec(kind)
        if kind == POWER:
            if len(parts) not in (2, 3):
                raise ValueError("expected power:<gamma>[:<c>]")
            gamma = float(parts[1])
            scale = float(parts[2]) if len(parts) == 3 else 1.0
            return ScheduleSpec(POWER, gamma=gamma, scale=scale)
        if kind == BALANCED:
            if len(parts) > 2:
                raise ValueError("expected balanced[:<c>]")
            scale = float(parts[1]) if len(parts) == 2 else 1.0
            return ScheduleSpec(BALANCED, scale=scale)
        if kind == CUSTOM:
            if len(parts) < 2:
                raise ValueError("expected custom:<path>")
            path = text.strip().split(":", 1)[1]
            return ScheduleSpec(CUSTOM, table=load_threshold_table(path))
    except ValueError as exc:
        raise ValueError(f"bad schedule {text!r}: {exc}") from None
    raise ValueError(f"bad schedule {text!r}: unknown kind {kind!r}")
