"""Ensemble aggregation: ratio estimates against a reference schedule, growth fits.

The matching ratio divides mean cumulative cost at a match count by the
patient schedule's expected cost for the same count; the waiting ratio
divides mean integrated queue size by the greedy law (2/3)tau^(3/2).  Both
use fsum-based means, so estimates are invariant under replication
reordering.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple, Union

import numpy as np

from . import _rng, costs, oracles
from .assignment import min_k_assignment
from .costs import RateModel
from .engine import MatchTarget, RunTrace, check_grid, parallel_map, patient_pools
from .schedules import PATIENT, ScheduleSpec

__all__ = [
    "LOG_LOG",
    "SEMILOG_X",
    "CoverageError",
    "RatioEstimate",
    "GrowthFit",
    "AnalyticEqualSided",
    "EmpiricalPatient",
    "check_coverage",
    "empirical_patient_denominator",
    "matching_ratio",
    "waiting_ratio",
    "fit_growth",
    "write_ratio_csv",
    "write_fits_json",
]

LOG_LOG = "loglog"
SEMILOG_X = "semilogx"

_TRANSFORMS = (LOG_LOG, SEMILOG_X)


class CoverageError(ValueError):
    """An ensemble does not cover the requested grid point."""

    def __init__(self, message: str, deficient: Sequence[int] = ()):
        super().__init__(message)
        self.deficient = tuple(deficient)


@dataclass(frozen=True)
class RatioEstimate:
    x: float
    ratio: float
    stderr: float
    denominator: str

    def __post_init__(self) -> None:
        if self.ratio < 0.0:
            raise ValueError("ratio cannot be negative")
        if self.stderr < 0.0:
            raise ValueError("standard error cannot be negative")


@dataclass(frozen=True)
class GrowthFit:
    transform: str
    slope: float
    intercept: float
    slope_stderr: float
    r2: float
    n_points: int

    def __post_init__(self) -> None:
        if self.transform not in _TRANSFORMS:
            raise ValueError(f"unknown transform {self.transform!r}")
        if self.n_points < 4:
            raise ValueError("growth fits need at least 4 points")


@dataclass(frozen=True)
class AnalyticEqualSided:
    """Patient-cost denominator from the closed form for identical rate-1 costs."""

    tag = "analytic"

    def value(self, a: int) -> float:
        return oracles.patient_cost_equal_sided(a)


@dataclass(frozen=True)
class EmpiricalPatient:
    """Patient-cost denominator estimated from patient replications.

    Required whenever rates are heterogeneous; the closed form only covers
    the identical-rate case.
    """

    means: Tuple[Tuple[int, float], ...]
    tag = "empirical"

    def value(self, a: int) -> float:
        for grid_a, mean in self.means:
            if grid_a == a:
                return mean
        raise CoverageError(f"no empirical denominator at A={a}")


DenominatorSource = Union[AnalyticEqualSided, EmpiricalPatient]


def _patient_mean_worker(args) -> float:
    a, cost_mode, seed = args
    spec = ScheduleSpec(PATIENT)
    trace, clients, providers = patient_pools(spec, cost_mode, MatchTarget(a), seed)
    mat = costs.cost_matrix(clients[:a], providers[:a], cost_mode, trace.summary.seed)
    return min_k_assignment(mat, a).total


def empirical_patient_denominator(
    a_grid: Sequence[int],
    cost_mode: RateModel,
    base_seed: int,
    reps: int,
    *,
    jobs: int = 1,
) -> EmpiricalPatient:
    """Mean patient cost at each match count, from matched-horizon runs.

    Each sample runs arrivals to the horizon 2A + 4*sqrt(A) and prices the
    optimal A-assignment over the first A arrivals on each side, so numerator
    and denominator compare equal match counts over equally aged pools.
    Costs never influence the (rare) short-pool retries, so the retries do
    not bias the mean.
    """
    if reps < 1:
        raise ValueError("need reps >= 1")
    if not isinstance(cost_mode, RateModel):
        raise TypeError("empirical denominator needs a pair-cost rate model")
    a_grid = check_grid("a_grid", a_grid, int)
    tasks = []
    for pos, a in enumerate(a_grid):
        a_base = _rng.derive_seed(base_seed, pos)
        tasks.extend((a, cost_mode, _rng.derive_seed(a_base, r)) for r in range(reps))
    totals = parallel_map(_patient_mean_worker, tasks, jobs)
    means = []
    for pos, a in enumerate(a_grid):
        block = totals[pos * reps : (pos + 1) * reps]
        means.append((a, math.fsum(block) / reps))
    return EmpiricalPatient(means=tuple(means))


def mean_stderr(values: Sequence[float]) -> Tuple[float, float]:
    """fsum mean and its standard error (0 for a single value)."""
    n = len(values)
    mean = math.fsum(values) / n
    if n < 2:
        return mean, 0.0
    var = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var / n)


def _stopped_short(traces, missing, reached, point: str, grid_arg: str) -> List[int]:
    """The replications in `missing` that stopped before the grid point.

    If none did, every one ran past it without capturing it, and that is
    the CoverageError raised here.
    """
    short = [rep for rep in missing if not reached(traces[rep].summary)]
    if missing and not short:
        raise CoverageError(
            f"{len(missing)} of {len(traces)} replications ran past {point} but did not "
            f"capture it (reps {missing[:10]}...); pass it in the {grid_arg}= argument "
            f"of run / run_ensemble",
            missing,
        )
    return short


def check_coverage(traces: Sequence[RunTrace], a_grid: Sequence[int]) -> None:
    """Raise CoverageError at the first grid point some replication did not capture."""
    for a in a_grid:
        missing = [rep for rep, trace in enumerate(traces) if a not in trace.a_grid]
        short = _stopped_short(traces, missing, lambda s: s.a >= a, f"match {a}", "a_grid")
        if short:
            raise CoverageError(
                f"{len(short)} of {len(traces)} replications never reach "
                f"match {a} (reps {short[:10]}...); the fewest matches any "
                f"replication reached is {min(t.summary.a for t in traces)}",
                short,
            )


def matching_ratio(
    traces: Sequence[RunTrace],
    a_grid: Sequence[int],
    denominator: DenominatorSource = AnalyticEqualSided(),
) -> List[RatioEstimate]:
    """alpha-hat over the match-count grid: mean cumulative cost / patient cost."""
    if not traces:
        raise ValueError("need at least one trace")
    a_grid = check_grid("a_grid", a_grid, int)
    check_coverage(traces, a_grid)
    out = []
    for a in a_grid:
        den = denominator.value(a)
        mean, se = mean_stderr([trace.cost_at_match(a) for trace in traces])
        out.append(RatioEstimate(float(a), mean / den, se / den, denominator.tag))
    return out


def waiting_ratio(
    traces: Sequence[RunTrace],
    tau_grid: Sequence[float],
) -> List[RatioEstimate]:
    """beta-hat over the clock grid: mean waiting integral / (2/3) tau^(3/2).

    tau = 0 has a 0/0 ratio and is dropped from the output.
    """
    if not traces:
        raise ValueError("need at least one trace")
    tau_grid = check_grid("tau_grid", tau_grid, float, allow_zero=True)
    out = []
    for tau in tau_grid:
        if tau == 0.0:
            continue
        missing = [rep for rep, trace in enumerate(traces) if tau not in trace.tau_grid]
        short = _stopped_short(traces, missing, lambda s: s.tau >= tau, f"tau {tau}", "tau_grid")
        if short:
            raise CoverageError(
                f"{len(short)} of {len(traces)} replications stop before "
                f"tau {tau} (reps {short[:10]}...)",
                short,
            )
        den = oracles.greedy_expected_wait(tau)
        mean, se = mean_stderr([trace.wait_at(tau) for trace in traces])
        out.append(RatioEstimate(tau, mean / den, se / den, "analytic"))
    return out


def fit_growth(points: Sequence[Tuple[float, float]], transform: str) -> GrowthFit:
    """Ordinary least squares on transformed coordinates."""
    if transform not in _TRANSFORMS:
        raise ValueError(f"unknown transform {transform!r}")
    if len(points) < 4:
        raise ValueError("growth fits need at least 4 points")
    xs = np.array([p[0] for p in points], dtype=np.float64)
    ys = np.array([p[1] for p in points], dtype=np.float64)
    if np.any(np.diff(xs) <= 0.0):
        raise ValueError("x must be strictly increasing")
    if transform in (LOG_LOG, SEMILOG_X):
        if np.any(xs <= 0.0):
            raise ValueError("log transform needs positive x")
        xs = np.log(xs)
    if transform == LOG_LOG:
        if np.any(ys <= 0.0):
            raise ValueError("log transform needs positive y")
        ys = np.log(ys)
    n = len(points)
    x_mean = xs.mean()
    y_mean = ys.mean()
    sxx = float(np.sum((xs - x_mean) ** 2))
    slope = float(np.sum((xs - x_mean) * (ys - y_mean)) / sxx)
    intercept = y_mean - slope * x_mean
    resid = ys - (intercept + slope * xs)
    ssr = float(np.sum(resid ** 2))
    sst = float(np.sum((ys - y_mean) ** 2))
    se = math.sqrt(ssr / (n - 2) / sxx)
    r2 = 1.0 - ssr / sst if sst > 0.0 else (1.0 if ssr < 1e-24 else 0.0)
    return GrowthFit(
        transform=transform, slope=slope, intercept=intercept,
        slope_stderr=se, r2=r2, n_points=n,
    )


def write_ratio_csv(path: str, estimates: Sequence[RatioEstimate], config_hash: str) -> None:
    """CSV table `x,ratio,stderr,denominator` with the config hash on a comment line."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# config {config_hash}\n")
        writer = csv.writer(fh)
        writer.writerow(["x", "ratio", "stderr", "denominator"])
        for est in estimates:
            writer.writerow([repr(est.x), repr(est.ratio), repr(est.stderr), est.denominator])


def write_fits_json(path: str, fits: Mapping[str, GrowthFit], config_hash: str) -> None:
    payload: Dict[str, object] = {"config": config_hash, "fits": {}}
    for name, fit in fits.items():
        payload["fits"][name] = {
            "transform": fit.transform,
            "slope": fit.slope,
            "intercept": fit.intercept,
            "slope_stderr": fit.slope_stderr,
            "r2": fit.r2,
            "n_points": fit.n_points,
        }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
