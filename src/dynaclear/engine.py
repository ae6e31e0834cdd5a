"""Discrete-event loop for the matching market.

Arrivals stream in over a rate-1 clock; the schedule decides when a couple is
matched; the waiting integral of the unmatched count is accrued exactly
between events.  Costs come either from the exponential pair-cost model or
from a count-decay law.

Each clearing event draws its own fresh costs, keyed by the seed that
_rng.event_seeds(run_seed) gives event k.  The first event reuses the run
seed itself.  At constant rate it prices a pool of up to SEAM_PAIRS pairs
with costs.cost_matrix_at_event and takes the matrix's first argmin, so
constant-rate runs with a single clearing event (hand tapes) and the patient
terminal assignment see exactly the canonical per-pair draws of the cost
model.  SEAM_PAIRS only bounds that matrix: a schedule whose first threshold
is large can make the first pool arbitrarily large.

A run picks its pricer once, from its cost mode and schedule:
- FIFO (fcfs under a rate model): one scalar draw for the two oldest agents;
- decay: the count-decay law, paired FIFO;
- constant rate, every event but a small first one: a uniform row and column
  pick and an exponential cost in lambda * m_c * m_p.  At constant rate the
  cheapest of the m_c * m_p pairs is a uniform pair, and its cost has that
  law at every pool size;
- heterogeneous rates, at every pool size: a row pick by the running row
  sums of the rates, a column pick by that row's rates and an exponential in
  the total rate.  The rows, columns and row sums come from one
  costs.PoolRates per run, kept aligned with the pools: each agent's rate
  term is hashed once on arrival, so a row or column of rates is one vector
  mix, and memory stays O(pool).
The sampled routes draw the minimum-cost couple from the exact
exponential-minimum law (pair (i, j) wins with probability lambda_ij over
the total rate, and the minimum is exponential in that total) instead of
materializing the cost matrix, so they realize the matrix argmin's
distribution.  Runs without cost accounting pair agents unpriced.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace
from typing import List, Sequence, Tuple, Union

import numpy as np

from . import _rng, costs
from .arrivals import ARRIVAL_CAP, PoissonStream
from .assignment import min_k_assignment
from .costs import CONSTANT, RateModel
from .schedules import FCFS, PATIENT, ScheduleSpec, threshold

__all__ = [
    "Horizon",
    "MatchTarget",
    "DecayModel",
    "MatchRecord",
    "RunSummary",
    "RunTrace",
    "PoolCapError",
    "check_cost_mode",
    "run",
    "run_ensemble",
]

_PATIENT_ENTRY_CAP = 2_500_000
_PATIENT_RETRY_CAP = 64

SEAM_PAIRS = 256


@dataclass(frozen=True)
class Horizon:
    """Stop once the clock passes tau_max."""

    tau_max: float

    def __post_init__(self) -> None:
        if not (self.tau_max > 0.0 and math.isfinite(self.tau_max)):
            raise ValueError("tau_max must be positive and finite")


@dataclass(frozen=True)
class MatchTarget:
    """Stop the instant the a_max-th match fires."""

    a_max: int

    def __post_init__(self) -> None:
        if self.a_max < 1:
            raise ValueError("a_max must be at least 1")


@dataclass(frozen=True)
class DecayModel:
    """Count-decay cost law: an event with pools (x, y) costs scale/min(x,y)^delta.

    Only delta > 1 keeps cumulative cost summable.
    """

    delta: float
    scale: float = 1.0

    def __post_init__(self) -> None:
        if not (self.delta > 1.0 and math.isfinite(self.delta)):
            raise ValueError("delta must exceed 1")
        if not (self.scale > 0.0 and math.isfinite(self.scale)):
            raise ValueError("scale must be positive and finite")

    def cost(self, m_c: int, m_p: int) -> float:
        return self.scale / min(m_c, m_p) ** self.delta


CostMode = Union[RateModel, DecayModel]
StopRule = Union[Horizon, MatchTarget]


@dataclass(frozen=True)
class MatchRecord:
    """One match, with the run's cumulative cost and waiting integral just after it."""

    k: int
    time: float
    client_id: int
    provider_id: int
    cost: float
    m_c: int
    m_p: int
    cum_cost: float
    cum_wait: float


@dataclass(frozen=True)
class RunSummary:
    tau: float
    n_c: int
    n_p: int
    a: int
    wait_integral: float
    total_cost: float
    seed: int
    schedule: str
    mode: str
    retries: int = 0


@dataclass
class RunTrace:
    """Everything one replication produced.

    a_grid_costs / tau_grid_waits are exact captures taken while the run was
    live, and the only points cost_at_match / wait_at can read; they let
    ensemble runs skip per-match records entirely.
    """

    records: List[MatchRecord]
    summary: RunSummary
    a_grid: Tuple[int, ...] = ()
    a_grid_costs: Tuple[float, ...] = ()
    tau_grid: Tuple[float, ...] = ()
    tau_grid_waits: Tuple[float, ...] = ()

    def cost_at_match(self, a: int) -> float:
        if a not in self.a_grid:
            raise LookupError(f"cost at match {a} was not captured; a_grid is {self.a_grid}")
        return self.a_grid_costs[self.a_grid.index(a)]

    def wait_at(self, tau: float) -> float:
        if tau == 0.0:
            return 0.0
        if tau not in self.tau_grid:
            raise LookupError(f"wait at tau {tau} was not captured; tau_grid is {self.tau_grid}")
        return self.tau_grid_waits[self.tau_grid.index(tau)]


class PoolCapError(ValueError):
    """A patient terminal assignment would price more than _PATIENT_ENTRY_CAP pairs."""


def check_cost_mode(spec: ScheduleSpec, cost_mode: CostMode) -> None:
    """Raise ValueError when the schedule cannot price its matches under cost_mode."""
    if isinstance(cost_mode, DecayModel) and spec.kind in (PATIENT, FCFS):
        raise ValueError(f"decay cost mode is incompatible with {spec.kind}")


def _mode_label(mode: CostMode) -> str:
    if isinstance(mode, RateModel):
        return f"micro:{mode.mode}"
    return f"decay:{mode.delta:g}:{mode.scale:g}"


def check_grid(name: str, values, cast, *, allow_zero: bool = False) -> tuple:
    """`values` as a tuple of `cast`, once checked sorted, unique and positive.

    allow_zero also admits 0 (the clock origin of a waiting grid).
    """
    grid = tuple(cast(v) for v in values) if values else ()
    floor_ok = all(v >= 0 if allow_zero else v > 0 for v in grid)
    if not floor_ok or list(grid) != sorted(set(grid)):
        least = "non-negative" if allow_zero else "positive"
        raise ValueError(f"{name} must be sorted, unique, and {least}: {list(grid)}")
    return grid


def run(
    spec: ScheduleSpec,
    cost_mode: CostMode,
    stop: StopRule,
    seed: int,
    source=None,
    *,
    collect_costs: bool = True,
    collect_records: bool = True,
    a_grid: Sequence[int] = (),
    tau_grid: Sequence[float] = (),
) -> RunTrace:
    """Simulate one replication.

    The trace is a pure function of (spec, cost_mode, stop, seed, source).
    collect_records (per-match records, each with the running cost and
    waiting totals) and the capture grids only control what is materialized,
    except that collect_costs=False skips cost draws entirely (costs report
    as 0.0); use it for waiting-time ensembles where cost accounting at scale
    would dominate the runtime.  cost_at_match / wait_at read only the points
    of a_grid / tau_grid.
    """
    if not isinstance(spec, ScheduleSpec):
        raise TypeError("spec must be a ScheduleSpec")
    if not isinstance(cost_mode, (RateModel, DecayModel)):
        raise TypeError("cost_mode must be a RateModel or DecayModel")
    if not isinstance(stop, (Horizon, MatchTarget)):
        raise TypeError("stop must be Horizon or MatchTarget")
    check_cost_mode(spec, cost_mode)
    a_grid = check_grid("a_grid", a_grid, int)
    tau_grid = check_grid("tau_grid", tau_grid, float)
    if spec.kind == PATIENT:
        return _run_patient(
            spec, cost_mode, stop, seed, source, collect_costs, collect_records, a_grid, tau_grid,
        )
    return _run_threshold(
        spec, cost_mode, stop, seed, source, collect_costs, collect_records, a_grid, tau_grid,
    )[0]


def _pick_index(u: float, n: int) -> int:
    i = int(u * n)
    return n - 1 if i >= n else i


def _first_reaching(weights: Sequence[float], goal: float) -> int:
    """First index whose running sum reaches goal, else the last index.

    Row sums can drift a hair below zero after subtractions, so the running
    sums need not be sorted: scan for the first hit instead of bisecting.
    """
    hit = np.cumsum(weights) >= goal
    i = int(hit.argmax())
    return i if hit[i] else len(hit) - 1


def _seam_uniforms(event_seed: int) -> Tuple[float, float, float]:
    """The sampled routes' row, column and cost uniforms for one event."""
    base = _rng.stream_base(event_seed, _rng.SALT_PICK)
    return _rng.u01(_rng.key1(base, 0)), _rng.u01(_rng.key1(base, 1)), _rng.u01(_rng.key1(base, 2))


def _run_threshold(
    spec, cost_mode, stop, seed, source, collect_costs, collect_records, a_grid, tau_grid,
):
    """The event loop; returns (trace, unmatched clients, unmatched providers).

    The patient schedule is the threshold-infinity member of the family: it
    never clears here and leaves its pools to the terminal assignment.
    """
    micro = isinstance(cost_mode, RateModel)
    fifo = spec.kind == FCFS or not micro
    hetero = not fifo and collect_costs and cost_mode.mode != CONSTANT
    horizon = stop.tau_max if isinstance(stop, Horizon) else None
    target = stop.a_max if isinstance(stop, MatchTarget) else None
    src = source if source is not None else PoissonStream(seed)
    event_seed = _rng.event_seeds(seed)

    pool_c: Union[deque, list] = deque() if fifo else []
    pool_p: Union[deque, list] = deque() if fifo else []
    rates = costs.PoolRates(cost_mode, seed) if hetero else None

    clock = 0.0
    wait = 0.0
    n_c = n_p = a = 0
    cum = 0.0
    arrivals = 0
    records: List[MatchRecord] = []
    a_costs: List[float] = []
    tau_waits: List[float] = []
    t_pos = 0
    n_tau = len(tau_grid)
    a_pos = 0
    n_a = len(a_grid)
    need = math.inf if spec.kind == PATIENT else threshold(spec, 1)
    done = False

    def advance(to_t: float) -> None:
        nonlocal clock, wait, t_pos
        r = len(pool_c) + len(pool_p)
        while t_pos < n_tau and clock < tau_grid[t_pos] <= to_t:
            tau_waits.append(wait + r * (tau_grid[t_pos] - clock))
            t_pos += 1
        wait += r * (to_t - clock)
        clock = to_t

    # The pricers: each clears event k on pools of m_c clients and m_p
    # providers and returns (client id, provider id, cost).  The run picks
    # one from its cost mode.

    def take(i: int, j: int) -> Tuple[int, int]:
        cid = pool_c[i]
        pid = pool_p[j]
        pool_c[i] = pool_c[-1]
        pool_c.pop()
        pool_p[j] = pool_p[-1]
        pool_p.pop()
        return cid, pid

    def clear_fifo_unpriced(k: int, m_c: int, m_p: int) -> Tuple[int, int, float]:
        return pool_c.popleft(), pool_p.popleft(), 0.0

    def clear_fifo(k: int, m_c: int, m_p: int) -> Tuple[int, int, float]:
        cid = pool_c.popleft()
        pid = pool_p.popleft()
        return cid, pid, costs.pair_cost_at_event(cid, pid, cost_mode, seed, event_seed(k))

    def clear_decay(k: int, m_c: int, m_p: int) -> Tuple[int, int, float]:
        return pool_c.popleft(), pool_p.popleft(), cost_mode.cost(m_c, m_p)

    def clear_unpriced(k: int, m_c: int, m_p: int) -> Tuple[int, int, float]:
        return pool_c.pop(), pool_p.pop(), 0.0

    def clear_constant(k: int, m_c: int, m_p: int) -> Tuple[int, int, float]:
        if k == 1 and m_c * m_p <= SEAM_PAIRS:
            mat = costs.cost_matrix_at_event(pool_c, pool_p, cost_mode, seed, event_seed(k))
            i, j = divmod(int(mat.argmin()), m_p)
            cost = float(mat[i, j])
        else:
            u_row, u_col, u_cost = _seam_uniforms(event_seed(k))
            i = _pick_index(u_row, m_c)
            j = _pick_index(u_col, m_p)
            cost = -float(np.log(u_cost)) / (cost_mode.lam_mean * m_c * m_p)
        cid, pid = take(i, j)
        return cid, pid, cost

    def clear_hetero(k: int, m_c: int, m_p: int) -> Tuple[int, int, float]:
        u_row, u_col, u_cost = _seam_uniforms(event_seed(k))
        row_sums = rates.row_sums
        total = math.fsum(row_sums.tolist())
        i = _first_reaching(row_sums, u_row * total)
        row = rates.row(i)
        j = _first_reaching(row, u_col * float(row.sum()))
        cost = -math.log(u_cost) / total
        rates.remove(i, j)
        cid, pid = take(i, j)
        return cid, pid, cost

    if not collect_costs:
        clear = clear_fifo_unpriced if fifo else clear_unpriced
    elif fifo:
        clear = clear_fifo if micro else clear_decay
    else:
        clear = clear_hetero if hetero else clear_constant

    while not done:
        times, sides = src.take_block()
        if not times:
            if horizon is None:
                raise RuntimeError("arrival source exhausted before the match target")
            if clock < horizon:
                advance(horizon)
            break
        for t, is_client in zip(times, sides):
            if horizon is not None and t > horizon:
                advance(horizon)
                done = True
                break
            advance(t)
            arrivals += 1
            if arrivals > ARRIVAL_CAP:
                raise RuntimeError(f"runaway run: more than {ARRIVAL_CAP} arrivals")
            if is_client:
                n_c += 1
                pool_c.append(arrivals)
                if rates is not None:
                    rates.add_client(arrivals)
            else:
                n_p += 1
                pool_p.append(arrivals)
                if rates is not None:
                    rates.add_provider(arrivals)
            while len(pool_c) >= need and len(pool_p) >= need:
                a += 1
                m_c = len(pool_c)
                m_p = len(pool_p)
                cid, pid, cost = clear(a, m_c, m_p)
                cum += cost
                if collect_records:
                    records.append(MatchRecord(a, clock, cid, pid, cost, m_c, m_p, cum, wait))
                if a_pos < n_a and a == a_grid[a_pos]:
                    a_costs.append(cum)
                    a_pos += 1
                need = threshold(spec, a + 1)
                if target is not None and a == target:
                    done = True
                    break
            if done:
                break

    summary = RunSummary(
        tau=clock, n_c=n_c, n_p=n_p, a=a, wait_integral=wait, total_cost=cum,
        seed=seed, schedule=spec.label(), mode=_mode_label(cost_mode),
    )
    trace = RunTrace(
        records, summary,
        a_grid=a_grid[: len(a_costs)], a_grid_costs=tuple(a_costs),
        tau_grid=tau_grid[: len(tau_waits)], tau_grid_waits=tuple(tau_waits),
    )
    return trace, pool_c, pool_p


def patient_pools(spec, cost_mode, stop, seed, source=None, collect_records=False, tau_grid=()):
    """Arrivals of a patient run up to its horizon, and the unmatched pools.

    A MatchTarget(T) stop runs to the horizon 2T + 4 sqrt(T) and needs T
    agents on each side; a thinner draw is redone on the derived seed
    derive_seed(seed, attempt).  Returns (trace, clients, providers); the
    trace summary names the seed used and the number of retries.
    """
    if isinstance(stop, MatchTarget):
        target = stop.a_max
        stop = Horizon(2.0 * target + 4.0 * math.sqrt(target))
    else:
        target = 0
    for attempt in range(_PATIENT_RETRY_CAP):
        run_seed = seed if attempt == 0 else _rng.derive_seed(seed, attempt)
        trace, pool_c, pool_p = _run_threshold(
            spec, cost_mode, stop, run_seed, source, False, collect_records, (), tau_grid,
        )
        short = min(len(pool_c), len(pool_p))
        if short >= target:
            trace.summary = replace(trace.summary, retries=attempt)
            return trace, pool_c, pool_p
        if source is not None:
            raise RuntimeError(f"source provides min side {short} < target {target}")
    raise RuntimeError(
        f"patient run failed to reach {target} matches in {_PATIENT_RETRY_CAP} attempts"
    )


def _run_patient(
    spec, cost_mode, stop, seed, source, collect_costs, collect_records, a_grid, tau_grid,
):
    trace, pool_c, pool_p = patient_pools(
        spec, cost_mode, stop, seed, source, collect_records, tau_grid,
    )
    summary = trace.summary
    n_c, n_p = summary.n_c, summary.n_p
    k = stop.a_max if isinstance(stop, MatchTarget) else min(n_c, n_p)
    if not (collect_costs and k >= 1):
        return trace
    if n_c * n_p > _PATIENT_ENTRY_CAP:
        raise PoolCapError(
            f"patient terminal assignment over {n_c}x{n_p} pairs exceeds "
            f"{_PATIENT_ENTRY_CAP} entries; rerun with collect_costs=False"
        )
    mat = costs.cost_matrix(pool_c, pool_p, cost_mode, summary.seed)
    asn = min_k_assignment(mat, k)
    records: List[MatchRecord] = []
    a_costs: List[float] = []
    cum = 0.0
    for idx, (i, j) in enumerate(sorted(asn.pairs)):
        cost = float(mat[i, j])
        cum += cost
        if collect_records:
            records.append(MatchRecord(
                idx + 1, summary.tau, pool_c[i], pool_p[j], cost, n_c - idx, n_p - idx,
                cum, summary.wait_integral,
            ))
        if len(a_costs) < len(a_grid) and idx + 1 == a_grid[len(a_costs)]:
            a_costs.append(cum)
    return replace(
        trace, records=records, summary=replace(summary, a=k, total_cost=asn.total),
        a_grid=a_grid[: len(a_costs)], a_grid_costs=tuple(a_costs),
    )


def _ensemble_worker(args):
    base_seed, rep, spec, cost_mode, stop, kwargs = args
    return run(spec, cost_mode, stop, _rng.derive_seed(base_seed, rep), **kwargs)


def run_ensemble(
    spec: ScheduleSpec,
    cost_mode: CostMode,
    stop: StopRule,
    base_seed: int,
    reps: int,
    *,
    jobs: int = 1,
    **run_kwargs,
) -> List[RunTrace]:
    """Independent replications on seeds derived from (base_seed, rep index).

    Results are ordered by replication index regardless of jobs, so every
    downstream aggregate is merge-order independent.
    """
    if reps < 1:
        raise ValueError("need reps >= 1")
    tasks = [(base_seed, r, spec, cost_mode, stop, run_kwargs) for r in range(reps)]
    return parallel_map(_ensemble_worker, tasks, jobs)


def parallel_map(fn, tasks: Sequence, jobs: int) -> list:
    """[fn(t) for t in tasks], fanned out to `jobs` worker processes when jobs > 1.

    The workers fork where the platform offers fork, and spawn elsewhere.
    """
    if jobs > 1:
        import multiprocessing as mp

        method = "fork" if "fork" in mp.get_all_start_methods() else "spawn"
        with mp.get_context(method).Pool(processes=jobs) as pool:
            return pool.map(fn, tasks, chunksize=max(1, len(tasks) // (4 * jobs)))
    return [fn(t) for t in tasks]
