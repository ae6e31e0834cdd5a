"""Clearing runs of the matching market.

Arrivals stream in over a rate-1 clock; the schedule decides when a couple is
matched; the waiting integral of the unmatched count is accrued exactly
between events.  Costs come either from the exponential pair-cost model or
from a count-decay law.

Thresholds never decrease, so clearing a fires at the first arrival whose
couple count reaches a - 1 + f(a), whichever agents match and whatever they
cost.  So every run (_walk) folds over the arrival blocks in closed form,
carrying the counts, the clock and the running totals from block to block;
the patient pools are the walk with f = infinity.  Each block's clearings
are priced at once:
- constant rate: a uniform row and column pick and an exponential cost in
  lambda * m_c * m_p.  At constant rate the cheapest of the m_c * m_p pairs
  is a uniform pair, and its cost has that law at every pool size;
- FIFO (fcfs under a rate model): the k-th client and the k-th provider, at
  their pair's rate, in one vector costs.pair_cost_at_event;
- decay: the count-decay law, paired FIFO, once per distinct short side;
- heterogeneous rates without FIFO pairing, the one pricer that reads the
  pools: the block's arrivals are replayed one by one into the pools and one
  costs.PoolRates, and each clearing picks a row by the running row sums of
  the rates, a column by that row's rates and an exponential in the total
  rate.  Each agent's rate term is hashed once on arrival, so a row or
  column of rates is one vector mix, and memory stays O(pool).
The sampled routes draw the minimum-cost couple from the exact
exponential-minimum law (pair (i, j) wins with probability lambda_ij over
the total rate, and the minimum is exponential in that total) instead of
materializing the cost matrix, so they realize the matrix argmin's
distribution.  Runs without cost accounting pair agents unpriced.

Each clearing event draws its own fresh costs, keyed by the seed that
_rng.event_seeds(run_seed, ks) gives event k.  The first event reuses the run
seed itself.  At constant rate it prices a pool of up to SEAM_PAIRS pairs
with costs.cost_matrix_at_event and takes the matrix's first argmin, so
constant-rate runs with a single clearing event (hand tapes) and the patient
terminal assignment see exactly the canonical per-pair draws of the cost
model.  SEAM_PAIRS only bounds that matrix: a schedule whose first threshold
is large can make the first pool arbitrarily large.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from . import _rng, costs
from .arrivals import ARRIVAL_CAP, PoissonStream, couples
from .assignment import min_k_assignment
from .costs import CONSTANT, RateModel
from .schedules import FCFS, GREEDY, PATIENT, ScheduleSpec, threshold

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


@dataclass(frozen=True, slots=True)
class MatchRecord:
    """One match, with the run's cumulative cost and waiting integral just after it.

    Slotted: a traced bundle holds one record per match of each traced run.
    """

    k: int
    time: float
    client_id: int
    provider_id: int
    cost: float
    m_c: int
    m_p: int
    cum_cost: float
    cum_wait: float


class _Matches(NamedTuple):
    """A run's matches as numpy columns, in MatchRecord field order."""

    k: np.ndarray
    time: np.ndarray
    client_id: np.ndarray
    provider_id: np.ndarray
    cost: np.ndarray
    m_c: np.ndarray
    m_p: np.ndarray
    cum_cost: np.ndarray
    cum_wait: np.ndarray

    def __eq__(self, other) -> bool:
        return isinstance(other, _Matches) and all(map(np.array_equal, self, other))

    def __ne__(self, other) -> bool:
        return not self == other

    __hash__ = None


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
    ensemble runs skip per-match records entirely.  A run with
    collect_records keeps its matches as numpy columns (matches, None when
    nothing was collected or nothing cleared); records builds the
    MatchRecord list from them the first time it is read.
    """

    summary: RunSummary
    a_grid: Tuple[int, ...] = ()
    a_grid_costs: Tuple[float, ...] = ()
    tau_grid: Tuple[float, ...] = ()
    tau_grid_waits: Tuple[float, ...] = ()
    matches: Optional[_Matches] = field(default=None, repr=False)

    @cached_property
    def records(self) -> List[MatchRecord]:
        if self.matches is None:
            return []
        return list(map(MatchRecord, *(col.tolist() for col in self.matches)))

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
    return _walk(
        spec, cost_mode, stop, seed, source, collect_costs, collect_records, a_grid, tau_grid,
    )[0]


def _runaway() -> RuntimeError:
    return RuntimeError(f"runaway run: more than {ARRIVAL_CAP} arrivals")


def _first_reaching(weights: Sequence[float], goal: float) -> int:
    """First index whose running sum reaches goal, else the last index.

    Row sums can drift a hair below zero after subtractions, so the running
    sums need not be sorted: scan for the first hit instead of bisecting.
    """
    hit = np.cumsum(weights) >= goal
    i = int(hit.argmax())
    return i if hit[i] else len(hit) - 1


def _seam_uniforms(event_seeds: np.ndarray, slot: int) -> np.ndarray:
    """The sampled routes' row (slot 0), column (1) or cost (2) uniform, per event seed."""
    return _rng.u01_np(_rng.keys1_np(_rng.stream_bases_np(event_seeds, _rng.SALT_PICK), slot))


def _hetero_pick(rates, event_seeds, prices):
    """The heterogeneous pricer: pick(e) -> (client slot, provider slot) of clearing e.

    It picks a row by the running row sums of the rates, a column by that
    row's rates, and writes prices[e], an exponential in the total rate.
    """
    u_rows, u_cols, u_costs = (_seam_uniforms(event_seeds, slot).tolist() for slot in range(3))

    def pick(e: int) -> Tuple[int, int]:
        row_sums = rates.row_sums
        total = math.fsum(row_sums.tolist())
        i = _first_reaching(row_sums, u_rows[e] * total)
        row = rates.row(i)
        j = _first_reaching(row, u_cols[e] * float(row.sum()))
        prices[e] = -math.log(u_costs[e]) / total
        rates.remove(i, j)
        return i, j

    return pick


def _replay(pool_c, pool_p, ids, sides, pos, pick, rates=None):
    """Replay one block on the waiting id lists; returns (client ids, provider ids).

    The block's arrivals join the pools, and the pool rates when given, one
    by one; clearing e fires on arrival pos[e] and swap-removes client slot
    i and provider slot j, where (i, j) = pick(e).
    """
    cids: List[int] = []
    pids: List[int] = []
    fires = iter(pos)
    at = next(fires, -1)
    for now, (agent, is_client) in enumerate(zip(ids, sides)):
        if is_client:
            pool_c.append(agent)
            if rates is not None:
                rates.add_client(agent)
        else:
            pool_p.append(agent)
            if rates is not None:
                rates.add_provider(agent)
        if now == at:
            i, j = pick(len(cids))
            cids.append(pool_c[i])
            pids.append(pool_p[j])
            pool_c[i] = pool_c[-1]
            pool_c.pop()
            pool_p[j] = pool_p[-1]
            pool_p.pop()
            at = next(fires, -1)
    return cids, pids


def _walk(spec, cost_mode, stop, seed, source, collect_costs, collect_records, a_grid, tau_grid):
    """One run over the arrival walk; returns (trace, waiting clients, waiting providers).

    Thresholds never decrease, so clearing a fires at the first arrival whose
    couple count reaches g(a) = a - 1 + f(a) (arrivals.couples), at most one
    per arrival.  Each arrival block is one chunk: a searchsorted of the
    goals g(a) places its clearings, and the waiting integral and the
    running cost accrue by sequential cumsums from the carried totals, in
    arrival order, so every sum keeps the bits of an event-by-event loop.  Between blocks only the counts, the
    clock, the totals and the ids pairing needs are carried: the waiting
    ids where pairing is FIFO, and before the first clearing, so that a
    patient run (f = infinity) returns its whole pools; the pools, and the
    heterogeneous pool rates, where picks are replayed.
    """
    micro = isinstance(cost_mode, RateModel)
    fifo = spec.kind == FCFS or not micro
    hetero = collect_costs and micro and not fifo and cost_mode.mode != CONSTANT
    replay = hetero or (collect_records and not fifo and spec.kind != PATIENT)
    horizon = float(stop.tau_max) if isinstance(stop, Horizon) else None
    target = stop.a_max if isinstance(stop, MatchTarget) else math.inf
    unit = spec.kind in (GREEDY, FCFS)
    src = source if source is not None else PoissonStream(seed)
    rates = costs.PoolRates(cost_mode, seed) if hetero else None

    n = n_c = a = 0
    clock = wait = cum = 0.0
    goal = math.inf if spec.kind == PATIENT else 1 if unit else threshold(spec, 1)
    wait_c = wait_p = np.empty(0, dtype=np.int64)
    pool_c: List[int] = []
    pool_p: List[int] = []
    blocks: List[_Matches] = []
    a_costs: List[float] = []
    tau_waits: List[float] = []
    done = False

    while not done:
        times, sides = src.take_block()
        if not len(times):
            if horizon is None:
                raise RuntimeError("arrival source exhausted before the match target")
            break
        t = np.asarray(times, dtype=np.float64)
        s = np.asarray(sides, dtype=np.int64)
        if horizon is not None and t[-1] > horizon:
            cut = int(np.searchsorted(t, horizon, side="right"))
            t, s = t[:cut], s[:cut]
            done = True
        if not t.size:
            break
        runaway = n + t.size > ARRIVAL_CAP
        if runaway:
            t, s = t[: ARRIVAL_CAP - n], s[: ARRIVAL_CAP - n]
            if not t.size:
                raise _runaway()
        nc, u = couples(s, n_c, n)

        # the goals g(a) of this block's clearings; f(a + 1) is asked for
        # once clearing a has fired, unless a is the target (a table of A
        # rows serves MatchTarget(A))
        if unit:
            goals = np.arange(a + 1, min(int(u[-1]), target) + 1)
        else:
            found = []
            while goal <= u[-1]:
                found.append(goal)
                k = a + len(found) + 1
                goal = k - 1 + threshold(spec, k) if k <= target else math.inf
            goals = np.array(found, dtype=np.int64)
        pos = np.searchsorted(u, goals)
        fired = goals.size
        if a + fired == target:
            done = True
            t, s, nc = t[: pos[-1] + 1], s[: pos[-1] + 1], nc[: pos[-1] + 1]

        # the pools as each clearing fires, and before every arrival
        ks = np.arange(a + 1, a + fired + 1)
        c_at = nc[pos]
        m_c = c_at - (ks - 1)
        m_p = (n + 1 + pos - c_at) - (ks - 1)
        steps = np.arange(t.size)
        before = n + steps - 2 * (a + np.searchsorted(pos, steps))
        waits = np.cumsum(np.concatenate(([wait], before * np.diff(t, prepend=clock))))
        while len(tau_waits) < len(tau_grid) and tau_grid[len(tau_waits)] <= t[-1]:
            tau = tau_grid[len(tau_waits)]
            j = int(np.searchsorted(t, tau))
            since = float(t[j - 1]) if j else clock
            tau_waits.append(float(waits[j]) + int(before[j]) * (tau - since))

        # prices, and the pool slots each clearing takes
        ids = np.arange(n + 1, n + t.size + 1)
        if fifo or a == 0:
            wait_c = np.concatenate((wait_c, ids[s == 1]))
            wait_p = np.concatenate((wait_p, ids[s == 0]))
        prices = np.zeros(fired)
        # unpriced clearings take the youngest waiting agents
        pick = lambda e: (len(pool_c) - 1, len(pool_p) - 1)
        if fired and collect_costs:
            seeds = _rng.event_seeds(seed, ks)
            if not micro:
                short, slot = np.unique(np.minimum(m_c, m_p), return_inverse=True)
                prices = np.array([cost_mode.cost(m, m) for m in short.tolist()])[slot]
            elif fifo:
                prices = costs.pair_cost_at_event(
                    wait_c[:fired], wait_p[:fired], cost_mode, seed, seeds,
                )
            elif hetero:
                pick = _hetero_pick(rates, seeds, prices)
            else:
                prices = -np.log(_seam_uniforms(seeds, 2)) / ((cost_mode.lam_mean * m_c) * m_p)
                if replay:
                    rows = np.minimum((_seam_uniforms(seeds, 0) * m_c).astype(np.int64), m_c - 1)
                    cols = np.minimum((_seam_uniforms(seeds, 1) * m_p).astype(np.int64), m_p - 1)
                    pick = lambda e: (rows[e], cols[e])
                if a == 0 and m_c[0] * m_p[0] <= SEAM_PAIRS:
                    mat = costs.cost_matrix_at_event(
                        wait_c[: m_c[0]], wait_p[: m_p[0]], cost_mode, seed, int(seeds[0]),
                    )
                    i, j = divmod(int(mat.argmin()), int(m_p[0]))
                    prices[0] = mat[i, j]
                    if replay:
                        rows[0], cols[0] = i, j
        if replay:
            cids, pids = (np.array(side, dtype=np.int64) for side in _replay(
                pool_c, pool_p, ids.tolist(), s.tolist(), pos.tolist(), pick, rates,
            ))
        else:
            # copies, so that no column keeps a whole waiting queue alive
            cids, pids = wait_c[:fired].copy(), wait_p[:fired].copy()
        totals = np.cumsum(np.concatenate(([cum], prices)))[1:]
        if collect_records and fired:
            blocks.append(_Matches(
                ks, t[pos], cids, pids, prices, m_c, m_p, totals, waits[pos + 1],
            ))
        while len(a_costs) < len(a_grid) and a_grid[len(a_costs)] <= a + fired:
            a_costs.append(float(totals[a_grid[len(a_costs)] - a - 1]))
        if fifo:
            wait_c, wait_p = wait_c[fired:], wait_p[fired:]
        elif fired:
            wait_c = wait_p = np.empty(0, dtype=np.int64)

        n += t.size
        n_c = int(nc[-1])
        a += fired
        clock = float(t[-1])
        wait = float(waits[-1])
        if fired:
            cum = float(totals[-1])
        if runaway and not done:
            raise _runaway()

    if horizon is not None and clock < horizon:
        r = n - 2 * a
        for tau in tau_grid[len(tau_waits):]:
            if tau <= horizon:
                tau_waits.append(wait + r * (tau - clock))
        wait += r * (horizon - clock)
        clock = horizon
    summary = RunSummary(
        tau=clock, n_c=n_c, n_p=n - n_c, a=a, wait_integral=wait, total_cost=cum,
        seed=seed, schedule=spec.label(), mode=_mode_label(cost_mode),
    )
    trace = RunTrace(
        summary,
        a_grid=a_grid[: len(a_costs)], a_grid_costs=tuple(a_costs),
        tau_grid=tau_grid[: len(tau_waits)], tau_grid_waits=tuple(tau_waits),
        matches=_Matches(*map(np.concatenate, zip(*blocks))) if blocks else None,
    )
    return trace, wait_c, wait_p


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
        trace, waiting_c, waiting_p = _walk(
            spec, cost_mode, stop, run_seed, source, False, collect_records, (), tau_grid,
        )
        pool_c, pool_p = waiting_c.tolist(), waiting_p.tolist()
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
    rows, cols = np.array(sorted(asn.pairs), dtype=np.int64).T
    prices = mat[rows, cols]
    totals = np.cumsum(prices)
    ks = np.arange(1, len(prices) + 1)
    matches = None
    if collect_records:
        matches = _Matches(
            ks, np.full(len(ks), summary.tau), np.array(pool_c)[rows], np.array(pool_p)[cols],
            prices, n_c + 1 - ks, n_p + 1 - ks, totals, np.full(len(ks), summary.wait_integral),
        )
    a_costs = [float(totals[a - 1]) for a in a_grid if a <= len(ks)]
    return replace(
        trace, summary=replace(summary, a=k, total_cost=asn.total),
        a_grid=a_grid[: len(a_costs)], a_grid_costs=tuple(a_costs), matches=matches,
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
