"""Arrival streams of agents, the arrival walk and the stopping-time diagnostics.

Arrivals follow a rate-1 Poisson clock; each arrival is a client or a
provider by a fair coin.  Interarrival gaps and side coins come from separate
sub-streams of the seed, so changing one law never perturbs the other.  The
side coins drive the arrival walk (couples), which places every clearing of a
threshold schedule and every stopping time.  A deterministic tape source
replays an explicit (time, side) list for hand-checkable engine tests.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np

from . import _rng

__all__ = [
    "CLIENT",
    "PROVIDER",
    "PoissonStream",
    "TapeSource",
    "couples",
    "stopping_time_samples",
]

CLIENT = "C"
PROVIDER = "P"

ARRIVAL_CAP = 10 ** 9
_BLOCK = 4096
_PASS = 1 << 18


class PoissonStream:
    """Rate-1 Poisson arrival stream with fair sides, deterministic in seed.

    Arrival k (counted from 0) draws its gap and its side from key k of the
    seed's SALT_GAP and SALT_COIN sub-streams; each take_block call draws the
    next block afresh and keeps only the index and the clock.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self._gap_base = _rng.stream_base(seed, _rng.SALT_GAP)
        self._coin_base = _rng.stream_base(seed, _rng.SALT_COIN)
        self._index = 0
        self._time = 0.0

    def take_block(self, n: int = _BLOCK) -> Tuple[np.ndarray, np.ndarray]:
        """Next n arrivals as (times, is_client) arrays; never exhausts."""
        idx = np.arange(self._index, self._index + n, dtype=np.uint64)
        gaps = -np.log(_rng.u01_np(_rng.keys1_np(self._gap_base, idx)))
        times = self._time + np.cumsum(gaps)
        if not (np.diff(times, prepend=self._time) > 0.0).all():
            times = np.array(_nudged(times.tolist(), self._time))
        sides = (_rng.keys1_np(self._coin_base, idx) >> np.uint64(63)).view(np.int64)
        self._index += n
        self._time = float(times[-1])
        return times, sides


def _nudged(times: List[float], prev: float) -> List[float]:
    """times made strictly increasing from prev, each tie moved one ulp up.

    float ties are astronomically rare; take_block runs this only on a
    block that holds one.
    """
    for i, t in enumerate(times):
        if t <= prev:
            t = math.nextafter(prev, math.inf)
            times[i] = t
        prev = t
    return times


class TapeSource:
    """Deterministic arrival source replaying an explicit (time, side) list."""

    def __init__(self, rows: Sequence[Tuple[float, str]]):
        prev = -math.inf
        for t, side in rows:
            if side not in (CLIENT, PROVIDER):
                raise ValueError(f"tape side must be C or P, got {side!r}")
            if not t > prev:
                raise ValueError("tape times must be strictly increasing")
            prev = t
        self._rows = [(float(t), side) for t, side in rows]
        self._pos = 0

    def take_block(self, n: int = _BLOCK) -> Tuple[List[float], List[int]]:
        chunk = self._rows[self._pos : self._pos + n]
        self._pos += len(chunk)
        times = [t for t, _ in chunk]
        sides = [1 if s == CLIENT else 0 for _, s in chunk]
        return times, sides


def couples(sides, clients, arrivals: int):
    """The arrival walk over a block of side bits, along the last axis.

    From `clients` clients among the `arrivals` arrivals before the block,
    returns the running client count and the couple count U_i = (i - |S_i|)/2,
    the smaller of the client and provider counts, after each arrival i of the
    block.  Under a non-decreasing threshold f, the a-th clearing fires at the
    first arrival whose couple count reaches a - 1 + f(a): both sides then hold
    f(a) agents besides the a - 1 couples already matched.
    """
    clients = clients + np.cumsum(sides, axis=-1)
    seen = arrivals + np.arange(1, sides.shape[-1] + 1)
    return clients, np.minimum(clients, seen - clients)


def stopping_time_samples(k: int, c: int, reps: int, base_seed: int) -> np.ndarray:
    """t(k, C), counted in arrivals, for `reps` derived seeds.

    t(k, C) is the arrival count at which, for the k-th time, at least C
    clients and C providers are simultaneously present, one couple being
    removed whenever the condition fires: the k-th clearing of the walk with
    f = C, at the first arrival whose couple count reaches k - 1 + C.
    Replication r reads the coins of PoissonStream(derive_seed(base_seed, r)).
    The walks advance together, a pass of about _PASS keys at a time, because
    ensemble means at k ~ 10^3 would otherwise dominate the validation
    suite's runtime.
    """
    if k < 1 or c < 1:
        raise ValueError("need k >= 1 and C >= 1")
    if reps < 1:
        raise ValueError("need reps >= 1")
    goal = k - 1 + c
    bases = np.array(
        [_rng.stream_base(_rng.derive_seed(base_seed, r), _rng.SALT_COIN) for r in range(reps)],
        dtype=np.uint64,
    )[:, None]
    clients = np.zeros((reps, 1), dtype=np.int64)
    result = np.empty(reps, dtype=np.int64)
    live = np.arange(reps)
    done = 0
    while live.size:
        if done >= ARRIVAL_CAP:
            raise RuntimeError(f"no {k}-th firing within {ARRIVAL_CAP} arrivals")
        idx = np.arange(done, done + max(8, _PASS // live.size), dtype=np.uint64)
        sides = (_rng.keys1_np(bases[live], idx) >> np.uint64(63)).view(np.int64)
        running, u = couples(sides, clients[live], done)
        hit = u[:, -1] >= goal
        result[live[hit]] = done + 1 + (u[hit] < goal).sum(axis=1)
        clients[live] = running[:, -1:]
        live = live[~hit]
        done += idx.size
    return result
