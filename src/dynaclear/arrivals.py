"""Arrival streams of agents, and the stopping-time diagnostics.

Arrivals follow a rate-1 Poisson clock; each arrival is a client or a
provider by a fair coin.  Interarrival gaps and side coins come from separate
sub-streams of the seed, so changing one law never perturbs the other.  A
deterministic tape source replays an explicit (time, side) list for
hand-checkable engine tests.
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
    "stopping_time_sample",
    "stopping_time_samples",
]

CLIENT = "C"
PROVIDER = "P"

ARRIVAL_CAP = 10 ** 9
_BLOCK = 4096


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

    def take_block(self, n: int = _BLOCK) -> Tuple[List[float], List[int]]:
        """Next n arrivals as (times, is_client) lists; never exhausts."""
        idx = np.arange(self._index, self._index + n, dtype=np.uint64)
        gaps = -np.log(_rng.u01_np(_rng.keys1_np(self._gap_base, idx)))
        times = self._time + np.cumsum(gaps)
        # float ties are astronomically rare; nudge to keep times strict
        prev = self._time
        out = times.tolist()
        for i, t in enumerate(out):
            if t <= prev:
                t = math.nextafter(prev, math.inf)
                out[i] = t
            prev = t
        sides = (_rng.keys1_np(self._coin_base, idx) >> np.uint64(63)).tolist()
        self._index += n
        self._time = out[-1]
        return out, sides


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


def stopping_time_sample(k: int, c: int, seed: int) -> int:
    """One sample of t(k, C), counted in arrivals.

    t(k, C) is the arrival count at which, for the k-th time, at least C
    clients and C providers are simultaneously present, one couple being
    removed whenever the condition fires.
    """
    if k < 1 or c < 1:
        raise ValueError("need k >= 1 and C >= 1")
    coin_base = _rng.stream_base(seed, _rng.SALT_COIN)
    n_clients = 0
    n_providers = 0
    fired = 0
    arrivals = 0
    golden = _rng._GOLDEN
    mask = (1 << 64) - 1
    mix = _rng.mix64
    while True:
        hi = arrivals + 2048
        base = coin_base
        for i in range(arrivals, hi):
            if mix((base + i * golden) & mask) >> 63:
                n_clients += 1
            else:
                n_providers += 1
            while n_clients >= c and n_providers >= c:
                n_clients -= 1
                n_providers -= 1
                fired += 1
                if fired == k:
                    return i + 1
        arrivals = hi
        if arrivals >= ARRIVAL_CAP:
            raise RuntimeError(f"no {k}-th firing within {ARRIVAL_CAP} arrivals")


def stopping_time_samples(k: int, c: int, reps: int, base_seed: int) -> np.ndarray:
    """t(k, C) for `reps` derived seeds, in lockstep over the arrival index.

    Equals [stopping_time_sample(k, c, derive(base_seed, r)) for r in range(reps)]
    entry for entry; vectorized because ensemble means at k ~ 10^3 would
    otherwise dominate the validation suite's runtime.
    """
    if reps < 1:
        raise ValueError("need reps >= 1")
    bases = np.array(
        [_rng.stream_base(_rng.derive_seed(base_seed, r), _rng.SALT_COIN) for r in range(reps)],
        dtype=np.uint64,
    )
    n_clients = np.zeros(reps, dtype=np.int64)
    n_providers = np.zeros(reps, dtype=np.int64)
    fired = np.zeros(reps, dtype=np.int64)
    result = np.full(reps, -1, dtype=np.int64)
    active = np.ones(reps, dtype=bool)
    step = 0
    while active.any():
        keys = _rng.mix64_np(bases + np.uint64(step * _rng._GOLDEN & _rng._MASK))
        bits = (keys >> np.uint64(63)).astype(np.int64)
        n_clients += bits * active
        n_providers += (1 - bits) * active
        firing = active & (n_clients >= c) & (n_providers >= c)
        n_clients -= firing
        n_providers -= firing
        fired += firing
        done = firing & (fired == k)
        result[done] = step + 1
        active &= ~done
        step += 1
        if step >= ARRIVAL_CAP:
            raise RuntimeError(f"no {k}-th firing within {ARRIVAL_CAP} arrivals")
    return result
