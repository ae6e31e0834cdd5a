"""Match-cost rates and reproducible exponential cost draws.

A rate model assigns every client-provider pair a rate lambda_ij inside
[lam_under, lam_over]; the realized match cost of the pair is an exponential
draw with that rate.  Both quantities are pure functions of
(client_id, provider_id, model, run_seed), so queries are order-independent
and repeatable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _rng

__all__ = [
    "RateModel",
    "rate_of",
    "draw_pair_cost",
    "rate_matrix",
    "cost_matrix",
    "pair_cost_at_event",
    "cost_matrix_at_event",
    "PoolRates",
]

CONSTANT = "constant"
UNIFORM_IID = "uniform_iid"
PRODUCT_FORM = "product_form"

_MODES = (CONSTANT, UNIFORM_IID, PRODUCT_FORM)


@dataclass(frozen=True)
class RateModel:
    """Law of the pair rates lambda_ij.

    mode
        "constant": every pair has rate lam_mean.
        "uniform_iid": rates i.i.d. uniform on [lam_under, lam_over].
        "product_form": one bounded factor per agent, drawn uniformly on
        [sqrt(lam_under), sqrt(lam_over)] at agent creation;
        lambda_ij = clamp(factor_i * factor_j, lam_under, lam_over).
    """

    mode: str
    lam_under: float
    lam_over: float
    lam_mean: float

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(f"unknown rate mode {self.mode!r}")
        if not (self.lam_under > 0.0 and math.isfinite(self.lam_under)):
            raise ValueError("lam_under must be positive and finite")
        if self.lam_under > self.lam_over:
            raise ValueError("lam_under must not exceed lam_over")
        if not (self.lam_under <= self.lam_mean <= self.lam_over):
            raise ValueError("lam_mean must lie in [lam_under, lam_over]")
        if self.mode == CONSTANT and not (
            self.lam_under == self.lam_mean == self.lam_over
        ):
            raise ValueError("constant mode requires lam_under = lam_mean = lam_over")

    @classmethod
    def constant(cls, lam: float) -> "RateModel":
        return cls(CONSTANT, lam, lam, lam)

    @classmethod
    def uniform_iid(cls, lam_under: float, lam_over: float) -> "RateModel":
        return cls(UNIFORM_IID, lam_under, lam_over, 0.5 * (lam_under + lam_over))

    @classmethod
    def product_form(cls, lam_under: float, lam_over: float) -> "RateModel":
        if lam_under <= 0.0:
            raise ValueError("lam_under must be positive")
        mean_factor = 0.5 * (math.sqrt(lam_under) + math.sqrt(lam_over))
        return cls(PRODUCT_FORM, lam_under, lam_over, mean_factor * mean_factor)


def _factor(agent_id: int, salt: int, model: RateModel, run_seed: int) -> float:
    lo = math.sqrt(model.lam_under)
    hi = math.sqrt(model.lam_over)
    u = _rng.u01(_rng.key1(_rng.stream_base(run_seed, salt), agent_id))
    return lo + (hi - lo) * u


def rate_of(client_id, provider_id, model: RateModel, run_seed: int):
    """Rate lambda_ij of each pair, inside [lam_under, lam_over].

    Elementwise over broadcastable id arrays; plain ids give one float.
    """
    shape = np.broadcast_shapes(np.shape(client_id), np.shape(provider_id))
    client_ids, provider_ids = _keys(client_id), _keys(provider_id)
    if model.mode == CONSTANT:
        return np.full(shape, model.lam_mean)[()]
    if model.mode == UNIFORM_IID:
        base = _rng.stream_base(run_seed, _rng.SALT_RATE)
        keys = _rng.keys2_np(base, client_ids, provider_ids)
        rates = model.lam_under + (model.lam_over - model.lam_under) * _rng.u01_np(keys)
    else:
        fc = _factors_np(client_ids, _rng.SALT_FACTOR_CLIENT, model, run_seed)
        fp = _factors_np(provider_ids, _rng.SALT_FACTOR_PROVIDER, model, run_seed)
        rates = np.clip(fc * fp, model.lam_under, model.lam_over)
    return rates.reshape(shape)[()]


def _keys(values) -> np.ndarray:
    """Ids or seeds as a uint64 array of at least one dimension.

    Key arithmetic on 0-d arrays would fall through to numpy scalars, which
    warn on the intended 64-bit wraparound.
    """
    if isinstance(values, int):
        values &= _rng._MASK
    return np.atleast_1d(np.asarray(values, dtype=np.uint64))


def draw_pair_cost(
    client_id: int, provider_id: int, model: RateModel, run_seed: int
) -> float:
    """Realized match cost w_ij, an exponential with rate rate_of(...)."""
    return float(pair_cost_at_event(client_id, provider_id, model, run_seed, run_seed))


def _factors_np(ids: np.ndarray, salt: int, model: RateModel, run_seed: int) -> np.ndarray:
    lo = math.sqrt(model.lam_under)
    hi = math.sqrt(model.lam_over)
    u = _rng.u01_np(_rng.keys1_np(_rng.stream_base(run_seed, salt), ids))
    return lo + (hi - lo) * u


def rate_matrix(
    client_ids: np.ndarray, provider_ids: np.ndarray, model: RateModel, run_seed: int
) -> np.ndarray:
    """Rates for the cartesian product, shape (len(clients), len(providers))."""
    client_ids = np.asarray(client_ids, dtype=np.uint64)
    provider_ids = np.asarray(provider_ids, dtype=np.uint64)
    shape = (client_ids.size, provider_ids.size)
    if model.mode == CONSTANT:
        return np.full(shape, model.lam_mean)
    if model.mode == UNIFORM_IID:
        base = _rng.stream_base(run_seed, _rng.SALT_RATE)
        u = _rng.u01_np(_rng.keys2_outer_np(base, client_ids, provider_ids))
        return model.lam_under + (model.lam_over - model.lam_under) * u
    fc = _factors_np(client_ids, _rng.SALT_FACTOR_CLIENT, model, run_seed)
    fp = _factors_np(provider_ids, _rng.SALT_FACTOR_PROVIDER, model, run_seed)
    return np.clip(np.outer(fc, fp), model.lam_under, model.lam_over)


def cost_matrix(
    client_ids: np.ndarray, provider_ids: np.ndarray, model: RateModel, run_seed: int
) -> np.ndarray:
    """Cost draws for the cartesian product; equals draw_pair_cost entrywise."""
    return cost_matrix_at_event(client_ids, provider_ids, model, run_seed, run_seed)


def pair_cost_at_event(client_id, provider_id, model: RateModel, run_seed: int, event_seed):
    """Cost draw keyed by a clearing-event seed, at the run's structural rate.

    Elementwise over broadcastable arrays of ids and event seeds, so a FIFO
    run prices its k-th client and k-th provider at event k in one call;
    plain arguments give one float.  With event_seed == run_seed this is
    exactly draw_pair_cost; later events pass their own seeds so minima
    taken at distinct events stay independent.  Each draw equals
    cost_matrix_at_event's entry for the pair bit for bit.
    """
    shape = np.broadcast_shapes(np.shape(client_id), np.shape(provider_id), np.shape(event_seed))
    client_ids, provider_ids = _keys(client_id), _keys(provider_id)
    base = _rng.stream_bases_np(_keys(event_seed), _rng.SALT_COST)
    keys = _rng.keys2_np(base, client_ids, provider_ids)
    costs = -np.log(_rng.u01_np(keys)) / rate_of(client_ids, provider_ids, model, run_seed)
    return costs.reshape(shape)[()]


def cost_matrix_at_event(
    client_ids: np.ndarray,
    provider_ids: np.ndarray,
    model: RateModel,
    run_seed: int,
    event_seed: int,
) -> np.ndarray:
    """Matrix analogue of pair_cost_at_event."""
    client_ids = np.asarray(client_ids, dtype=np.uint64)
    provider_ids = np.asarray(provider_ids, dtype=np.uint64)
    base = _rng.stream_base(event_seed, _rng.SALT_COST)
    u = _rng.u01_np(_rng.keys2_outer_np(base, client_ids, provider_ids))
    return -np.log(u) / rate_matrix(client_ids, provider_ids, model, run_seed)


class PoolRates:
    """Pair rates of a heterogeneous run's pools, with the running row sums.

    Client slot i and provider slot j stand for the engine's pool_c[i] and
    pool_p[j]; remove() swap-removes both like the engine's replay.  Each
    agent's term is computed once, on arrival: under uniform_iid a client's
    row key key1(rate base, id) and a provider's id * INDEX2 (the pair key
    mixes their sum), under product_form its factor.  So row(i) and col(j)
    are one vector op each, equal bit for bit to rate_matrix on the pools.
    row_sums[i] is client i's total rate to the present providers: the new
    row's sum on a client arrival, plus the new column on a provider
    arrival, minus the matched provider's column at a match.
    """

    def __init__(self, model: RateModel, run_seed: int) -> None:
        self._model = model
        self._seed = run_seed
        self._uniform = model.mode == UNIFORM_IID
        self._base = _rng.stream_base(run_seed, _rng.SALT_RATE)
        dtype = np.uint64 if self._uniform else np.float64
        self._c = np.empty(64, dtype)
        self._p = np.empty(64, dtype)
        self._sums = np.empty(64)
        self.m_c = self.m_p = 0

    @property
    def row_sums(self) -> np.ndarray:
        return self._sums[: self.m_c]

    def _rates(self, a, b) -> np.ndarray:
        model = self._model
        if self._uniform:
            u = _rng.u01_np(_rng.mix64_np(a + b))
            return model.lam_under + (model.lam_over - model.lam_under) * u
        return np.clip(a * b, model.lam_under, model.lam_over)

    def row(self, i: int) -> np.ndarray:
        return self._rates(self._c[i], self._p[: self.m_p])

    def col(self, j: int) -> np.ndarray:
        return self._rates(self._c[: self.m_c], self._p[j])

    def add_client(self, cid: int) -> None:
        m = self.m_c
        if m == self._c.size:
            self._c, self._sums = np.resize(self._c, 2 * m), np.resize(self._sums, 2 * m)
        if self._uniform:
            self._c[m] = _rng.key1(self._base, cid)
        else:
            self._c[m] = _factor(cid, _rng.SALT_FACTOR_CLIENT, self._model, self._seed)
        self._sums[m] = self.row(m).sum() if self.m_p else 0.0
        self.m_c = m + 1

    def add_provider(self, pid: int) -> None:
        m = self.m_p
        if m == self._p.size:
            self._p = np.resize(self._p, 2 * m)
        if self._uniform:
            self._p[m] = (pid * _rng._INDEX2) & _rng._MASK
        else:
            self._p[m] = _factor(pid, _rng.SALT_FACTOR_PROVIDER, self._model, self._seed)
        self.m_p = m + 1
        if self.m_c:
            self._sums[: self.m_c] += self.col(m)

    def remove(self, i: int, j: int) -> None:
        """Drop client slot i and provider slot j; the last slot of each takes its place."""
        self._sums[: self.m_c] -= self.col(j)
        self.m_c -= 1
        self.m_p -= 1
        self._sums[i] = self._sums[self.m_c]
        self._c[i] = self._c[self.m_c]
        self._p[j] = self._p[self.m_p]
