"""Pair-rate and cost-draw laws: determinism, bounds, and sample statistics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynaclear.costs import (
    PoolRates,
    RateModel,
    cost_matrix,
    cost_matrix_at_event,
    draw_pair_cost,
    pair_cost_at_event,
    rate_matrix,
    rate_of,
)

agent_ids = st.integers(min_value=1, max_value=10**9)
seeds = st.integers(min_value=0, max_value=2**62)

MODELS = [
    RateModel.constant(1.0),
    RateModel.constant(2.5),
    RateModel.uniform_iid(0.5, 2.0),
    RateModel.product_form(0.5, 2.0),
]


def test_constant_rate_is_the_mean():
    model = RateModel.constant(1.0)
    assert rate_of(3, 7, model, 42) == 1.0
    assert rate_of(999, 1, model, 0) == 1.0


def test_rate_model_validation():
    with pytest.raises(ValueError):
        RateModel.uniform_iid(2.0, 1.0)
    with pytest.raises(ValueError):
        RateModel.uniform_iid(0.0, 1.0)
    with pytest.raises(ValueError):
        RateModel("constant", 1.0, 2.0, 1.5)
    with pytest.raises(ValueError):
        RateModel("bogus", 1.0, 2.0, 1.5)
    with pytest.raises(ValueError):
        RateModel("uniform_iid", 1.0, 2.0, 3.0)


@given(c=agent_ids, p=agent_ids, seed=seeds, model=st.sampled_from(MODELS))
def test_rate_and_cost_are_pure_functions(c, p, seed, model):
    assert rate_of(c, p, model, seed) == rate_of(c, p, model, seed)
    assert draw_pair_cost(c, p, model, seed) == draw_pair_cost(c, p, model, seed)


@given(c=agent_ids, p=agent_ids, seed=seeds, model=st.sampled_from(MODELS))
def test_rates_stay_inside_declared_bounds(c, p, seed, model):
    lam = rate_of(c, p, model, seed)
    assert model.lam_under <= lam <= model.lam_over


@given(c=agent_ids, p=agent_ids, seed=seeds, model=st.sampled_from(MODELS))
def test_costs_are_positive(c, p, seed, model):
    assert draw_pair_cost(c, p, model, seed) > 0.0


def _distinct_pair_grid(n_rows=320, n_cols=320):
    clients = np.arange(1, n_rows + 1, dtype=np.uint64)
    providers = np.arange(10**6, 10**6 + n_cols, dtype=np.uint64)
    return clients, providers


def test_uniform_rate_sample_mean():
    clients, providers = _distinct_pair_grid()
    rates = rate_matrix(clients, providers, RateModel.uniform_iid(0.5, 2.0), 2024)
    assert abs(rates.mean() - 1.25) <= 0.01


def test_unit_rate_cost_sample_mean():
    clients, providers = _distinct_pair_grid()
    draws = cost_matrix(clients, providers, RateModel.constant(1.0), 2024)
    assert abs(draws.mean() - 1.0) <= 0.02


def test_double_rate_cost_sample_mean():
    clients, providers = _distinct_pair_grid()
    draws = cost_matrix(clients, providers, RateModel.constant(2.0), 2024)
    assert abs(draws.mean() - 0.5) <= 0.01


def test_rate_scaling_matches_unit_rate_law():
    # Exp(lam) must look like Exp(1)/lam: compare first two sample moments.
    clients, providers = _distinct_pair_grid()
    unit = cost_matrix(clients, providers, RateModel.constant(1.0), 31)
    scaled = cost_matrix(clients, providers, RateModel.constant(4.0), 32) * 4.0
    n = unit.size
    se_mean = math.sqrt(2.0 / n)  # var of exp(1) is 1, two independent samples
    assert abs(unit.mean() - scaled.mean()) <= 3.0 * se_mean
    se_var = math.sqrt(2.0 * 8.0 / n)  # var of exp(1)^2 moments, generous
    assert abs(unit.var() - scaled.var()) <= 3.0 * se_var


def test_unit_cost_draws_pass_kolmogorov_smirnov():
    clients, providers = _distinct_pair_grid()
    draws = np.sort(cost_matrix(clients, providers, RateModel.constant(1.0), 99).ravel())
    n = draws.size
    cdf = 1.0 - np.exp(-draws)
    grid = np.arange(1, n + 1) / n
    dist = max(np.abs(cdf - grid).max(), np.abs(cdf - (grid - 1.0 / n)).max())
    assert dist < 0.01


def test_matrix_draws_equal_scalar_draws():
    # 2400 pairs per model: math.log and np.log disagree in the last bit on
    # about 0.3 % of uniforms, so a few pairs would not catch a mixed pairing
    clients = list(range(1, 61))
    providers = list(range(1000, 1040))
    for model in MODELS:
        mat = cost_matrix(clients, providers, model, 123)
        for i, c in enumerate(clients):
            for j, p in enumerate(providers):
                assert mat[i, j] == draw_pair_cost(c, p, model, 123), (model, c, p)


def test_event_seed_equal_to_run_seed_reproduces_base_draws():
    model = RateModel.uniform_iid(0.5, 2.0)
    assert pair_cost_at_event(3, 8, model, 55, 55) == draw_pair_cost(3, 8, model, 55)
    mat = cost_matrix_at_event([1, 2], [3, 4], model, 55, 55)
    np.testing.assert_array_equal(mat, cost_matrix([1, 2], [3, 4], model, 55))


def test_event_draws_are_fresh_but_keep_the_rate():
    model = RateModel.uniform_iid(0.5, 2.0)
    first = pair_cost_at_event(3, 8, model, 55, 55)
    second = pair_cost_at_event(3, 8, model, 55, 56)
    assert first != second
    # both draws price the same structural rate, so their ratio is the
    # ratio of the underlying uniforms, never a rate change
    lam = rate_of(3, 8, model, 55)
    assert math.exp(-first * lam) <= 1.0 and math.exp(-second * lam) <= 1.0


def _replay_pool_rates(model, seed, rng, steps):
    """Random arrivals and matches on a PoolRates and on a reference that
    keeps the row sums from rate_matrix (np.append of the new row's sum, +=
    the new column, -= the matched column, then the swap-remove); yields
    (state, clients, providers, reference row sums) after every step."""
    state = PoolRates(model, seed)
    pool_c, pool_p = [], []
    ref = np.empty(0)
    for step in range(steps):
        # grow for a while, then mostly match, so a side runs empty
        p_match = 0.15 if step < steps // 2 else 0.75
        agent = step + 1
        if pool_c and pool_p and rng.random() < p_match:
            i = int(rng.integers(len(pool_c)))
            j = int(rng.integers(len(pool_p)))
            ref -= rate_matrix(pool_c, [pool_p[j]], model, seed)[:, 0]
            ref[i] = ref[-1]
            ref = ref[:-1]
            state.remove(i, j)
            pool_c[i] = pool_c[-1]
            pool_c.pop()
            pool_p[j] = pool_p[-1]
            pool_p.pop()
        elif rng.random() < 0.5:
            s = rate_matrix([agent], pool_p, model, seed).sum() if pool_p else 0.0
            ref = np.append(ref, s)
            state.add_client(agent)
            pool_c.append(agent)
        else:
            if pool_c:
                ref += rate_matrix(pool_c, [agent], model, seed)[:, 0]
            state.add_provider(agent)
            pool_p.append(agent)
        yield state, pool_c, pool_p, ref


@pytest.mark.parametrize(
    "model", [RateModel.uniform_iid(0.5, 2.0), RateModel.product_form(0.25, 4.0)]
)
def test_pool_rates_match_rate_matrix_bit_for_bit(model):
    # the engine's heterogeneous route reads rows, columns and row sums from
    # the pool state; each must equal what rate_matrix gives on the pools
    rng = np.random.default_rng(4242)
    peak = 0
    emptied = False
    for step, (state, pool_c, pool_p, ref) in enumerate(
        _replay_pool_rates(model, 9001, rng, 900)
    ):
        assert (state.m_c, state.m_p) == (len(pool_c), len(pool_p))
        assert state.row_sums.tobytes() == ref.tobytes(), step
        peak = max(peak, len(pool_c), len(pool_p))
        emptied |= step > 450 and not (pool_c and pool_p)
        if step % 3 or not (pool_c and pool_p):
            continue
        mat = rate_matrix(pool_c, pool_p, model, 9001)
        for i in range(len(pool_c)):
            assert state.row(i).tobytes() == mat[i].tobytes(), (step, i)
        for j in range(len(pool_p)):
            assert state.col(j).tobytes() == mat[:, j].tobytes(), (step, j)
    assert peak > 64 and emptied
