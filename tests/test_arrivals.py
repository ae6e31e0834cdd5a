"""Arrival stream, tape source, the walk lemma and the stopping-time diagnostics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynaclear import _rng, arrivals, oracles
from dynaclear.arrivals import (
    CLIENT,
    PROVIDER,
    PoissonStream,
    TapeSource,
    stopping_time_samples,
)
from dynaclear.costs import RateModel
from dynaclear.engine import Horizon, MatchTarget, run
from dynaclear.schedules import ScheduleSpec


def _drain(stream, n):
    times, sides = [], []
    while len(times) < n:
        t, s = stream.take_block(n - len(times))
        times.extend(t)
        sides.extend(s)
    return times[:n], sides[:n]


def test_same_seed_same_stream():
    a = _drain(PoissonStream(12), 5000)
    b = _drain(PoissonStream(12), 5000)
    assert a == b


def test_block_and_agent_views_agree():
    # the engine names each agent by its 1-based position in the block view;
    # a greedy match fires on the arrival of the younger partner
    times, sides = _drain(PoissonStream(7), 300)
    trace = run(ScheduleSpec("greedy"), RateModel.constant(1.0), Horizon(times[-1]), 7)
    assert trace.summary.n_c + trace.summary.n_p == 300
    for rec in trace.records:
        assert sides[rec.client_id - 1] == 1 and sides[rec.provider_id - 1] == 0
        assert rec.time == times[max(rec.client_id, rec.provider_id) - 1]


def test_times_strictly_increase():
    times, _ = _drain(PoissonStream(3), 100_000)
    assert all(t1 > t0 for t0, t1 in zip(times, times[1:]))
    assert times[0] > 0.0


def _loop_nudged(times, prev):
    # the strict-increase pass every block used to run
    out = list(times)
    for i, t in enumerate(out):
        if t <= prev:
            t = math.nextafter(prev, math.inf)
            out[i] = t
        prev = t
    return out


def test_tied_times_are_nudged_as_the_loop_did(monkeypatch):
    # every third gap uniform is 1, so every third gap is 0 and its arrival
    # ties the one before; the first block also ties the clock origin
    real_u01 = _rng.u01_np

    def tying(h):
        u = real_u01(h)
        u[::3] = 1.0
        return u

    nudges = []
    real_nudged = arrivals._nudged

    def counting(times, prev):
        nudges.append(len(times))
        return real_nudged(times, prev)

    monkeypatch.setattr(arrivals, "_nudged", counting)
    PoissonStream(41).take_block(500)
    assert nudges == []
    monkeypatch.setattr(_rng, "u01_np", tying)
    stream = PoissonStream(41)
    prev = 0.0
    for start in (0, 500):
        idx = np.arange(start, start + 500, dtype=np.uint64)
        raw = prev + np.cumsum(-np.log(tying(_rng.keys1_np(stream._gap_base, idx))))
        times, _ = stream.take_block(500)
        want = _loop_nudged(raw.tolist(), prev)
        assert times.tolist() == want
        assert all(t1 > t0 for t0, t1 in zip([prev] + want, want))
        prev = want[-1]
    assert nudges == [500, 500]


def test_interarrival_mean_and_side_fraction():
    times, sides = _drain(PoissonStream(2024), 100_000)
    assert abs(times[-1] / len(times) - 1.0) <= 0.01
    assert abs(sum(sides) / len(sides) - 0.5) <= 0.005


def test_tape_source_replays_rows():
    tape = TapeSource([(1.0, CLIENT), (2.5, PROVIDER), (4.0, CLIENT)])
    times, sides = tape.take_block()
    assert times == [1.0, 2.5, 4.0]
    assert sides == [1, 0, 1]
    assert tape.take_block() == ([], [])


def test_tape_source_validation():
    with pytest.raises(ValueError):
        TapeSource([(1.0, "Q")])
    with pytest.raises(ValueError):
        TapeSource([(2.0, CLIENT), (2.0, PROVIDER)])
    with pytest.raises(ValueError):
        TapeSource([(2.0, CLIENT), (1.0, PROVIDER)])


@pytest.mark.parametrize("k", [4, 16, 64, 256])
def test_walk_mean_matches_exact_value(k):
    # |S_k| is the client/provider imbalance after the first k arrivals of
    # the market's own stream, one stream per derived replication seed
    seed, reps = 5150 + k, 10_000
    abs_s = np.empty(reps)
    for r in range(reps):
        _, sides = PoissonStream(_rng.derive_seed(seed, r)).take_block(k)
        abs_s[r] = abs(2 * sum(sides) - k)
    mean = abs_s.mean()
    stderr = abs_s.std(ddof=1) / math.sqrt(reps)
    assert abs(mean - oracles.expected_abs_walk(k)) <= 3.0 * stderr
    root = math.sqrt(k)
    assert 0.67 * root <= mean <= 1.23 * root


def _counted_stopping_time(k, c, seed):
    """t(k, C) by counting one arrival at a time on seed's coin stream."""
    coin_base = _rng.stream_base(seed, _rng.SALT_COIN)
    clients = providers = fired = arrived = 0
    while True:
        if _rng.key1(coin_base, arrived) >> 63:
            clients += 1
        else:
            providers += 1
        arrived += 1
        while clients >= c and providers >= c:
            clients -= 1
            providers -= 1
            fired += 1
            if fired == k:
                return arrived


@given(seed=st.integers(0, 2**62))
@settings(max_examples=200)
def test_first_firing_needs_one_of_each(seed):
    assert (stopping_time_samples(1, 1, 4, seed) >= 2).all()


@given(seed=st.integers(0, 2**62), k=st.integers(1, 4), c=st.integers(1, 3))
@settings(max_examples=60)
def test_firing_consumes_two_arrivals_each(seed, k, c):
    # the k-th firing needs 2C agents for the first plus 2 per later firing
    assert (stopping_time_samples(k, c, 4, seed) >= 2 * c + 2 * (k - 1)).all()


def test_vectorized_stopping_times_match_scalar_path(monkeypatch):
    cases = [(1, 1), (3, 2), (5, 1), (2, 3), (40, 4)]
    counted = {
        (k, c): [_counted_stopping_time(k, c, _rng.derive_seed(600 + k * 10 + c, r)) for r in range(8)]
        for k, c in cases
    }
    # 64 keys per pass makes every walk span several passes of 8 arrivals
    for keys_per_pass in (arrivals._PASS, 64):
        monkeypatch.setattr(arrivals, "_PASS", keys_per_pass)
        for k, c in cases:
            assert stopping_time_samples(k, c, 8, 600 + k * 10 + c).tolist() == counted[k, c]


def test_stopping_time_is_the_engine_walk_at_a_flat_threshold():
    # f = C is the power schedule with gamma 0 and scale C: its k-th
    # clearing fires on arrival t(k, C) of the replication's own stream
    for k, c in [(1, 1), (7, 3), (300, 2)]:
        spec = ScheduleSpec("power", gamma=0.0, scale=float(c))
        samples = stopping_time_samples(k, c, 5, 900 + k)
        for r, sample in enumerate(samples.tolist()):
            trace = run(
                spec, RateModel.constant(1.0), MatchTarget(k), _rng.derive_seed(900 + k, r),
                collect_costs=False, collect_records=False,
            )
            assert trace.summary.n_c + trace.summary.n_p == sample


def test_stopping_time_validation():
    with pytest.raises(ValueError):
        stopping_time_samples(0, 1, 5, 5)
    with pytest.raises(ValueError):
        stopping_time_samples(1, 0, 5, 5)
    with pytest.raises(ValueError):
        stopping_time_samples(1, 1, 0, 5)


@pytest.mark.parametrize("k", [10, 100, 1000])
def test_mean_stopping_time_below_five_k(k):
    samples = stopping_time_samples(k, 1, 10_000, 777 + k)
    mean = samples.mean()
    se = samples.std(ddof=1) / math.sqrt(samples.size)
    assert mean + 3.0 * se < 5.0 * k


def test_stopping_time_decomposition_is_an_upper_bound():
    # Splitting t(k, C) at the first firing and restarting fresh overstates
    # the mean: the restarted process forfeits the richer side's overshoot.
    # So t(1, C) + t(k-1, 1) dominates t(k, C) in expectation, and at desk
    # scale the two stay within a couple of percent of each other.
    reps = 10_000
    whole = stopping_time_samples(50, 10, reps, 1201)
    head = stopping_time_samples(1, 10, reps, 1202)
    rest = stopping_time_samples(49, 1, reps, 1203)
    se = math.sqrt(
        whole.var(ddof=1) / reps + head.var(ddof=1) / reps + rest.var(ddof=1) / reps
    )
    gap = head.mean() + rest.mean() - whole.mean()
    assert gap >= -3.0 * se
    assert gap <= 0.05 * whole.mean()


def test_small_stopping_time_means_exactly():
    # E t(1,1) = 3: first arrival free, then a fair-coin geometric wait.
    # E t(2,1) = 5.5: after the first firing the leftover side is empty half
    # the time (cost 3) and occupied half the time (cost 2).  The 0.5 deficit
    # against 2 * 3 is the overshoot head start in its smallest case.
    reps = 200_000
    one = stopping_time_samples(1, 1, reps, 9)
    two = stopping_time_samples(2, 1, reps, 10)
    se_one = one.std(ddof=1) / math.sqrt(reps)
    se_two = two.std(ddof=1) / math.sqrt(reps)
    assert abs(one.mean() - 3.0) <= 3.0 * se_one
    assert abs(two.mean() - 5.5) <= 3.0 * se_two
