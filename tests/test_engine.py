"""Event-loop behavior: hand-checkable tapes, exact bookkeeping invariants,
and distributional pins against closed-form laws."""

import dataclasses
import math
import multiprocessing
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.integrate
import scipy.special

from dynaclear import _rng, costs, engine
from dynaclear.arrivals import CLIENT, PROVIDER, PoissonStream, TapeSource
from dynaclear.assignment import min_k_assignment
from dynaclear.costs import RateModel, cost_matrix, draw_pair_cost
from dynaclear.engine import (
    DecayModel,
    Horizon,
    MatchRecord,
    MatchTarget,
    run,
    run_ensemble,
)
from dynaclear.schedules import ScheduleSpec, parse_schedule, threshold

UNIT = RateModel.constant(1.0)
GREEDY = ScheduleSpec("greedy")
FCFS = ScheduleSpec("fcfs")
PATIENT = ScheduleSpec("patient")
POWER = parse_schedule("power:0.5")


def test_single_pair_tape():
    tape = TapeSource([(1.0, CLIENT), (2.0, PROVIDER)])
    trace = run(GREEDY, UNIT, Horizon(5.0), seed=77, source=tape)
    assert trace.summary.a == 1
    assert trace.summary.n_c == 1 and trace.summary.n_p == 1
    rec = trace.records[0]
    assert (rec.k, rec.time, rec.client_id, rec.provider_id) == (1, 2.0, 1, 2)
    assert (rec.m_c, rec.m_p) == (1, 1)
    assert rec.cost == draw_pair_cost(1, 2, UNIT, 77)
    # the client waited alone on [1, 2), then the horizon ran out empty
    assert trace.summary.wait_integral == 1.0


def test_two_clients_one_provider_tape():
    tape = TapeSource([(1.0, CLIENT), (2.0, CLIENT), (3.0, PROVIDER)])
    trace = run(GREEDY, UNIT, Horizon(3.0), seed=41, source=tape)
    rec = trace.records[0]
    assert rec.time == 3.0
    assert (rec.m_c, rec.m_p) == (2, 1)
    assert rec.cost == min(
        draw_pair_cost(1, 3, UNIT, 41), draw_pair_cost(2, 3, UNIT, 41)
    )
    # R walks 1 on [1,2) and 2 on [2,3): integral 3
    assert trace.summary.wait_integral == 3.0
    assert trace.summary.tau == 3.0


def test_fcfs_pairs_by_arrival_not_by_cost():
    tape = TapeSource([(1.0, CLIENT), (2.0, CLIENT), (3.0, PROVIDER)])
    trace = run(FCFS, UNIT, Horizon(3.0), seed=41, source=tape)
    rec = trace.records[0]
    assert (rec.client_id, rec.provider_id) == (1, 3)
    assert rec.cost == draw_pair_cost(1, 3, UNIT, 41)


def test_fcfs_and_greedy_share_the_clearing_times():
    # pairing rules differ, clearing times and pool sizes cannot
    for seed in (5, 6, 7):
        g = run(GREEDY, UNIT, Horizon(300.0), seed=seed)
        f = run(FCFS, UNIT, Horizon(300.0), seed=seed)
        assert [r.time for r in g.records] == [r.time for r in f.records]
        assert g.summary.wait_integral == f.summary.wait_integral
        assert g.summary.total_cost != f.summary.total_cost


def _tape_from_rng(rng, n, span):
    times = np.sort(rng.uniform(0.0, span, size=n))
    times += np.arange(n) * 1e-9  # break ties
    sides = rng.integers(0, 2, size=n)
    return TapeSource(
        [(float(t), CLIENT if s else PROVIDER) for t, s in zip(times, sides)]
    )


def _replay_wait_integral(tape_rows, records, horizon):
    """Pure-python reintegration of R(t) from the tape and the match times."""
    events = []
    for t, _ in tape_rows:
        if t <= horizon:
            events.append((t, 0, 1))  # arrivals first at equal times
    for rec in records:
        events.append((rec.time, 1, -2))
    events.sort()
    total = 0.0
    level = 0
    prev = 0.0
    for t, _, delta in events:
        total += level * (t - prev)
        level += delta
        prev = t
    total += level * (horizon - prev)
    return total


@pytest.mark.parametrize("kind", ["greedy", "fcfs", "power"])
def test_wait_integral_matches_independent_replay(kind):
    spec = (
        ScheduleSpec("power", gamma=0.6)
        if kind == "power"
        else ScheduleSpec(kind)
    )
    rng = np.random.default_rng(1900)
    for trial in range(25):
        n = int(rng.integers(2, 120))
        span = float(rng.uniform(2.0, 40.0))
        rows = _tape_from_rng(rng, n, span)._rows
        horizon = span * 0.9
        trace = run(spec, UNIT, Horizon(horizon), seed=trial, source=TapeSource(rows))
        replayed = _replay_wait_integral(rows, trace.records, horizon)
        assert math.isclose(
            trace.summary.wait_integral, replayed, rel_tol=1e-12, abs_tol=1e-9
        )


@pytest.mark.parametrize(
    "spec",
    [GREEDY, ScheduleSpec("power", gamma=0.6), ScheduleSpec("balanced")],
)
def test_conservation_and_single_fire_invariants(spec):
    for seed in range(8):
        trace = run(spec, UNIT, Horizon(400.0), seed=seed, tau_grid=(400.0,))
        s = trace.summary
        assert s.n_c >= s.a and s.n_p >= s.a
        ks = [r.k for r in trace.records]
        assert ks == list(range(1, s.a + 1))
        times = [r.time for r in trace.records]
        assert times == sorted(times)
        assert all(t <= 400.0 for t in times)
        for rec in trace.records:
            # the short side sits exactly at the threshold when the event
            # fires, which is the "at most one clearing per arrival" claim
            assert min(rec.m_c, rec.m_p) == threshold(spec, rec.k)
        # each record carries the loop's running totals: the cost sum in
        # accumulation order, and a waiting integral that never decreases
        running = 0.0
        for rec in trace.records:
            running += rec.cost
            assert rec.cum_cost == running
        waits = [r.cum_wait for r in trace.records]
        assert waits == sorted(waits)
        assert waits[-1] <= s.wait_integral == trace.wait_at(400.0)
        # a match-target run stops at its last record, so the totals agree
        target = run(spec, UNIT, MatchTarget(max(1, s.a)), seed=seed)
        last = target.records[-1]
        assert last.cum_cost == target.summary.total_cost
        assert last.cum_wait == target.summary.wait_integral


def test_identical_runs_are_identical():
    a = run(GREEDY, UNIT, Horizon(200.0), seed=99)
    b = run(GREEDY, UNIT, Horizon(200.0), seed=99)
    assert a.records == b.records
    assert a.summary == b.summary
    c = run(GREEDY, UNIT, Horizon(200.0), seed=100)
    assert c.summary != a.summary


def test_ensemble_is_deterministic_and_job_count_free():
    kwargs = dict(collect_records=False, tau_grid=(50.0, 100.0))
    serial = run_ensemble(GREEDY, UNIT, Horizon(100.0), 4242, 6, jobs=1, **kwargs)
    forked = run_ensemble(GREEDY, UNIT, Horizon(100.0), 4242, 6, jobs=2, **kwargs)
    assert [t.summary for t in serial] == [t.summary for t in forked]
    assert [t.tau_grid_waits for t in serial] == [t.tau_grid_waits for t in forked]
    seeds = {t.summary.seed for t in serial}
    assert len(seeds) == 6


@pytest.mark.parametrize("schedule", [POWER, PATIENT], ids=["power", "patient"])
def test_ensemble_workers_ship_match_columns(schedule):
    # records cross the pickle to the parent as columns and read back the same
    serial = run_ensemble(schedule, UNIT, MatchTarget(40), 4545, 4, jobs=1)
    forked = run_ensemble(schedule, UNIT, MatchTarget(40), 4545, 4, jobs=2)
    assert [t.records for t in forked] == [t.records for t in serial]
    assert forked == serial
    assert not forked[0].matches != serial[0].matches
    ints = {"k", "client_id", "provider_id", "m_c", "m_p"}
    for trace in forked:
        assert len(trace.records) == 40
        for rec in trace.records:
            for f in dataclasses.fields(MatchRecord):
                assert type(getattr(rec, f.name)) is (int if f.name in ints else float)


def test_ensemble_spawns_where_fork_is_missing(monkeypatch):
    # a platform without fork gets spawned workers and the same traces
    methods = []
    real_get_context = multiprocessing.get_context

    def get_context(method=None):
        methods.append(method)
        return real_get_context(method)

    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn", "forkserver"])
    monkeypatch.setattr(multiprocessing, "get_context", get_context)
    kwargs = dict(collect_records=False, a_grid=(10, 40), tau_grid=(50.0, 100.0))
    serial = run_ensemble(GREEDY, UNIT, MatchTarget(40), 4343, 4, jobs=1, **kwargs)
    spawned = run_ensemble(GREEDY, UNIT, MatchTarget(40), 4343, 4, jobs=2, **kwargs)
    assert methods == ["spawn"]
    assert spawned == serial


def test_match_target_stops_exactly():
    trace = run(GREEDY, UNIT, MatchTarget(250), seed=31)
    assert trace.summary.a == 250
    assert trace.records[-1].k == 250
    assert trace.summary.tau == trace.records[-1].time


def test_match_target_on_short_tape_raises():
    tape = TapeSource([(1.0, CLIENT), (2.0, PROVIDER)])
    with pytest.raises(RuntimeError, match="exhausted"):
        run(GREEDY, UNIT, MatchTarget(2), seed=1, source=tape)


def test_horizon_run_counts_only_arrivals_inside():
    horizon = 123.0
    trace = run(GREEDY, UNIT, Horizon(horizon), seed=17)
    times, _ = PoissonStream(17).take_block(4096)
    inside = sum(1 for t in times if t <= horizon)
    assert trace.summary.n_c + trace.summary.n_p == inside
    assert trace.summary.tau == horizon


def test_exhausted_tapes_raise_on_every_route():
    # a tape holds a matches; a match target past them exhausts it
    tape = [(float(t), CLIENT if t % 3 else PROVIDER) for t in range(1, 13)]
    routes = [
        (GREEDY, UNIT, {}), (FCFS, UNIT, {}), (FCFS, RateModel.uniform_iid(0.5, 2.0), {}),
        (ScheduleSpec("balanced"), UNIT, {}), (GREEDY, DecayModel(delta=3.0), {}),
        (GREEDY, UNIT, {"collect_costs": False}), (GREEDY, RateModel.uniform_iid(0.5, 2.0), {}),
    ]
    for spec, model, kwargs in routes:
        a = run(spec, model, Horizon(20.0), 1, TapeSource(tape), **kwargs).summary.a
        assert a >= 1
        assert run(spec, model, MatchTarget(a), 1, TapeSource(tape), **kwargs).summary.a == a
        with pytest.raises(RuntimeError, match="exhausted"):
            run(spec, model, MatchTarget(a + 1), 1, TapeSource(tape), **kwargs)


@pytest.mark.parametrize("spec", [GREEDY, FCFS, ScheduleSpec("power", gamma=0.5)])
def test_arrival_cap_stops_a_runaway_run(monkeypatch, spec):
    # the cap counts arrivals: a run whose target clearing fires on arrival N
    # passes under a cap of N and fails under N - 1, wherever the cap falls
    # against the 4096-arrival blocks
    s = run(spec, UNIT, MatchTarget(2500), seed=8, collect_records=False).summary
    arrivals = s.n_c + s.n_p
    for cap in (arrivals, arrivals - 1, 4096):
        monkeypatch.setattr(engine, "ARRIVAL_CAP", cap)
        if cap >= arrivals:
            assert run(spec, UNIT, MatchTarget(2500), seed=8, collect_records=False).summary == s
            continue
        with pytest.raises(RuntimeError, match="runaway"):
            run(spec, UNIT, MatchTarget(2500), seed=8, collect_records=False)
        with pytest.raises(RuntimeError, match="runaway"):
            run(spec, UNIT, Horizon(1e5), seed=8, collect_costs=False)


def test_closed_form_runs_raise_no_runtime_warning():
    # numpy integer scalars warn on the 64-bit wraparound the key kernels
    # rely on; every route must keep its key arithmetic on arrays, also at
    # seeds with the top bit set
    routes = [
        (GREEDY, UNIT), (ScheduleSpec("power", gamma=0.0, scale=24.0), UNIT),
        (FCFS, UNIT), (FCFS, RateModel.uniform_iid(0.5, 2.0)),
        (FCFS, RateModel.product_form(0.25, 4.0)), (ScheduleSpec("balanced"), DecayModel(1.5)),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in (0, 2**63 + 12345, 2**64 - 1):
            for spec, model in routes:
                run(spec, model, MatchTarget(5000), seed, a_grid=(1, 5000), tau_grid=(10.0,))
                run(spec, model, Horizon(900.0), seed, collect_costs=False)
            run(PATIENT, UNIT, MatchTarget(30), seed)
            draw_pair_cost(2**63, 2**64 - 1, RateModel.uniform_iid(0.5, 2.0), seed)


def test_closed_form_memory_stays_bounded_in_the_run_length():
    # a run carries its state from block to block, so its peak allocation
    # does not grow with the number of matches
    peaks = []
    for target in (50_000, 400_000):
        tracemalloc.start()
        try:
            run(GREEDY, UNIT, MatchTarget(target), seed=3, collect_records=False)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 2 * peaks[0]


def test_patient_records_cost_no_memory_beyond_the_pools():
    # a patient walk never clears, so collecting its records keeps no column
    # and no waiting queue of an earlier block alive
    peaks = []
    for collect in (False, True):
        tracemalloc.start()
        try:
            trace = run(PATIENT, UNIT, Horizon(240_000.0), seed=5, collect_costs=False,
                        collect_records=collect)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert trace.records == []
    assert peaks[1] < 1.5 * peaks[0]


def test_patient_walk_returns_its_blocks_in_arrival_order():
    # a patient walk never clears, so its pools are every client and every
    # provider of the stream's blocks up to the horizon, in arrival order
    horizon = 960_000.0
    trace, clients, providers = engine.patient_pools(PATIENT, UNIT, Horizon(horizon), seed=3)
    stream = PoissonStream(3)
    blocks = []
    while not blocks or blocks[-1][0][-1] <= horizon:
        blocks.append(stream.take_block())
    sides = np.concatenate([side[times <= horizon] for times, side in blocks])
    ids = np.arange(1, sides.size + 1)
    assert sides.size > 900_000
    assert clients == ids[sides == 1].tolist()
    assert providers == ids[sides == 0].tolist()
    assert (trace.summary.n_c, trace.summary.n_p) == (len(clients), len(providers))


def test_stop_rule_validation():
    with pytest.raises(ValueError):
        Horizon(0.0)
    with pytest.raises(ValueError):
        Horizon(math.inf)
    with pytest.raises(ValueError):
        MatchTarget(0)
    with pytest.raises(TypeError):
        run(GREEDY, UNIT, 100.0, seed=1)
    with pytest.raises(TypeError):
        run(GREEDY, "unit", Horizon(10.0), seed=1)
    with pytest.raises(TypeError):
        run("greedy", UNIT, Horizon(10.0), seed=1)


def test_grid_validation():
    with pytest.raises(ValueError):
        run(GREEDY, UNIT, Horizon(10.0), seed=1, a_grid=(3, 2))
    with pytest.raises(ValueError):
        run(GREEDY, UNIT, Horizon(10.0), seed=1, tau_grid=(0.0, 1.0))


def test_decay_model_validation():
    with pytest.raises(ValueError):
        DecayModel(delta=1.0, scale=1.0)
    with pytest.raises(ValueError):
        DecayModel(delta=3.0, scale=0.0)
    with pytest.raises(ValueError):
        run(PATIENT, DecayModel(delta=3.0, scale=1.0), Horizon(10.0), seed=1)
    with pytest.raises(ValueError):
        run(FCFS, DecayModel(delta=3.0, scale=1.0), Horizon(10.0), seed=1)


def test_decay_costs_are_deterministic_given_the_thresholds():
    spec = ScheduleSpec("power", gamma=0.45)
    decay = DecayModel(delta=3.0, scale=2.0)
    trace = run(spec, decay, MatchTarget(500), seed=8)
    for rec in trace.records:
        assert rec.cost == 2.0 / min(rec.m_c, rec.m_p) ** 3
    expected_total = math.fsum(
        2.0 / threshold(spec, k) ** 3 for k in range(1, 501)
    )
    assert abs(trace.summary.total_cost - expected_total) < 1e-12


def test_a_custom_table_serves_a_match_target_of_its_length():
    # the last clearing needs no threshold past the table
    spec = ScheduleSpec("custom", table=(1, 1, 2, 2, 2, 3, 3, 3, 3, 4))
    trace = run(spec, UNIT, MatchTarget(10), seed=3)
    assert [min(r.m_c, r.m_p) for r in trace.records] == list(spec.table)
    with pytest.raises(ValueError, match="covers k <= 10"):
        run(spec, UNIT, MatchTarget(11), seed=3)


def test_patient_tape_prices_the_full_canonical_assignment():
    rows = [(float(t), CLIENT if t % 2 else PROVIDER) for t in range(1, 7)]
    tape = TapeSource(rows)
    trace = run(PATIENT, UNIT, Horizon(10.0), seed=303, source=tape)
    clients = [i + 1 for i, (_, s) in enumerate(rows) if s == CLIENT]
    providers = [i + 1 for i, (_, s) in enumerate(rows) if s == PROVIDER]
    mat = cost_matrix(clients, providers, UNIT, 303)
    best = min_k_assignment(mat, 3)
    assert trace.summary.a == 3
    assert math.isclose(trace.summary.total_cost, best.total, rel_tol=1e-12)
    assert all(rec.time == 10.0 for rec in trace.records)
    # matched pairs come from the same optimal assignment
    got = {(r.client_id, r.provider_id) for r in trace.records}
    want = {(clients[i], providers[j]) for i, j in best.pairs}
    assert got == want


def test_patient_match_target_reaches_the_target():
    trace = run(PATIENT, UNIT, MatchTarget(40), seed=55)
    assert trace.summary.a == 40
    assert len(trace.records) == 40
    assert trace.summary.retries == 0
    assert trace.summary.n_c >= 40 and trace.summary.n_p >= 40


def test_patient_match_target_retries_thin_seeds():
    # some seed in a modest range must hit a one-sided market and retry
    retried = None
    for seed in range(300):
        trace = run(PATIENT, UNIT, MatchTarget(5), seed=seed, collect_records=False)
        assert trace.summary.a == 5
        if trace.summary.retries > 0:
            retried = trace
            break
    assert retried is not None
    assert retried.summary.total_cost > 0.0


def test_patient_counts_only_mode_skips_the_assignment():
    trace = run(PATIENT, UNIT, Horizon(50.0), seed=4, collect_costs=False, tau_grid=(50.0,))
    assert trace.summary.a == 0
    assert trace.summary.total_cost == 0.0
    assert trace.summary.wait_integral > 0.0
    assert trace.summary.tau == 50.0
    assert trace.wait_at(50.0) == trace.summary.wait_integral


def test_patient_entry_cap_guides_to_counts_only():
    # about 2000 x 2000 waiting pairs at the horizon, over the 2.5e6 cap
    with pytest.raises(ValueError, match="collect_costs"):
        run(PATIENT, UNIT, Horizon(4000.0), seed=4)
    # the waiting-only path has no matrix to build, so the same run succeeds
    run(PATIENT, UNIT, Horizon(4000.0), seed=4, collect_costs=False)


def test_patient_tape_with_match_target_does_not_retry():
    tape = TapeSource([(1.0, CLIENT), (2.0, CLIENT), (3.0, PROVIDER)])
    with pytest.raises(RuntimeError):
        run(PATIENT, UNIT, MatchTarget(2), seed=1, source=tape)


def test_wait_at_reads_the_captured_grid():
    tape = TapeSource([(1.0, CLIENT), (3.0, CLIENT), (5.0, PROVIDER)])
    trace = run(GREEDY, UNIT, Horizon(6.0), seed=2, source=tape, tau_grid=(2.0, 4.0, 5.0))
    # R = 1 on [1,3), so W(2) = 1; R = 2 on [3,5), so W(4) = 2 + 2
    assert trace.wait_at(0.0) == 0.0
    assert trace.wait_at(2.0) == 1.0
    assert trace.wait_at(4.0) == 4.0
    assert trace.wait_at(5.0) == 6.0
    assert trace.records[0].cum_wait == 6.0
    # only captured points can be read: off the grid, or past the horizon
    for tau in (3.0, 7.0):
        with pytest.raises(LookupError):
            trace.wait_at(tau)


def test_grid_captures_agree_with_record_accounting():
    trace = run(
        GREEDY,
        UNIT,
        MatchTarget(120),
        seed=12321,
        a_grid=(10, 60, 120),
        tau_grid=(20.0, 80.0),
    )
    assert trace.a_grid == (10, 60, 120)
    for a, captured in zip(trace.a_grid, trace.a_grid_costs):
        assert captured == trace.records[a - 1].cum_cost
        assert trace.cost_at_match(a) == captured
    assert trace.tau_grid == (20.0, 80.0)
    for tau, captured in zip(trace.tau_grid, trace.tau_grid_waits):
        assert trace.wait_at(tau) == captured
        # W is monotone, so the capture sits between the matches around tau
        before = [r.cum_wait for r in trace.records if r.time <= tau]
        after = [r.cum_wait for r in trace.records if r.time > tau]
        assert before[-1] <= captured <= after[0]
    for a in (11, 121):
        with pytest.raises(LookupError):
            trace.cost_at_match(a)



def test_counts_only_runs_report_zero_cost():
    trace = run(GREEDY, UNIT, MatchTarget(50), seed=3, collect_costs=False)
    assert trace.summary.total_cost == 0.0
    assert all(r.cost == 0.0 for r in trace.records)
    assert trace.summary.a == 50
    with_costs = run(GREEDY, UNIT, MatchTarget(50), seed=3)
    assert trace.summary.wait_integral == with_costs.summary.wait_integral
    assert [r.time for r in trace.records] == [r.time for r in with_costs.records]


def _skellam_mean_wait(horizon):
    # E|pool gap|(s) for a rate-1 fair-sides stream is s e^{-s}(I0(s)+I1(s));
    # integrating it over [0, horizon] gives the expected waiting integral of
    # any threshold-1 schedule.
    def integrand(s):
        return s * (scipy.special.ive(0, s) + scipy.special.ive(1, s))

    value, _ = scipy.integrate.quad(integrand, 0.0, horizon, limit=200)
    return value


def test_greedy_wait_matches_the_count_difference_law():
    horizon, reps = 100.0, 400
    traces = run_ensemble(
        GREEDY,
        UNIT,
        Horizon(horizon),
        base_seed=606,
        reps=reps,
        collect_costs=False,
        collect_records=False,
        tau_grid=(horizon,),
    )
    waits = np.array([t.tau_grid_waits[0] for t in traces])
    se = waits.std(ddof=1) / math.sqrt(reps)
    assert abs(waits.mean() - _skellam_mean_wait(horizon)) <= 3.0 * se


def test_greedy_first_match_cost_is_exponential_in_the_pair_count():
    # cost * m_c * m_p has mean 1 whatever state the event fires from,
    # which pins the materialized-minimum path at unit rates
    reps = 2000
    prods = []
    for r in range(reps):
        trace = run(GREEDY, UNIT, MatchTarget(3), seed=_rng.derive_seed(50_000, r))
        for rec in trace.records:
            prods.append(rec.cost * rec.m_c * rec.m_p)
    arr = np.array(prods)
    se = arr.std(ddof=1) / math.sqrt(arr.size)
    assert abs(arr.mean() - 1.0) <= 3.0 * se


def test_sampled_route_cost_law_above_the_seam():
    # f(1) = 24 forces the first event to fire with 24 on the short side and
    # at least 24 on the long side: 576+ pairs, beyond the materialization
    # seam, so this exercises the factorized sampler's cost law end to end
    spec = ScheduleSpec("power", gamma=0.0, scale=24.0)
    reps = 1500
    prods = []
    for r in range(reps):
        trace = run(spec, UNIT, MatchTarget(1), seed=_rng.derive_seed(60_000, r))
        rec = trace.records[0]
        assert min(rec.m_c, rec.m_p) == 24
        assert rec.m_c * rec.m_p > 256
        prods.append(rec.cost * rec.m_c * rec.m_p)
    arr = np.array(prods)
    se = arr.std(ddof=1) / math.sqrt(arr.size)
    assert abs(arr.mean() - 1.0) <= 3.0 * se


def test_constant_rate_later_events_pick_a_uniform_pair():
    # client 1 and provider 2 clear at once; clients 3 and 4 then wait for
    # provider 5, and the second event must take either client with
    # probability 1/2
    rows = [(1.0, CLIENT), (2.0, PROVIDER), (3.0, CLIENT), (4.0, CLIENT), (5.0, PROVIDER)]
    reps = 4000
    picks = np.empty(reps)
    for r in range(reps):
        seed = _rng.derive_seed(90_000, r)
        rec = run(GREEDY, UNIT, Horizon(6.0), seed=seed, source=TapeSource(rows)).records[1]
        assert (rec.m_c, rec.m_p, rec.provider_id) == (2, 1, 5)
        picks[r] = rec.client_id == 3
    assert abs(picks.mean() - 0.5) <= 3.0 * math.sqrt(0.25 / reps)


def _first_event_cost_times_total_rate(spec, model, seed_base, reps):
    # with non-constant rates the event minimum is exponential in the summed
    # rate of all present pairs; reconstruct the pools from the stream to get it
    normalized = []
    for r in range(reps):
        seed = _rng.derive_seed(seed_base, r)
        trace = run(spec, model, MatchTarget(1), seed=seed)
        rec = trace.records[0]
        times, sides = PoissonStream(seed).take_block(4096)
        clients, providers = [], []
        for i, (t, is_client) in enumerate(zip(times, sides), start=1):
            if t > rec.time:
                break
            (clients if is_client else providers).append(i)
        assert len(clients) == rec.m_c and len(providers) == rec.m_p
        total_rate = costs.rate_matrix(clients, providers, model, seed).sum()
        normalized.append(rec.cost * total_rate)
    return np.array(normalized)


HETERO_MODELS = pytest.mark.parametrize(
    "model",
    [RateModel.uniform_iid(0.5, 2.0), RateModel.product_form(0.25, 4.0)],
    ids=["uniform", "product"],
)


def test_sampled_route_heterogeneous_cost_law():
    # f(1) = 18 makes the first event clear a pool of 324+ pairs
    spec = ScheduleSpec("power", gamma=0.0, scale=18.0)
    arr = _first_event_cost_times_total_rate(spec, RateModel.uniform_iid(0.5, 2.0), 70_000, 1200)
    se = arr.std(ddof=1) / math.sqrt(arr.size)
    assert abs(arr.mean() - 1.0) <= 3.0 * se


@HETERO_MODELS
def test_row_sum_route_cost_law_on_small_pools(model):
    # greedy's first event clears a 1 x m pool, on the same row-sum route
    arr = _first_event_cost_times_total_rate(GREEDY, model, 71_000, 2000)
    se = arr.std(ddof=1) / math.sqrt(arr.size)
    assert abs(arr.mean() - 1.0) <= 3.0 * se


@HETERO_MODELS
def test_row_sum_route_picks_each_pair_by_its_rate(model):
    # providers 1 and 2 wait and client 3 arrives: the exponential-minimum
    # law picks provider 1 with probability p = lambda_31 / (lambda_31 +
    # lambda_32).  The pick minus p has mean 0, and so has its product with
    # p - 1/2, which a pick blind to the rates (mean 1/2 by symmetry) fails
    rows = [(1.0, PROVIDER), (2.0, PROVIDER), (3.0, CLIENT)]
    reps = 4000
    centered = np.empty(reps)
    p = np.empty(reps)
    for r in range(reps):
        seed = _rng.derive_seed(72_000, r)
        rec = run(GREEDY, model, Horizon(4.0), seed=seed, source=TapeSource(rows)).records[0]
        lam = [costs.rate_of(3, j, model, seed) for j in (1, 2)]
        p[r] = lam[0] / (lam[0] + lam[1])
        centered[r] = (rec.provider_id == 1) - p[r]
    for stat in (centered, centered * (p - 0.5)):
        se = stat.std(ddof=1) / math.sqrt(reps)
        assert abs(stat.mean()) <= 3.0 * se


def _count_calls(monkeypatch, *names):
    """Count the calls the engine makes to each named costs function or class."""
    calls = {name: 0 for name in names}
    for name in names:
        real = getattr(costs, name)

        def counting(*args, _name=name, _real=real, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(costs, name, counting)
    return calls


def test_fcfs_never_prices_rate_rows(monkeypatch):
    # FIFO pairing prices each match as one scalar draw, so the
    # heterogeneous pool state would be dead weight on every arrival; a
    # row-sum run builds it once
    calls = _count_calls(monkeypatch, "rate_matrix", "PoolRates")
    model = RateModel.uniform_iid(0.5, 2.0)
    run(FCFS, model, MatchTarget(300), seed=5)
    assert calls == {"rate_matrix": 0, "PoolRates": 0}
    run(ScheduleSpec("power", gamma=0.5), model, MatchTarget(300), seed=5)
    run(ScheduleSpec("power", gamma=0.5), model, MatchTarget(300), seed=6)
    assert calls == {"rate_matrix": 0, "PoolRates": 2}


def test_only_a_small_first_constant_rate_event_builds_a_matrix(monkeypatch):
    # at constant rate the first event prices its pool matrix when it holds
    # at most SEAM_PAIRS pairs and every later event samples the minimum;
    # heterogeneous rates take the row-sum route at every pool size
    calls = _count_calls(monkeypatch, "cost_matrix_at_event")
    run(GREEDY, UNIT, MatchTarget(300), seed=5)
    run(GREEDY, UNIT, MatchTarget(300), seed=6)
    assert calls == {"cost_matrix_at_event": 2}
    # f(1) = 24 puts the first event's 576+ pairs past SEAM_PAIRS
    run(ScheduleSpec("power", gamma=0.0, scale=24.0), UNIT, MatchTarget(300), seed=5)
    assert calls == {"cost_matrix_at_event": 2}
    calls = _count_calls(monkeypatch, "cost_matrix_at_event", "rate_matrix")
    run(ScheduleSpec("power", gamma=0.5), RateModel.uniform_iid(0.5, 2.0), MatchTarget(300), seed=5)
    assert calls == {"cost_matrix_at_event": 0, "rate_matrix": 0}


def test_greedy_dominates_patient_in_expectation_on_fixed_tapes():
    # 2 clients then 2 providers: greedy pays E[min of 2] + E[single] = 3/2,
    # the patient assignment pays 1 + 1/4
    rows = [(1.0, CLIENT), (2.0, CLIENT), (3.0, PROVIDER), (4.0, PROVIDER)]
    reps = 4000
    greedy_totals = np.empty(reps)
    patient_totals = np.empty(reps)
    for r in range(reps):
        seed = _rng.derive_seed(80_000, r)
        greedy_totals[r] = run(
            GREEDY, UNIT, Horizon(5.0), seed=seed, source=TapeSource(rows)
        ).summary.total_cost
        patient_totals[r] = run(
            PATIENT, UNIT, Horizon(5.0), seed=seed, source=TapeSource(rows)
        ).summary.total_cost
    g_mean, p_mean = greedy_totals.mean(), patient_totals.mean()
    g_se = greedy_totals.std(ddof=1) / math.sqrt(reps)
    p_se = patient_totals.std(ddof=1) / math.sqrt(reps)
    assert abs(g_mean - 1.5) <= 3.0 * g_se
    assert abs(p_mean - 1.25) <= 3.0 * p_se
    diff_se = math.sqrt(g_se**2 + p_se**2)
    assert g_mean - p_mean >= 3.0 * diff_se


def test_greedy_equals_patient_exactly_on_single_match_tapes():
    # one pair only: both schedules price the same canonical draw
    rng = np.random.default_rng(606)
    for trial in range(100):
        t0, gap = rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0)
        rows = [(t0, CLIENT), (t0 + gap, PROVIDER)]
        seed = int(rng.integers(0, 2**32))
        g = run(GREEDY, UNIT, Horizon(t0 + gap + 1.0), seed=seed, source=TapeSource(rows))
        p = run(PATIENT, UNIT, Horizon(t0 + gap + 1.0), seed=seed, source=TapeSource(rows))
        assert g.summary.total_cost == p.summary.total_cost


def test_patient_small_market_matches_the_series_mean():
    # condition rate-1 arrivals on exactly 5 per side inside the horizon and
    # the patient total must average the 5-term series 1.46361
    target_each = 5
    horizon = 10.0
    totals = []
    seed_cursor = 0
    while len(totals) < 3000 and seed_cursor < 400_000:
        seed = _rng.derive_seed(90_100, seed_cursor)
        seed_cursor += 1
        times, sides = PoissonStream(seed).take_block(128)
        n_c = n_p = 0
        for t, is_client in zip(times, sides):
            if t > horizon:
                break
            if is_client:
                n_c += 1
            else:
                n_p += 1
        if n_c != target_each or n_p != target_each:
            continue
        trace = run(PATIENT, UNIT, Horizon(horizon), seed=seed)
        assert trace.summary.a == target_each
        totals.append(trace.summary.total_cost)
    arr = np.array(totals)
    assert arr.size >= 3000
    se = arr.std(ddof=1) / math.sqrt(arr.size)
    assert abs(arr.mean() - 1.46361) <= 3.0 * se
