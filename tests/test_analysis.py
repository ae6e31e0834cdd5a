"""Ratio estimators, growth fits, and the empirical patient denominator."""

import csv
import json
import math
import multiprocessing
import random

import numpy as np
import pytest
import scipy.integrate
import scipy.special

from dynaclear import _rng, oracles
from dynaclear.analysis import (
    LOG_LOG,
    SEMILOG_X,
    AnalyticEqualSided,
    CoverageError,
    EmpiricalPatient,
    RatioEstimate,
    empirical_patient_denominator,
    fit_growth,
    matching_ratio,
    waiting_ratio,
    write_fits_json,
    write_ratio_csv,
)
from dynaclear.arrivals import CLIENT, PROVIDER, TapeSource
from dynaclear.costs import RateModel
from dynaclear.engine import Horizon, MatchTarget, run, run_ensemble
from dynaclear.schedules import ScheduleSpec

UNIT = RateModel.constant(1.0)
GREEDY = ScheduleSpec("greedy")
FCFS = ScheduleSpec("fcfs")
PATIENT = ScheduleSpec("patient")


def test_analytic_denominator_is_the_partial_series():
    den = AnalyticEqualSided()
    assert den.tag == "analytic"
    assert den.value(5) == oracles.patient_cost_equal_sided(5)


def test_empirical_denominator_lookup():
    den = EmpiricalPatient(means=((10, 1.5), (100, 1.6)))
    assert den.tag == "empirical"
    assert den.value(100) == 1.6
    with pytest.raises(CoverageError):
        den.value(50)


def _equal_sided_tape(n):
    rows = [(float(i), CLIENT) for i in range(1, n + 1)]
    rows += [(float(n + i), PROVIDER) for i in range(1, n + 1)]
    return TapeSource(rows)


def test_patient_matching_ratio_centers_on_one():
    # patient totals on an equal-sided market are optimal assignments of an
    # i.i.d. unit-exponential matrix, so alpha-hat must straddle 1
    n, reps = 6, 2000
    traces = [
        run(
            PATIENT,
            UNIT,
            Horizon(2.0 * n + 1.0),
            seed=_rng.derive_seed(111, r),
            source=_equal_sided_tape(n),
            collect_records=False,
            a_grid=(n,),
        )
        for r in range(reps)
    ]
    (est,) = matching_ratio(traces, (n,))
    assert est.denominator == "analytic"
    assert abs(est.ratio - 1.0) <= 3.0 * est.stderr
    assert 0.0 < est.stderr < 0.02


def test_fcfs_matching_cost_is_one_per_match():
    reps, target = 60, 1000
    traces = run_ensemble(
        FCFS, UNIT, MatchTarget(target), 222, reps, a_grid=(target,),
        collect_records=False,
    )
    (est,) = matching_ratio(traces, (target,))
    den = oracles.patient_cost_equal_sided(target)
    assert abs(est.ratio * den - target) <= 3.0 * est.stderr * den


def test_zero_cost_traces_give_zero_ratio():
    traces = [
        run(GREEDY, UNIT, MatchTarget(30), seed=s, collect_costs=False, a_grid=(30,))
        for s in (1, 2, 3)
    ]
    (est,) = matching_ratio(traces, (30,))
    assert est.ratio == 0.0 and est.stderr == 0.0


def test_matching_ratio_reports_deficient_replications():
    traces = [run(GREEDY, UNIT, MatchTarget(10), seed=s, a_grid=(10, 50)) for s in (1, 2)]
    with pytest.raises(CoverageError) as err:
        matching_ratio(traces, (10, 50))
    assert err.value.deficient == (0, 1)
    assert "never reach match 50" in str(err.value)


def test_coverage_errors_name_the_missing_capture():
    # the runs went past the point, they just never captured it
    traces = [
        run(GREEDY, UNIT, MatchTarget(30), seed=s, collect_records=False) for s in (1, 2, 3)
    ]
    with pytest.raises(CoverageError) as err:
        matching_ratio(traces, (30,))
    assert err.value.deficient == (0, 1, 2)
    assert "did not capture" in str(err.value) and "a_grid=" in str(err.value)
    assert "never reach" not in str(err.value)
    with pytest.raises(CoverageError) as err:
        waiting_ratio(traces, (10.0,))
    assert "did not capture" in str(err.value) and "tau_grid=" in str(err.value)
    assert "stop before" not in str(err.value)


def test_matching_ratio_validates_grid_and_traces():
    trace = run(GREEDY, UNIT, MatchTarget(10), seed=1)
    with pytest.raises(ValueError):
        matching_ratio([], (10,))
    with pytest.raises(ValueError):
        matching_ratio([trace], (10, 5))
    with pytest.raises(ValueError):
        matching_ratio([trace], (0,))


def test_waiting_ratio_drops_the_origin():
    traces = [run(GREEDY, UNIT, Horizon(20.0), seed=s, tau_grid=(10.0, 20.0)) for s in range(4)]
    grid = (0.0, 10.0, 20.0)
    ests = waiting_ratio(traces, grid)
    assert [e.x for e in ests] == [10.0, 20.0]
    for est in ests:
        assert est.denominator == "analytic"
        assert est.ratio >= 0.0


def test_waiting_ratio_is_pairing_rule_blind():
    grid = (25.0, 50.0)
    greedy = [run(GREEDY, UNIT, Horizon(50.0), seed=s, tau_grid=grid) for s in range(6)]
    fcfs = [run(FCFS, UNIT, Horizon(50.0), seed=s, tau_grid=grid) for s in range(6)]
    assert waiting_ratio(greedy, grid) == waiting_ratio(fcfs, grid)


def test_waiting_ratio_level_matches_the_count_difference_law():
    tau, reps = 50.0, 300
    traces = run_ensemble(
        GREEDY, UNIT, Horizon(tau), 333, reps,
        collect_costs=False, collect_records=False,
        tau_grid=(tau,),
    )
    (est,) = waiting_ratio(traces, (tau,))

    def integrand(s):
        return s * (scipy.special.ive(0, s) + scipy.special.ive(1, s))

    exact_wait, _ = scipy.integrate.quad(integrand, 0.0, tau, limit=200)
    target = exact_wait / oracles.greedy_expected_wait(tau)
    assert abs(est.ratio - target) <= 3.0 * est.stderr


def test_ratio_estimates_ignore_trace_order():
    traces = [run(GREEDY, UNIT, MatchTarget(40), seed=s, a_grid=(10, 40)) for s in range(12)]
    before = matching_ratio(traces, (10, 40))
    shuffled = traces[:]
    random.Random(7).shuffle(shuffled)
    assert matching_ratio(shuffled, (10, 40)) == before


def test_ratio_estimate_validation():
    with pytest.raises(ValueError):
        RatioEstimate(1.0, -0.1, 0.0, "analytic")
    with pytest.raises(ValueError):
        RatioEstimate(1.0, 0.1, -1.0, "analytic")


def test_empirical_denominator_small_case_matches_series():
    den = empirical_patient_denominator((3,), UNIT, 444, 2000)
    mean = den.value(3)
    # sd of a 3x3 optimal total is below 0.75, so 3 sigma is within 0.05
    assert abs(mean - oracles.patient_cost_equal_sided(3)) <= 0.05


def test_empirical_denominator_agrees_with_analytic_at_scale():
    # the protocol invariant: matched-size patient sampling reproduces the
    # closed form within 5% at A = 50 and 10^4 replications (slowest test
    # in the module suite; the tolerance is the contract, not the 3 sigma)
    den = empirical_patient_denominator((50,), UNIT, 555, 10_000)
    analytic = oracles.patient_cost_equal_sided(50)
    assert abs(den.value(50) / analytic - 1.0) <= 0.05


def test_empirical_denominator_spawns_where_fork_is_missing(monkeypatch):
    # a platform without fork gets spawned workers and the same means
    methods = []
    real_get_context = multiprocessing.get_context

    def get_context(method=None):
        methods.append(method)
        return real_get_context(method)

    model = RateModel.uniform_iid(0.5, 2.0)
    serial = empirical_patient_denominator((3, 8), model, 4545, 6, jobs=1)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn", "forkserver"])
    monkeypatch.setattr(multiprocessing, "get_context", get_context)
    spawned = empirical_patient_denominator((3, 8), model, 4545, 6, jobs=2)
    assert methods == ["spawn"]
    assert spawned == serial


def test_empirical_denominator_validation():
    with pytest.raises(ValueError):
        empirical_patient_denominator((3,), UNIT, 1, 0)
    with pytest.raises(ValueError):
        empirical_patient_denominator((3, 2), UNIT, 1, 10)
    with pytest.raises(TypeError):
        empirical_patient_denominator((3,), "decay", 1, 10)


def test_fit_growth_recovers_a_pure_power_law():
    points = [(x, x**0.5) for x in (10.0, 100.0, 1000.0, 10_000.0)]
    fit = fit_growth(points, LOG_LOG)
    assert math.isclose(fit.slope, 0.5, abs_tol=1e-12)
    assert math.isclose(fit.intercept, 0.0, abs_tol=1e-12)
    assert fit.slope_stderr <= 1e-12
    assert fit.r2 == 1.0


def test_fit_growth_recovers_a_log_line():
    points = [(x, 3.0 * math.log(x) + 2.0) for x in (2.0, 8.0, 64.0, 1024.0, 9999.0)]
    fit = fit_growth(points, SEMILOG_X)
    assert math.isclose(fit.slope, 3.0, abs_tol=1e-9)
    assert math.isclose(fit.intercept, 2.0, abs_tol=1e-9)


def test_fit_growth_flags_scatter():
    rng = np.random.default_rng(11)
    points = [(float(x), float(rng.uniform(1.0, 2.0))) for x in range(1, 30)]
    fit = fit_growth(points, LOG_LOG)
    assert fit.r2 < 0.5
    assert abs(fit.slope) <= 3.0 * fit.slope_stderr + 0.05


def test_fit_growth_validation():
    good = [(1.0, 1.0), (2.0, 2.0), (3.0, 3.0), (4.0, 4.0)]
    with pytest.raises(ValueError):
        fit_growth(good[:3], LOG_LOG)
    with pytest.raises(ValueError):
        fit_growth(good, "cubic")
    with pytest.raises(ValueError):
        fit_growth([(1.0, 1.0), (1.0, 2.0), (3.0, 3.0), (4.0, 4.0)], SEMILOG_X)
    with pytest.raises(ValueError):
        fit_growth([(1.0, 0.0), (2.0, 2.0), (3.0, 3.0), (4.0, 4.0)], LOG_LOG)
    with pytest.raises(ValueError):
        fit_growth([(-1.0, 1.0), (2.0, 2.0), (3.0, 3.0), (4.0, 4.0)], SEMILOG_X)


def test_ratio_csv_round_trip(tmp_path):
    path = tmp_path / "alpha.csv"
    estimates = [
        RatioEstimate(100.0, 1.2345678901234567, 0.01, "analytic"),
        RatioEstimate(1000.0, 2.5, 0.02, "empirical"),
    ]
    write_ratio_csv(str(path), estimates, "cafebabe")
    lines = path.read_text().splitlines()
    assert lines[0] == "# config cafebabe"
    rows = list(csv.DictReader(lines[1:]))
    assert [float(r["x"]) for r in rows] == [100.0, 1000.0]
    # repr round-trip keeps every bit
    assert float(rows[0]["ratio"]) == estimates[0].ratio
    assert rows[1]["denominator"] == "empirical"


def test_fits_json_round_trip(tmp_path):
    path = tmp_path / "fits.json"
    fit = fit_growth([(x, x**2) for x in (1.0, 2.0, 3.0, 4.0)], LOG_LOG)
    write_fits_json(str(path), {"alpha_loglog": fit}, "deadbeef")
    payload = json.loads(path.read_text())
    assert payload["config"] == "deadbeef"
    entry = payload["fits"]["alpha_loglog"]
    assert math.isclose(entry["slope"], 2.0, abs_tol=1e-12)
    assert entry["n_points"] == 4
