"""Closed forms against independent routes: small exact cases, Monte Carlo,
library cross-checks, and the regime envelopes."""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from dynaclear import oracles
from dynaclear.assignment import min_k_assignment
from dynaclear.schedules import ScheduleSpec


def test_expected_min_assignment_smallest_cases():
    assert oracles.expected_min_k_assignment(1, 1, 1) == 1.0
    # k=1 is the plain minimum of n*m unit exponentials
    assert abs(oracles.expected_min_k_assignment(4, 25, 1) - 0.01) < 1e-15
    # 2x2 full assignment: 1 + 1/4
    assert abs(oracles.expected_min_k_assignment(2, 2, 2) - 1.25) < 1e-15


@given(n=st.integers(1, 40), m=st.integers(1, 40))
def test_expected_min_assignment_k1_is_min_of_all_pairs(n, m):
    value = oracles.expected_min_k_assignment(n, m, 1)
    assert math.isclose(value, 1.0 / (n * m), rel_tol=1e-12)


@given(n=st.integers(2, 30), m=st.integers(2, 30))
def test_expected_min_assignment_grows_with_k(n, m):
    values = [
        oracles.expected_min_k_assignment(n, m, k) for k in range(1, min(n, m) + 1)
    ]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_expected_min_assignment_range_checks():
    with pytest.raises(ValueError):
        oracles.expected_min_k_assignment(0, 3, 1)
    with pytest.raises(ValueError):
        oracles.expected_min_k_assignment(3, 3, 4)
    with pytest.raises(ValueError):
        oracles.expected_min_k_assignment(3, 3, 0)


def test_rectangular_prefix_against_monte_carlo():
    rng = np.random.default_rng(515)
    reps = 20_000
    totals = np.array(
        [min_k_assignment(rng.exponential(size=(4, 3)), 2).total for _ in range(reps)]
    )
    se = totals.std(ddof=1) / math.sqrt(reps)
    expected = oracles.expected_min_k_assignment(4, 3, 2)
    assert abs(totals.mean() - expected) <= 3.0 * se


def test_patient_cost_equals_square_formula():
    for a in (1, 2, 5, 37, 200):
        series = oracles.patient_cost_equal_sided(a)
        square = oracles.expected_min_k_assignment(a, a, a)
        assert abs(series - square) < 1e-12
    assert abs(oracles.patient_cost_equal_sided(5) - 1.46361) < 5e-6
    with pytest.raises(ValueError):
        oracles.patient_cost_equal_sided(0)


def test_patient_cost_series_stays_below_its_limit():
    basel = math.pi ** 2 / 6.0
    prev = 0.0
    for a in range(1, 2000):
        cur = oracles.patient_cost_equal_sided(a)
        assert prev < cur < basel
        prev = cur


def test_greedy_expected_wait():
    assert oracles.greedy_expected_wait(0.0) == 0.0
    assert oracles.greedy_expected_wait(4.0) == (2.0 / 3.0) * 8.0
    with pytest.raises(ValueError):
        oracles.greedy_expected_wait(-1.0)


def test_expected_abs_walk_small_values():
    assert oracles.expected_abs_walk(0) == 0.0
    assert oracles.expected_abs_walk(1) == 1.0
    assert oracles.expected_abs_walk(2) == 1.0
    assert oracles.expected_abs_walk(3) == 1.5
    assert oracles.expected_abs_walk(4) == 1.5
    with pytest.raises(ValueError):
        oracles.expected_abs_walk(-1)


@given(k=st.integers(1, 599))
def test_expected_abs_walk_odd_equals_next_even(k):
    odd = 2 * (k // 2) + 1
    assert oracles.expected_abs_walk(odd) == oracles.expected_abs_walk(odd + 1)


def test_expected_abs_walk_lgamma_seam():
    # first value past the exact-arithmetic cutoff, recomputed exactly here
    exact = float(Fraction(602 * math.comb(602, 301), 2 ** 602))
    assert math.isclose(oracles.expected_abs_walk(602), exact, rel_tol=1e-9)


def test_expected_abs_walk_asymptotic_constant():
    k = 10**6
    ratio = oracles.expected_abs_walk(k) / math.sqrt(k)
    assert abs(ratio - math.sqrt(2.0 / math.pi)) < 1e-3


def test_zeta_known_values():
    assert abs(oracles.zeta(2.0) - math.pi ** 2 / 6.0) < 1e-10
    assert abs(oracles.zeta(4.0) - math.pi ** 4 / 90.0) < 1e-10
    with pytest.raises(ValueError):
        oracles.zeta(1.0)


@pytest.mark.parametrize("s", [1.2, 1.35, 1.5, 2.5, 3.0])
def test_zeta_against_scipy(s):
    assert math.isclose(oracles.zeta(s), float(scipy.special.zeta(s)), rel_tol=1e-9)


def test_alpha_bounds_fixed_points():
    unit = dict(lam_under=1.0, lam_over=1.0, lam_mean=1.0)
    patient = oracles.alpha_bounds(ScheduleSpec("patient"), 100, **unit)
    assert (patient.lower, patient.upper) == (1.0, 1.0)

    fcfs = oracles.alpha_bounds(ScheduleSpec("fcfs"), 100, **unit)
    assert math.isclose(fcfs.lower, 600.0 / math.pi ** 2, rel_tol=1e-12)
    assert fcfs.lower == fcfs.upper

    greedy = oracles.alpha_bounds(ScheduleSpec("greedy"), 100, **unit)
    assert math.isclose(greedy.lower, 12.0 / math.pi ** 2, rel_tol=1e-12)
    assert greedy.upper == math.inf


def test_alpha_bounds_subcritical_scales_as_stated():
    unit = dict(lam_under=1.0, lam_over=1.0, lam_mean=1.0)
    spec = ScheduleSpec("power", gamma=0.25)
    at_100 = oracles.alpha_bounds(spec, 100, **unit)
    at_10000 = oracles.alpha_bounds(spec, 10_000, **unit)
    # lower scales like A^(1/2 - gamma), upper like A^(1 - 2 gamma)
    assert math.isclose(at_10000.lower / at_100.lower, 100.0 ** 0.25, rel_tol=1e-12)
    assert math.isclose(at_10000.upper / at_100.upper, 100.0 ** 0.5, rel_tol=1e-12)


def test_alpha_bounds_critical_and_supercritical():
    unit = dict(lam_under=1.0, lam_over=1.0, lam_mean=1.0)
    critical = oracles.alpha_bounds(ScheduleSpec("power", gamma=0.5), 1000, **unit)
    log_a = math.log(1000.0)
    assert math.isclose(critical.lower, 2.0 * log_a / math.pi ** 2, rel_tol=1e-12)
    assert math.isclose(critical.upper, (1.0 + log_a) / math.log(2.0), rel_tol=1e-12)

    sup = oracles.alpha_bounds(ScheduleSpec("power", gamma=0.75), 1000, **unit)
    assert sup.lower == 1.0
    assert math.isclose(sup.upper, oracles.zeta(1.5) / math.log(2.0), rel_tol=1e-9)
    assert sup.regime == "supercritical"


def test_alpha_bounds_rejects_unsupported_cases():
    unit = dict(lam_under=1.0, lam_over=1.0, lam_mean=1.0)
    with pytest.raises(ValueError):
        oracles.alpha_bounds(ScheduleSpec("balanced"), 100, **unit)
    with pytest.raises(ValueError):
        oracles.alpha_bounds(ScheduleSpec("greedy"), 1, **unit)
    with pytest.raises(ValueError):
        oracles.alpha_bounds(ScheduleSpec("greedy"), 100, 0.0, 1.0, 1.0)


def test_beta_order_by_regime():
    assert oracles.beta_order(ScheduleSpec("greedy")).exact_value == 1.0
    assert oracles.beta_order(ScheduleSpec("fcfs")).exponent == 0.0
    assert oracles.beta_order(ScheduleSpec("power", gamma=0.3)).label == "bounded"
    order = oracles.beta_order(ScheduleSpec("power", gamma=0.75))
    assert math.isclose(order.exponent, 0.25)
    assert oracles.beta_order(ScheduleSpec("patient")).exponent == 0.5
    with pytest.raises(ValueError):
        oracles.beta_order(ScheduleSpec("balanced"))


def test_free_lunch_window_cases():
    window = oracles.free_lunch_window(3.0)
    assert not window.empty
    assert math.isclose(window.lower, 1.0 / 3.0)
    assert window.upper == 0.5
    assert window.lower < 0.4 <= window.upper
    assert not 0.6 <= window.upper

    assert oracles.free_lunch_window(2.0).empty
    assert oracles.free_lunch_window(1.5).empty
    with pytest.raises(ValueError):
        oracles.free_lunch_window(1.0)


@given(delta=st.floats(1.001, 10.0))
def test_free_lunch_window_opens_exactly_above_two(delta):
    window = oracles.free_lunch_window(delta)
    assert window.empty == (delta <= 2.0)
    if not window.empty:
        assert 0.0 < window.lower < window.upper <= 0.5


def test_two_each_expectation_exact_and_by_simulation():
    assert abs(oracles.expected_arrivals_two_each() - 5.5) < 1e-12
    rng = np.random.default_rng(2244)
    reps, width = 100_000, 64
    flips = rng.integers(0, 2, size=(reps, width))
    heads = flips.cumsum(axis=1)
    tails = np.arange(1, width + 1) - heads
    done = (heads >= 2) & (tails >= 2)
    assert done[:, -1].all()
    counts = done.argmax(axis=1) + 1
    se = counts.std(ddof=1) / math.sqrt(reps)
    assert abs(counts.mean() - 5.5) <= 3.0 * se
