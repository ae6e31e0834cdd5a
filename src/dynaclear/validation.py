"""Built-in acceptance suite.

Every criterion runs on pinned seeds with stated statistical tolerances, so
a fresh checkout produces the same pass/fail report on one platform.  Checks
compare simulation output against the closed-form oracles or against exact
hand-computable values; none of them consult wall-clock randomness.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from . import oracles
from .analysis import (
    LOG_LOG,
    SEMILOG_X,
    fit_growth,
    matching_ratio,
    mean_stderr,
    waiting_ratio,
)
from .arrivals import TapeSource, stopping_time_samples
from .assignment import brute_force_k_assignment, min_k_assignment
from .costs import RateModel, draw_pair_cost
from .engine import DecayModel, Horizon, MatchTarget, run, run_ensemble
from .schedules import BALANCED, FCFS, GREEDY, PATIENT, POWER, ScheduleSpec

__all__ = ["CriterionResult", "CRITERIA", "run_criteria"]

_A_GRID = (100, 316, 1000, 3162, 10000)
_TAU_GRID = (1e2, 10 ** 2.5, 1e3, 10 ** 3.5, 1e4)
_BASEL = math.pi ** 2 / 6.0


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float


def _per_rep_slopes(traces, grid, value_fn) -> Tuple[float, float, float]:
    """Mean, standard error, and per-replication sd of single-run loglog slopes."""
    slopes = []
    for trace in traces:
        pts = [(float(x), value_fn(trace, x)) for x in grid]
        slopes.append(fit_growth(pts, LOG_LOG).slope)
    mean, se = mean_stderr(slopes)
    return mean, se, se * math.sqrt(len(slopes))


def _c1_oracle_identity(jobs: int = 1) -> Tuple[bool, str]:
    worst = 0.0
    running = 0.0
    last = 0.0
    monotone = True
    for n in range(1, 201):
        running += 1.0 / n ** 2
        value = oracles.expected_min_k_assignment(n, n, n)
        worst = max(worst, abs(value - running))
        monotone &= value > last and value < _BASEL
        last = value
    v5 = oracles.expected_min_k_assignment(5, 5, 5)
    ok = worst <= 1e-12 and abs(v5 - 1.46361) <= 5e-6 and monotone
    return ok, (
        f"max deviation {worst:.2e} over N<=200; value(5)={v5:.5f}; "
        f"increasing toward {_BASEL:.6f}: {monotone}"
    )


def _c2_solver_exactness(jobs: int = 1) -> Tuple[bool, str]:
    rng = np.random.default_rng(90_2002)
    checked = 0
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        m = int(rng.integers(1, 9))
        mat = rng.standard_exponential((n, m))
        for k in range(1, min(n, m) + 1):
            checked += 1
            fast = min_k_assignment(mat, k).total
            slow = brute_force_k_assignment(mat, k).total
            if fast != slow:
                mismatches += 1
    return mismatches == 0, f"{checked} (matrix, k) cases, {mismatches} mismatches"


def _c3_static_monte_carlo(jobs: int = 1) -> Tuple[bool, str]:
    rng = np.random.default_rng(90_3003)
    reps = 100_000
    mats = rng.standard_exponential((reps, 5, 5))
    totals = np.fromiter(
        (min_k_assignment(mats[i], 5).total for i in range(reps)), np.float64, reps
    )
    mean = float(totals.mean())
    se = float(totals.std(ddof=1)) / math.sqrt(reps)
    target = oracles.expected_min_k_assignment(5, 5, 5)
    ok = abs(mean - target) <= 3.0 * se
    return ok, f"mean {mean:.5f} vs {target:.5f}, |diff| {abs(mean - target):.5f} <= 3se {3 * se:.5f}: {ok}"


def _c4_walk_lemma(jobs: int = 1) -> Tuple[bool, str]:
    counts = {0: 1}
    exact_ok = True
    for k in range(21):
        if k > 0:
            step = {}
            for pos, c in counts.items():
                step[pos - 1] = step.get(pos - 1, 0) + c
                step[pos + 1] = step.get(pos + 1, 0) + c
            counts = step
        enum = Fraction(sum(abs(p) * c for p, c in counts.items()), 2 ** k)
        exact_ok &= oracles.expected_abs_walk(k) == float(enum)
    band_ok = True
    worst_k = 0
    for k in range(1, 10_001):
        ratio = oracles.expected_abs_walk(k) / math.sqrt(k)
        if not 0.67 <= ratio <= 1.23:
            band_ok = False
            worst_k = k
            break
    ok = exact_ok and band_ok
    return ok, (
        f"enumeration match k<=20: {exact_ok}; band [0.67, 1.23]*sqrt(k) up to 1e4: "
        f"{band_ok}" + ("" if band_ok else f" (first breach k={worst_k})")
    )


def _c5_greedy_wait_law(jobs: int = 1) -> Tuple[bool, str]:
    horizon = 1e4
    traces = run_ensemble(
        ScheduleSpec(kind=GREEDY), RateModel.constant(1.0), Horizon(horizon),
        90_5005, 200, jobs=jobs, collect_costs=False, collect_records=False,
    )
    ratios = [t.summary.wait_integral / horizon ** 1.5 for t in traces]
    mean, se = mean_stderr(ratios)
    target = 2.0 / 3.0
    ok = abs(mean - target) <= 0.10 * target
    return ok, (
        f"mean W/T^1.5 = {mean:.4f} (se {se:.4f}); required within 10% of "
        f"{target:.4f}, i.e. [{0.9 * target:.4f}, {1.1 * target:.4f}]"
    )


def _c6_greedy_cost_growth(jobs: int = 1) -> Tuple[bool, str]:
    spec = ScheduleSpec(kind=GREEDY)
    traces = run_ensemble(
        spec, RateModel.constant(1.0), MatchTarget(10_000),
        90_6006, 200, jobs=jobs, collect_records=False, a_grid=_A_GRID,
    )
    ests = matching_ratio(traces, _A_GRID)
    slope = fit_growth([(e.x, e.ratio) for e in ests], LOG_LOG).slope
    floors = [oracles.alpha_bounds(spec, int(e.x), 1.0, 1.0, 1.0).lower for e in ests]
    coef = floors[0] / math.sqrt(ests[0].x)
    floor_ok = all(e.ratio >= floor for e, floor in zip(ests, floors))
    ok = slope >= 0.4 and floor_ok
    return ok, (
        f"loglog slope {slope:.3f} (need >= 0.4); pointwise ratio >= "
        f"{coef:.4f}*sqrt(A): {floor_ok}; ratio(1e4) = {ests[-1].ratio:.1f}"
    )


def _c7_critical_regime(jobs: int = 1) -> Tuple[bool, str]:
    spec = ScheduleSpec(kind=POWER, gamma=0.5)
    traces = run_ensemble(
        spec, RateModel.constant(1.0), MatchTarget(10_000), 90_7007, 200, jobs=jobs,
        collect_records=False, a_grid=_A_GRID,
    )
    ests = matching_ratio(traces, _A_GRID)
    band_ok = True
    worst = ""
    for e in ests:
        log_a = math.log(e.x)
        band = oracles.alpha_bounds(spec, int(e.x), 1.0, 1.0, 1.0)
        v = e.ratio / log_a
        sigma = 3.0 * e.stderr / log_a
        lo = band.lower / log_a - sigma
        hi = band.upper / log_a + sigma
        if not lo <= v <= hi:
            band_ok = False
            worst = f" (A={e.x:g}: {v:.3f} outside [{lo:.3f}, {hi:.3f}])"
            break
    r2 = fit_growth([(e.x, e.ratio) for e in ests], SEMILOG_X).r2
    ok = band_ok and r2 >= 0.95
    return ok, f"ratio/log A inside bands: {band_ok}{worst}; semilog R^2 = {r2:.4f} (need >= 0.95)"


def _c8_supercritical_regime(jobs: int = 1) -> Tuple[bool, str]:
    traces = run_ensemble(
        ScheduleSpec(kind=POWER, gamma=0.75), RateModel.constant(1.0),
        MatchTarget(10_000), 90_8008, 200, jobs=jobs,
        collect_records=False, a_grid=_A_GRID,
    )
    finals = [t.cost_at_match(10_000) for t in traces]
    mean, se = mean_stderr(finals)
    bound = oracles.zeta(1.5)
    level_ok = mean <= bound + 3.0 * se
    # A single run's slope is the random quantity here; its dispersion across
    # replications is the sigma a flatness claim can be resolved against.
    slope_mean, slope_se, slope_sd = _per_rep_slopes(
        traces, _A_GRID, lambda t, a: t.cost_at_match(a)
    )
    slope_ok = abs(slope_mean) <= 3.0 * slope_sd
    ok = level_ok and slope_ok
    return ok, (
        f"cum cost at 1e4 = {mean:.4f} <= zeta(1.5)={bound:.4f} + 3se: {level_ok}; "
        f"loglog slope {slope_mean:.4f} within 3 per-rep sd {3 * slope_sd:.4f} "
        f"of 0 (se of mean {slope_se:.4f}): {slope_ok}"
    )


def _c9_waiting_regimes(jobs: int = 1) -> Tuple[bool, str]:
    cases = [
        ("greedy", ScheduleSpec(kind=GREEDY)),
        ("fcfs", ScheduleSpec(kind=FCFS)),
        ("power-0.75", ScheduleSpec(kind=POWER, gamma=0.75)),
        ("patient", ScheduleSpec(kind=PATIENT)),
    ]
    model = RateModel.constant(1.0)
    parts = []
    ok = True
    for label, spec in cases:
        order = oracles.beta_order(spec)
        traces = run_ensemble(
            spec, model, Horizon(1e4), 90_9009, 200, jobs=jobs,
            collect_costs=False, collect_records=False, tau_grid=_TAU_GRID,
        )
        slope_mean, slope_se, _ = _per_rep_slopes(
            traces, _TAU_GRID,
            lambda t, x: t.wait_at(x) / oracles.greedy_expected_wait(x),
        )
        clause_ok = abs(slope_mean - order.exponent) <= 0.05 + 3.0 * slope_se
        text = f"{label}: slope {slope_mean:.3f} (target {order.exponent})"
        if order.exact_value is not None:
            level = waiting_ratio(traces, (1e4,))[0].ratio
            lo, hi = 0.9 * order.exact_value, 1.1 * order.exact_value
            level_ok = lo <= level <= hi
            clause_ok &= level_ok
            text += f", beta(1e4) = {level:.3f} (need [{lo:g}, {hi:g}])"
        parts.append(text + (" ok" if clause_ok else " FAIL"))
        ok &= clause_ok
    return ok, "; ".join(parts)


def _c10_fcfs_cost(jobs: int = 1) -> Tuple[bool, str]:
    traces = run_ensemble(
        ScheduleSpec(kind=FCFS), RateModel.constant(1.0), MatchTarget(1000),
        91_0010, 100, jobs=jobs, collect_records=False,
    )
    totals = [t.summary.total_cost for t in traces]
    mean, se = mean_stderr(totals)
    ok = abs(mean - 1000.0) <= 3.0 * se
    return ok, f"mean cumulative cost {mean:.2f} vs 1000, 3se = {3 * se:.2f}"


def _c11_balanced_schedule(jobs: int = 1) -> Tuple[bool, str]:
    a_grid = (1000, 10_000, 100_000)
    tau_grid = tuple(1.8 * a for a in a_grid)
    traces = run_ensemble(
        ScheduleSpec(kind=BALANCED), RateModel.constant(1.0), MatchTarget(100_000),
        91_1011, 50, jobs=jobs, collect_records=False,
        a_grid=a_grid, tau_grid=tau_grid,
    )
    alpha = [(e.x, e.ratio) for e in matching_ratio(traces, a_grid)]
    beta = [(e.x, e.ratio) for e in waiting_ratio(traces, tau_grid)]
    parts = []
    ok = True
    for label, series in (("alpha", alpha), ("beta", beta)):
        values = [v for _, v in series]
        trend_ok = values[0] < values[1] < values[2]
        base_x, base_v = series[0]
        envelope_ok = all(
            v <= 2.0 * base_v * (math.log(x) / math.log(base_x)) ** (1.0 / 3.0)
            for x, v in series[1:]
        )
        ok &= trend_ok and envelope_ok
        parts.append(
            f"{label}: {values[0]:.3f} -> {values[1]:.3f} -> {values[2]:.3f}, "
            f"growing {trend_ok}, within 2x cube-root-log envelope {envelope_ok}"
        )
    return ok, "; ".join(parts)


def _c12_free_lunch(jobs: int = 1) -> Tuple[bool, str]:
    log_trace = run(
        ScheduleSpec(kind=POWER, gamma=1.0 / 1.5), DecayModel(delta=1.5),
        MatchTarget(10_000), 91_2012, collect_records=False, a_grid=_A_GRID,
    )
    pts = [(float(a), log_trace.cost_at_match(a)) for a in _A_GRID]
    r2 = fit_growth(pts, SEMILOG_X).r2
    log_ok = r2 >= 0.9

    spec = ScheduleSpec(kind=POWER, gamma=0.45)
    traces = run_ensemble(
        spec, DecayModel(delta=3.0), MatchTarget(10_000), 91_2112, 100, jobs=jobs,
        collect_records=False, a_grid=(10_000,), tau_grid=_TAU_GRID,
    )
    finals = [t.cost_at_match(10_000) for t in traces]
    mean, se = mean_stderr(finals)
    bound = oracles.zeta(0.45 * 3.0)
    level_ok = mean <= bound + 3.0 * se
    slope_mean, slope_se, _ = _per_rep_slopes(
        traces, _TAU_GRID,
        lambda t, x: t.wait_at(x) / oracles.greedy_expected_wait(x),
    )
    target = oracles.beta_order(spec).exponent
    slope_ok = abs(slope_mean - target) <= 0.05 + 3.0 * slope_se
    ok = log_ok and level_ok and slope_ok
    return ok, (
        f"(a) delta=1.5, gamma=2/3: semilog R^2 = {r2:.5f} (need >= 0.9); "
        f"(b) delta=3, gamma=0.45: cum(1e4) = {mean:.4f} <= zeta(1.35) = "
        f"{bound:.4f} + 3se: {level_ok}; beta slope {slope_mean:.3f} ~ 0: {slope_ok}"
    )


def _c13_engine_exactness(jobs: int = 1) -> Tuple[bool, str]:
    model = RateModel.constant(1.0)
    seed = 91_3013

    tape = TapeSource([(1.0, "C"), (2.0, "P")])
    tr = run(ScheduleSpec(kind=GREEDY), model, Horizon(2.0), seed, source=tape)
    rec = tr.records[0]
    first_ok = (
        tr.summary.a == 1
        and rec.time == 2.0
        and tr.summary.wait_integral == 1.0
        and rec.cost == draw_pair_cost(1, 2, model, seed)
    )

    tape = TapeSource([(1.0, "C"), (2.0, "C"), (3.0, "P")])
    tr = run(ScheduleSpec(kind=GREEDY), model, Horizon(3.0), seed, source=tape)
    rec = tr.records[0]
    expected = min(draw_pair_cost(1, 3, model, seed), draw_pair_cost(2, 3, model, seed))
    second_ok = (
        tr.summary.a == 1
        and rec.time == 3.0
        and tr.summary.wait_integral == 3.0
        and rec.cost == expected
    )
    ok = first_ok and second_ok
    return ok, (
        f"two-agent tape exact (W=1, match at 2): {first_ok}; "
        f"three-agent tape exact (W=3, cost = cheaper of two draws): {second_ok}"
    )


def _c14_appendix_constants(jobs: int = 1) -> Tuple[bool, str]:
    series = math.fsum(1.0 / (2 ** k * k) for k in range(1, 64))
    series_ok = abs(series - math.log(2.0)) <= 1e-12

    stop_ok = True
    stop_parts = []
    for pos, k in enumerate((10, 100, 1000)):
        samples = stopping_time_samples(k, 1, 400, 91_4014 + pos)
        mean = float(np.mean(samples))
        stop_ok &= mean < 5.0 * k
        stop_parts.append(f"t({k},1) = {mean:.1f} < {5 * k}")

    two = oracles.expected_arrivals_two_each()
    two_ok = abs(two - 5.5) <= 1e-12
    ok = series_ok and stop_ok and two_ok
    return ok, (
        f"sum 1/(2^k k) = log 2 within 1e-12: {series_ok}; "
        + "; ".join(stop_parts)
        + f"; two-of-each expectation exactly {two:.6f} (the integer 5 seen in "
        f"shorthand undershoots by 0.5)"
    )


CRITERIA: Tuple[Tuple[int, str, Callable[..., Tuple[bool, str]]], ...] = (
    (1, "oracle-identity", _c1_oracle_identity),
    (2, "solver-exactness", _c2_solver_exactness),
    (3, "static-monte-carlo", _c3_static_monte_carlo),
    (4, "walk-lemma", _c4_walk_lemma),
    (5, "greedy-wait-law", _c5_greedy_wait_law),
    (6, "greedy-cost-growth", _c6_greedy_cost_growth),
    (7, "critical-regime", _c7_critical_regime),
    (8, "supercritical-regime", _c8_supercritical_regime),
    (9, "waiting-regimes", _c9_waiting_regimes),
    (10, "fcfs-cost", _c10_fcfs_cost),
    (11, "balanced-schedule", _c11_balanced_schedule),
    (12, "free-lunch", _c12_free_lunch),
    (13, "engine-exactness", _c13_engine_exactness),
    (14, "appendix-constants", _c14_appendix_constants),
)


def _matches(token: str, number: int, name: str) -> bool:
    token = token.strip().lower()
    if not token:
        return False
    if token == str(number):
        return True
    return token in name or name.split("-")[0] in token


def run_criteria(
    only: Optional[Sequence[str]] = None,
    jobs: int = 1,
) -> List[CriterionResult]:
    """Execute acceptance criteria, optionally filtered by number or name part."""
    selected = []
    for number, name, fn in CRITERIA:
        if only is None or any(_matches(t, number, name) for t in only):
            selected.append((number, name, fn))
    if only is not None and not selected:
        raise ValueError(f"no criterion matches {list(only)!r}")
    results = []
    for number, name, fn in selected:
        start = time.perf_counter()
        try:
            passed, detail = fn(jobs=jobs)
        except Exception as exc:
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(
            CriterionResult(number, name, passed, detail, time.perf_counter() - start)
        )
    return results
