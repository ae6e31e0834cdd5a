"""Closed-form and series values the simulator is checked against.

Everything here is exact arithmetic on model quantities: the expected optimal
k-assignment cost for i.i.d. exponential matrices, the patient schedule's cost
bounds, the waiting-time normalizer, exact random-walk means, zeta values, the
matching-ratio envelopes for each schedule regime, the free-lunch window of
the decay model, and the two-of-each arrival expectation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .schedules import (
    BALANCED,
    CUSTOM,
    FCFS,
    GREEDY,
    PATIENT,
    POWER,
    ScheduleSpec,
)

__all__ = [
    "DomainError",
    "BoundPair",
    "GrowthOrder",
    "FreeLunchWindow",
    "expected_min_k_assignment",
    "patient_cost_equal_sided",
    "patient_cost_bounds",
    "greedy_expected_wait",
    "expected_abs_walk",
    "zeta",
    "alpha_bounds",
    "beta_order",
    "free_lunch_window",
    "expected_arrivals_two_each",
]


class DomainError(ValueError):
    """An argument outside the domain of the closed form asked for."""


@dataclass(frozen=True)
class BoundPair:
    lower: float
    upper: float
    regime: str

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            raise ValueError("lower bound exceeds upper bound")


@dataclass(frozen=True)
class GrowthOrder:
    """Order of the waiting ratio in tau.

    exponent is the power of tau; exact_value is set where the ratio is a
    known constant rather than a bare order.
    """

    exponent: float
    exact_value: Optional[float]
    label: str


@dataclass(frozen=True)
class FreeLunchWindow:
    critical_gamma: float
    lower: Optional[float]  # exclusive
    upper: Optional[float]  # inclusive

    @property
    def empty(self) -> bool:
        return self.lower is None

    def contains(self, gamma: float) -> bool:
        if self.empty:
            return False
        return self.lower < gamma <= self.upper


def expected_min_k_assignment(n_c: int, n_p: int, k: int) -> float:
    """Expected minimum k-assignment cost on an n_c x n_p rate-1 matrix.

    Exact double sum over i, j >= 0 with i + j < k of 1/((n_c - i)(n_p - j)).
    """
    if n_c < 1 or n_p < 1:
        raise DomainError("matrix sides must be at least 1")
    if not 1 <= k <= min(n_c, n_p):
        raise DomainError(f"k must lie in [1, {min(n_c, n_p)}], got {k}")
    inner = 1.0 / (n_p - np.arange(k, dtype=np.float64))
    prefix = np.concatenate(([0.0], np.cumsum(inner)))
    outer = 1.0 / (n_c - np.arange(k, dtype=np.float64))
    return math.fsum((outer * prefix[k - np.arange(k)]).tolist())


def patient_cost_equal_sided(a: int) -> float:
    """Partial Basel sum over k <= a; equals expected_min_k_assignment(a, a, a)."""
    if a < 1:
        raise DomainError("need at least one match")
    terms = 1.0 / np.arange(a, 0, -1, dtype=np.float64) ** 2
    return float(np.sum(terms))


def patient_cost_bounds(lam_over: float, lam_under: float) -> BoundPair:
    """Bounds on the patient schedule's expected per-match cost at large A."""
    if not (0.0 < lam_under <= lam_over):
        raise DomainError("need 0 < lam_under <= lam_over")
    return BoundPair(
        lower=math.log(2.0) / lam_over,
        upper=math.pi ** 2 / (6.0 * lam_under),
        regime="patient-per-match",
    )


def greedy_expected_wait(tau: float) -> float:
    """Waiting normalizer (2/3) * tau^(3/2) used as the beta denominator."""
    if tau < 0.0:
        raise DomainError("tau must be non-negative")
    return (2.0 / 3.0) * tau ** 1.5


def expected_abs_walk(k: int) -> float:
    """Exact E|S_k| for the fair +-1 walk.

    Even k: (k / 2^k) * binomial(k, k/2).  Odd k equals the even value at
    k + 1.  Exact rational arithmetic below 600 steps, log-gamma beyond.
    """
    if k < 0:
        raise DomainError("step count cannot be negative")
    if k == 0:
        return 0.0
    m = k if k % 2 == 0 else k + 1
    if m <= 600:
        return float(Fraction(m * math.comb(m, m // 2), 2 ** m))
    log_val = (
        math.log(m)
        + math.lgamma(m + 1)
        - 2.0 * math.lgamma(m / 2 + 1)
        - m * math.log(2.0)
    )
    return math.exp(log_val)


def zeta(s: float) -> float:
    """Riemann zeta for s > 1 by partial sum plus Euler-Maclaurin tail."""
    if not s > 1.0:
        raise DomainError("zeta(s) requires s > 1")
    n = 100_000
    partial = math.fsum((np.arange(1, n + 1, dtype=np.float64) ** (-s)).tolist())
    tail = (
        n ** (1.0 - s) / (s - 1.0)
        - 0.5 * n ** (-s)
        + s * n ** (-s - 1.0) / 12.0
        - s * (s + 1.0) * (s + 2.0) * n ** (-s - 3.0) / 720.0
    )
    return partial + tail


def alpha_bounds(
    spec: ScheduleSpec,
    a: int,
    lam_under: float,
    lam_over: float,
    lam_mean: float,
) -> BoundPair:
    """Envelope for the matching ratio alpha(A) of a built-in schedule.

    The subcritical constants come from the explicit chain of inequalities
    behind the regime bounds, not from the order statements: the lower
    constant is lam_under / (pi^2 (1/2 - gamma)), the upper constant is
    (1 + 1/(1 - 2 gamma)) * lam_over / (lam_under log 2).  Greedy has a lower
    bound only; its upper is infinity.
    """
    if a < 2:
        raise DomainError("need A >= 2")
    if not (0.0 < lam_under <= lam_mean <= lam_over):
        raise DomainError("need 0 < lam_under <= lam_mean <= lam_over")
    pi2 = math.pi ** 2
    log_a = math.log(a)
    if spec.kind == PATIENT:
        return BoundPair(1.0, 1.0, "patient")
    if spec.kind == FCFS:
        exact = 6.0 * lam_under * lam_mean * a / pi2
        return BoundPair(exact, exact, "fcfs")
    if spec.kind == GREEDY:
        return BoundPair(6.0 * lam_under * math.sqrt(a) / (5.0 * pi2), math.inf, "greedy")
    if spec.kind == POWER:
        gamma = spec.gamma
        if gamma < 0.5:
            c_lo = lam_under / (pi2 * (0.5 - gamma))
            c_hi = (1.0 + 1.0 / (1.0 - 2.0 * gamma)) * lam_over / (lam_under * math.log(2.0))
            return BoundPair(
                c_lo * a ** (0.5 - gamma), c_hi * a ** (1.0 - 2.0 * gamma), "subcritical"
            )
        if gamma == 0.5:
            return BoundPair(
                2.0 * lam_under * log_a / pi2,
                (lam_over / lam_under) * (1.0 + log_a) / math.log(2.0),
                "critical",
            )
        return BoundPair(
            1.0, (lam_over / lam_under) * zeta(2.0 * gamma) / math.log(2.0), "supercritical"
        )
    if spec.kind in (BALANCED, CUSTOM):
        raise DomainError(f"no closed-form alpha envelope for {spec.kind}; use growth checks")
    raise DomainError(f"unknown schedule kind {spec.kind!r}")


def beta_order(spec: ScheduleSpec) -> GrowthOrder:
    """Order of the waiting ratio beta(tau) for a built-in schedule."""
    if spec.kind in (FCFS, GREEDY):
        return GrowthOrder(0.0, 1.0, "constant-one")
    if spec.kind == POWER:
        if spec.gamma <= 0.5:
            return GrowthOrder(0.0, None, "bounded")
        return GrowthOrder(spec.gamma - 0.5, None, "power")
    if spec.kind == PATIENT:
        return GrowthOrder(0.5, None, "power")
    raise DomainError(f"no closed-form beta order for {spec.kind}; use growth checks")


def free_lunch_window(delta: float) -> FreeLunchWindow:
    """Window of gamma values with bounded cost and waiting ratios.

    In the decay model the cost regimes switch at gamma = 1/delta; a window
    (1/delta, 1/2] where both ratios stay bounded opens exactly when
    delta > 2.  The patient benchmark needs delta > 1 to have finite cost.
    """
    if not delta > 1.0:
        raise DomainError("decay exponent must exceed 1")
    critical = 1.0 / delta
    if delta > 2.0:
        return FreeLunchWindow(critical, critical, 0.5)
    return FreeLunchWindow(critical, None, None)


def expected_arrivals_two_each() -> float:
    """Exact expected number of arrivals until each side has seen two.

    With fair sides, P[Y > k] = 2 (k + 1) / 2^k for k >= 3, so
    E[Y] = 3 + sum_{k>=3} 2 (k + 1) / 2^k = 5.5 exactly.  A coarse count that
    drops one boundary sequence gives 5; the exact series is returned.
    """
    tail = [2.0 * (k + 1) / 2.0 ** k for k in range(3, 200)]
    return 3.0 + math.fsum(tail)
