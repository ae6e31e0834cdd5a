"""Output checks for the benchmark's report bundles.

Each check compares a bundle with a value the benchmark computes itself, or
with a property the method must have; none compares with a stored copy of
an earlier output.  A check returns a list of failure messages.

The statistical checks allow SIGMAS standard errors, so a correct program
fails one only with a probability of the order of 1e-4 per check.
"""

from __future__ import annotations

import csv
import json
import math
import os
from functools import lru_cache
from typing import Dict, List, Tuple

SIGMAS = 4.0


@lru_cache(maxsize=None)
def greedy_wait_law(tau: float) -> float:
    """Exact E W(tau) of a threshold-1 schedule.

    The unmatched count is |S(s)| for the continuous-time fair walk of total
    rate 1, E|S(s)| = s e^{-s} (I_0(s) + I_1(s)), integrated over [0, tau].
    `ive` is the exponentially scaled Bessel function, I_v(s) e^{-s}.
    """
    from scipy.integrate import quad
    from scipy.special import ive

    value, _ = quad(lambda s: s * (ive(0, s) + ive(1, s)), 0.0, tau, limit=500)
    return value


def zeta_partial(a: int) -> float:
    """sum_{k <= a} 1/k^2, the expected optimal a x a assignment of Exp(1) costs."""
    return math.fsum(1.0 / (k * k) for k in range(1, a + 1))


def _mean_waits(bundle: str) -> List[Tuple[float, float, float]]:
    """(tau, mean waiting integral, its stderr) rows of ratios_beta.csv.

    The file divides by the paper's (2/3) tau^{3/2}; multiply it back.
    """
    rows = []
    with open(os.path.join(bundle, "ratios_beta.csv"), encoding="utf-8") as fh:
        for row in csv.DictReader(line for line in fh if not line.startswith("#")):
            tau = float(row["x"])
            scale = (2.0 / 3.0) * tau ** 1.5
            rows.append((tau, float(row["ratio"]) * scale, float(row["stderr"]) * scale))
    return rows


def greedy_waits_match_exact_law(bundle: str, wl) -> List[str]:
    out = []
    for tau, mean, se in _mean_waits(bundle):
        law = greedy_wait_law(tau)
        if not abs(mean - law) <= SIGMAS * se:
            out.append(f"tau={tau:g}: mean wait {mean:.6g} vs exact {law:.6g} (se {se:.3g})")
    return out


def waits_at_least_greedy(bundle: str, wl) -> List[str]:
    """No schedule waits less than greedy, which clears at every chance."""
    out = []
    for tau, mean, se in _mean_waits(bundle):
        law = greedy_wait_law(tau)
        if not mean >= law - SIGMAS * se:
            out.append(f"tau={tau:g}: mean wait {mean:.6g} below greedy's {law:.6g} (se {se:.3g})")
    return out


def costs_follow_exponential_minimum(bundle: str, wl) -> List[str]:
    """A clearing event's cost is the minimum of m_c*m_p Exp(lambda) draws,
    so cost * m_c * m_p * lambda is Exp(1) with mean 1 and sd 1, on the
    matrix route and on the seam-sampled route alike."""
    lam = float(wl.rate.split(":")[1])
    total = 0.0
    n = 0
    with open(os.path.join(bundle, "traces.csv"), encoding="utf-8") as fh:
        for row in csv.DictReader(line for line in fh if not line.startswith("#")):
            total += float(row["cost"]) * int(row["m_c"]) * int(row["m_p"]) * lam
            n += 1
    if n == 0:
        return ["traces.csv has no rows"]
    z = (total / n - 1.0) * math.sqrt(n)
    if not abs(z) <= SIGMAS:
        return [f"mean of cost*m_c*m_p*lambda over {n} events is {total / n:.6f} (z = {z:.2f})"]
    return []


def summary_counts(bundle: str, wl) -> List[str]:
    with open(os.path.join(bundle, "summary.json"), encoding="utf-8") as fh:
        results = json.load(fh)["results"]
    out = []
    if results["mean_matches"] != wl.matches:
        out.append(f"summary mean_matches {results['mean_matches']!r} != {wl.matches}")
    if results["reps"] != wl.reps or results["traced_reps"] != min(wl.reps, 5):
        out.append(f"summary reps/traced_reps {results['reps']}/{results['traced_reps']}")
    return out


def denominators_within_rate_bounds(captures: Dict, wl) -> List[str]:
    """With every rate in [lo, hi], each optimal assignment lies between
    the Exp(1) optimum divided by hi and by lo, and E of that optimum is
    zeta_A; so the mean patient cost lies in [zeta_A / hi, zeta_A / lo]."""
    _, lo, hi = wl.rate.split(":")
    dens = captures.get("denominators") or []
    if [a for a, _ in dens] != list(wl.a_grid):
        return [f"empirical denominators {dens!r} do not cover the a-grid"]
    out = []
    for a, mean in dens:
        z = zeta_partial(a)
        if not z / float(hi) <= mean <= z / float(lo):
            out.append(f"A={a}: denominator {mean:.6g} outside "
                       f"[{z / float(hi):.6g}, {z / float(lo):.6g}]")
    return out


def solves_match_scipy(captures: Dict, wl) -> List[str]:
    if captures.get("solve_samples", 0) < 1:
        return ["no assignment solve was sampled"]
    err = captures["solve_max_rel_err"]
    if not err <= 1e-9:
        return [f"assignment totals differ from linear_sum_assignment by {err:.3g} relative"]
    return []


BUNDLE_CHECKS = {
    "greedy-const": (greedy_waits_match_exact_law, costs_follow_exponential_minimum,
                     summary_counts),
    "balanced-long": (waits_at_least_greedy, costs_follow_exponential_minimum, summary_counts),
    "hetero-alpha": (summary_counts,),
}
CAPTURE_CHECKS = {
    "hetero-alpha": (denominators_within_rate_bounds, solves_match_scipy),
}


def run_checks(wl, bundle: str, captures: Dict) -> List[str]:
    failures = []
    for check in BUNDLE_CHECKS[wl.name]:
        failures += [f"{check.__name__}: {m}" for m in check(bundle, wl)]
    for check in CAPTURE_CHECKS.get(wl.name, ()):
        failures += [f"{check.__name__}: {m}" for m in check(captures, wl)]
    return failures
