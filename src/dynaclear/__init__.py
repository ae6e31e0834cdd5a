"""Two-sided dynamic matching market: event simulator plus closed-form oracles.

Agents arrive on a rate-1 Poisson clock and join the client or provider side
by a fair coin; a clearing schedule decides when couples are matched.  The
package simulates the cost/waiting trade-off across the schedule family and
checks the runs against exact reference values.
"""

__version__ = "0.1.0"

from .analysis import (
    AnalyticEqualSided,
    CoverageError,
    EmpiricalPatient,
    GrowthFit,
    RatioEstimate,
    empirical_patient_denominator,
    fit_growth,
    matching_ratio,
    waiting_ratio,
)
from .arrivals import PoissonStream, TapeSource
from .assignment import Assignment, brute_force_k_assignment, min_k_assignment
from .costs import RateModel, cost_matrix, draw_pair_cost
from .engine import (
    DecayModel,
    Horizon,
    MatchRecord,
    MatchTarget,
    RunSummary,
    RunTrace,
    run,
    run_ensemble,
)
from .schedules import ScheduleSpec, parse_schedule, threshold
from .validation import CriterionResult, run_criteria
from . import oracles

__all__ = [
    "__version__",
    "AnalyticEqualSided",
    "Assignment",
    "CoverageError",
    "CriterionResult",
    "DecayModel",
    "EmpiricalPatient",
    "GrowthFit",
    "Horizon",
    "MatchRecord",
    "MatchTarget",
    "PoissonStream",
    "RateModel",
    "RatioEstimate",
    "RunSummary",
    "RunTrace",
    "ScheduleSpec",
    "TapeSource",
    "brute_force_k_assignment",
    "cost_matrix",
    "draw_pair_cost",
    "empirical_patient_denominator",
    "fit_growth",
    "matching_ratio",
    "min_k_assignment",
    "oracles",
    "parse_schedule",
    "run",
    "run_criteria",
    "run_ensemble",
    "threshold",
    "waiting_ratio",
]
