"""Competitive online EV charging under real-time pricing."""

from .core import (
    ChargingSchedule,
    ObjectiveValue,
    PriceTrace,
    ProblemSpec,
    check_feasible,
    evaluate_objective,
    validate_spec,
    validate_trace,
)
from .offline import (
    OfflineState,
    new_offline_state,
    offline_step,
    opt_no_limit,
    opt_rate_limited,
)
from .ratio import (
    AdaptiveRatioContext,
    RatioSolution,
    max_total_charge,
    max_total_charge_from,
    pi_star_upper_bound,
    solve_alpha_star,
    solve_pi_star,
    solve_pi_t,
)
from .online import (
    PolicyStep,
    make_policy,
    naive_threshold_step,
    rhc_step,
)
from .adversary import (
    AdversaryTrace,
    adaptive_adversary,
    worst_case_no_limit,
    worst_case_rate_limited,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
