"""Worst-case price traces and an adaptive truncation adversary.

The hardest feasible input for a target-pi policy is a strictly
decreasing price path: it starts where charging first becomes forced
(min(alpha/pi, p_max)) and descends to p_min with the gaps to alpha
shrinking geometrically, which makes the policy's forced charges equal
across steps and drives its total toward the worst-case supremum.  Under
the per-slot rate limit the same path is played with each level repeated
ceil(c) times.

The adaptive adversary turns that path into a lower-bound certificate
for any other policy: it replays the path against both the candidate
and the reference policy, and ends the episode as soon as the candidate
has banked less charge than the reference, freezing in a ratio at least
as bad as the reference target.
"""

from __future__ import annotations

import math
import sys

from .core import PriceTrace, ProblemSpec, ValidationError, objective_parts
from .offline import optimum_path
from .online import FixedRatioPolicy, Policy
from .ratio import solve_pi_star

# The narrowest gap between adjacent levels, in float eps of alpha: each
# level is alpha less its gap to alpha, so rounding moves it by about eps
# alpha.  The gap scales with the prices, so a spec and its prices times
# 2**k get the same number of levels.
LEVEL_GAP_EPS = 8

# Candidate charged strictly less than the reference, beyond float noise:
# this fraction of the capacity.
TRUNCATION_SLACK = 1e-12

# The most rows a trace may have: the adversary command peaked at 305 MB
# writing 10**6 rows, so a longer trace is refused before it is built.
MAX_TRACE_ROWS = 10**6


def _check_rows(spec: ProblemSpec, steps: int, repeat: int = 1) -> None:
    rows = steps * repeat
    if rows > MAX_TRACE_ROWS:
        raise ValidationError(f"{steps} steps at capacity {spec.capacity} make a trace of up to "
                              f"{rows} rows, more than the limit of {MAX_TRACE_ROWS}")


def worst_case_no_limit(spec: ProblemSpec, pi: float, steps: int) -> PriceTrace:
    """Strictly decreasing price path that exhausts a target-pi policy."""
    if steps < 1:
        raise ValidationError(f"need at least one step, got {steps}")
    _check_rows(spec, steps)
    if not (math.isfinite(pi) and pi >= 1.0 - 1e-12):
        raise ValidationError(f"ratio target must be finite and >= 1, got {pi}")
    alpha, p_min, p_max = spec.alpha, spec.p_min, spec.p_max
    if alpha == p_min:
        raise ValidationError("alpha == p_min: never charging is optimal, no descent exists")
    p_start = min(alpha / pi, p_max)
    if p_start >= alpha:
        raise ValidationError(f"no descent at pi={pi} with alpha={alpha} <= p_max={p_max}: "
                              f"the worst-case total diverges")
    gap = LEVEL_GAP_EPS * sys.float_info.epsilon * alpha
    if p_start <= p_min + gap or steps == 1:
        return PriceTrace((p_min,))

    import numpy as np  # here, so that importing the CLI does not load numpy

    span = math.log((alpha - p_min) / (alpha - p_start))
    # cap keeps the tightest level spacing at twice the gap floor so float
    # rounding cannot collapse adjacent levels
    cap = 1 + int((alpha - p_start) * span / (2 * gap))
    n = min(steps, max(2, cap))
    gaps = np.geomspace(alpha - p_start, alpha - p_min, n)
    prices = alpha - gaps
    prices[0] = p_start
    prices[-1] = p_min
    if np.any(np.diff(prices) > -gap):
        raise ValidationError(f"cannot fit {n} strictly decreasing levels in the band")
    return PriceTrace(prices.tolist())


def worst_case_rate_limited(spec: ProblemSpec, pi: float, steps: int) -> PriceTrace:
    """The target-pi descent with each level repeated ceil(capacity) times,
    so every sub-problem of a capacity-splitting policy sees the full
    descent, the last (fractional) one included."""
    repeat = math.ceil(spec.capacity)
    _check_rows(spec, steps, repeat)
    return PriceTrace(p for p in worst_case_no_limit(spec, pi, steps) for _ in range(repeat))


def adaptive_adversary(policy: Policy, spec: ProblemSpec, steps: int) -> tuple[PriceTrace, float]:
    """Duel `policy` against the reference on the worst-case descent.

    Returns the (possibly truncated) trace actually played and the
    candidate's objective over the unlimited-rate optimum: a certified
    lower bound up to the descent's discretization.  The objective is the
    fsum of its price * charge terms plus alpha times the unmet need, taken
    as one fsum of c - sum(v) rather than as score_run's running total.
    """
    pi_star = solve_pi_star(spec).pi_star
    plan = worst_case_no_limit(spec, pi_star, steps).slots
    reference = FixedRatioPolicy(spec, pi_star)

    slack = TRUNCATION_SLACK * spec.capacity_f
    cum_policy = cum_ref = 0.0
    charges = []
    for played, price in enumerate(plan, 1):
        look = plan[played : played + policy.lookahead_needed]
        charges.append(policy.charge(price, look))
        cum_policy += charges[-1]
        cum_ref += reference.charge(price)
        if cum_policy < cum_ref - slack:
            break
    # the unmet need as one rounding of c - sum(v): alpha magnifies its error
    unmet = math.fsum([spec.capacity_f, *(-v for v in charges)])
    cost, diss = objective_parts(spec, (p * v for p, v in zip(plan, charges)), unmet)
    trace = PriceTrace(plan[:played])
    return trace, (cost + diss) / optimum_path(spec, trace, False)[-1]
