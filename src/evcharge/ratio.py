"""Worst-case charge totals and the smallest maintainable ratio target.

The threshold policy that keeps its cost-plus-dissatisfaction within a
factor pi of the running offline optimum charges a predictable worst-case
total over all feasible price paths: nothing once prices cannot drop below
alpha/pi, a logarithmic accumulation while the trigger price alpha/pi sits
inside the price band, plus an initial lump when it sits above the band.
The best achievable target pi_star is the value whose worst-case total
exactly fills the battery, found in closed form when the dissatisfaction
price is high enough and by bisection otherwise.

All quantities here scale linearly in capacity, so targets are solved at
unit capacity and are exactly capacity-independent.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from typing import NamedTuple

from .core import (
    InternalConsistencyError,
    ProblemSpec,
    ValidationError,
)

ROOT_RESIDUAL_TOL = 1e-10
PI_LOWER_BRACKET = 1.0 + 1e-12


class NoBracket(ValidationError):
    """The defining equation has no root that a float holds: a degenerate
    price band, alpha too close to p_min, or alpha so far above p_max that
    the closed form underflows."""


def log_price_ratio(alpha: float, p_hi: float, p_lo: float) -> float:
    """ln((alpha - p_lo) / (alpha - p_hi)) for p_lo <= p_hi < alpha.

    Written via log1p so the value stays accurate when alpha dwarfs the
    price band and the ratio is barely above 1.
    """
    return math.log1p((p_hi - p_lo) / (alpha - p_hi))


def max_total_charge(spec: ProblemSpec, pi: float) -> float:
    """Supremum of the target-pi policy's total charge over feasible prices.

    Decreasing in pi; equal to capacity exactly at pi_star.  Requires
    pi > 1 whenever alpha <= p_max (at pi = 1 the total diverges there).
    """
    if pi < 1.0:
        raise ValidationError(f"ratio target must be >= 1, got {pi}")
    alpha, c = spec.alpha, spec.capacity_f
    trigger = alpha / pi
    if trigger <= spec.p_min:
        return 0.0
    if trigger <= spec.p_max:
        if alpha - trigger <= 0.0:
            raise ValidationError(
                f"worst-case total diverges at pi={pi} with alpha={alpha} <= p_max={spec.p_max}"
            )
        return c * pi * log_price_ratio(alpha, trigger, spec.p_min)
    head = (alpha * c - spec.p_max * c * pi) / (alpha - spec.p_max)
    return head + c * pi * log_price_ratio(alpha, spec.p_max, spec.p_min)


def _decreasing_root(f, lo: float, hi: float, grow: float, tries: int, what: str) -> float:
    """The float root of a strictly decreasing f on [lo, hi].

    hi is multiplied by `grow` up to `tries` times until f(hi) < 0; a
    merely zero f(hi) is not a bracket, since f can round to 0 far past
    its root.  A root whose residual exceeds ROOT_RESIDUAL_TOL means no
    float solves the equation (NoBracket) when the root lies below lo or
    one ulp moves f past the tolerance, and a solver fault otherwise.
    `what` names the root and the spec's values in every message.
    """
    if hi <= lo:
        raise NoBracket(f"{what}: the bracket [{lo}, {hi}] is empty")
    for _ in range(tries):
        if f(hi) < 0.0:
            break
        hi *= grow
    else:
        raise NoBracket(f"{what}: the equation stays >= 0 up to {hi}")
    a, b = lo, hi
    for _ in range(200):
        mid = 0.5 * (a + b)
        if mid <= a or mid >= b:
            break
        if f(mid) > 0.0:
            a = mid
        else:
            b = mid
    root = 0.5 * (a + b)
    if abs(f(root)) > ROOT_RESIDUAL_TOL:
        ulp_step = f(math.nextafter(root, 0.0)) - f(math.nextafter(root, math.inf))
        if f(lo) < 0.0 or ulp_step > ROOT_RESIDUAL_TOL:
            raise NoBracket(f"{what}: no float meets the residual tolerance "
                            f"{ROOT_RESIDUAL_TOL}; one ulp moves the equation by {ulp_step}")
        raise InternalConsistencyError(f"{what}: bisection residual {f(root)}")
    return root


def solve_alpha_star(spec: ProblemSpec) -> float:
    """Dissatisfaction price above which the closed-form target applies.

    Root of (a / p_max) * ln((a - p_min) / (a - p_max)) = 1 in a.  The
    left side falls strictly from +inf toward 1 - p_min/p_max < 1, so a
    unique root exists whenever the band is non-degenerate.
    """
    p_min, p_max = spec.p_min, spec.p_max
    if p_min == p_max:
        raise NoBracket("p_min == p_max: the defining equation is identically 0")

    def g(a: float) -> float:
        return (a / p_max) * log_price_ratio(a, p_max, p_min) - 1.0

    return _decreasing_root(g, p_max * (1.0 + 1e-12), 2.0 * p_max, 2.0, 70,
                            f"threshold price for p_min={p_min}, p_max={p_max}")


def pi_star_upper_bound(spec: ProblemSpec) -> float:
    """min(sqrt(alpha / p_min), p_max / p_min); also the bisection bracket."""
    return min(math.sqrt(spec.alpha / spec.p_min), spec.theta)


class RatioSolution(NamedTuple):
    """Best maintainable target plus solver diagnostics.

    branch is "closed_form" above the alpha threshold, "root" below it,
    and "degenerate" when the instance forces pi_star = 1 outright
    (alpha == p_min, or a flat price band).  alpha_star is None on a flat
    band, and at alpha == p_min on a band too narrow for a float
    threshold.  residual is |V(pi_star) - c|;
    it is only meaningful outside the degenerate branch, where V is
    identically zero or trivially equal to capacity.
    """

    alpha_star: float | None
    pi_star: float
    branch: str
    upper_bound: float
    residual: float


@lru_cache(maxsize=None)
def solve_pi_star(spec: ProblemSpec) -> RatioSolution:
    """Smallest ratio target whose worst-case charge total fits capacity."""
    alpha, p_min, p_max = spec.alpha, spec.p_min, spec.p_max
    bound = pi_star_upper_bound(spec)
    c = spec.capacity_f

    if p_min == p_max:
        # Flat band: every price equals p_min, target 1 is free.
        residual = 0.0 if alpha > p_max else c  # V(1) is c or identically 0
        return RatioSolution(None, 1.0, "degenerate", bound, residual)
    if alpha == p_min:
        # Charging is never strictly worthwhile; the policy stays idle.
        try:
            alpha_star = solve_alpha_star(spec)
        except NoBracket:
            alpha_star = None
        return RatioSolution(alpha_star, 1.0, "degenerate", bound, c)

    alpha_star = solve_alpha_star(spec)
    what = f"ratio target for alpha={alpha}, p_min={p_min}, p_max={p_max}"
    if alpha > alpha_star:
        lump = p_max / (alpha - p_max)
        if lump < sys.float_info.min:
            # a subnormal lump has lost the digits the closed form divides by
            raise NoBracket(f"{what}: p_max / (alpha - p_max) = {lump} is below the normal floats")
        pi = lump / (lump - log_price_ratio(alpha, p_max, p_min))
        branch = "closed_form"
    else:
        def excess(pi: float) -> float:
            # Worst-case total at unit capacity minus the unit capacity.
            return pi * log_price_ratio(alpha, alpha / pi, p_min) - 1.0

        pi = _decreasing_root(excess, PI_LOWER_BRACKET, bound, 1.0 + 1e-9, 8, what)
        branch = "root"

    residual = abs(max_total_charge(spec, pi) - c)
    return RatioSolution(alpha_star, pi, branch, bound, residual)


def solve_pi_t(spec: ProblemSpec, price: float, charged: float, eta: float) -> float:
    """Tightest target sustainable from here on, given the charge banked so
    far and eta, the cost-so-far as if the window ended before this slot.

    Valid only at prices below alpha that set a new running minimum; the
    linear equation it solves has a strictly negative slope in pi there,
    so a non-negative denominator means the caller fed inconsistent state.

    Successive targets shrink whenever each recomputation was acted on
    (charge bracket nonempty).  They can rise on benign traces: a first
    price just under alpha solves to a small target with an empty bracket,
    leaving the next minimum an effectively fresh solve.
    """
    alpha, c = spec.alpha, spec.capacity_f
    if not price < alpha:
        raise ValidationError(f"per-slot target needs price < alpha, got {price} >= {alpha}")
    gap = alpha - price
    denom = c * (log_price_ratio(alpha, price, spec.p_min) - price / gap)
    if denom >= 0.0:
        raise InternalConsistencyError(f"nonnegative slope {denom} at price {price}")
    numer = c - charged - eta / gap
    return numer / denom
