"""Worst-case charge totals and the smallest maintainable ratio target.

The threshold policy that keeps its cost-plus-dissatisfaction within a
factor pi of the running offline optimum charges a predictable worst-case
total over all feasible price paths: nothing once prices cannot drop below
alpha/pi, a logarithmic accumulation while the trigger price alpha/pi sits
inside the price band, plus an initial lump when it sits above the band.
The best achievable target pi_star is the value whose worst-case total
exactly fills the battery, found in closed form when the dissatisfaction
price is high enough and otherwise as the root of an equation in
u = 1/pi alone, by Newton's method from a proven bound.

All quantities here scale linearly in capacity, so targets are solved at
unit capacity and are exactly capacity-independent.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .core import InternalConsistencyError, ProblemSpec, ValidationError


class NoBracket(ValidationError):
    """The defining equation has no root that a float holds: a flat band,
    a threshold alpha* past the largest float, p_min/alpha or p_min/p_max
    below the normal floats, or alpha so far above p_max that the closed
    form underflows."""


def log_price_ratio(alpha: float, p_hi: float, p_lo: float) -> float:
    """ln((alpha - p_lo) / (alpha - p_hi)) for p_lo <= p_hi < alpha.

    Written via log1p so the value stays accurate when alpha dwarfs the
    price band and the ratio is barely above 1.
    """
    return math.log1p((p_hi - p_lo) / (alpha - p_hi))


_SERIES = tuple(1.0 / k for k in range(2, 61))  # _SERIES[k] * (-x)^k is the series' k-th term


def _x_minus_log1p_over_x2(x: float) -> float:
    """(x - ln(1 + x)) / x^2 for x > -1, by its series 1/2 - x/3 + x^2/4 - ...
    at |x| <= 0.5, where the difference would cancel most of log1p's digits.
    The series stops before the first power of x below 2^-57."""
    if abs(x) > 0.5:
        return (x - math.log1p(x)) / (x * x)
    s = 0.0
    for c in _SERIES[int(math.log(2.0**-57, abs(x))) if x else 0::-1]:
        s = c - x * s
    return s


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


def _monotone_newton(step, x: float) -> float:
    """Root of f by Newton's method from a bound x on the side where the
    iterates approach it monotonically: above it for an increasing convex
    f, below it for an increasing concave one.  step(x) is f(x) / f'(x).
    Stops once a step no longer moves x the way the first one did."""
    dx = step(x)
    down = dx > 0.0
    for _ in range(100):
        if not (x - dx < x if down else x - dx > x):
            return x
        x -= dx
        dx = step(x)
    raise InternalConsistencyError(f"Newton's method still moving at {x} after 100 steps")


def solve_alpha_star(spec: ProblemSpec) -> float:
    """Dissatisfaction price above which the closed-form target applies.

    Root of (a / p_max) * ln((a - p_min) / (a - p_max)) = 1 in a.  With
    u = p_max / a and rho = p_min / p_max it reads g(u) = -ln(1 - rho u),
    where g(u) = -u - ln(1 - u) = u^2 s(-u) rises with slope u / (1 - u).
    The difference is convex on (0, 1), negative just above 0 and infinite
    at 1: one root, below 1 - (1 - rho) / e, and below 2 rho since
    g(u) >= u^2 / (2 - u) and -ln(1 - rho u) <= rho u / (1 - rho).
    """
    p_min, p_max = spec.p_min, spec.p_max
    what = f"threshold price for p_min={p_min}, p_max={p_max}"
    rho = p_min / p_max
    if not sys.float_info.min <= rho < 1.0:
        raise NoBracket(f"{what}: p_min / p_max = {rho} is subnormal, zero or 1")
    if rho == math.nextafter(1.0, 0.0):
        # u lies in the last ulp below 1, onto whose pole the start rounds; to
        # first order in the band there, p_max / u is p_max + band / (e - 1)
        alpha_star = p_max + (p_max - p_min) / (math.e - 1.0)
    else:
        alpha_star = p_max / _monotone_newton(
            lambda u: ((u * u * _x_minus_log1p_over_x2(-u) + math.log1p(-rho * u))
                       / (u / (1.0 - u) - rho / (1.0 - rho * u))),
            min(1.0 - (1.0 - rho) / math.e, 2.0 * rho))
    if alpha_star == math.inf:
        raise NoBracket(f"{what}: alpha* overflows a float")
    return alpha_star


def pi_star_upper_bound(spec: ProblemSpec) -> float:
    """min(sqrt(alpha / p_min), p_max / p_min), the paper's bound on pi_star."""
    return min(math.sqrt(spec.alpha / spec.p_min), spec.theta)


class RatioSolution(NamedTuple):
    """Best maintainable target plus solver diagnostics.

    branch is "closed_form" above the alpha threshold, "root" below it,
    and "degenerate" when the instance forces pi_star = 1 outright
    (alpha == p_min, a flat price band, or alpha so near p_min that the
    root rounds to 1).  alpha_star is None on a flat band, and at
    alpha == p_min on a band too wide for a float threshold.  residual is
    |V(pi_star) - c|;
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
            # alpha is so far above the band that the worst-case total's lump underflows
            raise NoBracket(f"{what}: p_max / (alpha - p_max) = {lump} is below the normal floats")
        # lump / (lump - ln(1 + x)) with x = band / gap, band = p_max - p_min
        # and gap = alpha - p_max, is p_max / (p_min + band * x * s(x)) with
        # s(x) = (x - ln(1 + x)) / x^2, which does not cancel when alpha is far
        # above the band; in exact rationals but for s, it rounds once
        band, gap = Fraction(p_max) - Fraction(p_min), Fraction(alpha) - Fraction(p_max)
        s = Fraction(_x_minus_log1p_over_x2(float(band / gap)))
        pi = float(Fraction(p_max) / (Fraction(p_min) + band * band / gap * s))
        branch = "closed_form"
    else:
        # pi * ln((alpha - p_min) / (alpha - alpha / pi)) = 1 is, in u = 1 / pi and
        # d = 1 - p_min / alpha, (1 - u) e^u = d, or g(u) = -ln(d): p_max plays no part
        d = (alpha - p_min) / alpha
        if d <= math.exp(0.75) / 4.0:
            # pi* <= 4/3: w = 1 - u solves ln(w / d) = w - 1, concave in w, from below;
            # 1 + w / (1 - w) keeps the digits of pi - 1 that 1 / u loses.  Within
            # ulps of alpha = p_min the rounded bound can fall an ulp below pi*
            w = _monotone_newton(lambda w: (math.log(w / d) + 1.0 - w) * w / (1.0 - w), d / math.e)
            pi = min(1.0 + w / (1.0 - w), bound)
            if pi == 1.0:
                return RatioSolution(alpha_star, 1.0, "degenerate", bound, c)
        else:
            r = p_min / alpha
            if r < sys.float_info.min:
                raise NoBracket(f"{what}: p_min / alpha = {r} is below the normal floats")
            # g convex, from above: (1 - u) e^u <= e (1 - u) and g(u) >= u^2 / (2 - u)
            log_d = -math.log1p(-r)
            u = _monotone_newton(
                lambda u: (u * u * _x_minus_log1p_over_x2(-u) - log_d) * (1.0 - u) / u,
                min(1.0 - d / math.e, 4.0 * log_d / (log_d + math.sqrt(log_d * (log_d + 8.0)))))
            pi = 1.0 / u
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
