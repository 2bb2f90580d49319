"""Shared helpers: spec builders, trace generators, policy drivers."""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
from hypothesis import settings, strategies as st

from evcharge.core import ProblemSpec, validate_spec
from evcharge.online import PolicyStep, make_policy

# The same examples on every run, whatever an example database holds, and
# no per-example deadline, which a CPU running at half speed would trip.
settings.register_profile("tier1", derandomize=True, database=None, max_examples=100,
                          deadline=None)
settings.load_profile("tier1")


def spec_of(p_min=1.0, p_max=5.0, alpha=5.0, capacity=1) -> ProblemSpec:
    return validate_spec(p_min, p_max, alpha, capacity)


def _log_uniform(lo_exp: float, hi_exp: float):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0**e)


def _domain_spec(p_min, band, headroom, capacity):
    return spec_of(p_min, p_min * (1 + band), p_min * (1 + headroom), capacity)


def domain_specs(capacities=st.just(1)):
    """Specs with p_min in [1e-2, 1e2], p_max / p_min in [1 + 1e-6, 1 + 1e2]
    and alpha / p_min in [1 + 1e-8, 1 + 1e4], at a capacity drawn from
    `capacities`."""
    return st.builds(_domain_spec, _log_uniform(-2, 2), _log_uniform(-6, 2), _log_uniform(-8, 4),
                     capacities)


def _bisect_decreasing(f, lo: Decimal, hi: Decimal) -> Decimal:
    """Root of a decreasing f with f(lo) > 0 > f(hi), to 1e-25 of hi."""
    while hi - lo > hi * Decimal("1e-25"):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if f(mid) > 0 else (lo, mid)
    return (lo + hi) / 2


def root_pi_star_oracle(spec: ProblemSpec) -> Decimal:
    """pi* below alpha*: the root of pi ln((alpha - p_min) / (alpha - alpha/pi))
    = 1, bisected on (1, sqrt(alpha / p_min)] in 50-digit decimal from the
    spec's exact float values.  alpha - alpha/pi cancels at most the digits
    of 1/(pi - 1), 16 at pi - 1 = 1e-16."""
    alpha, p_min = map(Decimal, (spec.alpha, spec.p_min))
    with localcontext() as ctx:
        ctx.prec = 50
        return _bisect_decreasing(lambda pi: pi * ((alpha - p_min) / (alpha - alpha / pi)).ln() - 1,
                                  Decimal(1), (alpha / p_min).sqrt())


def alpha_star_oracle(spec: ProblemSpec) -> Decimal:
    """alpha*: the root of (a / p_max) ln((a - p_min) / (a - p_max)) = 1,
    which falls from +inf at a = p_max, bisected in 50-digit decimal from the
    spec's exact float values after doubling a from 2 p_max until it turns
    negative.  a - p_max cancels at most the digits of p_max / (p_max - p_min)."""
    p_min, p_max = map(Decimal, (spec.p_min, spec.p_max))
    with localcontext() as ctx:
        ctx.prec = 50

        def f(a):
            return a / p_max * ((a - p_min) / (a - p_max)).ln() - 1

        hi = 2 * p_max
        while f(hi) > 0:
            hi *= 2
        return _bisect_decreasing(f, p_max, hi)


def closed_form_pi_star_oracle(spec: ProblemSpec) -> Decimal:
    """pi* above alpha*: lump / (lump - ln(1 + x)), lump = p_max / (alpha - p_max)
    and x = (p_max - p_min) / (alpha - p_max), in decimal from the spec's exact
    float values.  1 + x is held with 60 digits beyond x's leading one, and
    the difference cancels at most log10(pi*) <= 12 of them."""
    alpha, p_max, p_min = map(Decimal, (spec.alpha, spec.p_max, spec.p_min))
    with localcontext() as ctx:
        ctx.prec = 60
        x = (p_max - p_min) / (alpha - p_max)
        ctx.prec += max(0, -x.adjusted())
        lump = p_max / (alpha - p_max)
        return lump / (lump - (1 + x).ln())


def relative_miss(value: float, oracle: Decimal) -> float:
    return float(abs((Decimal(value) - oracle) / oracle))


# Largest relative misses of the solver against the oracles above, each
# measured over tens of thousands of generated specs: 1.9e-16 for the closed
# form (60k specs), 2.9e-16 for the root branch (40k) and 5.0e-16 for alpha*
# (40k bands with p_max / p_min - 1 from 1e-13 to 1e8)
CLOSED_FORM_BOUND = 4e-16
ROOT_BOUND = 4e-16
ALPHA_STAR_BOUND = 7e-16


def drive(policy_name: str, spec: ProblemSpec, prices) -> list[PolicyStep]:
    """Step a fresh policy down a price list and collect every output."""
    runner = make_policy(policy_name, spec)
    out = []
    prices = list(prices)
    for t, p in enumerate(prices):
        look = tuple(prices[t + 1 : t + 1 + runner.lookahead_needed])
        out.append(runner.step(p, look))
    return out


def total_charge(steps: list[PolicyStep]) -> float:
    return math.fsum(s.charge for s in steps)


def eta_path(spec: ProblemSpec, prices, steps: list[PolicyStep]) -> list[float]:
    """Cost-so-far after each slot, as if the window ended there, derived
    from the charges: it starts at alpha * c and each charge v at price p
    lowers it by (alpha - p) * v."""
    eta = spec.alpha * spec.capacity_f
    out = []
    for p, s in zip(prices, steps):
        eta -= (spec.alpha - p) * s.charge
        out.append(eta)
    return out


def opt_no_limit_path(spec: ProblemSpec, prices) -> list[float]:
    """Unlimited-rate optimum of each prefix, in closed form."""
    low = math.inf
    out = []
    for p in prices:
        low = min(low, p)
        out.append(min(low, spec.alpha) * spec.capacity_f)
    return out


def capped_optimum_reference(spec: ProblemSpec, prices) -> tuple[float, list[float]]:
    """Independent capped optimum of a price list, as (value, schedule).

    Keeps the ceil(c) cheapest (price, slot) pairs priced below alpha,
    earlier slot first on ties; the k-th (from 0) takes min(c - k, 1) and
    the need left, max(c - kept, 0), is paid at alpha, each amount exact
    in Fraction until one rounding to float.  One fsum adds every term.
    """
    c = spec.capacity
    kept = sorted((p, i) for i, p in enumerate(prices) if p < spec.alpha)[: math.ceil(c)]
    fills = [float(min(c - k, Fraction(1))) for k in range(len(kept))]
    unmet = float(max(c - len(kept), Fraction(0)))
    value = math.fsum([p * q for (p, _), q in zip(kept, fills)] + [spec.alpha * unmet])
    schedule = [0.0] * len(prices)
    for (_, slot), q in zip(kept, fills):
        schedule[slot] = q
    return value, schedule


def sub_problems(policy) -> list[tuple[float, object]]:
    """A distributor's (held price, sub-problem state) for each sub-problem
    index, its groups expanded: the members of a group share one state.
    A policy without groups (`int`/`rat` at capacity <= 1 are `fixed`) is
    its own one sub-problem, held at its low."""
    if not hasattr(policy, "held"):
        return [(policy.low, policy)]
    out = [None] * sum(size for _, _, size, _ in policy.held)
    for neg, first, size, sub in policy.held:
        out[first : first + size] = [(-neg, sub)] * size
    return out


def sub_opt_sum(policy) -> float:
    """Sum of a distributor's sub-problem optima, each its low times its capacity."""
    return math.fsum(sub.low * sub.capacity for _, sub in sub_problems(policy))


def held_prices(policy) -> list[float]:
    """A distributor's held prices by sub-problem index."""
    return [mu for mu, _ in sub_problems(policy)]


def random_prices(rng: np.random.Generator, spec: ProblemSpec, T: int) -> list[float]:
    """Mixed-shape price path inside the spec band: iid, descending, or piecewise."""
    lo, hi = spec.p_min, spec.p_max
    kind = rng.integers(0, 3)
    if kind == 0:
        vals = np.exp(rng.uniform(np.log(lo), np.log(hi), size=T))
    elif kind == 1:
        vals = np.geomspace(rng.uniform(0.5 * (lo + hi), hi), rng.uniform(lo, 0.5 * (lo + hi)), T)
        vals = vals * rng.uniform(0.98, 1.02, size=T)
    else:
        n_seg = int(rng.integers(1, 5))
        levels = rng.uniform(lo, hi, size=n_seg)
        vals = np.repeat(levels, int(np.ceil(T / n_seg)))[:T]
    return [float(x) for x in np.clip(vals, lo, hi)]


def lattice_optimum(spec: ProblemSpec, prices, step: int = 8) -> float:
    """Independent offline oracle: exact DP over charge amounts on a 1/step grid.

    States count grid units charged so far; each slot may add 0..step units.
    Valid as an equality oracle whenever capacity sits on the grid.
    """
    units = int(spec.capacity * step)
    assert units == spec.capacity * step, "capacity must sit on the lattice"
    inf = math.inf
    cost = [0.0] + [inf] * units
    for p in prices:
        nxt = list(cost)
        for s in range(1, units + 1):
            lo = max(0, s - step)
            best = min(cost[q] + p * (s - q) / step for q in range(lo, s))
            if best < nxt[s]:
                nxt[s] = best
        cost = nxt
    cap = spec.capacity_f
    return min(cost[s] + spec.alpha * (cap - s / step) for s in range(units + 1) if cost[s] < inf)


def decreasing_prices(rng: np.random.Generator, lo: float, start: float, T: int) -> list[float]:
    """Strictly decreasing path from just under `start` down to `lo`."""
    top = start * (1.0 - 1e-9)
    if T == 1:
        return [top]
    cuts = np.sort(rng.uniform(lo, top, size=T - 2))[::-1] if T > 2 else np.empty(0)
    vals = np.concatenate(([top], cuts, [lo]))
    # enforce strict decrease in case of duplicate draws
    for i in range(1, len(vals)):
        if vals[i] >= vals[i - 1]:
            vals[i] = np.nextafter(vals[i - 1], 0.0)
    return [float(x) for x in vals]
