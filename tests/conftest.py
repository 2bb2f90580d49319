"""Shared helpers: spec builders, trace generators, policy drivers."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
from hypothesis import settings

from evcharge.core import ProblemSpec, validate_spec
from evcharge.online import PolicyStep, make_policy

# The same examples on every run, whatever an example database holds, and
# no per-example deadline, which a CPU running at half speed would trip.
settings.register_profile("tier1", derandomize=True, database=None, max_examples=100,
                          deadline=None)
settings.load_profile("tier1")


def spec_of(p_min=1.0, p_max=5.0, alpha=5.0, capacity=1) -> ProblemSpec:
    return validate_spec(p_min, p_max, alpha, capacity)


def drive(policy_name: str, spec: ProblemSpec, prices, pi=None) -> list[PolicyStep]:
    """Step a fresh policy down a price list and collect every output."""
    runner = make_policy(policy_name, spec, pi=pi)
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


def sub_opt_sum(policy) -> float:
    """Sum of a distributor's sub-problem optima."""
    return math.fsum(s.opt for s in policy.subs)


def held_prices(policy) -> list[float]:
    """A distributor's held prices by sub-problem index, read off its heap."""
    mu = [0.0] * len(policy.held)
    for neg, i in policy.held:
        mu[i] = -neg
    return mu


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
