"""Offline optima for a price prefix, one small mutable tracker per episode.

With the per-slot cap, the optimum fills the cheapest slots priced below
alpha at full rate, plus one fractional slot when capacity is not a whole
number of slots; everything else is paid as dissatisfaction.  Without the
cap it charges the whole capacity at the cheapest price seen (or abstains
when dissatisfaction is cheaper): the capped optimum at capacity 1, times c.

Build one tracker per episode; path(prices) takes a run of slots and
returns the optimum of the prefix after each, and a later call goes on
from where the last one stopped.  optimum_path builds either kind of path
from it, and the batch opt_rate_limited is the tracker's path, so the
value is computed in one place.
"""

from __future__ import annotations

import math
from bisect import insort
from fractions import Fraction
from typing import NamedTuple

from .core import ProblemSpec, ValidationError


class RateLimitedOptimum:
    """The capped optimum of each prefix.

    kept holds the prices of the cheapest slots priced below alpha, at
    most ceil(c) of them, ascending.  Ties keep the earlier slot: the
    incoming slot is always the latest, so it enters a full kept set only
    when strictly cheaper than the last kept price, and it is placed after
    equal ones.

    With c = num/den the first floor(c) kept prices are filled at rate 1,
    the one at rank floor(c) (if kept reaches it) at the remainder's
    fraction, and the need left unmet is paid at alpha.  The value is the
    exact sum of those terms rounded once, the bits one fsum over them
    gives, so it does not depend on the order the slots arrived in.

    Every float is a whole multiple of its ulp, so while it can, the
    tracker holds kept's sum exactly as an int, total, in units of 2**e,
    and a change to kept costs O(1): add the new price, subtract the
    evicted one.  e is k bits below the ulp of p_min's binade, where
    2**-k <= 1/den, so the fractional fill and the unmet term are whole
    units too.  A price x in [floor, alpha), with floor the bottom of that
    binade, converts as int(x * inv) and units back as float(units) *
    scale, both exact.  When p_min's units would leave the float range,
    and from the first kept price below floor (a finer binade, zero or a
    negative price) on, scale is 0.0 and each change to kept computes the
    value from its definition, one fsum over the terms: O(min(n, floor(c)))
    per change instead of O(1).
    """

    def __init__(self, spec: ProblemSpec):
        c = spec.capacity
        self.alpha = spec.alpha
        self.num, self.den = c.numerator, c.denominator
        self.whole = self.num // self.den
        self.frac = (self.num - self.whole * self.den) / self.den
        self.keep = math.ceil(c)
        self.kept: list[float] = []
        self.opt = self.alpha * spec.capacity_f
        self.total = 0
        k = (self.den - 1).bit_length()
        e = math.frexp(spec.p_min)[1] - 53 - k
        # every nonzero multiple of a normal 2**e is a normal float, and
        # kept's sum and the unmet term stay below alpha * (c + 1)
        if -1022 <= e <= 0 and self.alpha * (spec.capacity_f + 1.0) < math.ldexp(1.0, e + 1022):
            self.inv, self.scale = math.ldexp(1.0, -e), math.ldexp(1.0, e)
            self.floor = math.ldexp(1.0, e + k + 52)
        else:
            self.inv, self.scale, self.floor = 0.0, 0.0, math.inf

    def _value(self, n: int) -> float:
        """The optimum when kept is n prices long, from its definition."""
        kept, whole = self.kept, self.whole
        return math.fsum([*kept[:whole], *(top * self.frac for top in kept[whole:]),
                          self.alpha * (max(self.num - n * self.den, 0) / self.den)])

    def path(self, prices) -> list[float]:
        """The optimum after each of prices, taken as the next slots.  While
        kept fills, only the unmet term joins total; once it is full, the
        top price takes the fraction and nothing is unmet, and at a whole
        capacity the value is total's nearest float."""
        alpha, keep, frac, num, den = self.alpha, self.keep, self.frac, self.num, self.den
        kept, n, total, opt = self.kept, len(self.kept), self.total, self.opt
        inv, scale, floor = self.inv, self.scale, self.floor
        out = []
        for price in prices:
            if price < alpha and (n < keep or price < kept[-1]):
                full = n == keep
                if floor <= price:  # in floor's binade or above: price * inv is exact
                    total += int(price * inv) - (int(kept[-1] * inv) if full else 0)
                else:  # below floor: the value from its definition from here on
                    scale, floor = 0.0, math.inf
                insort(kept, price)
                if full:
                    kept.pop()  # evict the most expensive, latest on price ties
                else:
                    n += 1
                if not scale:
                    opt = self._value(n)
                elif n < keep:
                    opt = float(total + int(alpha * ((num - n * den) / den) * inv)) * scale
                elif frac:
                    top = kept[-1]
                    opt = float(total + int(top * frac * inv) - int(top * inv)) * scale
                else:
                    opt = float(total) * scale
            out.append(opt)
        self.total, self.opt, self.scale, self.floor = total, opt, scale, floor
        return out


def optimum_path(spec: ProblemSpec, prices, capped: bool) -> list[float]:
    """The optimum of each prefix of prices, capped at one unit a slot or
    not.  Uncapped, it is the capped optimum at capacity 1, min(cheapest,
    alpha), times c: rounding is monotone, so one product rounds it as the
    running minimum of price * c would.  Adding 0.0 makes a zero +0.0, as
    the capped optimum's fsum does."""
    if capped:
        return RateLimitedOptimum(spec).path(prices)
    c = spec.capacity_f
    return [opt * c + 0.0 for opt in RateLimitedOptimum(spec._replace(capacity=Fraction(1))).path(prices)]


def opt_rate_limited(spec: ProblemSpec, prices) -> tuple[float, tuple[float, ...]]:
    """Optimal value and per-slot charges achieving it under the per-slot cap
    of 1: the capped tracker's final value, and the fill of each slot in
    its final kept set.  Every slot priced below the last kept price is
    kept, and so are the earliest slots priced at it, as many as kept
    holds; the latest of those is the one at rank floor(c)."""
    prices = tuple(prices)
    tracker = RateLimitedOptimum(spec)
    if not tracker.path(prices):
        raise ValidationError("empty price prefix")
    kept = tracker.kept
    v = [0.0] * len(prices)
    if kept:
        top, ties = kept[-1], kept.count(kept[-1])
        for t, price in enumerate(prices):
            if price < top or price == top and ties:
                v[t] = 1.0
                if price == top:
                    ties, last = ties - 1, t
        if len(kept) > tracker.whole:
            v[last] = tracker.frac
    return tracker.opt, tuple(v)


# Compatibility for perfbench/layers.replay_offline, which still streams
# through these and counts the steps whose .kept differs from the last
# one's.  ROADMAP item 1 deletes them with the move to RateLimitedOptimum.
class _OfflineSnapshot(NamedTuple):
    tracker: RateLimitedOptimum
    kept: tuple[float, ...]
    opt_value: float


def new_offline_state(spec: ProblemSpec) -> _OfflineSnapshot:
    tracker = RateLimitedOptimum(spec)
    return _OfflineSnapshot(tracker, (), tracker.opt)


def offline_step(state: _OfflineSnapshot, price: float) -> _OfflineSnapshot:
    """Step state's tracker; a new snapshot only when its kept set changed,
    that is when the slot just seen entered kept."""
    tracker = state.tracker
    opt = tracker.path((price,))[0]
    kept = tuple(tracker.kept)
    return state if kept == state.kept else _OfflineSnapshot(tracker, kept, opt)
