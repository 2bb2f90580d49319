"""Offline optima for a price prefix, one small mutable tracker per episode.

Without a per-slot cap the optimum charges the whole capacity at the
cheapest price seen (or abstains when dissatisfaction is cheaper).  With
the cap, the optimum fills the cheapest slots priced below alpha at full
rate, plus one fractional slot when capacity is not a whole number of
slots; everything else is paid as dissatisfaction.

Build one tracker per episode; path(prices) takes a run of slots and
returns the optimum of the prefix after each, and a later call goes on
from where the last one stopped.  step(price) is path on one price, and
the batch opt_rate_limited is the capped tracker's path, so the capped
value is computed in one place.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import NamedTuple

from .core import ProblemSpec, ValidationError


class NoLimitOptimum:
    """The uncapped optimum of each prefix, min(cheapest, alpha) * c.
    Rounding price * c is monotone in price, so the running minimum of
    the products is that value exactly."""

    def __init__(self, spec: ProblemSpec):
        self.capacity = spec.capacity_f
        self.opt = spec.alpha * self.capacity

    def path(self, prices) -> list[float]:
        """The optimum after each of prices, taken as the next slots."""
        capacity, opt = self.capacity, self.opt
        out = []
        for price in prices:
            scaled = price * capacity
            if scaled < opt:
                opt = scaled
            out.append(opt)
        self.opt = opt
        return out

    def step(self, price: float) -> float:
        return self.path((price,))[0]


class RateLimitedOptimum:
    """The capped optimum of each prefix.

    kept holds the prices of the cheapest slots priced below alpha, at
    most ceil(c) of them, ascending, and slots the slot index of each, in
    the same order.  Ties keep the earlier slot: the incoming slot is
    always the latest, so it enters a full kept set only when strictly
    cheaper than the last kept price, and it is placed after equal ones.

    The value is recomputed only when kept changes.  With c = num/den the
    first floor(c) kept prices are filled at rate 1, the one at rank
    floor(c) (if kept reaches it) at the remainder's fraction, and the
    need left unmet is paid at alpha; fsum rounds the sum once, so the
    value does not depend on the order the slots arrived in.
    """

    def __init__(self, spec: ProblemSpec):
        c = spec.capacity
        self.alpha = spec.alpha
        self.num, self.den = c.numerator, c.denominator
        self.whole = self.num // self.den
        self.frac = (self.num - self.whole * self.den) / self.den
        self.keep = math.ceil(c)
        self.kept: list[float] = []
        self.slots: list[int] = []
        self.t = 0  # slots seen
        self.opt = self.alpha * spec.capacity_f

    def path(self, prices) -> list[float]:
        """The optimum after each of prices, taken as the next slots.  At a
        whole capacity with kept full the unmet term is alpha * 0.0, so the
        value is fsum(kept) itself."""
        alpha, keep, whole, frac, num, den = self.alpha, self.keep, self.whole, self.frac, self.num, self.den
        kept, slots, opt, n = self.kept, self.slots, self.opt, len(self.kept)
        out = []
        for t, price in enumerate(prices, self.t):
            if price < alpha and (n < keep or price < kept[-1]):
                i = bisect_right(kept, price)
                kept.insert(i, price)
                slots.insert(i, t)
                if n == keep:
                    kept.pop()  # evict the most expensive, latest on price ties
                    slots.pop()
                else:
                    n += 1
                if n == keep and not frac:
                    opt = math.fsum(kept)
                else:
                    terms = kept[:whole]  # fill 1: price * 1.0 == price
                    if n > whole:
                        terms.append(kept[whole] * frac)
                    terms.append(alpha * (max(num - n * den, 0) / den))
                    opt = math.fsum(terms)
            out.append(opt)
        self.t += len(out)
        self.opt = opt
        return out

    def step(self, price: float) -> float:
        return self.path((price,))[0]


def opt_rate_limited(spec: ProblemSpec, prices) -> tuple[float, tuple[float, ...]]:
    """Optimal value and per-slot charges achieving it under the per-slot cap
    of 1: the capped tracker's final value, and each kept slot's fill."""
    tracker = RateLimitedOptimum(spec)
    tracker.path(prices)
    if tracker.t == 0:
        raise ValidationError("empty price prefix")
    v = [0.0] * tracker.t
    for rank, slot in enumerate(tracker.slots):
        v[slot] = 1.0 if rank < tracker.whole else tracker.frac
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
    opt = tracker.step(price)
    if tracker.t - 1 not in tracker.slots:
        return state
    return _OfflineSnapshot(tracker, tuple(tracker.kept), opt)
