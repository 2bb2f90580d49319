"""Offline optima for a price prefix, one small mutable tracker per episode.

Without a per-slot cap the optimum charges the whole capacity at the
cheapest price seen (or abstains when dissatisfaction is cheaper).  With
the cap, the optimum fills the cheapest slots priced below alpha at full
rate, plus one fractional slot when capacity is not a whole number of
slots; everything else is paid as dissatisfaction.

Both trackers are shaped like the policies: build one per episode and
call step(price) once per slot; it returns the optimum of the prefix so
far.  The batch opt_rate_limited feeds its prices through the capped
tracker, so the capped value is computed in one place.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import NamedTuple

from .core import ProblemSpec


class NoLimitOptimum:
    """The uncapped optimum of each prefix, min(cheapest, alpha) * c.
    Rounding price * c is monotone in price, so the running minimum of
    the products is that value exactly."""

    def __init__(self, spec: ProblemSpec):
        self.capacity = spec.capacity_f
        self.opt = spec.alpha * self.capacity

    def step(self, price: float) -> float:
        scaled = price * self.capacity
        if scaled < self.opt:
            self.opt = scaled
        return self.opt


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

    def admit(self, price: float) -> bool:
        """Take the next slot into kept if it belongs there; True when kept
        changed (every admitted slot changes it)."""
        slot = self.t
        self.t = slot + 1
        kept = self.kept
        if not (price < self.alpha and (len(kept) < self.keep or price < kept[-1])):
            return False
        i = bisect_right(kept, price)
        kept.insert(i, price)
        self.slots.insert(i, slot)
        if len(kept) > self.keep:
            kept.pop()  # evict the most expensive, latest on price ties
            self.slots.pop()
        return True

    def value(self) -> float:
        """fsum of each kept price times its fill, plus alpha * unmet need."""
        kept, whole = self.kept, self.whole
        terms = kept[:whole]  # fill 1: price * 1.0 == price
        if len(kept) > whole:
            terms.append(kept[whole] * self.frac)
        unmet = max(self.num - len(kept) * self.den, 0) / self.den
        terms.append(self.alpha * unmet)
        return math.fsum(terms)

    def step(self, price: float) -> float:
        if self.admit(price):
            self.opt = self.value()
        return self.opt


def opt_rate_limited(spec: ProblemSpec, prices) -> tuple[float, tuple[float, ...]]:
    """Optimal value and per-slot charges achieving it under the per-slot cap
    of 1: the capped tracker's final value, and each kept slot's fill."""
    tracker = RateLimitedOptimum(spec)
    for price in prices:
        tracker.admit(price)
    if tracker.t == 0:
        raise ValueError("empty price prefix")
    v = [0.0] * tracker.t
    for rank, slot in enumerate(tracker.slots):
        v[slot] = 1.0 if rank < tracker.whole else tracker.frac
    return tracker.value(), tuple(v)


# Compatibility for perfbench/layers.replay_offline, which still streams
# through these and counts the steps whose .kept differs from the last
# one's.  Delete them when the benchmark moves to RateLimitedOptimum.step.
class _OfflineSnapshot(NamedTuple):
    tracker: RateLimitedOptimum
    kept: tuple[float, ...]
    opt_value: float


def new_offline_state(spec: ProblemSpec) -> _OfflineSnapshot:
    tracker = RateLimitedOptimum(spec)
    return _OfflineSnapshot(tracker, (), tracker.opt)


def offline_step(state: _OfflineSnapshot, price: float) -> _OfflineSnapshot:
    """Step state's tracker; a new snapshot only when its kept set changed."""
    tracker = state.tracker
    if not tracker.admit(price):
        return state
    tracker.opt = tracker.value()
    return _OfflineSnapshot(tracker, tuple(tracker.kept), tracker.opt)
