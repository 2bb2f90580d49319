"""Offline optima for a price prefix.

Without a per-slot cap the optimum charges the whole capacity at the
cheapest price seen (or abstains when dissatisfaction is cheaper), one
value per prefix.  With the cap, the optimum fills the cheapest slots
priced below alpha at full rate, plus one fractional slot when capacity
is not a whole number of slots; everything else is paid as
dissatisfaction.  The capped optimum comes in batch and streaming form,
both reading the fill amounts from a FillTable, so they are bit-identical.
"""

from __future__ import annotations

import math
from bisect import insort
from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction

from .core import ProblemSpec


class FillTable:
    """The capped optimum's fill amounts for capacity c, as floats.

    fills[k] = min(c - k, 1) is the charge of the (k+1)-th cheapest kept
    slot and unmet[k] = max(c - k, 0) the need left after k fills, each an
    exact integer over c's denominator until one correctly rounded division
    (as float() of the Fraction).  Entries are added as the kept set grows,
    never past keep = ceil(c), so a huge c costs no more than the horizon.
    """

    def __init__(self, capacity: Fraction):
        self.num, self.den = capacity.numerator, capacity.denominator
        self.keep = math.ceil(capacity)
        self.fills: list[float] = []
        self.unmet = [float(capacity)]

    def value(self, alpha: float, kept) -> float:
        """fsum of price * fill over kept (ascending), plus alpha * unmet need.
        First tabulates any fills kept reaches that are not yet in the table."""
        for k in range(len(self.fills), len(kept)):
            left = self.num - k * self.den  # (c - k) * den
            self.fills.append(min(left, self.den) / self.den)
            self.unmet.append(max(left - self.den, 0) / self.den)
        terms = [price * q for (price, _), q in zip(kept, self.fills)]
        terms.append(alpha * self.unmet[len(kept)])
        return math.fsum(terms)


def opt_rate_limited(spec: ProblemSpec, prices) -> tuple[float, tuple[float, ...]]:
    """Optimal value and per-slot charges achieving it under the per-slot cap of 1."""
    slots = list(prices)
    if not slots:
        raise ValueError("empty price prefix")
    fill = FillTable(spec.capacity)
    kept = sorted((p, i) for i, p in enumerate(slots) if p < spec.alpha)[: fill.keep]
    value = fill.value(spec.alpha, kept)
    v = [0.0] * len(slots)
    for (_, slot), q in zip(kept, fill.fills):
        v[slot] = q
    return value, tuple(v)


@dataclass(frozen=True)
class OfflineState:
    """Streaming tracker for the capped optimum over a growing prefix.

    kept holds the (price, slot) pairs of the cheapest slots priced below
    alpha, at most ceil(capacity) of them, ascending; ties keep the earlier
    slot.  The capped value is computed from kept with the episode's
    FillTable whenever kept changes, so it equals opt_rate_limited's bit
    for bit.
    """

    spec: ProblemSpec
    t: int
    kept: tuple[tuple[float, int], ...]
    opt_value: float
    fill: FillTable = field(compare=False, repr=False)


def new_offline_state(spec: ProblemSpec) -> OfflineState:
    return OfflineState(
        spec=spec,
        t=0,
        kept=(),
        opt_value=spec.alpha * spec.capacity_f,
        fill=FillTable(spec.capacity),
    )


def offline_step(state: OfflineState, price: float) -> OfflineState:
    """Advance the prefix by one slot.

    The capped value is recomputed only when the slot enters kept: priced
    below alpha, and kept not yet full or the slot cheaper than its last
    pair.  Otherwise kept, and so the value, is unchanged."""
    spec, fill = state.spec, state.fill
    slot = state.t  # 0-based index of the incoming slot
    kept, opt_value = state.kept, state.opt_value
    if price < spec.alpha and (len(kept) < fill.keep or (price, slot) < kept[-1]):
        buf = list(kept)
        insort(buf, (price, slot))
        if len(buf) > fill.keep:
            buf.pop()  # evict the most expensive, latest on price ties
        kept = tuple(buf)
        opt_value = fill.value(spec.alpha, kept)
    return OfflineState(
        spec=spec,
        t=slot + 1,
        kept=kept,
        opt_value=opt_value,
        fill=fill,
    )


def opt_rate_limited_stream(spec: ProblemSpec, prices) -> Iterator[float]:
    """opt_rate_limited's value for each prefix of prices, streamed."""
    state = new_offline_state(spec)
    for price in prices:
        state = offline_step(state, price)
        yield state.opt_value


def opt_no_limit_stream(spec: ProblemSpec, prices) -> Iterator[float]:
    """The uncapped optimum of each prefix of prices.  Rounding price * c is
    monotone in price, so each value is min(cheapest, alpha) * c exactly."""
    c = spec.capacity_f
    opt = spec.alpha * c
    for price in prices:
        opt = min(opt, price * c)
        yield opt
