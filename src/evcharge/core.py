"""Problem data model: price-bounded charging with a dissatisfaction penalty.

An instance is a price band [p_min, p_max], a per-unit dissatisfaction
price alpha charged on unmet demand, and a battery capacity expressed in
units of the maximum per-slot charge.  Capacity is kept as an exact
rational so slot-counting logic never suffers float drift.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import NamedTuple

# Denominator cap used when a capacity arrives as a float (real-valued
# inputs are snapped to a nearby rational before any slot arithmetic).
MAX_CAPACITY_DENOMINATOR = 10_000


class EvChargeError(Exception):
    """Base class for all library errors."""


class ValidationError(EvChargeError, ValueError):
    """Bad input data or parameters; maps to CLI exit code 1."""


class InternalConsistencyError(EvChargeError):
    """A guarantee the code relies on was violated; maps to exit code 3."""


class ProblemSpec(NamedTuple):
    """Validated instance parameters.  Build via :func:`validate_spec`.

    Nothing reads slot_minutes: reports convert to kWh from the config's
    (slot_energy_kwh), and the policies work in normalized units.  It goes
    with ROADMAP item 1.
    """

    p_min: float
    p_max: float
    alpha: float
    capacity: Fraction
    slot_minutes: int = 5

    @property
    def theta(self) -> float:
        """Price fluctuation ratio p_max / p_min."""
        return self.p_max / self.p_min

    @property
    def capacity_f(self) -> float:
        # not cached: read once per episode, and per new low in `adaptive`
        return float(self.capacity)


def _as_fraction(capacity) -> Fraction:
    if isinstance(capacity, float):
        if not math.isfinite(capacity):
            raise ValidationError(f"capacity must be finite, got {capacity!r}")
        return Fraction(capacity).limit_denominator(MAX_CAPACITY_DENOMINATOR)
    try:
        return Fraction(capacity)
    except (ValueError, TypeError, ZeroDivisionError):
        raise ValidationError(f"capacity: expected a number or m/n, got {capacity!r}") from None


def validate_spec(p_min: float, p_max: float, alpha: float, capacity, slot_minutes: int = 5) -> ProblemSpec:
    """Check parameter sanity and return a normalized spec.

    Capacity accepts int, Fraction, "m/n" strings, or floats (floats are
    snapped to a rational with denominator <= 10**4).  A p_min below the
    smallest normal float is rejected, and so is alpha below p_min: the
    optimum there is to never charge, which makes every ratio question
    vacuous.  So is a spec whose alpha * c or p_max * c overflows a float.
    """
    p_min = float(p_min)
    p_max = float(p_max)
    alpha = float(alpha)
    if not (p_min >= sys.float_info.min) or not math.isfinite(p_max):
        # a subnormal band puts the threshold bracket on its pole
        raise ValidationError(f"price bounds must be finite and at least the smallest normal "
                              f"float {sys.float_info.min}, got [{p_min}, {p_max}]")
    if p_max < p_min:
        raise ValidationError(f"p_max={p_max} < p_min={p_min}")
    if not math.isfinite(alpha) or alpha < p_min:
        raise ValidationError(f"alpha={alpha} must be >= p_min={p_min}")
    cap = _as_fraction(capacity)
    if cap <= 0:
        raise ValidationError(f"capacity must be positive, got {cap}")
    try:
        c = float(cap)
    except OverflowError:
        c = math.inf
    for name, price in (("alpha", alpha), ("p_max", p_max)):
        # the largest cost and dissatisfaction an episode can accrue
        if not math.isfinite(price * c):
            raise ValidationError(f"{name} * capacity overflows a float: {name}={price}, capacity={cap}")
    if slot_minutes <= 0:
        raise ValidationError(f"slot_minutes must be positive, got {slot_minutes}")
    return ProblemSpec(p_min=p_min, p_max=p_max, alpha=alpha, capacity=cap, slot_minutes=int(slot_minutes))


class PriceTrace(tuple):
    """Per-slot prices for one charging window: a tuple of the prices."""

    __slots__ = ()

    @property
    def slots(self) -> tuple[float, ...]:
        return self

    @property
    def T(self) -> int:
        return len(self)
