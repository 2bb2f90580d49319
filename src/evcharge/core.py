"""Problem data model: price-bounded charging with a dissatisfaction penalty.

An instance is a price band [p_min, p_max], a per-unit dissatisfaction
price alpha charged on unmet demand, and a battery capacity expressed in
units of the maximum per-slot charge.  Capacity is kept as an exact
rational so slot-counting logic never suffers float drift.
"""

from __future__ import annotations

import math
import sys
from decimal import Decimal
from fractions import Fraction
from typing import NamedTuple

# Denominator cap on a capacity: a float one is snapped to a nearby rational
# under it before any slot arithmetic, and a text one above it is refused.
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
    (slot_energy_kwh), and the policies work in normalized units.  It stays
    while perfbench's pipeline passes it to validate_spec.
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


def objective_parts(spec: ProblemSpec, cost_terms, unmet: float) -> tuple[float, float]:
    """An episode's charging cost, the exact sum of its price * charge terms,
    and its dissatisfaction, alpha times the unmet need; their sum is the objective."""
    return math.fsum(cost_terms), max(0.0, spec.alpha * unmet)


def _as_fraction(capacity) -> Fraction:
    if isinstance(capacity, float):
        if not math.isfinite(capacity):
            raise ValidationError(f"capacity must be finite, got {capacity!r}")
        return Fraction(capacity).limit_denominator(MAX_CAPACITY_DENOMINATOR)
    try:
        value = capacity
        if isinstance(capacity, str) and "/" not in capacity:
            # Fraction would expand any exponent; below 10**-5 and past 10**309 sign and side decide
            value = Decimal(capacity)
            if value.is_finite() and value and not -5 <= value.adjusted() <= 309:
                value = Decimal(1).scaleb(-6 if value.adjusted() < 0 else 310).copy_sign(value)
        cap = Fraction(value)
    except (ValueError, TypeError, ArithmeticError):
        raise ValidationError(f"capacity: expected a number or m/n, got {capacity!r}") from None
    if isinstance(capacity, str) and cap.denominator > MAX_CAPACITY_DENOMINATOR:
        raise ValidationError(f"capacity {capacity}: its denominator is above {MAX_CAPACITY_DENOMINATOR}")
    return cap


def _named(capacity, cap: Fraction) -> str:
    """capacity as given, or, past the int-to-text digit limit, its sign
    and rough size: str would raise a plain ValueError."""
    try:
        return str(capacity)
    except ValueError:
        size = math.log10(abs(cap.numerator)) - math.log10(cap.denominator)
        return f"about {'-' if cap < 0 else ''}10**{round(size)}"


def validate_spec(p_min: float, p_max: float, alpha: float, capacity, slot_minutes: int = 5) -> ProblemSpec:
    """Check parameter sanity and return a normalized spec.

    Capacity accepts int or Fraction, text (a decimal or "m/n", read
    exactly, whose denominator must be <= 10**4) or a float, snapped to a
    rational with denominator <= 10**4.  A p_min below the smallest normal
    float is rejected, and so is alpha below p_min: the optimum there is
    to never charge, which makes every ratio question vacuous.  So is a
    spec whose alpha * c or p_max * c overflows a float.
    """
    p_min = float(p_min)
    p_max = float(p_max)
    alpha = float(alpha)
    if not (p_min >= sys.float_info.min) or not math.isfinite(p_max):
        # a subnormal price carries fewer digits than the ratio solver's roots need
        raise ValidationError(f"price bounds must be finite and at least the smallest normal "
                              f"float {sys.float_info.min}, got [{p_min}, {p_max}]")
    if p_max < p_min:
        raise ValidationError(f"p_max={p_max} < p_min={p_min}")
    if not math.isfinite(alpha) or alpha < p_min:
        raise ValidationError(f"alpha={alpha} must be >= p_min={p_min}")
    cap = _as_fraction(capacity)
    if cap <= 0:
        raise ValidationError(f"capacity must be positive, got {_named(capacity, cap)}")
    try:
        c = float(cap)
    except OverflowError:
        c = math.inf
    if c == 0.0:
        raise ValidationError(f"capacity {_named(capacity, cap)} rounds to 0.0 as a float")
    for name, price in (("alpha", alpha), ("p_max", p_max)):
        # the largest cost and dissatisfaction an episode can accrue
        if not math.isfinite(price * c):
            raise ValidationError(f"{name} * capacity overflows a float: {name}={price}, "
                                  f"capacity={_named(capacity, cap)}")
    if slot_minutes <= 0:
        raise ValidationError(f"slot_minutes must be positive, got {slot_minutes}")
    return ProblemSpec(p_min=p_min, p_max=p_max, alpha=alpha, capacity=cap, slot_minutes=int(slot_minutes))


class PriceTrace(tuple):
    """Per-slot prices for one charging window: a tuple of the prices."""

    __slots__ = ()

    @property
    def slots(self) -> tuple[float, ...]:
        return self
