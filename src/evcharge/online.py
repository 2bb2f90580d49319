"""Online charging policies, one small mutable object per episode.

Each policy's charge takes the current price (and, for lookahead
baselines, the next prices) and returns only the float charge it places
now.  Scoring, the running cost and the offline optimum belong to the
episode loop in `harness.runner`.  The target keeps each ratio policy's
total within its capacity, so `fixed` never clamps; `adaptive` and the
distributor sub-problems clamp their totals at the capacity only as a
guard against float error, and treat a clamp beyond that error as a bug.
"""

from __future__ import annotations

import heapq
import math
import sys
from fractions import Fraction
from typing import NamedTuple

from .core import InternalConsistencyError, ProblemSpec, ValidationError
from .ratio import solve_pi_star, solve_pi_t

SUB_CLAMP_TOL = 1e-9
# A charge divides by alpha - price, so its float error grows like
# eps * alpha * c / (alpha - price); adaptive's charges passed the capacity
# left by at most 2.1 times that on 12,000 random specs with
# alpha / p_min - 1 from 1e-12 to 300.
CHARGE_ERROR = 8 * sys.float_info.epsilon


class PolicyStep(NamedTuple):
    charge: float


NO_CHARGE = PolicyStep(0.0)  # immutable, so every step that charges nothing can share it


class Policy:
    """One episode of one policy; build a fresh one per episode."""

    lookahead_needed: int = 0

    def charge(self, price: float, lookahead: tuple[float, ...] = ()) -> float:
        """Take the next slot at price and return the charge placed in it."""
        raise NotImplementedError

    def step(self, price: float, lookahead: tuple[float, ...] = ()) -> PolicyStep:
        """charge, boxed; every zero charge is the shared NO_CHARGE (no policy
        charges -0.0).  Kept, with PolicyStep, while perfbench's replay calls
        it."""
        v = self.charge(price, lookahead)
        return PolicyStep(v) if v else NO_CHARGE


class FixedRatioPolicy(Policy):
    """Charge just enough to pull cost-so-far back to pi times the optimum.

    eta is the cost-so-far as if the window ended now and low the lowest
    price seen so far (alpha before any); the unlimited-rate optimum of the
    prefix is low times the capacity.  The optimum moves only when the
    price sets a new low, so the policy charges only then.
    """

    def __init__(self, spec: ProblemSpec, pi: float):
        self.alpha = self.low = spec.alpha
        self.pi = pi
        self.capacity = spec.capacity_f
        self.eta = spec.alpha * self.capacity
        self.charged = 0.0

    def charge(self, price, lookahead=()):
        if price >= self.low:
            return 0.0
        return self.charge_at_new_low(price, math.inf)

    def copy(self) -> FixedRatioPolicy:
        """A twin in the same state, for the members of a distributor group
        that split off.  Set attribute by attribute in `__init__`'s order,
        which keeps CPython's fast attribute path (`copy.copy` does not)."""
        twin = object.__new__(FixedRatioPolicy)
        twin.alpha, twin.low, twin.pi = self.alpha, self.low, self.pi
        twin.capacity, twin.eta, twin.charged = self.capacity, self.eta, self.charged
        return twin

    def charge_at_new_low(self, price: float, limit: float) -> float:
        """Take `price` as the new low and charge to bring eta down to pi times
        its optimum, keeping the total charged at most `limit`: inf for
        `fixed` on its own, and the capacity for `adaptive` and for a
        distributor sub-problem just assigned `price`.  The clamp is only a
        guard: the target leaves headroom, so a clamp beyond the larger of
        SUB_CLAMP_TOL and the charge's float error is a bug."""
        self.low = price
        gap = self.alpha - price
        excess = self.eta - price * self.capacity * self.pi
        v = excess / gap if excess > 0.0 else 0.0
        if self.charged + v > limit:
            room = limit - self.charged
            if v - room > max(SUB_CLAMP_TOL, CHARGE_ERROR * self.alpha * self.capacity / gap):
                raise InternalConsistencyError(f"overshoot {v - room} beyond remaining capacity")
            v = room if room > 0.0 else 0.0
        self.eta -= gap * v
        self.charged += v
        return v


class AdaptivePolicy(FixedRatioPolicy):
    """At each new low (a price below alpha and every earlier price),
    re-solve the tightest sustainable target, then step as the fixed
    policy with its total clamped at the capacity; `pi` is None until the
    first new low."""

    def __init__(self, spec: ProblemSpec):
        super().__init__(spec, None)
        self.spec = spec

    def charge(self, price, lookahead=()):
        if price >= self.low:
            return 0.0
        self.pi = solve_pi_t(self.spec, price, self.charged, self.eta)
        return self.charge_at_new_low(price, self.capacity)


class DistributorPolicy(Policy):
    """Capacity m/n split into m sub-problems, each the fixed policy on the
    spec at capacity 1/n (`make_policy` runs `fixed` itself when m <= n).

    Sub-problem i's held price mu is the price it last accepted, which is
    its `low` (alpha before any).  A price goes to the `fanout` = n
    sub-problems holding the highest prices above it, ties to the lowest
    index, and they are charged in that order; each accepted price is thus
    a new low of its sub-problem.

    Sub-problems that accepted the same prices are in the same state, so
    each run of consecutive indices in one state is held as one group:
    `held` is a heap of (-mu, first, size, sub), where `sub` is the state
    of indices first .. first + size - 1 (`first` is unique, so ties on mu
    never compare `sub`).  All sub-problems start as one group at alpha.
    A group larger than the fan-out left splits: its lowest indices are
    charged and the rest keep mu in a copy of the state.  Each group taken
    runs `charge_at_new_low` once, with its sub-problem's capacity as the
    limit, and its members' equal charges are added to the total one by
    one, in index order, so it rounds as a sum over the sub-problems would.
    """

    def __init__(self, spec: ProblemSpec, pi: float):
        m, n = spec.capacity.numerator, spec.capacity.denominator
        self.fanout = n
        self.held = [(-spec.alpha, 0, m, FixedRatioPolicy(spec._replace(capacity=Fraction(1, n)), pi))]

    def charge(self, price, lookahead=()):
        held = self.held
        if -held[0][0] <= price:
            return 0.0
        left = self.fanout
        total = 0.0
        # a group charged at `price` fails the `> price` test, so it can go
        # back on the heap before the next group is taken
        while left and -held[0][0] > price:
            neg, first, size, sub = held[0]
            if size > left:
                heapq.heapreplace(held, (neg, first + left, size - left, sub.copy()))
                heapq.heappush(held, (-price, first, left, sub))
                size = left
            else:
                heapq.heapreplace(held, (-price, first, size, sub))
            v = sub.charge_at_new_low(price, sub.capacity)
            if size == 1:  # every group at fan-out 1; spares building a range
                total += v
            else:
                for _ in range(size):
                    total += v
            left -= size
        return total


def rhc_step(remaining: float, price: float, lookahead: tuple[float, ...]) -> float:
    """Receding-horizon baseline: place the remaining need on the cheapest
    slots of the window (the current price, then the lookahead), and
    execute only the current slot.

    The window sub-problem ignores dissatisfaction, so a zero-lookahead
    window degenerates to charging at the maximum rate.
    """
    # the cheaper later slots, each at full rate, come before the current
    # one (which wins price ties); what they leave goes to the current slot
    left = remaining - sum(1 for p in lookahead if p < price) if lookahead else remaining
    if left <= 0.0:
        return 0.0
    return 1.0 if left >= 1.0 else left


def naive_threshold_step(remaining: float, price: float, spec: ProblemSpec) -> float:
    """Charge at full rate whenever the price is strictly below the band midpoint."""
    if remaining <= 0.0 or price >= 0.5 * (spec.p_min + spec.p_max):
        return 0.0
    return 1.0 if remaining >= 1.0 else remaining


class BaselinePolicy(Policy):
    """A baseline that only knows its remaining need: `rule(remaining,
    price, lookahead)` gives the charge for the slot, where the caller
    passes up to `lookahead_needed` upcoming prices."""

    def __init__(self, spec: ProblemSpec, rule, lookahead_needed: int = 0):
        self.rule = rule
        self.lookahead_needed = lookahead_needed
        self.remaining = spec.capacity_f

    def charge(self, price, lookahead=()):
        v = self.rule(self.remaining, price, lookahead)
        self.remaining -= v  # a rule's zero is a literal 0.0, and x - 0.0 is x
        return v


RATIO_POLICIES = ("fixed", "adaptive", "int", "rat")
# Policies that honour the per-slot cap are scored against the capped
# optimum; the unlimited-rate policies are scored against the uncapped one.
NO_LIMIT_POLICIES = ("fixed", "adaptive", "never")


def splitting_policy(capacity: Fraction) -> str:
    """The capacity-splitting policy: `fixed` at c <= 1, `int` at a whole c, else `rat`."""
    return "fixed" if capacity <= 1 else "int" if capacity.denominator == 1 else "rat"


def make_policy(name: str, spec: ProblemSpec) -> Policy:
    """Build a fresh episode policy; a ratio policy aims at the solved target."""
    pi = solve_pi_star(spec).pi_star if name in RATIO_POLICIES else None
    if name == "int" and spec.capacity.denominator != 1:
        raise ValidationError(
            f"integer-capacity policy got capacity {spec.capacity}; use the rational variant"
        )
    # the per-slot cap binds only above capacity 1; at or below it the
    # rate-limited policies are the unlimited-rate one
    if name in ("int", "rat") and spec.capacity > 1:
        return DistributorPolicy(spec, pi)
    if name in ("fixed", "int", "rat"):
        return FixedRatioPolicy(spec, pi)
    if name == "adaptive":
        return AdaptivePolicy(spec)
    if name.startswith("rhc:"):
        raw = name.split(":", 1)[1]
        try:
            horizon = int(raw)
        except ValueError:
            horizon = None
        # the name is the report label, so one horizon has one spelling
        if horizon is None or raw != str(horizon):
            raise ValidationError(
                f"bad lookahead horizon {raw!r} in policy {name!r}: expected a plain decimal integer"
            )
        if horizon < 0:
            raise ValidationError(f"lookahead horizon must be >= 0, got {horizon}")
        return BaselinePolicy(spec, rhc_step, horizon)
    if name == "naive":
        return BaselinePolicy(spec, lambda left, price, lookahead: naive_threshold_step(left, price, spec))
    if name == "never":
        return BaselinePolicy(spec, lambda left, price, lookahead: 0.0)
    raise ValidationError(f"unknown policy {name!r}")
