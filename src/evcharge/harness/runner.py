"""Episode execution: step a policy down a trace and score it."""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..core import (
    InternalConsistencyError,
    PriceTrace,
    ProblemSpec,
    validate_spec,
)
from ..offline import NoLimitOptimum, RateLimitedOptimum
from ..online import NO_LIMIT_POLICIES, RATIO_POLICIES, make_policy
from ..ratio import solve_pi_star
from .config import ExperimentConfig
from .ingest import Calibration

RATIO_GUARD_TOL = 1e-6


@dataclass(frozen=True)
class EpisodeRow:
    date: str
    policy: str
    target_ratio: float | None
    charging_cost: float
    dissatisfaction: float
    objective: float
    ratio: float
    charged_units: float
    charged_fraction: float
    charged_kwh: float


# Not frozen: a frozen __init__ sets every field through object.__setattr__,
# and one row is built per slot.  Nothing mutates it.
@dataclass(slots=True)
class SlotRow:
    date: str
    policy: str
    slot: int
    price: float
    charge: float
    eta: float
    opt: float
    ratio: float


def spec_from_calibration(cfg: ExperimentConfig, calib: Calibration) -> ProblemSpec:
    alpha = cfg.alpha if cfg.alpha is not None else cfg.alpha_factor * calib.p_min
    return validate_spec(calib.p_min, calib.p_max, alpha, cfg.capacity, cfg.slot_minutes)


def slot_energy_kwh(cfg: ExperimentConfig) -> float:
    """kWh delivered by one slot at full rate; converts normalized units."""
    return cfg.charger_kw * cfg.slot_minutes / 60.0


def run_episode(
    cfg: ExperimentConfig,
    spec: ProblemSpec,
    trace: PriceTrace,
    policy: str,
    date: str = "",
    collect_slots: bool = True,
) -> tuple[EpisodeRow, list[SlotRow]]:
    """Run one policy over one window and score it against the offline optimum.

    Returns the episode's row and its per-slot rows; with collect_slots
    False, only the last slot's row (whose opt is the whole window's).
    The four ratio policies are also guarded online: if their running cost
    ever exceeds the target times the optimum the run aborts, because that
    can only happen through an implementation bug.
    """
    if trace.T == 0:
        raise InternalConsistencyError("cannot run a zero-slot episode")
    runner = make_policy(policy, spec)
    guard = policy in RATIO_POLICIES
    target = solve_pi_star(spec).pi_star if guard else None
    prices = trace.slots
    if policy in NO_LIMIT_POLICIES:
        opt_step, rate_cap = NoLimitOptimum(spec).step, math.inf
    else:
        opt_step, rate_cap = RateLimitedOptimum(spec).step, 1.0 + 1e-9

    alpha, cap = spec.alpha, spec.capacity_f
    eta = alpha * cap
    charged = 0.0
    cost_terms: list[float] = []
    slots: list[SlotRow] = []
    for t, price in enumerate(prices):
        look = prices[t + 1 : t + 1 + runner.lookahead_needed]
        out = runner.step(price, look)
        opt = opt_step(price)
        v = out.charge
        if v < -1e-12 or v > rate_cap:
            raise InternalConsistencyError(f"{policy}: slot charge {v} out of range at t={t}")
        charged += v
        eta -= (alpha - price) * v
        cost_terms.append(price * v)
        ratio = eta / opt
        if guard and ratio > target + RATIO_GUARD_TOL:
            raise InternalConsistencyError(
                f"{policy}: ratio {ratio} exceeded target {target} at t={t}"
            )
        if collect_slots:
            slots.append(SlotRow(date, policy, t, price, v, eta, opt, ratio))
    if not collect_slots:
        slots.append(SlotRow(date, policy, t, price, v, eta, opt, ratio))
    if charged > cap + 1e-9:
        raise InternalConsistencyError(f"{policy}: charged {charged} over capacity {cap}")

    cost = math.fsum(cost_terms)
    diss = max(0.0, alpha * (cap - charged))
    fraction = min(1.0, max(0.0, charged / cap))
    row = EpisodeRow(
        date=date,
        policy=policy,
        target_ratio=target,
        charging_cost=cost,
        dissatisfaction=diss,
        objective=cost + diss,
        ratio=ratio,
        charged_units=charged,
        charged_fraction=fraction,
        charged_kwh=charged * slot_energy_kwh(cfg),
    )
    return row, slots
