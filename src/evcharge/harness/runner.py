"""Episode execution: step a policy down a trace and score it."""

from __future__ import annotations

import math
from typing import NamedTuple

from ..core import (
    InternalConsistencyError,
    PriceTrace,
    ProblemSpec,
    objective_parts,
    validate_spec,
)
from ..offline import NoLimitOptimum, RateLimitedOptimum
from ..online import NO_LIMIT_POLICIES, RATIO_POLICIES, make_policy
from ..ratio import solve_pi_star
from .config import ExperimentConfig
from .ingest import Calibration

RATIO_GUARD_TOL = 1e-6  # how far a ratio policy's eta/opt may pass its target
CHARGE_FLOOR = -1e-12  # the most negative slot charge taken as rounding, not a bug
RATE_CAP = 1.0 + 1e-9  # the largest slot charge of a capped policy: 1 unit plus rounding
CAPACITY_SLACK = 1e-9  # how far an episode's total charge may pass the capacity


class EpisodeRow(NamedTuple):
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


class SlotRow(NamedTuple):
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
    if not trace:
        raise InternalConsistencyError("cannot run a zero-slot episode")
    runner = make_policy(policy, spec)
    guard = policy in RATIO_POLICIES
    target = solve_pi_star(spec).pi_star if guard else None
    prices = trace.slots
    if policy in NO_LIMIT_POLICIES:
        opt_step, rate_cap = NoLimitOptimum(spec).step, math.inf
    else:
        opt_step, rate_cap = RateLimitedOptimum(spec).step, RATE_CAP

    alpha, cap = spec.alpha, spec.capacity_f
    eta = alpha * cap
    need = runner.lookahead_needed  # non-zero only for rhc:h
    charged = 0.0
    cost_terms: list[float] = []
    slots: list[SlotRow] = []
    slot_row = SlotRow._make  # one row per slot, and _make builds it faster than SlotRow(...)
    for t, price in enumerate(prices):
        out = runner.step(price, prices[t + 1 : t + 1 + need] if need else ())
        opt = opt_step(price)
        v = out.charge
        if v < CHARGE_FLOOR or v > rate_cap:
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
            slots.append(slot_row((date, policy, t, price, v, eta, opt, ratio)))
    if not collect_slots:
        slots.append(slot_row((date, policy, t, price, v, eta, opt, ratio)))
    if charged > cap + CAPACITY_SLACK:
        raise InternalConsistencyError(f"{policy}: charged {charged} over capacity {cap}")

    cost, diss = objective_parts(spec, cost_terms, cap - charged)
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
