"""Episode execution: step a policy down a trace and score it."""

from __future__ import annotations

import math
import sys
from itertools import count, repeat
from operator import mul
from typing import NamedTuple

from ..core import (
    InternalConsistencyError,
    PriceTrace,
    ProblemSpec,
    objective_parts,
    validate_spec,
)
from ..offline import optimum_path
from ..online import NO_LIMIT_POLICIES, RATIO_POLICIES, make_policy
from ..ratio import solve_pi_star
from .config import ExperimentConfig
from .ingest import Calibration

RATIO_GUARD_TOL = 1e-6  # how far a ratio policy's eta/opt may pass its target
CHARGE_FLOOR = -1e-12  # the most negative slot charge taken as rounding, not a bug
RATE_CAP = 1.0 + 1e-9  # the largest slot charge of a capped policy: 1 unit plus rounding
CAPACITY_SLACK = 1e-9  # how far an episode's total charge may pass the capacity, at least


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
    return validate_spec(calib.p_min, calib.p_max, alpha, cfg.capacity)


def slot_energy_kwh(cfg: ExperimentConfig) -> float:
    """kWh delivered by one slot at full rate; converts normalized units."""
    return cfg.charger_kw * cfg.slot_minutes / 60.0


def capped(policy: str) -> bool:
    """Whether policy honours the per-slot cap, and so is scored against
    the capped optimum; the unlimited-rate policies get the uncapped one."""
    return policy not in NO_LIMIT_POLICIES


def score_run(cfg: ExperimentConfig, spec: ProblemSpec, prices: tuple[float, ...],
              opts: list[float], policy: str, date: str = "",
              columns: bool = True) -> tuple[EpisodeRow, list[float], list[float], list[float]]:
    """Step a fresh policy down prices and score it against opts, which is
    offline.optimum_path(spec, prices, capped(policy)); returns the
    episode's row and its charge, eta and ratio columns.  With columns
    False, for a caller that reads only the row and the run's end, the
    eta and ratio columns hold only the last slot's value.

    Every slot's charge must lie within the floor and the rate cap, and
    the total within the capacity.  The four ratio policies are also
    guarded online: if their running cost ever exceeds the target times
    the optimum the run aborts, because only a bug can make it so.
    """
    if not prices:
        raise InternalConsistencyError("cannot run a zero-slot episode")
    runner = make_policy(policy, spec)
    charge, need = runner.charge, runner.lookahead_needed  # need is non-zero only for rhc:h
    guard = policy in RATIO_POLICIES
    target = solve_pi_star(spec).pi_star if guard else None
    limit = target + RATIO_GUARD_TOL if guard else math.inf
    rate_cap = RATE_CAP if capped(policy) else math.inf

    alpha, cap = spec.alpha, spec.capacity_f
    eta = alpha * cap
    charged = 0.0
    charges, etas, ratios = [], [], []  # the run's columns, one value per slot
    for t, price in enumerate(prices):
        v = charge(price, prices[t + 1 : t + 1 + need]) if need else charge(price)
        if v < CHARGE_FLOOR or v > rate_cap:
            raise InternalConsistencyError(f"{policy}: slot charge {v} out of range at t={t}")
        charged += v
        eta -= (alpha - price) * v
        ratio = eta / opts[t]
        if ratio > limit:
            raise InternalConsistencyError(
                f"{policy}: ratio {ratio} exceeded target {target} at t={t}"
            )
        charges.append(v)
        if columns:
            etas.append(eta)
            ratios.append(ratio)
    # `fixed` does not clamp; on worst-case descents its float total passed c by up to 0.36 T eps c
    if charged > cap + max(CAPACITY_SLACK, len(prices) * sys.float_info.epsilon * cap):
        raise InternalConsistencyError(f"{policy}: charged {charged} over capacity {cap}")

    cost, diss = objective_parts(spec, map(mul, prices, charges), cap - charged)
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
    return row, charges, etas if columns else [eta], ratios if columns else [ratio]


def run_episode(
    cfg: ExperimentConfig,
    spec: ProblemSpec,
    trace: PriceTrace,
    policy: str,
    date: str = "",
    collect_slots: bool = True,
) -> tuple[EpisodeRow, list[SlotRow]]:
    """Run one policy over one window and score it against the offline
    optimum: score_run on the window's optimum path, with the columns
    zipped into per-slot rows at the end.

    Returns the episode's row and its per-slot rows; with collect_slots
    False, only the last slot's row (whose opt is the whole window's).
    """
    prices = trace.slots
    opts = optimum_path(spec, prices, capped(policy))
    row, charges, etas, ratios = score_run(cfg, spec, prices, opts, policy, date, collect_slots)
    first = len(prices) - len(etas)
    columns = (prices[first:], charges[first:], etas, opts[first:], ratios)
    return row, list(map(SlotRow, repeat(date), repeat(policy), count(first), *columns))
