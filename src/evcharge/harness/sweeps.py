"""Parameter sweeps and policy comparisons over an ingested corpus."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from ..core import MAX_CAPACITY_DENOMINATOR, ProblemSpec, ValidationError, validate_spec
from ..ratio import solve_pi_star
from .config import ExperimentConfig
from .ingest import IngestResult
from .runner import EpisodeRow, SlotRow, run_episode, slot_energy_kwh, spec_from_calibration


def _mean(xs) -> float:
    xs = list(xs)  # bit for bit statistics.fmean: one fsum, one division
    return math.fsum(xs) / len(xs)


class AlphaSweepRow(NamedTuple):
    alpha_factor: float
    alpha: float
    pi_star: float
    mean_ratio: float
    mean_charged_fraction: float


class RateSweepRow(NamedTuple):
    rate_factor: float
    capacity: str
    policy: str
    mean_alg_objective: float  # per-episode cost-plus-dissatisfaction, in
    mean_opt_objective: float  # price units * kWh at the unscaled rate


class CompareRow(NamedTuple):
    bucket: str
    policy: str
    episodes: int
    mean_ratio: float
    mean_objective: float
    mean_charged_fraction: float


def _run_distributor(cfg: ExperimentConfig, spec: ProblemSpec,
                     data: IngestResult) -> tuple[str, list[tuple[EpisodeRow, list[SlotRow]]]]:
    """The capacity-splitting policy for spec, and its (row, [last slot])
    on every episode."""
    if spec.capacity <= 1:
        policy = "fixed"
    else:
        policy = "int" if spec.capacity.denominator == 1 else "rat"
    return policy, [run_episode(cfg, spec, ep.trace, policy, ep.date, collect_slots=False)
                    for ep in data.episodes]


def sweep_alpha(cfg: ExperimentConfig, data: IngestResult) -> list[AlphaSweepRow]:
    """Re-solve the target and re-run the capacity-splitting policy for each
    dissatisfaction price in the grid (as multiples of calibrated p_min)."""
    calib = data.calibration
    rows = []
    for factor in cfg.alpha_grid:
        spec = validate_spec(calib.p_min, calib.p_max, factor * calib.p_min, cfg.capacity, cfg.slot_minutes)
        _, runs = _run_distributor(cfg, spec, data)
        rows.append(
            AlphaSweepRow(
                alpha_factor=factor,
                alpha=spec.alpha,
                pi_star=solve_pi_star(spec).pi_star,
                mean_ratio=_mean(row.ratio for row, _ in runs),
                mean_charged_fraction=_mean(row.charged_fraction for row, _ in runs),
            )
        )
    return rows


def sweep_rate_limit(cfg: ExperimentConfig, data: IngestResult) -> list[RateSweepRow]:
    """Rescale the per-slot cap and compare policy and optimum objectives.

    A rate factor f multiplies the physical per-slot maximum, so capacity
    in normalized units becomes capacity / f; objectives are scaled back by
    f to stay comparable across the grid (fixed total energy need).
    """
    calib = data.calibration
    base = spec_from_calibration(cfg, calib)
    energy = slot_energy_kwh(cfg)
    rows = []
    for factor in cfg.rate_grid:
        f = Fraction(str(factor))
        if f.denominator > MAX_CAPACITY_DENOMINATOR:
            raise ValidationError(f"rate factor {factor} is {f}, whose denominator is above "
                                  f"{MAX_CAPACITY_DENOMINATOR}")
        if f <= 0:
            raise ValidationError(f"rate factor must be positive, got {factor}")
        capacity = base.capacity / f
        spec = validate_spec(calib.p_min, calib.p_max, base.alpha, capacity, cfg.slot_minutes)
        policy, runs = _run_distributor(cfg, spec, data)
        scale = factor * energy
        rows.append(
            RateSweepRow(
                rate_factor=factor,
                capacity=str(capacity),
                policy=policy,
                mean_alg_objective=_mean(row.objective * scale for row, _ in runs),
                mean_opt_objective=_mean(last.opt * scale for _, (last,) in runs),
            )
        )
    return rows


def _bucket(date: str, mode: str) -> str:
    if mode == "all":
        return "all"
    if mode == "month":
        return f"{date[:4]}-{date[5:7]}"
    return ("winter", "spring", "summer", "fall")[int(date[5:7]) % 12 // 3]


def run_policies(cfg: ExperimentConfig, spec: ProblemSpec, data: IngestResult,
                 collect_slots: bool = True) -> tuple[list[EpisodeRow], list[SlotRow]]:
    """Run every configured policy once on every episode, episodes outermost."""
    summary: list[EpisodeRow] = []
    slots: list[SlotRow] = []
    for ep in data.episodes:
        for policy in cfg.policies:
            row, ep_slots = run_episode(cfg, spec, ep.trace, policy, ep.date, collect_slots)
            summary.append(row)
            slots.extend(ep_slots)
    return summary, slots


def compare_rows(rows: list[EpisodeRow], bucket_mode: str) -> list[CompareRow]:
    """Mean per-policy scores of episode rows grouped by a date bucket."""
    grouped: dict[tuple[str, str], list[EpisodeRow]] = {}
    for row in rows:
        grouped.setdefault((_bucket(row.date, bucket_mode), row.policy), []).append(row)
    out = []
    for (bucket, policy), group in sorted(grouped.items()):
        out.append(
            CompareRow(
                bucket=bucket,
                policy=policy,
                episodes=len(group),
                mean_ratio=_mean(r.ratio for r in group),
                mean_objective=_mean(r.objective for r in group),
                mean_charged_fraction=_mean(r.charged_fraction for r in group),
            )
        )
    return out


def compare_policies(cfg: ExperimentConfig, data: IngestResult) -> list[CompareRow]:
    """Mean per-policy scores grouped by a date bucket."""
    spec = spec_from_calibration(cfg, data.calibration)
    summary, _ = run_policies(cfg, spec, data, collect_slots=False)
    return compare_rows(summary, cfg.bucket)
