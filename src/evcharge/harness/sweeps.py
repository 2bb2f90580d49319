"""Parameter sweeps and policy comparisons over an ingested corpus."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import starmap
from typing import NamedTuple

from ..core import MAX_CAPACITY_DENOMINATOR, ProblemSpec, ValidationError, validate_spec
from ..offline import optimum_path
from ..online import splitting_policy
from ..ratio import solve_pi_star
from .config import ExperimentConfig
from .ingest import IngestResult
from .runner import EpisodeRow, capped, score_run, slot_energy_kwh, spec_from_calibration


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


def run_policies(cfg: ExperimentConfig, data: IngestResult, runs: list[tuple[ProblemSpec, str]],
                 columns: bool = True):
    """Walk every episode once, episodes outermost, and score each
    (spec, policy) pair of runs on it.  Yields (prices, paths, scored) per
    episode: paths holds one optimum path per distinct (spec,
    runner.capped(policy)), computed once and read by every run that needs
    it; scored yields (key, score_run's result) per run, in order, scored
    as it is drawn against paths[key].  So an episode builds one optimum
    path per (spec, capped) pair, not per run; make_policy and score_run
    still look a ratio policy's spec up in solve_pi_star's cache per episode."""
    needs: dict[tuple[ProblemSpec, bool], int] = {}
    keys = [needs.setdefault((spec, capped(policy)), len(needs)) for spec, policy in runs]
    for ep in data.episodes:
        prices = ep.trace
        paths = [optimum_path(spec, prices, limited) for spec, limited in needs]
        args = [(cfg, spec, prices, paths[key], policy, ep.date, columns)
                for key, (spec, policy) in zip(keys, runs)]
        yield prices, paths, zip(keys, starmap(score_run, args))


def rate_capacity(base: Fraction, factor: float) -> Fraction:
    """base / factor, the capacity at a rate factor read exactly as a
    decimal.  A factor whose denominator is above MAX_CAPACITY_DENOMINATOR
    is refused: snapping it would run one capacity and scale by another."""
    f = Fraction(str(factor))
    if f.denominator > MAX_CAPACITY_DENOMINATOR:
        raise ValidationError(f"rate factor {factor} is {f}, whose denominator is above "
                              f"{MAX_CAPACITY_DENOMINATOR}")
    if f <= 0:
        raise ValidationError(f"rate factor must be positive, got {factor}")
    return base / f


def _walk_grid(cfg: ExperimentConfig, data: IngestResult, specs: list[ProblemSpec]) -> list[list]:
    """Walk the episodes once with the capacity-splitting policy at each
    grid point's spec; per point, its (row, the optimum of the whole
    window) on every episode, in episode order."""
    points = [[] for _ in specs]
    runs = [(spec, splitting_policy(spec.capacity)) for spec in specs]
    for _, paths, scored in run_policies(cfg, data, runs, columns=False):
        for point, (key, (row, *_)) in zip(points, scored):
            point.append((row, paths[key][-1]))
    return points


def sweep_alpha(cfg: ExperimentConfig, data: IngestResult) -> list[AlphaSweepRow]:
    """Re-solve the target and re-run the capacity-splitting policy for each
    dissatisfaction price in the grid (as multiples of calibrated p_min).
    Every grid point's spec and target is checked before any is scored."""
    calib = data.calibration
    specs = [validate_spec(calib.p_min, calib.p_max, factor * calib.p_min, cfg.capacity)
             for factor in cfg.alpha_grid]
    targets = [solve_pi_star(spec).pi_star for spec in specs]
    return [AlphaSweepRow(alpha_factor=factor, alpha=spec.alpha, pi_star=target,
                          mean_ratio=_mean(row.ratio for row, _ in runs),
                          mean_charged_fraction=_mean(row.charged_fraction for row, _ in runs))
            for factor, spec, target, runs in zip(cfg.alpha_grid, specs, targets,
                                                  _walk_grid(cfg, data, specs))]


def sweep_rate_limit(cfg: ExperimentConfig, data: IngestResult) -> list[RateSweepRow]:
    """Rescale the per-slot cap and compare policy and optimum objectives.

    A rate factor f multiplies the physical per-slot maximum, so capacity
    in normalized units becomes capacity / f (rate_capacity); objectives
    are scaled back by f to stay comparable across the grid (fixed total
    energy need).  Every grid point's spec is checked before any is scored.
    """
    calib = data.calibration
    base = spec_from_calibration(cfg, calib)
    energy = slot_energy_kwh(cfg)
    specs = [validate_spec(calib.p_min, calib.p_max, base.alpha, rate_capacity(base.capacity, factor))
             for factor in cfg.rate_grid]
    return [RateSweepRow(rate_factor=factor, capacity=str(spec.capacity),
                         policy=splitting_policy(spec.capacity),
                         mean_alg_objective=_mean(row.objective * (factor * energy) for row, _ in runs),
                         mean_opt_objective=_mean(opt * (factor * energy) for _, opt in runs))
            for factor, spec, runs in zip(cfg.rate_grid, specs, _walk_grid(cfg, data, specs))]


def _bucket(date: str, mode: str) -> str:
    if mode == "all":
        return "all"
    if mode == "month":
        return f"{date[:4]}-{date[5:7]}"
    return ("winter", "spring", "summer", "fall")[int(date[5:7]) % 12 // 3]


def compare_rows(rows: list[EpisodeRow], bucket_mode: str) -> list[CompareRow]:
    """Mean per-policy scores of episode rows grouped by a date bucket."""
    grouped: dict[tuple[str, str], list[EpisodeRow]] = {}
    for row in rows:
        grouped.setdefault((_bucket(row.date, bucket_mode), row.policy), []).append(row)
    return [CompareRow(bucket=bucket, policy=policy, episodes=len(group),
                       mean_ratio=_mean(r.ratio for r in group),
                       mean_objective=_mean(r.objective for r in group),
                       mean_charged_fraction=_mean(r.charged_fraction for r in group))
            for (bucket, policy), group in sorted(grouped.items())]


def compare_policies(cfg: ExperimentConfig, data: IngestResult) -> list[CompareRow]:
    """Mean per-policy scores grouped by a date bucket."""
    spec = spec_from_calibration(cfg, data.calibration)
    runs = [(spec, policy) for policy in cfg.policies]
    summary = [row for _, _, scored in run_policies(cfg, data, runs) for _, (row, *_) in scored]
    return compare_rows(summary, cfg.bucket)
