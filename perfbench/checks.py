"""Output checks that do not trust the code under test.

Everything here is recomputed from the corpus file with the standard
library and numpy: the calibrated band, the charging windows, and both
offline optima.  Nothing from ``evcharge`` is imported.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass
from datetime import datetime, time, timedelta
from fractions import Fraction
from statistics import fmean

import numpy as np

from .workloads import CAPACITY, GUARANTEED, POLICIES, SLOTS_PER_EPISODE, UNCAPPED, distributor_policy

TRIM = 0.05  # config default: drop the top and bottom 5% for the band
WINDOW_START = time(17, 0)
SLOT = timedelta(minutes=5)
ALPHA_FACTOR = 2.0  # config default: alpha = 2 * calibrated p_min
CHARGER_KW = 8.8
MAX_DENOMINATOR = 10_000  # rate factors snap to rationals this fine
METRICS_PER_SLOT = ("price", "charge", "eta", "opt", "ratio")
SEASONS = {12: "winter", 1: "winter", 2: "winter", 3: "spring", 4: "spring", 5: "spring",
           6: "summer", 7: "summer", 8: "summer", 9: "fall", 10: "fall", 11: "fall"}
# A guaranteed policy rides its bound exactly when forced, so float
# rounding can put its ratio a few ulps above the target (up to 1.4e-15
# relative on the seed code).  The check allows 1e-12 relative: rounding,
# not a broken guarantee; the program's own guard allows 1e-6.
RATIO_ROUNDING = 1e-12


def within_target(ratio: float, target: float) -> bool:
    return ratio <= target * (1.0 + RATIO_ROUNDING)


@dataclass(frozen=True)
class Corpus:
    rows: int
    sha256: str
    p_min: float
    p_max: float
    episodes: tuple[tuple[str, tuple[float, ...]], ...]  # (date, clamped prices)


def file_sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def digests(out_dir: str) -> dict[str, str]:
    """sha256 of every report file in a directory, by file name."""
    return {name: file_sha256(os.path.join(out_dir, name)) for name in sorted(os.listdir(out_dir))}


def read_corpus(path: str) -> Corpus:
    """Calibrate and slice a timestamp,price corpus as the README defines it.

    The band is the trimmed linear quantiles of every row; a window holds
    the 180 five-minute slots from 17:00; windows with any slot missing
    are dropped, and prices are clamped into the band.
    """
    by_time: dict[datetime, float] = {}
    prices = []
    with open(path, encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            stamp, price = line.rstrip("\n").split(",")
            by_time[datetime.fromisoformat(stamp)] = float(price)
            prices.append(float(price))
    p_min = float(np.quantile(prices, TRIM))
    p_max = float(np.quantile(prices, 1.0 - TRIM))
    episodes = []
    for day in sorted({ts.date() for ts in by_time}):
        t0 = datetime.combine(day, WINDOW_START)
        window = [by_time.get(t0 + k * SLOT) for k in range(SLOTS_PER_EPISODE)]
        if None in window:
            continue
        episodes.append((day.isoformat(), tuple(min(max(p, p_min), p_max) for p in window)))
    return Corpus(len(prices), file_sha256(path), p_min, p_max, tuple(episodes))


def capped_opt(prices, alpha: float, capacity: Fraction) -> float:
    """Rate-limited optimum: fill the cheapest slots below alpha first."""
    remaining = capacity
    terms = []
    for p in sorted(p for p in prices if p < alpha):
        if remaining <= 0:
            break
        q = min(Fraction(1), remaining)
        remaining -= q
        terms.append(p * float(q))
    terms.append(alpha * float(remaining))
    return math.fsum(terms)


def uncapped_opt(prices, alpha: float, capacity: Fraction) -> float:
    """Unlimited-rate optimum: all capacity at the cheapest price, or abstain."""
    return min(min(prices), alpha) * float(capacity)


def _read_csv(path: str) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _read_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_simulate(out_dir: str, corpus: Corpus, policies: tuple[str, ...]) -> list[str]:
    """Problems found in a simulate report directory (empty when correct)."""
    errors = []
    n_ep = len(corpus.episodes)
    alpha = ALPHA_FACTOR * corpus.p_min
    capacity = Fraction(CAPACITY)

    calib = _read_json(os.path.join(out_dir, "calibration.json"))
    for key, want in (("p_min", corpus.p_min), ("p_max", corpus.p_max), ("alpha", alpha),
                      ("episodes", n_ep)):
        if calib.get(key) != want:
            errors.append(f"calibration.json {key}={calib.get(key)!r}, expected {want!r}")

    summary = _read_csv(os.path.join(out_dir, "summary.csv"))
    if len(summary) != n_ep * len(policies):
        errors.append(f"summary.csv has {len(summary)} rows, expected {n_ep} x {len(policies)}")
    if len(_read_json(os.path.join(out_dir, "summary.json"))) != len(summary):
        errors.append("summary.json and summary.csv row counts differ")
    for row in summary:
        if row["policy"] in GUARANTEED and not within_target(float(row["ratio"]), float(row["target_ratio"])):
            errors.append(f"summary {row['date']} {row['policy']}: ratio {row['ratio']} "
                          f"exceeds target {row['target_ratio']}")

    buckets = {SEASONS[int(date[5:7])] for date, _ in corpus.episodes}
    compare = _read_csv(os.path.join(out_dir, "compare.csv"))
    if len(compare) != len(buckets) * len(policies):
        errors.append(f"compare.csv has {len(compare)} rows, expected {len(buckets)} x {len(policies)}")

    expected_prices = dict(corpus.episodes)
    expected_opt = {}
    for date, prices in corpus.episodes:
        for policy in policies:
            opt = uncapped_opt if policy in UNCAPPED else capped_opt
            expected_opt[(date, policy)] = opt(prices, alpha, capacity)
    seen_opt = set()
    n_rows = 0
    last = str(SLOTS_PER_EPISODE - 1)
    with open(os.path.join(out_dir, "slots.csv"), encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != ["date", "policy", "slot", "metric", "value"]:
            errors.append("slots.csv header is not date,policy,slot,metric,value")
        for date, policy, slot, metric, value in reader:
            n_rows += 1
            if metric == "price":
                prices = expected_prices.get(date)
                if prices is None or float(value) != prices[int(slot)]:
                    errors.append(f"slots.csv {date} {policy} slot {slot}: price {value} not in corpus")
            elif metric == "opt" and slot == last:
                want = expected_opt.get((date, policy))
                if want is None or float(value) != want:
                    errors.append(f"slots.csv {date} {policy}: final opt {value}, expected {want!r}")
                seen_opt.add((date, policy))
    want_rows = len(summary) * len(METRICS_PER_SLOT) * SLOTS_PER_EPISODE
    if n_rows != want_rows:
        errors.append(f"slots.csv has {n_rows} rows, expected {want_rows}")
    if seen_opt != set(expected_opt):
        errors.append(f"slots.csv has a final opt for {len(seen_opt)} of {len(expected_opt)} episode runs")
    return errors


def check_sweep(out_dir: str, corpus: Corpus, command: str, grid: tuple[float, ...]) -> list[str]:
    """Problems found in a sweep report directory (empty when correct)."""
    errors = []
    name = "sweep_alpha" if command == "sweep-alpha" else "sweep_rate"
    rows = _read_csv(os.path.join(out_dir, f"{name}.csv"))
    if len(rows) != len(grid):
        errors.append(f"{name}.csv has {len(rows)} rows, expected {len(grid)}")
    if len(_read_json(os.path.join(out_dir, f"{name}.json"))) != len(rows):
        errors.append(f"{name}.json and {name}.csv row counts differ")
    energy = CHARGER_KW * 5 / 60.0
    for row, factor in zip(rows, grid):
        if command == "sweep-alpha":
            alpha = factor * corpus.p_min
            if float(row["alpha_factor"]) != factor or float(row["alpha"]) != alpha:
                errors.append(f"{name} row {row}: expected factor {factor}, alpha {alpha!r}")
            if not within_target(float(row["mean_ratio"]), float(row["pi_star"])):
                errors.append(f"{name} factor {factor}: mean ratio {row['mean_ratio']} "
                              f"exceeds target {row['pi_star']}")
            continue
        capacity = Fraction(CAPACITY) / Fraction(str(factor)).limit_denominator(MAX_DENOMINATOR)
        scale = factor * energy
        alpha = ALPHA_FACTOR * corpus.p_min
        want = fmean(capped_opt(p, alpha, capacity) * scale for _, p in corpus.episodes)
        if row["capacity"] != str(capacity) or row["policy"] != distributor_policy(capacity):
            errors.append(f"{name} factor {factor}: capacity {row['capacity']} policy {row['policy']}, "
                          f"expected {capacity} {distributor_policy(capacity)}")
        if float(row["mean_opt_objective"]) != want:
            errors.append(f"{name} factor {factor}: mean opt {row['mean_opt_objective']}, expected {want!r}")
        if not float(row["mean_alg_objective"]) >= want:
            errors.append(f"{name} factor {factor}: policy objective below the optimum")
    return errors


def check_outputs(out_dir: str, corpus: Corpus, workload) -> list[str]:
    """Problems found in a workload's report directory; a missing or
    malformed file is a problem, not a crash of the benchmark."""
    try:
        if workload.command == "simulate":
            return check_simulate(out_dir, corpus, POLICIES)
        return check_sweep(out_dir, corpus, workload.command, workload.grid)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable reports in {out_dir}: {exc!r}"]
