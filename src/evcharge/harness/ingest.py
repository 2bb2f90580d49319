"""CSV price ingestion: calibrate band from quantiles, slice into episodes."""

from __future__ import annotations

import csv
import math
from datetime import datetime, timedelta, timezone
from typing import NamedTuple

from ..core import EvChargeError, PriceTrace, ValidationError
from .config import ExperimentConfig, _parse_hhmm, episode_slot_count, open_text


class ParseError(EvChargeError):
    """Malformed input file; maps to CLI exit code 2."""


class Calibration(NamedTuple):
    p_min: float
    p_max: float
    n_rows: int
    n_clamped: int


class Episode(NamedTuple):
    date: str  # calendar date of the window start
    trace: PriceTrace


class IngestResult(NamedTuple):
    calibration: Calibration
    episodes: tuple[Episode, ...]
    dropped_incomplete: int
    dropped_out_of_range: int


def _parse_rows(path: str, tz_offset_minutes: int) -> tuple[dict[datetime, float], int]:
    """The file's prices by timestamp in local time (a repeated timestamp:
    the last row wins) and its number of data rows.  A line the csv module
    rejects (such as a field past csv.field_size_limit()) raises ParseError."""
    local = timezone(timedelta(minutes=tz_offset_minutes))
    parse_time, isfinite = datetime.fromisoformat, math.isfinite
    by_time: dict[datetime, float] = {}
    n_rows = 0
    rows_aware = None  # whether the first data row's timestamp has a UTC offset
    with open_text(path, ParseError) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None or [h.strip().lower() for h in header[:2]] != ["timestamp", "price"]:
                raise ParseError(f"{path}: expected header 'timestamp,price', got {header}")
            # reader.line_num is where the record ends, if it spans lines
            for row in reader:
                if len(row) < 2:
                    if not row or not row[0].strip():
                        continue
                    raise ParseError(f"{path}:{reader.line_num}: expected 2 columns, got {row}")
                try:
                    ts = parse_time(row[0].strip())
                except ValueError as exc:
                    raise ParseError(f"{path}:{reader.line_num}: bad timestamp {row[0]!r}") from exc
                aware = ts.tzinfo is not None
                if aware is not rows_aware:
                    if rows_aware is not None:
                        raise ParseError(
                            f"{path}:{reader.line_num}: timestamp {row[0]!r} has "
                            f"{'a' if aware else 'no'} UTC offset, unlike the first data row's; "
                            f"use one kind throughout the file"
                        )
                    rows_aware = aware
                if aware:
                    try:
                        ts = ts.astimezone(local).replace(tzinfo=None)
                    except OverflowError:
                        raise ParseError(f"{path}:{reader.line_num}: timestamp {row[0]!r} "
                                         f"is out of range in local time") from None
                try:
                    price = float(row[1])
                except ValueError as exc:
                    raise ParseError(f"{path}:{reader.line_num}: bad price {row[1]!r}") from exc
                if not isfinite(price):
                    raise ParseError(f"{path}:{reader.line_num}: non-finite price {row[1]!r}")
                by_time[ts] = price
                n_rows += 1
        except csv.Error as exc:
            raise ParseError(f"{path}:{reader.line_num}: {exc}") from None
    return by_time, n_rows


def trimmed_quantile(xs: list[float], q: float) -> float:
    """The q-quantile of ascending xs, bit for bit numpy's default (linear)
    method: interpolate between the neighbours of virtual index (n-1)*q,
    from the upper one when the weight is at least 1/2.  Past the last
    index numpy interpolates the last value with itself at weight vi + 1,
    which is that value except that -0.0 may come back as 0.0."""
    n = len(xs)
    vi = (n - 1) * q
    if vi >= n - 1:
        a = b = xs[-1]
        t = vi + 1
    else:
        lo = math.floor(vi)
        a, b = xs[lo], xs[lo + 1]
        t = vi - lo
    d = b - a
    return b - d * (1 - t) if t >= 0.5 else a + d * t


def ingest_prices(path: str, cfg: ExperimentConfig) -> IngestResult:
    """Read timestamp,price rows; calibrate the band on trimmed quantiles;
    slice complete charging windows into episodes.

    Calibration drops the top and bottom `trim` quantiles, then every
    timeline price is clamped back into the calibrated band (or, with
    out_of_range=drop, the episode containing it is discarded).
    """
    by_time, n_rows = _parse_rows(path, cfg.tz_offset_minutes)
    if not by_time:
        raise ValidationError(f"{path}: no data rows")
    prices = sorted(by_time.values())
    p_min = trimmed_quantile(prices, cfg.trim)
    p_max = trimmed_quantile(prices, 1.0 - cfg.trim)
    if p_min <= 0:
        raise ValidationError(
            f"{path}: calibrated price band is non-positive: p_min = {p_min!r} "
            f"(quantile {cfg.trim!r}), p_max = {p_max!r} (quantile {1.0 - cfg.trim!r})"
        )

    start = _parse_hhmm(cfg.window_start)
    step = timedelta(minutes=cfg.slot_minutes)
    offsets = [k * step for k in range(episode_slot_count(cfg))]

    episodes: list[Episode] = []
    dropped_incomplete = 0
    dropped_range = 0
    n_clamped = 0
    for day in sorted({ts.date() for ts in by_time}):
        t0 = datetime.combine(day, start)
        present = []
        for offset in offsets:
            try:
                p = by_time.get(t0 + offset)
            except OverflowError:  # past year 9999: the later slots cannot exist
                break
            if p is not None:
                present.append(p)
        if not present:
            continue
        if len(present) < len(offsets):
            dropped_incomplete += 1
            continue
        outside = sum(p < p_min or p > p_max for p in present)
        if outside and cfg.out_of_range == "drop":
            dropped_range += 1
            continue
        n_clamped += outside
        # min(max(p, p_min), p_max), without a builtin call per price
        raised = [p_min if p_min > p else p for p in present]
        trace = PriceTrace([p_max if p_max < p else p for p in raised])
        episodes.append(Episode(date=day.isoformat(), trace=trace))

    calib = Calibration(p_min=p_min, p_max=p_max, n_rows=n_rows, n_clamped=n_clamped)
    return IngestResult(
        calibration=calib,
        episodes=tuple(episodes),
        dropped_incomplete=dropped_incomplete,
        dropped_out_of_range=dropped_range,
    )
