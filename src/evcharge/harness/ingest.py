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


def csv_lines(reader, path: str):
    """The rows of a csv reader over path; a line the csv module rejects
    (such as a field past csv.field_size_limit()) raises ParseError."""
    try:
        yield from reader
    except csv.Error as exc:
        # a DictReader's own line_num stops at the last row it returned
        line = getattr(reader, "reader", reader).line_num
        raise ParseError(f"{path}:{line}: {exc}") from None


def _parse_rows(path: str, tz_offset_minutes: int) -> list[tuple[datetime, float]]:
    local = timezone(timedelta(minutes=tz_offset_minutes))
    rows: list[tuple[datetime, float]] = []
    with open_text(path, ParseError) as fh:
        reader = csv_lines(csv.reader(fh), path)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header[:2]] != ["timestamp", "price"]:
            raise ParseError(f"{path}: expected header 'timestamp,price', got {header}")
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) < 2:
                raise ParseError(f"{path}:{lineno}: expected 2 columns, got {row}")
            try:
                ts = datetime.fromisoformat(row[0].strip())
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: bad timestamp {row[0]!r}") from exc
            aware = ts.tzinfo is not None
            if rows and aware != rows_aware:
                raise ParseError(
                    f"{path}:{lineno}: timestamp {row[0]!r} has {'a' if aware else 'no'} UTC "
                    f"offset, unlike the first data row's; use one kind throughout the file"
                )
            rows_aware = aware
            if aware:
                try:
                    ts = ts.astimezone(local).replace(tzinfo=None)
                except OverflowError:
                    raise ParseError(
                        f"{path}:{lineno}: timestamp {row[0]!r} is out of range in local time"
                    ) from None
            try:
                price = float(row[1])
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: bad price {row[1]!r}") from exc
            if not math.isfinite(price):
                raise ParseError(f"{path}:{lineno}: non-finite price {row[1]!r}")
            rows.append((ts, price))
    return rows


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
    rows = _parse_rows(path, cfg.tz_offset_minutes)
    if not rows:
        raise ValidationError(f"{path}: no data rows")
    by_time = {ts: p for ts, p in rows}  # duplicate timestamps: last wins
    prices = sorted(by_time.values())
    p_min = trimmed_quantile(prices, cfg.trim)
    p_max = trimmed_quantile(prices, 1.0 - cfg.trim)
    if p_min <= 0:
        raise ValidationError(
            f"{path}: calibrated price band is non-positive: p_min = {p_min!r} "
            f"(quantile {cfg.trim!r}), p_max = {p_max!r} (quantile {1.0 - cfg.trim!r})"
        )

    start = _parse_hhmm(cfg.window_start)
    n_slots = episode_slot_count(cfg)
    step = timedelta(minutes=cfg.slot_minutes)

    episodes: list[Episode] = []
    dropped_incomplete = 0
    dropped_range = 0
    n_clamped = 0
    for day in sorted({ts.date() for ts in by_time}):
        t0 = datetime.combine(day, start)
        raw = []
        for k in range(n_slots):
            try:
                raw.append(by_time.get(t0 + k * step))
            except OverflowError:  # past year 9999: the later slots cannot exist
                break
        present = [p for p in raw if p is not None]
        if not present:
            continue
        if len(present) < n_slots:
            dropped_incomplete += 1
            continue
        if cfg.out_of_range == "drop" and any(p < p_min or p > p_max for p in present):
            dropped_range += 1
            continue
        clamped = []
        for p in present:
            q = min(max(p, p_min), p_max)
            if q != p:
                n_clamped += 1
            clamped.append(q)
        episodes.append(Episode(date=day.isoformat(), trace=PriceTrace(clamped)))

    calib = Calibration(p_min=p_min, p_max=p_max, n_rows=len(rows), n_clamped=n_clamped)
    return IngestResult(
        calibration=calib,
        episodes=tuple(episodes),
        dropped_incomplete=dropped_incomplete,
        dropped_out_of_range=dropped_range,
    )
