"""Deterministic CSV/JSON emission for flat rows (record NamedTuples or
dicts), and the set of reports `simulate` writes.

Floats are written with repr so files round-trip exactly and two runs of
the same experiment produce byte-identical reports.
"""

from __future__ import annotations

import csv
import io
import json
import os
from itertools import groupby
from operator import attrgetter

from ..core import ProblemSpec, ValidationError
from ..ratio import solve_pi_star
from .config import ExperimentConfig, open_text
from .ingest import IngestResult, ParseError, csv_lines
from .runner import EpisodeRow, SlotRow
from .sweeps import compare_rows

FORMATS = ("csv", "json")


def rows_to_dicts(rows) -> list[dict]:
    """One flat dict per row, in field order; dict rows are passed through, not copied.

    Every row of a report has the kind of the first one."""
    rows = list(rows)
    if not rows or isinstance(rows[0], dict):
        return rows
    return [row._asdict() for row in rows]


def write_report(rows, fmt: str, fh) -> None:
    """Write rows (record NamedTuples or dicts) to an open text stream as csv or json.

    In csv, the first row's keys are the header and every row's cells
    follow it; None is an empty cell and a float is written with str, which
    equals repr for a float, so every value round-trips exactly."""
    if fmt not in FORMATS:
        raise ValidationError(f"format must be one of {FORMATS}, got {fmt!r}")
    rows = rows_to_dicts(rows)
    if fmt == "json":
        json.dump(rows, fh, indent=1)
        fh.write("\n")
        return
    if not rows:
        return
    header = list(rows[0])
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([row[k] for k in header] for row in rows)


def emit_report(rows, fmt: str, path: str) -> str:
    """Write rows (record NamedTuples or dicts) to path as csv or json."""
    if fmt not in FORMATS:
        raise ValidationError(f"format must be one of {FORMATS}, got {fmt!r}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_report(rows, fmt, fh)
    return path


class _ReprMemo(dict):
    """float -> its repr, computed on the first lookup of each key."""

    def __missing__(self, x: float) -> str:
        text = self[x] = repr(x)
        return text


def write_slot_table(slot_rows, fh) -> None:
    """Write slot rows as the long csv table date,policy,slot,metric,value,
    one line per slot and metric (price, charge, eta, opt, ratio): the
    bytes write_report writes for those lines as dicts.

    Each run of rows with equal (date, policy) is one fh.write.  The csv
    writer quotes the run's date,policy prefix once; the other cells need
    no quoting, because an int or a float repr holds no delimiter, quote or
    line break, and csv writes a float with str, which equals repr.

    Each distinct nonzero value is repr'd once per call and looked up
    after that (prices repeat across policies, the optimum stays flat).
    Zeros skip the memo, because 0.0 and -0.0 are one key; a nan hits only
    as the same object, and its repr is 'nan' either way."""
    memo = _ReprMemo()
    cells = io.StringIO()
    writer = csv.writer(cells, lineterminator="\n")  # write_report's dialect
    head = "date,policy,slot,metric,value\n"
    for (date, policy), run in groupby(slot_rows, attrgetter("date", "policy")):
        cells.seek(0)
        cells.truncate()
        writer.writerow((date, policy, ""))
        p = cells.getvalue()[:-1]  # "date,policy," without the line terminator
        lines = [head]
        for s in run:
            price, charge, eta, opt, ratio = s.price, s.charge, s.eta, s.opt, s.ratio
            k = f"{p}{s.slot},"
            lines.append(
                f"{k}price,{memo[price] if price else repr(price)}\n"
                f"{k}charge,{memo[charge] if charge else repr(charge)}\n"
                f"{k}eta,{memo[eta] if eta else repr(eta)}\n"
                f"{k}opt,{memo[opt] if opt else repr(opt)}\n"
                f"{k}ratio,{memo[ratio] if ratio else repr(ratio)}\n"
            )
        fh.write("".join(lines))
        head = ""


def write_simulate_reports(cfg: ExperimentConfig, spec: ProblemSpec, data: IngestResult,
                           summary: list[EpisodeRow], slot_rows: list[SlotRow]) -> None:
    """Write simulate's reports into cfg.out_dir: calibration.json,
    summary.csv and .json, the long slots.csv and compare.csv."""
    meta = {
        "p_min": data.calibration.p_min,
        "p_max": data.calibration.p_max,
        "alpha": spec.alpha,
        "capacity": str(spec.capacity),
        "pi_star": solve_pi_star(spec).pi_star,
        "episodes": len(data.episodes),
        "dropped_incomplete": data.dropped_incomplete,
        "dropped_out_of_range": data.dropped_out_of_range,
        "n_clamped": data.calibration.n_clamped,
    }
    out = cfg.out_dir
    with open(os.path.join(out, "calibration.json"), "w", encoding="utf-8", newline="\n") as fh:
        json.dump(meta, fh, indent=1)
        fh.write("\n")
    emit_report(summary, "csv", os.path.join(out, "summary.csv"))
    emit_report(summary, "json", os.path.join(out, "summary.json"))
    with open(os.path.join(out, "slots.csv"), "w", encoding="utf-8", newline="") as fh:
        write_slot_table(slot_rows, fh)
    emit_report(compare_rows(summary, cfg.bucket), "csv", os.path.join(out, "compare.csv"))


def _csv_value(cell: str):
    """A csv cell as the value write_report wrote: None for an empty cell,
    a number only when the number's own spelling is the cell (so '007',
    '1_000' and ' 7' stay text), else the text."""
    if cell == "":
        return None
    for kind, spell in ((int, str), (float, repr)):
        try:
            value = kind(cell)
        except ValueError:
            continue
        return value if spell(value) == cell else cell
    return cell


def _check_unique(path: str, names) -> None:
    seen = set()
    for name in names:
        if name in seen:
            raise ParseError(f"{path}: column {name!r} is repeated")
        seen.add(name)


def load_rows(path: str) -> list[dict]:
    """Read back a report emitted by emit_report (either format)."""

    def unique_object(pairs):
        _check_unique(path, (key for key, _ in pairs))
        return dict(pairs)

    with open_text(path, ParseError) as fh:
        if path.endswith(".json"):
            try:
                data = json.load(fh, object_pairs_hook=unique_object)
            except json.JSONDecodeError as exc:
                raise ParseError(f"{path}: invalid JSON: {exc}") from None
            except RecursionError:
                raise ParseError(f"{path}: invalid JSON: nested too deeply") from None
            if not isinstance(data, list) or not all(isinstance(row, dict) for row in data):
                raise ParseError(f"{path}: expected a JSON array of row objects")
            if any(row.keys() != data[0].keys() for row in data):
                raise ParseError(f"{path}: rows do not all have the same keys")
            return data
        rows = []
        reader = csv.DictReader(fh)
        for row in csv_lines(reader, path):
            if None in row or None in row.values():
                raise ParseError(
                    f"{path}: line {reader.line_num}: expected {len(reader.fieldnames)} cells"
                )
            rows.append({k: _csv_value(v) for k, v in row.items()})
        _check_unique(path, reader.fieldnames or ())  # read in the loop, where csv errors map
        return rows
