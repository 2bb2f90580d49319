"""Deterministic CSV/JSON emission for flat rows: dataclasses or dicts.

Floats are written with repr so files round-trip exactly and two runs of
the same experiment produce byte-identical reports.
"""

from __future__ import annotations

import csv
import json
from dataclasses import fields, is_dataclass
from itertools import chain
from operator import attrgetter, itemgetter

from ..core import ValidationError
from .config import open_text
from .ingest import ParseError

FORMATS = ("csv", "json")


def rows_to_dicts(rows) -> list[dict]:
    """One flat dict per row; dict rows are passed through, not copied.

    Every row of a report has the kind of the first one."""
    rows = list(rows)
    if not rows or not is_dataclass(rows[0]):
        return rows
    names = [f.name for f in fields(rows[0])]
    return [{name: getattr(row, name) for name in names} for row in rows]


def write_report(rows, fmt: str, fh) -> None:
    """Write rows (dataclasses or dicts) to an open text stream as csv or json.

    In csv, None is an empty cell and a float is written with str, which
    equals repr for a float, so every value round-trips exactly."""
    if fmt not in FORMATS:
        raise ValidationError(f"format must be one of {FORMATS}, got {fmt!r}")
    if fmt == "json":
        json.dump(rows_to_dicts(rows), fh, indent=1)
        fh.write("\n")
        return
    rows = iter(rows)
    first = next(rows, None)
    if first is None:
        return
    if is_dataclass(first):
        header, getter = [f.name for f in fields(first)], attrgetter
    else:
        header, getter = list(first), itemgetter
    # a getter of one name returns the bare value and of none raises, so
    # those headers take the cells one by one
    cells = getter(*header) if len(header) > 1 else lambda row: [getter(k)(row) for k in header]
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(map(cells, chain((first,), rows)))


def emit_report(rows, fmt: str, path: str) -> str:
    """Write rows (dataclasses or dicts) to path as csv or json."""
    if fmt not in FORMATS:
        raise ValidationError(f"format must be one of {FORMATS}, got {fmt!r}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        write_report(rows, fmt, fh)
    return path


def _csv_value(cell: str):
    if cell == "":
        return None
    try:
        return int(cell)
    except ValueError:
        pass
    try:
        return float(cell)
    except ValueError:
        return cell


def load_rows(path: str) -> list[dict]:
    """Read back a report emitted by emit_report (either format)."""
    with open_text(path, ParseError) as fh:
        if path.endswith(".json"):
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ParseError(f"{path}: invalid JSON: {exc}") from None
            if not isinstance(data, list) or not all(isinstance(row, dict) for row in data):
                raise ParseError(f"{path}: expected a JSON array of row objects")
            if any(row.keys() != data[0].keys() for row in data):
                raise ParseError(f"{path}: rows do not all have the same keys")
            return data
        rows = []
        reader = csv.DictReader(fh)
        for row in reader:
            if None in row or None in row.values():
                raise ParseError(
                    f"{path}: line {reader.line_num}: expected {len(reader.fieldnames)} cells"
                )
            rows.append({k: _csv_value(v) for k, v in row.items()})
        return rows
