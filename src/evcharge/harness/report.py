"""Deterministic CSV/JSON emission for flat rows (record NamedTuples or
dicts), and the set of reports `simulate` writes.

Floats are written with repr, so json.load of a report returns each
value that was written, float() of a csv cell returns the float that was
written, and two runs of the same experiment produce byte-identical
reports.  Nothing in evcharge reads a report back.
"""

from __future__ import annotations

import csv
import io
import json
import os

from ..core import ProblemSpec, ValidationError
from ..ratio import solve_pi_star
from .config import ExperimentConfig
from .ingest import IngestResult
from .runner import EpisodeRow
from .sweeps import compare_rows, run_policies

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
    equals repr for a float, so float() of the cell is the float written."""
    if fmt not in FORMATS:
        raise ValidationError(f"format must be one of {FORMATS}, got {fmt!r}")
    rows = rows_to_dicts(rows)
    if fmt == "json":
        fh.write(json.dumps(rows, indent=1) + "\n")
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


def write_slot_table(walk, fh) -> list[EpisodeRow]:
    """Write a walk (sweeps.run_policies' episodes) as the long csv table
    date,policy,slot,metric,value, one line per slot and metric (price,
    charge, eta, opt, ratio; opt from paths[key] for the run's key): the
    bytes write_report writes for them as dicts.  Returns the walk's rows.

    Each run is one fh.write, made as soon as the run is drawn.  The csv
    writer quotes the run's date,policy prefix once; the other cells need
    no quoting, because an int or a float repr holds no delimiter, quote
    or line break, and csv writes a float with str, which equals repr.
    The tails of an episode's price lines, and of each optimum path's opt
    lines, are formatted once and shared by every run of the episode; the
    "{t},charge," "{t},eta," and "{t},ratio," keys once per episode length.

    Each distinct nonzero value is repr'd once per call and looked up
    after that (prices repeat across episodes, the optimum stays flat).
    Zeros skip the memo, because 0.0 and -0.0 are one key; a nan hits only
    as the same object, and its repr is 'nan' either way."""
    memo = _ReprMemo()
    cells = io.StringIO()
    writer = csv.writer(cells, lineterminator="\n")  # write_report's dialect
    head = "date,policy,slot,metric,value\n"
    rows = []
    slot_keys = {}  # episode length -> its slots' charge, eta and ratio keys
    for prices, paths, scored in walk:
        price_tails = [f"{t},price,{memo[x] if x else repr(x)}\n" for t, x in enumerate(prices)]
        opt_tails = [[f"{t},opt,{memo[x] if x else repr(x)}\n" for t, x in enumerate(path)]
                     for path in paths]
        n = len(prices)
        if n not in slot_keys:
            slot_keys[n] = [[f"{t},{metric}," for t in range(n)] for metric in ("charge", "eta", "ratio")]
        charge_keys, eta_keys, ratio_keys = slot_keys[n]
        for key, (row, charges, etas, ratios) in scored:
            rows.append(row)
            cells.seek(0)
            cells.truncate()
            writer.writerow((row.date, row.policy, ""))
            p = cells.getvalue()[:-1]  # "date,policy," without the line terminator
            lines = [head]
            for pt, ck, c, ek, e, ot, rk, r in zip(price_tails, charge_keys, charges, eta_keys, etas,
                                                   opt_tails[key], ratio_keys, ratios):
                lines.append(f"{p}{pt}{p}{ck}{memo[c] if c else repr(c)}\n"
                             f"{p}{ek}{memo[e] if e else repr(e)}\n{p}{ot}"
                             f"{p}{rk}{memo[r] if r else repr(r)}\n")
            fh.write("".join(lines))
            head = ""
    return rows


def write_simulate_reports(cfg: ExperimentConfig, spec: ProblemSpec, data: IngestResult) -> list[EpisodeRow]:
    """Write simulate's reports into cfg.out_dir while drawing sweeps.run_policies'
    walk, and return its episode rows: the long slots.csv streamed run by run
    into slots.csv.partial, which replaces slots.csv once the walk ends and is
    removed if the walk or the rename raises, then calibration.json,
    summary.csv and .json and compare.csv."""
    out = cfg.out_dir
    slots = os.path.join(out, "slots.csv")
    partial = slots + ".partial"
    fh = open(partial, "w", encoding="utf-8", newline="")
    try:
        with fh:
            summary = write_slot_table(run_policies(cfg, data, [(spec, p) for p in cfg.policies]), fh)
        os.replace(partial, slots)
    except BaseException:
        os.remove(partial)
        raise
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
    with open(os.path.join(out, "calibration.json"), "w", encoding="utf-8", newline="\n") as fh:
        json.dump(meta, fh, indent=1)
        fh.write("\n")
    emit_report(summary, "csv", os.path.join(out, "summary.csv"))
    emit_report(summary, "json", os.path.join(out, "summary.json"))
    emit_report(compare_rows(summary, cfg.bucket), "csv", os.path.join(out, "compare.csv"))
    return summary
