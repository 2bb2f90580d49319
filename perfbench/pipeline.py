"""A workload's stages through evcharge's public functions.

The per-layer replays and the traced run both use these, so they drive
the same inputs, specs and report files as the CLI command.
"""

from __future__ import annotations

import json
import os
from contextlib import nullcontext
from dataclasses import dataclass, replace
from fractions import Fraction

from evcharge.core import MAX_CAPACITY_DENOMINATOR, ProblemSpec, validate_spec
from evcharge.harness.config import ExperimentConfig
from evcharge.harness.ingest import IngestResult
from evcharge.harness.report import emit_report, rows_to_dicts
from evcharge.harness.runner import spec_from_calibration
from evcharge.harness.sweeps import compare_policies, sweep_alpha, sweep_rate_limit
from evcharge.ratio import solve_pi_star

from .workloads import CAPACITY, POLICIES, Workload, distributor_policy


def _no_span(name):
    return nullcontext()


@dataclass(frozen=True)
class PolicyRun:
    """One (spec, policy) pair the command runs over every episode."""

    spec: ProblemSpec
    policy: str
    collect_slots: bool


def config(workload: Workload, corpus: str, out_dir: str) -> ExperimentConfig:
    grid = tuple(float(g) for g in workload.grid)
    cfg = ExperimentConfig(prices=corpus, out_dir=out_dir, policies=POLICIES, capacity=CAPACITY)
    if workload.command == "sweep-alpha":
        return replace(cfg, alpha_grid=grid)
    if workload.command == "sweep-rate":
        return replace(cfg, rate_grid=grid)
    return cfg


def plan(workload: Workload, cfg: ExperimentConfig, data: IngestResult) -> list[PolicyRun]:
    """The (spec, policy) pairs the command runs, in the command's order."""
    calib = data.calibration
    base = spec_from_calibration(cfg, calib)
    if workload.command == "simulate":
        return [PolicyRun(base, p, True) for p in cfg.policies]
    runs = []
    alpha_sweep = workload.command == "sweep-alpha"
    for factor in cfg.alpha_grid if alpha_sweep else cfg.rate_grid:
        if alpha_sweep:
            spec = validate_spec(calib.p_min, calib.p_max, factor * calib.p_min, cfg.capacity,
                                 cfg.slot_minutes)
        else:
            f = Fraction(str(factor)).limit_denominator(MAX_CAPACITY_DENOMINATOR)
            spec = validate_spec(calib.p_min, calib.p_max, base.alpha, base.capacity / f,
                                 cfg.slot_minutes)
        runs.append(PolicyRun(spec, distributor_policy(spec.capacity), False))
    return runs


SWEEPS_CALL = {"simulate": compare_policies, "sweep-alpha": sweep_alpha, "sweep-rate": sweep_rate_limit}


def run_sweeps(workload: Workload, cfg: ExperimentConfig, data: IngestResult, span=_no_span) -> list:
    """The harness.sweeps call the command makes, in a span named after it."""
    call = SWEEPS_CALL[workload.command]
    with span(call.__name__):
        return call(cfg, data)


def write_reports(workload: Workload, cfg: ExperimentConfig, data: IngestResult, summary: list,
                  slot_rows: list, sweep_rows: list, out_dir: str, span=_no_span) -> int:
    """Write the command's report files; returns the number of rows written.

    For simulate this is a copy of the report code in the CLI's
    _cmd_simulate (calibration.json and the long-format slots.csv build),
    so report.* times this copy.  The files must be byte-identical to the
    command's; run.py counts any difference as a failed operation.
    """
    os.makedirs(out_dir, exist_ok=True)
    if workload.command != "simulate":
        name = "sweep_alpha" if workload.command == "sweep-alpha" else "sweep_rate"
        for fmt in ("csv", "json"):
            with span(f"emit_report:{name}.{fmt}"):
                emit_report(sweep_rows, fmt, os.path.join(out_dir, f"{name}.{fmt}"))
        return 2 * len(sweep_rows)

    spec = spec_from_calibration(cfg, data.calibration)
    with span("write_calibration"):
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
        with open(os.path.join(out_dir, "calibration.json"), "w", encoding="utf-8", newline="\n") as fh:
            json.dump(meta, fh, indent=1)
            fh.write("\n")
    with span("emit_report:summary.csv"):
        emit_report(summary, "csv", os.path.join(out_dir, "summary.csv"))
    with span("emit_report:summary.json"):
        emit_report(summary, "json", os.path.join(out_dir, "summary.json"))
    with span("rows_to_dicts:slots"):
        long_rows = []
        for s in rows_to_dicts(slot_rows):
            base = {k: s[k] for k in ("date", "policy", "slot")}
            for metric in ("price", "charge", "eta", "opt", "ratio"):
                long_rows.append({**base, "metric": metric, "value": s[metric]})
    with span("emit_report:slots.csv"):
        emit_report(long_rows, "csv", os.path.join(out_dir, "slots.csv"))
    with span("emit_report:compare.csv"):
        emit_report(sweep_rows, "csv", os.path.join(out_dir, "compare.csv"))
    return 2 * len(summary) + len(long_rows) + len(sweep_rows)
