"""Per-layer replays: each module's public functions on a workload's inputs.

One call of measure_round() times every layer once and returns raw
numbers keyed by metric name; run.py takes medians over rounds.
"""

from __future__ import annotations

import os
import time

from evcharge.harness.ingest import ingest_prices
from evcharge.harness.runner import run_episode, spec_from_calibration
from evcharge.offline import new_offline_state, offline_step, opt_rate_limited
from evcharge.online import make_policy
from evcharge.ratio import solve_pi_star

from . import pipeline
from .workloads import Workload

# Every policy gets online.* metrics on every workload: at the workload's
# specs when the command runs it, otherwise at the workload's base spec.
REPLAYED_POLICIES = ("fixed", "adaptive", "int", "rat", "rhc:0", "naive")


def metric_policy_name(policy: str) -> str:
    return policy.replace(":", "")


def replay_policy(policy: str, spec, traces) -> tuple[int, int, float]:
    """Step fresh runners down each trace as run_episode does.

    Returns (steps, steps with charge > 0, seconds).
    """
    steps = charging = 0
    t0 = time.perf_counter()
    for prices in traces:
        runner = make_policy(policy, spec)
        need = runner.lookahead_needed
        for t, price in enumerate(prices):
            if runner.step(price, prices[t + 1 : t + 1 + need]).charge > 0.0:
                charging += 1
        steps += len(prices)
    return steps, charging, time.perf_counter() - t0


def replay_offline(spec, traces) -> tuple[int, int, float]:
    """Stream each trace through offline_step.

    Returns (steps, steps where the kept set changed, seconds).
    """
    steps = changes = 0
    t0 = time.perf_counter()
    for prices in traces:
        state = new_offline_state(spec)
        for price in prices:
            nxt = offline_step(state, price)
            if nxt.kept != state.kept:
                changes += 1
            state = nxt
        steps += len(prices)
    return steps, changes, time.perf_counter() - t0


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def measure_round(workload: Workload, corpus: str, out_dir: str) -> dict[str, float]:
    cfg = pipeline.config(workload, corpus, out_dir)
    m: dict[str, float] = {}

    data, secs = _timed(ingest_prices, corpus, cfg)
    calib = data.calibration
    m["ingest.s"] = secs
    m["ingest.rows"] = calib.n_rows
    m["ingest.rows_per_s"] = calib.n_rows / secs
    m["ingest.episodes"] = len(data.episodes)
    m["ingest.clamped"] = calib.n_clamped
    m["ingest.dropped"] = data.dropped_incomplete + data.dropped_out_of_range

    runs = pipeline.plan(workload, cfg, data)
    specs = list(dict.fromkeys(r.spec for r in runs))
    traces = [ep.trace.slots for ep in data.episodes]

    solve = []
    for spec in specs:
        solve_pi_star.cache_clear()
        solve.append(_timed(solve_pi_star, spec)[1])
    m["ratio.solve_pi_star_us"] = sorted(solve)[len(solve) // 2] * 1e6
    base = spec_from_calibration(cfg, calib)
    for spec in specs + [base]:
        solve_pi_star(spec)  # warm again, so no replay below pays a solve

    online_s: dict[tuple, float] = {}
    for policy in REPLAYED_POLICIES:
        steps = charging = 0
        elapsed = 0.0
        for spec in [r.spec for r in runs if r.policy == policy] or [base]:
            n, c, secs = replay_policy(policy, spec, traces)
            steps, charging, elapsed = steps + n, charging + c, elapsed + secs
            online_s[(policy, spec)] = secs
        name = metric_policy_name(policy)
        m[f"online.{name}.slots_per_s"] = steps / elapsed
        m[f"online.{name}.charge_ratio"] = charging / steps

    offline_s = {}
    steps = changes = 0
    batch = []
    for spec in specs:
        n, c, secs = replay_offline(spec, traces)
        steps, changes, offline_s[spec] = steps + n, changes + c, secs
        batch.extend(_timed(opt_rate_limited, spec, prices)[1] for prices in traces)
    m["offline.step_slots_per_s"] = steps / sum(offline_s.values())
    m["offline.kept_change_ratio"] = changes / steps
    m["offline.batch_us"] = sum(batch) / len(batch) * 1e6

    summary, slot_rows = [], []
    t0 = time.perf_counter()
    for ep in data.episodes:  # simulate's order, so its reports match the command's
        for r in runs:
            row, slots = run_episode(cfg, r.spec, ep.trace, r.policy, ep.date,
                                     collect_slots=r.collect_slots)
            summary.append(row)
            slot_rows.extend(slots)
    runner_s = time.perf_counter() - t0
    m["runner.s"] = runner_s
    m["runner.episode_ms"] = runner_s / (len(runs) * len(data.episodes)) * 1e3
    # Derived: what run_episode spends outside the policy and the oracle.
    m["runner.other_s"] = runner_s - sum(online_s[(r.policy, r.spec)] + offline_s[r.spec] for r in runs)

    sweep_rows, m["sweeps.s"] = _timed(pipeline.run_sweeps, workload, cfg, data)

    report_dir = os.path.join(out_dir, "reports")
    rows, secs = _timed(pipeline.write_reports, workload, cfg, data, summary, slot_rows,
                        sweep_rows, report_dir)
    m["report.emit_s"] = secs
    m["report.rows"] = rows
    m["report.rows_per_s"] = rows / secs
    m["report.bytes"] = sum(os.path.getsize(os.path.join(report_dir, f)) for f in os.listdir(report_dir))
    return m
