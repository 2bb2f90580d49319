"""Child processes the benchmark times.

``child.py setup CORPUS`` is the set-up probe: interpreter start, import
of the CLI module, ingest, spec and pi* solve, then exit.  It prints its
in-process import time as one JSON line.

``child.py traced WORKLOAD CORPUS OUT_DIR SPANS RUN_ID`` drives the
workload's stages through their public functions with a span around
each call, writes the spans to SPANS and prints a JSON summary line.
"""

import json
import os
import sys
import time


def setup(corpus: str) -> dict:
    t0 = time.perf_counter()
    import evcharge.harness.cli  # noqa: F401  (the import the command pays)
    from evcharge.harness.config import ExperimentConfig
    from evcharge.harness.ingest import ingest_prices
    from evcharge.harness.runner import spec_from_calibration
    from evcharge.ratio import solve_pi_star

    t1 = time.perf_counter()
    cfg = ExperimentConfig(prices=corpus)
    data = ingest_prices(corpus, cfg)
    solve_pi_star(spec_from_calibration(cfg, data.calibration))
    return {"import_s": t1 - t0}


STAGES = {
    "ingest_prices": "setup", "spec_from_calibration": "setup", "solve_pi_star": "setup",
    "run_episode": "episodes", "compare_policies": "episodes", "sweep_alpha": "episodes",
    "sweep_rate_limit": "episodes",
}


def stage_of(span_name: str) -> str:
    if span_name.startswith("command:"):
        return "glue"
    return STAGES.get(span_name, "report")


def traced(workload_name: str, corpus: str, out_dir: str, spans_path: str, run_id: str) -> dict:
    from evcharge.harness.ingest import ingest_prices
    from evcharge.harness.runner import run_episode, spec_from_calibration
    from evcharge.ratio import solve_pi_star

    from perfbench import pipeline
    from perfbench.spans import Tracer, self_times
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    cfg = pipeline.config(workload, corpus, out_dir)
    tracer = Tracer(run_id)
    span = tracer.span
    with span(f"command:{workload.name}"):
        with span("ingest_prices"):
            data = ingest_prices(corpus, cfg)
        with span("spec_from_calibration"):
            spec = spec_from_calibration(cfg, data.calibration)
        with span("solve_pi_star"):
            solve_pi_star(spec)
        summary, slot_rows = [], []
        if workload.command == "simulate":
            for ep in data.episodes:
                for policy in cfg.policies:
                    with span("run_episode"):
                        row, slots = run_episode(cfg, spec, ep.trace, policy, ep.date)
                    summary.append(row)
                    slot_rows.extend(slots)
        sweep_rows = pipeline.run_sweeps(workload, cfg, data, span)
        pipeline.write_reports(workload, cfg, data, summary, slot_rows, sweep_rows, out_dir, span)
    tracer.dump(spans_path)

    own = self_times(tracer.spans)
    by_stage = {"setup": 0.0, "episodes": 0.0, "report": 0.0, "glue": 0.0}
    for s in tracer.spans:
        by_stage[stage_of(s.name)] += own[s.id]
    info = solve_pi_star.cache_info()
    root = next(s for s in tracer.spans if s.parent is None)
    return {
        "traced_s": root.end - root.start,
        "self_s": by_stage,
        "spans": len(tracer.spans),
        "cache_hits": info.hits,
        "cache_misses": info.misses,
    }


if __name__ == "__main__":
    # The repository root, so `perfbench` imports as a package; the
    # program itself comes from PYTHONPATH, as for the timed command.
    sys.path.insert(1, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    mode, args = sys.argv[1], sys.argv[2:]
    print(json.dumps(setup(*args) if mode == "setup" else traced(*args)))
