#!/usr/bin/env python3
"""Seeded benchmark of the evcharge CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check [--seconds S]

Each run writes a seeded corpus, then for about S seconds repeats a round:
set-up probes in fresh processes, then the workload's CLI command in one
fresh child process (a closed loop with one client), checking every
report.  --trace 0 reports the end-to-end metrics; --trace 1 replays each
layer on the same inputs and makes one traced run instead.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import checks, measure  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"
WORK = ROOT / ".perfbench-work"
RUN_LIMIT_S = 170.0  # a run stops starting work, and kills children, by then
PROBES_PER_ROUND = 3  # set-up probes before each command run
MIN_ROUNDS = 3
SELF_CHECK_SEEDS = 10


def environment(seed: int, corpus: checks.Corpus, nproc: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    import numpy

    return {
        "nproc": nproc,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,  # None outside a git checkout
        "seed": seed,
        "corpus_sha256": corpus.sha256,
        "corpus_rows": corpus.rows,
    }


class Runner:
    """One benchmark run: child processes, counts, output checks, digests."""

    def __init__(self, workload, seed: int, work: Path):
        self.workload = workload
        self.work = work
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: dict[str, str] | None = None
        self.digests: list[dict[str, str]] = []
        self.corpus_path = str(work / "corpus.csv")
        from evcharge.harness.synthetic import write_corpus

        write_corpus(self.corpus_path, workload.model, workload.days, seed)
        self.corpus = checks.read_corpus(self.corpus_path)

    def child(self, argv: list[str], log: str) -> measure.ChildRun | None:
        """Run a child to completion; count it; None when it failed."""
        self.attempted += 1
        run = measure.run_child([sys.executable] + argv, env=self.env, cwd=str(ROOT),
                                stdout_path=str(self.work / log),
                                timeout_s=self.deadline - time.perf_counter())
        if run.exit_code != 0 or run.timed_out:
            self.failed += 1
            self.problems.append(f"{argv[:3]} exited {run.exit_code}"
                                 + (" after timing out" if run.timed_out else ""))
            return None
        return run

    def json_line(self, log: str) -> dict:
        return json.loads((self.work / log).read_text(encoding="utf-8").splitlines()[-1])

    def setup_probe(self) -> tuple[float, float] | None:
        """(set-up wall seconds, in-process import seconds) of one fresh process."""
        run = self.child([str(CHILD), "setup", self.corpus_path], "setup.log")
        return None if run is None else (run.wall_s, self.json_line("setup.log")["import_s"])

    def command(self) -> measure.ChildRun | None:
        """One timed CLI run, with its reports checked or compared by digest."""
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        argv = ["-m", "evcharge.harness.cli"] + self.workload.argv(self.corpus_path, str(out))
        run = self.child(argv, "command.log")
        if run is None:
            return None
        digests = checks.digests(str(out))
        self.digests.append(digests)
        if self.reference is None:
            # The first reports are checked in full; later runs must match them byte for byte.
            errors = checks.check_outputs(str(out), self.corpus, self.workload)
            self.reference = digests
        else:
            errors = [] if digests == self.reference else ["report digests differ from the first run's"]
        if errors:
            self.failed += 1
            self.problems.extend(errors)
            return None
        return run

    def check_copy(self, out: Path, what: str) -> None:
        """Count reports the benchmark wrote itself as one operation that
        fails unless they match the command's byte for byte."""
        if self.reference is None:
            return  # no command run succeeded; that failure is counted already
        self.attempted += 1
        if checks.digests(str(out)) != self.reference:
            self.failed += 1
            self.problems.append(f"{what} reports differ from the command's")

    def time_left(self) -> float:
        return self.deadline - time.perf_counter()


def _should_continue(started: float, seconds: float, last: float, count: int, minimum: int,
                     runner: Runner) -> bool:
    if runner.time_left() < 2 * last + 5:
        return False
    return count < minimum or time.perf_counter() - started + last <= seconds


def probe_setup(runner: Runner, setup: list[float], imports: list[float], refs: list[float] | None = None) -> None:
    """PROBES_PER_ROUND set-up probes, each followed by a reference loop when refs is given."""
    for _ in range(PROBES_PER_ROUND):
        probe = runner.setup_probe()
        if probe is not None:
            setup.append(probe[0])
            imports.append(probe[1])
        if refs is not None:
            refs.append(measure.reference_loop())


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict]:
    setup, imports, walls, rss = [], [], [], []
    # Reference loops before and after every child process gauge the CPU's
    # speed over the whole run (measure.at_reference_speed).
    refs = [measure.reference_loop()]
    started = time.perf_counter()
    last = 0.0
    rounds = 0
    while _should_continue(started, seconds, last, rounds, MIN_ROUNDS, runner):
        t0 = time.perf_counter()
        run = runner.command()
        refs.append(measure.reference_loop())
        probe_setup(runner, setup, imports, refs)
        rounds += 1
        last = time.perf_counter() - t0
        if run is not None:
            walls.append(run.wall_s)
            rss.append(run.peak_rss_mb)
    if not walls or not setup:
        raise SystemExit("error: no successful command run to measure")
    steps = runner.workload.slot_steps(len(runner.corpus.episodes))
    # Bounded timings are rescaled to the nominal CPU speed; the wall time
    # uses the mean, as the reference loops gauge the run's mean speed.
    wall = measure.at_reference_speed(statistics.fmean(walls), refs)
    values = {
        "wall_s": wall,
        "slots_per_s": steps / wall,
        "setup_s": measure.at_reference_speed(statistics.median(setup), refs),
        "peak_rss_mb": statistics.median(rss),
    }
    detail = {
        "peak_rss_mb": measure.summarize(rss),
        "raw_wall_s": measure.summarize(walls),
        "raw_setup_s": measure.summarize(setup),
        "reference_s": measure.summarize(refs),
        "slot_steps": steps,
        # Printed, not bounded: raw times carry the host's CPU-speed drift.
        "unbounded": {"raw_wall_s": (statistics.median(walls), "s"),
                      "raw_setup_s": (statistics.median(setup), "s"),
                      "reference_s": (statistics.fmean(refs), "s")},
        "samples": {"wall_s": walls, "reference_s": refs, "peak_rss_mb": rss, "setup_s": setup},
    }
    return values, detail


def per_layer(runner: Runner, seconds: float, seed: int) -> tuple[dict, dict]:
    from perfbench import layers

    rounds: list[dict] = []
    setup, imports, walls = [], [], []
    started = time.perf_counter()
    last = 0.0
    # The traced run ends the run; budget it as one more command run.
    while _should_continue(started, seconds - (walls[-1] if walls else 0.0), last, len(rounds), 1, runner):
        t0 = time.perf_counter()
        probe_setup(runner, setup, imports)
        run = runner.command()
        if run is not None:
            walls.append(run.wall_s)
        replay = runner.work / "replay"
        rounds.append(layers.measure_round(runner.workload, runner.corpus_path, str(replay)))
        runner.check_copy(replay / "reports", "replayed")
        last = time.perf_counter() - t0
    if not walls or not rounds or not imports:
        raise SystemExit("error: no successful command run to measure")

    traced_out = runner.work / "traced"
    shutil.rmtree(traced_out, ignore_errors=True)
    spans_path = runner.work / "spans.json"
    run_id = f"{runner.workload.name}-seed{seed}"
    traced = runner.child([str(CHILD), "traced", runner.workload.name, runner.corpus_path,
                           str(traced_out), str(spans_path), run_id], "traced.log")
    if traced is None:
        raise SystemExit("error: the traced run failed")
    info = runner.json_line("traced.log")
    runner.check_copy(traced_out, "traced-run")

    values = {name: statistics.median(r[name] for r in rounds) for name in rounds[0]}
    values["cli.import_s"] = statistics.median(imports)
    values["ratio.cache_hit_ratio"] = info["cache_hits"] / (info["cache_hits"] + info["cache_misses"])
    values["trace.total_s"] = traced.wall_s
    values["trace.overhead_s"] = traced.wall_s - statistics.median(walls)
    for stage, secs in info["self_s"].items():
        values[f"trace.self.{stage}_s"] = secs
    detail = {"rounds": rounds, "command_wall_s": walls, "setup_probe_s": setup, "traced": info,
              "spans": str(spans_path)}
    return values, detail


def _describe(summary) -> str:
    if not isinstance(summary, dict):
        return ""
    tail = summary["tail"]
    tail_text = "none (under 20 samples)" if tail is None else f"p{tail['p']:g} = {tail['value']!r}"
    return (f"  [median of n={summary['n']}, quartiles {summary['q1']:.6g}..{summary['q3']:.6g}, "
            f"highest percentile with 10 beyond: {tail_text}]")


def run_workload(name: str, seed: int, seconds: float, trace: int, bench: dict) -> int:
    workload = WORKLOADS[name]
    # One CPU for this process and every child it starts, so the reference
    # loop gauges the same CPU the commands run on.
    cpus = os.sched_getaffinity(0)
    cpu = min(cpus)
    os.sched_setaffinity(0, {cpu})
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(workload, seed, work)
    env = {**environment(seed, runner.corpus, len(cpus)), "pinned_cpu": cpu}

    values, detail = per_layer(runner, seconds, seed) if trace else end_to_end(runner, seconds)
    # Names and units come from BENCHMARK.json; the run must measure exactly those.
    units = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    if values.keys() != units.keys():
        raise SystemExit(f"error: metrics do not match BENCHMARK.json: {sorted(values.keys() ^ units.keys())}")
    metrics = {name: (values[name], unit) for name, unit in units.items()}

    correct = runner.failed == 0 and not runner.problems
    print(f"# workload {name} seed {seed} trace {trace} seconds {seconds}")
    print(f"# env {json.dumps(env)}")
    print(f"# corpus {workload.model} {workload.days} days: {runner.corpus.rows} rows, "
          f"{len(runner.corpus.episodes)} episodes, sha256 {runner.corpus.sha256}")
    for metric, (value, unit) in metrics.items():
        print(f"# {metric} = {value!r} {unit}{_describe(detail.get(metric))}")
    for metric, (value, unit) in detail.get("unbounded", {}).items():
        print(f"# {metric} = {value!r} {unit}{_describe(detail.get(metric))} (not in BENCHMARK.json)")
    print(f"# failed_ratio = {runner.failed / max(runner.attempted, 1)!r} ratio "
          f"({runner.failed} of {runner.attempted} operations)")
    for fname, digest in (runner.reference or {}).items():
        print(f"# digest {fname} {digest}")
    for problem in runner.problems:
        print(f"# problem: {problem}")

    results = WORK / "results"
    results.mkdir(exist_ok=True)
    record = {"workload": name, "seed": seed, "trace": trace, "seconds": seconds, "env": env,
              "correct": correct, "attempted": runner.attempted, "failed": runner.failed,
              "problems": runner.problems, "digests": runner.digests, "detail": detail,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (results / f"{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": runner.attempted, "failed": runner.failed,
                      "metrics": record["metrics"]}), flush=True)
    return 0


def self_check(bench: dict, seconds: float) -> int:
    """Two independent sets of runs of the same code, compared metric by metric.

    Every workload runs over SELF_CHECK_SEEDS seeds in each set.  For each
    workload and end-to-end metric it reports each set's median over the
    seeds and its spread (interquartile range over median).  A metric
    agrees when the two medians differ by at most its bound, in either
    direction, and both spreads are within the bound too.
    """
    names = list(WORKLOADS)
    seeds = SELF_CHECK_SEEDS
    metrics = bench["end_to_end"]
    values: dict = {}
    pooled: dict[str, list[float]] = {}  # every command wall time, both sets
    all_correct = True
    for set_no in (1, 2):
        for name in names:
            for seed in range(1, seeds + 1):
                argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
                proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
                if proc.returncode != 0 or not proc.stdout.strip():
                    all_correct = False
                    print(f"# set {set_no} {name} seed {seed}: exited {proc.returncode} without a result")
                    continue
                result = json.loads(proc.stdout.splitlines()[-1])
                if not result["correct"] or result["failed"]:
                    all_correct = False
                    print(f"# set {set_no} {name} seed {seed}: NOT CORRECT", flush=True)
                for m in metrics:
                    values.setdefault((set_no, name, m["name"]), []).append(
                        result["metrics"][m["name"]]["value"])
                record = json.loads((WORK / "results" / f"{name}-seed{seed}-trace0.json").read_text())
                pooled.setdefault(name, []).extend(record["detail"]["samples"]["wall_s"])
                print(f"# set {set_no} {name} seed {seed}: " + ", ".join(
                    f"{m['name']}={result['metrics'][m['name']]['value']:.6g}" for m in metrics), flush=True)

    report = {}
    agree = all_correct
    for name in names:
        for m in metrics:
            row = {}
            for set_no in (1, 2):
                q1, med, q3 = measure.quartiles(values[(set_no, name, m["name"])])
                row[f"median{set_no}"] = med
                row[f"spread{set_no}"] = (q3 - q1) / med
            sign = 1.0 if m["better"] == "lower" else -1.0
            row["worse_by"] = sign * (row["median2"] - row["median1"]) / row["median1"]  # printed only
            row["agree"] = (abs(row["median2"] - row["median1"]) / row["median1"] <= m["bound"]
                            and max(row["spread1"], row["spread2"]) <= m["bound"])
            agree = agree and row["agree"]
            report[f"{name}/{m['name']}"] = row
            print(f"# {name:24s} {m['name']:12s} bound {m['bound']:.2f}  "
                  f"median {row['median1']:.6g} / {row['median2']:.6g}  "
                  f"spread {row['spread1']:.4f} / {row['spread2']:.4f}  "
                  f"worse by {row['worse_by']:+.4f}  {'agree' if row['agree'] else 'DISAGREE'}")
    for name, walls in pooled.items():
        report[f"{name}/raw_wall_s_pooled"] = summary = measure.summarize(walls)
        print(f"# {name:24s} raw wall_s pooled over both sets: {summary['median']!r} s{_describe(summary)}")
    (WORK / "self-check.json").write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps({"agree": agree, "correct": all_correct, "seeds": seeds, "seconds": seconds,
                      "metrics": report}))
    return 0 if agree else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true",
                    help=f"run every workload twice over {SELF_CHECK_SEEDS} seeds and compare")
    args = ap.parse_args(argv)
    if not (SRC / "evcharge" / "harness" / "cli.py").is_file():
        print(f"error: the program's sources are not at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(1, str(SRC))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or bench["run_seconds"]
    if args.self_check:
        if args.workload is not None:
            ap.error("--self-check runs every workload; drop --workload")
        return self_check(bench, seconds)
    if args.workload is None:
        ap.error("--workload is required")
    return run_workload(args.workload, args.seed, seconds, args.trace, bench)


if __name__ == "__main__":
    sys.exit(main())
