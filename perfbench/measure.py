"""Child-process timing and the summary statistics the benchmark reports."""

from __future__ import annotations

import math
import os
import signal
import statistics
import subprocess
import time
from dataclasses import dataclass
from fractions import Fraction

# Percentiles tried, highest first, by the tail rule in tail_percentile.
PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10
REFERENCE_ITERATIONS = 500_000
# The reference loop's time on the nominal CPU that timings are rescaled to
# (measure.at_reference_speed); about its mean on a 2-vCPU Xeon VM.
REFERENCE_NOMINAL_S = 0.05


@dataclass(frozen=True)
class ChildRun:
    wall_s: float  # launch to exit, measured by the parent
    peak_rss_mb: float  # ru_maxrss of the child alone
    exit_code: int
    timed_out: bool


def run_child(argv: list[str], *, env: dict, cwd: str, stdout_path: str, timeout_s: float) -> ChildRun:
    """Run one process to completion; time it and read its own rusage.

    os.wait4 reports the rusage of exactly this child, which getrusage on
    RUSAGE_CHILDREN cannot (that is a maximum over every child reaped).  A
    SIGALRM handler kills the child at the timeout, so no thread is needed.
    """
    timed_out = False
    with open(stdout_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=out, stderr=subprocess.STDOUT,
                                stdin=subprocess.DEVNULL)

        def _kill(signum, frame):
            nonlocal timed_out
            timed_out = True
            proc.kill()

        previous = signal.signal(signal.SIGALRM, _kill)
        signal.setitimer(signal.ITIMER_REAL, max(timeout_s, 0.001))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)  # already reaped
    return ChildRun(wall, usage.ru_maxrss / 1024.0, proc.returncode, timed_out)


def reference_loop(iterations: int = REFERENCE_ITERATIONS) -> float:
    """Seconds taken by a fixed pure-Python loop: a gauge of the CPU's speed now.

    The loop does the same work every time, so its duration changes only
    with the speed the host gives this CPU.
    """
    t0 = time.perf_counter()
    acc = 0.0
    kept = []
    for i in range(iterations):
        acc += i * 0.5
        if i & 7 == 0:
            kept.append(acc)
    return time.perf_counter() - t0


def at_reference_speed(seconds: float, refs: list[float]) -> float:
    """A time rescaled to the CPU speed at which the reference loop takes
    REFERENCE_NOMINAL_S.

    refs are reference-loop times taken between the child processes of one
    run, on the same CPU.  Their mean gauges how fast the host ran that CPU
    over the run, so a host that runs it slower for a while stretches the
    timing and the mean alike, and the rescaled time keeps only the
    program's own cost.
    """
    return seconds * REFERENCE_NOMINAL_S / statistics.fmean(refs)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail_percentile(values: list[float], beyond: int = MIN_BEYOND) -> tuple[float, float] | None:
    """Highest ladder percentile with at least `beyond` samples above it.

    Uses the nearest-rank definition: the p-th percentile of n sorted
    samples is the one at rank ceil(p/100 * n), and n - rank samples lie
    beyond it.  Returns (p, value), or None when even the median has fewer
    than `beyond` samples beyond it (fewer than 2 * beyond samples).
    """
    ordered = sorted(values)
    n = len(ordered)
    for p in PERCENTILE_LADDER:
        rank = max(1, math.ceil(Fraction(str(p)) * n / 100))  # exact: no 9990.000...2
        if n - rank >= beyond:
            return p, ordered[rank - 1]
    return None


def summarize(values: list[float]) -> dict:
    """Median, quartiles, sample count and the tail percentile of a timing."""
    q1, med, q3 = quartiles(values)
    tail = tail_percentile(values)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "tail": None if tail is None else {"p": tail[0], "value": tail[1]},
    }
