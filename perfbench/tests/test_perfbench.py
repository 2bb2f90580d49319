"""Tests for the benchmark's own helpers.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import csv
import os
import random
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

import pytest  # noqa: E402

from evcharge.core import validate_spec  # noqa: E402
from evcharge.harness.cli import main as evcharge  # noqa: E402
from evcharge.harness.synthetic import write_corpus  # noqa: E402
from evcharge.offline import opt_rate_limited  # noqa: E402
from perfbench import checks  # noqa: E402
from perfbench.layers import measure_round, replay_offline, replay_policy  # noqa: E402
from perfbench.measure import REFERENCE_NOMINAL_S, at_reference_speed, reference_loop, tail_percentile  # noqa: E402
from perfbench.spans import Span, Tracer, self_time_by_name, self_times  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


# -- the percentile with at least ten samples beyond it ---------------------

def test_tail_percentile_needs_ten_beyond_the_median():
    assert tail_percentile([float(i) for i in range(19)]) is None
    assert tail_percentile([float(i) for i in range(1, 21)]) == (50.0, 10.0)


@pytest.mark.parametrize("n, p", [(39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
                                  (199, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9)])
def test_tail_percentile_is_the_highest_with_ten_beyond(n, p):
    values = [float(i) for i in range(1, n + 1)]
    random.Random(n).shuffle(values)
    got_p, got_value = tail_percentile(values)
    assert got_p == p
    assert sum(v > got_value for v in values) >= 10


# -- timings rescaled to the reference loop's nominal speed ------------------

def test_a_host_slowdown_cancels_out_of_rescaled_times():
    refs = [REFERENCE_NOMINAL_S, 2 * REFERENCE_NOMINAL_S]  # the CPU ran at 2/3 speed on average
    assert at_reference_speed(3.0, refs) == pytest.approx(2.0)
    slower = [1.25 * r for r in refs]  # a host 25% slower stretches the command and the loops alike
    assert at_reference_speed(1.25 * 3.0, slower) == pytest.approx(2.0)


def test_reference_loop_times_its_fixed_work():
    assert 0.0 < reference_loop(1000) < reference_loop(200_000)


# -- span self time ---------------------------------------------------------

def test_self_time_subtracts_child_coverage():
    spans = [
        Span(0, "root", 0.0, 10.0, None, "r"),
        Span(1, "a", 1.0, 4.0, 0, "r"),
        Span(2, "a.inner", 2.0, 3.0, 1, "r"),
        Span(3, "b", 5.0, 9.0, 0, "r"),
        Span(4, "c", 8.0, 9.5, 0, "r"),  # overlaps b: counted once
    ]
    own = self_times(spans)
    assert own == pytest.approx({0: 2.5, 1: 2.0, 2: 1.0, 3: 4.0, 4: 1.5})
    assert self_time_by_name(spans + [Span(5, "a", 9.6, 9.8, 0, "r")])["a"] == pytest.approx(2.2)


def test_tracer_links_nested_spans():
    tracer = Tracer("run-1")
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    by_id = {s.id: s for s in tracer.spans}
    outer = next(s for s in tracer.spans if s.name == "outer")
    inner = [s for s in tracer.spans if s.name == "inner"]
    assert outer.parent is None and all(s.parent == outer.id for s in inner)
    assert all(s.run_id == "run-1" for s in tracer.spans)
    own = self_times(tracer.spans)
    assert own[outer.id] == pytest.approx(
        (outer.end - outer.start) - sum(s.end - s.start for s in inner), abs=1e-12)
    assert len(by_id) == 3


# -- counters on hand-built traces ------------------------------------------

def test_kept_change_ratio_counts_kept_set_changes():
    spec = validate_spec(1.0, 5.0, 4.0, 2)
    # 3 enters, 5 is above alpha, 2 enters, 4.5 is above alpha, 1 evicts 3.
    assert replay_offline(spec, [(3.0, 5.0, 2.0, 4.5, 1.0)])[:2] == (5, 3)
    # At capacity 1 the 2.0 is inserted and evicted again: no change.
    assert replay_offline(validate_spec(1.0, 5.0, 4.0, 1), [(1.0, 2.0)])[:2] == (2, 1)


def test_charge_ratio_counts_steps_that_charge():
    spec = validate_spec(1.0, 5.0, 4.0, 2)
    trace = (1.0, 4.0, 2.0, 2.5, 5.0)
    # naive charges below the band midpoint 3 until its two slots are used.
    assert replay_policy("naive", spec, [trace])[:2] == (5, 2)
    # rhc:0 charges at full rate from the first slot until capacity is met.
    assert replay_policy("rhc:0", spec, [trace, trace])[:2] == (10, 4)


# -- the independent optimum -------------------------------------------------

@pytest.mark.parametrize("capacity", ["1", "3", "7/2", "240/7"])
def test_capped_opt_matches_the_program_bit_for_bit(capacity):
    rng = random.Random(capacity)
    for _ in range(50):
        prices = [rng.uniform(1.0, 10.0) for _ in range(rng.randint(1, 60))]
        spec = validate_spec(1.0, 10.0, rng.uniform(1.0, 12.0), capacity)
        assert checks.capped_opt(prices, spec.alpha, Fraction(capacity)) == opt_rate_limited(spec, prices)[0]


# -- the output checker ------------------------------------------------------

def _run(workload_name, tmp_path):
    corpus = str(tmp_path / "corpus.csv")
    workload = WORKLOADS[workload_name]
    write_corpus(corpus, workload.model, 3, seed=5)
    out = str(tmp_path / "out")
    assert evcharge(workload.argv(corpus, out)) == 0
    return out, checks.read_corpus(corpus), workload


def _rewrite(path, edit):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    rows = edit(rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


@pytest.fixture
def simulate_out(tmp_path):
    return _run("simulate-regime", tmp_path)


def test_checker_accepts_the_program_output(simulate_out):
    assert checks.check_outputs(*simulate_out) == []


def test_checker_rejects_a_wrong_final_opt(simulate_out):
    out, corpus, workload = simulate_out

    def bump_last_opt(rows):
        i = max(k for k, r in enumerate(rows) if r[3] == "opt")
        rows[i][4] = repr(float(rows[i][4]) * (1 + 1e-15) + 1e-12)
        return rows

    _rewrite(os.path.join(out, "slots.csv"), bump_last_opt)
    errors = checks.check_outputs(out, corpus, workload)
    assert any("final opt" in e for e in errors)


def test_checker_rejects_a_missing_slots_row(simulate_out):
    out, corpus, workload = simulate_out
    _rewrite(os.path.join(out, "slots.csv"), lambda rows: rows[:-1])
    assert any("slots.csv has" in e for e in checks.check_outputs(out, corpus, workload))


def test_checker_rejects_a_ratio_above_target(simulate_out):
    out, corpus, workload = simulate_out

    def break_guarantee(rows):
        header = rows[0]
        row = next(r for r in rows[1:] if r[header.index("policy")] == "int")
        row[header.index("ratio")] = repr(float(row[header.index("target_ratio")]) * 1.01)
        return rows

    _rewrite(os.path.join(out, "summary.csv"), break_guarantee)
    assert any("exceeds target" in e for e in checks.check_outputs(out, corpus, workload))


def test_checker_rejects_missing_reports(simulate_out):
    out, corpus, workload = simulate_out
    os.remove(os.path.join(out, "compare.csv"))
    assert checks.check_outputs(out, corpus, workload)


def test_sweep_checker_recomputes_the_optimum(tmp_path):
    out, corpus, workload = _run("sweep-rate-fractional", tmp_path)
    assert checks.check_outputs(out, corpus, workload) == []

    def nudge_opt(rows):
        col = rows[0].index("mean_opt_objective")
        rows[1][col] = repr(float(rows[1][col]) + 1e-9)
        return rows

    _rewrite(os.path.join(out, "sweep_rate.csv"), nudge_opt)
    assert any("mean opt" in e for e in checks.check_outputs(out, corpus, workload))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_replayed_reports_match_the_command(name, tmp_path):
    out, _, workload = _run(name, tmp_path)
    replay = tmp_path / "replay"
    measure_round(workload, str(tmp_path / "corpus.csv"), str(replay))
    assert checks.digests(str(replay / "reports")) == checks.digests(out)
