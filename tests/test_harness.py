"""Experiment harness: config, ingestion, episode scoring, sweeps, CLI."""

import csv
import hashlib
import io
import json
import math
import os
import struct
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from statistics import fmean

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

import evcharge.harness.cli as cli
import evcharge.harness.report as report
import evcharge.harness.runner as runner
import evcharge.harness.sweeps as sweeps
import evcharge.offline as offline
from evcharge.core import InternalConsistencyError, PriceTrace, ValidationError, validate_spec
from evcharge.harness.config import (
    ExperimentConfig,
    _coerce,
    apply_overrides,
    episode_slot_count,
    load_config,
    parse_config_text,
)
from evcharge.harness.ingest import (
    ParseError,
    _parse_rows,
    ingest_prices,
    trimmed_quantile,
)
from evcharge.harness.report import (
    emit_report,
    rows_to_dicts,
    write_report,
    write_slot_table,
)
from evcharge.harness.runner import (
    EpisodeRow,
    SlotRow,
    run_episode,
    slot_energy_kwh,
    spec_from_calibration,
)
from evcharge.harness.sweeps import compare_policies, compare_rows, sweep_alpha, sweep_rate_limit
from evcharge.harness.synthetic import synthetic_prices, write_corpus
from evcharge.offline import RateLimitedOptimum, opt_rate_limited
from evcharge.online import NO_LIMIT_POLICIES, RATIO_POLICIES
from evcharge.ratio import solve_pi_star

from conftest import (
    ALPHA_STAR_BOUND,
    CLOSED_FORM_BOUND,
    GreedyOptimum,
    alpha_star_oracle,
    closed_form_pi_star_oracle,
    domain_specs,
    random_prices,
    relative_miss,
    root_pi_star_oracle,
    spec_of,
)


@pytest.fixture(scope="module")
def corpus_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "descending.csv"
    write_corpus(str(path), "descending", days=10, seed=7)
    return str(path)


@pytest.fixture(scope="module")
def regime_paths(tmp_path_factory):
    """The seed-1 30-day regime corpus, and a copy with every price times
    2**-1020 (exact in floats, so only the units change)."""
    folder = tmp_path_factory.mktemp("regime")
    path, scaled = folder / "regime.csv", folder / "regime-2^-1020.csv"
    write_corpus(str(path), "regime", days=30, seed=1)
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    cells = (row.rsplit(",", 1) for row in rows)
    scaled.write_text("\n".join([header] + [f"{stamp},{float(price) * 2.0**-1020!r}"
                                            for stamp, price in cells]) + "\n", encoding="utf-8")
    return str(path), str(scaled)


@pytest.fixture(scope="module")
def corpus_cfg(corpus_path):
    return ExperimentConfig(prices=corpus_path)


@pytest.fixture(scope="module")
def corpus_data(corpus_cfg):
    return ingest_prices(corpus_cfg.prices, corpus_cfg)


def _write_prices(path, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("timestamp,price\n")
        for ts, p in rows:
            fh.write(f"{ts},{p}\n")
    return str(path)


class TestConfig:
    def test_parse_text_with_comments(self):
        cfg = parse_config_text(
            """
            # experiment setup
            alpha_factor = 4.0
            capacity = 3/2   # ninety minutes
            policies = fixed, adaptive
            alpha_grid = 1, 2, 4
            """
        )
        assert cfg.alpha_factor == 4.0
        assert cfg.capacity == "3/2"
        assert cfg.policies == ("fixed", "adaptive")
        assert cfg.alpha_grid == (1.0, 2.0, 4.0)

    def test_unknown_key_rejected(self):
        for text in ("charger_kv = 11", "seed = 0"):
            with pytest.raises(ValidationError, match="unknown key"):
                parse_config_text(text)

    def test_line_without_assignment_rejected(self):
        with pytest.raises(ValidationError, match="expected key = value"):
            parse_config_text("alpha_factor 4.0")

    def test_repeated_key_rejected(self, tmp_path):
        path = tmp_path / "twice.cfg"
        path.write_text("alpha_factor = 2\n# a comment\nalpha_factor = 3\n", encoding="utf-8")
        with pytest.raises(ValidationError, match=r"^config line 3: key 'alpha_factor' repeats line 1$"):
            load_config(str(path))

    def test_every_key_is_parsed_by_its_annotation(self):
        # a key whose annotation _coerce has no parser for raises KeyError
        # here, instead of reaching the config as raw text
        for name, hint in ExperimentConfig.__annotations__.items():
            value = _coerce(name, "1")
            assert isinstance(value, str) == (hint.removesuffix(" | None") == "str"), name

    def test_overrides_skip_none(self):
        cfg = ExperimentConfig()
        same = apply_overrides(cfg, alpha=None, prices=None)
        assert same == cfg
        bumped = apply_overrides(cfg, alpha=12.0, out_dir="elsewhere")
        assert bumped.alpha == 12.0 and bumped.out_dir == "elsewhere"

    def test_default_window_has_180_slots(self):
        assert episode_slot_count(ExperimentConfig()) == 180

    def test_window_wraps_midnight(self):
        cfg = ExperimentConfig(window_start="22:00", window_end="02:00")
        assert episode_slot_count(cfg) == 48

    def test_bad_values_rejected(self):
        for kwargs in (
            {"trim": 0.5},
            {"out_of_range": "zap"},
            {"bucket": "week"},
            {"slot_minutes": 0},
            {"charger_kw": 0.0},
            {"window_start": "17:00", "window_end": "17:00"},
            {"window_start": "17:00", "window_end": "17:07"},
            {"window_start": "25:00"},
        ):
            with pytest.raises(ValidationError):
                apply_overrides(ExperimentConfig(), **kwargs)


class TestIngest:
    def test_calibration_trims_quantiles(self, tmp_path):
        # linear interpolation on an evenly spaced grid has exact quantiles
        from datetime import datetime, timedelta

        t0 = datetime(2021, 3, 1)
        prices = np.linspace(1.0, 10.0, 1001)
        rows = [((t0 + k * timedelta(minutes=5)).isoformat(sep=" "), repr(p))
                for k, p in enumerate(prices.tolist())]
        path = _write_prices(tmp_path / "grid.csv", rows)
        result = ingest_prices(path, ExperimentConfig(prices=path))
        assert result.calibration.p_min == pytest.approx(1.45, abs=1e-12)
        assert result.calibration.p_max == pytest.approx(9.55, abs=1e-12)
        assert result.calibration.n_rows == 1001

    def test_windows_sliced_and_incomplete_days_dropped(self, tmp_path):
        path = tmp_path / "three_days.csv"
        write_corpus(str(path), "log_uniform", days=3, seed=1)
        result = ingest_prices(str(path), ExperimentConfig(prices=str(path)))
        # midnight-anchored corpus: the last day has no slots past 23:55, so
        # its 17:00 window cannot complete
        assert len(result.episodes) == 2
        assert result.dropped_incomplete == 1
        assert all(len(ep.trace) == 180 for ep in result.episodes)
        assert [ep.date for ep in result.episodes] == ["2021-03-01", "2021-03-02"]

    def test_out_of_range_clamp_and_drop(self, tmp_path):
        rows = [
            ("2021-03-01 17:00", "2.4"),
            ("2021-03-01 17:05", "3.0"),
            ("2021-03-02 17:00", "100.0"),
            ("2021-03-02 17:05", "1.0"),
        ]
        path = _write_prices(tmp_path / "outliers.csv", rows)
        cfg = ExperimentConfig(prices=path, window_start="17:00", window_end="17:10", trim=0.25)
        clamped = ingest_prices(path, cfg)
        lo, hi = clamped.calibration.p_min, clamped.calibration.p_max
        assert lo == pytest.approx(2.05) and hi == pytest.approx(27.25)
        assert len(clamped.episodes) == 2
        assert clamped.calibration.n_clamped == 2
        assert clamped.episodes[1].trace.slots == (hi, lo)

        dropped = ingest_prices(path, replace(cfg, out_of_range="drop"))
        assert [ep.date for ep in dropped.episodes] == ["2021-03-01"]
        assert dropped.dropped_out_of_range == 1
        assert dropped.calibration.n_clamped == 0

    def test_zero_trim_never_clamps(self, tmp_path):
        path = tmp_path / "band.csv"
        write_corpus(str(path), "log_uniform", days=2, seed=3)
        cfg = ExperimentConfig(prices=str(path), trim=0.0)
        result = ingest_prices(str(path), cfg)
        assert result.calibration.n_clamped == 0
        assert result.dropped_out_of_range == 0

    def test_duplicate_timestamp_last_wins(self, tmp_path):
        rows = [
            ("2021-03-01 17:00", "5.0"),
            ("2021-03-01 17:00", "3.0"),
            ("2021-03-01 17:05", "4.0"),
        ]
        path = _write_prices(tmp_path / "dups.csv", rows)
        cfg = ExperimentConfig(prices=path, window_start="17:00", window_end="17:10", trim=0.0)
        result = ingest_prices(path, cfg)
        assert result.episodes[0].trace.slots == (3.0, 4.0)

    def test_overwritten_duplicate_does_not_feed_calibration(self, tmp_path):
        # the 17:00 row that the timeline drops holds the extreme price
        rows = [
            ("2021-03-01 17:00", "100.0"),
            ("2021-03-01 17:00", "3.0"),
            ("2021-03-01 17:05", "4.0"),
        ]
        path = _write_prices(tmp_path / "dups.csv", rows)
        cfg = ExperimentConfig(prices=path, window_start="17:00", window_end="17:10", trim=0.0)
        result = ingest_prices(path, cfg)
        assert (result.calibration.p_min, result.calibration.p_max) == (3.0, 4.0)
        assert result.calibration.n_rows == 3
        assert result.episodes[0].trace.slots == (3.0, 4.0)

    @pytest.mark.parametrize("first, second", [
        ("2021-03-01 17:00:00", "2021-03-01 17:05:00+00:00"),
        ("2021-03-01 17:00:00+00:00", "2021-03-01 17:05:00"),
    ])
    def test_mixed_timestamp_kinds_are_a_parse_error(self, tmp_path, capsys, first, second):
        rows = [(first, "2.0"), (first.replace("17:00", "17:10"), "2.5"), (second, "3.0")]
        path = _write_prices(tmp_path / "mixed.csv", rows)
        with pytest.raises(ParseError, match=r"mixed\.csv:4: .*first data row"):
            ingest_prices(path, ExperimentConfig(prices=path))
        assert cli.main(["simulate", "--prices", path, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "mixed.csv:4" in err and "Traceback" not in err

    def test_errors_name_the_line_after_a_multi_line_record(self, tmp_path, capsys):
        # the quoted price spans lines 2-3, so 'bad' is on line 5, the fourth record
        path = tmp_path / "r.csv"
        path.write_text('timestamp,price\n2021-03-01 17:00,"1\n"\n2021-03-01 17:05,2\nbad,3\n',
                        encoding="utf-8")
        with pytest.raises(ParseError, match=r"r\.csv:5: bad timestamp 'bad'$"):
            ingest_prices(str(path), ExperimentConfig(prices=str(path)))
        assert cli.main(["simulate", "--prices", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "r.csv:5: bad timestamp" in capsys.readouterr().err

    def test_malformed_inputs_raise_parse_errors(self, tmp_path):
        cases = [
            ("head.csv", "time,price\n2021-03-01 17:00,2\n"),
            ("ts.csv", "timestamp,price\nnot-a-date,2\n"),
            ("price.csv", "timestamp,price\n2021-03-01 17:00,cheap\n"),
            ("nan.csv", "timestamp,price\n2021-03-01 17:00,nan\n"),
            ("cols.csv", "timestamp,price\n2021-03-01 17:00\n"),
            ("latin1.csv", b"timestamp,price\n2021-03-01 17:00,\xff\xfe\n"),
        ]
        for name, text in cases:
            path = tmp_path / name
            path.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
            with pytest.raises(ParseError, match=name):
                ingest_prices(str(path), ExperimentConfig(prices=str(path)))

    @pytest.mark.parametrize("row, message", [
        ("2021-03-01 17:10", "expected 2 columns, got ['2021-03-01 17:10']"),
        ("2021-03-01 17:10,cheap", "bad price 'cheap'"),
        ("2021-03-01 17:10,-inf", "non-finite price '-inf'"),
        ("2021-03-01 17:10+01:00,2", "timestamp '2021-03-01 17:10+01:00' has a UTC offset, unlike "
                                     "the first data row's; use one kind throughout the file"),
        ("x" * (csv.field_size_limit() + 1) + ",2",
         f"field larger than field limit ({csv.field_size_limit()})"),
    ])
    def test_row_errors_name_the_line_and_the_fault(self, tmp_path, row, message):
        # a blank line before the faulty row: the line number counts it
        path = tmp_path / "rows.csv"
        path.write_text(f"timestamp,price\n2021-03-01 17:00,2\n\n{row}\n", encoding="utf-8")
        with pytest.raises(ParseError) as info:
            _parse_rows(str(path), 0)
        assert str(info.value) == f"{path}:4: {message}"

    def test_out_of_range_local_time_names_the_line(self, tmp_path):
        path = tmp_path / "late.csv"
        path.write_text("timestamp,price\n2021-03-01T17:00:00-01:00,2\n\n9999-12-31T23:59:00-01:00,2\n",
                        encoding="utf-8")
        with pytest.raises(ParseError) as info:
            _parse_rows(str(path), 0)
        assert str(info.value) == (f"{path}:4: timestamp '9999-12-31T23:59:00-01:00' is out of "
                                   f"range in local time")

    def test_header_only_file_is_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("timestamp,price\n", encoding="utf-8")
        with pytest.raises(ValidationError, match=r"empty\.csv: no data rows$"):
            ingest_prices(str(path), ExperimentConfig(prices=str(path)))

    def test_non_positive_band_names_file_and_quantiles(self, tmp_path, capsys):
        # real-time markets publish negative prices; here a fifth of them
        rows = [(f"2021-03-01 {17 + k // 12}:{5 * (k % 12):02d}", -1.0 if k % 5 == 0 else 2.0)
                for k in range(36)]
        path = _write_prices(tmp_path / "negative.csv", rows)
        with pytest.raises(ValidationError) as info:
            ingest_prices(path, ExperimentConfig(prices=path, trim=0.05))
        message = str(info.value)
        assert "negative.csv" in message and "non-positive" in message
        assert "p_min = -1.0" in message and "p_max = 2.0" in message
        assert cli.main(["simulate", "--prices", path, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "negative.csv" in err and "non-positive" in err
        assert "Traceback" not in err


def _same_bits(a: float, b: float) -> bool:
    return struct.pack("<d", a) == struct.pack("<d", b)


def _numpy_quantile(xs, q) -> float:
    with np.errstate(all="ignore"):  # opposite-signed huge values overflow b - a
        return float(np.quantile(xs, q))


@st.composite
def _sorted_samples(draw):
    """1-300 finite floats drawn from a small pool, so values tie.  0.0 and
    -0.0 compare equal, so numpy's partition may order them either way; a
    sample holds zeros of one sign only."""
    pool = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=12))
    xs = sorted(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=300)))
    assume(len({math.copysign(1.0, x) for x in xs if x == 0}) <= 1)
    return xs


@given(xs=_sorted_samples(), trim=st.floats(0.0, 0.5, exclude_max=True))
@example(xs=[3.0], trim=0.05)  # n = 1
@example(xs=[1.0, 2.0, 2.0, 7.5], trim=0.0)  # the minimum and the maximum
@example(xs=[float(k) for k in range(21)], trim=0.05)  # vi = 1 and 19 exactly
@example(xs=[-1.0, -0.0], trim=0.0)  # numpy returns 0.0 past the last index
def test_trimmed_quantile_matches_numpy_bit_for_bit(xs, trim):
    for q in (trim, 1.0 - trim):
        assert _same_bits(trimmed_quantile(xs, q), _numpy_quantile(xs, q)), (xs, q)


def test_trimmed_quantile_edge_cases():
    assert trimmed_quantile([3.0], 0.05) == 3.0 and trimmed_quantile([3.0], 0.95) == 3.0
    grid = [float(k) for k in range(21)]
    assert (trimmed_quantile(grid, 0.0), trimmed_quantile(grid, 1.0)) == (0.0, 20.0)
    assert (trimmed_quantile(grid, 0.05), trimmed_quantile(grid, 0.95)) == (1.0, 19.0)
    assert _same_bits(trimmed_quantile([-0.0], 1.0), -0.0)
    assert _same_bits(trimmed_quantile([-1.0, -0.0], 1.0), 0.0)


class TestRunEpisode:
    def test_idle_band_scores_ratio_one(self):
        # alpha at the floor: never charging is optimal and every ratio
        # policy stays idle, matching the optimum exactly
        cfg = ExperimentConfig()
        spec = validate_spec(2, 5, 2, "2")
        trace = PriceTrace((4.0, 2.0, 3.0, 2.0))
        for policy in ("fixed", "adaptive", "int", "never"):
            row, slots = run_episode(cfg, spec, trace, policy, "2021-03-01")
            assert row.charged_units == 0.0
            assert row.ratio == 1.0
            assert row.objective == spec.alpha * 2
            assert len(slots) == len(trace)

    def test_full_lookahead_matches_capped_optimum(self):
        # with the whole window visible and alpha above the band, picking the
        # cheapest slots is exactly the rate-limited optimum
        cfg = ExperimentConfig()
        spec = validate_spec(1, 5, 10, "2")
        trace = PriceTrace((4.0, 3.0, 5.0, 2.0))
        row, _ = run_episode(cfg, spec, trace, "rhc:4", "2021-03-01")
        assert row.charged_units == 2.0
        assert row.objective == 5.0
        assert row.ratio == 1.0

    def test_worst_case_trace_pins_ratio_flat(self):
        # the forcing descent re-arms the fixed policy every slot, so the
        # per-slot ratio sits at the target the whole way down
        from evcharge.adversary import worst_case_no_limit

        cfg = ExperimentConfig()
        spec = validate_spec(1, 5, 5, "2")
        pi = solve_pi_star(spec).pi_star
        trace = worst_case_no_limit(spec, pi, 500)
        row, slots = run_episode(cfg, spec, PriceTrace(trace), "fixed", "2021-03-01")
        assert all(abs(s.ratio - pi) <= 0.01 * pi for s in slots)
        assert row.ratio == pytest.approx(pi, rel=1e-9)

    def test_single_floor_price_charges_fully_at_ratio_one(self):
        cfg = ExperimentConfig()
        spec = validate_spec(1, 5, 5, "1")
        row, _ = run_episode(cfg, spec, PriceTrace((1.0,)), "adaptive", "2021-03-01")
        assert row.ratio == 1.0
        assert row.charged_fraction == 1.0
        assert row.dissatisfaction == 0.0

    def test_row_accounting_is_consistent(self):
        cfg = ExperimentConfig()
        spec = validate_spec(1, 5, 5, "2")
        trace = PriceTrace((4.0, 3.0, 2.0, 1.5))
        row, slots = run_episode(cfg, spec, trace, "fixed", "2021-03-01")
        assert row.objective == pytest.approx(row.charging_cost + row.dissatisfaction, rel=1e-12)
        assert row.charged_kwh == pytest.approx(row.charged_units * slot_energy_kwh(cfg), rel=1e-12)
        assert row.ratio <= solve_pi_star(spec).pi_star + 1e-6
        assert row.ratio == slots[-1].ratio
        assert [s.slot for s in slots] == [0, 1, 2, 3]

    def test_without_slots_returns_the_last_row(self):
        cfg = ExperimentConfig()
        spec = validate_spec(1, 5, 5, "7/2")
        trace = PriceTrace((4.0, 3.0, 5.0, 2.0, 1.5))
        for policy in ("fixed", "rat"):
            row, slots = run_episode(cfg, spec, trace, policy, "2021-03-01")
            assert run_episode(cfg, spec, trace, policy, "2021-03-01", collect_slots=False) == (
                row, slots[-1:])

    @given(policy=st.sampled_from(["fixed", "adaptive", "int", "rat", "rhc:0", "rhc:4", "naive",
                                   "never"]),
           alpha=st.sampled_from([1.5, 3.0, 6.0]),
           capacity=st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(3), Fraction(7, 2),
                                     Fraction(24)]),
           prices=st.lists(st.floats(1.0, 5.0), min_size=1, max_size=60))
    @example(policy="fixed", alpha=3.0, capacity=Fraction(7, 2), prices=[4.0, 2.0, 1.5, 3.0])
    @example(policy="adaptive", alpha=3.0, capacity=Fraction(1, 2), prices=[4.0, 2.0, 1.5, 3.0])
    @example(policy="int", alpha=6.0, capacity=Fraction(3), prices=[4.0, 2.0, 1.5, 1.0, 3.0])
    @example(policy="rat", alpha=6.0, capacity=Fraction(7, 2), prices=[4.0, 2.0, 1.5, 1.0, 3.0])
    @example(policy="rhc:4", alpha=3.0, capacity=Fraction(3), prices=[4.0, 2.0, 1.5, 1.0, 3.0])
    @example(policy="naive", alpha=3.0, capacity=Fraction(24), prices=[4.0, 2.0, 1.5, 1.0, 3.0])
    @example(policy="never", alpha=1.5, capacity=Fraction(1), prices=[4.0, 2.0])
    def test_score_run_without_columns_keeps_the_row_and_the_end(self, policy, alpha, capacity, prices):
        # the sweeps turn the eta and ratio columns off; the row, the charges
        # and the final eta and ratio must not move by a bit
        assume(policy != "int" or capacity.denominator == 1)
        cfg, spec, prices = ExperimentConfig(), validate_spec(1.0, 5.0, alpha, capacity), tuple(prices)
        opts = offline.optimum_path(spec, prices, runner.capped(policy))
        row, charges, etas, ratios = runner.score_run(cfg, spec, prices, opts, policy, "2021-03-01")
        off = runner.score_run(cfg, spec, prices, opts, policy, "2021-03-01", columns=False)
        assert repr(off) == repr((row, charges, etas[-1:], ratios[-1:]))  # repr keeps every bit
        trace = PriceTrace(prices)
        full = run_episode(cfg, spec, trace, policy, "2021-03-01")
        assert run_episode(cfg, spec, trace, policy, "2021-03-01", collect_slots=False) == (
            full[0], full[1][-1:])

    def test_zero_slot_episode_rejected(self):
        spec = validate_spec(1, 5, 5, "1")
        with pytest.raises(InternalConsistencyError):
            run_episode(ExperimentConfig(), spec, PriceTrace(()), "fixed")

    def test_spec_from_calibration(self, corpus_data):
        calib = corpus_data.calibration
        cfg = ExperimentConfig(alpha_factor=3.0, capacity="3/2", slot_minutes=5)
        spec = spec_from_calibration(cfg, calib)
        assert spec.alpha == pytest.approx(3.0 * calib.p_min)
        assert str(spec.capacity) == "3/2"
        absolute = spec_from_calibration(replace(cfg, alpha=7.25), calib)
        assert absolute.alpha == 7.25

    def test_slot_energy(self):
        assert slot_energy_kwh(ExperimentConfig()) == pytest.approx(8.8 / 12, rel=1e-12)


@given(
    policy=st.sampled_from(["fixed", "adaptive", "int", "rhc:3", "naive", "never"]),
    prices=st.lists(st.floats(1.0, 5.0), min_size=1, max_size=40),
    m=st.integers(1, 30),
    n=st.integers(1, 4),
    alpha=st.one_of(st.just(1.0), st.floats(1.001, 20.0)),
)
def test_run_episode_scores_the_one_objective(policy, prices, m, n, alpha):
    # charging cost plus alpha times the unmet need, recomputed from the
    # slot rows with reversed-order plain sums
    spec = validate_spec(1, 5, alpha, Fraction(m, n))
    if policy == "int" and spec.capacity.denominator != 1:
        policy = "rat"
    row, slots = run_episode(ExperimentConfig(), spec, PriceTrace(tuple(prices)), policy)
    c = spec.capacity_f
    cost = sum(s.price * s.charge for s in reversed(slots))
    diss = max(0.0, alpha * (c - sum(s.charge for s in reversed(slots))))
    tol = {"rel": 1e-12, "abs": 1e-12 * alpha * c}
    assert row.charging_cost == pytest.approx(cost, **tol)
    assert row.dissatisfaction == pytest.approx(diss, **tol)
    assert row.objective == pytest.approx(cost + diss, **tol)
    assert row.objective == pytest.approx(slots[-1].eta, **tol)


@given(
    policy=st.sampled_from(["fixed", "adaptive", "int", "rhc:3", "naive", "never"]),
    prices=st.lists(st.sampled_from([1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0]), min_size=1, max_size=30),
    m=st.integers(1, 16),
    n=st.integers(1, 4),
    alpha=st.sampled_from([1.0, 2.0, 2.5, 4.5, 6.0]),
)
@example(policy="int", prices=[2.0, 1.0, 3.0], m=3, n=2, alpha=2.5)  # rat: kept full at 3/2
def test_run_episode_scores_against_the_policys_optimum(policy, prices, m, n, alpha):
    """On a coarse price grid, so that prices tie each other and alpha, each
    slot's opt is GreedyOptimum's value of its prefix, capped for the
    capped policies."""
    spec = validate_spec(1, 5, alpha, Fraction(m, n))
    if policy == "int" and spec.capacity.denominator != 1:
        policy = "rat"
    _, slots = run_episode(ExperimentConfig(), spec, PriceTrace(tuple(prices)), policy)
    assert [s.opt for s in slots] == GreedyOptimum(spec, prices, policy not in NO_LIMIT_POLICIES).path


_U = sys.float_info.epsilon / 2  # the unit roundoff


# the capacities the program's checks and benchmark run, both sides of 1
@given(spec=domain_specs(st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(3), Fraction(7, 2),
                                          Fraction(24), Fraction(240, 13)])),
       seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60))
@example(spec=spec_of(1, 5, 20, Fraction(240, 13)), seed=0, n=60)
def test_score_run_float_error_is_within_its_bound_of_exact_rationals(spec, seed, n):
    """A Fraction shadow of score_run, driven by the float charges the policy
    placed: eta from alpha * c less (alpha - p) * v per slot, and
    GreedyOptimum's exact value of each prefix, both at the exact capacity.
    Bounds, with k the nonzero charges so far and u the unit roundoff:
      eta   (k + 4) u alpha / p_min: alpha * c rounds twice, each charge
            adds two roundings of (alpha - p) v and one of eta (all at most
            alpha c), and the exact eta is at least p_min c;
      opt   4 u: the capped optimum rounds a fill or unmet amount, its
            product with a price and the exact sum, and the uncapped one
            c and price * c;
      ratio the two, plus u for the division.
    Over 3,000 random specs of this domain at these capacities (10,477
    runs), eta missed by at most 0.71 of its bound, opt by 2.4 u and ratio
    by 0.63 of its bound; the largest relative misses were 4.8e-12 for eta
    and ratio (alpha / p_min = 8,800) and 2.6e-16 for opt."""
    prices = tuple(random_prices(np.random.default_rng(seed), spec, n))
    cfg = ExperimentConfig()
    for policy in RATIO_POLICIES:
        if policy == "int" and spec.capacity.denominator != 1:
            continue
        capped = runner.capped(policy)
        opts = offline.optimum_path(spec, prices, capped)
        _, charges, etas, ratios = runner.score_run(cfg, spec, prices, opts, policy)
        alpha = Fraction(spec.alpha)
        eta, k = alpha * spec.capacity, 0
        for t, (price, v) in enumerate(zip(prices, charges)):
            eta -= (alpha - Fraction(price)) * Fraction(v)
            k += v != 0.0
            opt = GreedyOptimum(spec, prices[: t + 1], capped).exact()
            eta_bound = (k + 4) * _U * spec.alpha / spec.p_min
            for name, value, exact, bound in (("eta", etas[t], eta, eta_bound),
                                              ("opt", opts[t], opt, 4 * _U),
                                              ("ratio", ratios[t], eta / opt, eta_bound + 5 * _U)):
                assert abs(Fraction(value) - exact) <= bound * exact, (policy, t, name)


class TestSweeps:
    def test_alpha_sweep_monotone_in_urgency(self, corpus_cfg, corpus_data):
        cfg = replace(corpus_cfg, alpha_grid=(1.0, 2.0, 4.0, 7.0, 10.0))
        rows = sweep_alpha(cfg, corpus_data)
        fractions = [r.mean_charged_fraction for r in rows]
        # pricier dissatisfaction pushes the policy to charge more
        assert fractions[0] == 0.0
        assert rows[0].mean_ratio == 1.0
        assert all(a <= b + 1e-9 for a, b in zip(fractions, fractions[1:]))
        assert fractions[-1] >= 0.90
        assert all(r.alpha == pytest.approx(r.alpha_factor * corpus_data.calibration.p_min)
                   for r in rows)
        assert all(1.0 - 1e-9 <= r.mean_ratio <= r.pi_star + 1e-6 for r in rows)

    def test_rate_sweep_faster_charging_helps(self, corpus_cfg, corpus_data):
        cfg = replace(corpus_cfg, rate_grid=(0.5, 0.75, 1.0, 1.25, 1.5))
        rows = sweep_rate_limit(cfg, corpus_data)
        assert [r.capacity for r in rows] == ["48", "32", "24", "96/5", "16"]
        assert [r.policy for r in rows] == ["int", "int", "int", "rat", "int"]
        algs = [r.mean_alg_objective for r in rows]
        opts = [r.mean_opt_objective for r in rows]
        assert all(a >= b - 1e-9 for a, b in zip(algs, algs[1:]))
        assert all(a >= b - 1e-9 for a, b in zip(opts, opts[1:]))
        assert all(a >= o - 1e-9 for a, o in zip(algs, opts))

    def test_rate_sweep_reads_the_batch_optimum(self, corpus_cfg, corpus_data):
        # capacities above 1 (int, rat: the capped stream) and at or below
        # it (fixed: the uncapped stream, equal there to the capped value)
        cfg = replace(corpus_cfg, rate_grid=(0.5, 1.25, 24.0, 48.0))
        rows = sweep_rate_limit(cfg, corpus_data)
        assert [(r.capacity, r.policy) for r in rows] == [
            ("48", "int"), ("96/5", "rat"), ("1", "fixed"), ("1/2", "fixed")]
        calib = corpus_data.calibration
        alpha = spec_from_calibration(cfg, calib).alpha
        for row in rows:
            spec = validate_spec(calib.p_min, calib.p_max, alpha, row.capacity, cfg.slot_minutes)
            scale = row.rate_factor * slot_energy_kwh(cfg)
            expected = fmean(opt_rate_limited(spec, ep.trace.slots)[0] * scale
                             for ep in corpus_data.episodes)
            assert row.mean_opt_objective == expected

    @pytest.mark.parametrize("sweep, grid", [(sweep_alpha, {"alpha_grid": (1.0, 4.0, 20.0)}),
                                             (sweep_rate_limit, {"rate_grid": (0.5, 1.25, 48.0)})])
    def test_sweep_walks_the_episodes_once(self, corpus_cfg, corpus_data, monkeypatch, sweep, grid):
        # one score_run per (episode, grid point), episodes outermost
        calls = []
        real = runner.score_run

        def counting(cfg, spec, prices, opts, policy, date="", columns=True):
            calls.append((date, spec))
            return real(cfg, spec, prices, opts, policy, date, columns)

        for module in (sweeps, runner):
            monkeypatch.setattr(module, "score_run", counting)
        rows = sweep(replace(corpus_cfg, **grid), corpus_data)
        dates = [date for date, _ in calls]
        assert dates == sorted(dates)
        specs = {spec for _, spec in calls}
        assert len(specs) == len(rows) == 3
        assert len(set(calls)) == len(calls)  # no (episode, grid point) is scored twice
        assert len(calls) == len(corpus_data.episodes) * len(rows)

    def test_compare_orders_policies_on_falling_prices(self, corpus_cfg, corpus_data):
        calib = corpus_data.calibration
        cfg = replace(
            corpus_cfg,
            alpha=calib.p_max,
            bucket="all",
            policies=("fixed", "adaptive", "int", "naive", "rhc:12", "rhc:0"),
        )
        rows = compare_policies(cfg, corpus_data)
        assert len(rows) == len(cfg.policies)
        assert all(r.bucket == "all" and r.episodes == 10 for r in rows)
        ratio = {r.policy: r.mean_ratio for r in rows}
        assert ratio["adaptive"] <= ratio["fixed"] + 1e-9
        assert max(ratio["fixed"], ratio["int"]) < ratio["naive"]
        assert ratio["naive"] < ratio["rhc:12"] < ratio["rhc:0"]

    def test_month_buckets_split_by_date(self, corpus_cfg, corpus_data):
        cfg = replace(corpus_cfg, bucket="month", policies=("never",))
        rows = compare_policies(cfg, corpus_data)
        assert [r.bucket for r in rows] == ["2021-03"]
        assert rows[0].episodes == 10

    def test_season_buckets_name_each_month(self):
        # every corpus starts in March, so only these rows reach the other seasons
        seasons = ("winter", "winter", "spring", "spring", "spring", "summer", "summer", "summer",
                   "fall", "fall", "fall", "winter")
        rows = [EpisodeRow(f"2021-{month:02d}-15", "never", None, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0)
                for month in range(1, 13)]
        for row, season in zip(rows, seasons):
            assert [r.bucket for r in compare_rows([row], "season")] == [season], row.date
        assert [(r.bucket, r.episodes) for r in compare_rows(rows, "season")] == [
            ("fall", 3), ("spring", 3), ("summer", 3), ("winter", 3)]


class TestReport:
    def test_round_trip_both_formats(self, tmp_path):
        rows = [
            {"date": "2021-03-01", "policy": "fixed", "target_ratio": 1.892763262908371,
             "objective": 0.1 + 0.2, "slots": 180},
            {"date": "2021-03-02", "policy": "never", "target_ratio": None,
             "objective": 5.0, "slots": 180},
        ]
        path = tmp_path / "rows.json"
        emit_report(rows, "json", str(path))
        with open(path, encoding="utf-8") as fh:
            assert json.load(fh) == rows

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            emit_report([], "yaml", str(tmp_path / "rows.yaml"))

    def test_empty_rows_round_trip(self, tmp_path):
        path = tmp_path / "none.csv"
        emit_report([], "csv", str(path))
        assert path.read_bytes() == b""

    def test_csv_bytes_equal_per_cell_formatting(self, corpus_cfg, corpus_data):
        def per_cell(rows):  # reference: format every cell in Python, one row at a time
            fh = io.StringIO()
            writer = csv.writer(fh, lineterminator="\n")
            dicts = rows_to_dicts(rows)
            if dicts:
                header = list(dicts[0].keys())
                writer.writerow(header)
                for d in dicts:
                    writer.writerow(["" if d[k] is None else repr(d[k]) if isinstance(d[k], float)
                                     else str(d[k]) for k in header])
            return fh.getvalue()

        spec = spec_from_calibration(corpus_cfg, corpus_data.calibration)
        ep = corpus_data.episodes[0]
        row, slots = run_episode(corpus_cfg, spec, ep.trace, "naive", ep.date)
        cells = [None, 0, -7, True, False, 0.1 + 0.2, 1e-300, 5e-324, -0.0, 1e22,
                 math.inf, -math.inf, "plain", "a,b", 'say "hi"', "two\nlines", ""]
        reports = [
            [{"key": i, "value": v, "note": None} for i, v in enumerate(cells)],
            [{"only": v} for v in cells],  # one column
            [{"only": None}],
            [row],  # a record with a None cell (naive has no target ratio)
            slots,
            [],
        ]
        for rows in reports:
            fh = io.StringIO()
            write_report(rows, "csv", fh)
            assert fh.getvalue() == per_cell(rows), rows
            fh = io.StringIO()
            write_report(iter(rows), "csv", fh)  # any iterable, read once
            assert fh.getvalue() == per_cell(rows), rows

    @pytest.mark.parametrize("kind, columns", [
        (EpisodeRow, "date policy target_ratio charging_cost dissatisfaction objective ratio "
                     "charged_units charged_fraction charged_kwh"),
        (SlotRow, "date policy slot price charge eta opt ratio"),
        (sweeps.AlphaSweepRow, "alpha_factor alpha pi_star mean_ratio mean_charged_fraction"),
        (sweeps.RateSweepRow, "rate_factor capacity policy mean_alg_objective mean_opt_objective"),
        (sweeps.CompareRow, "bucket policy episodes mean_ratio mean_objective "
                            "mean_charged_fraction"),
    ])
    def test_rows_to_dicts_keys_in_field_order(self, kind, columns):
        # the keys are a report's columns, so their order is the csv header's
        columns = columns.split()
        rows = [kind._make(range(k, k + len(columns))) for k in (0, 100)]
        assert rows_to_dicts(rows) == [dict(zip(columns, row)) for row in rows]
        assert [list(d) for d in rows_to_dicts(rows)] == [columns, columns]


_CSV_TEXT = st.one_of(
    st.sampled_from(["", ",", '"', "\n", "\r", "\r\n", " ", "é", "日付"]),
    st.text(st.one_of(st.sampled_from(',"\n\r é'), st.characters(codec="utf-8")), max_size=8),
)
_REPORT_FLOATS = st.one_of(
    st.sampled_from([-0.0, math.inf, -math.inf, math.nan, 5e-324, 2.2e-308, 1e16, 1e-05]),
    st.floats(),
)


_METRICS = ("price", "charge", "eta", "opt", "ratio")


def _run_row(date, policy):
    """An episode row that the slot table reads only the date and policy of."""
    return EpisodeRow(date, policy, None, *[0.0] * 7)


def _episode(prices, paths, *runs):
    """One episode of a walk as run_policies yields it; each run is
    (date, policy, key, charges, etas, ratios), scored against paths[key]."""
    return (tuple(prices), paths,
            [(key, (_run_row(date, policy), list(c), list(e), list(r)))
             for date, policy, key, c, e, r in runs])


@st.composite
def _walks(draw):
    """Walks of a few episodes of at least one slot (score_run refuses an
    empty one), each with one to three optimum paths and runs of a few
    (date, policy) keys scored against them, in any order."""
    keys = draw(st.lists(st.tuples(_CSV_TEXT, _CSV_TEXT), min_size=1, max_size=4))
    walk = []
    for _ in range(draw(st.integers(0, 3))):
        n = draw(st.integers(1, 4))
        column = st.lists(_REPORT_FLOATS, min_size=n, max_size=n)
        paths = draw(st.lists(column, min_size=1, max_size=3))
        runs = draw(st.lists(st.tuples(st.sampled_from(keys), st.integers(0, len(paths) - 1)),
                             max_size=3))
        walk.append(_episode(draw(column), paths,
                             *[(*key, i, draw(column), draw(column), draw(column))
                               for key, i in runs]))
    return walk


@given(walk=_walks())
@example(walk=[])  # no rows, no header: as write_report
@example(walk=[_episode([-0.0, 1e-05], [[5e-324, 1.0]],
                        ("a\nb", "", 0, [math.inf, 0.1 + 0.2], [math.nan, -1.0], [1e16, 2.5])),
               _episode([0.0], [[0.0]],
                        ('say "x"', "rhc:0,naive", 0, [0.0], [0.0], [0.0]))])
# 0.0 and -0.0 are one dict key, and a nan is one only as the same object
@example(walk=[_episode([0.0, -0.0], [[0.0, -0.0]],
                        ("d", "p", 0, [0.0, -0.0], [0.0, -0.0], [0.0, -0.0]))])
@example(walk=[_episode([math.nan] * 3, [[math.nan] * 3],
                        ("d", "p", 0, [math.nan] * 3, [1.0] * 3, [float("nan")] * 3))])
@example(walk=[_episode([0.1 + 0.2], [[0.3]], ("d1", "fixed", 0, [1e-05], [3.0], [7.25])),
               _episode([0.1 + 0.2], [[0.3]], ("d2", "fixed", 0, [7.25], [3.0], [1e-05]))])
# runs on both paths share the episode's price lines, each path its own opt lines
@example(walk=[_episode([2.0, 1.5], [[4.0, 3.5], [4.0, 3.0]],
                        ("d", "int", 0, [0.0, 1.0], [4.0, 3.5], [1.0, 1.0]),
                        ("d", "fixed", 1, [0.5, 0.0], [3.0, 3.0], [0.75, 1.0]),
                        ("d", "naive", 0, [1.0, 1.0], [3.0, 2.5], [0.75, 0.7142857142857143]))])
def test_slot_table_bytes_equal_csv_writer(walk):
    fh = io.StringIO()
    rows = write_slot_table(iter(walk), fh)
    ref = io.StringIO()
    write_report([{"date": row.date, "policy": row.policy, "slot": t, "metric": metric,
                   "value": value}
                  for prices, paths, scored in walk
                  for key, (row, charges, etas, ratios) in scored
                  for t, slot in enumerate(zip(prices, charges, etas, paths[key], ratios))
                  for metric, value in zip(_METRICS, slot)], "csv", ref)
    assert fh.getvalue().encode("utf-8") == ref.getvalue().encode("utf-8")
    assert rows == [row for _, _, scored in walk for _, (row, *_) in scored]


_PARSER_TEXT = st.lists(st.one_of(
    st.sampled_from([
        "timestamp,price\n", "timestamp", "price", ",", '"', "\n", "\r\n", "\r", "\x00", " ",
        "2021-03-01 17:00", "2021-03-01T17:05:00+01:00", "9999-12-31T23:59:00-01:00",
        "0001-01-01T00:00:00+01:00", "1.5", "-2", "nan", "inf", "1e999", "é",
        "[", "]", "{", "}", ":", "null", '"a"', "#", "=", "alpha = 3", "policies =",
        "window_start = 25:00", "slot_minutes = 0", "trim = 0.7", "tz_offset_minutes = 1e3",
    ]),
    st.text(max_size=6),
), max_size=12).map("".join)


@pytest.fixture(scope="module")
def parse_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("parse")


@given(text=_PARSER_TEXT, tz=st.integers(-24 * 60 + 1, 24 * 60 - 1))
@example(text="timestamp,price\n" + "x" * (csv.field_size_limit() + 1) + ",1\n", tz=0)
@example(text="timestamp,price\n9999-12-31T23:59:00-01:00,1\n", tz=0)
@example(text="timestamp,price\n0001-01-01T00:00:00+01:00,1\n", tz=0)
def test_parsers_raise_only_parse_or_validation_errors(parse_dir, text, tz):
    def written(name):
        path = parse_dir / name
        path.write_text(text, encoding="utf-8", newline="")
        return str(path)

    for parse in (
        lambda: _parse_rows(written("prices.csv"), tz),
        lambda: parse_config_text(text),
    ):
        try:
            parse()
        except (ParseError, ValidationError):
            pass


class TestSynthetic:
    def test_models_are_seeded_and_banded(self):
        for model in ("log_uniform", "regime", "descending"):
            a = synthetic_prices(model, days=2, seed=5)
            b = synthetic_prices(model, days=2, seed=5)
            assert np.array_equal(a, b)
            assert a.shape == (2 * 288,)
            assert a.min() >= 1.0 and a.max() <= 10.0

    def test_unknown_model_rejected(self):
        with pytest.raises(ValidationError):
            synthetic_prices("sawtooth", days=1, seed=0)

    def test_write_corpus_layout(self, tmp_path):
        path = tmp_path / "two.csv"
        write_corpus(str(path), "descending", days=2, seed=5)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "timestamp,price"
        assert len(lines) == 1 + 2 * 288
        assert lines[1].startswith("2021-03-01 17:00:00,")


class TestCli:
    def test_solve_ratio_prints_solution(self, capsys):
        code = cli.main(["solve-ratio", "--p-min", "1", "--p-max", "5", "--alpha", "5"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pi_star"] == pytest.approx(1.892763262908371, rel=1e-12)
        assert payload["branch"] == "root"

    def test_solve_ratio_invalid_spec_exits_one(self, capsys):
        code = cli.main(["solve-ratio", "--p-min", "0", "--p-max", "5", "--alpha", "5"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_solve_ratio_subnormal_band_exits_one(self, capsys):
        code = cli.main(["solve-ratio", "--p-min", "1e-312", "--p-max", "1.001e-312",
                         "--alpha", "3e-312"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "1e-312, 1.001e-312" in err and "Traceback" not in err

    def test_solve_ratio_unbracketed_threshold_names_the_band(self, capsys):
        # p_min / p_max = 1e-308 is subnormal, too few digits for the threshold's root
        code = cli.main(["solve-ratio", "--p-min", "1", "--p-max", "1e308", "--alpha", "2"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "p_min=1.0, p_max=1e+308" in err

    def test_solve_ratio_alpha_one_ulp_above_p_min_rounds_to_one(self, capsys):
        # pi* - 1 is about 8.2e-17 here, so the float nearest pi* is 1 itself
        code = cli.main(["solve-ratio", "--p-min", "1", "--p-max", "5", "--alpha", "1.0000000000000002"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["pi_star"] == float(root_pi_star_oracle(spec_of(1, 5, 1.0000000000000002))) == 1.0
        assert payload["branch"] == "degenerate"

    def test_adversary_writes_descending_csv(self, tmp_path):
        out = tmp_path / "trace.csv"
        code = cli.main([
            "adversary", "--p-min", "1", "--p-max", "5", "--alpha", "5",
            "--steps", "50", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "slot,price"
        prices = [float(line.split(",")[1]) for line in lines[1:]]
        assert len(prices) == 50
        assert all(a > b for a, b in zip(prices, prices[1:]))

    def test_adversary_past_row_limit_exits_one(self, capsys):
        # a billion rows: refused before the trace is built, not killed
        code = cli.main(["adversary", "--p-min", "1", "--p-max", "5", "--alpha", "5",
                         "--capacity", "1e9", "--rate-limited", "--steps", "1"])
        err = capsys.readouterr().err
        assert code == 1
        assert "1 steps at capacity 1000000000" in err and "1000000000 rows" in err

    def test_adversary_bad_steps_exits_one(self, capsys):
        code = cli.main([
            "adversary", "--p-min", "1", "--p-max", "5", "--alpha", "5", "--steps", "0",
        ])
        assert code == 1

    @pytest.mark.parametrize("capacity, repeat", [("3", 3), ("5/2", 3)])
    def test_adversary_rate_limited_honours_pi(self, capsys, capacity, repeat):
        argv = ["adversary", "--p-min", "1", "--p-max", "5", "--alpha", "5", "--pi", "2.5",
                "--steps", "40", "--capacity", capacity]
        assert cli.main(argv) == 0
        levels = [line.split(",")[1] for line in capsys.readouterr().out.splitlines()[1:]]
        assert cli.main(argv + ["--rate-limited"]) == 0
        repeated = [line.split(",")[1] for line in capsys.readouterr().out.splitlines()[1:]]
        assert float(levels[0]) == 5 / 2.5  # the --pi target's forcing price
        assert repeated == [p for p in levels for _ in range(repeat)]

    @pytest.mark.parametrize("mode", [[], ["--rate-limited"]])
    @pytest.mark.parametrize("alpha, pi", [
        *(pytest.param("5", pi, id=pi) for pi in ("nan", "inf", "1", "0.9999999999999")),
        pytest.param("20", "0.9999999999999", id="0.9999999999999-alpha20"),
    ])
    def test_adversary_bad_pi_exits_one(self, capsys, mode, alpha, pi):
        # at alpha == p_max a target of 1 leaves no descent: the total
        # diverges; at alpha 20 it has one, but a target below 1 is refused
        code = cli.main(["adversary", "--p-min", "1", "--p-max", "5", "--alpha", alpha,
                         "--pi", pi] + mode)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("alpha, rows", [("1e12", 500), ("1e13", 56)])
    def test_adversary_fits_fewer_levels_at_a_large_alpha(self, capsys, alpha, rows):
        # np.geomspace rounds in log10, so 1000 levels do not fit at this
        # alpha; the descent halves its levels until they do
        assert cli.main(["adversary", "--p-min", "1", "--p-max", "5", "--alpha", alpha,
                         "--steps", "1000"]) == 0
        prices = [float(line.split(",")[1]) for line in capsys.readouterr().out.splitlines()[1:]]
        assert len(prices) == rows
        assert all(a > b for a, b in zip(prices, prices[1:]))
        assert (prices[0], prices[-1]) == (5.0, 1.0)

    @pytest.mark.parametrize("args, lines, digest", [
        (["--steps", "200"], 201,
         "7cb2c81ee48770fcb7588f6e7f3a828391d95423291203a78ca536389a32ba78"),
        (["--capacity", "3", "--steps", "40", "--rate-limited"], 121,
         "e96b05c935237d5448444c4a648d19626e01d1247c45d94574a2495c81dfde60"),
        (["--capacity", "3/2", "--pi", "1.5", "--steps", "1000"], 1001,
         "94a3e3d6cc6af2596f620e1a299656ada054fdca62420271679a0a15277023b8"),
    ])
    def test_adversary_output_unchanged(self, capsys, args, lines, digest):
        # digests of the output of the version that imported numpy at module level
        assert cli.main(["adversary", "--p-min", "1", "--p-max", "5", "--alpha", "5"] + args) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == lines
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    def test_adversary_rows_do_not_depend_on_the_price_unit(self, capsys):
        # the same spec at p_min 1 and 1e-14 writes the same number of rows
        for p_min, p_max in (("1", "5"), ("1e-14", "5e-14")):
            assert cli.main(["adversary", "--p-min", p_min, "--p-max", p_max, "--alpha", p_max,
                             "--capacity", "2", "--steps", "1000"]) == 0
            assert capsys.readouterr().out.count("\n") == 1001, p_min

    def test_cli_import_leaves_unused_modules_unloaded(self):
        # every command pays for what importing the CLI loads: numpy and the
        # adversary serve only `adversary`, and statistics nothing
        src = os.path.abspath(os.path.join(os.path.dirname(cli.__file__), "..", ".."))
        probe = ("import sys, evcharge.harness.cli; "
                 "print(sorted({'statistics', 'evcharge.adversary', 'numpy'} & set(sys.modules)))")
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              text=True, timeout=60, check=True)
        assert done.stdout.strip() == "[]"

    def test_simulate_writes_reports_deterministically(self, corpus_path, tmp_path):
        outputs = []
        for name in ("first", "second"):
            out = tmp_path / name
            code = cli.main([
                "simulate", "--prices", corpus_path,
                "--policies", "fixed,naive", "--out", str(out),
            ])
            assert code == 0
            for fname in ("summary.csv", "summary.json", "slots.csv",
                          "compare.csv", "calibration.json"):
                assert (out / fname).exists()
            outputs.append({f: (out / f).read_bytes()
                            for f in ("summary.csv", "compare.csv", "calibration.json")})
        assert outputs[0] == outputs[1]
        with open(tmp_path / "first" / "summary.json", encoding="utf-8") as fh:
            summary = json.load(fh)
        assert len(summary) == 20
        assert {r["policy"] for r in summary} == {"fixed", "naive"}

    def test_simulate_runs_each_episode_once(self, corpus_path, corpus_data, tmp_path, monkeypatch):
        calls = []
        real = runner.score_run

        def counting(cfg, spec, prices, opts, policy, date="", columns=True):
            calls.append((date, policy))
            return real(cfg, spec, prices, opts, policy, date, columns)

        # every module that could hold a reference to the episode loop, which
        # run_episode wraps too
        for module in (cli, sweeps, runner, report):
            monkeypatch.setattr(module, "score_run", counting, raising=False)
        out = tmp_path / "once"
        assert cli.main(["simulate", "--prices", corpus_path, "--out", str(out)]) == 0
        policies = ExperimentConfig().policies
        assert len(calls) == len(corpus_data.episodes) * len(policies)
        assert sorted(set(calls)) == sorted((ep.date, p) for ep in corpus_data.episodes
                                            for p in policies)

    @pytest.mark.parametrize("policies, capped_paths, uncapped_paths", [
        (None, 1, 1),  # the default policies: three capped, two not
        ("fixed,never", 0, 1),
        ("int,rhc:0,naive", 1, 0),
    ])
    def test_simulate_builds_one_optimum_per_kind_and_episode(
            self, corpus_path, corpus_data, tmp_path, monkeypatch, policies, capped_paths,
            uncapped_paths):
        built = []  # each tracker's capacity: 24 capped, 1 for an uncapped path

        class Counted(RateLimitedOptimum):
            def __init__(self, spec):
                built.append(spec.capacity)
                super().__init__(spec)

        for module in (cli, sweeps, runner, report, offline):
            monkeypatch.setattr(module, "RateLimitedOptimum", Counted, raising=False)
        argv = ["simulate", "--prices", corpus_path, "--out", str(tmp_path / "out")]
        assert cli.main(argv + (["--policies", policies] if policies else [])) == 0
        episodes = len(corpus_data.episodes)
        assert built.count(Fraction(24)) == capped_paths * episodes
        assert built.count(Fraction(1)) == uncapped_paths * episodes
        assert len(built) == (capped_paths + uncapped_paths) * episodes

    def test_guard_trip_leaves_no_partial_slot_table(self, corpus_path, tmp_path, capsys,
                                                    monkeypatch):
        # naive has no guard, so its run of the first episode is streamed
        # before fixed trips its guard at the first slot
        argv = ["simulate", "--prices", corpus_path, "--policies", "naive,fixed", "--out"]
        out = tmp_path / "out"
        assert cli.main(argv + [str(out)]) == 0
        before = {f.name: f.read_bytes() for f in out.iterdir()}
        fresh = tmp_path / "fresh"
        monkeypatch.setattr(runner, "RATIO_GUARD_TOL", -1.0)
        for target in (out, fresh):
            capsys.readouterr()
            assert cli.main(argv + [str(target)]) == 3
            assert "internal error: fixed: ratio" in capsys.readouterr().err
        assert {f.name: f.read_bytes() for f in out.iterdir()} == before
        assert list(fresh.iterdir()) == []  # made before the walk, and left empty

    def test_failed_rename_leaves_no_partial_slot_table(self, corpus_path, tmp_path, capsys):
        # a directory where slots.csv should go fails the final rename
        out = tmp_path / "out"
        (out / "slots.csv").mkdir(parents=True)
        assert cli.main(["simulate", "--prices", corpus_path, "--policies", "naive",
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert [f.name for f in out.iterdir()] == ["slots.csv"]
        assert (out / "slots.csv").is_dir()

    def test_simulate_compare_matches_compare_policies(self, corpus_path, corpus_cfg, corpus_data,
                                                       tmp_path):
        out = tmp_path / "sim"
        assert cli.main(["simulate", "--prices", corpus_path, "--out", str(out)]) == 0
        expected = tmp_path / "compare.csv"
        emit_report(compare_policies(corpus_cfg, corpus_data), "csv", str(expected))
        assert (out / "compare.csv").read_bytes() == expected.read_bytes()

    def test_simulate_without_prices_exits_one(self, capsys):
        assert cli.main(["simulate"]) == 1

    def test_sweep_without_prices_exits_one(self, capsys):
        assert cli.main(["sweep", "--alpha-grid", "1,2"]) == 1
        assert "needs --prices" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["simulate"], ["sweep", "--alpha-grid", "1,2"],
                                         ["sweep", "--rate-grid", "1"]])
    def test_no_complete_episode_exits_one(self, capsys, tmp_path, command):
        # three slots of the 17:00-08:00 window, which needs 180
        rows = [("2021-03-01 17:00", 2.0), ("2021-03-01 17:05", 3.0), ("2021-03-01 17:10", 4.0)]
        path = _write_prices(tmp_path / "short.csv", rows)
        assert cli.main(command + ["--prices", path, "--out", str(tmp_path / "out")]) == 1
        assert "short.csv: no complete episodes" in capsys.readouterr().err

    def test_window_past_year_9999_is_incomplete(self, capsys, tmp_path):
        # the window's later slots would fall after 9999-12-31: they cannot
        # exist, so the window is dropped as incomplete
        path = _write_prices(tmp_path / "last_day.csv",
                             [("9999-12-31 17:00", 1.0), ("9999-12-31 17:05", 2.0)])
        data = ingest_prices(path, ExperimentConfig(prices=path))
        assert (data.episodes, data.dropped_incomplete) == ((), 1)
        assert cli.main(["simulate", "--prices", path, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {path}: no complete episodes\n"

    @pytest.mark.parametrize("p_max", ["1.0000001", "1.00000001", "1.000000001", "1.0000000001",
                                       "1.00000000001", "1.000000000001", "1.0000000000001"])
    def test_solve_ratio_nearly_flat_band_matches_the_oracles(self, capsys, p_max):
        # alpha* sits about 0.58 (p_max - p_min) above p_max, below alpha = 2
        code = cli.main(["solve-ratio", "--p-min", "1", "--p-max", p_max, "--alpha", "2"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0 and payload["branch"] == "closed_form"
        spec = spec_of(1, float(p_max), 2)
        assert relative_miss(payload["alpha_star"], alpha_star_oracle(spec)) <= ALPHA_STAR_BOUND
        assert relative_miss(payload["pi_star"], closed_form_pi_star_oracle(spec)) <= CLOSED_FORM_BOUND

    @pytest.mark.parametrize("p_max", ["1.0000001", "1.000000001", "1.00000000001",
                                       "1.0000000000001"])
    def test_solve_ratio_alpha_at_p_min_on_nearly_flat_band(self, capsys, p_max):
        # the target is 1 by definition, whether or not the band has a
        # float threshold alpha_star
        code = cli.main(["solve-ratio", "--p-min", "1", "--p-max", p_max, "--alpha", "1"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["pi_star"] == 1.0
        assert payload["branch"] == "degenerate"

    @pytest.mark.parametrize("grid, factor", [("0.0001,0.00006", "6e-05"), ("1e-05", "1e-05")])
    def test_rate_factor_past_the_denominator_bound_exits_one(self, corpus_path, tmp_path, capsys,
                                                              grid, factor):
        # snapping the factor would run one capacity and scale by another
        code = cli.main(["sweep", "--prices", corpus_path, "--rate-grid", grid,
                         "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert f"rate factor {factor} " in err and "denominator" in err

    @pytest.mark.parametrize("grid, message", [("0.7,0.00006", "rate factor 6e-05 "),
                                               ("0.7,-1", "rate factor must be positive")])
    def test_bad_rate_factor_fails_before_any_run(self, corpus_path, tmp_path, capsys, monkeypatch,
                                                  grid, message):
        calls = []
        real = runner.score_run

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        for module in (sweeps, runner):
            monkeypatch.setattr(module, "score_run", counting)
        out = tmp_path / "out"
        code = cli.main(["sweep", "--prices", corpus_path, "--rate-grid", grid, "--out", str(out)])
        assert code == 1
        assert message in capsys.readouterr().err
        assert calls == []
        assert not out.exists()

    def test_solve_ratio_one_ulp_band_takes_the_closed_form(self, capsys):
        # p_min / p_max is the float below 1; alpha* is p_max plus 0.58 of
        # the band, which rounds one ulp above p_max
        code = cli.main(["solve-ratio", "--p-min", "1.5", "--p-max", "1.5000000000000002",
                         "--alpha", "2"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0 and payload["branch"] == "closed_form"
        assert payload["alpha_star"] == 1.5000000000000004
        assert payload["pi_star"] == payload["theta"] == 1.0000000000000002

    @pytest.mark.parametrize("argv, message", [
        # the distributor added a group of 10**24 sub-problems one at a time
        (["simulate", "--capacity", "1.000000000000000000000001", "--policies", "rat"],
         "error: capacity 1.000000000000000000000001: its denominator is above 10000\n"),
        # 1e-320 has a subnormal float value, and fixed tripped its ratio guard
        (["simulate", "--capacity", "1e-320", "--policies", "fixed"],
         "error: capacity 1e-320: its denominator is above 10000\n"),
        # float value 0.0
        (["simulate", "--capacity", "1e-400"], "error: capacity 1e-400: its denominator is above 10000\n"),
        # the overflow message printed the 5001-digit Fraction
        (["simulate", "--capacity", "1e5000"], "capacity=1e5000\n"),
        (["solve-ratio", "--p-min", "1", "--p-max", "2", "--alpha", "3", "--capacity", "1e5000"],
         "error: alpha * capacity overflows a float: alpha=3.0, capacity=1e5000\n"),
        (["solve-ratio", "--p-min", "1", "--p-max", "2", "--alpha", "3", "--capacity", "1e-5000"],
         "error: capacity 1e-5000: its denominator is above 10000\n"),
    ], ids=["long-fraction", "subnormal", "zero-float", "huge", "solve-huge", "solve-tiny"])
    def test_text_capacity_out_of_bounds_exits_one(self, regime_paths, tmp_path, argv, message):
        # in a child with a time limit: the first case ran for minutes
        if argv[0] == "simulate":
            argv = argv + ["--prices", regime_paths[0], "--out", str(tmp_path / "out")]
        src = os.path.abspath(os.path.join(os.path.dirname(cli.__file__), "..", ".."))
        done = subprocess.run([sys.executable, "-m", "evcharge.harness.cli"] + argv,
                              env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 1
        assert done.stderr.startswith("error: ") and done.stderr.endswith(message)
        assert "Traceback" not in done.stderr and not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["simulate", "--capacity", "240/13", "--policies", "fixed,adaptive,rat,rhc:0,naive,never"],
        ["sweep", "--rate-grid", "0.7,0.9,1.1,1.25,1.3"],
    ])
    def test_prices_near_the_smallest_normal_float_run(self, regime_paths, tmp_path, capsys, argv):
        # p_min is about 1.3 * 2**-1020 here, so the capped optimum's units
        # would leave the float range and its value is taken from its definition
        out = tmp_path / "out"
        assert cli.main(argv + ["--prices", regime_paths[1], "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert any(out.iterdir())

    def test_simulate_missing_file_exits_two(self, capsys, tmp_path):
        assert cli.main(["simulate", "--prices", str(tmp_path / "ghost.csv")]) == 2

    def test_simulate_malformed_file_exits_two(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("when,price\n2021-03-01,2\n", encoding="utf-8")
        assert cli.main(["simulate", "--prices", str(path)]) == 2

    # alpha = p_min * (1 + 3e-7) on each corpus: adaptive's charges divide by
    # alpha - price, so their float error is large; unclamped, it took the
    # total past the capacity by 6.3e-9 and 1.4e-9, beyond CAPACITY_SLACK
    @pytest.mark.parametrize("model, days, seed, alpha", [
        ("descending", 10, 7, 1.4464858837129562),
        ("regime", 30, 1, 1.3285429979490724),
    ])
    def test_adaptive_with_alpha_near_p_min_stays_within_capacity(self, tmp_path, model, days, seed,
                                                                   alpha):
        path = str(tmp_path / "prices.csv")
        write_corpus(path, model, days=days, seed=seed)
        data = ingest_prices(path, ExperimentConfig())
        assert alpha == data.calibration.p_min * (1 + 3e-7)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--prices", path, "--policies", "adaptive", "--capacity", "240/13",
                         "--alpha", repr(alpha), "--out", str(out)]) == 0
        with open(out / "summary.csv", newline="", encoding="utf-8") as fh:
            charged = [float(row["charged_units"]) for row in csv.DictReader(fh)]
        assert len(charged) == len(data.episodes)
        assert max(charged) <= 240 / 13 + runner.CAPACITY_SLACK

    def test_internal_violation_exits_three(self, capsys, monkeypatch):
        def boom(args):
            raise InternalConsistencyError("guarantee violated")

        monkeypatch.setitem(cli._COMMANDS, "solve-ratio", boom)
        code = cli.main(["solve-ratio", "--p-min", "1", "--p-max", "5", "--alpha", "5"])
        assert code == 3
        assert "internal error" in capsys.readouterr().err

    def test_sweep_alpha_grid(self, corpus_path, tmp_path):
        out = tmp_path / "sweeps"
        code = cli.main([
            "sweep", "--prices", corpus_path, "--alpha-grid", "1,4,10", "--out", str(out),
        ])
        assert code == 0
        with open(out / "sweep_alpha.json", encoding="utf-8") as fh:
            rows = json.load(fh)
        assert [r["alpha_factor"] for r in rows] == [1.0, 4.0, 10.0]
        assert rows[-1]["mean_charged_fraction"] >= 0.90

    @pytest.mark.parametrize("argv", [
        ["sweep", "--alpha-grid", "a,b"],
        ["sweep", "--alpha-grid", ","],
        ["sweep", "--alpha-grid", ""],
        ["sweep", "--rate-grid", "inf"],
        ["sweep", "--rate-grid", "nan"],
        ["simulate", "--capacity", "abc"],
        ["simulate", "--capacity", "1/0"],
        ["simulate", "--config", "alpha_grid = 1, x"],
        ["simulate", "--config", "capacity = abc"],
    ])
    def test_bad_numbers_exit_one(self, corpus_path, tmp_path, capsys, argv):
        if argv[1] == "--config":
            config = tmp_path / "bad.cfg"
            config.write_text(argv[2] + "\n", encoding="utf-8")
            argv = argv[:2] + [str(config)]
        code = cli.main(argv + ["--prices", corpus_path, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_empty_grid_flag_exits_one(self, corpus_path, tmp_path, capsys):
        # an empty --alpha-grid is given, not absent: it must not fall back to a rate sweep
        code = cli.main(["sweep", "--alpha-grid", "", "--prices", corpus_path,
                         "--out", str(tmp_path / "out")])
        assert code == 1
        assert "alpha_grid: empty grid ''" in capsys.readouterr().err

    @pytest.mark.parametrize("setting, key", [
        (["--alpha", "1e308"], "alpha"),  # alpha * capacity overflows
        (["--config", "tz_offset_minutes = 100000"], "tz_offset_minutes"),
        (["--config", "policies ="], "policies"),
        (["--policies", ""], "policies"),
    ])
    def test_bad_settings_exit_one_naming_the_key(self, corpus_path, tmp_path, capsys, setting, key):
        if setting[0] == "--config":
            config = tmp_path / "bad.cfg"
            config.write_text(setting[1] + "\n", encoding="utf-8")
            setting = ["--config", str(config)]
        out = tmp_path / "out"
        code = cli.main(["simulate"] + setting + ["--prices", corpus_path, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and key in err
        assert not out.exists()

    def test_report_command_is_gone(self, capsys):
        # summary and both sweep reports are written as .csv and .json already
        with pytest.raises(SystemExit) as exc:
            cli.main(["report", "--in", "x", "--format", "csv"])
        assert exc.value.code == 2
        assert "invalid choice: 'report'" in capsys.readouterr().err

    def test_repeated_config_key_exits_one(self, corpus_path, tmp_path, capsys):
        config = tmp_path / "twice.cfg"
        config.write_text("alpha_factor = 2\nalpha_factor = 3\n", encoding="utf-8")
        out = tmp_path / "out"
        code = cli.main(["simulate", "--config", str(config), "--prices", corpus_path,
                         "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == "error: config line 2: key 'alpha_factor' repeats line 1\n"
        assert not out.exists()

    def test_non_utf8_config_exits_one(self, corpus_path, tmp_path, capsys):
        config = tmp_path / "latin1.cfg"
        config.write_bytes(b"alpha_factor = 3 # \xe9t\xe9\n")
        code = cli.main(["simulate", "--config", str(config), "--prices", corpus_path,
                         "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "latin1.cfg" in err
        assert "Traceback" not in err

    def test_byte_order_mark_is_accepted_in_price_and_config_files(self, corpus_path, tmp_path):
        # a leading UTF-8 BOM is not part of the header or of the first key
        plain = Path(corpus_path).read_bytes()
        settings = b"alpha_factor = 3\npolicies = fixed, naive\n"
        inputs = {"plain": (plain, settings), "price-bom": (b"\xef\xbb\xbf" + plain, settings),
                  "config-bom": (plain, b"\xef\xbb\xbf" + settings)}
        reports = {}
        for tag, (prices, config) in inputs.items():
            (tmp_path / f"{tag}.csv").write_bytes(prices)
            (tmp_path / f"{tag}.cfg").write_bytes(config)
            out = tmp_path / tag
            code = cli.main(["simulate", "--prices", str(tmp_path / f"{tag}.csv"),
                             "--config", str(tmp_path / f"{tag}.cfg"), "--out", str(out)])
            assert code == 0
            reports[tag] = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
        assert len(reports["plain"]) == 5
        assert reports["price-bom"] == reports["plain"] == reports["config-bom"]

    @pytest.mark.parametrize("setting, twice", [
        (["--policies", "fixed,fixed,naive"], "fixed"),
        (["--config", "policies = naive, rhc:0, fixed, naive"], "naive"),
    ])
    def test_repeated_policy_exits_one_naming_it(self, corpus_path, tmp_path, capsys, setting,
                                                 twice):
        if setting[0] == "--config":
            config = tmp_path / "twice.cfg"
            config.write_text(setting[1] + "\n", encoding="utf-8")
            setting = ["--config", str(config)]
        out = tmp_path / "out"
        code = cli.main(["simulate"] + setting + ["--prices", corpus_path, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and f"policies: {twice!r} is listed twice" in err
        assert not out.exists()

    @pytest.mark.parametrize("policy", ["rhc:1_0", "rhc: 3", "rhc:03", "rhc:+3", "rhc:-0"])
    def test_rhc_horizon_in_another_spelling_exits_one(self, corpus_path, tmp_path, capsys, policy):
        code = cli.main(["simulate", "--prices", corpus_path, "--policies", f"fixed,{policy}",
                         "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and repr(policy) in err

    @pytest.mark.parametrize("policies, capacity", [
        ("fixed,bogus", "24"), ("fixed,rhc:03", "24"), ("naive,int", "3/2"),
    ])
    def test_bad_policy_leaves_no_out_directory(self, corpus_path, tmp_path, capsys, policies,
                                                capacity):
        out = tmp_path / "out"
        code = cli.main(["simulate", "--prices", corpus_path, "--policies", policies,
                         "--capacity", capacity, "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    def test_simulate_slots_csv_layout(self, corpus_path, corpus_cfg, corpus_data, tmp_path):
        out = tmp_path / "sim"
        assert cli.main(["simulate", "--prices", corpus_path, "--policies", "fixed,int",
                         "--out", str(out)]) == 0
        spec = spec_from_calibration(corpus_cfg, corpus_data.calibration)
        expected = []
        for ep in corpus_data.episodes:
            for policy in ("fixed", "int"):
                expected.extend(run_episode(corpus_cfg, spec, ep.trace, policy, ep.date)[1])
        with open(out / "slots.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["date", "policy", "slot", "metric", "value"]
        assert len(rows) == 1 + 5 * len(expected)
        metrics = ("price", "charge", "eta", "opt", "ratio")
        for i, s in enumerate(expected):
            block = rows[1 + 5 * i : 6 + 5 * i]
            assert [r[3] for r in block] == list(metrics)
            for row, metric in zip(block, metrics):
                assert row[:3] == [s.date, s.policy, str(s.slot)]
                assert float(row[4]) == getattr(s, metric)

    def test_write_report_same_bytes_for_record_and_dict_rows(self, corpus_cfg, corpus_data):
        spec = spec_from_calibration(corpus_cfg, corpus_data.calibration)
        ep = corpus_data.episodes[0]
        for policy in ("fixed", "naive"):  # naive has no target ratio: a None cell
            row, slots = run_episode(corpus_cfg, spec, ep.trace, policy, ep.date)
            for rows in ([row], slots):
                for fmt in ("csv", "json"):
                    outputs = []
                    by_name = [{name: getattr(r, name) for name in r._fields} for r in rows]
                    for form in (rows, rows_to_dicts(rows), by_name):
                        fh = io.StringIO()
                        write_report(form, fmt, fh)
                        outputs.append(fh.getvalue())
                    assert outputs[0] == outputs[1] == outputs[2]
