"""Offline optimum oracles: closed form, greedy, and streaming updates."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from conftest import lattice_optimum
from evcharge.core import validate_spec
from evcharge.offline import (
    new_offline_state,
    offline_step,
    opt_no_limit_stream,
    opt_rate_limited,
)


def _no_limit_opt(spec, prices):
    """The uncapped optimum of the whole prefix: the stream's last value."""
    *_, last = opt_no_limit_stream(spec, prices)
    return last


class TestOptNoLimit:
    def test_min_below_alpha(self):
        spec = validate_spec(1, 8, 4, 2)
        assert _no_limit_opt(spec, [5, 3, 7]) == pytest.approx(6.0)

    def test_dissatisfaction_only(self):
        spec = validate_spec(1, 8, 4, 2)
        assert _no_limit_opt(spec, [5]) == pytest.approx(8.0)

    def test_realistic_prefix(self):
        spec = validate_spec(1.3, 5.902, 2.6, 24)
        assert _no_limit_opt(spec, [2.0, 1.3]) == pytest.approx(31.2)


class TestOptRateLimited:
    def test_two_cheap_slots(self):
        spec = validate_spec(1, 8, 10, 2)
        value, sched = opt_rate_limited(spec, [5, 3, 7, 2])
        assert value == pytest.approx(5.0)
        assert sched == (0.0, 1.0, 0.0, 1.0)

    def test_expensive_slots_skipped(self):
        spec = validate_spec(1, 8, 2.5, 2)
        value, sched = opt_rate_limited(spec, [5, 3, 7, 2])
        assert value == pytest.approx(4.5)
        assert sched == (0.0, 0.0, 0.0, 1.0)

    def test_all_cheapest(self):
        spec = validate_spec(1, 5, 3, 3)
        value, sched = opt_rate_limited(spec, [1.0, 1.0, 1.0])
        assert value == pytest.approx(3.0)
        assert math.fsum(sched) == pytest.approx(3.0)

    def test_fractional_capacity_marginal_slot(self):
        spec = validate_spec(1, 8, 10, Fraction(3, 2))
        value, sched = opt_rate_limited(spec, [5, 3, 7, 2])
        # cheapest slot filled, next-cheapest takes the half unit
        assert sched == (0.0, 0.5, 0.0, 1.0)
        assert value == pytest.approx(2 + 1.5)

    def test_capacity_above_horizon(self):
        spec = validate_spec(1, 8, 10, 6)
        value, sched = opt_rate_limited(spec, [5, 3])
        assert sched == (1.0, 1.0)
        assert value == pytest.approx(5 + 3 + 10 * 4)

    def test_price_tie_keeps_earliest_slot(self):
        spec = validate_spec(1, 8, 10, 1)
        _, sched = opt_rate_limited(spec, [3.0, 3.0, 3.0])
        assert sched == (1.0, 0.0, 0.0)

    def test_price_at_alpha_excluded(self):
        # charging at exactly alpha is value-neutral; the schedule skips it
        spec = validate_spec(1, 8, 3, 1)
        value, sched = opt_rate_limited(spec, [3.0, 5.0])
        assert math.fsum(sched) == 0.0
        assert value == pytest.approx(3.0)


class TestOfflineStep:
    def test_stream_three_prices(self):
        spec = validate_spec(1, 8, 10, 2)
        state = new_offline_state(spec)
        assert state.opt_value == pytest.approx(20.0)
        state = offline_step(state, 3.0)
        assert state.opt_value == pytest.approx(13.0)
        state = offline_step(state, 7.0)
        assert sorted(p for p, _ in state.kept) == [3.0, 7.0]
        assert state.opt_value == pytest.approx(10.0)
        state = offline_step(state, 2.0)
        assert sorted(p for p, _ in state.kept) == [2.0, 3.0]
        assert state.opt_value == pytest.approx(5.0)

    def test_streaming_equals_batch_exactly(self):
        rng = np.random.default_rng(42)
        spec = validate_spec(0.25, 5.0, 2.5, Fraction(7, 2))
        for _ in range(200):
            T = int(rng.integers(1, 51))
            prices = (rng.integers(1, 21, size=T) * 0.25).tolist()
            state = new_offline_state(spec)
            for t in range(T):
                state = offline_step(state, prices[t])
                batch, _ = opt_rate_limited(spec, prices[: t + 1])
                assert state.opt_value == batch  # bit-exact, same summation

    def test_opt_non_increasing_and_bounded(self):
        rng = np.random.default_rng(3)
        spec = validate_spec(1, 5, 4, 3)
        for _ in range(50):
            prices = rng.uniform(1, 5, size=40)
            state = new_offline_state(spec)
            prev = spec.alpha * spec.capacity_f
            for p in prices:
                state = offline_step(state, float(p))
                assert state.opt_value <= prev + 1e-12
                prev = state.opt_value
            assert state.opt_value <= spec.alpha * spec.capacity_f + 1e-12

    def test_full_kept_set_is_plain_sum(self):
        spec = validate_spec(1, 8, 10, 2)
        state = new_offline_state(spec)
        for p in [4.0, 2.0, 3.0, 5.0]:
            state = offline_step(state, p)
        assert len(state.kept) == 2
        assert state.opt_value == pytest.approx(2.0 + 3.0)

    def test_fill_table_grows_only_with_the_kept_set(self):
        # a capacity far beyond the horizon tabulates only the fills in use
        spec = validate_spec(1, 8, 5, 10**6)
        state = new_offline_state(spec)
        for p in [4.0, 6.0, 2.0]:
            state = offline_step(state, p)
        assert state.fill.fills == [1.0, 1.0]
        assert state.fill.unmet == [1e6, 1e6 - 1, 1e6 - 2]
        assert state.opt_value == 2.0 + 4.0 + 5 * (1e6 - 2)

    def test_no_limit_tracker(self):
        spec = validate_spec(1, 8, 4, 2)
        assert _no_limit_opt(spec, [5.0, 3.0, 7.0]) == pytest.approx(6.0)


def test_greedy_matches_lattice_dp_small():
    # spot check against the independent DP; the full sweep runs in acceptance
    grid = [1.0, 1.5, 2.5, 4.0, 5.0]
    spec_caps = [Fraction(1), Fraction(2), Fraction(3, 2)]
    for cap in spec_caps:
        spec = validate_spec(1, 5, 2.75, cap)
        for T in (1, 2, 3, 4):
            for prices in itertools.combinations_with_replacement(grid, T):
                value, _ = opt_rate_limited(spec, list(prices))
                oracle = lattice_optimum(spec, prices)
                assert value == pytest.approx(oracle, abs=1e-9), (cap, prices)


def test_value_is_permutation_invariant():
    spec = validate_spec(1, 5, 3, 2)
    base = [4.5, 1.0, 2.0, 3.5, 1.5]
    ref, _ = opt_rate_limited(spec, base)
    for perm in itertools.permutations(base):
        value, _ = opt_rate_limited(spec, list(perm))
        assert value == pytest.approx(ref, rel=1e-12)


@given(
    prices=st.lists(st.sampled_from([1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0]), min_size=1, max_size=12),
    alpha=st.sampled_from([2.0, 3.0, 4.5]),
    m=st.integers(1, 16),
    n=st.integers(1, 4),
)
@example(prices=[2.0, 1.5, 2.0], alpha=3.0, m=1, n=2)  # c < 1
@example(prices=[2.0, 4.0, 1.0, 1.0], alpha=3.0, m=4, n=2)  # whole c
@example(prices=[1.0, 2.5, 1.0], alpha=3.0, m=15, n=4)  # ceil(c) > T
def test_streamed_optimum_matches_batch_and_lattice(prices, alpha, m, n):
    # coarse grid: ties, prices at alpha and above it
    spec = validate_spec(1, 5, alpha, Fraction(m, n))
    state = new_offline_state(spec)
    for t, price in enumerate(prices):
        state = offline_step(state, price)
        batch, _ = opt_rate_limited(spec, prices[: t + 1])
        assert state.opt_value == batch  # bit-exact
        assert state.opt_value == pytest.approx(
            lattice_optimum(spec, prices[: t + 1], step=n), abs=1e-9
        )


@given(
    prices=st.lists(st.one_of(st.sampled_from([1.0, 2.0, 3.0]), st.floats(0.5, 10.0)),
                    min_size=1, max_size=30),
    alpha=st.sampled_from([0.5, 1.0, 2.0, 3.0, 7.5]),
    capacity=st.integers(1, 7).flatmap(lambda n: st.builds(Fraction, st.integers(1, n), st.just(n))),
)
@example(prices=[3.0, 4.0], alpha=2.0, capacity=Fraction(1, 3))  # nothing below alpha
def test_optima_agree_bit_for_bit_at_capacity_up_to_one(prices, alpha, capacity):
    # at c <= 1 one slot takes the whole need: fills[0] is float(c) and the
    # unmet term is alpha * 0.0, so the cap never binds
    spec = validate_spec(0.5, 10.0, alpha, capacity)
    assert _no_limit_opt(spec, prices) == opt_rate_limited(spec, prices)[0]
