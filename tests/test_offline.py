"""Offline optimum oracles: closed form, greedy, and streaming updates."""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from conftest import capped_optimum_reference, lattice_optimum
from evcharge.core import validate_spec
from evcharge.offline import (
    NoLimitOptimum,
    RateLimitedOptimum,
    new_offline_state,
    offline_step,
    opt_rate_limited,
)


def _no_limit_opt(spec, prices):
    """The uncapped optimum of the whole prefix: the tracker's last value."""
    tracker = NoLimitOptimum(spec)
    for price in prices:
        opt = tracker.step(price)
    return opt


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
        tracker = RateLimitedOptimum(spec)
        assert tracker.opt == pytest.approx(20.0)
        assert tracker.step(3.0) == pytest.approx(13.0)
        assert tracker.step(7.0) == pytest.approx(10.0)
        assert tracker.kept == [3.0, 7.0]
        assert tracker.step(2.0) == pytest.approx(5.0)
        assert tracker.kept == [2.0, 3.0]

    def test_streaming_equals_batch_exactly(self):
        rng = np.random.default_rng(42)
        spec = validate_spec(0.25, 5.0, 2.5, Fraction(7, 2))
        for _ in range(200):
            T = int(rng.integers(1, 51))
            prices = (rng.integers(1, 21, size=T) * 0.25).tolist()
            tracker = RateLimitedOptimum(spec)
            for t in range(T):
                batch, _ = opt_rate_limited(spec, prices[: t + 1])
                assert tracker.step(prices[t]) == batch  # bit-exact, same summation

    def test_opt_non_increasing_and_bounded(self):
        rng = np.random.default_rng(3)
        spec = validate_spec(1, 5, 4, 3)
        for _ in range(50):
            prices = rng.uniform(1, 5, size=40)
            tracker = RateLimitedOptimum(spec)
            prev = spec.alpha * spec.capacity_f
            for p in prices:
                opt = tracker.step(float(p))
                assert opt <= prev + 1e-12
                prev = opt
            assert opt <= spec.alpha * spec.capacity_f + 1e-12

    def test_full_kept_set_is_plain_sum(self):
        spec = validate_spec(1, 8, 10, 2)
        tracker = RateLimitedOptimum(spec)
        for p in [4.0, 2.0, 3.0, 5.0]:
            opt = tracker.step(p)
        assert len(tracker.kept) == 2
        assert opt == pytest.approx(2.0 + 3.0)

    def test_huge_capacity_allocates_nothing_per_unit(self):
        # a capacity far beyond the horizon keeps only the slots seen; a
        # list per unit of capacity would take megabytes
        spec = validate_spec(1, 8, 5, 10**6)
        tracemalloc.start()
        try:
            tracker = RateLimitedOptimum(spec)
            opts = [tracker.step(p) for p in [4.0, 6.0, 2.0]]
            value, schedule = opt_rate_limited(spec, [4.0, 6.0, 2.0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        assert (tracker.kept, tracker.slots) == ([2.0, 4.0], [2, 0])
        assert opts[-1] == value == 2.0 + 4.0 + 5 * (1e6 - 2)
        assert schedule == (1.0, 0.0, 1.0)

    def test_no_limit_tracker(self):
        spec = validate_spec(1, 8, 4, 2)
        assert _no_limit_opt(spec, [5.0, 3.0, 7.0]) == pytest.approx(6.0)


@given(
    prices=st.lists(st.floats(0.5, 10.0), min_size=1, max_size=40),
    alpha=st.sampled_from([0.5, 2.0, 4.5, 7.5]),
    m=st.integers(1, 60),
    n=st.integers(1, 7),
)
@example(prices=[3.0, 1.0, 3.0, 1.0, 2.0], alpha=2.0, m=1, n=7)
def test_compat_state_kept_changes_with_the_tracker(prices, alpha, m, n):
    # the benchmark counts kept-set changes through the compatibility
    # wrapper: its .kept must differ from the last exactly on those slots
    spec = validate_spec(0.5, 10.0, alpha, Fraction(m, n))
    state, tracker = new_offline_state(spec), RateLimitedOptimum(spec)
    for price in prices:
        before = (list(tracker.kept), list(tracker.slots))
        nxt, opt = offline_step(state, price), tracker.step(price)
        assert (nxt.kept != state.kept) == ((tracker.kept, tracker.slots) != before)
        assert nxt.kept == tuple(tracker.kept)
        assert nxt.opt_value == opt
        state = nxt


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
    tracker = RateLimitedOptimum(spec)
    for t, price in enumerate(prices):
        opt = tracker.step(price)
        batch, _ = opt_rate_limited(spec, prices[: t + 1])
        assert opt == batch  # bit-exact
        assert opt == pytest.approx(lattice_optimum(spec, prices[: t + 1], step=n), abs=1e-9)


_TIED = [1.0, 1.5, 2.0, 3.0, 4.5]


@st.composite
def _capped_case(draw):
    """A capacity m/n with n <= 7 and m <= 60 (c < 1 included) or 10**6,
    far past any horizon; alpha inside or above the prices; 1-40 prices
    from a small grid (ties) or anywhere in the band, at alpha or above it."""
    capacity = draw(st.one_of(
        st.builds(Fraction, st.integers(1, 60), st.integers(1, 7)),
        st.just(Fraction(10**6)),
    ))
    alpha = draw(st.sampled_from([1.5, 3.0, 4.5, 10.0]))
    spec = validate_spec(1.0, 10.0, alpha, capacity)
    price = st.one_of(st.sampled_from(_TIED + [alpha]), st.floats(1.0, 10.0))
    return spec, draw(st.lists(price, min_size=1, max_size=40))


@given(case=_capped_case())
@example(case=(validate_spec(1.0, 10.0, 3.0, Fraction(2, 7)), [2.0, 1.0, 1.0, 3.0]))  # c < 1
@example(case=(validate_spec(1.0, 10.0, 4.5, 10**6), [4.5, 2.0, 2.0, 9.0]))  # c >> T
@example(case=(validate_spec(1.0, 10.0, 3.0, Fraction(7, 2)), [1.5] * 6))  # ties past ceil(c)
@example(case=(validate_spec(1.0, 10.0, 1.5, Fraction(5, 3)), [1.5, 4.5, 10.0]))  # all >= alpha
def test_tracker_value_equals_reference_on_every_prefix(case):
    spec, prices = case
    tracker = RateLimitedOptimum(spec)
    for t, price in enumerate(prices):
        assert tracker.step(price) == capped_optimum_reference(spec, prices[: t + 1])[0]


@given(case=_capped_case())
@example(case=(validate_spec(1.0, 10.0, 3.0, Fraction(5, 2)), [2.0, 1.0, 2.0, 2.0]))
def test_batch_schedule_equals_reference_fills(case):
    spec, prices = case
    value, schedule = opt_rate_limited(spec, prices)
    ref_value, ref_schedule = capped_optimum_reference(spec, prices)
    assert value == ref_value
    assert list(schedule) == ref_schedule


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
