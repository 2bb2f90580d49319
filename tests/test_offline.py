"""Offline optimum oracles: closed form, greedy, and streaming updates."""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from conftest import capped_optimum_reference, lattice_optimum, opt_no_limit_path
from evcharge.core import ValidationError, validate_spec
from evcharge.offline import (
    RateLimitedOptimum,
    new_offline_state,
    offline_step,
    opt_rate_limited,
    optimum_path,
)


def _no_limit_opt(spec, prices):
    """The uncapped optimum of the whole prefix: the path's last value."""
    return optimum_path(spec, prices, False)[-1]


def _step(tracker, price):
    """The tracker's optimum after one more slot."""
    return tracker.path((price,))[0]


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

    def test_empty_prefix_rejected(self):
        with pytest.raises(ValidationError, match=r"^empty price prefix$") as exc:
            opt_rate_limited(validate_spec(1, 8, 10, 2), [])
        assert isinstance(exc.value, ValueError)

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
        assert _step(tracker, 3.0) == pytest.approx(13.0)
        assert _step(tracker, 7.0) == pytest.approx(10.0)
        assert tracker.kept == [3.0, 7.0]
        assert _step(tracker, 2.0) == pytest.approx(5.0)
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
                assert _step(tracker, prices[t]) == batch  # bit-exact, same summation

    def test_opt_non_increasing_and_bounded(self):
        rng = np.random.default_rng(3)
        spec = validate_spec(1, 5, 4, 3)
        for _ in range(50):
            prices = rng.uniform(1, 5, size=40)
            tracker = RateLimitedOptimum(spec)
            prev = spec.alpha * spec.capacity_f
            for p in prices:
                opt = _step(tracker, float(p))
                assert opt <= prev + 1e-12
                prev = opt
            assert opt <= spec.alpha * spec.capacity_f + 1e-12

    def test_full_kept_set_is_plain_sum(self):
        spec = validate_spec(1, 8, 10, 2)
        tracker = RateLimitedOptimum(spec)
        for p in [4.0, 2.0, 3.0, 5.0]:
            opt = _step(tracker, p)
        assert len(tracker.kept) == 2
        assert opt == pytest.approx(2.0 + 3.0)

    def test_huge_capacity_allocates_nothing_per_unit(self):
        # a capacity far beyond the horizon keeps only the slots seen; a
        # list per unit of capacity would take megabytes
        spec = validate_spec(1, 8, 5, 10**6)
        tracemalloc.start()
        try:
            tracker = RateLimitedOptimum(spec)
            opts = tracker.path([4.0, 6.0, 2.0])
            value, schedule = opt_rate_limited(spec, [4.0, 6.0, 2.0])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        assert tracker.kept == [2.0, 4.0]
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
    # wrapper: its .kept must differ from the last exactly on the slots
    # that enter the kept set, those the test-side optimum of their own
    # prefix fills
    spec = validate_spec(0.5, 10.0, alpha, Fraction(m, n))
    state, tracker = new_offline_state(spec), RateLimitedOptimum(spec)
    for t, price in enumerate(prices):
        entered = capped_optimum_reference(spec, prices[: t + 1])[1][t] > 0.0
        nxt, opt = offline_step(state, price), _step(tracker, price)
        assert (nxt.kept != state.kept) == entered
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
        opt = _step(tracker, price)
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
        assert _step(tracker, price) == capped_optimum_reference(spec, prices[: t + 1])[0]


# whole capacities whose kept set fills within 60 slots (1, 2, 24) take the
# total-only shortcut; 1/2, 7/2 and 240/13 always add the fractional and
# unmet terms, and 10**6 never fills
_PATH_CAPACITIES = [Fraction(1, 2), Fraction(1), Fraction(2), Fraction(7, 2), Fraction(24),
                    Fraction(240, 13), Fraction(10**6)]
# p_min, by which the drawn band and prices are scaled: at the three tiny
# ones p_min's units leave the float range at most capacities, so the value
# is taken from its definition from the first slot
_P_MINS = [1.0, 1e-300, 2.0**-1020, 2.0**-1022]
_LOW_SPEC = validate_spec(2.3e-308, 1e-307, 5e-307, Fraction(7, 2))  # units below 2**-1074


def _scaled_spec(draw, alphas):
    """A spec with p_min from _P_MINS, p_max 10 p_min, alpha one of alphas
    times p_min and a capacity from _PATH_CAPACITIES."""
    p_min = draw(st.sampled_from(_P_MINS))
    return validate_spec(p_min, 10.0 * p_min, draw(st.sampled_from(alphas)) * p_min,
                         draw(st.sampled_from(_PATH_CAPACITIES)))


@st.composite
def _path_case(draw):
    """A scaled spec, 0-60 prices (ties, alpha itself, prices above it) and
    a cut where the path is split into two calls."""
    spec = _scaled_spec(draw, [1.5, 3.0, 4.5, 10.0])
    p_min = spec.p_min
    price = st.one_of(st.sampled_from([p * p_min for p in _TIED] + [spec.alpha]),
                      st.floats(1.0, 10.0).map(lambda x: x * p_min))
    prices = draw(st.lists(price, max_size=60))
    return spec, prices, draw(st.integers(0, len(prices)))


@given(case=_path_case())
@example(case=(validate_spec(1.0, 10.0, 4.5, 24), [1 + 3 / k for k in range(1, 41)], 25))  # kept full at 24
@example(case=(validate_spec(1.0, 10.0, 4.5, 2), [1.5, 1.5, 1.0, 1.5, 1.0], 2))  # ties past c
@example(case=(_LOW_SPEC, [3e-308, 2.5e-308, 4e-308, 2.3e-308, 9e-308, 2.4e-308, 2.3e-308], 3))
def test_optimum_paths_equal_steps_and_reference_bit_for_bit(case):
    # both kinds: one optimum_path call, the same run cut into two tracker
    # calls, one call per price, and the test-side optimum of every prefix
    # (uncapped: min(cheapest, alpha) * c; capped: one fsum of the kept
    # prices' fills plus alpha * unmet) agree to the last bit.  The uncapped
    # tracker runs at capacity 1 and its values are scaled by c
    spec, prices, cut = case
    capped_reference = [capped_optimum_reference(spec, prices[: t + 1])[0] for t in range(len(prices))]
    for capped, tracked, c, reference in (
            (False, spec._replace(capacity=Fraction(1)), spec.capacity_f, opt_no_limit_path(spec, prices)),
            (True, spec, 1.0, capped_reference)):
        split, stepper = RateLimitedOptimum(tracked), RateLimitedOptimum(tracked)
        paths = (optimum_path(spec, prices, capped),
                 [opt * c for opt in split.path(prices[:cut]) + split.path(prices[cut:])],
                 [_step(stepper, p) * c for p in prices], reference)
        assert len({tuple(x.hex() for x in path) for path in paths}) == 1, capped


_TINY = 2.0**-1022  # the smallest normal float


@st.composite
def _far_case(draw):
    """A scaled spec and 1-40 prices that the band does not bound: below
    p_min down to 1e-200 of it and to the subnormals, mixed with prices up
    to 10 p_min."""
    spec = _scaled_spec(draw, [1.5, 4.5, 12.0])
    p_min = spec.p_min
    price = st.one_of(st.floats(1e-200, 10.0).map(lambda x: x * p_min),
                      st.floats(0.0, _TINY, exclude_max=True),
                      st.sampled_from([1e-300, 10.0 * p_min, p_min, 5e-324]))
    return spec, draw(st.lists(price, min_size=1, max_size=40))


@given(case=_far_case())
@example(case=(validate_spec(1.0, 10.0, 12.0, 24), [5e-324 * k for k in range(1, 40)]))  # subnormal only
@example(case=(validate_spec(1.0, 10.0, 12.0, Fraction(7, 2)), [1e-300, 10.0, 1e-300, 1e-300, 10.0]))
@example(case=(validate_spec(1.0, 10.0, 12.0, Fraction(240, 13)), [1e-300, 10.0] * 15))
@example(case=(validate_spec(1.0, 10.0, 1.5, Fraction(1, 2)), [1e-310, 2.5e-320, 1.0]))  # sum subnormal
@example(case=(validate_spec(1.0, 10.0, 12.0, 24), [11.0 - k / 8 for k in range(40)]))  # above 2**53 units
@example(case=(validate_spec(1.0, 10.0, 4.5, 2), [0.3, 0.7, 0.9, 1.1]))  # binades just below p_min's
@example(case=(validate_spec(1e-300, 1e-299, 5e-300, Fraction(7, 2)), [2e-300, 3e-300, 1e-310, 4e-300]))
@example(case=(validate_spec(1.0, 10.0, 4.5, Fraction(7, 2)), [3.0, 0.0, -2.5, 1e-200, -0.0, 2.0, -1e300]))
@example(case=(_LOW_SPEC, [3e-308, 1e-310, 2.4e-308, 0.0, 4e-308, 5e-324, -1e-307]))
def test_capped_path_is_exact_far_outside_the_band(case):
    # the kept sum is exact however far apart its prices lie: one path
    # call, the run cut in two, and the test-side fsum of every prefix
    # agree to the last bit
    spec, prices = case
    cut = len(prices) // 2
    split = RateLimitedOptimum(spec)
    paths = (RateLimitedOptimum(spec).path(prices), split.path(prices[:cut]) + split.path(prices[cut:]),
             [capped_optimum_reference(spec, prices[: t + 1])[0] for t in range(len(prices))])
    assert len({tuple(x.hex() for x in path) for path in paths}) == 1


@given(case=_capped_case())
@example(case=(validate_spec(1.0, 10.0, 3.0, Fraction(5, 2)), [2.0, 1.0, 2.0, 2.0]))
def test_batch_schedule_equals_reference_fills(case):
    spec, prices = case
    value, schedule = opt_rate_limited(spec, prices)
    ref_value, ref_schedule = capped_optimum_reference(spec, prices)
    assert value == ref_value
    assert list(schedule) == ref_schedule


@given(
    prices=st.lists(st.one_of(st.sampled_from([1.0, 2.0, 3.0, 0.0, -0.0, -1.5]), st.floats(0.5, 10.0),
                              st.floats(-10.0, 0.0)),
                    min_size=1, max_size=30),
    alpha=st.sampled_from([0.5, 1.0, 2.0, 3.0, 7.5]),
    capacity=st.integers(1, 7).flatmap(lambda n: st.builds(Fraction, st.integers(1, n), st.just(n))),
)
@example(prices=[3.0, 4.0], alpha=2.0, capacity=Fraction(1, 3))  # nothing below alpha
@example(prices=[-0.0], alpha=2.0, capacity=Fraction(1))  # a signed zero price
@example(prices=[3.0, -5e-324], alpha=2.0, capacity=Fraction(1, 2))  # a product that rounds to -0.0
def test_optima_agree_bit_for_bit_at_capacity_up_to_one(prices, alpha, capacity):
    # at c <= 1 one slot takes the whole need: fills[0] is float(c) and the
    # unmet term is alpha * 0.0, so the cap never binds; the paths agree on
    # every prefix, the sign of a zero included
    spec = validate_spec(0.5, 10.0, alpha, capacity)
    paths = [[opt.hex() for opt in optimum_path(spec, prices, capped)] for capped in (False, True)]
    assert paths[0] == paths[1]
    assert _no_limit_opt(spec, prices).hex() == opt_rate_limited(spec, prices)[0].hex()
