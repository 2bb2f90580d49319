"""Worst-case descent construction and the truncation duel."""

import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, reject, strategies as st

from evcharge.adversary import (
    MAX_TRACE_ROWS,
    adaptive_adversary,
    worst_case_no_limit,
    worst_case_rate_limited,
)
from evcharge.core import ValidationError, validate_spec
from evcharge.online import make_policy
from evcharge.ratio import NoBracket, max_total_charge, solve_pi_star

from conftest import GreedyOptimum, domain_specs, drive, eta_path, spec_of


class TestWorstCaseNoLimit:
    def test_two_step_endpoints(self):
        # shortest nontrivial descent: the forcing price, then the floor
        spec = spec_of(1, 5, 5, 1)
        pi = solve_pi_star(spec).pi_star
        trace = worst_case_no_limit(spec, pi, 2)
        assert len(trace) == 2
        assert trace[0] == spec.alpha / pi
        assert trace[0] == pytest.approx(2.641640451282391, rel=1e-12)
        assert trace[-1] == spec.p_min

    def test_strictly_decreasing_inside_band(self):
        spec = spec_of(1, 5, 5, 1)
        pi = solve_pi_star(spec).pi_star
        trace = worst_case_no_limit(spec, pi, 10_000)
        prices = np.asarray(trace)
        assert len(trace) == 10_000
        assert (np.diff(prices) < 0).all()
        assert prices[0] == spec.alpha / pi
        assert prices[-1] == spec.p_min
        assert prices.min() >= spec.p_min and prices.max() <= spec.p_max

    def test_start_clamps_at_price_ceiling(self):
        # a lenient target would force charging above the band; clamp to p_max
        spec = spec_of(1, 5, 20, 1)
        trace = worst_case_no_limit(spec, 1.0, 100)
        assert trace[0] == spec.p_max

    def test_degenerate_target_collapses_to_floor(self):
        spec = spec_of(1, 5, 5, 1)
        trace = worst_case_no_limit(spec, spec.alpha / spec.p_min, 50)
        assert trace == (spec.p_min,)
        assert len(trace) == 1

    def test_alpha_at_floor_has_no_descent(self):
        spec = spec_of(2, 5, 2, 1)
        with pytest.raises(ValidationError, match=r"alpha == p_min: .*no descent exists"):
            worst_case_no_limit(spec, 1.0, 10)

    def test_rejects_bad_arguments(self):
        spec = spec_of(1, 5, 5, 1)
        with pytest.raises(ValidationError):
            worst_case_no_limit(spec, 1.5, 0)
        for pi in (0.5, math.nan, math.inf):
            with pytest.raises(ValidationError):
                worst_case_no_limit(spec, pi, 10)

    def test_narrow_descent_caps_step_count(self):
        # start barely above the floor: only so many distinct levels fit
        spec = spec_of(1, 5, 5, 1)
        trace = worst_case_no_limit(spec, spec.alpha / (1 + 1e-9), 10**6)
        assert 1 < len(trace) < 10**6
        prices = np.asarray(trace)
        assert (np.diff(prices) < 0).all()
        assert prices[0] == 1 + 1e-9
        assert prices[-1] == spec.p_min

    def test_levels_stay_floats_apart_when_alpha_is_just_above_p_min(self):
        # the descent spans 28 ulps here: levels at least 8 eps alpha apart
        # leave room for two, where 1000 would fail the level check
        spec = spec_of(1, 5, 1 + 1e-14, 1)
        pi = solve_pi_star(spec).pi_star
        prices = worst_case_no_limit(spec, pi, 1000)
        assert prices == (spec.alpha / pi, spec.p_min)

    @pytest.mark.parametrize("p_max, alpha, steps", [(5, 1e10, 1000), (1 + 1e-6, 1e4, 300)])
    def test_a_narrow_band_far_below_alpha_keeps_every_step(self, p_max, alpha, steps):
        # the levels are far more than 8 eps alpha apart (0.004 against 2e-5
        # at alpha 1e10), so the cap must not cut the descent, at any scale
        for k in (0, -40):
            spec = spec_of(*(math.ldexp(x, k) for x in (1, p_max, alpha)), 1)
            pi = solve_pi_star(spec).pi_star
            assert len(worst_case_no_limit(spec, pi, steps)) == steps, k


class TestWorstCaseRateLimited:
    def test_levels_repeat_capacity_times(self):
        spec = spec_of(1, 5, 5, 2)
        pi = solve_pi_star(spec).pi_star
        prices = worst_case_rate_limited(spec, pi, 3)
        assert len(prices) == 6
        assert prices[0::2] == prices[1::2]
        levels = prices[0::2]
        assert all(a > b for a, b in zip(levels, levels[1:]))
        base = worst_case_no_limit(spec, pi, 3)
        assert levels == base

    def test_fractional_capacity_repeats_levels_ceil_times(self):
        # the last, fractional sub-problem needs the full descent too
        for capacity, repeat in ((Fraction(3, 2), 2), (Fraction(1, 2), 1)):
            spec = spec_of(1, 5, 5, capacity)
            pi = solve_pi_star(spec).pi_star
            levels = worst_case_no_limit(spec, pi, 3)
            trace = worst_case_rate_limited(spec, pi, 3)
            assert len(trace) == 3 * repeat
            assert all(trace[k::repeat] == levels for k in range(repeat))


    def test_traces_past_the_row_limit_are_refused_before_they_are_built(self):
        spec = spec_of(1, 5, 5, 1)
        with pytest.raises(ValidationError, match="1000001 steps at capacity 1 .* 1000001 rows"):
            worst_case_no_limit(spec, 1.5, MAX_TRACE_ROWS + 1)
        wide = spec_of(1, 5, 5, 10**9)  # one level, repeated a billion times
        with pytest.raises(ValidationError, match="1 steps at capacity 1000000000 .* 1000000000 rows"):
            worst_case_rate_limited(wide, 1.5, 1)


@st.composite
def _fractional_spec(draw):
    """c = m/n with n <= 7 and m <= 60, a random band, and alpha from just
    above p_min to 4 p_max, which reaches both branches of the target solver."""
    m, n = draw(st.integers(1, 60)), draw(st.integers(1, 7))
    p_min = draw(st.sampled_from([0.5, 1.0, 3.0]))
    theta = draw(st.floats(1.1, 8.0))
    alpha = p_min * draw(st.floats(1.05, 4.0 * theta))
    return validate_spec(p_min, p_min * theta, alpha, Fraction(m, n))


@given(spec=_fractional_spec(), steps=st.integers(1, 200))
def test_repeated_descent_holds_rat_at_target_against_capped_optimum(spec, steps):
    """rat ends at pi* times GreedyOptimum's capped value: below it only by
    the descent's discretization, above it only by float noise.  Descents
    with fewer levels than ceil(c) fall far short without the repeats."""
    pi = solve_pi_star(spec).pi_star
    prices = worst_case_rate_limited(spec, pi, steps)
    eta = eta_path(spec, prices, drive("rat", spec, prices))[-1]
    ratio = eta / GreedyOptimum(spec, prices, True).value
    assert pi * (1 - 1e-3) <= ratio <= pi * (1 + 1e-12)


class TestDescentExhaustsTarget:
    def test_total_charge_climbs_to_supremum(self):
        # finer descents push the target policy's total toward its worst case
        spec = spec_of(1, 5, 5, 1)
        pi = solve_pi_star(spec).pi_star
        ceiling = max_total_charge(spec, pi)
        assert ceiling == pytest.approx(1.0, rel=1e-12)
        totals = []
        for n in (2, 10, 50, 100, 1000, 10_000):
            runner = make_policy("fixed", spec)
            trace = worst_case_no_limit(spec, pi, n)
            totals.append(math.fsum(runner.charge(p) for p in trace))
        assert totals[0] == pytest.approx(0.7768091842729072, rel=1e-12)
        assert all(a <= b + 1e-12 for a, b in zip(totals, totals[1:]))
        assert all(t <= ceiling + 1e-9 for t in totals)
        assert totals[-1] >= 0.99


class TestAdaptiveAdversary:
    def test_reference_policy_plays_full_descent(self):
        spec = spec_of(1, 5, 5, 2)
        pi = solve_pi_star(spec).pi_star
        trace, ratio = adaptive_adversary(make_policy("fixed", spec), spec, 10_000)
        assert len(trace) == 10_000
        assert ratio == pytest.approx(pi, rel=1e-12)

    def test_adaptive_policy_survives_full_descent(self):
        spec = spec_of(1, 5, 5, 2)
        pi = solve_pi_star(spec).pi_star
        trace, ratio = adaptive_adversary(make_policy("adaptive", spec), spec, 10_000)
        assert len(trace) == 10_000
        assert ratio == pytest.approx(1.8926896328916403, rel=1e-9)
        assert ratio <= pi + 1e-12

    def test_capacity_splitters_truncate_early(self):
        # splitting the first price across sub-problems banks less than the
        # reference immediately, so the duel ends after the repeat
        spec = spec_of(1, 5, 5, 2)
        pi = solve_pi_star(spec).pi_star
        for name in ("int", "rat"):
            trace, ratio = adaptive_adversary(make_policy(name, spec), spec, 10_000)
            assert len(trace) == 2
            assert ratio == pytest.approx(1.8928079088213046, rel=1e-9)
            assert ratio >= pi - 0.02

    def test_rounding_at_a_large_capacity_does_not_end_the_duel(self):
        # at capacity 10**9 the reference's first charge, zero in exact
        # arithmetic, rounds to 4e-7: the slack scales with c to ignore it
        for capacity in (10**6, 10**9):
            spec = spec_of(1, 5, 5, capacity)
            trace, _ = adaptive_adversary(make_policy("int", spec), spec, 1000)
            assert len(trace) == 2, capacity

    def test_idle_policies_truncate_at_once(self):
        spec = spec_of(1, 5, 5, 2)
        pi = solve_pi_star(spec).pi_star
        for name in ("rhc:5", "never"):
            trace, ratio = adaptive_adversary(make_policy(name, spec), spec, 10_000)
            assert len(trace) == 2
            assert ratio == pytest.approx(1.8928525547342374, rel=1e-9)
            assert ratio >= pi - 0.02

    def test_greedy_policies_pay_the_opening_price(self):
        # charging flat-out from the first slot survives the duel but locks in
        # the opening price against a floor-priced optimum
        spec = spec_of(1, 5, 5, 2)
        pi = solve_pi_star(spec).pi_star
        for name in ("rhc:0", "naive"):
            trace, ratio = adaptive_adversary(make_policy(name, spec), spec, 10_000)
            assert len(trace) == 10_000
            assert ratio == pytest.approx(2.64157814402592, rel=1e-9)
            assert ratio > pi + 0.7

    def test_every_certificate_meets_the_target(self):
        spec = spec_of(1, 5, 5, 2)
        pi = solve_pi_star(spec).pi_star
        for name in ("fixed", "adaptive", "int", "rat", "rhc:0", "rhc:5", "naive", "never"):
            _, ratio = adaptive_adversary(make_policy(name, spec), spec, 2_000)
            assert ratio >= pi - 0.02, name

    @given(spec=domain_specs(st.sampled_from([1, 2, Fraction(5, 2), 7])))
    def test_every_certificate_but_adaptives_meets_the_target_on_generated_specs(self, spec):
        # A certificate is the policy's objective over the optimum.  On
        # 64,434 specs of this domain, at 20 to 2,000 steps, rhc:0, rhc:5,
        # naive and never never fell below pi*, and rat and int by at most
        # eps * alpha / p_min.  fixed fell up to 1.67 times that below it,
        # past this bound on 10 specs: the rounding of its own float charges
        # and of the certificate, about one eps with alpha near p_min.
        # adaptive falls short by its descent's discretization and is not
        # bounded here.
        try:
            pi = solve_pi_star(spec).pi_star
        except NoBracket:
            reject()
        delta = sys.float_info.epsilon * spec.alpha / spec.p_min
        names = ["fixed", "rat", "rhc:0", "rhc:5", "naive", "never"]
        if spec.capacity.denominator == 1:
            names.append("int")
        for name in names:
            _, ratio = adaptive_adversary(make_policy(name, spec), spec, 200)
            assert ratio >= pi * (1 - delta), name

    @given(spec=domain_specs(st.sampled_from([1, 2, Fraction(5, 2), 7])), n=st.integers(5, 100))
    def test_adaptives_shortfall_shrinks_tenfold_with_tenfold_steps(self, spec, n):
        # adaptive falls short of pi* by its descent's discretization.  Over
        # 14,823 runs on specs of this domain at n = 5 to 100, its shortfall
        # at 10n steps was at most 0.0992 of that at n wherever the latter
        # was above 1e-8.  Below that, rounding (up to 1.6e-10, all with
        # alpha/p_min - 1 under 1e-6) can outweigh the discretization.
        try:
            pi = solve_pi_star(spec).pi_star
        except NoBracket:
            reject()
        _, ratio = adaptive_adversary(make_policy("adaptive", spec), spec, n)
        shortfall = 1 - ratio / pi
        if shortfall <= 1e-8:
            reject()
        trace, ratio = adaptive_adversary(make_policy("adaptive", spec), spec, 10 * n)
        if len(trace) < 10 * n:
            reject()  # a narrow descent fits fewer levels than steps
        assert 1 - ratio / pi <= 0.1 * shortfall

    def test_never_charging_in_flat_regime_pays_ceiling_ratio(self):
        # when the target exceeds alpha/p_max the descent opens at the ceiling
        # and an idle policy is pinned to alpha/p_max on the spot
        spec = spec_of(1, 5, 20, 1)
        trace, ratio = adaptive_adversary(make_policy("never", spec), spec, 100)
        assert len(trace) == 1
        assert ratio == spec.alpha / spec.p_max == 4.0


@given(spec=domain_specs(st.sampled_from([1, 2, Fraction(5, 2), 7])), k=st.integers(-1000, 1000),
       steps=st.integers(2, 300))
@example(spec=spec_of(1, 5, 5, Fraction(5, 2)), k=-34, steps=1000)
@example(spec=spec_of(1, 5, 5, Fraction(5, 2)), k=-40, steps=1000)
@example(spec=spec_of(1, 5, 1 + 1e-12, 1), k=-1000, steps=300)  # gaps of 8 eps alpha
def test_adversary_is_scale_free(spec, k, steps):
    """With every price and alpha times 2**k (p_min kept within 1e-300 to
    1e300), the descent has as many rows, and so does every duel, whose
    certificate moves by at most 2 (D + eps) alpha/p_min of itself.  D is
    the largest relative difference between the two descents' gaps to
    alpha, alpha - p: np.geomspace does not commute with scaling, so the
    levels cannot be equal bit for bit.  A gap that moves by D moves its
    price by at most D (alpha - p_min), under D alpha/p_min of the price.
    The certificate is a quotient of two sums of prices times charges
    (plus alpha times the unmet need), each moved by at most that and by
    its own rounding, eps alpha/p_min as in the test above, so the
    quotient moves by at most twice their sum.  Over 6,000 generated specs
    the largest move was 0.36 of this bound."""
    try:
        pi = solve_pi_star(spec).pi_star
    except NoBracket:
        reject()
    k = min(max(k, math.ceil(math.log2(1e-300 / spec.p_min))), math.floor(math.log2(1e300 / spec.p_min)))
    scaled = spec_of(*(math.ldexp(x, k) for x in (spec.p_min, spec.p_max, spec.alpha)), spec.capacity)
    base, moved = (worst_case_no_limit(s, pi, steps) for s in (spec, scaled))
    assert len(moved) == len(base)
    drift = max(abs(math.ldexp(scaled.alpha - q, -k) / (spec.alpha - p) - 1) for p, q in zip(base, moved))
    bound = 2 * (drift + sys.float_info.epsilon) * spec.alpha / spec.p_min
    names = ["fixed", "adaptive", "rat", "rhc:0", "rhc:5", "naive", "never"]
    if spec.capacity.denominator == 1:
        names.append("int")
    for name in names:
        trace, ratio = adaptive_adversary(make_policy(name, spec), spec, steps)
        trace_k, ratio_k = adaptive_adversary(make_policy(name, scaled), scaled, steps)
        assert len(trace_k) == len(trace), name
        assert abs(ratio_k - ratio) <= bound * ratio, name
