"""Target-ratio solver: worst-case charge totals, thresholds, per-slot targets."""

import math
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, example, given, reject, strategies as st

from conftest import (
    ALPHA_STAR_BOUND,
    CLOSED_FORM_BOUND,
    ROOT_BOUND,
    alpha_star_oracle,
    closed_form_pi_star_oracle,
    decreasing_prices,
    domain_specs,
    relative_miss,
    root_pi_star_oracle,
    spec_of,
)
from evcharge.core import ValidationError, validate_spec
from evcharge.online import FixedRatioPolicy
from evcharge.ratio import (
    NoBracket,
    _x_minus_log1p_over_x2,
    max_total_charge,
    pi_star_upper_bound,
    solve_alpha_star,
    solve_pi_star,
    solve_pi_t,
)
from evcharge.adversary import worst_case_no_limit


def max_total_charge_from(spec, pi_t, price, charged, eta):
    """Worst-case final total when committing to target pi_t at `price`.

    Counts charge already banked, the forced top-up at the current price,
    and the worst-case accumulation over any further price descent.
    """
    alpha, c = spec.alpha, spec.capacity_f
    forced = (eta - price * c * pi_t) / (alpha - price)
    tail = c * pi_t * math.log((alpha - spec.p_min) / (alpha - price))
    return charged + forced + tail


class TestMaxTotalCharge:
    def test_unit_target_above_band(self):
        spec = spec_of(1, 5, 20, 5)
        hand = 5 + 5 * math.log(19 / 15)
        assert max_total_charge(spec, 1.0) == pytest.approx(hand, rel=1e-12)

    def test_mid_target(self):
        spec = spec_of(1, 5, 20, 5)
        hand = (20 * 5 - 5 * 5 * 2) / 15 + 5 * 2 * math.log(19 / 15)
        assert max_total_charge(spec, 2.0) == pytest.approx(hand, rel=1e-12)
        assert max_total_charge(spec, 2.0) == pytest.approx(5.697221113975637)

    def test_zero_when_trigger_below_floor(self):
        spec = spec_of(1, 5, 5, 1)
        assert max_total_charge(spec, 5.0) == 0.0
        assert max_total_charge(spec, 7.0) == 0.0

    def test_rejects_target_below_one(self):
        with pytest.raises(ValidationError):
            max_total_charge(spec_of(), 0.9)

    def test_divergence_at_unit_target_inside_band(self):
        with pytest.raises(ValidationError, match=r"diverges at pi=1\.0 with alpha=5\.0 <= p_max=5\.0"):
            max_total_charge(spec_of(1, 5, 5, 1), 1.0)
        # harmless once the dissatisfaction price clears the band
        assert max_total_charge(spec_of(1, 5, 20, 1), 1.0) > 1.0

    def test_strictly_decreasing_in_target(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            p_min = rng.uniform(0.5, 2.0)
            p_max = p_min * rng.uniform(1.5, 6.0)
            alpha = rng.uniform(p_min * 1.2, p_max * 3)
            spec = validate_spec(p_min, p_max, alpha, 2)
            lo = 1.0 + 1e-6 if alpha > p_max else 1.0 + 1e-3
            grid = np.linspace(lo, alpha / p_min * 0.999, 100)
            vals = [max_total_charge(spec, float(pi)) for pi in grid]
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_branch_continuity(self):
        # formula switches at trigger = p_max and trigger = p_min
        spec = spec_of(1, 5, 8, 3)
        for boundary in (8 / 5, 8 / 1):
            left = max_total_charge(spec, boundary * (1 - 1e-9))
            right = max_total_charge(spec, boundary * (1 + 1e-9))
            assert left == pytest.approx(right, abs=1e-8)

    def test_matches_simulated_run(self):
        # formula vs actually stepping the policy down its worst-case path
        for p_min, p_max, alpha, c, pi in [
            (1, 5, 5, 1, 1.3),
            (1, 5, 20, 5, 2.0),
            (0.8, 3.0, 2.5, 2, 1.2),
        ]:
            spec = validate_spec(p_min, p_max, alpha, c)
            trace = worst_case_no_limit(spec, pi, 100_000)
            runner = FixedRatioPolicy(spec, pi)
            total = math.fsum(runner.step(p).charge for p in trace)
            assert total == pytest.approx(max_total_charge(spec, pi), abs=1e-3)


class TestSolveAlphaStar:
    def test_band_one_to_five(self):
        spec = spec_of(1, 5, 20, 1)
        alpha_star = solve_alpha_star(spec)

        def g(a):
            return (a / 5) * math.log((a - 1) / (a - 5)) - 1

        # hand bracket: the defining function changes sign inside (15.5, 15.55)
        assert g(15.5) > 0 > g(15.55)
        assert 15.5 < alpha_star < 15.55
        assert abs(g(alpha_star)) <= 1e-10

    def test_no_bracket_for_flat_band(self):
        with pytest.raises(NoBracket):
            solve_alpha_star(spec_of(3, 3, 10, 1))

    def test_narrow_band_root_hugs_ceiling(self):
        # as the band narrows the log term must blow up to hit 1, which
        # pins the root just above p_max; for any larger dissatisfaction
        # price the closed-form regime is already in force
        alpha_star = solve_alpha_star(spec_of(1, 1.01, 2, 1))
        assert 1.01 < alpha_star < 1.05
        sol = solve_pi_star(spec_of(1, 1.01, 2, 1))
        assert sol.branch == "closed_form"
        assert 1.0 < sol.pi_star <= 1.01


class TestSolvePiStar:
    def test_root_branch(self):
        spec = spec_of(1, 5, 5, 1)
        sol = solve_pi_star(spec)
        assert sol.branch == "root"
        assert sol.pi_star == pytest.approx(1.893, abs=1e-3)
        assert sol.upper_bound == pytest.approx(math.sqrt(5))
        # defining equation, checked independently of the solver
        lhs = sol.pi_star * math.log((5 - 1) / (5 - 5 / sol.pi_star))
        assert lhs == pytest.approx(1.0, abs=1e-10)
        assert abs(max_total_charge(spec, sol.pi_star) - 1.0) <= 1e-9

    def test_closed_form_branch(self):
        spec = spec_of(1, 5, 1e6, 1)
        sol = solve_pi_star(spec)
        assert sol.branch == "closed_form"
        assert abs(sol.pi_star - 5.0) <= 1e-3
        assert abs(max_total_charge(spec, sol.pi_star) - 1.0) <= 1e-9

    def test_alpha_at_floor_degenerates(self):
        sol = solve_pi_star(spec_of(1, 5, 1, 1))
        assert sol.branch == "degenerate"
        assert sol.pi_star == 1.0

    @pytest.mark.parametrize("alpha", [1 + 10.0**-k for k in range(6, 16)] + [math.nextafter(1.0, 2.0)])
    def test_alpha_just_above_floor_matches_the_oracle(self, alpha):
        # pi* - 1 is about (alpha - 1) / e here, where one ulp of pi moves the
        # defining equation by more than 1e-10; one ulp above 1, pi* rounds to 1
        spec = spec_of(1, 5, alpha, 1)
        sol = solve_pi_star(spec)
        assert sol.branch == ("degenerate" if alpha == math.nextafter(1.0, 2.0) else "root")
        assert relative_miss(sol.pi_star, root_pi_star_oracle(spec)) <= ROOT_BOUND

    @pytest.mark.parametrize("alpha", [1e13, 1e23])
    def test_closed_form_underflow_has_no_float_target(self, alpha):
        # p_max / (alpha - p_max) is subnormal: 1e-310 returned a target
        # above theta, and 1e-320 divided by zero
        with pytest.raises(NoBracket, match=r"alpha=.* p_min=1e-307"):
            solve_pi_star(spec_of(1e-307, 1e-297, alpha, 1))

    def test_flat_band_degenerates(self):
        sol = solve_pi_star(spec_of(3, 3, 10, 1))
        assert sol.branch == "degenerate"
        assert sol.pi_star == 1.0

    def test_capacity_invariance(self):
        for alpha in (2.0, 5.0, 30.0):
            a = solve_pi_star(spec_of(1, 5, alpha, 1)).pi_star
            b = solve_pi_star(spec_of(1, 5, alpha, 7)).pi_star
            assert abs(a - b) <= 1e-12

    def test_branch_selection_matches_threshold(self):
        spec0 = spec_of(1, 5, 20, 1)
        alpha_star = solve_alpha_star(spec0)
        for k in range(2, 101):
            spec = spec_of(1, 5, float(k), 1)
            sol = solve_pi_star(spec)
            if k > alpha_star:
                assert sol.branch == "closed_form"
                assert sol.pi_star < k / 5
            else:
                assert sol.branch == "root"
            assert sol.pi_star <= pi_star_upper_bound(spec) + 1e-9


_SPECS = domain_specs()


def worst_case_total(spec, pi):
    """Worst-case total charge of the target-pi policy at unit capacity,
    written with math.log: the lump forced at s = min(alpha/pi, p_max),
    then the logarithmic accumulation from s down to p_min."""
    alpha, p_min = spec.alpha, spec.p_min
    s = min(alpha / pi, spec.p_max)
    return (alpha - s * pi) / (alpha - s) + pi * math.log((alpha - p_min) / (alpha - s))


def _non_degenerate_solution(spec):
    try:
        sol = solve_pi_star(spec)
    except NoBracket:
        sol = None
    assume(sol is not None and sol.branch != "degenerate")
    return sol


@given(spec=_SPECS)
def test_solver_returns_a_target_under_the_bound_or_no_bracket(spec):
    try:
        pi = solve_pi_star(spec).pi_star
    except NoBracket:
        return
    assert pi <= min(math.sqrt(spec.alpha / spec.p_min), spec.p_max / spec.p_min)


@given(spec=_SPECS)
def test_worst_case_total_at_pi_star_fills_capacity(spec):
    # the largest miss over 24k specs of this domain was 1.7e-10, from the
    # oracle's own cancellation in alpha - s * pi when alpha sits just above p_max.
    # Within about 1e-6 of alpha = p_min one ulp of pi* moves the total by more
    # than the bound (the float nearest pi* misses it by 3.7e-9 at
    # alpha = 1.0000001 on the 1-5 band), so a spec counts only where the
    # float nearest the exact pi* meets it
    sol = _non_degenerate_solution(spec)
    oracle = root_pi_star_oracle(spec) if sol.branch == "root" else closed_form_pi_star_oracle(spec)
    assume(abs(worst_case_total(spec, float(oracle)) - 1.0) <= 1e-9)
    assert abs(worst_case_total(spec, sol.pi_star) - 1.0) <= 1e-9


@given(spec=_SPECS)
def test_a_target_nearer_one_overfills(spec):
    # pi* is the smallest maintainable target.  1% of the way from pi* toward
    # 1, the worst case exceeded capacity by at least 1.0e-12 over 90k specs
    # (least at p_max = p_min (1 + 1e-6), alpha = 1e4 p_min), and by at least
    # 6,400 times the miss of the same total at pi* itself
    sol = _non_degenerate_solution(spec)
    assert worst_case_total(spec, 1.0 + (sol.pi_star - 1.0) * (1.0 - 1e-2)) > 1.0


@given(spec=_SPECS)
def test_closed_form_at_alpha_star_is_the_root_branch_target(spec):
    # at alpha = alpha*, the root branch's trigger alpha / pi sits exactly at
    # p_max, so both branches give alpha* / p_max; the largest gap over
    # 150k bands was 6.6e-13, on the widest ones
    try:
        a = solve_alpha_star(spec)
    except NoBracket:
        reject()
    p_min, p_max = spec.p_min, spec.p_max
    lump = p_max / (a - p_max)
    closed = lump / (lump - math.log((a - p_min) / (a - p_max)))
    assert closed == pytest.approx(a / p_max, rel=1e-12, abs=0.0)


@st.composite
def _closed_form_specs(draw):
    """p_min in [1e-2, 1e2], p_max / p_min - 1 in [1e-6, 1e12], and alpha
    from just above alpha* up to 1e50 p_min: alpha / alpha* - 1 is log-uniform
    in [1e-8, 1] or in [1, 1e50 p_min / alpha* - 1], one or the other, so
    both x > 0.5 (alpha near alpha* on a narrow band) and x <= 0.5 are drawn."""
    p_min = 10.0 ** draw(st.floats(-2, 2))
    p_max = p_min * (1 + 10.0 ** draw(st.floats(-6, 12)))
    try:
        alpha_star = solve_alpha_star(spec_of(p_min, p_max, 2 * p_max))
    except NoBracket:
        reject()
    top = math.log10(1e50 * p_min / alpha_star - 1)
    return spec_of(p_min, p_max, alpha_star * (1 + 10.0 ** draw(st.floats(-8, 0) | st.floats(0, top))))


# x = (p_max - p_min) / (alpha - p_max) is 0.5, where the series of
# x - log1p(x) takes over, at alpha = 2.5 on the 1-1.5 band
@given(spec=_closed_form_specs())
@example(spec=spec_of(1, 1.5, 2.5))
@example(spec=spec_of(1, 1.5, math.nextafter(2.5, 0)))
@example(spec=spec_of(0.01, 100, 1e6))
@example(spec=spec_of(1e-207, 1e-197, 1e23))
@example(spec=spec_of(1, 1e12, 1e50))
def test_closed_form_pi_star_matches_a_decimal_oracle(spec):
    # over 60k specs drawn this way the largest relative miss was 1.3e-16
    # at x <= 0.5 and 1.9e-16 above, under one eps (2.2e-16); subtracting
    # ln(1 + x) from the lump directly missed by up to 2.4e-4
    sol = solve_pi_star(spec)
    assume(sol.branch == "closed_form")
    assert relative_miss(sol.pi_star, closed_form_pi_star_oracle(spec)) <= CLOSED_FORM_BOUND


@st.composite
def _root_specs(draw):
    """p_min in [1e-2, 1e2], p_max / p_min - 1 in [1e-13, 1e8], and alpha up to
    alpha*: alpha / p_min - 1 is log-uniform from 1e-10 (or a tenth of
    alpha* / p_min - 1 on the narrowest bands) up to alpha* / p_min - 1."""
    p_min = 10.0 ** draw(st.floats(-2, 2))
    p_max = p_min * (1 + 10.0 ** draw(st.floats(-13, 8)))
    top = math.log10(solve_alpha_star(spec_of(p_min, p_max, 2 * p_max)) / p_min - 1)
    return spec_of(p_min, p_max, p_min * (1 + 10.0 ** draw(st.floats(min(-10, top - 1), top))))


# the solver iterates on 1 - 1/pi up to pi* = 4/3, at alpha = p_min / (1 - e^(3/4) / 4),
# and on 1/pi above it
@given(spec=_root_specs())
@example(spec=spec_of(1, 5, 1 + 1e-8))  # pi* - 1 = 3.678794380e-9
@example(spec=spec_of(1, 5, 2.124269801003613))
@example(spec=spec_of(1, 5, math.nextafter(2.124269801003613, 3.0)))
@example(spec=spec_of(1, 1 + 1e-13, 1 + 1e-13))
@example(spec=spec_of(1, 1e8, 1e15))
def test_root_pi_star_matches_a_decimal_oracle(spec):
    # bisection missed by up to 1.6e-12 on specs drawn this way, and refused
    # those with alpha / p_min - 1 below about 1e-6
    sol = solve_pi_star(spec)
    assume(sol.branch == "root")
    assert relative_miss(sol.pi_star, root_pi_star_oracle(spec)) <= ROOT_BOUND


@given(p_min=st.floats(-2, 2).map(lambda e: 10.0**e), band=st.floats(-13, 8).map(lambda e: 10.0**e))
@example(p_min=1.0, band=4.0)
@example(p_min=1.0, band=1e-13)
@example(p_min=1.0, band=1e8 - 1)
def test_alpha_star_matches_a_decimal_oracle(p_min, band):
    # bisection missed by up to 1.8e-8 on bands drawn this way, and refused
    # those with p_max / p_min - 1 below about 1e-7
    spec = spec_of(p_min, p_min * (1 + band), 2 * p_min * (1 + band))
    assert relative_miss(solve_alpha_star(spec), alpha_star_oracle(spec)) <= ALPHA_STAR_BOUND


def _positive_floats_from(lo: float):
    return st.floats(lo, sys.float_info.max)


@st.composite
def _float_range_specs(draw):
    """(p_min, p_max, alpha) anywhere on the normal floats: p_max at or some
    ulps above p_min or anywhere above it, and alpha the same above p_min or
    above p_max."""
    def above(x):
        ulps = draw(st.integers(0, 3))
        for _ in range(ulps):
            x = math.nextafter(x, sys.float_info.max)
        return draw(st.just(x) | _positive_floats_from(x))

    p_min = draw(_positive_floats_from(sys.float_info.min))
    p_max = above(p_min)
    return p_min, p_max, above(draw(st.sampled_from([p_min, p_max])))


@given(values=_float_range_specs())
@example(values=(1.0, 5.0, math.nextafter(1.0, 2.0)))  # pi* rounds to 1
@example(values=(2.3e-308, 1e150, 1e200))  # p_min / p_max underflows to 0
@example(values=(1.5, math.nextafter(1.5, 2.0), 2.0))  # p_min / p_max is the float below 1
def test_solver_returns_a_bounded_target_or_no_bracket_on_the_float_range(values):
    try:
        spec = spec_of(*values)
    except ValidationError:
        reject()
    try:
        sol = solve_pi_star(spec)
    except NoBracket:
        return
    assert math.isfinite(sol.pi_star) and 1.0 <= sol.pi_star <= sol.upper_bound


# the series takes over at |x| <= 0.5; summing its 60 terms at x = -0.9 missed by 1.7e-4
@given(x=st.floats(-0.999, 2.0))
@example(x=-0.9)
@example(x=math.nextafter(-0.5, -1.0))
@example(x=-0.5)
@example(x=math.nextafter(-0.5, 0.0))
@example(x=math.nextafter(0.5, 0.0))
@example(x=0.5)
@example(x=math.nextafter(0.5, 1.0))
@example(x=1e-300)
def test_x_minus_log1p_over_x2_matches_a_decimal_oracle(x):
    # over 400k arguments the largest relative miss was 1.7e-16 on the series
    # and 5.9e-16 on the direct form, whose difference cancels up to a factor 5
    # just past |x| = 0.5
    assume(x != 0.0)
    with localcontext() as ctx:
        d = Decimal(x)
        ctx.prec = 60 + 2 * max(0, -d.adjusted())  # ln(1 + x) to 60 digits beyond x^2
        oracle = (d - (1 + d).ln()) / (d * d)
    assert relative_miss(_x_minus_log1p_over_x2(x), oracle) <= (2.5e-16 if abs(x) <= 0.5 else 9e-16)


class TestUpperBound:
    def test_sqrt_branch(self):
        assert pi_star_upper_bound(spec_of(1, 5, 4, 1)) == pytest.approx(2.0)

    def test_theta_branch(self):
        assert pi_star_upper_bound(spec_of(1, 5, 100, 1)) == pytest.approx(5.0)

    def test_crossover(self):
        assert pi_star_upper_bound(spec_of(1, 5, 25, 1)) == pytest.approx(5.0)


class TestSolvePiT:
    def test_opportunistic_floor_start(self):
        # dissatisfaction price at the cap, first price at the floor:
        # the target collapses to 1 and the full battery charges at once
        spec = spec_of(1, 5, 5, 1)
        pi_1 = solve_pi_t(spec, 1.0, 0.0, 5.0)
        assert pi_1 == 1.0
        v = (5.0 - 1.0 * 1.0 * pi_1) / (5.0 - 1.0)
        assert v == 1.0

    def test_worst_case_start_recovers_fixed_target(self):
        for spec in (spec_of(1, 5, 5, 1), spec_of(1, 5, 20, 1)):
            sol = solve_pi_star(spec)
            start = min(spec.alpha / sol.pi_star, spec.p_max)
            eta = spec.alpha * spec.capacity_f
            assert solve_pi_t(spec, start, 0.0, eta) == pytest.approx(sol.pi_star, abs=1e-6)

    def test_requires_price_below_alpha(self):
        spec = spec_of(1, 5, 3, 1)
        with pytest.raises(ValidationError):
            solve_pi_t(spec, 3.0, 0.0, 3.0)

    def test_non_increasing_when_each_step_can_act(self):
        # along falling prices, each recomputed target stays at or below the
        # last one as long as the first price is at or below the trigger
        rng = np.random.default_rng(11)
        spec = spec_of(1, 5, 5, 2)
        sol = solve_pi_star(spec)
        start = spec.alpha / sol.pi_star
        for _ in range(200):
            T = int(rng.integers(2, 40))
            prices = decreasing_prices(rng, spec.p_min, start, T)
            charged, eta = 0.0, spec.alpha * spec.capacity_f
            prev = math.inf
            for p in prices:
                pi_t = solve_pi_t(spec, p, charged, eta)
                assert pi_t <= prev + 1e-9
                assert pi_t <= sol.pi_star + 1e-9
                prev = pi_t
                v = max(0.0, eta - p * spec.capacity_f * pi_t) / (spec.alpha - p)
                eta -= (spec.alpha - p) * v
                charged += v

    def test_target_can_rise_after_idle_solve(self):
        # a first price just under alpha solves to a small target that the
        # policy cannot act on (nothing worth charging yet); the next lower
        # price then re-solves near the worst-case target instead
        spec = spec_of(1.133665, 8.867559, 2.267329, 24)
        sol = solve_pi_star(spec)
        eta0 = spec.alpha * spec.capacity_f
        pi_1 = solve_pi_t(spec, 2.207759, 0.0, eta0)
        assert eta0 - 2.207759 * spec.capacity_f * pi_1 < 0  # cannot act
        pi_2 = solve_pi_t(spec, 1.763360, 0.0, eta0)
        assert pi_2 > pi_1
        assert pi_2 <= sol.pi_star + 1e-9


class TestMaxTotalChargeFrom:
    def test_fresh_context_matches_global_formula(self):
        spec = spec_of(1, 5, 5, 2)
        eta = spec.alpha * spec.capacity_f
        for pi in (1.2, 1.5, 1.8928, 2.2):
            start = min(spec.alpha / pi, spec.p_max)
            assert max_total_charge_from(spec, pi, start, 0.0, eta) == pytest.approx(
                max_total_charge(spec, pi), rel=1e-9
            )

    def test_solved_target_fills_exactly(self):
        spec = spec_of(1, 5, 5, 2)
        pi_t = solve_pi_t(spec, 2.0, 0.3, 7.5)
        cap = spec.capacity_f
        assert max_total_charge_from(spec, pi_t, 2.0, 0.3, 7.5) == pytest.approx(cap, rel=1e-9)
        assert max_total_charge_from(spec, pi_t + 0.1, 2.0, 0.3, 7.5) < cap
