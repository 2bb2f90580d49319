"""Target-ratio solver: worst-case charge totals, thresholds, per-slot targets."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, example, given, reject, strategies as st

from conftest import decreasing_prices, domain_specs, spec_of
from evcharge.core import ValidationError, validate_spec
from evcharge.online import make_policy
from evcharge.ratio import (
    NoBracket,
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
            runner = make_policy("fixed", spec, pi=pi)
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
    def test_alpha_just_above_floor_has_no_float_root(self, alpha):
        # pi* lies in (1, alpha), where one ulp of pi moves the target
        # equation past ROOT_RESIDUAL_TOL, or below PI_LOWER_BRACKET
        with pytest.raises(NoBracket, match=r"alpha=.* p_min=1\.0"):
            solve_pi_star(spec_of(1, 5, alpha, 1))

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
    # oracle's own cancellation in alpha - s * pi when alpha sits just above p_max
    sol = _non_degenerate_solution(spec)
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


def _closed_form_oracle(spec) -> Decimal:
    """lump / (lump - ln(1 + x)), lump = p_max / (alpha - p_max) and
    x = (p_max - p_min) / (alpha - p_max), in decimal from the spec's exact
    float values.  1 + x is held with 60 digits beyond x's leading one, and
    the difference cancels at most log10(pi*) <= 12 of them."""
    alpha, p_max, p_min = map(Decimal, (spec.alpha, spec.p_max, spec.p_min))
    with localcontext() as ctx:
        ctx.prec = 60
        x = (p_max - p_min) / (alpha - p_max)
        ctx.prec += max(0, -x.adjusted())
        lump = p_max / (alpha - p_max)
        return lump / (lump - (1 + x).ln())


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
    oracle = _closed_form_oracle(spec)
    assert abs((Decimal(sol.pi_star) - oracle) / oracle) <= 4e-16


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
