"""Policy step functions: targets held, capacity split, baselines."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from conftest import (
    GreedyOptimum,
    drive,
    eta_path,
    held_prices,
    random_prices,
    spec_of,
    sub_opt_sum,
    sub_problems,
    total_charge,
)
from evcharge.core import ValidationError, validate_spec
from evcharge.offline import RateLimitedOptimum
from evcharge.online import (
    RATIO_POLICIES,
    DistributorPolicy,
    FixedRatioPolicy,
    PolicyStep,
    make_policy,
    naive_threshold_step,
    rhc_step,
    splitting_policy,
)
from evcharge.adversary import worst_case_no_limit
from evcharge.ratio import solve_pi_star, solve_pi_t


class TestFixedStep:
    def test_floor_price_first(self):
        spec = spec_of(1, 5, 5, 1)
        pi = solve_pi_star(spec).pi_star
        charges = drive("fixed", spec, [1.0])
        (eta,) = eta_path(spec, [1.0], charges)
        (opt,) = GreedyOptimum(spec, [1.0], False).path
        assert charges[0] == pytest.approx(0.7768091842729072, rel=1e-12)
        assert eta == pytest.approx(pi, rel=1e-12)
        assert eta / opt == pytest.approx(pi, rel=1e-12)

    def test_price_at_or_above_alpha_only_tracks(self):
        spec = spec_of(1, 5, 3, 1)
        policy = FixedRatioPolicy(spec, 1.5)
        assert policy.charge(3.0) == 0.0
        assert policy.eta == spec.alpha
        assert policy.low * policy.capacity == spec.alpha
        assert policy.charge(4.0) == 0.0

    def test_repeat_price_charges_nothing(self):
        spec = spec_of(1, 5, 5, 1)
        charges = drive("fixed", spec, [2.0, 2.0, 2.5])
        assert charges[0] > 0.0
        assert charges[1] == 0.0
        assert charges[2] == 0.0

    def test_no_charge_without_a_new_low(self):
        # 1.3 sets no new low, so the optimum and the target stay put; the
        # rounding residue of the first charge must not become a charge
        spec = spec_of(1, 2, 6, 1)
        charges = drive("fixed", spec, [1.1, 1.3])
        assert charges[0] > 0.0
        assert charges[1] == 0.0

    def test_eta_recurrence(self):
        # the policy's own cost-so-far follows the charges it returns
        spec = spec_of(1, 5, 5, 2)
        prices = [3.0, 2.2, 1.4, 1.1]
        policy = FixedRatioPolicy(spec, 1.9)
        eta = policy.eta
        for p, opt in zip(prices, GreedyOptimum(spec, prices, False).path):
            eta -= (spec.alpha - p) * policy.charge(p)
            assert policy.eta == pytest.approx(eta, rel=1e-12)
            assert policy.low * policy.capacity == opt


class TestAdaptiveStep:
    def test_floor_start_fills_everything(self):
        spec = spec_of(1, 5, 5, 1)
        policy = make_policy("adaptive", spec)
        out = policy.charge(1.0)
        assert policy.pi == 1.0
        assert out == 1.0
        assert eta_path(spec, [1.0], [out])[0] / GreedyOptimum(spec, [1.0], False).value == 1.0

    def test_no_new_minimum_skips(self):
        # first price low enough to act on; the repeat is not a new minimum
        spec = spec_of(1, 5, 5, 1)
        charges = drive("adaptive", spec, [2.0, 2.0])
        assert charges[0] > 0.0
        assert charges[1] == 0.0

    def test_tracks_fixed_policy_on_its_worst_case(self):
        spec = spec_of(1, 5, 5, 2)
        pi = solve_pi_star(spec).pi_star
        trace = worst_case_no_limit(spec, pi, 10_000)
        fixed = drive("fixed", spec, trace)
        adaptive = drive("adaptive", spec, trace)
        worst = max(abs(f - a) for f, a in zip(fixed, adaptive))
        assert worst <= 1e-6

    def test_never_beaten_by_fixed(self):
        # adaptive cost-so-far stays at or below the fixed policy's, slot by slot
        rng = np.random.default_rng(17)
        spec = spec_of(1, 5, 4, 3)
        for _ in range(100):
            prices = random_prices(rng, spec, int(rng.integers(1, 80)))
            fixed = eta_path(spec, prices, drive("fixed", spec, prices))
            adaptive = eta_path(spec, prices, drive("adaptive", spec, prices))
            for f, a in zip(fixed, adaptive):
                assert a <= f + 1e-9


class TestIntStep:
    def test_hand_traced_assignments(self):
        spec = spec_of(1, 8, 10, 2)
        policy = make_policy("int", spec)
        policy.charge(5.0)
        assert held_prices(policy) == [5.0, 10.0]
        policy.charge(3.0)
        assert held_prices(policy) == [5.0, 3.0]
        out = policy.charge(7.0)
        assert out == 0.0 and held_prices(policy) == [5.0, 3.0]
        policy.charge(2.0)
        assert held_prices(policy) == [2.0, 3.0]

    def test_fresh_subproblems_fill_in_order(self):
        spec = spec_of(1, 8, 10, 3)
        policy = make_policy("int", spec)
        # fresh subproblems hold the highest threshold, so each new price
        # lands on an untouched one until all of them are in play
        for p, expect in [(4.0, [4.0, 10.0, 10.0]), (3.0, [4.0, 3.0, 10.0]), (3.5, [4.0, 3.0, 3.5])]:
            policy.charge(p)
            assert held_prices(policy) == expect

    def test_price_equal_to_max_held_is_discarded(self):
        spec = spec_of(1, 8, 10, 2)
        policy = make_policy("int", spec)
        policy.charge(4.0)
        policy.charge(3.0)
        out = policy.charge(4.0)
        assert out == 0.0
        assert held_prices(policy) == [4.0, 3.0]

    def test_rejects_fractional_capacity(self):
        spec = spec_of(1, 8, 10, Fraction(3, 2))
        with pytest.raises(ValidationError):
            make_policy("int", spec)

    def test_per_slot_cap(self):
        rng = np.random.default_rng(23)
        spec = spec_of(1, 5, 8, 3)
        for _ in range(50):
            charges = drive("int", spec, random_prices(rng, spec, 60))
            assert all(v <= 1.0 + 1e-9 for v in charges)


class TestRatStep:
    def test_price_fans_out_to_n_subproblems(self):
        spec = spec_of(1, 8, 10, Fraction(3, 2))
        pi = solve_pi_star(spec).pi_star
        policy = make_policy("rat", spec)
        assert held_prices(policy) == [10.0, 10.0, 10.0]
        assert sub_problems(policy)[0][1].capacity == pytest.approx(0.5)
        out = policy.charge(4.0)
        assert held_prices(policy) == [4.0, 4.0, 10.0]
        # 4.0 sits above alpha / pi, so the assigned pair only lowers thresholds
        assert out == 0.0
        out = policy.charge(3.0)
        # 3.0 beats the fresh subproblem and one of the pair holding 4.0
        assert held_prices(policy) == [3.0, 4.0, 3.0]
        per_sub = (spec.alpha * 0.5 - 3.0 * 0.5 * pi) / (spec.alpha - 3.0)
        assert out == pytest.approx(2 * per_sub, rel=1e-12)
        assert out > 0.0

    def test_price_above_all_held_is_discarded(self):
        spec = spec_of(1, 8, 10, Fraction(3, 2))
        policy = make_policy("rat", spec)
        policy.charge(4.0)
        assert policy.charge(9.0) == 0.0

    def test_unit_denominator_equals_integer_variant(self):
        rng = np.random.default_rng(31)
        spec = spec_of(1, 5, 7, 3)
        for _ in range(30):
            prices = random_prices(rng, spec, 10)
            a = make_policy("int", spec)
            b = make_policy("rat", spec)
            for p in prices:
                assert a.charge(p) == b.charge(p)
                assert held_prices(a) == held_prices(b)

    def test_small_capacity_equals_unlimited_policy(self):
        # with at most one slot's worth of need the cap never binds
        rng = np.random.default_rng(37)
        for cap in (Fraction(1, 2), Fraction(1)):
            spec = spec_of(1, 5, 5, cap)
            for _ in range(30):
                prices = random_prices(rng, spec, 25)
                rat = drive("rat", spec, prices)
                fixed = drive("fixed", spec, prices)
                for r, f in zip(rat, fixed):
                    assert r == f

    def test_held_prices_only_fall(self):
        rng = np.random.default_rng(41)
        spec = spec_of(1, 5, 7, Fraction(5, 2))
        policy = make_policy("rat", spec)
        prev = held_prices(policy)
        for p in random_prices(rng, spec, 80):
            policy.charge(p)
            assert all(new <= old for new, old in zip(held_prices(policy), prev))
            prev = held_prices(policy)


class TestGroups:
    """Sub-problems in one state are held as one group of consecutive
    indices, split only when a price takes some of its members."""

    @staticmethod
    def _groups(policy):
        return sorted((first, size, -neg) for neg, first, size, _ in policy.held)

    def test_a_price_splits_the_fresh_group_at_the_fan_out(self):
        spec = spec_of(1, 8, 10, Fraction(240, 13))
        policy = make_policy("rat", spec)
        assert self._groups(policy) == [(0, 240, 10.0)]
        policy.charge(4.0)
        assert self._groups(policy) == [(0, 13, 4.0), (13, 227, 10.0)]

    def test_groups_grow_with_accepted_prices_not_capacity(self):
        # every price below alpha is accepted by the fresh group, which
        # holds alpha until 10**5 prices have been accepted
        rng = np.random.default_rng(67)
        spec = spec_of(1, 5, 4, 10**5)
        policy = make_policy("int", spec)
        prices = [float(x) for x in rng.uniform(spec.p_min, spec.p_max, 180)]
        for p in prices:
            policy.charge(p)
        accepted = sum(p < spec.alpha for p in prices)
        assert 0 < accepted < len(prices)
        assert len(policy.held) <= accepted + 1
        assert sub_opt_sum(policy) == pytest.approx(GreedyOptimum(spec, prices, True).value, rel=1e-12)

    def test_state_copy_is_a_distinct_equal_object(self):
        # vars() compares every attribute, so one added to __init__ but not
        # to the copy fails here; the same order keeps the same layout
        spec = spec_of(1, 8, 10, 3)
        sub = FixedRatioPolicy(spec._replace(capacity=Fraction(1, 2)), solve_pi_star(spec).pi_star)
        sub.charge_at_new_low(3.0, sub.capacity)
        twin = sub.copy()
        assert twin is not sub and type(twin) is FixedRatioPolicy
        assert list(vars(twin).items()) == list(vars(sub).items())


class TestDecomposition:
    def test_top_level_cost_is_sum_of_subproblem_costs(self):
        rng = np.random.default_rng(43)
        for cap in (1, 2, 3, Fraction(3, 2), Fraction(5, 2)):
            spec = spec_of(1, 5, 6, cap)
            policy = make_policy("rat", spec)
            eta = spec.alpha * spec.capacity_f
            for p in random_prices(rng, spec, 50):
                eta -= (spec.alpha - p) * policy.charge(p)
                assert eta == pytest.approx(math.fsum(s.eta for _, s in sub_problems(policy)), abs=1e-12)

    def test_subproblem_optima_sum_to_offline_optimum(self):
        """After every slot the sub-problem optima sum to GreedyOptimum's."""
        rng = np.random.default_rng(47)
        for cap in (1, 2, 3, Fraction(3, 2), Fraction(7, 3)):
            spec = spec_of(1, 5, 4, cap)
            policy = make_policy("rat", spec)
            prices = random_prices(rng, spec, 60)
            for p, opt in zip(prices, GreedyOptimum(spec, prices, True).path):
                policy.charge(p)
                assert sub_opt_sum(policy) == pytest.approx(opt, abs=1e-12)

    def test_subproblem_capacity_is_one_over_n_bit_for_bit(self):
        # a sub-problem is the fixed policy on the spec at capacity 1/n, and
        # the copies a split group makes keep it
        rng = np.random.default_rng(71)
        for cap in (2, 3, Fraction(3, 2), Fraction(5, 2), Fraction(7, 3), Fraction(240, 13), 10**5):
            spec = spec_of(1, 5, 6, cap)
            n = spec.capacity.denominator
            for name in ["rat"] + (["int"] if n == 1 else []):
                policy = make_policy(name, spec)
                for p in random_prices(rng, spec, 30):
                    policy.charge(p)
                assert {sub.capacity.hex() for _, sub in sub_problems(policy)} == {(1 / n).hex()}


def test_inserting_non_minimum_prices_changes_nothing():
    rng = np.random.default_rng(59)
    spec = spec_of(1, 5, 5, 2)
    for _ in range(100):
        T = int(rng.integers(2, 30))
        base = random_prices(rng, spec, T)
        ref = total_charge(drive("fixed", spec, base))
        # splice a price that is not a new running minimum
        at = int(rng.integers(1, T))
        floor_so_far = min(base[:at])
        extra = float(rng.uniform(floor_so_far, spec.p_max))
        mutated = base[:at] + [extra] + base[at:]
        assert total_charge(drive("fixed", spec, mutated)) == pytest.approx(ref, abs=1e-12)


def test_ratio_guarantee_and_feasibility_random_suite():
    """Feasibility, and eta <= pi* opt at every slot, where opt is the capped
    policies' sub-problem sum and GreedyOptimum's uncapped path otherwise."""
    rng = np.random.default_rng(61)
    caps = [1, 2, 3, Fraction(3, 2), Fraction(5, 2)]
    for _ in range(60):
        cap = caps[int(rng.integers(0, len(caps)))]
        p_min = float(rng.uniform(0.5, 2.0))
        p_max = p_min * float(rng.uniform(1.2, 5.0))
        alpha = float(rng.uniform(p_min, 2.5 * p_max))
        spec = validate_spec(p_min, p_max, alpha, cap)
        pi = solve_pi_star(spec).pi_star
        prices = random_prices(rng, spec, int(rng.integers(1, 120)))
        names = ["fixed", "adaptive", "rat"] + (["int"] if spec.capacity.denominator == 1 else [])
        for name in names:
            capped = name in ("int", "rat")
            policy = make_policy(name, spec)
            charges = []
            opts = [] if capped else GreedyOptimum(spec, prices, False).path
            for p in prices:
                charges.append(policy.charge(p))
                if capped:
                    opts.append(sub_opt_sum(policy))
            assert total_charge(charges) <= spec.capacity_f + 1e-9
            if capped:
                assert all(v <= 1.0 + 1e-9 for v in charges)
            # cost-so-far never exceeds the target times the tracked optimum
            for eta, opt in zip(eta_path(spec, prices, charges), opts):
                assert eta <= pi * opt + 1e-6


@st.composite
def _rate_limited_case(draw, single_sub=False, on_grid=True, max_m=48, max_n=7):
    """A capacity m/n with n <= max_n and m <= max_m (so both m <= n and
    m > n occur; with `single_sub`, m <= n only), a random band and alpha,
    and 1-60 prices on a 9-point grid across the band: ties, repeats, and
    prices at or above alpha.  Without `on_grid` the prices lie anywhere
    in the band."""
    m, n = draw(st.integers(1, max_m)), draw(st.integers(1, max_n))
    if single_sub:
        m = draw(st.integers(1, n))
    p_min = draw(st.sampled_from([0.5, 1.0, 3.0]))
    theta = draw(st.floats(1.1, 8.0))
    alpha = p_min * draw(st.floats(1.05, 1.5 * theta))
    spec = validate_spec(p_min, p_min * theta, alpha, Fraction(m, n))
    grid = [p_min + (spec.p_max - p_min) * k / 8 for k in range(9)]
    price = st.sampled_from(grid) if on_grid else st.floats(p_min, spec.p_max)
    return spec, draw(st.lists(price, min_size=1, max_size=60))


def _distributor_names(spec):
    return ["rat"] + (["int"] if spec.capacity.denominator == 1 else [])


class _ListDistributor:
    """Reference distributor: held prices in a list indexed by sub-problem,
    picked by a max scan for a fan-out of one and a full sort otherwise,
    with `int` and `rat` built apart."""

    def __init__(self, name, spec, pi):
        m, n = spec.capacity.numerator, spec.capacity.denominator
        if name == "int":
            count, sub_capacity, self.fanout = m, Fraction(1), 1
        elif m <= n:
            count, sub_capacity, self.fanout = 1, spec.capacity, 1
        else:
            count, sub_capacity, self.fanout = m, Fraction(1, n), n
        self.mu = [spec.alpha] * count
        self.subs = [FixedRatioPolicy(spec._replace(capacity=sub_capacity), pi) for _ in range(count)]

    def charge(self, price):
        mu = self.mu
        top = max(mu)
        if price >= top:
            return 0.0
        if self.fanout == 1:
            chosen = [mu.index(top)]
        else:
            ranked = sorted(range(len(mu)), key=lambda i: (-mu[i], i))[: self.fanout]
            chosen = [i for i in ranked if mu[i] > price]
        total = 0.0
        for i in chosen:
            mu[i] = price
            sub = self.subs[i]
            total += sub.charge_at_new_low(price, sub.capacity)
        return total


def _reference_adaptive(spec, prices):
    """(charge, target_ratio) per slot of the adaptive policy, its charge
    to the re-solved target, with the total clamped at the capacity,
    written out in full."""
    eta, charged, running_min, pi_t = spec.alpha * spec.capacity_f, 0.0, math.inf, None
    for price in prices:
        v = 0.0
        if not (price >= spec.alpha or price >= running_min):
            pi_t = solve_pi_t(spec, price, charged, eta)
            gap = spec.alpha - price
            excess = eta - price * spec.capacity_f * pi_t
            v = excess / gap if excess > 0.0 else 0.0
            if charged + v > spec.capacity_f:
                v = max(spec.capacity_f - charged, 0.0)
            eta -= gap * v
            charged += v
            running_min = price
        yield v, pi_t


def _sub_state(subs):
    """Each sub-problem's (eta, optimum, charged), to the last bit; the
    optimum is its low times its capacity."""
    return [(s.eta.hex(), (s.low * s.capacity).hex(), s.charged.hex()) for s in subs]


# the benchmark's rate grid reaches fan-out 13 and 240 sub-problems, where
# a group larger than the fan-out left splits on a grid tie
@given(case=_rate_limited_case(max_m=240, max_n=13))
@example(case=(spec_of(1, 5, 6, Fraction(240, 13)), [4.5, 3.0, 4.5, 3.0, 2.0, 3.0, 1.5, 4.0] * 5))
def test_distributor_and_adaptive_match_references_bit_for_bit(case):
    spec, prices = case
    pi = solve_pi_star(spec).pi_star
    for name in _distributor_names(spec):
        policy, ref = make_policy(name, spec), _ListDistributor(name, spec, pi)
        for p in prices:
            assert policy.charge(p).hex() == ref.charge(p).hex()
            assert held_prices(policy) == ref.mu
            assert _sub_state(s for _, s in sub_problems(policy)) == _sub_state(ref.subs)
    adaptive = make_policy("adaptive", spec)
    for p, (charge, target) in zip(prices, _reference_adaptive(spec, prices)):
        out = adaptive.charge(p)
        assert (out, adaptive.pi) == (charge, target)


@given(case=_rate_limited_case())
def test_rate_limited_guarantee_on_random_traces(case):
    """The bound is against GreedyOptimum's capped path, not the policy's
    own sub-problem optima."""
    spec, prices = case
    pi = solve_pi_star(spec).pi_star
    opts = GreedyOptimum(spec, prices, True).path
    for name in _distributor_names(spec):
        policy = make_policy(name, spec)
        eta, total = spec.alpha * spec.capacity_f, 0.0
        for p, opt in zip(prices, opts):
            v = policy.charge(p)
            eta -= (spec.alpha - p) * v
            total += v
            assert 0.0 <= v <= 1.0 + 1e-9
            assert total <= spec.capacity_f + 1e-9
            assert eta <= pi * opt * (1 + 1e-12), (name, eta, opt)


@given(case=_rate_limited_case(on_grid=False))
def test_ratio_policies_charge_only_at_a_new_low(case):
    # a price not below alpha and every earlier price leaves the optimum
    # where it was, so the charge is exactly zero, not rounding dust
    spec, prices = case
    for name in ("fixed", "adaptive"):
        low = spec.alpha
        for p, out in zip(prices, drive(name, spec, prices)):
            if p >= low:
                assert out == 0.0, (name, p, low)
            low = min(low, p)


@given(case=st.one_of(_rate_limited_case(max_n=1), _rate_limited_case(on_grid=False, max_n=1)))
@example(case=(spec_of(1, 5, 4, 3), [3.0, 2.0, 3.0, 2.0, 1.5, 4.0, 2.0, 1.0, 1.0, 5.0]))
def test_whole_capacity_distributor_holds_the_capped_optimums_kept_set(case):
    # at a whole capacity m the fan-out is 1: a price below the highest held
    # one replaces it, as a slot cheaper than kept's last evicts it, and a
    # tie keeps the earlier slot on both sides.  So after every slot the
    # held prices are kept padded with alpha to m, and the policy takes a
    # price exactly when the capped optimum's kept set changes
    spec, prices = case
    m = spec.capacity.numerator
    policy = DistributorPolicy(spec, solve_pi_star(spec).pi_star)
    offline = RateLimitedOptimum(spec)
    held, kept = [spec.alpha] * m, []
    for t, p in enumerate(prices):
        policy.charge(p)
        offline.path((p,))
        took, changed = sorted(held_prices(policy)) != held, offline.kept != kept
        held, kept = sorted(held_prices(policy)), list(offline.kept)
        assert held == kept + [spec.alpha] * (m - len(kept)), t
        assert took == changed, t


@given(case=_rate_limited_case(single_sub=True, on_grid=False))
@example(case=(spec_of(1, 2, 6, 1), [1.1, 1.3]))
@example(case=(spec_of(1, 3, 8, Fraction(1, 2)), [1.8, 2.4, 1.4]))
def test_single_subproblem_matches_fixed_bit_for_bit(case):
    # with m <= n the rate-limited policies are the fixed policy itself,
    # and charge bit for bit what one sub-problem of the whole capacity,
    # with its total clamped at its capacity, charges
    spec, prices = case
    pi = solve_pi_star(spec).pi_star
    names = ["rat"] + (["int"] if spec.capacity == 1 else [])
    for name in names:
        policy, ref = make_policy(name, spec), _ListDistributor(name, spec, pi)
        assert type(policy) is FixedRatioPolicy
        for p in prices:
            assert policy.charge(p).hex() == ref.charge(p).hex()
            assert policy.eta.hex() == ref.subs[0].eta.hex()


def step_all(name, spec, prices):
    """drive through the boxed wrapper: the PolicyStep of every slot."""
    runner = make_policy(name, spec)
    need = runner.lookahead_needed
    return [runner.step(p, tuple(prices[t + 1 : t + 1 + need])) for t, p in enumerate(prices)]


@given(case=st.one_of(_rate_limited_case(), _rate_limited_case(on_grid=False)),
       horizon=st.integers(0, 5))
@example(case=(spec_of(1, 5, 5, 2), [5.0, 5.0, 5.0]), horizon=0)  # rhc:0 stops at c
def test_step_boxes_charge_bit_for_bit(case, horizon):
    # every kind: step(p).charge of one policy is charge(p) of its twin to
    # the last bit
    spec, prices = case
    names = ["fixed", "adaptive", "rat", f"rhc:{horizon}", "naive", "never"]
    for name in names + (["int"] if spec.capacity.denominator == 1 else []):
        for out, v in zip(step_all(name, spec, prices), drive(name, spec, prices)):
            assert out.charge.hex() == v.hex(), name


def _rhc_step_by_fill(remaining, window):
    """The receding-horizon rule spelled out: fill the window's slots at
    full rate, cheapest first and earlier on ties, until the need is met,
    and return the first slot's share."""
    if remaining <= 0.0:
        return 0.0
    first = 0.0
    left = remaining
    for idx in sorted(range(len(window)), key=lambda i: (window[i], i)):
        take = 1.0 if left >= 1.0 else left
        left -= take
        if idx == 0:
            first = take
        if left <= 0.0:
            break
    return first


class TestRhc:
    @given(
        remaining=st.one_of(st.integers(0, 10).map(float), st.floats(-1.0, 10.0),
                            st.sampled_from([0.25, 1.5, 2.75, 23.5, 1e6 + 0.5])),
        window=st.lists(st.sampled_from([1.0, 2.0, 2.5, 3.0, 5.0]), min_size=1, max_size=8),
    )
    def test_matches_fill_reference(self, remaining, window):
        assert rhc_step(remaining, window[0], tuple(window[1:])) == _rhc_step_by_fill(remaining, window)

    def test_zero_lookahead_is_max_rate(self):
        spec = spec_of(1, 5, 5, 2)
        assert rhc_step(2.0, 5.0, ()) == 1.0
        steps = step_all("rhc:0", spec, [5.0, 5.0, 5.0])
        assert [s.charge for s in steps] == [1.0, 1.0, 0.0]

    def test_waits_for_cheaper_window_slot(self):
        spec = spec_of(1, 5, 5, 1)
        assert rhc_step(1.0, 5.0, (3.0, 4.0)) == 0.0
        steps = step_all("rhc:2", spec, [5.0, 3.0, 4.0])
        assert [s.charge for s in steps] == [0.0, 1.0, 0.0]

    def test_nothing_left(self):
        assert rhc_step(0.0, 2.0, (1.0,)) == 0.0

    def test_fractional_remainder_lands_on_cheapest(self):
        assert rhc_step(1.5, 2.0, (3.0,)) == 1.0
        assert rhc_step(0.5, 2.0, (3.0,)) == 0.5
        assert rhc_step(1.5, 3.0, (2.0,)) == 0.5

    def test_bad_horizon(self):
        spec = spec_of()
        with pytest.raises(ValidationError):
            make_policy("rhc:-1", spec)
        with pytest.raises(ValidationError):
            make_policy("rhc:x", spec)


class TestNaiveThreshold:
    def test_midpoint_threshold(self):
        spec = spec_of(1.3, 5.902, 2.6, 2)
        assert naive_threshold_step(2.0, 3.0, spec) == 1.0
        assert naive_threshold_step(2.0, 3.601, spec) == 0.0
        assert naive_threshold_step(2.0, 3.7, spec) == 0.0
        steps = step_all("naive", spec, [3.7, 3.0, 3.601])
        assert [s.charge for s in steps] == [0.0, 1.0, 0.0]

    def test_partial_remainder(self):
        spec = spec_of(1.3, 5.902, 2.6, 2)
        assert naive_threshold_step(0.4, 3.0, spec) == pytest.approx(0.4)


def test_make_policy_names():
    spec = spec_of(1, 5, 5, 2)
    for name in RATIO_POLICIES:
        make_policy(name, spec)
    assert make_policy("rhc:3", spec).lookahead_needed == 3
    assert make_policy("never", spec).step(1.0) == PolicyStep(0.0)
    with pytest.raises(ValidationError):
        make_policy("clairvoyant", spec)


@pytest.mark.parametrize("capacity, name, kind", [
    ("1/2", "fixed", FixedRatioPolicy), ("1", "fixed", FixedRatioPolicy),
    ("24", "int", DistributorPolicy), ("7/2", "rat", DistributorPolicy),
    ("240/13", "rat", DistributorPolicy)])
def test_splitting_policy_by_capacity(capacity, name, kind):
    # fixed at one slot or less, int at a whole capacity, rat otherwise; each
    # builds the layout its capacity needs
    spec = spec_of(1, 5, 5, capacity)
    assert splitting_policy(spec.capacity) == name
    assert type(make_policy(name, spec)) is kind
