"""Instance validation, and the objective and feasibility rules as the
episode runner applies them to a given schedule."""

import dataclasses
import importlib
import itertools
import math
import pkgutil
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

import evcharge
import evcharge.harness.runner as runner
from evcharge.adversary import worst_case_no_limit
from evcharge.core import (
    InternalConsistencyError,
    MAX_CAPACITY_DENOMINATOR,
    PriceTrace,
    ValidationError,
    validate_spec,
)
from evcharge.harness.config import ExperimentConfig
from evcharge.offline import optimum_path
from evcharge.online import Policy
from evcharge.ratio import solve_pi_star


def test_one_exception_class_per_exit_code():
    # ValidationError, ParseError and InternalConsistencyError are the CLI's
    # exit codes 1, 2 and 3; NoBracket is the one subclass an except names
    defined = set()
    for info in pkgutil.walk_packages(evcharge.__path__, "evcharge."):
        module = importlib.import_module(info.name)
        defined |= {f"{info.name}.{name}" for name, obj in vars(module).items()
                    if isinstance(obj, type) and issubclass(obj, BaseException)
                    and obj.__module__ == info.name}
    assert defined == {
        "evcharge.core.EvChargeError",
        "evcharge.core.ValidationError",
        "evcharge.core.InternalConsistencyError",
        "evcharge.harness.ingest.ParseError",
        "evcharge.ratio.NoBracket",
    }


def test_experiment_config_is_the_only_dataclass():
    # the records are NamedTuples, several times cheaper to define at start-up
    found = set()
    for info in pkgutil.walk_packages(evcharge.__path__, "evcharge."):
        module = importlib.import_module(info.name)
        found |= {f"{info.name}.{name}" for name, obj in vars(module).items()
                  if isinstance(obj, type) and dataclasses.is_dataclass(obj)
                  and obj.__module__ == info.name}
    assert found == {"evcharge.harness.config.ExperimentConfig"}


def test_price_trace_iterates_its_prices():
    trace = PriceTrace((3.0, 1.5, 2.0))
    assert list(trace) == [3.0, 1.5, 2.0]
    assert len(trace) == 3
    assert trace.slots == (3.0, 1.5, 2.0)
    assert trace == PriceTrace([3.0, 1.5, 2.0]) and trace != PriceTrace((3.0, 1.5))
    assert len(PriceTrace(())) == 0


class TestValidateSpec:
    def test_basic_instance(self):
        spec = validate_spec(1, 5, 5, 1)
        assert spec.theta == 5.0
        assert spec.capacity == Fraction(1)

    def test_alpha_below_floor_rejected(self):
        with pytest.raises(ValidationError, match=r"alpha=0\.5 must be >= p_min=1\.0"):
            validate_spec(1, 5, 0.5, 1)

    def test_realistic_calibration(self):
        spec = validate_spec(1.3, 5.902, 2 * 1.3, 24)
        assert spec.theta == pytest.approx(4.54, abs=1e-6)
        assert spec.capacity == 24

    def test_bad_bounds(self):
        with pytest.raises(ValidationError, match=r"smallest normal float .*, got \[0\.0, 5\.0\]"):
            validate_spec(0, 5, 5, 1)
        with pytest.raises(ValidationError, match=r"smallest normal float .*, got \[-1\.0, 5\.0\]"):
            validate_spec(-1, 5, 5, 1)
        # a subnormal price carries fewer digits than the ratio solver's roots need
        with pytest.raises(ValidationError,
                           match=r"smallest normal float .*, got \[1e-312, 1\.001e-312\]"):
            validate_spec(1e-312, 1.001e-312, 3e-312, 1)
        with pytest.raises(ValidationError, match=r"p_max=1\.0 < p_min=5\.0"):
            validate_spec(5, 1, 5, 1)

    def test_bad_capacity(self):
        with pytest.raises(ValidationError, match=r"capacity must be positive, got 0$"):
            validate_spec(1, 5, 5, 0)
        with pytest.raises(ValidationError, match=r"capacity must be positive, got -2$"):
            validate_spec(1, 5, 5, -2)
        with pytest.raises(ValidationError, match=r"capacity must be finite, got nan$"):
            validate_spec(1, 5, 5, float("nan"))

    def test_capacity_forms(self):
        assert validate_spec(1, 5, 5, "3/2").capacity == Fraction(3, 2)
        assert validate_spec(1, 5, 5, Fraction(7, 3)).capacity == Fraction(7, 3)
        # floats snap to a nearby rational
        assert validate_spec(1, 5, 5, 0.5).capacity == Fraction(1, 2)
        assert validate_spec(1, 5, 5, 2.4).capacity == Fraction(12, 5)

    def test_equal_specs_share_one_solver_cache_entry(self):
        # a value no other test solves, so the first solve is a miss
        first, again = validate_spec(1.25, 6.5, 4.75, "7/3"), validate_spec(1.25, 6.5, 4.75, "7/3")
        assert first == again and hash(first) == hash(again) and first is not again
        before = solve_pi_star.cache_info()
        assert solve_pi_star(first) is solve_pi_star(again)
        after = solve_pi_star.cache_info()
        assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)
        assert after.currsize - before.currsize == 1
        assert validate_spec(1.25, 6.5, 4.75, "7/2") != first
        # the slot length is checked but not kept, so it cannot split the entry
        other_slots = validate_spec(1.25, 6.5, 4.75, "7/3", 15)
        assert other_slots == first and solve_pi_star(other_slots) is solve_pi_star(first)
        assert solve_pi_star.cache_info().currsize == after.currsize

    def test_alpha_equal_p_min_allowed(self):
        assert validate_spec(1, 5, 1, 1).alpha == 1.0

    def test_overflowing_totals_rejected(self):
        # alpha * c and p_max * c bound every cost an episode accrues
        for args, key in (((1, 5, 1e308, 24), "alpha"), ((1, 1e308, 5, 24), "p_max"),
                          ((1, 5, 5, "1e400"), "alpha")):
            with pytest.raises(ValidationError, match=key):
                validate_spec(*args)
        assert validate_spec(1, 5, 1e306, 24).alpha == 1e306

    def test_text_capacity_past_the_denominator_bound_rejected(self):
        # a text capacity is read exactly, so it is not snapped as a float is;
        # ints and Fractions keep any denominator
        with pytest.raises(ValidationError, match=r"^capacity 1e-5: its denominator is above 10000$"):
            validate_spec(1, 5, 5, "1e-5")
        with pytest.raises(ValidationError, match=r"^capacity 1/10001: its denominator"):
            validate_spec(1, 5, 5, "1/10001")
        assert validate_spec(1, 5, 5, "2/20000").capacity == Fraction(1, MAX_CAPACITY_DENOMINATOR)
        assert validate_spec(1, 5, 5, Fraction(1, 10**6)).capacity == Fraction(1, 10**6)
        assert validate_spec(1, 5, 5, 10**30).capacity == 10**30

    def test_messages_name_the_capacity_as_given(self):
        # a huge or tiny exponent is clamped before Fraction expands it
        for text, message in (("1e5000", r"^alpha \* capacity overflows a float: alpha=5\.0, "
                                         r"capacity=1e5000$"),
                              ("1e999999999", r"capacity=1e999999999$"),
                              ("-1e5000", r"^capacity must be positive, got -1e5000$"),
                              ("0e-999999999", r"^capacity must be positive, got 0e-999999999$"),
                              ("1e-5000", r"^capacity 1e-5000: its denominator"),
                              ("-0.5", r"^capacity must be positive, got -0\.5$")):
            with pytest.raises(ValidationError, match=message):
                validate_spec(1, 5, 5, text)

    def test_capacity_past_the_int_text_limit_named_by_its_size(self):
        # str of an int past 4300 digits raises a plain ValueError
        with pytest.raises(ValidationError, match=r"^alpha \* capacity overflows a float: alpha=5\.0, "
                                                  r"capacity=about 10\*\*5000$"):
            validate_spec(1, 5, 5, 10**5000)
        with pytest.raises(ValidationError, match=r"^capacity must be positive, got about -10\*\*5000$"):
            validate_spec(1, 5, 5, -(10**5000))

    def test_capacity_whose_float_is_zero_rejected(self):
        # score_run divides by the float capacity
        with pytest.raises(ValidationError, match=r"^capacity 1/10{400} rounds to 0\.0 as a float$"):
            validate_spec(1, 5, 5, Fraction(1, 10**400))
        with pytest.raises(ValidationError, match=r"^capacity about 10\*\*-5000 rounds to 0\.0"):
            validate_spec(1, 5, 5, Fraction(1, 10**5000))
        assert validate_spec(1, 5, 5, Fraction(1, 10**320)).capacity_f == 1e-320


def _digits(low: int, high: int):
    return st.integers(low, high).map(str)


_CAPACITY_TEXT = st.one_of(
    # sign, digits, a fraction up to 60 digits long and an exponent up to 10**12
    st.builds(lambda sign, whole, frac, exp: f"{sign}{whole}{frac}{exp}",
              st.sampled_from(["", "+", "-"]), _digits(0, 10**30),
              st.one_of(st.just(""), st.text("0123456789", max_size=60).map(".{}".format)),
              st.one_of(st.just(""), st.integers(-10**12, 10**12).map("e{}".format),
                        st.sampled_from(["e309", "e-5", "e-4", "e308", "e-320", "e5000"]))),
    # m/n with parts up to 10**400, and one part past the int-text digit limit
    st.builds("{}/{}".format, _digits(-10**400, 10**400), _digits(0, 10**400)),
    st.builds("{}/{}".format, _digits(1, 9), st.sampled_from(["1" * 5000, "1" * 4301])),
    st.sampled_from(["inf", "-inf", "nan", "Infinity", "sNaN", "", " ", "abc", "1/0", "3/", "1e",
                     "0", "1e-4", "1/10000", "1" * 5000]),
)


@given(text=_CAPACITY_TEXT)
@example(text="1e5000")
@example(text="1e-5000")
@example(text="1e-400")
@example(text="1.000000000000000000000001")
def test_capacity_text_raises_nothing_but_validation_error(text):
    try:
        spec = validate_spec(1, 5, 5, text)
    except ValidationError:
        return
    assert sys.float_info.min <= spec.capacity_f < math.inf
    assert spec.capacity.denominator <= MAX_CAPACITY_DENOMINATOR


class _Replay(Policy):
    """Places a given schedule, one charge per slot."""

    def __init__(self, charges):
        self.charges = iter(charges)

    def charge(self, price, lookahead=()):
        return next(self.charges)


def _score(spec, prices, charges, policy="naive"):
    """run_episode's row for `charges` replayed under `policy`'s name: a name
    from online.NO_LIMIT_POLICIES lifts the per-slot cap."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(runner, "make_policy", lambda name, spec: _Replay(charges))
        row, _ = runner.run_episode(ExperimentConfig(), spec, PriceTrace(tuple(prices)), policy)
    return row


class TestEvaluateObjective:
    def test_pure_dissatisfaction(self):
        spec = validate_spec(1, 5, 5, 2)
        out = _score(spec, (4.0, 4.0, 4.0), (0.0, 0.0, 0.0))
        assert out.charging_cost == 0.0
        assert out.objective == pytest.approx(10.0)

    def test_single_full_charge(self):
        spec = validate_spec(1, 5, 5, 1)
        out = _score(spec, (3.0,), (1.0,))
        assert out.charging_cost == pytest.approx(3.0)
        assert out.dissatisfaction == 0.0
        assert out.objective == pytest.approx(3.0)

    def test_partial_schedule_against_enumeration(self):
        # oracle: enumerate every 0/1 schedule with at most 2 charged slots
        spec = validate_spec(1, 8, 2.5, 2)
        prices = (5.0, 3.0, 7.0, 2.0)
        values = {}
        for v in itertools.product([0.0, 1.0], repeat=4):
            if sum(v) <= 2:
                values[v] = _score(spec, prices, v).objective
        assert values[(0.0, 1.0, 0.0, 1.0)] == pytest.approx(5.0)
        assert min(values.values()) == pytest.approx(4.5)
        assert min(values, key=values.get) == (0.0, 0.0, 0.0, 1.0)

    def test_infeasible_schedules(self):
        spec = validate_spec(1, 5, 5, 1)
        with pytest.raises(InternalConsistencyError, match="out of range"):
            _score(spec, (3.0,), (-0.5,))
        with pytest.raises(InternalConsistencyError, match="over capacity"):
            _score(spec, (3.0, 3.0), (1.0, 0.5))


class TestCheckFeasible:
    def test_split_charge(self):
        spec = validate_spec(1, 5, 5, 1)
        assert _score(spec, (3.0, 3.0), (0.5, 0.5)).charged_units == 1.0

    def test_rate_cap(self):
        spec = validate_spec(1, 5, 5, 2)
        with pytest.raises(InternalConsistencyError, match="out of range"):
            _score(spec, (3.0,), (1.2,), policy="naive")
        assert _score(spec, (3.0,), (1.2,), policy="never").charged_units == 1.2

    def test_capacity_tolerance(self):
        spec = validate_spec(1, 5, 5, 24)
        v = tuple([1.0] * 23 + [1.0 + 1e-12])
        assert _score(spec, (3.0,) * 24, v).dissatisfaction == 0.0
        with pytest.raises(InternalConsistencyError, match="over capacity"):
            _score(spec, (3.0,) * 25, (1.0,) * 25)

    @pytest.mark.parametrize("capacity", [10**5, 10**7])
    def test_capacity_tolerance_scales_with_capacity(self, capacity):
        # `fixed` does not clamp: on this 180-level descent at pi* its float
        # total passes c by about 1.2e-14 c, past 1e-9 at these capacities
        spec = validate_spec(1.0, 1.000001484352465, 51.957308152734036, capacity)
        pi = solve_pi_star(spec).pi_star
        prices = worst_case_no_limit(spec, pi, 180)
        row, *_ = runner.score_run(ExperimentConfig(), spec, prices, optimum_path(spec, prices, False), "fixed")
        assert capacity + 1e-9 < row.charged_units <= capacity * (1 + 180 * sys.float_info.epsilon)


prices_list = st.lists(st.floats(1.0, 5.0, allow_nan=False), min_size=1, max_size=30)


@given(prices=prices_list, raw=st.data())
def test_objective_matches_independent_accumulation(prices, raw):
    spec = validate_spec(1, 5, 5, len(prices))
    v = raw.draw(
        st.lists(st.floats(0.0, 1.0), min_size=len(prices), max_size=len(prices))
    )
    out = _score(spec, prices, v)
    # second opinion: reversed-order plain sums
    cost2 = sum(p * x for p, x in zip(reversed(prices), reversed(v)))
    total2 = cost2 + 5.0 * (len(prices) - sum(reversed(v)))
    assert out.objective == pytest.approx(total2, rel=1e-12, abs=1e-12)


@given(prices=prices_list)
def test_dissatisfaction_zero_iff_full(prices):
    spec = validate_spec(1, 5, 5, len(prices))
    full = _score(spec, prices, (1.0,) * len(prices))
    assert full.dissatisfaction == pytest.approx(0.0, abs=1e-9)
    partial = _score(spec, prices, (0.5,) + (1.0,) * (len(prices) - 1))
    assert partial.dissatisfaction > 0.0


def test_objective_slope_follows_price_vs_alpha():
    # raising v(t) helps exactly when p(t) is below alpha
    spec = validate_spec(1, 5, 3, 2)
    prices = (2.0, 4.0)
    base = _score(spec, prices, (0.5, 0.5)).objective
    cheaper = _score(spec, prices, (0.6, 0.5)).objective
    dearer = _score(spec, prices, (0.5, 0.6)).objective
    assert cheaper < base < dearer
