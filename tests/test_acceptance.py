"""End-to-end acceptance checks.

Each criterion prints exactly one PASS/FAIL line, so a plain pytest run
doubles as an acceptance report.  Quantitative claims are checked against
independent constructions: closed-form worst cases, exhaustive search on
small instances, and frozen solver values verified by hand.
"""

import json
import math
import time
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import numpy as np
import pytest

import evcharge.harness.cli as cli
from evcharge.adversary import adaptive_adversary, worst_case_no_limit, worst_case_rate_limited
from evcharge.core import validate_spec
from evcharge.harness.config import ExperimentConfig
from evcharge.harness.ingest import ingest_prices
from evcharge.harness.sweeps import sweep_alpha, sweep_rate_limit
from evcharge.harness.synthetic import write_corpus
from evcharge.offline import RateLimitedOptimum, opt_rate_limited
from evcharge.online import FixedRatioPolicy, make_policy
from evcharge.ratio import max_total_charge, solve_pi_star

from conftest import (
    decreasing_prices,
    eta_path,
    opt_no_limit_path,
    spec_of,
    sub_opt_sum,
    sub_problems,
)


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} FAIL {label}")
        raise
    print(f"ACCEPTANCE {num:02d} PASS {label}")


def _band_prices(rng: np.random.Generator, p_min: float, p_max: float, T: int) -> list[float]:
    return np.exp(rng.uniform(np.log(p_min), np.log(p_max), T)).tolist()


@pytest.fixture(scope="module")
def policy_suite():
    """One pass of 10^4 random episodes shared by three criteria.

    Runs fixed/adaptive/int on an integer-capacity spec and rat on a
    fractional-capacity one, then replays the adversarial descents, and
    returns violation counts plus the wall-clock spent.
    """
    rng = np.random.default_rng(404)
    caps_int = (1, 2, 3)
    caps_frac = (Fraction(1, 2), Fraction(3, 2), Fraction(5, 2), Fraction(7, 3))
    counts = {"feasibility": 0, "slot_cap": 0, "guarantee": 0, "dominance": 0}

    def run(policy, prices, spec, pi, capped):
        # cost-so-far from the charges; the optimum is the capped policies'
        # sub-problem sum, else the unlimited-rate closed form
        alpha = spec.alpha
        eta = alpha * spec.capacity_f
        total = 0.0
        etas = []
        opts = [] if capped else opt_no_limit_path(spec, prices)
        for p in prices:
            v = policy.charge(p)
            total += v
            eta -= (alpha - p) * v
            etas.append(eta)
            if capped:
                opts.append(sub_opt_sum(policy))
                if v > 1.0 + 1e-9:
                    counts["slot_cap"] += 1
        counts["guarantee"] += sum(e > pi * o + 1e-6 for e, o in zip(etas, opts))
        if total > spec.capacity_f + 1e-9:
            counts["feasibility"] += 1
        return etas

    t0 = time.perf_counter()
    for i in range(10_000):
        p_min = float(rng.uniform(0.5, 2.0))
        p_max = p_min * float(rng.uniform(1.2, 6.0))
        alpha = p_min * float(rng.uniform(1.0, 12.0))
        T = int(rng.integers(1, 201))
        prices = _band_prices(rng, p_min, p_max, T)
        spec_i = validate_spec(p_min, p_max, alpha, caps_int[i % 3])
        spec_f = validate_spec(p_min, p_max, alpha, caps_frac[i % 4])
        pi = solve_pi_star(spec_i).pi_star
        # pi* does not depend on the capacity, so it is spec_f's target too
        fixed = run(make_policy("fixed", spec_i), prices, spec_i, pi, False)
        adapt = run(make_policy("adaptive", spec_i), prices, spec_i, pi, False)
        run(make_policy("int", spec_i), prices, spec_i, pi, True)
        run(make_policy("rat", spec_f), prices, spec_f, pi, True)
        counts["dominance"] += sum(a > f + 1e-9 for f, a in zip(fixed, adapt))

    # the adversarial descents, replayed under the same checks
    spec2 = spec_of(1, 5, 5, 2)
    pi2 = solve_pi_star(spec2).pi_star
    descent = worst_case_no_limit(spec2, pi2, 10_000).slots
    run(make_policy("fixed", spec2), descent, spec2, pi2, False)
    run(make_policy("adaptive", spec2), descent, spec2, pi2, False)
    repeated = worst_case_rate_limited(spec2, pi2, 5_000).slots
    run(make_policy("int", spec2), repeated, spec2, pi2, True)
    spec_r = spec_of(1, 5, 5, Fraction(5, 2))
    run(make_policy("rat", spec_r), descent, spec_r, pi2, True)
    spec20 = spec_of(1, 5, 20, 1)
    pi20 = solve_pi_star(spec20).pi_star
    flat = worst_case_no_limit(spec20, pi20, 10_000).slots
    run(make_policy("fixed", spec20), flat, spec20, pi20, False)
    run(make_policy("adaptive", spec20), flat, spec20, pi20, False)

    counts["elapsed"] = time.perf_counter() - t0
    return counts


def test_01_ratio_solver_meets_defining_equation():
    with criterion(1, "ratio solver: residual, bound, branch split"):
        t0 = time.perf_counter()
        boundary = None
        prev_branch = None
        for a in np.linspace(1.0, 100.0, 100):
            spec = validate_spec(1.0, 5.0, float(a), 1)
            sol = solve_pi_star(spec)
            assert sol.pi_star <= min(math.sqrt(a), 5.0) + 1e-9
            if sol.branch != "degenerate":
                assert sol.residual <= 1e-9  # |V(pi*) - c| at c = 1
            if prev_branch == "root" and sol.branch == "closed_form":
                boundary = float(a)
            prev_branch = sol.branch
        alpha_star = solve_pi_star(validate_spec(1.0, 5.0, 50.0, 1)).alpha_star
        assert abs(alpha_star - 15.52) <= 0.05
        assert boundary is not None and abs(alpha_star - boundary) <= 1.0
        assert time.perf_counter() - t0 <= 1.0


def test_02_target_is_asymptotically_the_band_ratio():
    with criterion(2, "target approaches theta as alpha grows"):
        spec = validate_spec(1.0, 5.0, 1e6, 1)
        sol = solve_pi_star(spec)
        assert abs(sol.pi_star - spec.theta) <= 1e-3


def test_03_worst_case_formula_matches_simulation():
    with criterion(3, "worst-case charge formula vs simulation"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(303)
        for _ in range(20):
            p_min = float(rng.uniform(0.5, 2.0))
            p_max = p_min * float(rng.uniform(1.5, 6.0))
            alpha = p_min * float(rng.uniform(1.05, 15.0))
            spec = validate_spec(p_min, p_max, alpha, 1)
            hi = max(1.06, 0.95 * alpha / p_min)
            pi = float(rng.uniform(1.05, hi))
            formula = max_total_charge(spec, pi)
            trace = worst_case_no_limit(spec, pi, 100_000).slots
            runner = FixedRatioPolicy(spec, pi)
            total = math.fsum(runner.charge(p) for p in trace)
            assert abs(total - formula) <= 1e-3, (p_min, p_max, alpha, pi)
        assert time.perf_counter() - t0 <= 10.0


def test_04_feasibility_on_random_traces(policy_suite):
    with criterion(4, "feasibility: totals within capacity, slot charges capped"):
        assert policy_suite["feasibility"] == 0
        assert policy_suite["slot_cap"] == 0
        assert policy_suite["elapsed"] <= 60.0


def test_05_guarantee_holds_every_slot(policy_suite):
    with criterion(5, "cost stays within target times optimum at every slot"):
        assert policy_suite["guarantee"] == 0


def test_06_worst_case_construction_is_tight():
    with criterion(6, "descent pins the reference and lower-bounds every policy"):
        spec = spec_of(1, 5, 5, 2)
        pi = solve_pi_star(spec).pi_star
        runner = make_policy("fixed", spec)
        descent = worst_case_no_limit(spec, pi, 10_000).slots
        charges = [runner.charge(p) for p in descent]
        final_ratio = eta_path(spec, descent, charges)[-1] / opt_no_limit_path(spec, descent)[-1]
        assert pi * 0.99 <= final_ratio <= pi + 1e-6
        policies = ("fixed", "adaptive", "int", "rat", "rhc:0", "rhc:8", "naive", "never")
        for name in policies:
            _, ratio = adaptive_adversary(make_policy(name, spec), spec, 10_000)
            assert ratio >= pi - 0.02, name
        spec20 = spec_of(1, 5, 20, 1)
        pi20 = solve_pi_star(spec20).pi_star
        for name in policies:
            if name in ("int", "rat"):
                continue  # capacity 1 makes them the fixed policy
            _, ratio = adaptive_adversary(make_policy(name, spec20), spec20, 10_000)
            assert ratio >= pi20 - 0.02, name


def test_07_capacity_split_is_exact():
    with criterion(7, "split cost and split optima match the whole"):
        rng = np.random.default_rng(707)
        for _ in range(500):
            c = int(rng.choice((1, 2, 3)))
            p_min = float(rng.uniform(0.5, 2.0))
            p_max = p_min * float(rng.uniform(1.5, 5.0))
            alpha = p_min * float(rng.uniform(1.1, 10.0))
            spec = validate_spec(p_min, p_max, alpha, c)
            policy = make_policy("int", spec)
            offline = RateLimitedOptimum(spec)
            eta = alpha * c
            for p in _band_prices(rng, p_min, p_max, int(rng.integers(1, 13))):
                eta -= (alpha - p) * policy.charge(p)
                (opt,) = offline.path((p,))
                assert abs(eta - math.fsum(s.eta for _, s in sub_problems(policy))) <= 1e-12
                assert abs(sub_opt_sum(policy) - opt) <= 1e-12


def _lp_vertex_opt(spec, prices) -> float:
    """Exhaustive optimum over the vertices of the feasible polytope.

    With bounds 0 <= v <= 1 and one coupling row sum(v) <= c, a vertex has
    every coordinate at a bound except at most one, which is only free when
    the coupling row is tight and therefore equals c minus the count of
    ones.  Enumerating subsets of full-rate slots plus an optional
    fractional top-up slot covers every vertex.
    """
    alpha, c = spec.alpha, spec.capacity_f
    floor_c = int(spec.capacity)
    frac = c - floor_c
    T = len(prices)
    best = alpha * c  # charge nothing
    for k in range(1, min(floor_c, T) + 1):
        for subset in combinations(range(T), k):
            cost = sum(prices[j] for j in subset) + alpha * (c - k)
            best = min(best, cost)
    if frac > 0 and T > floor_c:
        for subset in combinations(range(T), floor_c):
            base = sum(prices[j] for j in subset)
            taken = set(subset)
            for j in range(T):
                if j not in taken:
                    best = min(best, base + frac * prices[j])
    return best


def test_08_offline_optimum_matches_exhaustive_search():
    with criterion(8, "offline optimum equals vertex enumeration on small instances"):
        grid = (0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 2.75, 3.0, 4.0)
        rng = np.random.default_rng(808)
        for cap in (1, 2, Fraction(3, 2)):
            spec = validate_spec(0.5, 4.0, 2.75, cap)
            for T in range(1, 7):
                for combo in combinations_with_replacement(grid, T):
                    value = opt_rate_limited(spec, combo)[0]
                    assert abs(value - _lp_vertex_opt(spec, combo)) <= 1e-9, (cap, combo)
                    if rng.uniform() < 0.02:
                        shuffled = tuple(rng.permutation(combo).tolist())
                        assert abs(opt_rate_limited(spec, shuffled)[0] - value) <= 1e-12


def test_09_adaptive_target_behavior(policy_suite):
    with criterion(9, "adaptive target: monotone descent, exact floor start, dominance"):
        rng = np.random.default_rng(909)
        for _ in range(1000):
            p_min = float(rng.uniform(0.5, 2.0))
            p_max = p_min * float(rng.uniform(1.5, 6.0))
            alpha = p_min * float(rng.uniform(1.05, 12.0))
            spec = validate_spec(p_min, p_max, alpha, 1)
            pi = solve_pi_star(spec).pi_star
            # start low enough that every recomputation can act on its price
            start = float(rng.uniform(p_min, min(alpha / pi, p_max)))
            if start <= p_min * (1 + 1e-9):
                continue
            prices = decreasing_prices(rng, p_min, start, int(rng.integers(2, 51)))
            runner = make_policy("adaptive", spec)
            targets = []
            for p in prices:
                runner.charge(p)
                targets.append(runner.pi)
            assert all(b <= a + 1e-9 for a, b in zip(targets, targets[1:]))
            assert all(t <= pi + 1e-9 for t in targets)

        spec = spec_of(1, 5, 5, 1)
        runner = make_policy("adaptive", spec)
        out = runner.charge(1.0)
        assert runner.pi == 1.0
        assert out == 1.0

        assert policy_suite["dominance"] == 0


def test_10_non_minimum_insertions_are_inert():
    with criterion(10, "inserting non-minimum prices leaves the total unchanged"):
        rng = np.random.default_rng(1010)
        for _ in range(1000):
            p_min = float(rng.uniform(0.5, 2.0))
            p_max = p_min * float(rng.uniform(1.5, 6.0))
            alpha = p_min * float(rng.uniform(1.05, 12.0))
            spec = validate_spec(p_min, p_max, alpha, 2)
            T = int(rng.integers(3, 61))
            base = _band_prices(rng, p_min, p_max, T)
            k = int(rng.integers(1, T + 1))
            inserted = float(rng.uniform(min(base[:k]), p_max))
            mutated = base[:k] + [inserted] + base[k:]
            runner_a = make_policy("fixed", spec)
            runner_b = make_policy("fixed", spec)
            total_a = math.fsum(runner_a.charge(p) for p in base)
            total_b = math.fsum(runner_b.charge(p) for p in mutated)
            assert abs(total_a - total_b) <= 1e-12


def test_11_corpus_sweep_directions(tmp_path):
    with criterion(11, "bundled corpus: urgency, ratio ceiling, rate relief"):
        t0 = time.perf_counter()
        path = tmp_path / "corpus.csv"
        write_corpus(str(path), "descending", days=10, seed=7)
        cfg = ExperimentConfig(prices=str(path))
        data = ingest_prices(str(path), cfg)

        alpha_rows = sweep_alpha(cfg, data)
        fractions = [r.mean_charged_fraction for r in alpha_rows]
        assert all(a <= b + 1e-9 for a, b in zip(fractions, fractions[1:]))
        assert all(r.mean_ratio <= r.pi_star + 1e-6 for r in alpha_rows)

        rate_rows = sweep_rate_limit(cfg, data)
        algs = [r.mean_alg_objective for r in rate_rows]
        opts = [r.mean_opt_objective for r in rate_rows]
        assert all(a >= b - 1e-9 for a, b in zip(algs, algs[1:]))
        assert all(a >= b - 1e-9 for a, b in zip(opts, opts[1:]))
        assert time.perf_counter() - t0 <= 120.0


def test_12_simulation_reports_are_deterministic(tmp_path):
    with criterion(12, "repeat simulate runs emit byte-identical reports"):
        corpus = tmp_path / "corpus.csv"
        write_corpus(str(corpus), "descending", days=4, seed=7)
        blobs = []
        for name in ("first", "second"):
            out = tmp_path / name
            code = cli.main(["simulate", "--prices", str(corpus), "--out", str(out)])
            assert code == 0
            files = ("summary.csv", "summary.json", "slots.csv", "compare.csv", "calibration.json")
            blobs.append({f: (out / f).read_bytes() for f in files})
        assert blobs[0] == blobs[1]
