"""Acceptance suite: one test per criterion.

Each test prints a PASS/FAIL line and enforces the stated runtime budget.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import csv
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from codedmr import cli
from codedmr.allocation import (
    build_plan,
    materialize,
    minimal_file_count,
    subbatch_fractions,
)
from codedmr.analytics import (
    HOMOGENEOUS_GAP_BOUND,
    LOWER_GAP_BOUND,
    achievable_load,
    gap_to_homogeneous,
    homogeneous_even_load,
    homogeneous_optimal,
    load_computation_aware,
    load_shuffle_aware,
    lower_bound,
)
from codedmr.assignment import (
    computation_aware,
    even_assignment,
    minimal_function_count,
    shuffle_aware,
)
from codedmr.model import (
    DecodeFailureError,
    format_decimal,
    validate_assignment,
    validate_profile,
)
from codedmr.simulator import CODED, build_shuffle, run_map, run_reduce, simulate
from conftest import random_assignment

WORKED = validate_profile(["1/5", "1/3", "1/3", "1/2"])
WORKED_W = validate_assignment(["1/8", "1/4", "1/6", "11/24"], 4)
K12_M1 = validate_profile([Fraction(1, 6)] * 6 + [Fraction(1, 3)] * 6)
K12_M2 = validate_profile([Fraction(1, 6)] * 6 + [Fraction(1, 2)] * 6)
HETERO3 = validate_profile(["3/5", "2/3", "11/15"])


@contextmanager
def criterion(number: int, description: str, budget_seconds: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < budget_seconds, (
        f"criterion {number} took {elapsed:.1f}s, budget {budget_seconds}s")
    print(f"PASS criterion {number}: {description} ({elapsed:.1f}s)")


def test_criterion_1_worked_example_exactness():
    with criterion(1, "worked-example loads and sub-batch are exact", 1.0):
        plan = build_plan(WORKED)
        load = achievable_load(WORKED, plan, WORKED_W)
        assert load.total == Fraction(4171, 7260)
        assert load.lowcl == Fraction(1, 10)
        assert load.highcl == Fraction(689, 1452)
        assert subbatch_fractions(plan.l, plan.P)[(1, (2, 3))] == Fraction(3, 2662)


def test_criterion_2_simulation_matches_formula():
    with criterion(2, "simulated load equals 4171/7260 on 3 seeds", 180.0):
        for seed in (11, 22, 33):
            start = time.monotonic()
            instance, plan, report = simulate(WORKED, WORKED_W, T=32, seed=seed)
            per_seed = time.monotonic() - start
            assert per_seed < 60.0, f"seed {seed} took {per_seed:.1f}s"
            assert instance.N == 39930 and instance.Q == 24
            assert all(report.decode_success.values())
            assert report.measured_load == Fraction(4171, 7260)


def test_criterion_3_benchmark_loads_round_to_published_digits():
    with criterion(3, "K=12 profile loads round to published 3-digit values", 5.0):
        expected = {
            "m1": ("0.448", "0.371", "0.315"),
            "m2": ("0.397", "0.255", "0.175"),
        }
        for name, profile in (("m1", K12_M1), ("m2", K12_M2)):
            plan = build_plan(profile)
            even = achievable_load(profile, plan, even_assignment(12)).total
            comp = load_computation_aware(profile, plan)
            shuf = load_shuffle_aware(profile, plan)
            rendered = tuple(format_decimal(v, 3) for v in (even, comp, shuf))
            assert rendered == expected[name], (name, rendered)


def test_criterion_4_minimal_instance_sizes():
    with criterion(4, "minimal file and function counts match published table", 5.0):
        plan3 = build_plan(HETERO3)
        assert minimal_file_count(plan3) == 150
        assert minimal_function_count(computation_aware(HETERO3)) == 30
        assert minimal_function_count(shuffle_aware(HETERO3, plan3)) == 19
        assert minimal_function_count(computation_aware(K12_M1)) == 18
        assert minimal_function_count(computation_aware(K12_M2)) == 24
        plan_m1 = build_plan(K12_M1)
        value = minimal_file_count(plan_m1)
        assert value == 12 * 11 ** 11
        from codedmr.allocation import format_factored
        assert format_factored(value) == "2^2 * 3 * 11^11"


def test_criterion_5_homogeneous_reductions():
    with criterion(5, "homogeneous closed forms and two-factor gap", 5.0):
        for K in range(2, 13):
            p = validate_profile([Fraction(1, K)] * K)
            plan = build_plan(p)
            assert achievable_load(p, plan, even_assignment(K)).total == \
                Fraction(K - 1, K)
            assert homogeneous_even_load(K, Fraction(1, K)) == Fraction(K - 1, K)
            # integer surplus points t = Km in [2 : K-1] (m < 1 required)
            for t in range(2, K):
                m = Fraction(t, K)
                load = homogeneous_even_load(K, m)
                assert load <= (1 - m) / (K * m - 1)
                optimal = homogeneous_optimal(K, m)
                assert load / optimal <= Fraction(K * m, K * m - 1) <= 2


def test_criterion_6_bound_ordering(profile_pool):
    with criterion(6, "cut-set bound never exceeds achievable on 1000 profiles", 60.0):
        rng = random.Random(606)
        for profile in profile_pool:
            plan = build_plan(profile)
            assignments = [even_assignment(profile.K),
                           computation_aware(profile),
                           random_assignment(rng, profile.K)]
            if profile.total > 1:
                assignments.append(shuffle_aware(profile, plan))
            for w in assignments:
                la = achievable_load(profile, plan, w).total
                bound, witness = lower_bound(profile, w)
                assert bound <= la
                m_sum = sum((profile.m[k - 1] for k in witness), Fraction(0))
                w_sum = sum((w.w[k - 1] for k in witness), Fraction(0))
                assert (1 - m_sum) * w_sum == bound


def test_criterion_7_gap_constants(profile_pool):
    with criterion(7, "gap ratios stay below 115 and 16+70e on 1000 profiles", 60.0):
        regimes = set()
        for profile in profile_pool:
            ratio, regime = gap_to_homogeneous(profile)
            regimes.add(regime)
            assert ratio < HOMOGENEOUS_GAP_BOUND
            plan = build_plan(profile)
            w = computation_aware(profile)
            la = achievable_load(profile, plan, w).total
            bound, _ = lower_bound(profile, w)
            assert la / bound <= LOWER_GAP_BOUND
        assert regimes == {"computation", "shuffle"}, "both regimes exercised"


def test_criterion_8_sweep_crossover(capsys):
    with criterion(8, "shuffle-aware beats homogeneous optimum on (0.76, 0.86)", 30.0):
        assert cli.main(["sweep", "--preset", "fig2-k12", "--step", "0.01"]) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        in_window = [row for row in rows
                     if Fraction(76, 100) < Fraction(row["mbar"]) < Fraction(86, 100)]
        assert len(in_window) == 9  # 0.77 .. 0.85
        for row in in_window:
            assert row["L_shuffle"] and row["L_hom_optimal"]
            assert Fraction(row["L_shuffle"]) < Fraction(row["L_hom_optimal"])


def test_criterion_9_closed_form_specializations():
    with criterion(9, "closed forms equal the general formula on 500 profiles", 30.0):
        from conftest import random_profile

        rng = random.Random(909)
        shuffle_checked = 0
        for _ in range(500):
            profile = random_profile(rng)
            plan = build_plan(profile)
            assert load_computation_aware(profile, plan) == achievable_load(
                profile, plan, computation_aware(profile)).total
            if profile.total > 1:
                assert load_shuffle_aware(profile, plan) == achievable_load(
                    profile, plan, shuffle_aware(profile, plan)).total
                shuffle_checked += 1
        assert shuffle_checked > 400


def test_criterion_10_negative_decode():
    with criterion(10, "withheld side information raises a named DecodeFailure", 10.0):
        w3 = validate_assignment(["3/10", "1/3", "11/30"], 3)
        plan = build_plan(HETERO3)
        instance = materialize(plan, w3, N=150, Q=30, T=16, seed=8)
        stores = run_map(instance)
        messages = build_shuffle(instance, plan)
        coded = next(m for m in messages
                     if m.kind == CODED and len(m.recipients) >= 2)
        victim = coded.components[0].recipient
        interfering = coded.components[1]
        stores[victim] -= {interfering.files}
        with pytest.raises(DecodeFailureError) as err:
            run_reduce(instance, stores, messages)
        assert err.value.node == victim
        assert err.value.q == interfering.functions.start
        assert err.value.n == interfering.files.start
