import random
from fractions import Fraction

import pytest

from codedmr.allocation import build_plan
from codedmr.assignment import (
    assignment_for,
    computation_aware,
    even_assignment,
    minimal_function_count,
    shuffle_aware,
)
from codedmr.model import (
    RequiresRedundancyError,
    validate_assignment,
    validate_profile,
)
from conftest import random_profile

HETERO3 = validate_profile(["3/5", "2/3", "11/15"])
WORKED = validate_profile(["1/5", "1/3", "1/3", "1/2"])


class TestEven:
    @pytest.mark.parametrize("K", [2, 4, 12])
    def test_uniform(self, K):
        w = even_assignment(K)
        assert w.w == tuple([Fraction(1, K)] * K)


class TestComputationAware:
    def test_k3(self):
        w = computation_aware(HETERO3)
        assert w.w == (Fraction(3, 10), Fraction(1, 3), Fraction(11, 30))

    def test_worked_example_profile(self):
        w = computation_aware(WORKED)
        assert w.w == (Fraction(6, 41), Fraction(10, 41), Fraction(10, 41),
                       Fraction(15, 41))

    def test_homogeneous_collapses_to_even(self):
        p = validate_profile(["2/5"] * 5)
        assert computation_aware(p) == even_assignment(5)

    def test_order_preserved(self):
        rng = random.Random(5)
        for _ in range(100):
            p = random_profile(rng)
            w = computation_aware(p)
            assert all(w.w[i] <= w.w[i + 1] for i in range(p.K - 1))


class TestShuffleAware:
    def test_k3(self):
        w = shuffle_aware(HETERO3, build_plan(HETERO3))
        assert w.w == (Fraction(4, 19), Fraction(6, 19), Fraction(9, 19))

    def test_requires_redundancy(self):
        p = validate_profile(["1/2", "1/2"])
        with pytest.raises(RequiresRedundancyError):
            shuffle_aware(p, build_plan(p))

    def test_homogeneous_surplus_collapses_to_even(self):
        p = validate_profile(["1/2"] * 4)
        w = shuffle_aware(p, build_plan(p))
        assert w.w == tuple([Fraction(1, 4)] * 4)

    def test_zero_padding_free_condition(self):
        rng = random.Random(6)
        for _ in range(200):
            p = random_profile(rng)
            if p.total == 1:
                continue
            plan = build_plan(p)
            w = shuffle_aware(p, plan)
            assert all(v == 0 for v in w.w[:plan.r])
            merits = {w.w[k - 1] * (1 - plan.P[k - 1]) / plan.P[k - 1]
                      for k in range(plan.r + 1, p.K + 1)}
            assert len(merits) == 1


class TestMinimalFunctionCount:
    def test_table_values(self):
        plan3 = build_plan(HETERO3)
        assert minimal_function_count(computation_aware(HETERO3)) == 30
        assert minimal_function_count(shuffle_aware(HETERO3, plan3)) == 19
        k12 = validate_profile([Fraction(1, 6)] * 6 + [Fraction(1, 3)] * 6)
        assert minimal_function_count(computation_aware(k12)) == 18

    def test_custom_w(self):
        w = validate_assignment(["1/8", "1/4", "1/6", "11/24"], 4)
        assert minimal_function_count(w) == 24

    def test_zero_shares_do_not_constrain(self):
        w = validate_assignment(["0", "1/3", "2/3"], 3)
        assert minimal_function_count(w) == 3


class TestDispatch:
    def test_all_strategies_validate(self):
        rng = random.Random(8)
        for _ in range(100):
            p = random_profile(rng)
            plan = build_plan(p)
            for strategy in ("even", "computation", "shuffle"):
                if strategy == "shuffle" and p.total == 1:
                    continue
                w = assignment_for(strategy, p, plan)
                validate_assignment(w.w, p.K)

    def test_custom_requires_vector(self):
        plan = build_plan(HETERO3)
        with pytest.raises(ValueError):
            assignment_for("custom", HETERO3, plan)
