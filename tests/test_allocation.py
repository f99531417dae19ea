import hashlib
import math
import random
import time
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from codedmr import allocation
from codedmr.allocation import (
    MATERIALIZE_BIT_CAP,
    build_plan,
    file_count_estimate,
    first_step,
    format_factored,
    materialize,
    minimal_file_count,
    subbatch_count,
    subbatch_fractions,
    surplus_ratios,
)
from codedmr.assignment import even_assignment
from codedmr.model import (
    IndivisibleInstanceError,
    InstanceTooLargeError,
    validate_assignment,
    validate_profile,
)
from codedmr.presets import K12_M2
from conftest import random_profile

WORKED = validate_profile(["1/5", "1/3", "1/3", "1/2"])
HETERO3 = validate_profile(["3/5", "2/3", "11/15"])


@st.composite
def tied_loads(draw):
    """K in 2..8 loads drawn from at most K distinct values, so ties are common."""
    K = draw(st.integers(2, 8))
    values = draw(st.lists(
        st.fractions(min_value=Fraction(1, 60), max_value=Fraction(59, 60),
                     max_denominator=60),
        min_size=1, max_size=K))
    m = draw(st.lists(st.sampled_from(values), min_size=K, max_size=K))
    assume(sum(m) >= 1)
    return m


class TestFirstStep:
    def test_worked_example(self):
        l, r, xi = first_step(WORKED)
        assert l == (Fraction(1, 5), Fraction(4, 15), Fraction(4, 15), Fraction(4, 15))
        assert r == 1
        assert xi == Fraction(1, 5)

    def test_exact_fit_homogeneous(self):
        for K in (2, 4, 7):
            p = validate_profile([Fraction(1, K)] * K)
            l, r, xi = first_step(p)
            assert l == tuple([Fraction(1, K)] * K)
            assert r == K and xi == 1

    def test_all_high_load(self):
        # hand recursion: a_1 = 1/3 < 3/5, so every node splits evenly
        l, r, xi = first_step(HETERO3)
        assert l == (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))
        assert r == 0 and xi == 0


class TestSurplusRatios:
    def test_worked_example(self):
        l, _, _ = first_step(WORKED)
        assert surplus_ratios(l, WORKED.m) == (
            Fraction(0), Fraction(1, 11), Fraction(1, 11), Fraction(7, 22))

    def test_no_surplus(self):
        p = validate_profile(["1/3"] * 3)
        l, _, _ = first_step(p)
        assert surplus_ratios(l, p.m) == (Fraction(0),) * 3

    def test_direct_substitution(self):
        l, _, _ = first_step(HETERO3)
        assert surplus_ratios(l, HETERO3.m) == (
            Fraction(2, 5), Fraction(1, 2), Fraction(3, 5))


def canonical_key(key):
    """Owner ascending, then subset by size, then lexicographically."""
    owner, psi = key
    return owner, len(psi), psi


def recursive_subbatch_table(l, P):
    """Reference table: a recursive walk over every other node's in/out
    branch, then a sort into canonical order."""
    K = len(l)
    table = {}

    def expand(k, others, idx, psi, frac):
        if idx == len(others):
            table[(k, tuple(psi))] = frac
            return
        i = others[idx]
        p = P[i - 1]
        if p > 0:
            psi.append(i)
            expand(k, others, idx + 1, psi, frac * p)
            psi.pop()
        if p < 1:
            expand(k, others, idx + 1, psi, frac * (1 - p))

    for k in range(1, K + 1):
        if l[k - 1] == 0:
            continue
        expand(k, [i for i in range(1, K + 1) if i != k], 0, [], l[k - 1])
    return {key: table[key] for key in sorted(table, key=canonical_key)}


def random_loads():
    """Loads of ``conftest.random_profile`` (K 2..9) from a drawn seed."""
    return st.integers(0, 2 ** 32).map(
        lambda seed: random_profile(random.Random(seed), kmax=9).m)


def table_of(profile):
    plan = build_plan(profile)
    return subbatch_fractions(plan.l, plan.P)


class TestSubbatchFractions:
    def test_worked_example_cell(self):
        assert table_of(WORKED)[(1, (2, 3))] == Fraction(3, 2662)

    def test_subsets_with_lowcl_member_are_absent(self):
        assert all(1 not in psi for (_, psi) in table_of(WORKED))

    def test_direct_product(self):
        # owner 2, empty subset: l_2 (1-P_1)(1-P_3) = (1/3)(3/5)(2/5)
        assert table_of(HETERO3)[(2, ())] == Fraction(2, 25)

    def test_per_owner_sums(self):
        plan = build_plan(WORKED)
        table = subbatch_fractions(plan.l, plan.P)
        for k in range(1, 5):
            total = sum(
                (f for (o, _), f in table.items() if o == k), Fraction(0))
            assert total == plan.l[k - 1]

    def test_one_fraction_per_distinct_value_of_each_owner(self, monkeypatch):
        plan = build_plan(validate_profile(K12_M2))
        made = []
        monkeypatch.setattr(allocation, "Fraction",
                            lambda *args: made.append(args) or Fraction(*args))
        table = subbatch_fractions(plan.l, plan.P)
        assert len(table) == 24_576
        assert len(set(table.values())) == 84
        assert len(made) <= 504

    def test_count_matches_table(self):
        rng = random.Random(5)
        profiles = [WORKED, HETERO3] + [random_profile(rng, kmax=9)
                                        for _ in range(100)]
        for p in profiles:
            plan = build_plan(p)
            assert subbatch_count(plan.l, plan.P) == len(
                subbatch_fractions(plan.l, plan.P))

    @settings(max_examples=300, deadline=None)
    @example(["1/5", "1/3", "1/3", "1/2"])  # r = 1: P_1 = 0
    @example(["1/6", "1/6", "1/2", "1/2"])  # r = 2, tied loads
    @example(K12_M2)  # 24,576 entries of 84 values
    @example(["1/2"] * 10)  # 5,120 entries of one value
    @given(st.one_of(tied_loads(), random_loads()))
    def test_walk_matches_recursive_oracle(self, m):
        plan = build_plan(validate_profile(m))
        event("r > 0" if plan.r else "r = 0")
        assert list(subbatch_fractions(plan.l, plan.P).items()) == list(
            recursive_subbatch_table(plan.l, plan.P).items())


class TestMinimalFileCount:
    def test_k3_heterogeneous(self):
        assert minimal_file_count(build_plan(HETERO3)) == 150

    def test_k3_homogeneous_surplus(self):
        # all sub-batch fractions are (1/3)(1/2)(1/2) = 1/12
        p = validate_profile(["2/3"] * 3)
        assert minimal_file_count(build_plan(p)) == 12

    def test_k12_mixed(self):
        p = validate_profile([Fraction(1, 6)] * 6 + [Fraction(1, 3)] * 6)
        assert minimal_file_count(build_plan(p)) == 12 * 11 ** 11

    @settings(max_examples=300, deadline=None)
    @example(["1/5", "1/3", "1/3", "1/2"])  # r = 1: P_1 = 0
    @example(["1/6", "1/6", "1/2", "1/2"])  # r = 2, tied loads
    @given(tied_loads())
    def test_closed_form_matches_enumerated_lcm(self, m):
        profile = validate_profile(m)
        plan = build_plan(profile)
        event("r > 0" if plan.r else "r = 0")
        table = subbatch_fractions(plan.l, plan.P)
        expected = math.lcm(*(frac.denominator for frac in table.values()))
        assert minimal_file_count(plan) == expected

    def test_closed_form_at_k64_is_fast(self):
        p = validate_profile([Fraction(k, 2 * k + 1) for k in range(1, 65)])
        plan = build_plan(p)
        start = time.perf_counter()
        value = minimal_file_count(plan)
        assert time.perf_counter() - start < 1.0
        assert all((lk * value).denominator == 1 for lk in plan.l)

    def test_estimate_values(self):
        # r=1: 1/(l_1 * prod_{k>1} min(P_k, 1-P_k))
        assert file_count_estimate(build_plan(WORKED)) == Fraction(13310, 7)
        # r=0 variant
        assert file_count_estimate(build_plan(HETERO3)) == Fraction(75, 4)

    def test_factored_rendering(self):
        assert format_factored(12 * 11 ** 11) == "2^2 * 3 * 11^11"
        assert format_factored(150) == "2 * 3 * 5^2"
        assert format_factored(1) == "1"

    def test_cofactor_past_trial_division_is_marked_unfactored(self):
        # trial division stops at 10^6, below both primes
        assert format_factored(4 * 1000003 * 1000033) == \
            "2^2 * 1000036000099 (unfactored)"
        # a cofactor below the square of the last divisor tried is prime
        assert format_factored(4 * 1000003) == "2^2 * 1000003"

    def test_k20_fifty_digit_cofactor_is_marked_unfactored(self):
        # the first twenty primes above 10^49 (Miller-Rabin, bases 2..71)
        primes = [10 ** 49 + d for d in (
            9, 69, 217, 451, 511, 813, 1113, 1443, 1477, 1533, 1701, 1881,
            1891, 1983, 2023, 2049, 2073, 2089, 2401, 2581)]
        plan = build_plan(validate_profile([Fraction(p // 2, p) for p in primes]))
        head, _, last = format_factored(minimal_file_count(plan)).rpartition(" * ")
        assert head == "2^2 * 5 * 19^19"
        digits, mark = last.split(" ")
        assert (len(digits), mark) == (981, "(unfactored)")
        # composite: every one of the primes divides it
        assert all(int(digits) % p == 0 for p in primes)


class TestMaterialize:
    def test_two_node_partition(self):
        p = validate_profile(["1/2", "1/2"])
        plan = build_plan(p)
        inst = materialize(plan, validate_assignment(["1/2", "1/2"], 2), N=2, Q=2)
        assert inst.files_of[1] == (range(1, 2),)
        assert inst.files_of[2] == (range(2, 3),)
        assert inst.batch_of == {1: range(1, 2), 2: range(2, 3)}

    def test_worked_example_sizes(self):
        plan = build_plan(WORKED)
        w = validate_assignment(["1/8", "1/4", "1/6", "11/24"], 4)
        N = minimal_file_count(plan)
        inst = materialize(plan, w, N=N, Q=24)
        assert inst.files_of[1] == (inst.batch_of[1],)
        assert len(inst.batch_of[1]) == N // 5
        for k in range(1, 5):
            files = set(chain.from_iterable(inst.files_of[k]))
            assert len(files) == sum(map(len, inst.files_of[k])) == WORKED.m[k - 1] * N
        assert len(inst.subbatch_files[(1, (2, 3))]) == Fraction(3, 2662) * N
        assert [len(inst.functions_of[k]) for k in range(1, 5)] == [3, 6, 4, 11]

    def test_deterministic(self):
        plan = build_plan(HETERO3)
        w = validate_assignment(["3/10", "1/3", "11/30"], 3)
        a = materialize(plan, w, N=150, Q=30, T=16, seed=9)
        b = materialize(plan, w, N=150, Q=30, T=16, seed=9)
        assert a == b

    def test_canonical_layout(self):
        plan = build_plan(WORKED)
        w = validate_assignment(["1/8", "1/4", "1/6", "11/24"], 4)
        inst = materialize(plan, w, N=minimal_file_count(plan), Q=24)
        keys = list(inst.subbatch_files)
        assert keys == sorted(keys, key=canonical_key)
        starts = [inst.subbatch_files[k].start for k in keys]
        assert starts == sorted(starts)
        for k in range(1, 5):
            own = [rng for (owner, _), rng in inst.subbatch_files.items() if owner == k]
            assert inst.batch_of[k] == range(own[0].start, own[-1].stop)

    @pytest.mark.parametrize("m, N, digest", [
        (["1/5", "1/3", "1/3", "1/2"], 39_930,
         "38aac5c001c5108e65a51231e0fc4c9ac0fd99421ac0b5a323dbc52362372894"),
        (["3/5", "2/3", "11/15"], 150,
         "5be4bb86bf2f5ed91015acfa0332411d3b06df9642ce2a2475f7bdec8faa24f4"),
        (["13/24"] * 12, 24_576,
         "f827f38b477f56b04a962a08b7a014f163d51e1a22d8c067a411453d70d5977c"),
    ], ids=["worked", "hetero3", "k12"])
    def test_layout_is_pinned(self, m, N, digest):
        # transcript goldens record bits per message, not which files a
        # sub-batch holds, so the file layout is pinned here
        profile = validate_profile(m)
        inst = materialize(build_plan(profile), even_assignment(profile.K),
                           N=N, Q=profile.K)
        layout = (list(inst.subbatch_files.items()), list(inst.batch_of.items()),
                  list(inst.files_of.items()))
        assert hashlib.sha256(repr(layout).encode()).hexdigest() == digest

    def test_indivisible_names_minimal_values(self):
        plan = build_plan(HETERO3)
        w = validate_assignment(["3/10", "1/3", "11/30"], 3)
        with pytest.raises(IndivisibleInstanceError) as err:
            materialize(plan, w, N=151, Q=30)
        assert err.value.minimal_files == 150
        assert "150" in str(err.value)
        with pytest.raises(IndivisibleInstanceError) as err:
            materialize(plan, w, N=150, Q=29)
        assert err.value.minimal_functions == 30

    def test_too_large_refused(self):
        plan = build_plan(HETERO3)
        w = validate_assignment(["3/10", "1/3", "11/30"], 3)
        with pytest.raises(InstanceTooLargeError) as err:
            materialize(plan, w, N=5_000_100, Q=30)
        assert "N=5000100 exceeds the materialization cap 5000000" in str(err.value)

    def test_iv_bits_capped(self):
        plan = build_plan(HETERO3)
        w = validate_assignment(["3/10", "1/3", "11/30"], 3)
        T = MATERIALIZE_BIT_CAP // (150 * 30)
        assert materialize(plan, w, N=150, Q=30, T=T).T == T
        with pytest.raises(InstanceTooLargeError) as err:
            materialize(plan, w, N=150, Q=30, T=T + 1)
        assert str(MATERIALIZE_BIT_CAP) in str(err.value)

    def test_worked_example_at_100x_minimal_files(self):
        # the bit cap admits the worked example's Q=24, T=32 up to the file cap
        plan = build_plan(WORKED)
        w = validate_assignment(["1/8", "1/4", "1/6", "11/24"], 4)
        inst = materialize(plan, w, N=100 * 39930, Q=24, T=32)
        assert inst.N == 3_993_000
        assert sum(map(len, inst.subbatch_files.values())) == inst.N

    def test_every_file_in_exactly_one_subbatch(self):
        plan = build_plan(HETERO3)
        w = validate_assignment(["3/10", "1/3", "11/30"], 3)
        inst = materialize(plan, w, N=150, Q=30)
        files = sorted(chain.from_iterable(inst.subbatch_files.values()))
        assert files == list(range(1, 151))


class TestPlanProperties:
    def test_random_profile_invariants(self):
        rng = random.Random(101)
        for _ in range(1000):
            p = random_profile(rng)
            l, r, xi = first_step(p)
            P = surplus_ratios(l, p.m)
            assert sum(l) == 1
            assert xi == sum(p.m[:r])
            # batch fractions never decrease once sorted
            assert all(l[i] <= l[i + 1] for i in range(p.K - 1))
            # LowCL prefix: m_k <= a_k exactly for k <= r and only there
            allocated = Fraction(0)
            for k in range(1, p.K + 1):
                a_k = (1 - allocated) / (p.K - k + 1)
                assert (p.m[k - 1] <= a_k) == (k <= r)
                allocated += min(p.m[k - 1], a_k)
            # surplus is zero exactly on the prefix
            assert all((P[k] == 0) == (k < r) for k in range(p.K))
            assert all(0 <= v < 1 for v in P)
            # node coverage: own batch plus surplus share of the rest
            for k in range(p.K):
                assert l[k] + P[k] * (1 - l[k]) == p.m[k]

    def test_random_subbatch_sums(self):
        rng = random.Random(202)
        for _ in range(300):
            p = random_profile(rng, kmax=8)
            l, r, xi = first_step(p)
            P = surplus_ratios(l, p.m)
            table = subbatch_fractions(l, P)
            sums = {k: Fraction(0) for k in range(1, p.K + 1)}
            for (owner, psi), frac in table.items():
                assert frac > 0
                assert all(i > r for i in psi)
                sums[owner] += frac
            for k in range(1, p.K + 1):
                assert sums[k] == l[k - 1]
