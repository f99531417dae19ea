import random
import time
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from codedmr.allocation import build_plan
from codedmr.analytics import (
    HOMOGENEOUS_GAP_BOUND,
    LOWER_GAP_BOUND,
    achievable_load,
    build_load_report,
    gap_to_homogeneous,
    homogeneous_even_load,
    homogeneous_optimal,
    load_computation_aware,
    load_shuffle_aware,
    lower_bound,
    s_ordering,
)
from codedmr.assignment import computation_aware, even_assignment, shuffle_aware
from codedmr.model import (
    ComputationProfile,
    FunctionAssignment,
    OutOfDomainError,
    RequiresRedundancyError,
    TooManyNodesError,
    config_from_json,
    validate_assignment,
    validate_profile,
)
from conftest import random_assignment, random_profile

WORKED = validate_profile(["1/5", "1/3", "1/3", "1/2"])
WORKED_W = validate_assignment(["1/8", "1/4", "1/6", "11/24"], 4)


def brute_lower_bound(profile, w):
    """Independent enumeration over all subsets via itertools."""
    best = Fraction(0)
    nodes = range(1, profile.K + 1)
    for size in range(1, profile.K + 1):
        for subset in combinations(nodes, size):
            m_sum = sum((profile.m[k - 1] for k in subset), Fraction(0))
            w_sum = sum((w.w[k - 1] for k in subset), Fraction(0))
            best = max(best, (1 - m_sum) * w_sum)
    return best


def fraction_mask_lower_bound(profile, w):
    """Reference: the Fraction loop the integer Gray-code walk replaced.

    Rebuilds both sums for every subset in mask order; the first maximum
    (lowest mask) is the witness.
    """
    K = profile.K
    best = Fraction(0)
    witness = frozenset()
    for mask in range(1, 1 << K):
        m_sum = Fraction(0)
        w_sum = Fraction(0)
        for k in range(K):
            if mask >> k & 1:
                m_sum += profile.m[k]
                w_sum += w.w[k]
        value = (1 - m_sum) * w_sum
        if value > best:
            best = value
            witness = frozenset(k + 1 for k in range(K) if mask >> k & 1)
    return best, witness


def weights_to_assignment(weights):
    total = sum(weights)
    return FunctionAssignment(w=tuple(Fraction(a, total) for a in weights))


@st.composite
def tied_bound_inputs(draw):
    """K in 1..9 with loads drawn from at most three values and weights that
    are equal, small integers (zeros included) or proportional to m, so many
    subsets share the maximum. lower_bound reads only K and m, so the profile
    is built directly and may sum below 1, which K = 1 needs.
    """
    K = draw(st.integers(1, 9))
    values = draw(st.lists(
        st.fractions(min_value=Fraction(1, 24), max_value=Fraction(23, 24),
                     max_denominator=24),
        min_size=1, max_size=3))
    m = sorted(draw(st.lists(st.sampled_from(values), min_size=K, max_size=K)))
    kind = draw(st.sampled_from(["equal", "integer", "proportional"]))
    if kind == "equal":
        weights = [1] * K
    elif kind == "integer":
        weights = draw(st.lists(st.integers(0, 3), min_size=K, max_size=K)
                       .map(lambda ws: ws if any(ws) else [1] + ws[1:]))
    else:
        weights = m
    event(f"w {kind}")
    profile = ComputationProfile(K=K, m=tuple(m),
                                 node_labels=tuple(range(1, K + 1)))
    return profile, weights_to_assignment(weights)


@st.composite
def configs(draw):
    """A valid K 2..8 config (tied loads common) with a custom w in the same
    node order as m, plus a permutation of the nodes."""
    K = draw(st.integers(2, 8))
    values = draw(st.lists(
        st.fractions(min_value=Fraction(1, 30), max_value=Fraction(29, 30),
                     max_denominator=30),
        min_size=1, max_size=K))
    m = draw(st.lists(st.sampled_from(values), min_size=K, max_size=K))
    assume(sum(m) >= 1)
    weights = draw(st.lists(st.integers(0, 5), min_size=K, max_size=K)
                   .map(lambda ws: ws if any(ws) else [1] + ws[1:]))
    w = [Fraction(a, sum(weights)) for a in weights]
    order = draw(st.permutations(range(K)))
    return m, w, order


def all_assignments(profile, plan, custom):
    assignments = {"even": even_assignment(profile.K),
                   "computation": computation_aware(profile),
                   "custom": custom}
    if profile.total > 1:
        assignments["shuffle"] = shuffle_aware(profile, plan)
    return assignments


class TestSOrdering:
    def test_worked_example_matches_direct_ratios(self):
        plan = build_plan(WORKED)
        ratios = {
            k: WORKED_W.w[k - 1] * (1 - plan.P[k - 1]) / plan.P[k - 1]
            for k in (2, 3, 4)
        }
        oracle = tuple(sorted(ratios, key=lambda k: (-ratios[k], k)))
        s = s_ordering(plan, WORKED_W)
        assert s == oracle == (2, 3, 4)
        seq = [ratios[k] for k in s]
        assert all(a >= b for a, b in zip(seq, seq[1:]))

    def test_shuffle_aware_ties_keep_node_order(self):
        rng = random.Random(31)
        for _ in range(50):
            p = random_profile(rng)
            if p.total == 1:
                continue
            plan = build_plan(p)
            w = shuffle_aware(p, plan)
            assert s_ordering(plan, w) == tuple(range(plan.r + 1, p.K + 1))

    def test_permutation_of_high_nodes(self):
        rng = random.Random(32)
        for _ in range(100):
            p = random_profile(rng)
            plan = build_plan(p)
            if plan.r == p.K:
                continue
            s = s_ordering(plan, random_assignment(rng, p.K))
            assert sorted(s) == list(range(plan.r + 1, p.K + 1))


class TestAchievableLoad:
    def test_worked_example_exact(self):
        plan = build_plan(WORKED)
        load = achievable_load(WORKED, plan, WORKED_W)
        assert load.lowcl == Fraction(1, 10)
        assert load.highcl == Fraction(689, 1452)
        assert load.total == Fraction(4171, 7260)
        assert load.total == load.lowcl + load.highcl

    @pytest.mark.parametrize("K", range(2, 13))
    def test_no_surplus_homogeneous(self, K):
        p = validate_profile([Fraction(1, K)] * K)
        plan = build_plan(p)
        load = achievable_load(p, plan, even_assignment(K))
        assert load.total == Fraction(K - 1, K)

    def test_permutation_invariance(self):
        rng = random.Random(33)
        for _ in range(100):
            p = random_profile(rng, kmax=6)
            w = random_assignment(rng, p.K)
            plan = build_plan(p)
            base = achievable_load(p, plan, w).total
            order = list(range(p.K))
            rng.shuffle(order)
            p2 = validate_profile([p.m[i] for i in order])
            w2_sorted = [w.w[i] for i in order]
            w2 = FunctionAssignment(
                w=tuple(w2_sorted[lbl - 1] for lbl in p2.node_labels))
            plan2 = build_plan(p2)
            assert achievable_load(p2, plan2, w2).total == base

    def test_tied_nodes_any_order(self):
        # nodes 1..3 share m=1/3, hence share P; swapping their w entries
        # permutes equal merit values and must not move the total
        p = validate_profile(["1/3", "1/3", "1/3", "1/2"])
        plan = build_plan(p)
        w1 = validate_assignment(["1/6", "1/3", "1/4", "1/4"], 4)
        w2 = validate_assignment(["1/3", "1/6", "1/4", "1/4"], 4)
        assert achievable_load(p, plan, w1).total == achievable_load(p, plan, w2).total


class TestSpecializations:
    def test_closed_forms_match_general_formula(self):
        rng = random.Random(34)
        checked_shuffle = 0
        for _ in range(500):
            p = random_profile(rng)
            plan = build_plan(p)
            direct = load_computation_aware(p, plan)
            general = achievable_load(p, plan, computation_aware(p)).total
            assert direct == general
            if p.total > 1:
                direct = load_shuffle_aware(p, plan)
                general = achievable_load(p, plan, shuffle_aware(p, plan)).total
                assert direct == general
                checked_shuffle += 1
        assert checked_shuffle > 400

    def test_shuffle_requires_redundancy(self):
        p = validate_profile(["1/2", "1/2"])
        with pytest.raises(RequiresRedundancyError):
            load_shuffle_aware(p, build_plan(p))

    def test_homogeneous_computation_equals_even(self):
        p = validate_profile(["1/2"] * 4)
        plan = build_plan(p)
        assert load_computation_aware(p, plan) == achievable_load(
            p, plan, even_assignment(4)).total


class TestHomogeneousEvenLoad:
    def test_no_surplus_point(self):
        assert homogeneous_even_load(4, Fraction(1, 4)) == Fraction(3, 4)

    def test_k2_three_quarters(self):
        # closed form (1/2)(1/2)*1; cross-checked against the general formula
        value = homogeneous_even_load(2, Fraction(3, 4))
        assert value == Fraction(1, 4)
        p = validate_profile(["3/4", "3/4"])
        plan = build_plan(p)
        assert achievable_load(p, plan, even_assignment(2)).total == value

    def test_matches_general_formula(self):
        rng = random.Random(35)
        for _ in range(100):
            K = rng.randint(2, 10)
            m = Fraction(rng.randint(1, 99), 100)
            if not (Fraction(1, K) <= m < 1):
                continue
            p = validate_profile([m] * K)
            plan = build_plan(p)
            assert homogeneous_even_load(K, m) == achievable_load(
                p, plan, even_assignment(K)).total

    def test_upper_bound_when_surplus(self):
        rng = random.Random(36)
        for _ in range(200):
            K = rng.randint(2, 12)
            m = Fraction(rng.randint(1, 99), 100)
            if m <= Fraction(1, K) or m >= 1:
                continue
            assert homogeneous_even_load(K, m) <= (1 - m) / (K * m - 1)

    @pytest.mark.parametrize("K,m", [(4, Fraction(1, 8)), (4, Fraction(1)),
                                     (3, Fraction(5, 4))])
    def test_out_of_domain(self, K, m):
        with pytest.raises(OutOfDomainError):
            homogeneous_even_load(K, m)


class TestHomogeneousOptimal:
    def test_integer_point(self):
        assert homogeneous_optimal(12, Fraction(1, 4)) == Fraction(1, 4)

    def test_full_storage(self):
        assert homogeneous_optimal(5, Fraction(1)) == 0

    def test_interpolated_point(self):
        assert homogeneous_optimal(3, Fraction(1, 2)) == Fraction(5, 12)

    def test_envelope_oracle(self):
        # lower convex envelope = min over all chords spanning the query
        rng = random.Random(37)
        for _ in range(200):
            K = rng.randint(2, 12)
            mbar = Fraction(rng.randint(1, 100), 100)
            if mbar < Fraction(1, K):
                continue
            value = homogeneous_optimal(K, mbar)
            best = None
            for t1 in range(1, K + 1):
                for t2 in range(t1, K + 1):
                    lo, hi = Fraction(t1, K), Fraction(t2, K)
                    if not (lo <= mbar <= hi):
                        continue
                    y1 = (1 - lo) / t1
                    y2 = (1 - hi) / t2
                    if t1 == t2:
                        chord = y1
                    else:
                        chord = y1 + (mbar - lo) * (y2 - y1) / (hi - lo)
                    best = chord if best is None else min(best, chord)
            assert value == best

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomainError):
            homogeneous_optimal(4, Fraction(1, 8))
        with pytest.raises(OutOfDomainError):
            homogeneous_optimal(4, Fraction(9, 8))


class TestLowerBound:
    def test_two_node_example(self):
        p = validate_profile(["1/2", "1/2"])
        w = validate_assignment(["1/2", "1/2"], 2)
        bound, witness = lower_bound(p, w)
        assert bound == Fraction(1, 4)
        assert witness in ({1}, {2})

    def test_full_set_never_wins(self):
        rng = random.Random(38)
        for _ in range(100):
            p = random_profile(rng)
            w = random_assignment(rng, p.K)
            bound, witness = lower_bound(p, w)
            # sum(m) >= 1 makes the full set contribute <= 0
            if p.total >= 1 and any(
                    wk > 0 and mk < 1 for wk, mk in zip(w.w, p.m)):
                assert witness != frozenset(range(1, p.K + 1))
                assert bound > 0

    def test_worked_example_below_achievable(self):
        bound, _ = lower_bound(WORKED, WORKED_W)
        assert bound <= Fraction(4171, 7260)

    def test_matches_independent_enumeration(self):
        rng = random.Random(39)
        for _ in range(60):
            p = random_profile(rng, kmax=7)
            w = random_assignment(rng, p.K)
            bound, witness = lower_bound(p, w)
            assert bound == brute_lower_bound(p, w)
            m_sum = sum((p.m[k - 1] for k in witness), Fraction(0))
            w_sum = sum((w.w[k - 1] for k in witness), Fraction(0))
            assert (1 - m_sum) * w_sum == bound

    def test_cap(self):
        p = random_profile(random.Random(40), kmin=25, kmax=25)
        with pytest.raises(TooManyNodesError):
            lower_bound(p, even_assignment(25))

    @settings(max_examples=300, deadline=None)
    @example((validate_profile(["1/2", "1/2"]),
              weights_to_assignment([1, 1])))  # {1} and {2} tie
    @example((WORKED, WORKED_W))
    @given(tied_bound_inputs())
    def test_matches_fraction_mask_loop(self, case):
        profile, w = case
        bound, witness = lower_bound(profile, w)
        assert (bound, witness) == fraction_mask_lower_bound(profile, w)
        maximizers = sum(
            1 for size in range(1, profile.K + 1)
            for subset in combinations(range(profile.K), size)
            if (1 - sum(profile.m[k] for k in subset))
            * sum(w.w[k] for k in subset) == bound)
        event("tied maximum" if maximizers > 1 else "unique maximum")

    def test_k20_all_half_is_fast(self):
        p = validate_profile(["1/2"] * 20)
        start = time.perf_counter()
        bound, witness = lower_bound(p, even_assignment(20))
        assert time.perf_counter() - start < 5.0
        assert bound == Fraction(1, 40)  # every singleton ties; lowest wins
        assert witness == {1}

    @settings(max_examples=150, deadline=None)
    @given(configs())
    def test_below_achievable_for_every_assignment(self, case):
        m, w, _ = case
        profile, custom, _ = config_from_json({"m": m, "w": w})
        plan = build_plan(profile)
        for name, assignment in all_assignments(profile, plan, custom).items():
            bound, _ = lower_bound(profile, assignment)
            assert bound <= achievable_load(profile, plan, assignment).total, name

    @settings(max_examples=150, deadline=None)
    @given(configs())
    def test_input_order_does_not_matter(self, case):
        m, w, order = case
        profile, custom, _ = config_from_json({"m": m, "w": w})
        shuffled, custom2, _ = config_from_json(
            {"m": [m[i] for i in order], "w": [w[i] for i in order]})
        assert shuffled.m == profile.m
        plan, plan2 = build_plan(profile), build_plan(shuffled)
        assert plan2 == plan
        first = all_assignments(profile, plan, custom)
        second = all_assignments(shuffled, plan2, custom2)
        assert first.keys() == second.keys()
        for name in first:
            assert (achievable_load(shuffled, plan2, second[name]).total
                    == achievable_load(profile, plan, first[name]).total), name
            assert (lower_bound(shuffled, second[name])[0]
                    == lower_bound(profile, first[name])[0]), name


class TestGapToHomogeneous:
    def test_homogeneous_no_surplus_is_tight(self):
        for K in (2, 5, 9):
            p = validate_profile([Fraction(1, K)] * K)
            ratio, regime = gap_to_homogeneous(p)
            assert ratio == 1
            assert regime == "computation"

    def test_k12_mixed_profile(self):
        p = validate_profile([Fraction(1, 6)] * 6 + [Fraction(1, 3)] * 6)
        ratio, regime = gap_to_homogeneous(p)
        assert regime == "computation"
        plan = build_plan(p)
        assert ratio == load_computation_aware(p, plan) / Fraction(1, 4)
        assert Fraction(14, 10) < ratio < Fraction(16, 10)

    def test_high_mean_uses_shuffle(self):
        p = validate_profile(["3/5", "2/3", "11/15"])  # mean 2/3 >= 0.55
        ratio, regime = gap_to_homogeneous(p)
        assert regime == "shuffle"
        assert ratio < HOMOGENEOUS_GAP_BOUND


class TestLoadReport:
    def test_consistency_and_json(self):
        plan = build_plan(WORKED)
        report = build_load_report(WORKED, plan, WORKED_W)
        assert report.achievable == report.lowcl_load + report.highcl_load
        assert report.lower_bound <= report.achievable
        data = report.to_json(precision=3)
        assert data["achievable"] == {"exact": "4171/7260", "decimal": "0.575"}
        assert data["s_order"] == [2, 3, 4]

    def test_bound_ordering_random(self):
        rng = random.Random(41)
        for _ in range(100):
            p = random_profile(rng, kmax=6)
            plan = build_plan(p)
            w = random_assignment(rng, p.K)
            report = build_load_report(p, plan, w)
            assert report.lower_bound <= report.achievable
            assert report.gap_to_lower == (
                report.achievable / report.lower_bound
                if report.lower_bound else Fraction(0))
            assert "lower_bound_skipped" not in report.to_json()

    def test_past_cap_reports_without_bound(self):
        p = validate_profile(["1/2"] * 30)
        plan = build_plan(p)
        w = even_assignment(30)
        report = build_load_report(p, plan, w)
        assert report.achievable == achievable_load(p, plan, w).total
        assert report.homogeneous_optimal == Fraction(1, 30)
        assert report.lower_bound is None
        assert report.lower_bound_witness is None
        assert report.gap_to_lower is None
        data = report.to_json()
        assert data["lower_bound"] is None
        assert data["lower_bound_witness"] is None
        assert data["gap_to_lower"] is None
        assert data["lower_bound_skipped"] == (
            "subset enumeration capped at 24 nodes, profile has 30")

    def test_gap_bounds_spot_check(self):
        rng = random.Random(42)
        for _ in range(100):
            p = random_profile(rng)
            ratio, _ = gap_to_homogeneous(p)
            assert ratio < HOMOGENEOUS_GAP_BOUND
            plan = build_plan(p)
            w = computation_aware(p)
            la = achievable_load(p, plan, w).total
            lb, _ = lower_bound(p, w)
            assert la / lb <= LOWER_GAP_BOUND
