"""The integer kernels against the Fraction loops they replaced.

Each ``fraction_*`` function below is the term-by-term Fraction evaluation
that the allocation, assignment and analytic layers used before they moved
to integer sums over common denominators; they are kept here as oracles,
and every kernel must equal its oracle exactly.
"""

from fractions import Fraction

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from codedmr import allocation, analytics, assignment
from codedmr.allocation import AllocationPlan, build_plan, first_step, surplus_ratios
from codedmr.analytics import (
    AchievableLoad,
    achievable_load,
    load_computation_aware,
    load_shuffle_aware,
    s_ordering,
)
from codedmr.assignment import computation_aware, even_assignment, shuffle_aware
from codedmr.model import FunctionAssignment, validate_assignment, validate_profile
from codedmr.presets import K3_HETERO, K12_M1, K12_M2, profile_k12_m2

# 50-digit primes (Miller-Rabin, bases 2..71)
PRIMES_50 = (10 ** 49 + 9, 3 * 10 ** 49 + 59, 7 * 10 ** 49 + 13)

WORKED = validate_profile(["1/5", "1/3", "1/3", "1/2"])
WORKED_W = validate_assignment(["1/8", "1/4", "1/6", "11/24"], 4)


def fraction_first_step(profile):
    K = profile.K
    l = []
    r = 0
    allocated = Fraction(0)
    for k in range(1, K + 1):
        a_k = (1 - allocated) / (K - k + 1)
        m_k = profile.m[k - 1]
        if m_k <= a_k:
            l.append(m_k)
            r = k
        else:
            l.append(a_k)
        allocated += l[-1]
    xi = sum(profile.m[:r], Fraction(0))
    return tuple(l), r, xi


def fraction_surplus_ratios(l, m):
    return tuple((mk - lk) / (1 - lk) for lk, mk in zip(l, m))


def fraction_build_plan(profile):
    l, r, xi = fraction_first_step(profile)
    return AllocationPlan(l=l, r=r, xi=xi, P=fraction_surplus_ratios(l, profile.m))


def fraction_s_ordering(plan, w):
    nodes = range(plan.r + 1, plan.K + 1)
    ratio = {k: w.w[k - 1] * (1 - plan.P[k - 1]) / plan.P[k - 1] for k in nodes}
    return tuple(sorted(nodes, key=lambda k: (-ratio[k], k)))


def fraction_achievable_load(profile, plan, w):
    r, xi, P = plan.r, plan.xi, plan.P
    K = profile.K
    lowcl = sum((w.w[k] * (1 - profile.m[k]) for k in range(r)), Fraction(0))
    highcl = Fraction(0)
    order = ()
    if r < K:
        order = fraction_s_ordering(plan, w)
        share = (1 - xi) / (K - r)
        prod = Fraction(1)
        inv_sum = Fraction(0)
        for k, node in enumerate(order, start=1):
            p = P[node - 1]
            prod *= 1 - p
            bracket = xi + (K - r - k) * share + share * inv_sum
            highcl += w.w[node - 1] * prod * bracket
            inv_sum += 1 / (1 - p)
    return AchievableLoad(total=lowcl + highcl, lowcl=lowcl, highcl=highcl,
                          s_order=order)


def fraction_load_computation_aware(profile, plan):
    r, xi, P = plan.r, plan.xi, plan.P
    K = profile.K
    total_m = sum(profile.m, Fraction(0))
    load = sum((profile.m[k] * (1 - profile.m[k]) / total_m for k in range(r)),
               Fraction(0))
    if r < K:
        share = (1 - xi) / (K - r)
        prod = Fraction(1)
        inv_sum = Fraction(0)
        for k in range(r + 1, K + 1):
            p = P[k - 1]
            prod *= 1 - p
            bracket = xi + (K - k) * share + share * inv_sum
            load += profile.m[k - 1] / total_m * prod * bracket
            inv_sum += 1 / (1 - p)
    return load


def fraction_load_shuffle_aware(profile, plan):
    r, xi, P = plan.r, plan.xi, plan.P
    K = profile.K
    odds_sum = Fraction(0)
    prod = Fraction(1)
    inv_sum = Fraction(0)
    for k in range(r + 1, K + 1):
        p = P[k - 1]
        odds_sum += p / (1 - p)
        prod *= 1 - p
        inv_sum += 1 / (1 - p)
    share = (1 - xi) / (K - r)
    return (1 - xi * prod - share * prod * inv_sum) / odds_sum


def fraction_computation_aware(profile):
    total = sum(profile.m, Fraction(0))
    return FunctionAssignment(w=tuple(mk / total for mk in profile.m))


def fraction_shuffle_aware(profile, plan):
    odds = [p / (1 - p) for p in plan.P[plan.r:]]
    total = sum(odds, Fraction(0))
    return FunctionAssignment(
        w=tuple([Fraction(0)] * plan.r + [o / total for o in odds]))


@st.composite
def cases(draw):
    """A valid profile of K 2..24 nodes and a custom assignment.

    Denominators mix small integers with 50-digit primes. "sum one" profiles
    have every node LowCL (r = K); "above mean" ones have every m_k > 1/K,
    so no node is (r = 0); "tied" ones draw at most three load values, which
    ties the merits of equal nodes under equal weights. A random profile
    below total 1 is mirrored (m -> 1 - m), which lifts its sum above K - 1.
    """
    K = draw(st.integers(2, 24))
    kind = draw(st.sampled_from(["sum one", "random", "above mean", "tied"]))
    den = st.one_of(st.integers(3, 40), st.sampled_from(PRIMES_50))

    def load(above_mean=False):
        d = draw(den)
        return Fraction(draw(st.integers(d // K + 1 if above_mean else 1, d - 1)), d)

    if kind == "sum one":
        parts = draw(st.lists(st.integers(1, 9), min_size=K, max_size=K))
        m = [Fraction(n, sum(parts)) for n in parts]
    elif kind == "tied":
        values = [load() for _ in range(draw(st.integers(1, 3)))]
        m = draw(st.lists(st.sampled_from(values), min_size=K, max_size=K))
    else:
        m = [load(kind == "above mean") for _ in range(K)]
    if sum(m) < 1:
        m = [1 - v for v in m]
    event(kind)
    weights = draw(st.one_of(
        st.just([1] * K),
        st.lists(st.integers(0, 5), min_size=K, max_size=K).filter(any),
        st.lists(st.sampled_from([0, 1, *PRIMES_50]), min_size=K, max_size=K)
        .filter(any)))
    w = FunctionAssignment(w=tuple(Fraction(a, sum(weights)) for a in weights))
    return validate_profile(m), w


def assert_fractions(values):
    assert all(type(v) is Fraction for v in values)


@settings(max_examples=300, deadline=None)
@example((WORKED, WORKED_W))
@example((validate_profile(K3_HETERO), even_assignment(3)))
@example((validate_profile(K12_M1), even_assignment(12)))
@example((validate_profile(K12_M2), even_assignment(12)))
@given(cases())
def test_kernels_equal_their_fraction_oracles(case):
    profile, custom = case
    K = profile.K
    l, r, xi = first_step(profile)
    assert (l, r, xi) == fraction_first_step(profile)
    assert_fractions((*l, xi))
    P = surplus_ratios(l, profile.m)
    assert P == fraction_surplus_ratios(l, profile.m)
    plan = build_plan(profile)
    assert plan == fraction_build_plan(profile)
    assert_fractions(P)
    event("r = 0" if r == 0 else "r = K" if r == K else "0 < r < K")

    assignments = [custom, even_assignment(K), computation_aware(profile)]
    assert assignments[2] == fraction_computation_aware(profile)
    assert load_computation_aware(profile, plan) == (
        fraction_load_computation_aware(profile, plan))
    if profile.total > 1:
        w = shuffle_aware(profile, plan)
        assert w == fraction_shuffle_aware(profile, plan)
        assignments.append(w)
        assert load_shuffle_aware(profile, plan) == (
            fraction_load_shuffle_aware(profile, plan))
    for w in assignments:
        assert_fractions(w.w)
        assert s_ordering(plan, w) == fraction_s_ordering(plan, w)
        load = achievable_load(profile, plan, w)
        assert load == fraction_achievable_load(profile, plan, w)
        assert_fractions((load.total, load.lowcl, load.highcl))


@pytest.fixture
def fraction_count(monkeypatch):
    """Count Fraction constructions, including those inside arithmetic."""
    count = [0]
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        count[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))

    def constructions(call, *args):
        before = count[0]
        call(*args)
        return count[0] - before

    return constructions


def test_fraction_constructions_on_k12_profile_2(fraction_count):
    profile = profile_k12_m2()
    K = profile.K
    plan = build_plan(profile)
    w = computation_aware(profile)
    assert fraction_count(achievable_load, profile, plan, w) <= 4
    assert fraction_count(allocation.build_plan, profile) <= K + 3
    assert fraction_count(analytics.load_computation_aware, profile, plan) <= 4
    assert fraction_count(analytics.load_shuffle_aware, profile, plan) <= 4
    assert fraction_count(assignment.shuffle_aware, profile_k12_m2(), plan) <= K + 1
