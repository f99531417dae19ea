"""Exact closed-form communication loads, bounds, and gap ratios.

All results are exact rationals. The general achievable load sums the
unicast traffic to capacity-exhausted (LowCL) nodes with the coded multicast
traffic to surplus (HighCL) nodes; the per-strategy closed forms must agree
with it exactly, which the test suite checks on random profiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .allocation import AllocationPlan, build_plan
from .model import (
    ComputationProfile,
    FunctionAssignment,
    OutOfDomainError,
    RequiresRedundancyError,
    TooManyNodesError,
    format_both,
    format_rational,
)

SUBSET_ENUMERATION_CAP = 24

# Gap-bound constants: regime split at mean load 0.55, proven gap caps 115
# and 16 + 70e. The transcendental cap is compared through its binary-float
# value, which sits far from the achievable ratios in practice.
REGIME_SPLIT = Fraction(11, 20)
HOMOGENEOUS_GAP_BOUND = 115
LOWER_GAP_BOUND = Fraction(16) + 70 * Fraction(math.e)


@dataclass(frozen=True)
class AchievableLoad:
    """Total achievable load with its unicast/multicast split."""

    total: Fraction
    lowcl: Fraction
    highcl: Fraction
    s_order: tuple[int, ...]


def s_ordering(plan: AllocationPlan, w: FunctionAssignment) -> tuple[int, ...]:
    """HighCL nodes sorted by descending w_k(1-P_k)/P_k, ties by node index.

    The padded multicast block for a set is sized by its largest member under
    this figure of merit, so the load formula telescopes along this order.
    """
    nodes = range(plan.r + 1, plan.K + 1)
    ratio = {k: w.w[k - 1] * (1 - plan.P[k - 1]) / plan.P[k - 1] for k in nodes}
    return tuple(sorted(nodes, key=lambda k: (-ratio[k], k)))


def achievable_load(
    profile: ComputationProfile,
    plan: AllocationPlan,
    w: FunctionAssignment,
) -> AchievableLoad:
    """General achievable load for any profile and assignment.

    LowCL part: sum_{k<=r} w_k (1 - m_k). HighCL part: telescoping sum over
    the s-ordered surplus nodes of w_{s_k} prod_{i<=k}(1-P_{s_i}) times the
    bracket xi + (K-r-k)(1-xi)/(K-r) + ((1-xi)/(K-r)) sum_{i<k} 1/(1-P_{s_i}).
    """
    r, xi, P = plan.r, plan.xi, plan.P
    K = profile.K
    lowcl = sum(
        (w.w[k] * (1 - profile.m[k]) for k in range(r)), Fraction(0))
    highcl = Fraction(0)
    if r < K:
        order = s_ordering(plan, w)
        share = (1 - xi) / (K - r)
        prod = Fraction(1)
        inv_sum = Fraction(0)
        for k, node in enumerate(order, start=1):
            p = P[node - 1]
            prod *= 1 - p
            bracket = xi + (K - r - k) * share + share * inv_sum
            highcl += w.w[node - 1] * prod * bracket
            inv_sum += 1 / (1 - p)
    else:
        order = ()
    return AchievableLoad(total=lowcl + highcl, lowcl=lowcl, highcl=highcl,
                          s_order=order)


def load_computation_aware(profile: ComputationProfile, plan: AllocationPlan) -> Fraction:
    """Closed form for the computation-aware assignment.

    Uses the natural node order r+1..K, which already sorts w_k(1-P_k)/P_k
    descending for this assignment (the merit m(1-m)/(m-l) decreases in m).
    """
    r, xi, P = plan.r, plan.xi, plan.P
    K = profile.K
    total_m = profile.total
    load = sum(
        (profile.m[k] * (1 - profile.m[k]) / total_m for k in range(r)),
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


def load_shuffle_aware(profile: ComputationProfile, plan: AllocationPlan) -> Fraction:
    """Closed form for the shuffle-aware assignment (needs sum(m) > 1)."""
    if profile.total == 1:
        raise RequiresRedundancyError(
            "shuffle-aware load needs total computation load > 1")
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


def homogeneous_even_load(K: int, m: Fraction) -> Fraction:
    """Achievable load for K equal nodes with even assignment.

    (K-1)/K at the no-surplus point m = 1/K; otherwise the geometric-series
    closed form in rho = (1-m)/(1-1/K).
    """
    m = Fraction(m)
    if K < 2 or not (Fraction(1, K) <= m < 1):
        raise OutOfDomainError(
            f"homogeneous load needs 1/K <= m < 1, got K={K}, m={format_rational(m)}")
    if m == Fraction(1, K):
        return Fraction(K - 1, K)
    rho = (1 - m) / (1 - Fraction(1, K))
    return Fraction(1, K) * rho * (1 - rho ** (K - 1)) / (1 - rho)


def homogeneous_optimal(K: int, mbar: Fraction) -> Fraction:
    """Optimal load of the equivalent homogeneous system.

    Lower convex envelope of the points (t/K, (1-t/K)/t) for integer t; the
    point sequence is convex and decreasing, so the envelope is the linear
    interpolation between the two adjacent integer points.
    """
    mbar = Fraction(mbar)
    if K < 1 or not (Fraction(1, K) <= mbar <= 1):
        raise OutOfDomainError(
            f"equivalent homogeneous system needs 1/K <= mbar <= 1, "
            f"got K={K}, mbar={format_rational(mbar)}")
    t = K * mbar
    if t.denominator == 1:
        return (1 - mbar) / t

    def point(s: int) -> Fraction:
        return (1 - Fraction(s, K)) / s

    lo = t.numerator // t.denominator
    return point(lo) + (t - lo) * (point(lo + 1) - point(lo))


def lower_bound(
    profile: ComputationProfile,
    w: FunctionAssignment,
    cap: int = SUBSET_ENUMERATION_CAP,
) -> tuple[Fraction, frozenset[int]]:
    """Cut-set bound: max over node subsets T of (1 - sum_T m_k) * sum_T w_k.

    Exact integer walk over all 2^K - 1 nonempty subsets in Gray-code order.
    With D the lcm of the denominators of m and E that of w, every m_k and
    w_k scales to an integer M_k = m_k D, W_k = w_k E; step i flips node
    ctz(i) in or out of the subset, so two running integer sums change by
    one term each and the subset scores (D - sum M) * sum W = value * D E.
    Among maximizers the numerically lowest bit mask (bit k-1 for node k)
    is the witness; the empty set gives 0, so the bound is never negative.

    The cost is 2^K whatever the data, and K is refused beyond ``cap``: with
    w proportional to m the bound is max over T of s(1 - s), which encodes
    Partition, so no exact polynomial-time algorithm is expected.
    """
    K = profile.K
    if K > cap:
        raise TooManyNodesError(
            f"subset enumeration capped at {cap} nodes, profile has {K}")
    D = math.lcm(*(v.denominator for v in profile.m))
    E = math.lcm(*(v.denominator for v in w.w))
    M = [v.numerator * (D // v.denominator) for v in profile.m]
    W = [v.numerator * (E // v.denominator) for v in w.w]
    mask = m_sum = w_sum = 0
    best = best_mask = 0
    for i in range(1, 1 << K):
        k = (i & -i).bit_length() - 1
        mask ^= 1 << k
        if mask >> k & 1:
            m_sum += M[k]
            w_sum += W[k]
        else:
            m_sum -= M[k]
            w_sum -= W[k]
        value = (D - m_sum) * w_sum
        if value > best or (value == best and value > 0 and mask < best_mask):
            best, best_mask = value, mask
    witness = frozenset(k + 1 for k in range(K) if best_mask >> k & 1)
    return Fraction(best, D * E), witness


def gap_to_homogeneous(profile: ComputationProfile) -> tuple[Fraction, str]:
    """Ratio of the regime-appropriate achievable load to the equivalent
    homogeneous optimum: computation-aware below mean load 0.55, shuffle-aware
    at or above it.
    """
    plan = build_plan(profile)
    mbar = profile.mean
    optimal = homogeneous_optimal(profile.K, mbar)
    if mbar < REGIME_SPLIT:
        return load_computation_aware(profile, plan) / optimal, "computation"
    return load_shuffle_aware(profile, plan) / optimal, "shuffle"


@dataclass(frozen=True)
class LoadReport:
    """Achievable load, its split, bounds, and gap ratios for one instance.

    Past the subset-enumeration cap the cut-set fields are None and
    ``lower_bound_skipped`` says why; the other fields are still exact.
    """

    achievable: Fraction
    lowcl_load: Fraction
    highcl_load: Fraction
    s_order: tuple[int, ...]
    lower_bound: Fraction | None
    lower_bound_witness: frozenset[int] | None
    homogeneous_optimal: Fraction
    gap_to_lower: Fraction | None
    gap_to_homogeneous: Fraction
    lower_bound_skipped: str | None = None

    def to_json(self, precision: int = 6) -> dict:
        p = precision
        data = {
            "achievable": format_both(self.achievable, p),
            "lowcl_load": format_both(self.lowcl_load, p),
            "highcl_load": format_both(self.highcl_load, p),
            "s_order": list(self.s_order),
            "lower_bound": format_both(self.lower_bound, p),
            "lower_bound_witness": (None if self.lower_bound_witness is None
                                    else sorted(self.lower_bound_witness)),
            "homogeneous_optimal": format_both(self.homogeneous_optimal, p),
            "gap_to_lower": format_both(self.gap_to_lower, p),
            "gap_to_homogeneous": format_both(self.gap_to_homogeneous, p),
        }
        if self.lower_bound_skipped is not None:
            data["lower_bound_skipped"] = self.lower_bound_skipped
        return data


def build_load_report(
    profile: ComputationProfile,
    plan: AllocationPlan,
    w: FunctionAssignment,
) -> LoadReport:
    """Full report; a profile past the cut-set cap reports without the bound."""
    load = achievable_load(profile, plan, w)
    optimal = homogeneous_optimal(profile.K, profile.mean)
    bound = witness = gap_to_lower = skipped = None
    try:
        bound, witness = lower_bound(profile, w)
    except TooManyNodesError as exc:
        skipped = str(exc)
    else:
        gap_to_lower = load.total / bound if bound > 0 else Fraction(0)
    return LoadReport(
        achievable=load.total,
        lowcl_load=load.lowcl,
        highcl_load=load.highcl,
        s_order=load.s_order,
        lower_bound=bound,
        lower_bound_witness=witness,
        homogeneous_optimal=optimal,
        gap_to_lower=gap_to_lower,
        gap_to_homogeneous=load.total / optimal if optimal > 0 else Fraction(0),
        lower_bound_skipped=skipped,
    )
