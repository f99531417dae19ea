"""Exact closed-form communication loads, bounds, and gap ratios.

All results are exact rationals. The general achievable load sums the
unicast traffic to capacity-exhausted (LowCL) nodes with the coded multicast
traffic to surplus (HighCL) nodes, telescoping along the s-order of the
surplus nodes; the per-strategy closed forms must agree with it exactly,
which the test suite checks on random profiles.

Every kernel works in integers: each input vector is scaled to integers
over the lcm of its denominators (m over D, w over E) and each P_i is read
as a_i/b_i, so a sum of rational terms becomes one integer numerator over
one known denominator. Only the returned values are built as Fractions,
one gcd each, instead of one per arithmetic step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .allocation import AllocationPlan, build_plan
from .model import (
    ZERO,
    ComputationProfile,
    FunctionAssignment,
    OutOfDomainError,
    RequiresRedundancyError,
    TooManyNodesError,
    format_both,
    format_rational,
    over_common_denominator,
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
    With P_k = a_k/b_k, c_k = b_k - a_k, w_k = omega_k/E and L = lcm(a_k),
    the merit times E L is the integer omega_k c_k (L / a_k).
    """
    nodes = range(plan.r + 1, plan.K + 1)
    P = plan.P[plan.r:]
    E, W = over_common_denominator(w.w[plan.r:])
    L = math.lcm(*[p.numerator for p in P])
    merit = [omega * (p.denominator - p.numerator) * (L // p.numerator)
             for omega, p in zip(W, P)]
    return tuple(sorted(nodes, key=lambda k: merit[k - plan.r - 1], reverse=True))


def achievable_load(
    profile: ComputationProfile,
    plan: AllocationPlan,
    w: FunctionAssignment,
) -> AchievableLoad:
    """General achievable load for any profile and assignment.

    LowCL part: sum_{k<=r} w_k (1 - m_k). HighCL part: telescoping sum over
    the s-ordered surplus nodes s_1..s_H, H = K - r, of w_{s_k}
    prod_{i<=k}(1-P_{s_i}) times the bracket xi + (H-k)(1-xi)/H +
    ((1-xi)/H) sum_{i<k} 1/(1-P_{s_i}).

    Both parts are integer sums over one common denominator each. With
    P_i = a_i/b_i, c_i = b_i - a_i, xi = X/D and w = omega/E, let C_k and
    B_k be the products of c and of b over s_1..s_k, and S_k = C_k
    sum_{i<k} b_{s_i}/c_{s_i}, an integer: S_1 = 0 and S_k = c_{s_k}
    (S_{k-1} + b_{s_{k-1}} C_{k-2}). Then highcl is

        sum_k omega_{s_k} (B_H/B_k) [C_k (H X + (H-k)(D-X)) + S_k (D-X)]
        / (E B_H D H),

    whose numerator is one Horner pass (acc = acc b_{s_k} + term k), and
    only the three returned values are Fractions.
    """
    r, K = plan.r, profile.K
    E, W = over_common_denominator(w.w)
    low_den, M = over_common_denominator(profile.m[:r])
    low = sum(omega * (low_den - Mk) for omega, Mk in zip(W, M))
    order = s_ordering(plan, w)
    H = K - r
    X, D = plan.xi.numerator, plan.xi.denominator
    acc, B, C, R = 0, 1, 1, 0  # R = C_{k-1} sum_{i<k} b_i/c_i, so S_k = c R
    for k, node in enumerate(order, start=1):
        p = plan.P[node - 1]
        b = p.denominator
        c = b - p.numerator
        term = W[node - 1] * c * (C * (H * X + (H - k) * (D - X)) + R * (D - X))
        acc = acc * b + term
        B *= b
        R = c * R + C * b
        C *= c
    high_den = B * D * H if H else 1
    return AchievableLoad(
        total=Fraction(low * high_den + acc * low_den, E * low_den * high_den),
        lowcl=Fraction(low, E * low_den),
        highcl=Fraction(acc, E * high_den) if H else ZERO,
        s_order=order)


def load_computation_aware(profile: ComputationProfile, plan: AllocationPlan) -> Fraction:
    """Closed form for the computation-aware assignment w_k = m_k / sum(m).

    Uses the natural node order r+1..K, which already sorts w_k(1-P_k)/P_k
    descending for this assignment (the merit m(1-m)/(m-l) decreases in m).
    Over D = lcm of the denominators of m, with M_k = m_k D, X the sum of M
    over the LowCL nodes, H = K - r and beta = D H - (D - X), every surplus
    P_k is (H M_k - (D - X)) / beta and 1 - P_k is c_k / beta with
    c_k = H (D - M_k), so the telescoping sum has one Horner step in beta
    per node, and the load is one Fraction over D sum(M) beta^H H.
    """
    r, K = plan.r, profile.K
    D, M = over_common_denominator(profile.m)
    total = sum(M)
    X = sum(M[:r])
    low = sum(Mk * (D - Mk) for Mk in M[:r])
    H = K - r
    beta = D * H - (D - X)
    acc, C, R = 0, 1, 0  # R = C_{k-1} sum_{i<k} beta/c_i
    for k in range(1, H + 1):
        Mk = M[r + k - 1]
        c = H * (D - Mk)
        acc = acc * beta + Mk * c * (C * (H * X + (H - k) * (D - X)) + R * (D - X))
        R = c * R + C * beta
        C *= c
    scale = beta ** H * H if H else 1
    return Fraction(low * scale + acc, D * total * scale)


def load_shuffle_aware(profile: ComputationProfile, plan: AllocationPlan) -> Fraction:
    """Closed form for the shuffle-aware assignment (needs sum(m) > 1):
    (1 - xi prod - ((1-xi)/H) prod sum 1/(1-P_k)) / sum P_k/(1-P_k) over
    the surplus nodes, prod = prod (1-P_k) and H = K - r.

    With D, M_k, X, beta and c_k = H (D - M_k) as in the computation-aware
    form, P_k/(1-P_k) = (H M_k - (D - X)) / c_k. For C = prod c_k,
    V = sum C/c_k and U = sum (H M_k - (D - X)) C/c_k, the load is
    C [D H beta^H - H X C - (D - X) beta V] / (D H beta^H U).
    """
    if profile.total == 1:
        raise RequiresRedundancyError(
            "shuffle-aware load needs total computation load > 1")
    r, K = plan.r, profile.K
    D, M = over_common_denominator(profile.m)
    X = sum(M[:r])
    H = K - r
    beta = D * H - (D - X)
    C, U, V = 1, 0, 0
    for Mk in M[r:]:
        c = H * (D - Mk)
        U = U * c + (H * Mk - (D - X)) * C
        V = V * c + C
        C *= c
    scale = beta ** H
    return Fraction(C * (D * H * scale - H * X * C - (D - X) * beta * V),
                    D * H * scale * U)


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
    D, M = over_common_denominator(profile.m)
    E, W = over_common_denominator(w.w)
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
