"""Function assignment strategies: even, computation-aware, shuffle-aware."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING

from .model import (
    ZERO,
    ComputationProfile,
    FunctionAssignment,
    RequiresRedundancyError,
    over_common_denominator,
    validate_assignment,
)

if TYPE_CHECKING:
    from .allocation import AllocationPlan


def even_assignment(K: int) -> FunctionAssignment:
    """Every node reduces the same share 1/K of the output functions."""
    if K < 2:
        raise ValueError("need at least two nodes")
    return FunctionAssignment(w=(Fraction(1, K),) * K)


def computation_aware(profile: ComputationProfile) -> FunctionAssignment:
    """Share proportional to each node's computation load: w_k = m_k / sum(m),
    that is M_k / sum(M) with M_k = m_k D over the common denominator D."""
    _, M = over_common_denominator(profile.m)
    total = sum(M)
    return FunctionAssignment(w=tuple([Fraction(Mk, total) for Mk in M]))


def shuffle_aware(profile: ComputationProfile, plan: AllocationPlan) -> FunctionAssignment:
    """Assign functions only to surplus-capacity nodes, weighted so that
    w_k(1-P_k)/P_k is identical across them and zero-padding never occurs.

    Requires sum(m) > 1; with sum(m) = 1 every node is capacity-exhausted and
    there is no surplus node to carry the functions.

    With P_k = a_k/b_k and c_k = b_k - a_k, the odds P_k/(1-P_k) are a_k/c_k,
    so over C = prod c_k each weight is a_k (C/c_k) / sum_j a_j (C/c_j).
    """
    if profile.total == 1:
        raise RequiresRedundancyError(
            "shuffle-aware assignment needs total computation load > 1")
    P = plan.P[plan.r:]
    C = math.prod(p.denominator - p.numerator for p in P)
    odds = [p.numerator * (C // (p.denominator - p.numerator)) for p in P]
    total = sum(odds)
    return FunctionAssignment(
        w=(ZERO,) * plan.r + tuple([Fraction(o, total) for o in odds]))


def minimal_function_count(assignment: FunctionAssignment) -> int:
    """Least Q giving every node an integer number of functions."""
    return math.lcm(*[v.denominator for v in assignment.w if v != 0])


def assignment_for(
    strategy: str,
    profile: ComputationProfile,
    plan: AllocationPlan,
    custom: FunctionAssignment | None = None,
) -> FunctionAssignment:
    """Resolve a strategy selector to a concrete assignment."""
    if strategy == "even":
        return even_assignment(profile.K)
    if strategy == "computation":
        return computation_aware(profile)
    if strategy == "shuffle":
        return shuffle_aware(profile, plan)
    if strategy == "custom":
        if custom is None:
            raise ValueError('strategy "custom" requires an explicit w vector')
        return validate_assignment(custom.w, profile.K)
    raise ValueError(f"unknown strategy {strategy!r}")
