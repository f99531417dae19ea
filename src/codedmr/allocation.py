"""Two-step file allocation: disjoint batches, surplus ratios, sub-batches.

Step one hands every node a disjoint batch, filling low-capability nodes
exactly and splitting the remainder evenly. Step two spreads each batch
across the surplus capacity of the remaining nodes, producing one sub-batch
per subset of possible extra holders.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Mapping

from .assignment import minimal_function_count
from .model import (
    ZERO,
    ComputationProfile,
    FunctionAssignment,
    IndivisibleInstanceError,
    InstanceTooLargeError,
    format_rational,
    over_common_denominator,
)

# `materialize` refuses more files than this, more IV bits N*Q*T, and
# more sub-batches
MATERIALIZE_FILE_CAP = 5_000_000
MATERIALIZE_BIT_CAP = 2 ** 32
MATERIALIZE_SUBBATCH_CAP = 2 ** 16

SubbatchKey = tuple[int, tuple[int, ...]]


@dataclass(frozen=True)
class AllocationPlan:
    """First-step batch fractions l, the LowCL count r and load xi, and the
    surplus ratios P. The sub-batch table follows from (l, P) through
    ``subbatch_fractions``.
    """

    l: tuple[Fraction, ...]
    r: int
    xi: Fraction
    P: tuple[Fraction, ...]

    @property
    def K(self) -> int:
        return len(self.l)

    def to_json(self) -> dict:
        return {
            "l": [format_rational(v) for v in self.l],
            "r": self.r,
            "xi": format_rational(self.xi),
            "P": [format_rational(v) for v in self.P],
        }


def first_step(profile: ComputationProfile) -> tuple[tuple[Fraction, ...], int, Fraction]:
    """Split all files into K disjoint batches, as evenly as capacity allows.

    Returns the batch fractions l, the count r of nodes whose capacity is
    exhausted by their own batch, and xi, the total load of those nodes.

    Over D = lcm of the denominators of m, with M_k = m_k D and A the sum
    of M over the nodes before k, sorted node k (0-based) takes its whole
    load M_k exactly while M_k (K - k) <= D - A. The profile is sorted, so
    once a node fails every later one does too, and those K - r nodes all
    get the even share a = (D - A_r) / (D (K - r)) of what is left.
    """
    K = profile.K
    D, M = over_common_denominator(profile.m)
    r = A = 0
    while r < K and M[r] * (K - r) <= D - A:
        A += M[r]
        r += 1
    share = [Fraction(D - A, D * (K - r))] * (K - r) if r < K else []
    return (*profile.m[:r], *share), r, Fraction(A, D)


def surplus_ratios(l: tuple[Fraction, ...], m: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    """Fraction of its non-batch files each node still has capacity to map:
    (m_k - l_k) / (1 - l_k), one Fraction built from integers per node."""
    P = []
    for lk, mk in zip(l, m):
        num = mk.numerator * lk.denominator - lk.numerator * mk.denominator
        P.append(Fraction(num, mk.denominator * (lk.denominator - lk.numerator))
                 if num else ZERO)
    return tuple(P)


def subbatch_fractions(
    l: tuple[Fraction, ...],
    P: tuple[Fraction, ...],
) -> dict[SubbatchKey, Fraction]:
    """All sub-batch fractions l_k^Psi, keyed by (owner, subset), in canonical
    order: owner ascending, then subset by size, then lexicographically.

    For each owner k, the batch splits across the subsets Psi of the surplus
    nodes (P_i > 0) other than k, with fraction
    l_k * prod_{i in Psi} P_i * prod_{i not in Psi, i != k} (1 - P_i).
    Every l_k > 0 and every P_i < 1, so every entry is nonzero, and a node
    with P_i = 0 joins no subset, which keeps the table small when few nodes
    have surplus capacity.

    Over the owner's denominator den(l_k) * prod_{i != k} den(P_i), an
    entry's numerator is top * prod_{i in Psi} num(P_i) // prod_{i in Psi}
    (den(P_i) - num(P_i)), where top = num(l_k) * prod_{i != k} (den(P_i) -
    num(P_i)) is the empty subset's. Each subset's numerator comes from its
    prefix's, num(Psi) = num(Psi[:-1]) * num(P_j) // (den(P_j) - num(P_j))
    for its last node j; the prefix is a subset too, so the division is
    exact. Entries with equal numerators share one Fraction, since many
    subsets repeat a value.
    """
    K = len(l)
    surplus = [i for i in range(1, K + 1) if P[i - 1] > 0]
    # numerators of P_i and of 1 - P_i over den(P_i), indexed by node
    inside = [0, *(p.numerator for p in P)]
    outside = [0, *(p.denominator - p.numerator for p in P)]
    table: dict[SubbatchKey, Fraction] = {}
    for k in range(1, K + 1):
        others = [i for i in surplus if i != k]
        den = l[k - 1].denominator * math.prod(P[i - 1].denominator for i in others)
        top = l[k - 1].numerator * math.prod(map(outside.__getitem__, others))
        # numerator by subset; a prefix always comes before its extensions
        nums: dict[tuple[int, ...], int] = {}
        values: dict[int, Fraction] = {}
        for size in range(len(others) + 1):
            for psi in combinations(others, size):
                num = nums[psi] = (nums[psi[:-1]] * inside[psi[-1]] // outside[psi[-1]]
                                   if psi else top)
                value = values.get(num)
                if value is None:
                    value = values[num] = Fraction(num, den)
                table[(k, psi)] = value
    return table


def subbatch_count(l: tuple[Fraction, ...], P: tuple[Fraction, ...]) -> int:
    """Number of entries of ``subbatch_fractions(l, P)``, in O(K).

    Owner k contributes one entry per subset of the other surplus nodes
    (P_i > 0). Every P_i < 1 because m_i < 1, so no node joins every subset.
    """
    surplus = [p > 0 for p in P]
    total = sum(surplus)
    return sum(1 << (total - surplus[k]) for k in range(len(l)))


def build_plan(profile: ComputationProfile) -> AllocationPlan:
    """Run both allocation steps for a validated profile."""
    l, r, xi = first_step(profile)
    return AllocationPlan(l=l, r=r, xi=xi, P=surplus_ratios(l, profile.m))


def minimal_file_count(plan: AllocationPlan) -> int:
    """Least N for which every sub-batch holds an integer number of files.

    This is the LCM of the lowest-terms denominators of all sub-batch
    fractions, found in O(K) without the table. For a prime p dividing
    den(P_i), P_i and 1 - P_i both have p-adic valuation -v_p(den P_i); for
    any other p, neither is negative and at most one is positive. So the
    largest denominator over owner k's subsets is den(l_k / prod_{i != k}
    den P_i).
    """
    dens = [p.denominator for p in plan.P]
    total = math.prod(dens)
    return math.lcm(*[(lk * d / total).denominator for lk, d in zip(plan.l, dens)])


def file_count_estimate(plan: AllocationPlan) -> Fraction:
    """The coarse magnitude estimate for the required N (not the exact rule).

    Derived from the smallest sub-batch: 1/(l_1 * prod_{k>r} min(P_k, 1-P_k))
    when r > 0, and K * max_k min(P_k, 1-P_k) / prod_k min(P_k, 1-P_k) when
    r = 0. Reported alongside the exact LCM, labeled as an estimate.
    """
    mins = [min(p, 1 - p) for p in plan.P]
    if plan.r > 0:
        prod = Fraction(1)
        for v in mins[plan.r:]:
            prod *= v
        return 1 / (plan.l[0] * prod)
    prod = Fraction(1)
    for v in mins:
        prod *= v
    return plan.K * max(mins) / prod


def format_factored(n: int) -> str:
    """Prime-power rendering like "2^2 * 3 * 11^11" for large exact counts.

    Trial division stops at 10^6. A cofactor left over is shown as a prime
    only when no divisor up to its square root remains untried; otherwise
    it is shown in full with an " (unfactored)" mark, since it may be
    composite.
    """
    if n <= 0:
        raise ValueError("expected a positive integer")
    if n == 1:
        return "1"
    parts = []
    rest = n
    p = 2
    while p * p <= rest and p < 10 ** 6:
        if rest % p == 0:
            exp = 0
            while rest % p == 0:
                rest //= p
                exp += 1
            parts.append(f"{p}^{exp}" if exp > 1 else f"{p}")
        p += 1 if p == 2 else 2
    if rest > 1:
        parts.append(str(rest) if p * p > rest else f"{rest} (unfactored)")
    return " * ".join(parts)


@dataclass(frozen=True)
class MaterializedInstance:
    """A concrete instance: file and function index ranges, plus the seed.

    File and function indices are 1-based. Each file belongs to exactly one
    (owner, subset) sub-batch. Sub-batches occupy consecutive index ranges in
    canonical order, so owner k's batch is the contiguous range
    ``batch_of[k]`` and identical inputs materialize identically. Node k maps
    ``files_of[k]``: its own batch plus every sub-batch whose subset
    contains k.
    """

    N: int
    Q: int
    T: int
    seed: int
    subbatch_files: Mapping[SubbatchKey, range]
    batch_of: Mapping[int, range]
    files_of: Mapping[int, tuple[range, ...]]
    functions_of: Mapping[int, range]

    @property
    def K(self) -> int:
        return len(self.functions_of)


def materialize(
    plan: AllocationPlan,
    assignment: FunctionAssignment,
    N: int,
    Q: int,
    T: int = 32,
    seed: int = 0,
) -> MaterializedInstance:
    """Assign concrete file and function index ranges for an (N, Q) instance.

    N must be a multiple of the minimal file count and Q a multiple of the
    assignment's minimal function count, so that every sub-batch and every
    function share is an exact integer. N is capped at MATERIALIZE_FILE_CAP,
    the IV data N*Q*T at MATERIALIZE_BIT_CAP bits and the sub-batch count at
    MATERIALIZE_SUBBATCH_CAP, which bounds what the simulator hashes and
    holds and how many messages it builds.
    """
    if plan.K != assignment.K:
        raise ValueError("plan and assignment disagree on node count")
    min_n = minimal_file_count(plan)
    if N <= 0 or N % min_n != 0:
        raise IndivisibleInstanceError(
            f"N={N} is not a positive multiple of the minimal file count {min_n}",
            minimal_files=min_n,
        )
    min_q = minimal_function_count(assignment)
    if Q <= 0 or Q % min_q != 0:
        raise IndivisibleInstanceError(
            f"Q={Q} is not a positive multiple of the minimal function count {min_q}",
            minimal_functions=min_q,
        )
    if N > MATERIALIZE_FILE_CAP:
        raise InstanceTooLargeError(
            f"N={N} exceeds the materialization cap {MATERIALIZE_FILE_CAP}; "
            "analytic evaluation remains available")
    if N * Q * T > MATERIALIZE_BIT_CAP:
        raise InstanceTooLargeError(
            f"N*Q*T={N * Q * T} IV bits exceed the materialization cap "
            f"{MATERIALIZE_BIT_CAP}; use fewer functions or bits per IV")
    if T <= 0:
        raise ValueError("T must be a positive bit width")
    count = subbatch_count(plan.l, plan.P)
    if count > MATERIALIZE_SUBBATCH_CAP:
        raise InstanceTooLargeError(
            f"{count} sub-batches exceed the materialization cap "
            f"{MATERIALIZE_SUBBATCH_CAP}; analytic evaluation remains available")

    table = subbatch_fractions(plan.l, plan.P)
    K = plan.K
    subbatch_files: dict[SubbatchKey, range] = {}
    batch_of: dict[int, range] = {}
    shared: dict[int, list[range]] = {k: [] for k in range(1, K + 1)}
    next_file = 1
    for (owner, psi), frac in table.items():
        count = frac * N
        assert count.denominator == 1, "divisibility guaranteed by the LCM check"
        rng = range(next_file, next_file + int(count))
        subbatch_files[(owner, psi)] = rng
        batch_of[owner] = range(batch_of.get(owner, rng).start, rng.stop)
        for i in psi:
            shared[i].append(rng)
        next_file = rng.stop
    assert next_file == N + 1, "sub-batches partition the file set"

    files_of = {}
    for k in range(1, K + 1):
        assert len(batch_of[k]) == plan.l[k - 1] * N, \
            "a batch is the union of its owner's sub-batches"
        # pop frees each list once its tuple is built, which lowers peak memory
        files_of[k] = (batch_of[k], *shared.pop(k))
        # coverage identity: node k maps m_k*N = (l_k + P_k*(1-l_k))*N files
        expected = (plan.l[k - 1] + plan.P[k - 1] * (1 - plan.l[k - 1])) * N
        assert sum(map(len, files_of[k])) == expected, \
            "sub-batch table violates node coverage"

    functions_of = {}
    next_fn = 1
    for k in range(1, K + 1):
        count = assignment.w[k - 1] * Q
        assert count.denominator == 1
        functions_of[k] = range(next_fn, next_fn + int(count))
        next_fn += int(count)
    assert next_fn == Q + 1, "function shares partition the function set"

    return MaterializedInstance(
        N=N,
        Q=Q,
        T=T,
        seed=seed,
        subbatch_files=subbatch_files,
        batch_of=batch_of,
        files_of=files_of,
        functions_of=functions_of,
    )
