"""Core domain types: exact rationals, computation profiles, function assignments.

Every analytic quantity in this package is an exact ``fractions.Fraction``;
decimals appear only at serialization time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

# function-assignment strategies a config or `--strategy` may name
STRATEGIES = ("even", "computation", "shuffle", "custom")
# `parse_rational` refuses text whose digits plus decimal exponent exceed this
RATIONAL_DIGITS_CAP = 1000
# the most decimal digits `format_decimal` renders: Python's default limit
# on the digits of an int-to-str conversion
MAX_PRECISION = 4300


class DomainError(ValueError):
    """An input describes an infeasible or out-of-domain configuration."""


class LoadOutOfRangeError(DomainError):
    """Some per-node computation load is outside the open interval (0, 1)."""


class InsufficientTotalLoadError(DomainError):
    """The computation loads sum to less than 1, so some file is never mapped."""


class AssignmentSumError(DomainError):
    """The function fractions do not sum to exactly 1."""


class NegativeFractionError(DomainError):
    """A function fraction is negative."""


class RequiresRedundancyError(DomainError):
    """The operation needs surplus computation (sum of loads > 1)."""


class OutOfDomainError(DomainError):
    """A scalar argument lies outside the formula's domain."""


class TooManyNodesError(DomainError):
    """Node count exceeds the exhaustive-enumeration cap."""


class IndivisibleInstanceError(DomainError):
    """N or Q is not a multiple of the minimal feasible value."""

    def __init__(self, message: str, minimal_files: int | None = None,
                 minimal_functions: int | None = None):
        super().__init__(message)
        self.minimal_files = minimal_files
        self.minimal_functions = minimal_functions


class InstanceTooLargeError(DomainError):
    """A concrete instance would be too large to materialize in memory."""


class InternalConsistencyError(Exception):
    """Measured and analytic results disagree; indicates a bug, not bad input."""


class DecodeFailureError(InternalConsistencyError):
    """A node failed to recover an intermediate value during the Reduce phase."""

    def __init__(self, node: int, q: int, n: int, reason: str):
        super().__init__(
            f"node {node} failed to decode IV (q={q}, n={n}): {reason}")
        self.node = node
        self.q = q
        self.n = n
        self.reason = reason


def parse_rational(value) -> Fraction:
    """Convert ``value`` to an exact Fraction.

    Accepts "p/q" strings, terminating-decimal strings ("0.25"), ints, and
    Fractions. Floats are converted through their shortest repr so that a
    JSON literal like 0.9 means exactly 9/10. A string is sized from its text
    before the number is built: its digits plus its decimal exponent may not
    exceed RATIONAL_DIGITS_CAP.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ValueError(f"cannot interpret {value!r} as a rational")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(str(value))
    if isinstance(value, str):
        digits = sum(c.isdecimal() for c in value)
        exponent = value.lower().partition("e")[2].lstrip("+-").replace("_", "")
        if digits <= RATIONAL_DIGITS_CAP and exponent.isdecimal():
            digits += int(exponent)  # at most RATIONAL_DIGITS_CAP digits long
        if digits > RATIONAL_DIGITS_CAP:
            raise ValueError(
                f"rational {value[:20]!r}{'...' if len(value) > 20 else ''} has "
                f"more than RATIONAL_DIGITS_CAP={RATIONAL_DIGITS_CAP} digits, "
                "counting its decimal exponent")
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"cannot parse rational from {value!r}") from exc
    raise ValueError(f"cannot interpret {value!r} as a rational")


def format_rational(value: Fraction) -> str:
    """Lowest-terms "p/q" form; plain "p" when the denominator is 1."""
    return str(Fraction(value))


def format_decimal(value: Fraction, precision: int = 6) -> str:
    """Fixed-point decimal rendering using round-half-even; Python renders
    a precision up to MAX_PRECISION."""
    rounded = round(Fraction(value), precision)
    scaled = rounded * 10 ** precision
    digits = abs(int(scaled))
    sign = "-" if rounded < 0 else ""
    if precision == 0:
        return f"{sign}{digits}"
    whole, frac = divmod(digits, 10 ** precision)
    return f"{sign}{whole}.{frac:0{precision}d}"


def format_both(value: Fraction | None, precision: int = 6) -> dict | None:
    """{"exact", "decimal"} renderings of a value; None passes through."""
    if value is None:
        return None
    return {"exact": format_rational(value),
            "decimal": format_decimal(value, precision)}


@dataclass(frozen=True)
class ComputationProfile:
    """Per-node map loads, stored sorted non-decreasing.

    ``node_labels[i]`` is the 1-based position of sorted node ``i+1`` in the
    user-supplied order, so results can be reported against original labels.
    """

    K: int
    m: tuple[Fraction, ...]
    node_labels: tuple[int, ...]

    @property
    def total(self) -> Fraction:
        return sum(self.m, Fraction(0))

    @property
    def mean(self) -> Fraction:
        return self.total / self.K

    def to_json(self) -> dict:
        return {
            "K": self.K,
            "m": [format_rational(v) for v in self.m],
            "node_labels": list(self.node_labels),
        }


@dataclass(frozen=True)
class FunctionAssignment:
    """Per-node fractions of the output functions; non-negative, summing to 1."""

    w: tuple[Fraction, ...]

    @property
    def K(self) -> int:
        return len(self.w)

    def to_json(self) -> list[str]:
        return [format_rational(v) for v in self.w]


def validate_profile(m_raw: Sequence) -> ComputationProfile:
    """Validate raw loads and return the sorted profile with its permutation.

    Raises LoadOutOfRangeError unless 0 < m_k < 1 for every node, and
    InsufficientTotalLoadError unless the loads sum to at least 1.
    """
    if len(m_raw) == 0:
        raise LoadOutOfRangeError("profile needs at least one node")
    values = [parse_rational(v) for v in m_raw]
    for idx, v in enumerate(values, start=1):
        if not (0 < v < 1):
            raise LoadOutOfRangeError(
                f"computation load m_{idx}={format_rational(v)} outside (0, 1)")
    total = sum(values, Fraction(0))
    if total < 1:
        raise InsufficientTotalLoadError(
            f"computation loads sum to {format_rational(total)} < 1; "
            "some input file could never be mapped")
    order = sorted(range(len(values)), key=lambda i: values[i])
    return ComputationProfile(
        K=len(values),
        m=tuple(values[i] for i in order),
        node_labels=tuple(i + 1 for i in order),
    )


def validate_assignment(w_raw: Sequence, K: int) -> FunctionAssignment:
    """Validate raw function fractions for a K-node system.

    Zero fractions are allowed; the sum must equal 1 exactly.
    """
    if len(w_raw) != K:
        raise AssignmentSumError(
            f"assignment has {len(w_raw)} entries, expected K={K}")
    values = [parse_rational(v) for v in w_raw]
    for idx, v in enumerate(values, start=1):
        if v < 0:
            raise NegativeFractionError(
                f"function fraction w_{idx}={format_rational(v)} is negative")
    total = sum(values, Fraction(0))
    if total != 1:
        raise AssignmentSumError(
            f"function fractions sum to {format_rational(total)}, expected 1")
    return FunctionAssignment(w=tuple(values))


def reorder_like_profile(values: Sequence, profile: ComputationProfile) -> list:
    """Reindex user-ordered per-node values into the profile's sorted order."""
    if len(values) != profile.K:
        raise AssignmentSumError(
            f"expected {profile.K} per-node values, got {len(values)}")
    return [values[label - 1] for label in profile.node_labels]


def config_from_json(data: dict) -> tuple[ComputationProfile, FunctionAssignment | None, str | None]:
    """Parse the config schema {"K", "m", "w" | null, "strategy" | null}.

    A custom "w" is given in the same node order as "m" and is reindexed to
    the sorted profile order here.
    """
    if not isinstance(data, dict):
        raise ValueError("config must be a JSON object")
    if "m" not in data:
        raise ValueError('config is missing required key "m"')
    m_raw = data["m"]
    if not isinstance(m_raw, list):
        raise ValueError('config key "m" must be a list')
    profile = validate_profile(m_raw)
    K = data.get("K")
    if K is not None and (type(K) is not int or K != profile.K):
        raise ValueError(
            f'config key "K"={K!r} must be the integer len(m)={profile.K}')
    strategy = data.get("strategy")
    if strategy is not None and strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    assignment = None
    w_raw = data.get("w")
    if w_raw is not None:
        if not isinstance(w_raw, list) or len(w_raw) != profile.K:
            raise ValueError(
                f'config key "w" must list {profile.K} values, one per entry of "m"')
        w_sorted = reorder_like_profile(
            [parse_rational(v) for v in w_raw], profile)
        assignment = validate_assignment(w_sorted, profile.K)
    return profile, assignment, strategy


def load_config(path: str) -> tuple[ComputationProfile, FunctionAssignment | None, str | None]:
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_json(json.load(fh))


def fractions_from_csv(text: str) -> list[Fraction]:
    """Parse a comma-separated list of rationals such as "0.9,1,1.1"."""
    parts = [p for p in (s.strip() for s in text.split(",")) if p]
    if not parts:
        raise ValueError("empty rational list")
    return [parse_rational(p) for p in parts]
