"""Shared generators for randomized sweeps."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from codedmr.model import DomainError, FunctionAssignment, validate_profile


def random_profile(rng: random.Random, kmin: int = 2, kmax: int = 10,
                   denom_max: int = 20):
    """A valid random profile: 0 < m_k < 1, sum >= 1, small denominators."""
    while True:
        K = rng.randint(kmin, kmax)
        m = []
        for _ in range(K):
            d = rng.randint(2, denom_max)
            m.append(Fraction(rng.randint(1, d - 1), d))
        try:
            return validate_profile(m)
        except DomainError:
            continue


def random_assignment(rng: random.Random, K: int) -> FunctionAssignment:
    """A valid random assignment; zeros allowed, exact sum 1."""
    while True:
        weights = [rng.randint(0, 8) for _ in range(K)]
        total = sum(weights)
        if total:
            return FunctionAssignment(
                w=tuple(Fraction(a, total) for a in weights))


def pack_ivs(values, T: int) -> bytes:
    """Concatenate T-bit values MSB-first; the last byte is zero-padded.

    A reference packer over bit strings, sharing no code with the simulator,
    that its blocks are checked against."""
    bits = "".join(format(v, f"0{T}b") for v in values)
    bits += "0" * (-len(bits) % 8)
    return int(bits or "0", 2).to_bytes(len(bits) // 8, "big")


def unpack_ivs(data: bytes, count: int, T: int) -> list[int]:
    """Inverse of pack_ivs for the first ``count`` values."""
    bits = "".join(format(byte, "08b") for byte in data)
    return [int(bits[i * T:(i + 1) * T], 2) for i in range(count)]


@pytest.fixture(scope="session")
def profile_pool():
    """1000 random profiles shared by the bound/gap acceptance sweeps."""
    rng = random.Random(20240817)
    return [random_profile(rng) for _ in range(1000)]
