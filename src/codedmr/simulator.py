"""Bit-exact execution of the Map, Shuffle, and Reduce phases.

Intermediate values are synthetic: a keyed hash of (function, file, seed),
so ground truth is recomputable anywhere and decoding is verifiable
bit-for-bit. Multicast payloads XOR per-recipient blocks after zero-padding
the shorter blocks at the tail, exactly as the load accounting assumes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from typing import Iterable, Mapping, Sequence

from .allocation import AllocationPlan, MaterializedInstance
from .model import DecodeFailureError

UNICAST = "unicast"
CODED = "coded"


def iv_value(seed: int, q: int, n: int, T: int) -> int:
    """The T-bit intermediate value of function q on file n, as an int."""
    nbytes = (T + 7) // 8
    key = (seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "big")
    if nbytes <= 64:
        digest = hashlib.blake2b(
            q.to_bytes(8, "big") + n.to_bytes(8, "big"),
            key=key, digest_size=nbytes).digest()
    else:
        chunks = []
        for ctr in range((nbytes + 63) // 64):
            chunks.append(hashlib.blake2b(
                q.to_bytes(8, "big") + n.to_bytes(8, "big") + ctr.to_bytes(4, "big"),
                key=key, digest_size=64).digest())
        digest = b"".join(chunks)[:nbytes]
    return int.from_bytes(digest, "big") >> (8 * nbytes - T)


def pack_ivs(values: Iterable[int], T: int) -> bytes:
    """Concatenate T-bit values MSB-first; the last byte is zero-padded."""
    if T % 8 == 0:
        width = T // 8
        return b"".join(v.to_bytes(width, "big") for v in values)
    out = bytearray()
    acc = 0
    bits = 0
    for v in values:
        acc = (acc << T) | v
        bits += T
        while bits >= 8:
            bits -= 8
            out.append(acc >> bits & 0xFF)
            acc &= (1 << bits) - 1
    if bits:
        out.append(acc << (8 - bits) & 0xFF)
    return bytes(out)


def unpack_ivs(data: bytes, count: int, T: int) -> list[int]:
    """Inverse of pack_ivs for the first ``count`` values."""
    if T % 8 == 0:
        width = T // 8
        return [int.from_bytes(data[i * width:(i + 1) * width], "big")
                for i in range(count)]
    values = []
    acc = 0
    bits = 0
    pos = 0
    mask = (1 << T) - 1
    for _ in range(count):
        while bits < T:
            acc = (acc << 8) | data[pos]
            pos += 1
            bits += 8
        bits -= T
        values.append(acc >> bits & mask)
        acc &= (1 << bits) - 1
    return values


def run_map(instance: MaterializedInstance) -> dict[int, set[int]]:
    """Each node maps its allocated files, yielding Q IVs per file.

    IVs are not stored: they are the deterministic function ``iv_value`` of
    (seed, q, n, T), so a node's Map output is just the set of files it holds.
    """
    return {k: set(chain.from_iterable(ranges))
            for k, ranges in instance.files_of.items()}


@dataclass(frozen=True)
class MessageComponent:
    """One recipient's share of a message, in canonical (q, n) order."""

    recipient: int
    functions: range
    files: range
    bit_length: int

    def pairs(self):
        for q in self.functions:
            for n in self.files:
                yield q, n


@dataclass(frozen=True)
class ShuffleMessage:
    sender: int
    recipients: tuple[int, ...]
    kind: str
    payload: bytes
    bit_length: int
    components: tuple[MessageComponent, ...]


def _component_block(component: MessageComponent, seed: int, T: int) -> bytes:
    return pack_ivs(
        (iv_value(seed, q, n, T) for q, n in component.pairs()), T)


def _xor_aligned(blocks: Sequence[bytes], nbytes: int) -> bytes:
    """XOR byte strings aligned at the head, zero-extended to nbytes."""
    acc = 0
    for block in blocks:
        acc ^= int.from_bytes(block, "big") << (8 * (nbytes - len(block)))
    return acc.to_bytes(nbytes, "big")


def build_shuffle(instance: MaterializedInstance, plan: AllocationPlan) -> list[ShuffleMessage]:
    """Construct every Shuffle-phase message.

    Capacity-exhausted nodes (no surplus) get plain unicasts of their needed
    IVs from each batch owner. Surplus nodes are served by coded multicasts:
    for each subset of surplus nodes and each outside sender, the sender XORs
    the zero-padded per-recipient blocks of its own batch's sub-batches.
    """
    K = instance.K
    T = instance.T
    seed = instance.seed
    r = plan.r
    messages: list[ShuffleMessage] = []
    batch_of = instance.batch_of

    # unicasts to LowCL nodes
    for i in range(1, r + 1):
        functions = instance.functions_of[i]
        if len(functions) == 0:
            continue
        for k in range(1, K + 1):
            if k == i or len(batch_of[k]) == 0:
                continue
            component = MessageComponent(
                recipient=i, functions=functions, files=batch_of[k],
                bit_length=len(functions) * len(batch_of[k]) * T)
            payload = _component_block(component, seed, T)
            messages.append(ShuffleMessage(
                sender=k, recipients=(i,), kind=UNICAST, payload=payload,
                bit_length=component.bit_length, components=(component,)))

    # coded multicasts to HighCL subsets
    high = list(range(r + 1, K + 1))
    for psi in _nonempty_subsets(high):
        psi_set = set(psi)
        for k in range(1, K + 1):
            if k in psi_set:
                continue
            components = []
            for i in psi:
                others = tuple(j for j in psi if j != i)
                files = instance.subbatch_files.get((k, others), range(0))
                functions = instance.functions_of[i]
                components.append(MessageComponent(
                    recipient=i, functions=functions, files=files,
                    bit_length=len(functions) * len(files) * T))
            max_bits = max(c.bit_length for c in components)
            if max_bits == 0:
                continue
            nbytes = (max_bits + 7) // 8
            payload = _xor_aligned(
                [_component_block(c, seed, T) for c in components if c.bit_length],
                nbytes)
            messages.append(ShuffleMessage(
                sender=k, recipients=tuple(psi), kind=CODED, payload=payload,
                bit_length=max_bits, components=tuple(components)))
    return messages


def _nonempty_subsets(items: Sequence[int]):
    for mask in range(1, 1 << len(items)):
        yield tuple(items[i] for i in range(len(items)) if mask >> i & 1)


@dataclass
class SimulationReport:
    """Realized traffic and decode outcome of one simulated run."""

    total_bits: int
    measured_load: Fraction
    per_sender_bits: dict[int, int]
    decode_success: dict[int, bool]
    message_count: int
    failures: list[tuple[int, int, int, str]] = field(default_factory=list)
    message_log: list[dict] | None = None

    def to_json(self, precision: int = 6) -> dict:
        from .model import format_decimal, format_rational

        data = {
            "total_bits": self.total_bits,
            "measured_load": {
                "exact": format_rational(self.measured_load),
                "decimal": format_decimal(self.measured_load, precision),
            },
            "per_sender_bits": {str(k): v for k, v in sorted(self.per_sender_bits.items())},
            "decode_success": {str(k): v for k, v in sorted(self.decode_success.items())},
            "message_count": self.message_count,
        }
        if self.failures:
            data["failures"] = [
                {"node": node, "q": q, "n": n, "reason": reason}
                for node, q, n, reason in self.failures
            ]
        return data


def run_reduce(
    instance: MaterializedInstance,
    plan: AllocationPlan,
    stores: Mapping[int, set[int]],
    messages: Sequence[ShuffleMessage],
    strict: bool = True,
    log_messages: bool = False,
) -> SimulationReport:
    """Decode every message at its recipients and verify full recovery.

    A coded message is decoded by rebuilding the other recipients' blocks
    from the local Map store, padding them to the message length, XORing them
    out, and truncating to the own block length. Every recovered IV is
    compared bit-for-bit against the generator; afterwards each node must
    hold exactly the IVs of its functions across all N files.
    """
    N, Q, T, seed = instance.N, instance.Q, instance.T, instance.seed
    K = instance.K
    delivered: dict[int, set[int]] = {k: set() for k in range(1, K + 1)}
    failures: list[tuple[int, int, int, str]] = []
    decode_success = {k: True for k in range(1, K + 1)}
    per_sender_bits = {k: 0 for k in range(1, K + 1)}
    total_bits = 0
    log: list[dict] | None = [] if log_messages else None

    def fail(node: int, q: int, n: int, reason: str):
        if strict:
            raise DecodeFailureError(node, q, n, reason)
        decode_success[node] = False
        failures.append((node, q, n, reason))

    def key(q: int, n: int) -> int:
        return q * (N + 1) + n

    for msg in messages:
        per_sender_bits[msg.sender] += msg.bit_length
        total_bits += msg.bit_length
        if log is not None:
            log.append({"sender": msg.sender,
                        "recipients": list(msg.recipients),
                        "kind": msg.kind, "bits": msg.bit_length})
        nbytes = (msg.bit_length + 7) // 8
        for component in msg.components:
            i = component.recipient
            count = len(component.functions) * len(component.files)
            if count == 0:
                continue
            if msg.kind == UNICAST:
                own = msg.payload
            else:
                interference = []
                ok = True
                for other in msg.components:
                    if other.recipient == i or other.bit_length == 0:
                        continue
                    store = stores[i]
                    missing = next(
                        (n for n in other.files if n not in store), None)
                    if missing is not None:
                        fail(i, other.functions.start, missing,
                             "side-information file absent from Map store")
                        ok = False
                        break
                    interference.append(_component_block(other, seed, T))
                if not ok:
                    continue
                cancelled = _xor_aligned([msg.payload] + interference, nbytes)
                own_nbytes = (component.bit_length + 7) // 8
                own = cancelled[:own_nbytes]
            values = unpack_ivs(own, count, T)
            mismatch_logged = False
            for (q, n), value in zip(component.pairs(), values):
                if value != iv_value(seed, q, n, T):
                    if not mismatch_logged:
                        fail(i, q, n, "recovered IV differs from ground truth")
                        mismatch_logged = True
                    continue
                delivered[i].add(key(q, n))

    for i in range(1, K + 1):
        needed_files = N - sum(map(len, instance.files_of[i]))
        expected = len(instance.functions_of[i]) * needed_files
        if len(delivered[i]) != expected:
            outside = sorted(set(range(1, N + 1))
                             - set(chain.from_iterable(instance.files_of[i])))
            first = next(
                ((q, n) for q in instance.functions_of[i] for n in outside
                 if key(q, n) not in delivered[i]),
                None)
            if first is not None:
                fail(i, first[0], first[1], "IV never delivered")

    return SimulationReport(
        total_bits=total_bits,
        measured_load=Fraction(total_bits, Q * N * T),
        per_sender_bits=per_sender_bits,
        decode_success=decode_success,
        message_count=len(messages),
        failures=failures,
        message_log=log,
    )


def simulate(
    profile,
    assignment,
    N: int | None = None,
    Q: int | None = None,
    T: int = 32,
    seed: int = 0,
    strict: bool = True,
    log_messages: bool = False,
):
    """Materialize (at minimal N, Q unless given), run all three phases.

    Returns (instance, plan, report).
    """
    from . import allocation as alloc
    from .assignment import minimal_function_count

    plan = alloc.build_plan(profile)
    if N is None:
        N = alloc.minimal_file_count(plan)
    if Q is None:
        Q = minimal_function_count(assignment)
    instance = alloc.materialize(plan, assignment, N=N, Q=Q, T=T, seed=seed)
    stores = run_map(instance)
    messages = build_shuffle(instance, plan)
    report = run_reduce(instance, plan, stores, messages,
                        strict=strict, log_messages=log_messages)
    return instance, plan, report
