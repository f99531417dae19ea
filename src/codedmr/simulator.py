"""Bit-exact execution of the Map, Shuffle, and Reduce phases.

Intermediate values are synthetic and recomputable anywhere: file n has one
pseudorandom row, the SHAKE-256 stream of (seed, n), and the T-bit IV of
function q on file n is bits [(q-1)T, qT) of that row. A node's functions
are a contiguous range, so a message component's block holds, file by file,
one slice of each file's row. Multicast payloads XOR per-recipient blocks
after zero-padding the shorter blocks at the tail, exactly as the load
accounting assumes. Decoding rebuilds each component's block once per
message: it is both the interference other recipients XOR out and the
reference the recovered bytes must equal. A node's Map store is the set of
file ranges it holds, and delivery is tracked as file ranges per recipient,
which with the node's own files must cover 1..N.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from typing import Iterable, Mapping, Sequence

from .allocation import (
    AllocationPlan,
    MaterializedInstance,
    build_plan,
    materialize,
    minimal_file_count,
)
from .analytics import achievable_load
from .assignment import minimal_function_count
from .model import DecodeFailureError, InternalConsistencyError, format_both

UNICAST = "unicast"
CODED = "coded"


def _rows(seed: int, files: range, nbytes: int) -> list[bytes]:
    """The first nbytes of each file's XOF row, shake_256(seed8 || n8)."""
    base = hashlib.shake_256((seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "big"))
    rows = []
    for n in files:
        xof = base.copy()
        xof.update(n.to_bytes(8, "big"))
        rows.append(xof.digest(nbytes))
    return rows


def _bits(data: bytes, start: int, width: int) -> int:
    """Bits [start, start + width) of data, MSB-first, as an int."""
    lo, hi = start >> 3, (start + width + 7) >> 3
    return (int.from_bytes(data[lo:hi], "big") >> (8 * hi - start - width)
            & ((1 << width) - 1))


def iv_value(seed: int, q: int, n: int, T: int) -> int:
    """The T-bit intermediate value of function q on file n, as an int."""
    row, = _rows(seed, range(n, n + 1), (q * T + 7) // 8)
    return _bits(row, (q - 1) * T, T)


def pack_ivs(values: Iterable[int], T: int) -> bytes:
    """Concatenate T-bit values MSB-first; the last byte is zero-padded."""
    out = bytearray()
    acc = 0
    bits = 0
    for v in values:
        acc = (acc << T) | v
        bits += T
        rest = bits & 7
        out += (acc >> rest).to_bytes(bits >> 3, "big")
        acc &= (1 << rest) - 1
        bits = rest
    if bits:
        out.append(acc << (8 - bits))
    return bytes(out)


def unpack_ivs(data: bytes, count: int, T: int) -> list[int]:
    """Inverse of pack_ivs for the first ``count`` values."""
    return [_bits(data, i * T, T) for i in range(count)]


def run_map(instance: MaterializedInstance) -> dict[int, set[range]]:
    """Each node maps its allocated files, yielding Q IVs per file.

    IVs are not stored: they are the deterministic function ``iv_value`` of
    (seed, q, n, T), so a node's Map output is just the set of file ranges
    it holds: its own batch plus each shared sub-batch.
    """
    return {k: set(ranges) for k, ranges in instance.files_of.items()}


@dataclass(frozen=True)
class MessageComponent:
    """One recipient's share of a message, file-major: for each n, every q."""

    recipient: int
    functions: range
    files: range
    bit_length: int

    def pairs(self):
        for n in self.files:
            for q in self.functions:
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
    """pack_ivs of the component's IVs, one row slice per file."""
    functions = component.functions
    if not functions or not component.files:
        return b""
    start = (functions.start - 1) * T
    width = len(functions) * T
    rows = _rows(seed, component.files, (start + width + 7) // 8)
    if start % 8 == 0 and width % 8 == 0:
        lo = start // 8
        return b"".join(row[lo:] for row in rows)
    return pack_ivs((_bits(row, start, width) for row in rows), width)


def _aligned(block: bytes, nbytes: int) -> int:
    """block as an int, zero-extended at the tail to nbytes."""
    return int.from_bytes(block, "big") << (8 * (nbytes - len(block)))


def _xor_aligned(blocks: Sequence[bytes], nbytes: int) -> bytes:
    """XOR byte strings aligned at the head, zero-extended to nbytes."""
    acc = 0
    for block in blocks:
        acc ^= _aligned(block, nbytes)
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
                files = instance.subbatch_files[(k, others)]
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
        data = {
            "total_bits": self.total_bits,
            "measured_load": format_both(self.measured_load, precision),
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
    stores: Mapping[int, set[range]],
    messages: Sequence[ShuffleMessage],
    strict: bool = True,
    log_messages: bool = False,
) -> SimulationReport:
    """Decode every message at its recipients and verify full recovery.

    Each component's ground-truth block is built once per message. A
    recipient checks that its Map store holds the other components' file
    ranges, XORs their blocks out of the zero-padded payload, truncates to
    its own block length and compares the result with its own block byte
    for byte. Afterwards each node's delivered file ranges, with the files
    it maps, must cover 1..N.

    Range membership is exact: in a coded message from sender s to psi,
    recipient i's component is the whole sub-batch (s, psi - {i}), and
    every other recipient maps it as one element of ``files_of``, never
    inside its own batch, since s is not in psi.
    """
    N, Q, T, seed = instance.N, instance.Q, instance.T, instance.seed
    K = instance.K
    delivered: dict[int, list[range]] = {k: [] for k in range(1, K + 1)}
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

    for msg in messages:
        per_sender_bits[msg.sender] += msg.bit_length
        total_bits += msg.bit_length
        if log is not None:
            log.append({"sender": msg.sender,
                        "recipients": list(msg.recipients),
                        "kind": msg.kind, "bits": msg.bit_length})
        live = [c for c in msg.components if c.bit_length]
        truth = [_component_block(c, seed, T) for c in live]
        nbytes = (msg.bit_length + 7) // 8
        interference = [_aligned(block, nbytes) for block in truth]
        payload = _aligned(msg.payload, nbytes)
        for j, (component, block) in enumerate(zip(live, truth)):
            i = component.recipient
            store = stores[i]
            cancelled = payload
            for o, (other, other_bits) in enumerate(zip(live, interference)):
                if o == j:
                    continue
                if other.files not in store:
                    fail(i, other.functions.start, other.files.start,
                         "side-information file absent from Map store")
                    break
                cancelled ^= other_bits
            else:
                own = (cancelled >> 8 * (nbytes - len(block))).to_bytes(
                    len(block), "big")
                if own != block:
                    count = len(component.functions) * len(component.files)
                    wrong = next(
                        (pair for pair, x, y in zip(
                            component.pairs(), unpack_ivs(own, count, T),
                            unpack_ivs(block, count, T)) if x != y),
                        None)
                    if wrong is not None:
                        fail(i, *wrong, "recovered IV differs from ground truth")
                        continue
                wanted = instance.functions_of[i]
                if (component.functions.start <= wanted.start
                        and wanted.stop <= component.functions.stop):
                    delivered[i].append(component.files)

    for i in range(1, K + 1):
        functions = instance.functions_of[i]
        if not functions:
            continue
        covered = 1
        for files in sorted(chain(instance.files_of[i], delivered[i]),
                            key=lambda r: r.start):
            if files.start > covered:
                break
            covered = max(covered, files.stop)
        if covered <= N:
            fail(i, functions.start, covered, "IV never delivered")

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

    Returns (instance, plan, report). Raises InternalConsistencyError if the
    measured load differs from the analytic achievable load.
    """
    plan = build_plan(profile)
    if N is None:
        N = minimal_file_count(plan)
    if Q is None:
        Q = minimal_function_count(assignment)
    instance = materialize(plan, assignment, N=N, Q=Q, T=T, seed=seed)
    stores = run_map(instance)
    messages = build_shuffle(instance, plan)
    report = run_reduce(instance, stores, messages,
                        strict=strict, log_messages=log_messages)
    analytic = achievable_load(profile, plan, assignment).total
    if report.measured_load != analytic:
        raise InternalConsistencyError(
            f"measured load {report.measured_load} != analytic {analytic}")
    return instance, plan, report
