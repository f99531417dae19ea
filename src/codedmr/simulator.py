"""Bit-exact execution of the Map, Shuffle, and Reduce phases.

Intermediate values are synthetic and recomputable anywhere. Files come in
chunks of CHUNK = 1,024, and function q has one pseudorandom stream per
chunk, the SHAKE-256 output of (seed, q, chunk): with chunk, slot =
divmod(n - 1, CHUNK), the T-bit IV of function q on file n is bits [slot·T,
(slot + 1)·T) of that stream, so it does not depend on Q. A node's
functions and a sub-batch's files are contiguous ranges, so a message
component's block is function-major (for each q, the IVs of its files in
order): one bit slice per (function, chunk) pair. Multicast payloads XOR
per-recipient blocks after zero-padding the shorter blocks at the tail,
exactly as the load accounting assumes. Shuffle and Reduce each squeeze a
stream at most once: they take the messages in order of the chunk of their
lowest live file, squeeze each stream up to file N the first time a block
reads it and drop the streams of lower chunks. Both XOR every message's
blocks into its truth, and the Shuffle payload is that truth. Reduce
squeezes its own streams, so ground truth never comes from the payload; it
checks each message's shape, then decodes with one residual, the payload
XOR the truth: a recipient recovers its block exactly when the residual's
leading bits, as many as its block has, are zero. A node's Map store is the
set of file ranges it holds, and delivery is tracked as file ranges per
recipient, which with the node's own files must cover 1..N.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
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
# files per XOF stream, fixed by the IV format
CHUNK = 1024


def _stream(seed: int, q: int, chunk: int, bits: int) -> bytes:
    """The first ``bits`` bits, in whole bytes, of function q's stream on a
    chunk of files: shake_256(seed8 || q8 || chunk8), seed taken mod 2^64."""
    key = (seed & 0xFFFFFFFFFFFFFFFF) << 128 | q << 64 | chunk
    return hashlib.shake_256(key.to_bytes(24, "big")).digest((bits + 7) // 8)


def _bits(data: bytes, start: int, width: int) -> int:
    """Bits [start, start + width) of data, MSB-first, as an int."""
    lo, hi = start >> 3, (start + width + 7) >> 3
    return (int.from_bytes(data[lo:hi], "big") >> (8 * hi - start - width)
            & ((1 << width) - 1))


def iv_value(seed: int, q: int, n: int, T: int) -> int:
    """The T-bit intermediate value of function q on file n, as an int."""
    chunk, slot = divmod(n - 1, CHUNK)
    return _bits(_stream(seed, q, chunk, (slot + 1) * T), slot * T, T)


def run_map(instance: MaterializedInstance) -> dict[int, set[range]]:
    """Each node maps its allocated files, yielding Q IVs per file.

    IVs are not stored: they are the deterministic function ``iv_value`` of
    (seed, q, n, T), so a node's Map output is just the set of file ranges
    it holds: its own batch plus each shared sub-batch.
    """
    return {k: set(ranges) for k, ranges in instance.files_of.items()}


@dataclass(frozen=True)
class MessageComponent:
    """One recipient's share of a message, function-major: for each q, the
    IVs of its files in order."""

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


def _block(component: MessageComponent, T: int, stream) -> bytearray:
    """The component's block, one ``_bits`` slice per (function, chunk) pair
    cut from ``stream(q, chunk, bits)``, at least that stream's first bits.
    Each slice joins the carry of under 8 bits the last one left, whole
    bytes go into the preallocated block and the last carry is padded."""
    lo, hi = component.files.start - 1, component.files.stop - 1
    block = bytearray((len(component.functions) * (hi - lo) * T + 7) // 8)
    at = carry = spare = 0  # bytes written; the carry and its bit count
    for q in component.functions:
        offset = lo  # of the next file, counted from 0
        while offset < hi:
            chunk, slot = divmod(offset, CHUNK)
            start, width = slot * T, min(hi - offset, CHUNK - slot) * T
            acc = carry << width | _bits(stream(q, chunk, start + width),
                                         start, width)
            full, spare = divmod(spare + width, 8)
            block[at:at + full] = (acc >> spare).to_bytes(full, "big")
            at += full
            carry = acc & ((1 << spare) - 1)
            offset = (chunk + 1) * CHUNK
    if spare:
        block[at] = carry << 8 - spare
    return block


def _component_block(component: MessageComponent, seed: int, T: int) -> bytes:
    """The component's block, each stream squeezed up to its last file."""
    return bytes(_block(component, T, lambda *key: _stream(seed, *key)))


def _message_truths(instance: MaterializedInstance,
                    messages: Sequence[ShuffleMessage]):
    """Yield (index, truth) for every message, in order of the chunk of its
    lowest live file: ``truth`` is the int XOR of its live components' true
    blocks, each zero-extended at the tail to (bits + 7) // 8 bytes, where
    bits is the longest live component's bit length (0 with none live).

    A (function, chunk) stream is squeezed up to file N the first time a
    block reads it, and again only for a block that reads past it, which
    no file of the instance does. Once the lowest live file's chunk rises,
    no later block reads the chunks below it, so their streams are dropped:
    each stream is squeezed at most once per call.
    """
    N, T, seed = instance.N, instance.T, instance.seed
    streams: dict[tuple[int, int], bytes] = {}

    def stream(q: int, chunk: int, bits: int) -> bytes:
        data = streams.get((q, chunk), b"")
        if 8 * len(data) < bits:
            data = streams[q, chunk] = _stream(
                seed, q, chunk, max(bits, min(CHUNK, N - chunk * CHUNK) * T))
        return data

    lows = [(min((c.files.start for c in _live(msg.components)), default=1)
             - 1) // CHUNK for msg in messages]
    floor = 0
    for index in sorted(range(len(messages)), key=lows.__getitem__):
        if lows[index] > floor:
            floor = lows[index]
            for key in [key for key in streams if key[1] < floor]:
                del streams[key]
        live = _live(messages[index].components)
        nbytes = (max((c.bit_length for c in live), default=0) + 7) // 8
        truth = 0
        for c in live:  # the block is freed before the XOR
            pad = 8 * (nbytes - (c.bit_length + 7) // 8)
            truth ^= int.from_bytes(_block(c, T, stream), "big") << pad
        yield index, truth


def _live(components: Iterable[MessageComponent]) -> tuple[MessageComponent, ...]:
    """The components that carry bits."""
    return tuple(c for c in components if c.bit_length)


def build_shuffle(instance: MaterializedInstance, plan: AllocationPlan) -> list[ShuffleMessage]:
    """Construct every Shuffle-phase message.

    Capacity-exhausted nodes (no surplus) get plain unicasts of their needed
    IVs from each batch owner. Surplus nodes are served by coded multicasts:
    for each subset of surplus nodes and each outside sender, the sender XORs
    the zero-padded per-recipient blocks of its own batch's sub-batches.
    Messages are listed in that order; their payloads are filled in from
    ``_message_truths`` afterwards.
    """
    K = instance.K
    T = instance.T
    batch_of = instance.batch_of

    def component(i: int, files: range) -> MessageComponent:
        functions = instance.functions_of[i]
        return MessageComponent(recipient=i, functions=functions, files=files,
                                bit_length=len(functions) * len(files) * T)

    def message(sender: int, recipients: tuple[int, ...], kind: str,
                components: tuple[MessageComponent, ...]) -> ShuffleMessage:
        return ShuffleMessage(
            sender=sender, recipients=recipients, kind=kind, payload=b"",
            bit_length=max(c.bit_length for c in components),
            components=components)

    # unicasts to LowCL nodes, then coded multicasts to HighCL subsets; the
    # payloads are filled in afterwards
    messages = [message(k, (i,), UNICAST, (component(i, batch_of[k]),))
                for i in range(1, plan.r + 1) for k in range(1, K + 1) if k != i]
    for psi in _nonempty_subsets(range(plan.r + 1, K + 1)):
        messages += [
            message(k, psi, CODED, tuple(
                component(i, instance.subbatch_files[
                    (k, tuple(j for j in psi if j != i))])
                for i in psi))
            for k in range(1, K + 1) if k not in psi]
    messages = [msg for msg in messages if msg.bit_length]

    for index, truth in _message_truths(instance, messages):
        messages[index] = replace(messages[index], payload=truth.to_bytes(
            (messages[index].bit_length + 7) // 8, "big"))
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


def _first_wrong(component: MessageComponent, diff: int,
                 T: int) -> tuple[int, int] | None:
    """The first (q, n) of the component whose T-bit slot of diff, the
    component.bit_length-bit XOR of recovered and true IVs, is nonzero."""
    if not diff:
        return None
    function, file = divmod((component.bit_length - diff.bit_length()) // T,
                            len(component.files))
    return component.functions.start + function, component.files.start + file


def _misfit(component: MessageComponent, K: int, N: int, Q: int,
            T: int) -> str | None:
    """Why the component lies outside an instance of K nodes, N files, Q
    functions and T-bit IVs, or None if it fits."""
    files, functions = component.files, component.functions
    if not 1 <= component.recipient <= K:
        return f"recipient {component.recipient} outside 1..{K}"
    if not (1 <= files.start and files.stop <= N + 1):
        return f"files {files.start}..{files.stop - 1} outside 1..{N}"
    if not (1 <= functions.start and functions.stop <= Q + 1):
        return f"functions {functions.start}..{functions.stop - 1} outside 1..{Q}"
    shape = len(functions) * len(files) * T
    if component.bit_length != shape:
        return (f"component of {component.bit_length} bits, not {len(functions)}"
                f" functions x {len(files)} files x {T} bits = {shape}")
    return None


def _refused(index: int, msg: ShuffleMessage,
             components: Sequence[MessageComponent], reason: str) -> list:
    """Message ``index`` failed: one failure per component at its first
    (q, n), or, with no component, one at its sender with q = n = 0."""
    return [(index, j, (c.recipient, c.functions.start, c.files.start, reason))
            for j, c in enumerate(components)
            ] or [(index, 0, (msg.sender, 0, 0, reason))]


def run_reduce(
    instance: MaterializedInstance,
    stores: Mapping[int, set[range]],
    messages: Sequence[ShuffleMessage],
    strict: bool = True,
    log_messages: bool = False,
) -> SimulationReport:
    """Decode every message at its recipients and verify full recovery.

    Ground truth comes from the streams, squeezed here as in
    ``build_shuffle``, never from the payload. First, before any stream is
    squeezed, a component whose recipient is not within 1..K, whose files
    are not within 1..N, whose functions are not within 1..Q or whose
    bit_length is not len(functions) * len(files) * T fails by name at its
    first (q, n), and its message is not decoded; so does every component
    of a message whose sender is not within 1..K (or the message once, at
    its sender with q = n = 0, if it has none), and its bits count for no
    sender. A message must then have the shape its live components
    fix: bit_length that of the longest one
    (0 with none) and a payload of (bit_length + 7) // 8 bytes; otherwise
    every live component, or every component if none is live, fails at its
    first (q, n), and a message with no component fails once at its sender
    with q = n = 0. Each message's residual is the
    payload XOR its truth, the XOR of its components' zero-padded true
    blocks. A recipient then checks that its Map store holds the other
    components' file ranges; it decodes correctly exactly when the
    residual's leading bits, as many as its own component has, are zero,
    since cancelling the other blocks leaves it its own block XOR those
    bits. The first wrong (q, n) is the first nonzero T-bit slot there.
    Failures are reported in message order, then component order; strict
    mode raises the first. Afterwards each node's delivered file ranges,
    with the files it maps, must cover 1..N.

    Range membership is exact: in a coded message from sender s to psi,
    recipient i's component is the whole sub-batch (s, psi - {i}), and
    every other recipient maps it as one element of ``files_of``, never
    inside its own batch, since s is not in psi.
    """
    N, Q, T = instance.N, instance.Q, instance.T
    K = instance.K
    delivered: dict[int, list[range]] = {k: [] for k in range(1, K + 1)}
    # (message index, component index, failure)
    found: list[tuple[int, int, tuple[int, int, int, str]]] = []
    for index, msg in enumerate(messages):
        if not 1 <= msg.sender <= K:
            found += _refused(index, msg, msg.components,
                              f"sender {msg.sender} outside 1..{K}")
            continue
        for j, c in enumerate(msg.components):
            reason = _misfit(c, K, N, Q, T)
            if reason is not None:
                found.append((index, j, (c.recipient, c.functions.start,
                                         c.files.start, reason)))
    refused = {index for index, _, _ in found}
    kept = [index for index in range(len(messages)) if index not in refused]
    for at, truth in _message_truths(instance, [messages[i] for i in kept]):
        index = kept[at]
        msg = messages[index]
        live = _live(msg.components)
        bits = max((c.bit_length for c in live), default=0)
        nbytes = (bits + 7) // 8
        if (msg.bit_length, len(msg.payload)) != (bits, nbytes):
            reason = (f"message of {msg.bit_length} bits in {len(msg.payload)}"
                      f" bytes, not {bits} bits in {nbytes} bytes")
            found += _refused(index, msg, live or msg.components, reason)
            continue
        residual = int.from_bytes(msg.payload, "big") ^ truth
        for j, component in enumerate(live):
            i = component.recipient
            absent = next((other for o, other in enumerate(live)
                           if o != j and other.files not in stores[i]), None)
            if absent is not None:
                found.append((index, j, (
                    i, absent.functions.start, absent.files.start,
                    "side-information file absent from Map store")))
                continue
            wrong = _first_wrong(
                component, residual >> 8 * nbytes - component.bit_length, T)
            if wrong is not None:
                found.append((index, j, (
                    i, *wrong, "recovered IV differs from ground truth")))
                continue
            wanted = instance.functions_of[i]
            if (component.functions.start <= wanted.start
                    and wanted.stop <= component.functions.stop):
                delivered[i].append(component.files)
    failures = [failure for _, _, failure in sorted(found)]

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
            failures.append((i, functions.start, covered, "IV never delivered"))
    if strict and failures:
        raise DecodeFailureError(*failures[0])

    per_sender_bits = {k: 0 for k in range(1, K + 1)}
    for msg in messages:
        if msg.sender in per_sender_bits:
            per_sender_bits[msg.sender] += msg.bit_length
    total_bits = sum(per_sender_bits.values())
    failed = {node for node, _, _, _ in failures}
    return SimulationReport(
        total_bits=total_bits,
        measured_load=Fraction(total_bits, Q * N * T),
        per_sender_bits=per_sender_bits,
        decode_success={k: k not in failed for k in range(1, K + 1)},
        message_count=len(messages),
        failures=failures,
        message_log=[{"sender": msg.sender, "recipients": list(msg.recipients),
                      "kind": msg.kind, "bits": msg.bit_length}
                     for msg in messages] if log_messages else None,
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
