"""Bit-exact execution of the Map, Shuffle, and Reduce phases.

Intermediate values are synthetic and recomputable anywhere: file n has one
pseudorandom row, the SHAKE-256 stream of (seed, n), and the T-bit IV of
function q on file n is bits [(q-1)T, qT) of that row. A node's functions
are a contiguous range, so a message component's block holds, file by file,
one slice of each file's row. Multicast payloads XOR per-recipient blocks
after zero-padding the shorter blocks at the tail, exactly as the load
accounting assumes. Shuffle and Reduce each hash every row they need once:
they take the messages sender by sender, hash the sender's rows at full
width into one buffer and XOR every message's blocks into its truth. The
Shuffle payload is that truth. Reduce hashes its own rows, so ground truth
never comes from the payload; it checks each message's shape, then decodes
with one residual, the payload XOR the truth: a recipient recovers its
block exactly when the residual's leading bits, as many as its block has,
are zero. A node's Map store is the set of file ranges it holds, and
delivery is tracked as file ranges per recipient, which with the node's
own files must cover 1..N.
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


def _rows(seed: int, files: range, nbytes: int) -> bytearray:
    """The first nbytes of each file's XOF row, shake_256(seed8 || n8), laid
    back to back in one buffer: file n's row starts at (n - files.start) *
    nbytes."""
    base = hashlib.shake_256((seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "big"))
    rows = bytearray(len(files) * nbytes)
    at = 0
    for n in files:
        xof = base.copy()
        xof.update(n.to_bytes(8, "big"))
        rows[at:at + nbytes] = xof.digest(nbytes)
        at += nbytes
    return rows


def _bits(data: bytes, start: int, width: int) -> int:
    """Bits [start, start + width) of data, MSB-first, as an int."""
    lo, hi = start >> 3, (start + width + 7) >> 3
    return (int.from_bytes(data[lo:hi], "big") >> (8 * hi - start - width)
            & ((1 << width) - 1))


def iv_value(seed: int, q: int, n: int, T: int) -> int:
    """The T-bit intermediate value of function q on file n, as an int."""
    return _bits(_rows(seed, range(n, n + 1), (q * T + 7) // 8), (q - 1) * T, T)


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


def _cut(rows: bytearray, stride: int, first: int,
         component: MessageComponent, T: int) -> bytes | bytearray:
    """pack_ivs of the component's IVs, cut from rows that hold ``stride``
    bytes per file from file ``first`` on (the layout ``_rows`` returns)."""
    functions, files = component.functions, component.files
    start = (functions.start - 1) * T
    width = len(functions) * T
    at = (files.start - first) * stride
    stop = at + len(files) * stride
    if start % 8 or width % 8:
        return pack_ivs((_bits(rows, bit, width) for bit in range(
            8 * at + start, 8 * stop, 8 * stride)), width)
    # byte-aligned: copy each byte column of the block with one strided slice
    lo, columns = at + start // 8, width // 8
    block = bytearray(len(files) * columns)
    for b in range(columns):
        block[b::columns] = rows[lo + b:stop:stride]
    return block


def _component_block(component: MessageComponent, seed: int, T: int) -> bytes:
    """pack_ivs of the component's IVs, one row slice per file."""
    stride = ((component.functions.stop - 1) * T + 7) // 8
    rows = _rows(seed, component.files, stride)
    return bytes(_cut(rows, stride, component.files.start, component, T))


def _message_truths(instance: MaterializedInstance,
                    messages: Sequence[ShuffleMessage]):
    """Yield (index, truth) for each message with a live component, grouped
    by sender: ``truth`` is the int XOR of its live components' true blocks,
    each zero-extended at the tail to (bits + 7) // 8 bytes, where bits is
    the longest live component's bit length.

    A sender's blocks all come from one buffer: the full-width rows of the
    files from the lowest to the highest any of its live components holds,
    hashed once. The buffer is freed before the next sender's is hashed.
    """
    T = instance.T
    stride = (instance.Q * T + 7) // 8
    by_sender: dict[int, list[int]] = {}
    for index, msg in enumerate(messages):
        if _live(msg.components):
            by_sender.setdefault(msg.sender, []).append(index)
    for indices in by_sender.values():
        files = [c.files for index in indices
                 for c in _live(messages[index].components)]
        first = min(f.start for f in files)
        rows = _rows(instance.seed, range(first, max(f.stop for f in files)),
                     stride)
        for index in indices:
            live = _live(messages[index].components)
            nbytes = (max(c.bit_length for c in live) + 7) // 8
            truth = 0
            for c in live:  # cut inline: the block is freed before the XOR
                pad = 8 * (nbytes - (c.bit_length + 7) // 8)
                truth ^= int.from_bytes(_cut(rows, stride, first, c, T), "big") << pad
            yield index, truth
        del rows


def _live(components: Iterable[MessageComponent]) -> tuple[MessageComponent, ...]:
    """The components that carry bits."""
    return tuple(c for c in components if c.bit_length)


def build_shuffle(instance: MaterializedInstance, plan: AllocationPlan) -> list[ShuffleMessage]:
    """Construct every Shuffle-phase message.

    Capacity-exhausted nodes (no surplus) get plain unicasts of their needed
    IVs from each batch owner. Surplus nodes are served by coded multicasts:
    for each subset of surplus nodes and each outside sender, the sender XORs
    the zero-padded per-recipient blocks of its own batch's sub-batches.
    Messages are listed in that order; their blocks are cut sender by sender
    from one row buffer each.
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
    file, function = divmod((component.bit_length - diff.bit_length()) // T,
                            len(component.functions))
    return component.functions.start + function, component.files.start + file


def run_reduce(
    instance: MaterializedInstance,
    stores: Mapping[int, set[range]],
    messages: Sequence[ShuffleMessage],
    strict: bool = True,
    log_messages: bool = False,
) -> SimulationReport:
    """Decode every message at its recipients and verify full recovery.

    Ground truth comes from the rows, hashed here once per sender as in
    ``build_shuffle``, never from the payload. A message must first have
    the shape its live components fix: bit_length that of the longest one
    and a payload of (bit_length + 7) // 8 bytes; otherwise every live
    component fails at its first (q, n). Each message's residual is the
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
    for index, truth in _message_truths(instance, messages):
        msg = messages[index]
        live = _live(msg.components)
        bits = max(c.bit_length for c in live)
        nbytes = (bits + 7) // 8
        if (msg.bit_length, len(msg.payload)) != (bits, nbytes):
            reason = (f"message of {msg.bit_length} bits in {len(msg.payload)}"
                      f" bytes, not {bits} bits in {nbytes} bytes")
            found += [(index, j, (c.recipient, c.functions.start,
                                  c.files.start, reason))
                      for j, c in enumerate(live)]
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
