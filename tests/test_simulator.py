import functools
import hashlib
import random
from dataclasses import replace
from fractions import Fraction
from itertools import chain, combinations_with_replacement

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from codedmr import simulator
from codedmr.allocation import build_plan, materialize, minimal_file_count
from codedmr.analytics import achievable_load
from codedmr.assignment import (
    assignment_for,
    even_assignment,
    minimal_function_count,
)
from codedmr.model import (
    DecodeFailureError,
    DomainError,
    FunctionAssignment,
    InternalConsistencyError,
    validate_assignment,
    validate_profile,
)
from codedmr.simulator import (
    CHUNK,
    CODED,
    UNICAST,
    MessageComponent,
    ShuffleMessage,
    _component_block,
    build_shuffle,
    iv_value,
    run_map,
    run_reduce,
    simulate,
)
from conftest import pack_ivs, random_assignment, random_profile, unpack_ivs

WORKED = validate_profile(["1/5", "1/3", "1/3", "1/2"])
WORKED_W = validate_assignment(["1/8", "1/4", "1/6", "11/24"], 4)
HETERO3 = validate_profile(["3/5", "2/3", "11/15"])
HETERO3_W = validate_assignment(["3/10", "1/3", "11/30"], 3)
# the computation-aware assignment, minimal N = 24 and Q = 9
THREE = validate_profile(["1/3", "1/2", "2/3"])
THREE_W = validate_assignment(["2/9", "1/3", "4/9"], 3)


def three_node_shuffle():
    """The THREE instance at T=13, seed 1, its Map stores and messages."""
    plan = build_plan(THREE)
    inst = materialize(plan, THREE_W, N=24, Q=9, T=13, seed=1)
    return inst, run_map(inst), build_shuffle(inst, plan)


def n_q_within_caps(n_min: int, q_min: int) -> bool:
    """Instance sizes small enough for a randomized full simulation."""
    return n_min <= 3000 and q_min <= 100 and n_min * q_min <= 50_000


# loads a generated profile takes: denominators up to 8, within [1/8, 7/8]
SMALL_LOADS = sorted({Fraction(a, d) for d in range(2, 9) for a in range(1, d)
                      if d <= 8 * a <= 7 * d})
# a prime above every index count `walk` is given (at most 9^5 weight vectors)
STRIDE = 100_003


@functools.cache
def small_multisets(K: int) -> list[tuple[Fraction, ...]]:
    """Every sorted choice of K loads from SMALL_LOADS."""
    return list(combinations_with_replacement(SMALL_LOADS, K))


def walk(draw, count: int, valid) -> int:
    """The first index i with valid(i) on a walk over range(count).

    The walk starts at a drawn index and steps by STRIDE, a prime above
    count, so it visits every index once: it finds a valid index whenever
    one exists, every valid index is the first one found from some start,
    and no draw is ever filtered out.
    """
    start = draw(st.integers(0, count - 1))
    return next(i for i in ((start + j * STRIDE) % count for j in range(count))
                if valid(i))


def weights_at(index: int, K: int) -> FunctionAssignment:
    """Custom weights given by the K base-9 digits of index > 0, normalized."""
    digits = [index // 9 ** j % 9 for j in range(K)]
    return FunctionAssignment(w=tuple(Fraction(a, sum(digits)) for a in digits))


def fits_caps(m) -> bool:
    """Loads m form a profile whose minimal N admits a simulation."""
    return sum(m) >= 1 and n_q_within_caps(
        minimal_file_count(build_plan(validate_profile(m))), 1)


@st.composite
def small_simulations(draw):
    """A random K 2..5 profile, assignment and IV width T in 1..600.

    Every draw is valid by construction: the sorted loads are walked to a
    profile whose minimal N fits the caps and then shuffled, the strategy is
    one whose minimal Q fits, and custom weights (0..8 each, not all zero)
    are walked to a vector whose minimal Q fits. A single nonzero weight
    gives Q = 1, so custom always has one.
    """
    K = draw(st.integers(2, 5))
    multisets = small_multisets(K)
    m = multisets[walk(draw, len(multisets), lambda i: fits_caps(multisets[i]))]
    p = validate_profile(draw(st.permutations(m)))
    plan = build_plan(p)
    n_min = minimal_file_count(plan)

    def fits(w):
        return n_q_within_caps(n_min, minimal_function_count(w))

    assignments = {}
    for strategy in ("even", "computation", "shuffle"):
        try:
            w = assignment_for(strategy, p, plan)
        except DomainError:  # shuffle-aware at total load 1
            continue
        if fits(w):
            assignments[strategy] = w
    strategy = draw(st.sampled_from([*assignments, "custom"]))
    if strategy == "custom":
        index = walk(draw, 9 ** K, lambda i: i > 0 and fits(weights_at(i, K)))
        w = assignment_for("custom", p, plan, weights_at(index, K))
    else:
        w = assignments[strategy]
    return p, plan, w, draw(st.integers(1, 600)), draw(st.integers(0, 2 ** 64 - 1))


@st.composite
def block_components(draw):
    """(component, seed, T): 1-3 functions, T in 1..40 or 48, 64, 517, and
    files that cross 0-2 chunk boundaries. Two crossings span a whole chunk,
    which the iv_value oracle squeezes slot by slot, so only T <= 64 takes
    them."""
    T = draw(st.sampled_from([*range(1, 41), 48, 64, 517]))
    start = draw(st.integers(1, 5))
    functions = range(start, start + draw(st.integers(1, 3)))
    chunk = draw(st.integers(0, 2))
    crossings = draw(st.integers(0, 2 if T <= 64 else 1))
    # the first and last file, counted from 0
    if crossings:
        first = (chunk + 1) * CHUNK - draw(st.integers(1, 12))
        last = (chunk + crossings) * CHUNK + draw(st.integers(0, 11))
    else:
        first = chunk * CHUNK + draw(st.integers(0, CHUNK - 1))
        last = min(first + draw(st.integers(0, 11)), (chunk + 1) * CHUNK - 1)
    files = range(first + 1, last + 2)
    component = MessageComponent(
        recipient=1, functions=functions, files=files,
        bit_length=len(functions) * len(files) * T)
    return component, draw(st.integers(0, 2 ** 65)), T


def reference_reduce(instance, stores, messages):
    """(failures, decode_success) of a per-message decoder.

    For each message it rebuilds every live component's block, cancels the
    other blocks out of the zero-padded payload after checking that the
    recipient's store holds their files, and compares the recovered IVs with
    its own block's. Then every node's delivered and mapped files must cover
    1..N. This is the decoder ``run_reduce`` replaced; its failures are the
    ones ``run_reduce`` must report, in the same order.
    """
    N, K, T, seed = instance.N, instance.K, instance.T, instance.seed
    failures = []
    delivered = {k: [] for k in range(1, K + 1)}
    for msg in messages:
        live = [c for c in msg.components if c.bit_length]
        truth = [_component_block(c, seed, T) for c in live]
        nbytes = (msg.bit_length + 7) // 8
        aligned = [int.from_bytes(b, "big") << 8 * (nbytes - len(b))
                   for b in (msg.payload, *truth)]
        payload, interference = aligned[0], aligned[1:]
        for j, (component, block) in enumerate(zip(live, truth)):
            i = component.recipient
            absent = [other for o, other in enumerate(live)
                      if o != j and other.files not in stores[i]]
            if absent:
                failures.append((i, absent[0].functions.start,
                                 absent[0].files.start,
                                 "side-information file absent from Map store"))
                continue
            cancelled = payload
            for o, bits in enumerate(interference):
                if o != j:
                    cancelled ^= bits
            own = (cancelled >> 8 * (nbytes - len(block))).to_bytes(
                len(block), "big")
            count = len(component.functions) * len(component.files)
            wrong = next((pair for pair, x, y in zip(
                component.pairs(), unpack_ivs(own, count, T),
                unpack_ivs(block, count, T)) if x != y), None)
            if wrong is not None:
                failures.append((i, *wrong, "recovered IV differs from ground truth"))
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
        for files in sorted(chain(stores[i], delivered[i]),
                            key=lambda r: r.start):
            if files.start > covered:
                break
            covered = max(covered, files.stop)
        if covered <= N:
            failures.append((i, functions.start, covered, "IV never delivered"))
    failed = {node for node, _, _, _ in failures}
    return failures, {k: k not in failed for k in range(1, K + 1)}


# SHA-256 of the IVs in TestIvGeneration.test_known_answer
KNOWN_ANSWER = (
    "3112f1659e19e9673652de1c2c982f293dc9c15ee30e04379a6f57057398379a")


class TestIvGeneration:
    def test_deterministic_and_bounded(self):
        for T in (1, 7, 16, 32, 700):
            v = iv_value(123, 4, 9, T)
            assert v == iv_value(123, 4, 9, T)
            assert 0 <= v < (1 << T)

    def test_inputs_matter(self):
        base = iv_value(1, 2, 3, 64)
        assert base != iv_value(2, 2, 3, 64)
        assert base != iv_value(1, 3, 3, 64)
        assert base != iv_value(1, 2, 4, 64)

    @pytest.mark.parametrize("T", [1, 3, 8, 9, 13, 32, 63, 65, 517])
    def test_pack_unpack_round_trip(self, T):
        rng = random.Random(T)
        for count in (0, 1, 8, 57):
            values = [rng.randrange(1 << T) for _ in range(count)]
            data = pack_ivs(values, T)
            assert len(data) == (count * T + 7) // 8
            if count * T % 8:
                # the tail of the last byte is zero padding
                assert data[-1] & ((1 << (8 - count * T % 8)) - 1) == 0
            assert unpack_ivs(data, count, T) == values

    @pytest.mark.parametrize("T", [1, 7, 8, 13, 32, 517, 700])
    @pytest.mark.parametrize("functions", [range(1, 4), range(3, 6)])
    def test_component_block_is_a_view_of_iv_value(self, T, functions):
        component = MessageComponent(
            recipient=1, functions=functions, files=range(5, 9),
            bit_length=len(functions) * 4 * T)
        expected = pack_ivs(
            (iv_value(17, q, n, T) for q, n in component.pairs()), T)
        assert _component_block(component, 17, T) == expected
        assert list(component.pairs())[:5] == [
            (functions[0], 5), (functions[0], 6), (functions[0], 7),
            (functions[0], 8), (functions[1], 5)]
        # cut from whole-chunk streams, squeezed past the block's last file
        assert simulator._block(component, T, lambda q, chunk, bits: (
            simulator._stream(17, q, chunk, CHUNK * T))) == expected

    @pytest.mark.parametrize("T", [1, 7, 32, 517])
    def test_iv_value_is_a_prefix_of_the_file_row(self, T):
        # an IV is a slice of its (function, chunk) stream, whatever Q is
        seed = 2 ** 64 + 3  # the seed is taken mod 2^64
        for n in (1, 11, CHUNK, CHUNK + 1, 2 * CHUNK + 5):
            chunk, slot = divmod(n - 1, CHUNK)
            for Q in (1, 5, 24):
                for q in range(1, Q + 1):
                    stream = hashlib.shake_256(
                        (3).to_bytes(8, "big") + q.to_bytes(8, "big")
                        + chunk.to_bytes(8, "big")).digest(CHUNK * T // 8)
                    bits = int.from_bytes(stream, "big")
                    assert iv_value(seed, q, n, T) == (
                        bits >> (CHUNK - 1 - slot) * T & ((1 << T) - 1))

    @pytest.mark.parametrize("T", [1, 7, 8, 13, 32, 517, 700])
    @pytest.mark.parametrize("files", [range(1020, 1030), range(1, 2050)])
    def test_block_crosses_chunk_boundaries(self, T, files):
        component = MessageComponent(
            recipient=1, functions=range(2, 4), files=files,
            bit_length=2 * len(files) * T)
        assert _component_block(component, 5, T) == pack_ivs(
            (iv_value(5, q, n, T) for q, n in component.pairs()), T)

    def test_known_answer(self):
        # pins format v2: a change to the IV layout fails here loudly
        cases = [(0, 1, 1, 32), (7, 3, CHUNK, 13), (2 ** 64 + 5, 2, CHUNK + 1, 517),
                 (123, 24, 5000, 1), (9, 1, 2 * CHUNK, 700)]
        data = b"".join(iv_value(seed, q, n, T).to_bytes((T + 7) // 8, "big")
                        for seed, q, n, T in cases)
        assert hashlib.sha256(data).hexdigest() == KNOWN_ANSWER

    def test_block_takes_one_slice_per_function_and_chunk(self, monkeypatch):
        calls = []
        real = simulator._bits

        def counted(data, start, width):
            calls.append(width)
            return real(data, start, width)

        monkeypatch.setattr(simulator, "_bits", counted)
        component = MessageComponent(
            recipient=1, functions=range(1, 12), files=range(1000, 3100),
            bit_length=11 * 2100 * 13)
        _component_block(component, 3, 13)
        # files 1000..3099 touch chunks 0..3
        assert len(calls) == 11 * 4
        assert sum(calls) == component.bit_length

    @settings(max_examples=60, deadline=None)
    @given(block_components())
    # copy and shift pieces alternate within one block: at T=4 or 12, the
    # first function's two pieces are copies that leave 4 bits carried, so
    # the second's are shifts, which leave none, so the third's are copies
    @example((MessageComponent(recipient=1, functions=range(1, 4),
                               files=range(1023, 1026), bit_length=36), 9, 4))
    @example((MessageComponent(recipient=1, functions=range(2, 5),
                               files=range(1023, 1026), bit_length=108), 9, 12))
    def test_block_copies_whole_bytes_where_the_bits_line_up(self, case):
        component, seed, T = case
        expected = pack_ivs(
            (iv_value(seed, q, n, T) for q, n in component.pairs()), T)
        assert _component_block(component, seed, T) == expected
        assert simulator._block(component, T, lambda q, chunk, bits: (
            simulator._stream(seed, q, chunk, CHUNK * T))) == expected


class TestHashing:
    @pytest.mark.parametrize("profile, w, T", [
        (WORKED, WORKED_W, 32), (HETERO3, HETERO3_W, 13)])
    def test_each_phase_hashes_each_file_at_most_once(
            self, monkeypatch, profile, w, T):
        plan = build_plan(profile)
        N = minimal_file_count(plan)
        inst = materialize(plan, w, N=N, Q=minimal_function_count(w), T=T,
                           seed=7)
        stores = run_map(inst)
        hashed: list[tuple[int, int, int]] = []
        real = simulator._stream

        def counted(seed, q, chunk, bits):
            hashed.append((q, chunk, (bits + 7) // 8))
            return real(seed, q, chunk, bits)

        monkeypatch.setattr(simulator, "_stream", counted)
        msgs = build_shuffle(inst, plan)
        shuffle_streams = hashed[:]
        hashed.clear()
        report = run_reduce(inst, stores, msgs)
        for streams in (shuffle_streams, hashed):
            keys = [(q, chunk) for q, chunk, _ in streams]
            assert 0 < len(keys) == len(set(keys))
            assert all(0 <= chunk <= (N - 1) // CHUNK for _, chunk in keys)
            for q in {q for q, _ in keys}:
                mine = [nbytes for p, _, nbytes in streams if p == q]
                assert sum(mine) <= (N * T + 7) // 8 + len(mine)
        assert all(report.decode_success.values())

    def test_last_chunk_is_squeezed_only_up_to_file_n(self, monkeypatch):
        # N = 1,032 files: a full chunk, then a last chunk of 8 files
        squeezed: dict[tuple[int, int], int] = {}
        real = simulator._stream

        def counted(seed, q, chunk, bits):
            squeezed[q, chunk] = bits
            return real(seed, q, chunk, bits)

        monkeypatch.setattr(simulator, "_stream", counted)
        inst, plan, report = simulate(THREE, THREE_W, N=1032, T=13, seed=6)
        assert (inst.N, inst.Q) == (1032, 9)
        assert all(report.decode_success.values()) and not report.failures
        assert report.measured_load == achievable_load(THREE, plan, THREE_W).total
        assert {chunk for _, chunk in squeezed} == {0, 1}
        assert {bits for (_, chunk), bits in squeezed.items() if chunk} == {8 * 13}

    def test_byte_aligned_blocks_take_no_bit_slice(self, monkeypatch):
        # at T % 8 == 0 every piece of every block is a whole-byte copy
        calls = []
        real = simulator._bits

        def counted(data, start, width):
            calls.append(width)
            return real(data, start, width)

        monkeypatch.setattr(simulator, "_bits", counted)
        simulate(WORKED, WORKED_W, T=32, seed=2)
        assert calls == []
        simulate(WORKED, WORKED_W, T=13, seed=2)
        assert calls


class TestRunMap:
    def test_holds_every_iv_of_mapped_files(self):
        p = validate_profile(["1/2", "1/2"])
        plan = build_plan(p)
        inst = materialize(plan, even_assignment(2), N=2, Q=2, T=8)
        stores = run_map(inst)
        assert stores == {1: {range(1, 2)}, 2: {range(2, 3)}}

    def test_store_sizes(self):
        plan = build_plan(WORKED)
        N = minimal_file_count(plan)
        inst = materialize(plan, WORKED_W, N=N, Q=24, T=8)
        stores = run_map(inst)
        for k in range(1, 5):
            assert len(stores[k]) == len(inst.files_of[k])
            assert stores[k] == set(inst.files_of[k])
            assert sum(map(len, stores[k])) == WORKED.m[k - 1] * N


class TestMapStoreMembership:
    @staticmethod
    def side_information(msgs):
        """(recipient, component) for every ordered pair of distinct live
        components of a message: the recipient must hold the component."""
        for msg in msgs:
            live = [c for c in msg.components if c.bit_length]
            for ci in live:
                for cj in live:
                    if cj is not ci:
                        yield ci.recipient, cj

    @staticmethod
    def answers(stores, pairs):
        """Range membership and the per-file check over the store's union."""
        held = {k: set(chain.from_iterable(store))
                for k, store in stores.items()}
        return [(component.files in stores[k],
                 held[k].issuperset(component.files))
                for k, component in pairs]

    @settings(max_examples=40, deadline=None)
    @given(small_simulations(), st.data())
    def test_range_check_equals_per_file_check(self, case, data):
        p, plan, w, T, seed = case
        inst = materialize(plan, w, N=minimal_file_count(plan),
                           Q=minimal_function_count(w), T=T, seed=seed)
        stores = run_map(inst)
        pairs = list(self.side_information(build_shuffle(inst, plan)))
        assert all(a and b for a, b in self.answers(stores, pairs))

        shared = [(k, files) for k, ranges in inst.files_of.items()
                  for files in ranges[1:]]
        if not shared:
            return
        k, withheld = data.draw(st.sampled_from(shared))
        stores[k] -= {withheld}
        for (node, component), (a, b) in zip(
                pairs, self.answers(stores, pairs)):
            assert a == b
            assert a == (node != k or component.files != withheld)


class TestBuildShuffle:
    def test_two_node_unicasts_only(self):
        p = validate_profile(["1/2", "1/2"])
        plan = build_plan(p)
        inst = materialize(plan, even_assignment(2), N=2, Q=2, T=8)
        msgs = build_shuffle(inst, plan)
        assert [m.kind for m in msgs] == [UNICAST, UNICAST]
        total = sum(m.bit_length for m in msgs)
        assert Fraction(total, 2 * 2 * 8) == Fraction(1, 2)

    def test_worked_example_message_load(self):
        plan = build_plan(WORKED)
        N = minimal_file_count(plan)
        inst = materialize(plan, WORKED_W, N=N, Q=24, T=16)
        msgs = build_shuffle(inst, plan)
        msg = next(m for m in msgs
                   if m.sender == 1 and m.recipients == (2, 3))
        assert Fraction(msg.bit_length, 24 * N * 16) == Fraction(15, 5324)

    def test_singleton_coded_is_plain_block(self):
        plan = build_plan(WORKED)
        N = minimal_file_count(plan)
        inst = materialize(plan, WORKED_W, N=N, Q=24, T=16)
        msgs = build_shuffle(inst, plan)
        singles = [m for m in msgs if m.kind == CODED and len(m.recipients) == 1]
        assert singles
        for m in singles:
            comp = m.components[0]
            assert m.bit_length == comp.bit_length
            expected = pack_ivs(
                (iv_value(inst.seed, q, n, 16) for q, n in comp.pairs()), 16)
            assert m.payload == expected

    @pytest.mark.parametrize("profile, w, T", [
        *(pytest.param(WORKED, WORKED_W, T, id=f"worked-T{T}")
          for T in (1, 13, 32)),
        *(pytest.param(THREE, THREE_W, T, id=f"three-node-T{T}")
          for T in (1, 13, 32, 517))])
    def test_every_payload_is_the_xor_of_its_blocks(self, profile, w, T):
        plan = build_plan(profile)
        inst = materialize(plan, w, N=minimal_file_count(plan),
                           Q=minimal_function_count(w), T=T, seed=3)
        msgs = build_shuffle(inst, plan)
        assert any(len(m.recipients) > 1 for m in msgs)
        for msg in msgs:
            nbytes = (msg.bit_length + 7) // 8
            expected = 0
            for c in msg.components:
                if c.bit_length:
                    block = _component_block(c, inst.seed, T)
                    expected ^= (int.from_bytes(block, "big")
                                 << 8 * (nbytes - len(block)))
            assert msg.payload == expected.to_bytes(nbytes, "big")

    def test_coded_message_counts(self):
        plan = build_plan(WORKED)
        N = minimal_file_count(plan)
        inst = materialize(plan, WORKED_W, N=N, Q=24, T=8)
        msgs = build_shuffle(inst, plan)
        high = inst.K - plan.r
        for k in range(1, 5):
            coded = [m for m in msgs if m.kind == CODED and m.sender == k]
            expected = (1 << (high - (0 if k <= plan.r else 1))) - 1
            assert len(coded) == expected

    def test_deterministic_transcript(self):
        plan = build_plan(WORKED)
        N = minimal_file_count(plan)
        a = build_shuffle(materialize(plan, WORKED_W, N=N, Q=24, T=16, seed=5), plan)
        b = build_shuffle(materialize(plan, WORKED_W, N=N, Q=24, T=16, seed=5), plan)
        assert a == b
        c = build_shuffle(materialize(plan, WORKED_W, N=N, Q=24, T=16, seed=6), plan)
        assert [m.payload for m in a] != [m.payload for m in c]


class TestRunReduce:
    def test_worked_example_exact_load(self):
        inst, plan, report = simulate(WORKED, WORKED_W, T=32, seed=1)
        assert inst.N == 39930 and inst.Q == 24
        assert all(report.decode_success.values())
        assert report.measured_load == Fraction(4171, 7260)

    def test_homogeneous_k3(self):
        p = validate_profile(["1/3"] * 3)
        _, _, report = simulate(p, even_assignment(3), T=8, seed=2)
        assert report.measured_load == Fraction(2, 3)
        assert all(report.decode_success.values())

    def test_two_node_even(self):
        p = validate_profile(["1/2", "1/2"])
        _, _, report = simulate(p, even_assignment(2), T=16, seed=3)
        assert report.measured_load == Fraction(1, 2)
        assert report.message_count == 2

    def test_measured_equals_analytic_randomized(self):
        rng = random.Random(77)
        done = 0
        while done < 200:
            p = random_profile(rng, kmax=5, denom_max=8)
            plan = build_plan(p)
            n_min = minimal_file_count(plan)
            if n_min > 3000:
                continue
            strategy = rng.choice(["even", "computation", "shuffle", "custom"])
            if strategy == "shuffle" and p.total == 1:
                strategy = "even"
            custom = random_assignment(rng, p.K) if strategy == "custom" else None
            w = assignment_for(strategy, p, plan, custom)
            if not n_q_within_caps(n_min, minimal_function_count(w)):
                continue
            inst, plan, report = simulate(p, w, T=8, seed=rng.randrange(2 ** 32))
            assert all(report.decode_success.values())
            assert report.measured_load == achievable_load(p, plan, w).total
            done += 1

    def test_per_sender_bits_sum(self):
        inst, plan, report = simulate(WORKED, WORKED_W, T=16, seed=9)
        assert sum(report.per_sender_bits.values()) == report.total_bits

    def test_withheld_subbatch_breaks_decoding(self):
        p = validate_profile(["3/5", "2/3", "11/15"])
        w = validate_assignment(["3/10", "1/3", "11/30"], 3)
        plan = build_plan(p)
        inst = materialize(plan, w, N=150, Q=30, T=16, seed=4)
        stores = run_map(inst)
        msgs = build_shuffle(inst, plan)
        coded = next(m for m in msgs
                     if m.kind == CODED and len(m.recipients) >= 2)
        victim = coded.components[0].recipient
        interfering = coded.components[1]
        stores[victim] -= {interfering.files}
        with pytest.raises(DecodeFailureError) as err:
            run_reduce(inst, stores, msgs)
        assert err.value.node == victim
        assert err.value.n == interfering.files.start
        assert err.value.q == interfering.functions.start

    def test_non_strict_mode_records_failures(self):
        p = validate_profile(["3/5", "2/3", "11/15"])
        w = validate_assignment(["3/10", "1/3", "11/30"], 3)
        plan = build_plan(p)
        inst = materialize(plan, w, N=150, Q=30, T=16, seed=4)
        stores = run_map(inst)
        msgs = build_shuffle(inst, plan)
        coded = next(m for m in msgs
                     if m.kind == CODED and len(m.recipients) >= 2)
        victim = coded.components[0].recipient
        stores[victim] -= {coded.components[1].files}
        report = run_reduce(inst, stores, msgs, strict=False)
        assert report.decode_success[victim] is False
        assert any(node == victim for node, _, _, _ in report.failures)
        others = [k for k in report.decode_success if k != victim]
        assert all(report.decode_success[k] for k in others)

    def test_flipped_payload_bit_names_that_iv(self):
        T = 13
        plan = build_plan(HETERO3)
        inst = materialize(plan, HETERO3_W, N=150, Q=30, T=T, seed=4)
        stores = run_map(inst)
        msgs = build_shuffle(inst, plan)
        index, msg = next((j, m) for j, m in enumerate(msgs)
                          if m.kind == CODED and len(m.recipients) >= 2)
        victim = max(msg.components, key=lambda c: c.bit_length)
        others_bytes = max((c.bit_length + 7) // 8
                           for c in msg.components if c is not victim)
        bit = victim.bit_length - 1
        # no other recipient's block reaches the flipped bit
        assert bit >= 8 * others_bytes
        payload = bytearray(msg.payload)
        payload[bit // 8] ^= 0x80 >> bit % 8
        msgs[index] = replace(msg, payload=bytes(payload))
        q, n = list(victim.pairs())[bit // T]

        with pytest.raises(DecodeFailureError) as err:
            run_reduce(inst, stores, msgs)
        assert "recovered IV differs from ground truth" in str(err.value)
        assert (err.value.node, err.value.q, err.value.n) == (victim.recipient, q, n)

        report = run_reduce(inst, stores, msgs, strict=False)
        assert report.failures[0] == (
            victim.recipient, q, n, "recovered IV differs from ground truth")
        assert {node for node, _, _, _ in report.failures} == {victim.recipient}
        assert [k for k, ok in report.decode_success.items() if not ok] == [
            victim.recipient]

    def test_padding_bits_are_not_checked(self):
        inst, stores, msgs = three_node_shuffle()
        index, msg = next((j, m) for j, m in enumerate(msgs)
                          if len(m.recipients) > 1 and m.bit_length % 8)

        def failures(bit):
            payload = bytearray(msg.payload)
            payload[bit // 8] ^= 0x80 >> bit % 8
            flipped = [*msgs[:index], replace(msg, payload=bytes(payload)),
                       *msgs[index + 1:]]
            return run_reduce(inst, stores, flipped, strict=False).failures

        for bit in range(msg.bit_length, 8 * len(msg.payload)):
            assert failures(bit) == []
        longest = max(msg.components, key=lambda c: c.bit_length)
        assert failures(msg.bit_length - 1)[0] == (
            longest.recipient, *list(longest.pairs())[-1],
            "recovered IV differs from ground truth")

    def test_padding_bits_of_a_one_component_message_are_not_checked(self):
        inst, stores, msgs = three_node_shuffle()
        index, msg = next((j, m) for j, m in enumerate(msgs)
                          if len(m.components) == 1 and m.bit_length % 8)
        (component,) = msg.components

        def failures(bit):
            payload = bytearray(msg.payload)
            payload[bit // 8] ^= 0x80 >> bit % 8
            flipped = [*msgs[:index], replace(msg, payload=bytes(payload)),
                       *msgs[index + 1:]]
            return run_reduce(inst, stores, flipped, strict=False).failures

        for bit in range(msg.bit_length, 8 * len(msg.payload)):
            assert failures(bit) == []
        assert failures(msg.bit_length - 1)[0] == (
            component.recipient, *list(component.pairs())[-1],
            "recovered IV differs from ground truth")

    @pytest.mark.parametrize("corrupt, reason", [
        (lambda m: replace(m, payload=m.payload[:-1]),
         "message of 156 bits in 19 bytes, not 156 bits in 20 bytes"),
        (lambda m: replace(m, payload=m.payload + b"\0"),
         "message of 156 bits in 21 bytes, not 156 bits in 20 bytes"),
        (lambda m: replace(m, bit_length=m.bit_length - 1),
         "message of 155 bits in 20 bytes, not 156 bits in 20 bytes"),
    ], ids=["truncated", "longer", "short-bit-length"])
    def test_malformed_message_fails_by_name(self, corrupt, reason):
        inst, stores, msgs = three_node_shuffle()
        component, = msgs[4].components
        assert (msgs[4].bit_length, len(msgs[4].payload)) == (156, 20)
        msgs[4] = corrupt(msgs[4])
        first = (component.recipient, *next(component.pairs()))
        report = run_reduce(inst, stores, msgs, strict=False)
        assert report.failures == [
            (*first, reason), (*first, "IV never delivered")]
        with pytest.raises(DecodeFailureError) as err:
            run_reduce(inst, stores, msgs)
        assert (err.value.node, err.value.q, err.value.n,
                err.value.reason) == (*first, reason)

    def test_malformed_coded_message_fails_every_component(self):
        inst, stores, msgs = three_node_shuffle()
        index, msg = next((j, m) for j, m in enumerate(msgs)
                          if len(m.recipients) > 1)
        msgs[index] = replace(msg, payload=msg.payload[:-1])
        report = run_reduce(inst, stores, msgs, strict=False)
        assert [(node, q, n) for node, q, n, _ in report.failures[:2]] == [
            (c.recipient, *next(c.pairs())) for c in msg.components]

    def test_message_without_live_component_fails_by_name(self):
        inst, stores, msgs = three_node_shuffle()
        functions = inst.functions_of[2]
        junk = ShuffleMessage(
            sender=1, recipients=(2,), kind=UNICAST, payload=b"junk",
            bit_length=0, components=(MessageComponent(
                recipient=2, functions=functions, files=range(5, 5),
                bit_length=0),))
        report = run_reduce(inst, stores, [*msgs, junk], strict=False)
        assert report.failures == [(
            2, functions.start, 5,
            "message of 0 bits in 4 bytes, not 0 bits in 0 bytes")]
        assert report.total_bits == 1248

    def test_message_without_component_fails_at_its_sender(self):
        inst, stores, msgs = three_node_shuffle()
        empty = ShuffleMessage(sender=3, recipients=(1,), kind=UNICAST,
                               payload=bytes(5), bit_length=40, components=())
        report = run_reduce(inst, stores, [*msgs, empty], strict=False)
        assert report.failures == [(
            3, 0, 0, "message of 40 bits in 5 bytes, not 0 bits in 0 bytes")]
        assert report.decode_success == {1: True, 2: True, 3: False}
        assert report.total_bits == 1288

    def test_strict_mode_raises_on_message_without_live_component(self):
        inst, stores, msgs = three_node_shuffle()
        # a zero-bit component that fits the instance: no files
        junk = replace(msgs[0], payload=b"junk", bit_length=0, components=(
            replace(msgs[0].components[0], files=range(9, 9), bit_length=0),))
        component, = junk.components
        with pytest.raises(DecodeFailureError) as err:
            run_reduce(inst, stores, [*msgs, junk])
        assert (err.value.node, err.value.q, err.value.n, err.value.reason) == (
            component.recipient, component.functions.start, component.files.start,
            "message of 0 bits in 4 bytes, not 0 bits in 0 bytes")

    def test_component_past_file_n_fails_by_name(self):
        inst, stores, msgs = three_node_shuffle()
        component = replace(msgs[0].components[0], files=range(30, 34))
        component = replace(component, bit_length=len(component.functions) * 4 * 13)
        bad = replace(msgs[0], components=(component,), bit_length=component.bit_length,
                      payload=bytes((component.bit_length + 7) // 8))
        report = run_reduce(inst, stores, [*msgs, bad], strict=False)
        assert report.failures == [(
            component.recipient, *next(component.pairs()),
            "files 30..33 outside 1..24")]

    @pytest.mark.parametrize("change, first, reason", [
        ({"files": range(0, 8)}, (1, 0), "files 0..7 outside 1..24"),
        ({"functions": range(9, 11)}, (9, 9), "functions 9..10 outside 1..9"),
        ({"bit_length": 195}, (1, 9),
         "component of 195 bits, not 2 functions x 8 files x 13 bits = 208"),
        ({"recipient": 4}, (1, 9), "recipient 4 outside 1..3"),
    ], ids=["files", "functions", "bit-length", "recipient"])
    def test_component_outside_the_instance_is_refused_before_any_truth(
            self, monkeypatch, change, first, reason):
        inst, stores, msgs = three_node_shuffle()
        component = msgs[0].components[0]
        assert (component.functions, component.files) == (range(1, 3), range(9, 17))
        msgs[0] = replace(msgs[0], components=(replace(component, **change),))
        failure = (msgs[0].components[0].recipient, *first, reason)
        with pytest.raises(DecodeFailureError) as err:
            run_reduce(inst, stores, msgs)
        assert (err.value.node, err.value.q, err.value.n, err.value.reason) == failure
        blocks = []
        block = simulator._block
        monkeypatch.setattr(simulator, "_block", lambda c, *rest: blocks.append(c)
                            or block(c, *rest))
        report = run_reduce(inst, stores, msgs, strict=False)
        assert report.failures == [failure, (1, 1, 9, "IV never delivered")]
        # no block of the refused message is cut, every other one is
        assert msgs[0].components[0] not in blocks
        assert len(blocks) == sum(len(m.components) for m in msgs[1:])
        # a message refused for its shape squeezes no stream either
        bad = replace(msgs[0], components=(component,), payload=b"\0")
        streams = []
        squeeze = simulator._stream
        monkeypatch.setattr(simulator, "_stream", lambda *key: streams.append(key)
                            or squeeze(*key))
        report = run_reduce(inst, stores, [bad], strict=False)
        assert report.failures[0] == (
            1, 1, 9, "message of 208 bits in 1 bytes, not 208 bits in 26 bytes")
        assert streams == []

    def test_sender_outside_the_nodes_fails_by_name(self):
        inst, stores, msgs = three_node_shuffle()
        bits = run_reduce(inst, stores, msgs).per_sender_bits
        sender, lost = msgs[0].sender, msgs[0].bit_length
        msgs[0] = replace(msgs[0], sender=0)
        failures = [(c.recipient, *next(c.pairs()), "sender 0 outside 1..3")
                    for c in msgs[0].components]
        with pytest.raises(DecodeFailureError) as err:
            run_reduce(inst, stores, msgs)
        assert (err.value.node, err.value.q, err.value.n,
                err.value.reason) == failures[0]
        report = run_reduce(inst, stores, msgs, strict=False)
        assert report.failures[:len(failures)] == failures
        assert all(reason == "IV never delivered"
                   for *_, reason in report.failures[len(failures):])
        assert report.per_sender_bits == {**bits, sender: bits[sender] - lost}
        no_components = replace(msgs[0], components=(), bit_length=0, payload=b"")
        report = run_reduce(inst, stores, [*msgs[1:], no_components], strict=False)
        assert report.failures[0] == (0, 0, 0, "sender 0 outside 1..3")

    @pytest.mark.parametrize("m, w, N, Q, lose, failure", [
        (["1/2", "1/2"], ["1/2", "1/2"], 2, 2, lambda inst, store: set(),
         (1, 1, 1, "IV never delivered")),
        (["1/5", "1/3", "1/3", "1/2"], ["1/8", "1/4", "1/6", "11/24"], 39930, 24,
         lambda inst, store: store - {inst.batch_of[4]},
         (4, 14, 29283, "IV never delivered")),
    ], ids=["two-node-empty-store", "worked-own-batch"])
    def test_files_missing_from_the_map_store_are_never_delivered(
            self, m, w, N, Q, lose, failure):
        # coverage reads the Map store, not the files the node was allocated
        plan = build_plan(validate_profile(m))
        inst = materialize(plan, validate_assignment(w, len(m)),
                           N=N, Q=Q, T=8, seed=1)
        stores = run_map(inst)
        node = failure[0]
        stores[node] = lose(inst, stores[node])
        report = run_reduce(inst, stores, build_shuffle(inst, plan), strict=False)
        assert report.failures == [failure]
        assert [k for k, ok in report.decode_success.items() if not ok] == [node]

    def test_dropped_unicast_is_never_delivered(self):
        p = validate_profile(["1/4", "1/3", "1/2"])
        plan = build_plan(p)
        inst = materialize(plan, even_assignment(3), N=84, Q=3, T=13, seed=2)
        stores = run_map(inst)
        msgs = build_shuffle(inst, plan)
        dropped = next(m for m in msgs if m.kind == UNICAST)
        msgs.remove(dropped)
        component, = dropped.components
        with pytest.raises(DecodeFailureError) as err:
            run_reduce(inst, stores, msgs)
        assert "IV never delivered" in str(err.value)
        first_q, first_n = next(component.pairs())
        assert (err.value.node, err.value.q, err.value.n) == (
            component.recipient, first_q, first_n)

    @pytest.mark.parametrize("T", [13, 16])
    @pytest.mark.parametrize("seed", range(6))
    def test_failures_match_a_per_message_decoder(self, T, seed):
        # faults at several senders: bits flipped in two senders' messages,
        # two shared sub-batches withheld from Map stores
        rng = random.Random(seed)
        p = validate_profile(["1/4", "1/3", "1/2", "3/5"])
        w = validate_assignment(["1/6", "1/3", "1/6", "1/3"], 4)
        plan = build_plan(p)
        inst = materialize(plan, w, N=minimal_file_count(plan),
                           Q=minimal_function_count(w), T=T, seed=seed)
        stores = run_map(inst)
        msgs = build_shuffle(inst, plan)
        senders = rng.sample(sorted({m.sender for m in msgs}), 2)
        for sender in senders:
            index = rng.choice([j for j, m in enumerate(msgs)
                                if m.sender == sender])
            payload = bytearray(msgs[index].payload)
            bit = rng.randrange(msgs[index].bit_length)
            payload[bit // 8] ^= 0x80 >> bit % 8
            msgs[index] = replace(msgs[index], payload=bytes(payload))
        shared = [(k, files) for k, ranges in inst.files_of.items()
                  for files in ranges[1:]]
        for k, files in rng.sample(shared, 2):
            stores[k] -= {files}

        failures, decode_success = reference_reduce(inst, stores, msgs)
        assert len(failures) >= 2
        report = run_reduce(inst, stores, msgs, strict=False)
        assert report.failures == failures
        assert report.decode_success == decode_success
        with pytest.raises(DecodeFailureError) as err:
            run_reduce(inst, stores, msgs)
        assert (err.value.node, err.value.q, err.value.n,
                err.value.reason) == failures[0]

    @settings(max_examples=40, deadline=None)
    @given(small_simulations())
    def test_measured_equals_analytic_property(self, case):
        p, plan, w, T, seed = case
        _, plan, report = simulate(p, w, T=T, seed=seed)
        assert all(report.decode_success.values())
        assert report.measured_load == achievable_load(p, plan, w).total

    def test_duplicated_message_is_an_internal_inconsistency(self, monkeypatch):
        # decoding still succeeds, but the measured load counts the copy
        real = simulator.build_shuffle
        monkeypatch.setattr(simulator, "build_shuffle",
                            lambda inst, plan: (msgs := real(inst, plan)) + msgs[:1])
        p = validate_profile(["1/2", "1/2"])
        with pytest.raises(InternalConsistencyError) as err:
            simulate(p, even_assignment(2), T=8, seed=1)
        assert str(err.value) == "measured load 3/4 != analytic 1/2"

    def test_message_log(self):
        p = validate_profile(["1/2", "1/2"])
        _, _, report = simulate(p, even_assignment(2), T=8, seed=1,
                                log_messages=True)
        assert report.message_log is not None
        assert len(report.message_log) == report.message_count
        assert all({"sender", "recipients", "kind", "bits"} <= set(rec)
                   for rec in report.message_log)
