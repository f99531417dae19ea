import random
from fractions import Fraction

import pytest

from codedmr.allocation import build_plan, materialize, minimal_file_count
from codedmr.analytics import achievable_load
from codedmr.assignment import (
    assignment_for,
    even_assignment,
    minimal_function_count,
)
from codedmr.model import DecodeFailureError, validate_assignment, validate_profile
from codedmr.simulator import (
    CODED,
    UNICAST,
    build_shuffle,
    iv_value,
    pack_ivs,
    run_map,
    run_reduce,
    simulate,
    unpack_ivs,
)
from conftest import random_assignment, random_profile

WORKED = validate_profile(["1/5", "1/3", "1/3", "1/2"])
WORKED_W = validate_assignment(["1/8", "1/4", "1/6", "11/24"], 4)


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

    @pytest.mark.parametrize("T", [3, 8, 13, 32])
    def test_pack_unpack_round_trip(self, T):
        rng = random.Random(T)
        values = [rng.randrange(1 << T) for _ in range(57)]
        data = pack_ivs(values, T)
        assert len(data) == (57 * T + 7) // 8
        assert unpack_ivs(data, 57, T) == values


class TestRunMap:
    def test_holds_every_iv_of_mapped_files(self):
        p = validate_profile(["1/2", "1/2"])
        plan = build_plan(p)
        inst = materialize(plan, even_assignment(2), N=2, Q=2, T=8)
        stores = run_map(inst)
        assert stores == {1: {1}, 2: {2}}

    def test_store_sizes(self):
        plan = build_plan(WORKED)
        N = minimal_file_count(plan)
        inst = materialize(plan, WORKED_W, N=N, Q=24, T=8)
        stores = run_map(inst)
        for k in range(1, 5):
            assert len(stores[k]) == WORKED.m[k - 1] * N


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
            n_min = minimal_file_count(plan, cap=None)
            if n_min > 3000:
                continue
            strategy = rng.choice(["even", "computation", "shuffle", "custom"])
            if strategy == "shuffle" and p.total == 1:
                strategy = "even"
            custom = random_assignment(rng, p.K) if strategy == "custom" else None
            w = assignment_for(strategy, p, plan, custom)
            q_min = minimal_function_count(w)
            if q_min > 100 or n_min * q_min > 50_000:
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
        stores[victim] -= set(interfering.files)
        with pytest.raises(DecodeFailureError) as err:
            run_reduce(inst, plan, stores, msgs)
        assert err.value.node == victim
        assert err.value.n in interfering.files
        assert err.value.q in interfering.functions

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
        stores[victim] -= set(coded.components[1].files)
        report = run_reduce(inst, plan, stores, msgs, strict=False)
        assert report.decode_success[victim] is False
        assert any(node == victim for node, _, _, _ in report.failures)
        others = [k for k in report.decode_success if k != victim]
        assert all(report.decode_success[k] for k in others)

    def test_message_log(self):
        p = validate_profile(["1/2", "1/2"])
        _, _, report = simulate(p, even_assignment(2), T=8, seed=1,
                                log_messages=True)
        assert report.message_log is not None
        assert len(report.message_log) == report.message_count
        assert all({"sender", "recipients", "kind", "bits"} <= set(rec)
                   for rec in report.message_log)
