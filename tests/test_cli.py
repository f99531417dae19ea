import argparse
import csv
import json
import time
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codedmr import cli
from codedmr.model import parse_rational

WORKED_CONFIG = {
    "K": 4,
    "m": ["1/5", "1/3", "1/3", "1/2"],
    "w": ["1/8", "1/4", "1/6", "11/24"],
    "strategy": "custom",
}


@pytest.fixture
def config_path(tmp_path):
    def write(data, name="config.json"):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)
    return write


def run_json(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# every option a subcommand accepts is one its cmd_* reads
OPTIONS = {
    "plan": ["--config", "--out"],
    "load": ["--config", "--out", "--precision", "--strategy"],
    "simulate": ["--config", "--files", "--functions", "--iv-bits", "--out",
                 "--precision", "--seed", "--strategy", "--transcript"],
    "sweep": ["--coeffs", "--mbar-max", "--mbar-min", "--out", "--precision",
              "--preset", "--step"],
    "bound": ["--config", "--out", "--precision", "--strategy"],
    "gap": ["--config", "--out", "--precision"],
    "table": ["--json", "--out", "--preset"],
}


class TestOptions:
    def test_each_command_takes_only_the_options_it_reads(self):
        sub, = (action for action in cli.build_parser()._actions
                if isinstance(action, argparse._SubParsersAction))
        found = {
            name: sorted(option for action in parser._actions
                         for option in action.option_strings
                         if option not in ("-h", "--help"))
            for name, parser in sub.choices.items()}
        assert found == OPTIONS
        assert sum(map(len, found.values())) == 32

    @pytest.mark.parametrize("argv", [
        ["plan", "--config", "x", "--seed", "1"],
        ["gap", "--config", "x", "--json"],
        ["table", "--preset", "table1", "--config", "x"],
        ["sweep", "--preset", "fig2-k3", "--config", "x"],
    ], ids=["plan-seed", "gap-json", "table-config", "sweep-config"])
    def test_unread_option_rejected_at_parsing(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestPlan:
    def test_worked_example(self, capsys, config_path):
        code, data = run_json(capsys, ["plan", "--config", config_path(WORKED_CONFIG)])
        assert code == 0
        assert data["plan"]["l"] == ["1/5", "4/15", "4/15", "4/15"]
        assert data["plan"]["P"] == ["0", "1/11", "1/11", "7/22"]
        assert data["plan"]["r"] == 1
        assert data["minimal_files"] == 39930
        assert data["minimal_functions"]["custom"] == 24
        cell = next(e for e in data["plan"]["subbatch"]
                    if e["owner"] == 1 and e["subset"] == [2, 3])
        assert cell["fraction"] == "3/2662"

    def test_k3_minimal_files(self, capsys, config_path):
        cfg = {"m": ["3/5", "2/3", "11/15"]}
        code, data = run_json(capsys, ["plan", "--config", config_path(cfg)])
        assert code == 0
        assert data["minimal_files"] == 150
        assert data["minimal_functions"]["computation"] == 30
        assert data["minimal_functions"]["shuffle"] == 19

    # K=12 (24,576 entries, under the cap) is pinned by the golden digests
    @pytest.mark.parametrize("K, count", [(15, 15 * 2 ** 14), (64, 64 * 2 ** 63)],
                             ids=["K15", "K64"])
    def test_listing_past_cap_reports_count(self, capsys, config_path, K, count):
        cfg = {"m": ["1/2"] * K}
        start = time.perf_counter()
        code, data = run_json(capsys, ["plan", "--config", config_path(cfg)])
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert data["plan"]["subbatch"] is None
        assert data["plan"]["subbatch_count"] == count

    def test_minimal_files_past_cap_reported_symbolically(self, capsys, config_path):
        cfg = {"m": ["1/2"] * 16}
        code, data = run_json(capsys, ["plan", "--config", config_path(cfg)])
        assert code == 0
        assert 16 * 15 ** 15 > cli.PLAN_FILE_COUNT_CAP
        assert data["minimal_files"] is None
        assert data["minimal_files_overflow"] is True
        assert data["minimal_files_symbolic"] == "2^4 * 3^15 * 5^15"
        code, data = run_json(capsys, ["plan", "--config", config_path(WORKED_CONFIG)])
        assert "minimal_files_overflow" not in data

    def test_malformed_json_exit_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli.main(["plan", "--config", str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_config_exit_2(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["plan"])
        assert err.value.code == 2
        assert "--config" in capsys.readouterr().err

    def test_negative_precision_rejected_at_parsing(self, capsys, config_path):
        with pytest.raises(SystemExit) as err:
            cli.main(["load", "--config", config_path(WORKED_CONFIG),
                      "--precision", "-1"])
        assert err.value.code == 2
        assert ("argument --precision: must be a non-negative integer, got '-1'"
                in capsys.readouterr().err)

    def test_oversized_precision_rejected_at_parsing(self, capsys, config_path):
        start = time.perf_counter()
        with pytest.raises(SystemExit) as err:
            cli.main(["load", "--config", config_path(WORKED_CONFIG),
                      "--precision", "5000"])
        assert time.perf_counter() - start < 1.0
        assert err.value.code == 2
        assert ("argument --precision: must be at most MAX_PRECISION=4300, "
                "got '5000'" in capsys.readouterr().err)

    def test_oversized_rational_refused_in_bounded_time(self, capsys, config_path):
        cfg = {"m": ["1/2", "1/2", "1e-10000000"]}
        start = time.perf_counter()
        code = cli.main(["plan", "--config", config_path(cfg)])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: rational '1e-10000000' has more than "
            "RATIONAL_DIGITS_CAP=1000 digits, counting its decimal exponent\n")

    def test_csv_flag_rejected_at_parsing(self, capsys, config_path):
        with pytest.raises(SystemExit) as err:
            cli.main(["load", "--config", config_path(WORKED_CONFIG), "--csv"])
        assert err.value.code == 2
        assert "--csv" in capsys.readouterr().err

    def test_non_integer_k_is_config_error_exit_2(self, capsys, config_path):
        cfg = {**WORKED_CONFIG, "K": [4]}
        assert cli.main(["plan", "--config", config_path(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            'error: config key "K"=[4] must be the integer len(m)=4\n')

    def test_wrong_length_w_is_config_error_exit_2(self, capsys, config_path):
        cfg = {"m": ["1/2", "1/2"], "w": ["1"], "strategy": "custom"}
        assert cli.main(["load", "--config", config_path(cfg)]) == 2
        assert 'config key "w" must list 2 values' in capsys.readouterr().err

    def test_round_trip(self, capsys, config_path):
        code, data = run_json(capsys, ["plan", "--config", config_path(WORKED_CONFIG)])
        assert code == 0
        again = config_path(data["profile"], name="again.json")
        code, data2 = run_json(capsys, ["plan", "--config", again])
        assert code == 0
        assert data2["plan"] == data["plan"]
        assert data2["minimal_files"] == data["minimal_files"]


class TestLoad:
    def test_worked_example(self, capsys, config_path):
        code, data = run_json(capsys, ["load", "--config", config_path(WORKED_CONFIG)])
        assert code == 0
        assert data["report"]["achievable"]["exact"] == "4171/7260"
        assert data["report"]["lowcl_load"]["exact"] == "1/10"
        assert data["report"]["highcl_load"]["exact"] == "689/1452"

    def test_table1_shuffle_rendering(self, capsys, config_path):
        cfg = {"m": ["1/6"] * 6 + ["1/2"] * 6}
        code, data = run_json(capsys, [
            "load", "--config", config_path(cfg),
            "--strategy", "shuffle", "--precision", "3"])
        assert code == 0
        assert data["report"]["achievable"]["decimal"] == "0.175"

    def test_shuffle_without_redundancy_exit_1(self, capsys, config_path):
        cfg = {"m": ["1/2", "1/2"]}
        assert cli.main(["load", "--config", config_path(cfg),
                         "--strategy", "shuffle"]) == 1
        assert "error" in capsys.readouterr().err

    def test_strategy_required(self, capsys, config_path):
        cfg = {"m": ["1/2", "1/2"]}
        assert cli.main(["load", "--config", config_path(cfg)]) == 2

    def test_past_bound_cap_reports_without_bound(self, capsys, config_path):
        cfg = {"m": ["1/2"] * 30, "strategy": "even"}
        start = time.perf_counter()
        code, data = run_json(capsys, ["load", "--config", config_path(cfg)])
        assert time.perf_counter() - start < 1.0
        assert code == 0
        report = data["report"]
        assert report["homogeneous_optimal"]["exact"] == "1/30"
        assert Fraction(report["achievable"]["exact"]) > Fraction(1, 30)
        assert report["lower_bound"] is None
        assert report["lower_bound_witness"] is None
        assert report["gap_to_lower"] is None
        assert report["lower_bound_skipped"] == (
            "subset enumeration capped at 24 nodes, profile has 30")


class TestSimulate:
    def test_two_node(self, capsys, config_path):
        cfg = {"m": ["1/2", "1/2"], "strategy": "even"}
        code, data = run_json(capsys, [
            "simulate", "--config", config_path(cfg), "--iv-bits", "16"])
        assert code == 0
        assert data["report"]["measured_load"]["exact"] == "1/2"
        assert data["analytic_load"]["exact"] == "1/2"
        assert all(data["report"]["decode_success"].values())

    def test_indivisible_exit_1(self, capsys, config_path):
        code = cli.main(["simulate", "--config", config_path(WORKED_CONFIG),
                         "--functions", "23"])
        assert code == 1
        assert "24" in capsys.readouterr().err

    def test_k16_overflow_refused_in_bounded_time(self, capsys, config_path):
        # minimal N = 16 * 15^15 > 2^62; the 2^15-per-owner table is never built
        cfg = {"m": ["1/2"] * 16, "strategy": "even"}
        start = time.perf_counter()
        code = cli.main(["simulate", "--config", config_path(cfg)])
        assert time.perf_counter() - start < 1.0
        assert code == 1
        assert (f"N={16 * 15 ** 15} exceeds the materialization cap 5000000"
                in capsys.readouterr().err)

    def test_huge_iv_width_refused_in_bounded_time(self, capsys, config_path):
        cfg = {"m": ["1/2", "1/2"], "strategy": "even"}
        start = time.perf_counter()
        code = cli.main(["simulate", "--config", config_path(cfg),
                         "--iv-bits", "10000000000"])
        assert time.perf_counter() - start < 1.0
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "N*Q*T=40000000000 IV bits exceed the materialization cap" in captured.err

    def test_subbatch_count_refused_in_bounded_time(self, capsys, config_path):
        # N = 16 * 2^15 passes the file and bit caps; the 2^15-per-owner
        # table is never built
        cfg = {"m": ["17/32"] * 16, "strategy": "even"}
        start = time.perf_counter()
        code = cli.main(["simulate", "--config", config_path(cfg)])
        assert time.perf_counter() - start < 1.0
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ("524288 sub-batches exceed the materialization cap 65536"
                in captured.err)

    def test_transcript(self, capsys, config_path, tmp_path):
        cfg = {"m": ["1/2", "1/2"], "strategy": "even"}
        transcript = tmp_path / "messages.jsonl"
        code, _ = run_json(capsys, [
            "simulate", "--config", config_path(cfg),
            "--transcript", str(transcript)])
        assert code == 0
        records = [json.loads(line) for line in transcript.read_text().splitlines()]
        assert len(records) == 2
        assert all(rec["kind"] == "unicast" for rec in records)

    def test_internal_consistency_exit_3(self, capsys, config_path, monkeypatch):
        def flip_first_bit(msgs):
            payload = bytearray(msgs[0].payload)
            payload[0] ^= 0x80
            return [replace(msgs[0], payload=bytes(payload)), *msgs[1:]]

        cases = [
            # a duplicated message still decodes; simulate() catches the extra bits
            (lambda msgs: msgs + msgs[:1],
             "internal error: measured load 3/4 != analytic 1/2"),
            # a flipped payload bit fails the Reduce check
            (flip_first_bit,
             "internal error: node 1 failed to decode IV (q=1, n=2): "
             "recovered IV differs from ground truth"),
        ]
        real = cli.simulator.build_shuffle
        cfg = {"m": ["1/2", "1/2"], "strategy": "even"}
        for corrupt, message in cases:
            monkeypatch.setattr(cli.simulator, "build_shuffle",
                                lambda inst, plan: corrupt(real(inst, plan)))
            assert cli.main(["simulate", "--config", config_path(cfg)]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == message + "\n"

    def test_longer_payload_is_refused_by_name_exit_3(
            self, capsys, config_path, monkeypatch):
        real = cli.simulator.build_shuffle
        monkeypatch.setattr(cli.simulator, "build_shuffle", lambda inst, plan: [
            replace(msg, payload=msg.payload + b"\0")
            for msg in real(inst, plan)])
        cfg = {"m": ["1/2", "1/2"], "strategy": "even"}
        assert cli.main(["simulate", "--config", config_path(cfg)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "internal error: node 1 failed to decode IV (q=1, n=2): "
            "message of 32 bits in 5 bytes, not 32 bits in 4 bytes\n")


class TestSweep:
    def test_k3_boundary_row(self, capsys):
        code = cli.main(["sweep", "--preset", "fig2-k3", "--step", "1/3",
                         "--mbar-max", "2/3"])
        assert code == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        first = rows[0]
        # sum(m) is exactly 1 here: shuffle column blank, others populated
        assert first["mbar"].startswith("0.333333")
        assert first["L_even"] and first["L_computation"] and first["L_hom_optimal"]
        assert first["L_shuffle"] == ""
        assert "shuffle-aware undefined" in first["note"]
        second = rows[1]
        assert second["L_shuffle"] != ""

    def test_k12_infeasible_rows_skipped(self, capsys):
        code = cli.main(["sweep", "--preset", "fig2-k12", "--step", "0.01",
                         "--mbar-min", "0.86", "--mbar-max", "0.88"])
        assert code == 0
        rows = {row["mbar"][:4]: row for row in
                csv.DictReader(capsys.readouterr().out.splitlines())}
        assert rows["0.86"]["L_shuffle"] != ""
        assert rows["0.87"]["note"].startswith("skipped")
        assert rows["0.87"]["L_even"] == ""

    def test_crossover_point(self, capsys):
        code = cli.main(["sweep", "--preset", "fig2-k12", "--step", "0.01",
                         "--mbar-min", "0.8", "--mbar-max", "0.8"])
        assert code == 0
        row = next(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert parse_rational(row["L_shuffle"]) < parse_rational(row["L_hom_optimal"])

    def test_out_file(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        code = cli.main(["sweep", "--preset", "fig2-k3", "--step", "0.1",
                         "--out", str(out)])
        assert code == 0
        assert out.read_text().startswith("mbar,")

    def test_requires_exactly_one_source(self, capsys):
        assert cli.main(["sweep"]) == 2
        assert cli.main(["sweep", "--preset", "fig2-k3",
                         "--coeffs", "1,1"]) == 2

    def test_oversized_grid_refused_in_bounded_time(self, capsys):
        start = time.perf_counter()
        code = cli.main(["sweep", "--preset", "fig2-k12", "--step", "1e-6"])
        assert time.perf_counter() - start < 1.0
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "784459 points" in captured.err
        assert str(cli.SWEEP_POINT_CAP) in captured.err

    @settings(deadline=None)
    @given(st.fractions(0, 2, max_denominator=50),
           st.fractions(0, 2, max_denominator=50),
           st.fractions(Fraction(1, 200), 1, max_denominator=200))
    def test_grid_count_matches_stepping(self, lo, hi, step):
        args = argparse.Namespace(step=str(step), mbar_min=str(lo),
                                  mbar_max=str(hi))
        expected = []
        t = -((-lo) // step)
        while t * step <= hi:
            expected.append(t * step)
            t += 1
        assert cli._sweep_grid(args, [Fraction(1)]) == expected

    def test_custom_coeffs(self, capsys):
        code = cli.main(["sweep", "--coeffs", "0.9,1,1.1", "--step", "0.05",
                         "--mbar-min", "0.4", "--mbar-max", "0.5"])
        assert code == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        assert len(rows) == 3


class TestBoundGap:
    def test_bound_witness(self, capsys, config_path):
        cfg = {"m": ["1/2", "1/2"], "w": ["1/2", "1/2"], "strategy": "custom"}
        code, data = run_json(capsys, ["bound", "--config", config_path(cfg)])
        assert code == 0
        assert data["lower_bound"]["exact"] == "1/4"
        assert data["witness"] == [1]  # ties go to the lowest subset mask

    def test_bound_past_cap_exit_1(self, capsys, config_path):
        cfg = {"m": ["1/2"] * 30, "strategy": "even"}
        assert cli.main(["bound", "--config", config_path(cfg)]) == 1
        assert ("subset enumeration capped at 24 nodes, profile has 30"
                in capsys.readouterr().err)

    def test_gap(self, capsys, config_path):
        cfg = {"m": ["1/6"] * 6 + ["1/3"] * 6}
        code, data = run_json(capsys, ["gap", "--config", config_path(cfg)])
        assert code == 0
        assert data["regime"] == "computation"
        assert data["within_bound"] is True
        ratio = Fraction(data["gap_to_homogeneous"]["exact"])
        assert Fraction(14, 10) < ratio < Fraction(16, 10)

    def test_unprintable_derived_value_refused_by_name(self, capsys, config_path):
        # each load is under RATIONAL_DIGITS_CAP, and `load` answers, but the
        # gap ratio's numerator has more digits than Python prints
        qs = [10 ** 450 + 1 + 2 * i for i in range(5)]
        cfg = {"m": [f"{q // 2}/{q}" for q in qs], "strategy": "even"}
        assert cli.main(["load", "--config", config_path(cfg)]) == 0
        capsys.readouterr()
        assert cli.main(["gap", "--config", config_path(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: a derived value has more than MAX_PRECISION=4300 digits")


class TestTable:
    def test_table1_json(self, capsys):
        code, data = run_json(capsys, ["table", "--preset", "table1", "--json"])
        assert code == 0
        computed = {row["scheme"]: row for row in data["rows"]
                    if row["status"] == "computed"}
        assert computed["Even FA"]["m1"] == "0.448"
        assert computed["Computation-aware FA"]["m1"] == "0.371"
        assert computed["Shuffle-aware FA"]["m1"] == "0.315"
        assert computed["Even FA"]["m2"] == "0.397"
        assert computed["Computation-aware FA"]["m2"] == "0.255"
        assert computed["Shuffle-aware FA"]["m2"] == "0.175"
        reported = [row for row in data["rows"] if row["status"] != "computed"]
        assert all(row["status"] == "reported, not reproduced" for row in reported)

    def test_table2_json(self, capsys):
        code, data = run_json(capsys, ["table", "--preset", "table2", "--json"])
        assert code == 0
        sections = {s["section"]: s["rows"] for s in data["sections"]}
        k3 = {row["scheme"]: row for row in sections["K=3"]}
        assert k3["Computation-aware FA"]["files"] == "150"
        assert k3["Computation-aware FA"]["functions"] == "30"
        assert k3["Shuffle-aware FA"]["functions"] == "19"
        k12 = {row["scheme"]: row for row in sections["K=12 profile-1"]}
        assert k12["Computation-aware FA"]["files"] == "2^2 * 3 * 11^11"
        assert k12["Computation-aware FA"]["functions"] == "18"
        k12b = {row["scheme"]: row for row in sections["K=12 profile-2"]}
        assert k12b["Computation-aware FA"]["functions"] == "24"

    def test_table_text(self, capsys):
        assert cli.main(["table", "--preset", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Even FA" in out and "0.448" in out
        assert "reported, not reproduced" in out


class TestOutput:
    def test_unwritable_out_exit_2(self, capsys, config_path, tmp_path):
        out = tmp_path / "missing" / "x.json"
        assert cli.main(["load", "--config", config_path(WORKED_CONFIG),
                         "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ")
        assert not out.parent.exists()

    def test_commands_return_output_without_writing(self, capsys, config_path):
        parser = cli.build_parser()
        gap = parser.parse_args(["gap", "--config", config_path(WORKED_CONFIG)])
        sweep = parser.parse_args(["sweep", "--preset", "fig2-k3", "--step", "0.1"])
        data = cli.COMMANDS["gap"](gap)
        text = cli.COMMANDS["sweep"](sweep)
        assert capsys.readouterr().out == ""
        assert isinstance(data, dict) and data["regime"]
        assert isinstance(text, str) and text.startswith("mbar,")


class TestDeterminism:
    def test_identical_invocations(self, capsys, config_path):
        path = config_path(WORKED_CONFIG)
        cli.main(["load", "--config", path])
        first = capsys.readouterr().out
        cli.main(["load", "--config", path])
        assert capsys.readouterr().out == first
