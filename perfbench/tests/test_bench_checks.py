"""Each workload's checker passes the program's real answer and counts one
wrong answer as a failed op; the timed loop samples the machine's speed
inside long ops."""

import dataclasses
import json
import signal
import time
from fractions import Fraction

import pytest

import run
import workloads


def make(name, workdir, seed=3):
    return workloads.WORKLOADS[name](workloads.import_program(run.SRC), seed, workdir)


def failures_counted(workload, wrong):
    """Run the timed loop on an op that returns ``wrong``; return the tally."""
    workload.op = lambda i: wrong
    tally = run.Tally()
    run.measure(workload, 0, tally)
    return tally


@pytest.mark.parametrize("name", ["sim-worked", "sim-wide-iv"])
def test_simulate_checker_counts_off_by_one_load(name, tmp_path):
    workload = make(name, tmp_path)
    result = workload.op(0)
    assert workload.check(0, result) == []
    one_bit = Fraction(1, result.N * result.Q * result.T)
    report = dataclasses.replace(result.report,
                                 measured_load=result.report.measured_load + one_bit)
    wrong = dataclasses.replace(result, report=report)
    assert any("measured load" in p for p in workload.check(0, wrong))
    tally = failures_counted(workload, wrong)
    assert (tally.attempted, tally.failed) == (1, 1)


def test_simulate_checker_counts_decode_failure(tmp_path):
    workload = make("sim-worked", tmp_path)
    result = workload.op(0)
    report = dataclasses.replace(result.report, decode_success={
        **result.report.decode_success, 2: False})
    assert workload.check(0, dataclasses.replace(result, report=report))


def test_pool_checker_counts_bound_above_achievable(tmp_path):
    workload = make("analytic-pool", tmp_path)
    results = workload.op(0)
    assert [r.profile.K for r in results] == list(range(2, 11))
    assert workload.check(0, results) == []
    assert workload.check(1, workload.op(1)) == []
    result = results[-1]  # K = 10
    bound, witness = result.bounds[0]
    wrong = results[:-1] + [dataclasses.replace(
        result, bounds=[(result.loads[0].total + 1, witness)] + result.bounds[1:])]
    problems = workload.check(0, wrong)
    assert problems and all(p.startswith("K=10: ") for p in problems)
    assert any("> achievable" in p for p in problems)
    assert any("witness" in p for p in problems)
    tally = failures_counted(workload, wrong)
    assert (tally.attempted, tally.failed) == (1, 1)


def test_pool_checker_counts_wrong_gap_regime(tmp_path):
    workload = make("analytic-pool", tmp_path)
    results = workload.op(0)
    ratio, regime = results[2].gap
    other = "shuffle" if regime == "computation" else "computation"
    wrong = results[:2] + [dataclasses.replace(results[2], gap=(ratio, other))] + results[3:]
    assert workload.check(0, wrong)


@pytest.fixture(scope="module")
def cli_pass(tmp_path_factory):
    workload = make("cli-suite", tmp_path_factory.mktemp("work"))
    return workload, workload.op(0)


def _edit(outputs, label, **changes):
    return [dataclasses.replace(o, **changes) if o.label == label else o
            for o in outputs]


def test_cli_checker_passes_real_pass(cli_pass):
    workload, outputs = cli_pass
    assert workload.check(0, outputs) == []
    assert len(outputs) == 12


def test_cli_checker_counts_off_by_one_load(cli_pass):
    workload, outputs = cli_pass
    text = next(o.stdout for o in outputs if o.label == "load-worked")
    assert '"4171/7260"' in text
    wrong = _edit(outputs, "load-worked",
                  stdout=text.replace('"4171/7260"', '"4171/7261"'))
    assert any("achievable" in p for p in workload.check(0, wrong))
    tally = failures_counted(workload, wrong)
    assert (tally.attempted, tally.failed) == (1, 1)


@pytest.mark.parametrize("label, edit", [
    ("table2", lambda d: d["sections"][0]["rows"][-1].update(functions="20")),
    ("table1", lambda d: d["rows"][0].update(m1="0.449")),
    ("plan-k12p2", lambda d: d.update(minimal_files_symbolic="2^2 * 3 * 11^10")),
    ("simulate-k3", lambda d: d["report"]["decode_success"].update({"2": False})),
])
def test_cli_checker_counts_wrong_field(cli_pass, label, edit):
    workload, outputs = cli_pass
    data = json.loads(next(o.stdout for o in outputs if o.label == label))
    edit(data)
    wrong = _edit(outputs, label, stdout=json.dumps(data))
    assert workload.check(0, wrong)


def test_cli_checker_counts_nonzero_exit_and_sweep_row(cli_pass):
    workload, outputs = cli_pass
    assert workload.check(0, _edit(outputs, "gap-k12p2", code=1))
    sweep = next(o.stdout for o in outputs if o.label == "sweep")
    lines = sweep.splitlines()
    row = next(i for i, line in enumerate(lines) if line.startswith("0.800000,"))
    lines[row] = ",".join(lines[row].split(",")[:3] + ["", ""] + lines[row].split(",")[5:])
    assert workload.check(0, _edit(outputs, "sweep", stdout="\n".join(lines)))


class Spin:
    """An op that keeps the interpreter busy for ``seconds`` of wall time."""

    def __init__(self, seconds):
        self.seconds = seconds

    def op(self, i):
        end = time.perf_counter() + self.seconds
        while time.perf_counter() < end:
            pass
        return i

    def check(self, i, result):
        return [] if result == i else ["wrong"]

    def part_times(self, result):
        return {}


def test_reference_is_sampled_inside_long_ops_and_taken_off_their_time():
    tally = run.Tally()
    timings = run.measure(Spin(0.6), 1.0, tally)
    assert (tally.attempted, tally.failed) == (2, 0)
    # a sample before the first op, at least two inside each op, one after each
    assert len(timings.references) >= 7
    for duration, scaled in zip(timings.durations, timings.scaled):
        assert 0.5 < duration < 0.6
        assert duration / max(timings.references) <= scaled <= duration / min(timings.references)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_missing_program_exits_without_result(monkeypatch, capsys):
    monkeypatch.setattr(run, "SRC", run.ROOT / "no-such-src")
    code = run.main(["--workload", "cli-suite", "--seed", "1", "--seconds", "1"])
    assert code == 2
    assert capsys.readouterr().out == ""
