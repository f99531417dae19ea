"""The tracer catches calls made through every binding site, leaves nothing
behind when it is removed, and its counts repeat exactly for one seed."""

import json
import sys
from types import FunctionType

import pytest

import run
import tracer as tracing
import workloads

REPEATABLE = ("simulator.iv_value.calls", "simulator.needed_iv_slots",
              "analytics.lower_bound.subsets", "allocation.subbatch_entries",
              "simulator.bits_shuffled", "cli.output_bytes")


@pytest.fixture
def program():
    return workloads.import_program(run.SRC)


def bindings():
    """Every module attribute and module-level dict value of the package."""
    found = {}
    for module in tracing.package_modules():
        for name, value in vars(module).items():
            found[(module.__name__, name)] = value
            if type(value) is dict and not name.startswith("__"):
                for key, item in value.items():
                    found[(module.__name__, name, key)] = item
    return found


def test_internal_calls_pass_through_wrappers(program):
    p = program
    profile = p.model.validate_profile(list(workloads.WORKED_M))
    w = p.model.validate_assignment(list(workloads.WORKED_W), 4)
    tracer = tracing.Tracer()
    with tracer.installed():
        plan = p.allocation.build_plan(profile)
        p.analytics.build_load_report(profile, plan, w)  # -> lower_bound
        p.analytics.gap_to_homogeneous(profile)  # analytics' own build_plan
        k3 = p.model.validate_profile(list(workloads.K3_M))
        p.simulator.simulate(k3, p.assignment.computation_aware(k3), T=16)
        sys.modules["codedmr"].lower_bound(profile, w)  # package re-export
    calls = tracer.calls
    assert calls["analytics.build_load_report"] == 1
    assert calls["analytics.lower_bound"] == 2
    assert calls["allocation.build_plan"] == 3  # direct, gap, simulate
    assert calls["allocation.subbatch_fractions"] == 2
    assert calls["assignment.minimal_function_count"] == 1
    assert calls["simulator.build_shuffle"] == 1
    assert calls["simulator.iv_value"] > tracer.counts["simulator.needed_iv_slots"] > 0
    assert calls["simulator.pack_ivs"] > 0 and calls["simulator.unpack_ivs"] > 0
    assert tracer.counts["analytics.lower_bound.subsets"] == 2 * (2 ** 4 - 1)
    assert tracer.counts["allocation.materialize.files"] == 150


def test_cli_dispatch_table_is_wrapped_and_self_time_is_split(program, tmp_path):
    tracer = tracing.Tracer()
    original = program.cli.COMMANDS["table"]
    with tracer.installed():
        assert program.cli.COMMANDS["table"] is not original
        assert program.cli.COMMANDS["table"].__wrapped__ is original
        workload = workloads.CliSuite(program, 1, tmp_path)
        out = workload._run("table2", ["table", "--preset", "table2", "--json"])
    assert out.code == 0 and json.loads(out.stdout)["sections"]
    assert tracer.calls["cli.main"] == 1 and tracer.calls["cli.cmd_table"] == 1
    total = tracer.total_s["cli.main"]
    assert sum(tracer.self_s.values()) == pytest.approx(total, rel=1e-9)
    assert tracer.wrapped_s == pytest.approx(total, rel=1e-9)


def test_wrappers_are_removed_and_record_nothing_after(program):
    before = bindings()
    tracer = tracing.Tracer()
    with tracer.installed():
        during = bindings()
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    replaced = [key for key in before if during[key] is not before[key]]
    assert ("codedmr.analytics", "build_plan") in replaced
    assert ("codedmr.simulator", "iv_value") in replaced
    assert ("codedmr", "simulate") in replaced
    assert all(isinstance(before[key], FunctionType) for key in replaced)
    assert ("codedmr.model", "format_decimal") not in replaced
    profile = program.model.validate_profile(list(workloads.WORKED_M))
    program.analytics.gap_to_homogeneous(profile)
    assert not tracer.calls


def test_exception_unwinds_the_span_stack(program):
    profile = program.model.validate_profile(list(workloads.WORKED_M))
    w = program.assignment.even_assignment(4)
    tracer = tracing.Tracer()
    with pytest.raises(program.model.TooManyNodesError):
        with tracer.installed():
            program.analytics.lower_bound(profile, w, cap=2)
    assert tracer.calls["analytics.lower_bound"] == 1
    assert tracer._stack == [[tracer.wrapped_s, 1]]
    assert program.analytics.lower_bound.__name__ == "lower_bound"
    assert not hasattr(program.analytics.lower_bound, "__wrapped__")


def traced(name, workdir, seed=5):
    """Per-layer metrics of one traced pass, as name -> (value, unit)."""
    tally = run.Tally()
    metrics = run.traced_pass(run.set_up(name, seed, workdir), tally)
    assert tally.failed == 0, tally.problems
    return metrics


@pytest.fixture(scope="module")
def traced_twice(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("work")
    return {name: (traced(name, workdir), traced(name, workdir))
            for name in workloads.WORKLOADS}


@pytest.mark.parametrize("name, nonzero", [
    ("sim-worked", ("simulator.iv_value.calls", "simulator.needed_iv_slots",
                    "allocation.subbatch_entries", "simulator.bits_shuffled")),
    ("sim-wide-iv", ("simulator.iv_value.calls", "simulator.bits_shuffled")),
    ("analytic-pool", ("analytics.lower_bound.subsets",)),
    ("cli-suite", ("allocation.subbatch_entries", "cli.output_bytes",
                   "analytics.lower_bound.subsets", "simulator.iv_value.calls")),
])
def test_counts_repeat_exactly_for_one_seed(traced_twice, name, nonzero):
    first, second = traced_twice[name]
    assert [first[k] for k in REPEATABLE] == [second[k] for k in REPEATABLE]
    assert all(first[k][0] > 0 for k in nonzero)


def test_time_lands_on_the_layer_each_workload_was_chosen_for(traced_twice):
    def share(metrics, *names):
        layers = sum(metrics[k][0] for k in tracing.LAYER_TOTALS)
        return sum(metrics[k][0] for k in names) / layers

    for name in ("sim-worked", "sim-wide-iv"):
        assert share(traced_twice[name][0], "simulator.s") > 0.9
    assert share(traced_twice["analytic-pool"][0], "analytics.lower_bound.s") > 0.8
    assert share(traced_twice["cli-suite"][0], "allocation.subbatch_fractions.s",
                 "cli.main.self_s") > 0.5
    assert traced_twice["sim-worked"][0]["simulator.iv_hash_ratio"][0] > 2


def test_metric_names_and_units_match_benchmark_json(traced_twice):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    per_layer = traced_twice["analytic-pool"][0]
    e2e = run.end_to_end(run.Timings([0.1, 0.2], [20.0, 40.0], [0.005, 0.005]), [0.3])
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: unit for k, (_, unit) in per_layer.items()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: unit for k, (_, unit) in e2e.items()}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_self_times_are_net_of_the_wrapper_cost():
    tracer = tracing.Tracer()
    tracer.self_s["simulator.pack_ivs"] = 1.0
    tracer.child_calls["simulator.pack_ivs"] = 1000
    tracer.self_s["simulator.iv_value"] = 0.5
    metrics = tracing.layer_metrics(tracer, 1e-4)
    assert metrics["simulator.pack_ivs.s"][0] == pytest.approx(0.9)
    assert metrics["simulator.iv_value.s"][0] == 0.5
    assert metrics["simulator.s"][0] == pytest.approx(1.4)
    assert tracing.layer_metrics(tracer, 1e-2)["simulator.pack_ivs.s"][0] == 0.0
    assert 0 < tracing.call_cost() < 1e-4
