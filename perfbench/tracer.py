"""Self-time tracing of codedmr from outside the package.

The tracer wraps every public function of the traced layer modules and
installs the wrapper at every place the package binds that function: each
``codedmr`` module attribute and each value of a module-level dict.  Calls a
module makes to its own functions, or through another module's imported
name, therefore pass through the wrapper too.  Nothing inside ``src/`` is
edited, and ``installed()`` puts every original object back on exit.

Self time of a call is its duration minus the durations of the wrapped
calls it made.  Each wrapped call also costs its caller the wrapper's own
bookkeeping, which no clock inside the wrapper can see.  ``call_cost``
measures that cost on a wrapped no-op, and ``layer_metrics`` subtracts it
from each caller's self time for every wrapped call the caller made, so
the callers of ``iv_value`` (about 1.26 M calls per simulate of the worked
example) are not charged for the tracer.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from types import FunctionType, ModuleType
from typing import Callable

PACKAGE = "codedmr"
LAYERS = ("allocation", "assignment", "analytics", "simulator", "cli")
COST_CALLS = 20_000
COST_REPEATS = 3

Hook = Callable[["Tracer", tuple, dict, object], None]


def _count_subbatch_entries(tracer, args, kwargs, table):
    tracer.count("allocation.subbatch_entries", len(table))


def _count_materialized_files(tracer, args, kwargs, instance):
    tracer.count("allocation.materialize.files", instance.N)


def _count_subsets(tracer, args, kwargs, result):
    profile = args[0] if args else kwargs["profile"]
    tracer.count("analytics.lower_bound.subsets", (1 << profile.K) - 1)


def _count_messages(tracer, args, kwargs, messages):
    for msg in messages:
        tracer.count(f"simulator.messages.{msg.kind}", 1)
        tracer.count("simulator.bits_shuffled", msg.bit_length)
        tracer.count("simulator.payload_bytes", len(msg.payload))
        for component in msg.components:
            tracer.count("simulator.needed_iv_slots",
                         len(component.functions) * len(component.files))


# Counters read off a wrapped call's arguments or result, keyed by
# "<module>.<function>".
HOOKS: dict[str, Hook] = {
    "allocation.subbatch_fractions": _count_subbatch_entries,
    "allocation.materialize": _count_materialized_files,
    "analytics.lower_bound": _count_subsets,
    "simulator.build_shuffle": _count_messages,
}


def public_functions(module: ModuleType) -> dict[str, FunctionType]:
    """Functions defined in ``module`` whose names do not start with "_"."""
    return {
        name: obj for name, obj in vars(module).items()
        if isinstance(obj, FunctionType) and not name.startswith("_")
        and obj.__module__ == module.__name__
    }


def package_modules() -> list[ModuleType]:
    """Every imported module of the package, the package itself included."""
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Tracer:
    """Self time and call counts per "<layer>.<function>", plus counters.

    State is kept in memory for the life of the object; read it with
    ``self_s``, ``total_s``, ``calls`` and ``counts``.
    """

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        # wrapped calls made directly by each function's calls
        self.child_calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        # one [duration, calls] frame per open wrapped call, summing its
        # wrapped children; the bottom frame sums the outermost calls
        self._stack: list[list] = [[0.0, 0]]

    @property
    def wrapped_s(self) -> float:
        """Total duration of outermost wrapped calls."""
        return self._stack[0][0]

    def count(self, name: str, value: int) -> None:
        self.counts[name] += value

    def _wrap(self, key: str, fn: FunctionType) -> FunctionType:
        stack = self._stack
        self_s, total_s, calls = self.self_s, self.total_s, self.calls
        child_calls = self.child_calls
        hook = HOOKS.get(key)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[key] += elapsed - frame[0]
                child_calls[key] += frame[1]
                total_s[key] += elapsed
                parent = stack[-1]
                parent[0] += elapsed
                parent[1] += 1
                calls[key] += 1
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap the layers' public functions at every binding site."""
        wrappers: dict[FunctionType, FunctionType] = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for name, fn in public_functions(module).items():
                wrappers[fn] = self._wrap(f"{layer}.{name}", fn)
        patches: list[tuple[dict, str, object]] = []
        try:
            for module in package_modules():
                for name, value in list(vars(module).items()):
                    if name.startswith("__"):
                        continue
                    if isinstance(value, FunctionType) and value in wrappers:
                        patches.append((vars(module), name, value))
                        vars(module)[name] = wrappers[value]
                    elif type(value) is dict:
                        for key, item in list(value.items()):
                            if isinstance(item, FunctionType) and item in wrappers:
                                patches.append((value, key, item))
                                value[key] = wrappers[item]
            yield self
        finally:
            for container, key, original in reversed(patches):
                container[key] = original


def _noop(seed, q, n, T):
    pass


def call_cost() -> float:
    """Seconds one wrapped call adds to its caller's self time.

    A wrapped parent calls a wrapped no-op COST_CALLS times, with the four
    arguments of ``iv_value``; its self time, less that of the same loop over
    the bare no-op, is the cost of the wrappers.  The median over
    COST_REPEATS is returned.
    """
    probe = Tracer()
    child = probe._wrap("probe.child", _noop)

    def bare_loop():
        for i in range(COST_CALLS):
            _noop(1, i, i, 32)

    def wrapped_loop():
        for i in range(COST_CALLS):
            child(1, i, i, 32)

    parent = probe._wrap("probe.parent", wrapped_loop)
    costs = []
    for _ in range(COST_REPEATS):
        start = time.perf_counter()
        bare_loop()
        bare = time.perf_counter() - start
        before = probe.self_s["probe.parent"]
        parent()
        costs.append((probe.self_s["probe.parent"] - before - bare) / COST_CALLS)
    return max(statistics.median(costs), 0.0)


# Per-layer self-time metrics: each sums the self time of the listed
# "<module>.<function>" keys.  Layer totals ("<layer>.s") sum every wrapped
# function of the layer, so a function added later still counts there.
SELF_GROUPS = {
    "allocation.build_plan.s": (
        "allocation.build_plan", "allocation.first_step", "allocation.surplus_ratios"),
    "allocation.subbatch_fractions.s": ("allocation.subbatch_fractions",),
    "allocation.minimal_file_count.s": (
        "allocation.minimal_file_count", "allocation.file_count_estimate",
        "allocation.format_factored"),
    "allocation.materialize.s": (
        "allocation.materialize", "allocation.canonical_subbatch_order"),
    "analytics.lower_bound.s": ("analytics.lower_bound",),
    "analytics.achievable_load.s": ("analytics.achievable_load", "analytics.s_ordering"),
    "analytics.closed_forms.s": (
        "analytics.load_computation_aware", "analytics.load_shuffle_aware",
        "analytics.homogeneous_even_load", "analytics.homogeneous_optimal"),
    "analytics.gap_to_homogeneous.s": ("analytics.gap_to_homogeneous",),
    "simulator.run_map.s": ("simulator.run_map",),
    "simulator.build_shuffle.s": ("simulator.build_shuffle",),
    "simulator.run_reduce.s": ("simulator.run_reduce",),
    "simulator.iv_value.s": ("simulator.iv_value",),
    "simulator.pack_ivs.s": ("simulator.pack_ivs",),
    "simulator.unpack_ivs.s": ("simulator.unpack_ivs",),
}
LAYER_TOTALS = {
    "allocation.s": "allocation",
    "assignment.s": "assignment",
    "analytics.s": "analytics",
    "simulator.s": "simulator",
    "cli.main.self_s": "cli",
}
# Inclusive times of the simulate phases (plan, materialize, map, shuffle,
# reduce), children included.
INCLUSIVE = {
    "allocation.build_plan.incl_s": "allocation.build_plan",
    "allocation.materialize.incl_s": "allocation.materialize",
    "simulator.run_map.incl_s": "simulator.run_map",
    "simulator.build_shuffle.incl_s": "simulator.build_shuffle",
    "simulator.run_reduce.incl_s": "simulator.run_reduce",
}
CALLS = {
    "analytics.lower_bound.calls": "analytics.lower_bound",
    "simulator.iv_value.calls": "simulator.iv_value",
}
COUNTERS = (
    "allocation.subbatch_entries",
    "allocation.materialize.files",
    "analytics.lower_bound.subsets",
    "simulator.needed_iv_slots",
    "simulator.messages.unicast",
    "simulator.messages.coded",
    "simulator.bits_shuffled",
    "simulator.payload_bytes",
    "cli.output_bytes",
)


def layer_metrics(tracer: Tracer, cost: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit).

    ``cost`` is ``call_cost()``: self times are net of the wrappers' cost,
    and never below 0.
    """
    self_s = {k: max(v - tracer.child_calls[k] * cost, 0.0)
              for k, v in tracer.self_s.items()}
    metrics: dict[str, tuple[float, str]] = {}
    for name, layer in LAYER_TOTALS.items():
        metrics[name] = (sum(v for k, v in self_s.items()
                             if k.startswith(layer + ".")), "s")
    for name, keys in SELF_GROUPS.items():
        metrics[name] = (sum(self_s.get(k, 0.0) for k in keys), "s")
    for name, key in INCLUSIVE.items():
        metrics[name] = (tracer.total_s.get(key, 0.0), "s")
    for name, key in CALLS.items():
        metrics[name] = (tracer.calls.get(key, 0), "count")
    for name in COUNTERS:
        metrics[name] = (tracer.counts.get(name, 0), "count")
    slots = tracer.counts.get("simulator.needed_iv_slots", 0)
    hashed = tracer.calls.get("simulator.iv_value", 0)
    metrics["simulator.iv_hash_ratio"] = (hashed / slots if slots else 0.0, "ratio")
    metrics["trace.call_cost_s"] = (cost, "s")
    return metrics
