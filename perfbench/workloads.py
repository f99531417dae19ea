"""The benchmark's workloads: seeded inputs, one operation, exactness checks.

Each workload draws all of its inputs from the seed when it is built; ``op``
then hands the program only those inputs, and ``check`` returns the list of
problems found in one op's result (empty when the result is exact).
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import inspect
import io
import json
import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

PACKAGE = "codedmr"
MODULES = ("model", "allocation", "assignment", "analytics", "simulator", "cli")

WORKED_M = ("1/5", "1/3", "1/3", "1/2")
WORKED_W = ("1/8", "1/4", "1/6", "11/24")
K3_M = ("3/5", "2/3", "11/15")
K12_P2_M = ("1/6",) * 6 + ("1/2",) * 6

# Published 3-digit loads of the K=12 benchmark profiles (table 1).
TABLE1 = {
    "Even FA": ("0.448", "0.397"),
    "Computation-aware FA": ("0.371", "0.255"),
    "Shuffle-aware FA": ("0.315", "0.175"),
}
TABLE1_M2 = {"even": TABLE1["Even FA"][1],
             "computation": TABLE1["Computation-aware FA"][1],
             "shuffle": TABLE1["Shuffle-aware FA"][1]}
HOMOGENEOUS_GAP_BOUND = 115
REGIME_SPLIT = Fraction(11, 20)


def import_program(src: Path) -> SimpleNamespace:
    """Import codedmr afresh from ``src``, dropping any earlier import."""
    for name in [n for n in sys.modules
                 if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    package = importlib.import_module(PACKAGE)
    if Path(package.__file__).resolve().parent != (src / PACKAGE).resolve():
        raise ImportError(f"{PACKAGE} imported from {package.__file__}, not {src}")
    return SimpleNamespace(**{
        name: importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES})


class Workload:
    """Inputs drawn from one seed, the op that uses them, and its checks."""

    name = ""
    trace_ops = 2  # ops in the traced pass; a fixed list, so counts repeat

    def __init__(self, program: SimpleNamespace, seed: int, workdir: Path):
        self.program = program
        self.workdir = workdir

    def warm_up(self) -> None:
        """Untimed call on a small input, part of set-up."""

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, result) -> list[str]:
        raise NotImplementedError

    def layer_counts(self, result) -> dict[str, int]:
        """Counters the benchmark reads off an op's result in a traced run."""
        return {}

    def part_times(self, result) -> dict[str, float]:
        """Wall time of the named parts of one op, where it has parts."""
        return {}


# --------------------------------------------------------------- simulate


@dataclass
class SimResult:
    N: int
    Q: int
    T: int
    report: object
    analytic: Fraction


class Simulate(Workload):
    """One op: ``simulate()`` on the 4-node worked example at minimal N, Q."""

    def __init__(self, program, seed, workdir):
        super().__init__(program, seed, workdir)
        self.iv_seed_base = random.Random(seed).getrandbits(32)

    def assignment(self, profile):
        raise NotImplementedError

    def _simulate(self, m, T, seed, assignment):
        p = self.program
        profile = p.model.validate_profile(list(m))
        w = assignment(profile)
        instance, plan, report = p.simulator.simulate(profile, w, T=T, seed=seed)
        analytic = p.analytics.achievable_load(profile, plan, w).total
        return SimResult(instance.N, instance.Q, instance.T, report, analytic)

    def warm_up(self):
        p = self.program
        self._simulate(K3_M, self.T, 0, p.assignment.computation_aware)

    def op(self, i):
        return self._simulate(WORKED_M, self.T, self.iv_seed_base + i, self.assignment)

    def check(self, i, result):
        problems = []
        report = result.report
        if report.measured_load != result.analytic:
            problems.append(f"measured load {report.measured_load} != "
                            f"analytic {result.analytic}")
        if result.analytic != self.LOAD:
            problems.append(f"analytic load {result.analytic} != {self.LOAD}")
        if (result.N, result.Q, result.T) != (39930, self.Q, self.T):
            problems.append(f"instance N, Q, T = {result.N}, {result.Q}, {result.T}")
        if not all(report.decode_success.values()) or report.failures:
            problems.append(f"decode failed: {report.failures[:1]}")
        return problems


class SimWorked(Simulate):
    name = "sim-worked"
    T = 32
    Q = 24
    LOAD = Fraction(4171, 7260)

    def assignment(self, profile):
        return self.program.model.validate_assignment(list(WORKED_W), profile.K)


class SimWideIV(Simulate):
    name = "sim-wide-iv"
    T = 517
    Q = 4
    LOAD = Fraction(12668, 19965)

    def assignment(self, profile):
        return self.program.assignment.even_assignment(profile.K)


# ---------------------------------------------------------- analytic pool


@dataclass
class PoolResult:
    profile: object
    plan: object
    assignments: list
    loads: list
    bounds: list
    gap: tuple


class AnalyticPool(Workload):
    """One op: the full analytic evaluation of nine random profiles, K = 2..10.

    Profiles follow the acceptance generator (each m_k = a/d with d in 2..20,
    redrawn until sum(m) >= 1) and the random assignment law (integer weights
    0..8), except that each op takes one profile of every K in 2..10 instead
    of drawing K: the cut-set bound costs 2^K, so drawn K would make an op's
    time depend mostly on which K it drew.
    """

    name = "analytic-pool"
    trace_ops = 10
    POOL_CYCLES = 200

    def __init__(self, program, seed, workdir):
        super().__init__(program, seed, workdir)
        rng = random.Random(seed)
        self.pool = [[self._draw(rng, K) for K in range(2, 11)]
                     for _ in range(self.POOL_CYCLES)]
        build_plan = program.allocation.build_plan
        self.plan_kwargs = ({"include_subbatches": False}
                            if "include_subbatches" in inspect.signature(build_plan).parameters
                            else {})

    @staticmethod
    def _draw(rng: random.Random, K: int):
        while True:
            m = []
            for _ in range(K):
                d = rng.randint(2, 20)
                m.append(Fraction(rng.randint(1, d - 1), d))
            if sum(m) >= 1:
                break
        while True:
            weights = [rng.randint(0, 8) for _ in range(K)]
            total = sum(weights)
            if total:
                return m, [Fraction(a, total) for a in weights]

    def warm_up(self):
        self._evaluate(*self.pool[0][0])

    def op(self, i):
        return [self._evaluate(m, w_random)
                for m, w_random in self.pool[i % len(self.pool)]]

    def _evaluate(self, m, w_random) -> PoolResult:
        p = self.program
        profile = p.model.validate_profile(m)
        K = profile.K
        plan = p.allocation.build_plan(profile, **self.plan_kwargs)
        assignments = [p.assignment.even_assignment(K),
                       p.assignment.computation_aware(profile),
                       p.model.validate_assignment(w_random, K)]
        if profile.total > 1:
            assignments.append(p.assignment.shuffle_aware(profile, plan))
        loads = [p.analytics.achievable_load(profile, plan, w) for w in assignments]
        bounds = [p.analytics.lower_bound(profile, w) for w in assignments]
        gap = p.analytics.gap_to_homogeneous(profile)
        return PoolResult(profile, plan, assignments, loads, bounds, gap)

    def check(self, i, results):
        return [f"K={result.profile.K}: {problem}"
                for result in results for problem in self._check_one(result)]

    def _check_one(self, result) -> list[str]:
        problems = []
        profile, plan = result.profile, result.plan
        labels = ("even", "computation", "random", "shuffle")
        for label, w, load, (bound, witness) in zip(
                labels, result.assignments, result.loads, result.bounds):
            if bound > load.total:
                problems.append(f"{label}: bound {bound} > achievable {load.total}")
            if not set(witness) <= set(range(1, profile.K + 1)):
                problems.append(f"{label}: witness {sorted(witness)} out of range")
                continue
            m_sum = sum((profile.m[k - 1] for k in witness), Fraction(0))
            w_sum = sum((w.w[k - 1] for k in witness), Fraction(0))
            if (1 - m_sum) * w_sum != bound:
                problems.append(f"{label}: witness {sorted(witness)} gives "
                                f"{(1 - m_sum) * w_sum}, not {bound}")
        analytics = self.program.analytics
        if analytics.load_computation_aware(profile, plan) != result.loads[1].total:
            problems.append("computation-aware closed form != general formula")
        if profile.total > 1 and (
                len(result.loads) < 4
                or analytics.load_shuffle_aware(profile, plan) != result.loads[3].total):
            problems.append("shuffle-aware closed form != general formula")
        ratio, regime = result.gap
        if not ratio < HOMOGENEOUS_GAP_BOUND:
            problems.append(f"gap {ratio} >= {HOMOGENEOUS_GAP_BOUND}")
        expected = "computation" if profile.mean < REGIME_SPLIT else "shuffle"
        if regime != expected:
            problems.append(f"regime {regime}, expected {expected}")
        return problems


# -------------------------------------------------------------- CLI suite


@dataclass
class CommandOutput:
    label: str
    code: int
    stdout: str
    stderr: str
    seconds: float


def _permuted(rng: random.Random, *columns):
    """The same random permutation applied to each column."""
    order = list(range(len(columns[0])))
    rng.shuffle(order)
    return [[column[j] for j in order] for column in columns]


def _fraction(field: dict) -> Fraction:
    return Fraction(field["exact"])


class CliSuite(Workload):
    """One op: ``cli.main`` over 12 command lines, stdout kept in memory.

    The seed permutes the node order in each config file (the CLI sorts it
    back), picks the K=12 profile-2 strategy and sets the simulate IV seed.
    """

    name = "cli-suite"
    trace_ops = 3

    def __init__(self, program, seed, workdir):
        super().__init__(program, seed, workdir)
        rng = random.Random(seed)
        m, w = _permuted(rng, WORKED_M, WORKED_W)
        self.k12_strategy = rng.choice(sorted(TABLE1_M2))
        configs = {
            "worked": {"K": 4, "m": m, "w": w, "strategy": "custom"},
            "k12p2": {"K": 12, "m": _permuted(rng, K12_P2_M)[0], "w": None,
                      "strategy": self.k12_strategy},
            "k3": {"K": 3, "m": _permuted(rng, K3_M)[0], "w": None,
                   "strategy": "computation"},
        }
        self.iv_seed_base = rng.getrandbits(32)
        workdir.mkdir(parents=True, exist_ok=True)
        self.config = {}
        for name, data in configs.items():
            path = workdir / f"{name}.json"
            path.write_text(json.dumps(data), encoding="utf-8")
            self.config[name] = str(path)

    def commands(self, i: int) -> list[tuple[str, list[str]]]:
        cmds = []
        for name in ("worked", "k12p2"):
            for command in ("plan", "load", "bound", "gap"):
                cmds.append((f"{command}-{name}",
                             [command, "--config", self.config[name]]))
        cmds += [
            ("simulate-k3", ["simulate", "--config", self.config["k3"],
                             "--iv-bits", "517", "--seed", str(self.iv_seed_base + i)]),
            ("table1", ["table", "--preset", "table1", "--json"]),
            ("table2", ["table", "--preset", "table2", "--json"]),
            ("sweep", ["sweep", "--preset", "fig2-k12", "--step", "0.01"]),
        ]
        return cmds

    def _run(self, label, argv) -> CommandOutput:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.program.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
        return CommandOutput(label, code, out.getvalue(), err.getvalue(),
                             time.perf_counter() - start)

    def warm_up(self):
        self._run("gap-worked", ["gap", "--config", self.config["worked"]])

    def op(self, i):
        return [self._run(label, argv) for label, argv in self.commands(i)]

    def check(self, i, result):
        problems = []
        outputs = {o.label: o for o in result}
        expected = [label for label, _ in self.commands(i)]
        if sorted(outputs) != sorted(expected):
            return [f"ran {sorted(outputs)}, expected {sorted(expected)}"]
        for label in expected:
            out = outputs[label]
            if out.code != 0:
                problems.append(f"{label}: exit {out.code}: {out.stderr.strip()[:200]}")
                continue
            try:
                problems += [f"{label}: {p}"
                             for p in self._check_output(label, out.stdout, outputs)]
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                problems.append(f"{label}: malformed output ({type(exc).__name__}: {exc})")
        return problems

    def _check_output(self, label, text, outputs) -> list[str]:
        if label == "sweep":
            return self._check_sweep(text)
        data = json.loads(text)
        problems = []

        def expect(what, got, want):
            if got != want:
                problems.append(f"{what} = {got!r}, expected {want!r}")

        if label == "plan-worked":
            expect("minimal_files", data["minimal_files"], 39930)
            expect("minimal_functions.custom", data["minimal_functions"]["custom"], 24)
        elif label == "plan-k12p2":
            expect("minimal_files_symbolic", data["minimal_files_symbolic"],
                   "2^2 * 3 * 11^11")
            expect("minimal_functions.computation",
                   data["minimal_functions"]["computation"], 24)
        elif label.startswith("load-"):
            report = data["report"]
            achievable = _fraction(report["achievable"])
            if label == "load-worked":
                expect("achievable", report["achievable"]["exact"], "4171/7260")
            else:
                expect("achievable to 3 digits", round(achievable, 3),
                       Fraction(TABLE1_M2[self.k12_strategy]))
            if _fraction(report["lower_bound"]) > achievable:
                problems.append("lower_bound > achievable")
        elif label.startswith("bound-"):
            load = json.loads(outputs["load-" + label[len("bound-"):]].stdout)
            expect("lower_bound", data["lower_bound"]["exact"],
                   load["report"]["lower_bound"]["exact"])
        elif label.startswith("gap-"):
            expect("within_bound", data["within_bound"], True)
            expect("regime", data["regime"], "computation")
        elif label == "simulate-k3":
            report = data["report"]
            expect("measured_load", report["measured_load"]["exact"],
                   data["analytic_load"]["exact"])
            expect("decode_success", all(report["decode_success"].values()), True)
            expect("instance N, Q, T",
                   [data["instance"][k] for k in ("N", "Q", "T")], [150, 30, 517])
        elif label == "table1":
            rows = {row["scheme"]: (row["m1"], row["m2"]) for row in data["rows"]}
            for scheme, values in TABLE1.items():
                expect(scheme, rows.get(scheme), values)
        elif label == "table2":
            section = next(s for s in data["sections"] if s["section"] == "K=3")
            rows = {row["scheme"]: (row["files"], row["functions"])
                    for row in section["rows"]}
            expect("K=3 computation-aware", rows.get("Computation-aware FA"),
                   ("150", "30"))
            expect("K=3 shuffle-aware", rows.get("Shuffle-aware FA"), ("150", "19"))
        return problems

    @staticmethod
    def _check_sweep(text) -> list[str]:
        rows = list(csv.DictReader(text.splitlines()))
        window = [row for row in rows
                  if Fraction(76, 100) < Fraction(row["mbar"]) < Fraction(86, 100)]
        problems = []
        if len(window) != 9:
            problems.append(f"{len(window)} rows in (0.76, 0.86), expected 9")
        for row in window:
            if not (row["L_shuffle"] and row["L_hom_optimal"]
                    and Fraction(row["L_shuffle"]) < Fraction(row["L_hom_optimal"])):
                problems.append(f"mbar {row['mbar']}: L_shuffle {row['L_shuffle']!r} "
                                f"not below L_hom_optimal {row['L_hom_optimal']!r}")
        return problems

    def layer_counts(self, result):
        return {"cli.output_bytes": sum(len(o.stdout.encode()) for o in result)}

    def part_times(self, result):
        return {o.label: o.seconds for o in result}


WORKLOADS = {cls.name: cls for cls in (SimWorked, SimWideIV, AnalyticPool, CliSuite)}
