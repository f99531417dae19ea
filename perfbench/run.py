"""Run one codedmr benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sim-worked --seed 1 --seconds 25 --trace 0

Run from the repository root; the program is imported from ``src/``.  With
``--trace 0`` the workload's ops run until their summed wall time reaches
``--seconds``, each between two timings of a fixed reference kernel, and the
end-to-end metrics are reported.  With
``--trace 1`` each op of a fixed list runs once untraced and once under
the tracer, and the per-layer metrics are reported.  Every op's output is
checked for exactness.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is 0 when
every check passed, 1 when one failed, and 2 when the benchmark could not
run at all.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 11
REFERENCE_REPEATS = 3
SAMPLE_EVERY_S = 0.25
MAX_OPS = 100_000
MIN_P90_SAMPLES = 100
MAX_PROBLEMS_SHOWN = 5


class Tally:
    """Ops attempted and failed, with the first few problems for the log."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, i: int, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < MAX_PROBLEMS_SHOWN:
                self.problems.append(f"op {i}: " + "; ".join(problems))


def timed_op(workload, i: int):
    """Run op i; return (result or None, seconds, problems from running it)."""
    start = time.perf_counter()
    try:
        result = workload.op(i)
    except Exception as exc:  # a failing op counts against fail_ratio
        return None, time.perf_counter() - start, [f"{type(exc).__name__}: {exc}"]
    return result, time.perf_counter() - start, []


def checked(workload, i: int, result, problems: list[str]) -> list[str]:
    if problems:
        return problems
    try:
        return workload.check(i, result)
    except Exception as exc:  # a check that cannot read the result fails the op
        return [f"check raised {type(exc).__name__}: {exc}"]


def set_up(name: str, seed: int, workdir: Path):
    """Import the program, draw the inputs and warm up; return the workload."""
    program = workloads.import_program(SRC)
    workload = workloads.WORKLOADS[name](program, seed, workdir)
    workload.warm_up()
    return workload


def reference_s() -> float:
    """Best of REFERENCE_REPEATS wall times of a fixed pure-Python kernel.

    The kernel does the program's kinds of work (Fraction sums, keyed
    BLAKE2b digests, bit shifts) and none of its code, so its time tracks
    the speed of the machine, which on a shared host drifts by tens of
    percent within seconds, and not the speed of the program.
    """
    key = b"perfbench"
    best = float("inf")
    for _ in range(REFERENCE_REPEATS):
        start = time.perf_counter()
        total = Fraction(0)
        for i in range(1, 400):
            total += Fraction(i, 7 + i % 13)
        for i in range(1500):
            hashlib.blake2b(i.to_bytes(8, "big"), key=key, digest_size=4).digest()
        acc = 0
        for i in range(3000):
            acc = ((acc << 5) | (i & 31)) & 0xFFFFFFFF
        best = min(best, time.perf_counter() - start)
    return best


class SpeedSampler:
    """Reference-kernel times taken between ops and, on a timer, inside them.

    An op can last seconds, longer than the machine keeps one speed, so
    while ``inside()`` is active a SIGALRM handler times the kernel every
    SAMPLE_EVERY_S.  ``spent`` sums the handler's own wall time, which the
    caller takes off the op's time.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._busy = False

    def sample(self) -> None:
        if self._busy:  # the alarm fired during a sample
            return
        self._busy = True
        start = time.perf_counter()
        try:
            self.samples.append(reference_s())
        finally:
            self.spent += time.perf_counter() - start
            self._busy = False

    def _on_alarm(self, signum, frame):
        self.sample()

    @contextmanager
    def inside(self):
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


@dataclass
class Timings:
    """Per-op wall times, each divided by the reference time around it, and
    every reference time taken."""

    durations: list[float] = field(default_factory=list)
    scaled: list[float] = field(default_factory=list)
    references: list[float] = field(default_factory=list)
    parts: dict[str, list[float]] = field(default_factory=dict)


def measure(workload, seconds: float, tally: Tally, set_up_again=None) -> Timings:
    """Run ops until their summed wall time reaches ``seconds``.

    The reference kernel is timed before the first op, after every op and
    every SAMPLE_EVERY_S inside one.  Each op's time, less the kernel's time
    inside it, is recorded as is and divided by the mean of the reference
    times from the sample before it to the sample after it.
    ``set_up_again``, if given, is called after the op that crosses each
    1/(SETUP_REPEATS - 1) of ``seconds`` and returns the workload to go on
    with, so that the repeated set-ups sample the machine across the run.
    """
    timings = Timings()
    parts = timings.parts
    timed = 0.0
    checkpoint = step = seconds / (SETUP_REPEATS - 1)
    sampler = SpeedSampler()
    gc.collect()
    sampler.sample()
    for i in range(MAX_OPS):
        first, spent = len(sampler.samples) - 1, sampler.spent
        with sampler.inside():
            result, elapsed, problems = timed_op(workload, i)
        elapsed -= sampler.spent - spent
        sampler.sample()
        timings.durations.append(elapsed)
        timings.scaled.append(elapsed / statistics.fmean(sampler.samples[first:]))
        timed += elapsed
        tally.add(i, checked(workload, i, result, problems))
        if result is not None:
            for label, value in workload.part_times(result).items():
                parts.setdefault(label, []).append(value)
        if timed >= seconds:
            break
        if set_up_again is not None and timed >= checkpoint:
            workload = set_up_again()
            checkpoint = (timed // step + 1) * step
            gc.collect()
    timings.references = sampler.samples
    return timings


def end_to_end(timings: Timings, setups: list[float]) -> dict:
    return {
        "op_p50_refs": (statistics.median(timings.scaled), "refs"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced_pass(workload, tally: Tally) -> dict:
    """Each op of the fixed list once untraced, then once under the tracer.

    Alternating the two keeps a drift in machine speed out of the overhead.
    The wrapper cost is measured before the first traced op and after each
    one, and the median is used, for the same reason.
    """
    ops = range(workload.trace_ops)
    tracer = tracing.Tracer()
    costs = [tracing.call_cost()]
    untraced = traced = 0.0
    gc.collect()
    for i in ops:
        result, elapsed, problems = timed_op(workload, i)
        untraced += elapsed
        tally.add(i, checked(workload, i, result, problems))
        with tracer.installed():
            result, elapsed, problems = timed_op(workload, i)
        traced += elapsed
        costs.append(tracing.call_cost())
        tally.add(i, checked(workload, i, result, problems))
        if result is not None:
            for name, value in workload.layer_counts(result).items():
                tracer.count(name, value)
    metrics = tracing.layer_metrics(tracer, statistics.median(costs))
    metrics["trace.ops"] = (len(ops), "count")
    metrics["trace.outside_s"] = (traced - tracer.wrapped_s, "s")
    metrics["trace.ops_per_s"] = (len(ops) / traced, "1/s")
    metrics["trace.untraced_ops_per_s"] = (len(ops) / untraced, "1/s")
    metrics["trace.overhead"] = (traced / untraced, "ratio")
    return metrics


def report_lines(name: str, seed: int, tally: Tally, metrics: dict,
                 timings: Timings | None) -> list[str]:
    """The metrics, then unscaled wall-time figures the machine's drift moves."""
    lines = [f"workload {name} seed {seed}: {tally.attempted} ops, {tally.failed} failed"]
    lines += [f"  problem {p}" for p in tally.problems]
    for metric, (value, unit) in metrics.items():
        lines.append(f"  {metric:34s} {value:.6g} {unit}")
    if timings is not None:
        durations = timings.durations
        n = len(durations)
        p90 = (f"{statistics.quantiles(durations, n=10)[-1]:.6g} s"
               if n >= MIN_P90_SAMPLES else f"n/a (< {MIN_P90_SAMPLES} ops)")
        lines += [
            f"  {'ops_per_s':34s} {n / sum(durations):.6g} 1/s",
            f"  {'op_p50_s':34s} {statistics.median(durations):.6g} s",
            f"  {'op_p90_s':34s} {p90} (n={n})",
            f"  {'reference_p50_s':34s} {statistics.median(timings.references):.6g} s",
        ]
    lines.append(f"  {'fail_ratio':34s} {tally.failed / tally.attempted:.6g} "
                 f"({tally.failed}/{tally.attempted})")
    for label, values in (timings.parts if timings else {}).items():
        lines.append(f"  part {label:29s} p50 {statistics.median(values):.6g} s "
                     f"(n={len(values)})")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / workloads.PACKAGE / "__init__.py").is_file():
        print(f"error: no {workloads.PACKAGE} package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    tally = Tally()
    try:
        setups: list[float] = []

        def set_up_again():
            start = time.perf_counter()
            workload = set_up(args.workload, args.seed, workdir)
            setups.append(time.perf_counter() - start)
            return workload

        workload = set_up_again()
        if args.trace:
            timings = None
            metrics = traced_pass(workload, tally)
        else:
            timings = measure(workload, args.seconds, tally, set_up_again)
            while len(setups) < SETUP_REPEATS:
                set_up_again()
            metrics = end_to_end(timings, setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # absent, or still in use by another run
            pass

    for line in report_lines(args.workload, args.seed, tally, metrics, timings):
        print(line)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
