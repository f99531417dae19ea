"""Run every workload on several seeds and record the figures as JSON.

    python3 perfbench/record.py --out perfbench/baseline.json

Run from the repository root.  Each run is one ``perfbench/run.py`` process
on its own seed (1..RUNS), made one after another.  For every workload the
file holds each run's end-to-end metrics, their median, quartiles and spread
(quartile distance over median, as the acceptance rule computes it), the
per-layer metrics of one traced run, each run's human-readable lines (which
hold ``op_p90_s``, ``fail_ratio`` and the per-command times of
``cli-suite``), and the machine the runs were made on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUNS = 10


def run_once(workload: str, seed: int, trace: int, seconds: int) -> tuple[dict, list[str], float]:
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stdout}{proc.stderr}")
    return json.loads(lines[-1]), lines[:-1], wall


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    seconds = SPEC["run_seconds"]
    record = {
        "machine": {"python": platform.python_version(), "nproc": os.cpu_count(),
                    "cpu": cpu_model()},
        "run_seconds": seconds,
        "seeds": list(range(1, RUNS + 1)),
        "workloads": {},
    }
    for name in (w["name"] for w in SPEC["workloads"]):
        runs, logs, walls = [], [], []
        for seed in record["seeds"]:
            result, log, wall = run_once(name, seed, 0, seconds)
            runs.append({k: v["value"] for k, v in result["metrics"].items()}
                        | {"attempted": result["attempted"]})
            logs.append(log)
            walls.append(wall)
            print(name, seed, runs[-1], f"wall {wall:.1f}s", flush=True)
        traced, log, wall = run_once(name, 1, 1, seconds)
        record["workloads"][name] = {
            "end_to_end": {m["name"]: summary([r[m["name"]] for r in runs])
                           for m in SPEC["end_to_end"]},
            "runs": runs,
            "logs": logs,
            "run_wall_s": summary(walls),
            "traced_seed_1": {k: v["value"] for k, v in traced["metrics"].items()},
            "traced_log": log,
        }
        for metric, figures in record["workloads"][name]["end_to_end"].items():
            print(f"{name} {metric}: median {figures['median']:.6g} "
                  f"spread {figures['spread']:.4f}", flush=True)
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
