"""Run-to-run spread of the end-to-end metrics, as the acceptance rule takes it.

Usage, from the root of a checkout::

    python3 perfbench/spread.py

Runs ``perfbench/run.py --trace 0`` once per workload of ``BENCHMARK.json``
and seed 1..10, one run at a time, with ``run_seconds`` from
``BENCHMARK.json``.  For each metric it prints the median of the runs and
the spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound.  A spread above a third of its bound is marked, and
makes the exit code 1.  The last line is a JSON object with every run's
value of every metric.
"""

from __future__ import annotations

import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
SEEDS = range(1, 11)


def run_once(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(BENCH["run_seconds"]), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / median if median else 0.0


def main() -> int:
    report = {}
    steady = True
    for workload in WORKLOADS:
        runs = [run_once(workload, seed) for seed in SEEDS]
        report[workload] = {"failed": sum(run["failed"] for run in runs),
                            "attempted": sum(run["attempted"] for run in runs), "values": {}}
        for metric in BENCH["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [run["metrics"][name]["value"] for run in runs]
            median, share = spread(values)
            flag = "" if share <= bound / 3 else "  <-- above bound/3"
            steady &= not flag
            report[workload]["values"][name] = values
            print(f"{workload:7s} {name:14s} median {median:12.6g}  spread {share:7.4f}  bound {bound}{flag}")
        print(f"{workload:7s} failed {report[workload]['failed']}/{report[workload]['attempted']}")
        sys.stdout.flush()
    print(json.dumps(report))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
