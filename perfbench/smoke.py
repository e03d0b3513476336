"""Smoke check of the benchmark itself.

Usage, from the root of a checkout::

    python3 perfbench/smoke.py

Runs ``perfbench/run.py`` exactly as a measurement does, restricted with
``--ops`` to one quick op per workload, untraced and traced.  It asserts that
the last line is the result object, that it names every metric
``BENCHMARK.json`` lists with that metric's unit, that the op's output
check passed, and that the tracer found every function it wraps.  It also asserts that the benchmark refuses to report from a
copy holding only ``BENCHMARK.json`` and ``perfbench/``.  Exits 0 on success.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SMOKE_OPS = {"grid": "table", "search": "abelian_2/r2", "sweep": "so3.json"}


def run(cwd: pathlib.Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_result(workload: str, trace: int, expected: dict) -> None:
    proc = run(ROOT, "--workload", workload, "--seed", "0", "--seconds", "0",
               "--trace", str(trace), "--ops", SMOKE_OPS[workload])
    where = f"{workload} --trace {trace}"
    assert proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr}"
    *_, detail, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert json.loads(detail).get("missing_targets", []) == [], f"{where}: {detail}"
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True and result["failed"] == 0, f"{where}: {result}"
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, where
    assert set(result["metrics"]) == set(expected), (
        f"{where}: metrics differ: {sorted(set(result['metrics']) ^ set(expected))}"
    )
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}, f"{where}: {name}"
        assert metric["unit"] == expected[name], f"{where}: {name} unit {metric['unit']}"
        value = metric["value"]
        assert isinstance(value, (int, float)) and not isinstance(value, bool), f"{where}: {name}"


def check_refuses_without_source() -> None:
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "--workload", "grid", "--seed", "0", "--seconds", "1", "--trace", "0")
        assert proc.returncode != 0, "benchmark reported without a source tree"
        assert '"metrics"' not in proc.stdout, "benchmark printed a result without a source tree"
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for workload in (w["name"] for w in bench["workloads"]):
        check_result(workload, 0, end_to_end)
        check_result(workload, 1, per_layer)
        print(f"smoke: {workload} ok")
    check_refuses_without_source()
    print("smoke: refuses without a source tree ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
