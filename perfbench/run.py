"""postlie benchmark: one workload, measured for a fixed time.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {grid,search,sweep} --seed N \\
        --seconds S --trace {0,1}

Each pass of the workload runs in a fresh worker process (``worker.py``), as
a single closed-loop client: the next op starts when the previous one has
finished.  One worker runs at a time.  The seed only permutes the op order
inside a pass; the same seed gives the same order.

``--trace 0`` reports the end-to-end metrics: medians over the passes that
fit in ``--seconds`` (at least one), and ``setup_s`` over those passes plus
batches of ``SETUP_BATCH`` set-up-only workers.  The batches run between
passes, at the start, at most every ``SETUP_EVERY_S`` seconds and at the
end, so that set-up is sampled over the whole run: on a shared machine its
time drifts over tens of seconds.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the traced
ones, with the tracing overhead (traced minus untraced ``wall_s``); span
files go to ``.perfbench_out/``.  A traced run fails, without a result, if
a function the tracer wraps is missing from the tree.

Every op's output is checked (see ``workloads.py``); an op that raises or
fails its check counts in ``failed`` and never stops the run.  After the
passes, one more worker checks the workload's known-defect inputs, untimed;
each still failing is reported on stderr and in the detail object as
``reproduced``, each now passing as ``fixed``.  The last stdout line is the
result object; the line before it is a detail object with the seed, the op
order, sample counts, the failed ops and the known defects.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

WORKLOADS = ("grid", "search", "sweep")
SETUP_BATCH = 10
SETUP_EVERY_S = 5.0
WORKER_TIMEOUT_S = 150.0
TAIL_BEYOND = 10  # samples the tail percentile must leave above it


class BenchmarkError(RuntimeError):
    pass


def _spawn() -> tuple[subprocess.Popen, float]:
    """Start a worker; return it with the seconds until it reported ready."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        cwd=ROOT,
        text=True,
    )
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise BenchmarkError("worker failed to start")
    return proc, setup_s


def _finish(proc: subprocess.Popen, job: dict) -> str:
    try:
        out, _ = proc.communicate(json.dumps(job) + "\n", timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchmarkError("worker timed out") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited with code {proc.returncode}")
    return out


def setup_probe() -> float:
    proc, setup_s = _spawn()
    _finish(proc, {})
    return setup_s


def run_pass(
    workload: str, seed: int, trace: bool, spans_path: str = "", only=None, known_defects=False
) -> dict:
    proc, setup_s = _spawn()
    job = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "spans_path": spans_path,
        "only": only,
        "known_defects": known_defects,
    }
    lines = _finish(proc, job).strip().splitlines()
    if not lines:
        raise BenchmarkError("worker printed no result")
    result = json.loads(lines[-1])
    result["setup_s"] = setup_s
    return result


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least TAIL_BEYOND samples above it.

    Returns ``(value, percentile, sample count)``.  With too few samples
    for that, the maximum is returned as percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    rank = n - TAIL_BEYOND  # 1-based rank of the tail sample
    return ordered[rank - 1], 100.0 * rank / n, n


def measure(workload: str, seed: int, seconds: float, trace: bool, only=None) -> tuple[dict, dict]:
    """Run passes for ``seconds``; return the result object and the detail.

    ``only`` restricts a pass to the listed op ids (the smoke check uses it).
    """
    setups: list[float] = []
    passes: list[dict] = []
    started = time.perf_counter()
    last_batch = -SETUP_EVERY_S
    while True:
        if not trace and time.perf_counter() - started - last_batch >= SETUP_EVERY_S:
            last_batch = time.perf_counter() - started
            setups += [setup_probe() for _ in range(SETUP_BATCH)]
        traced = trace and len(passes) % 2 == 1
        spans_path = str(OUT_DIR / f"spans-{workload}-seed{seed}.json") if traced else ""
        t0 = time.perf_counter()
        result = run_pass(workload, seed, traced, spans_path, only)
        result["traced"] = traced
        result["pass_s"] = time.perf_counter() - t0
        passes.append(result)
        elapsed = time.perf_counter() - started
        typical = statistics.median(p["pass_s"] for p in passes)
        if (not trace or len(passes) >= 2) and elapsed + typical > seconds:
            break
    if not trace:
        setups += [setup_probe() for _ in range(SETUP_BATCH)]
    known_defects = {
        op["id"]: "fixed" if op["ok"] else "reproduced"
        for op in run_pass(workload, seed, False, known_defects=True)["ops"]
    }

    untraced = [p for p in passes if not p["traced"]]
    all_ops = [op for p in passes for op in p["ops"]]
    attempted = len(all_ops)
    failed = sum(1 for op in all_ops if not op["ok"])
    decided = sum(1 for op in all_ops if op["decided"])
    op_counts = {len(p["ops"]) for p in passes}
    tails = [tail([op["latency_s"] for op in p["ops"]]) for p in untraced]
    detail = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "op_order_sha256": hashlib.sha256(
            "\n".join(op["id"] for op in passes[0]["ops"]).encode()
        ).hexdigest()[:16],
        "first_ops": [op["id"] for op in passes[0]["ops"][:5]],
        "passes": len(untraced),
        "pass_wall_s": [round(p["wall_s"], 4) for p in untraced],
        "traced_passes": len(passes) - len(untraced),
        "ops_per_pass": sorted(op_counts),
        "setup_samples": len(setups) + len(passes),
        "op_tail_percentile": tails[0][1],
        "op_tail_samples_per_pass": tails[0][2],
        "failed_ratio": {"value": failed / attempted, "unit": "ratio"},
        "decided": decided,
        "verdicts": dict(sorted(Counter(op["verdict"] for op in passes[0]["ops"] if op["verdict"]).items())),
        "failed_ops": sorted({op["id"] for op in all_ops if not op["ok"]}),
        "errors": sorted({op["error"] for op in all_ops if op["error"]}),
        "known_defects": known_defects,
    }
    if trace:
        traced_passes = [p for p in passes if p["traced"]]
        metrics = {
            name: (statistics.median(p["layers"][name][0] for p in traced_passes), unit)
            for name, (_, unit) in traced_passes[0]["layers"].items()
        }
        untraced_wall = statistics.median(p["wall_s"] for p in untraced)
        metrics["trace.overhead_s"] = (
            statistics.median(p["wall_s"] for p in traced_passes) - untraced_wall,
            "s",
        )
        metrics["trace.spans"] = (statistics.median(p["spans"] for p in traced_passes), "count")
        detail["untraced_wall_s"] = untraced_wall
        detail["missing_targets"] = traced_passes[0]["missing"]
    else:
        metrics = {
            "setup_s": (statistics.median(setups + [p["setup_s"] for p in passes]), "s"),
            "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
            "op_p50_s": (
                statistics.median(
                    statistics.median(op["latency_s"] for op in p["ops"]) for p in passes
                ),
                "s",
            ),
            "op_tail_s": (statistics.median(t[0] for t in tails), "s"),
            "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
            "decided_ratio": (decided / attempted, "ratio"),
        }
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return summary, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", nargs="+", help="run only these op ids (for checks and debugging)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "postlie" / "__init__.py").is_file():
        print(f"perfbench: no postlie source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
    try:
        summary, detail = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.ops)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for op_id, state in detail["known_defects"].items():
        print(f"perfbench: known defect {state}: {args.workload} op {op_id}", file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
