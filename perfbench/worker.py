"""One benchmark worker: imports postlie, then runs at most one pass.

The parent starts this file as a fresh interpreter, so no cache carries
over from one pass to the next.  Protocol on stdin/stdout, one JSON line
each way:

1. once ``import postlie`` has finished, the worker prints ``ready``;
2. it reads a job ``{"workload", "seed", "trace", "spans_path", "only",
   "known_defects"}`` — or ``{}`` for a set-up probe, which exits at once;
3. it runs every op of the workload in the seed's order (with
   ``known_defects``, the workload's known-defect ops instead), one after
   the other, then checks the outputs and prints one result line.

Output checks run after the timed pass, with tracing off, so they neither
count in ``wall_s`` nor warm a cache that a later op of the pass would use.
"""

from __future__ import annotations

import json
import pathlib
import random
import resource
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import postlie

    if pathlib.Path(postlie.__file__).resolve().parent != ROOT / "src" / "postlie":
        raise SystemExit(f"imported postlie from {postlie.__file__}, not from this checkout")
    out = sys.stdout
    out.write("ready\n")
    out.flush()

    job = json.loads(sys.stdin.readline() or "{}")
    if not job:
        return 0

    import tracer as tracing
    import workloads

    workload = workloads.WORKLOADS[job["workload"]](ROOT)
    if job.get("known_defects"):
        ops = workload.known_defect_ops()
    else:
        ops = workload.ops()
        random.Random(job["seed"]).shuffle(ops)
        if job.get("only"):
            ops = [op for op in ops if op[0] in job["only"]]
        if not ops:
            raise SystemExit("no op of this workload matches the requested ids")

    tracer = None
    if job["trace"]:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        if tracer.missing:  # a renamed target would read 0 and shift its time elsewhere
            raise SystemExit(f"trace targets not found: {', '.join(tracer.missing)}")
        tracer.enabled = True

    outputs = []
    latencies = []
    pass_start = time.perf_counter()
    for op_id, payload in ops:
        if tracer is not None:
            tracer.op_id = op_id
        start = time.perf_counter()
        try:
            outputs.append((workload.run(payload), None))
        except Exception as exc:  # an op that raises is a failed op, not a failed run
            outputs.append((None, f"{type(exc).__name__}: {exc}"))
        latencies.append(time.perf_counter() - start)
    wall_s = time.perf_counter() - pass_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.enabled = False

    results = []
    for (op_id, payload), (output, error), latency in zip(ops, outputs, latencies):
        ok = decided = False
        if error is None:
            try:
                ok, decided = workload.check(payload, output)
            except Exception as exc:  # a check that cannot run counts against the op
                error = f"check raised {type(exc).__name__}: {exc}"
        results.append(
            {
                "id": op_id,
                "latency_s": latency,
                "ok": ok,
                "decided": decided,
                "verdict": getattr(output, "verdict", None),
                "error": error,
            }
        )

    result = {"wall_s": wall_s, "peak_rss_mb": peak_rss_mb, "ops": results}
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer)
        result["spans"] = len(tracer.spans)
        result["missing"] = tracer.missing
        if job.get("spans_path"):
            tracer.dump(job["spans_path"])
    out.write(json.dumps(result) + "\n")
    out.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
