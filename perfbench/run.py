"""k-SIR stream benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  Workloads, metric names and units are those of
``BENCHMARK.json``.  ``--trace 0`` prints the end-to-end metrics of an
untraced run; ``--trace 1`` runs the same untraced phase, then a traced
phase, and prints the per-layer metrics with the tracing overhead.

The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``.  The line before it
is the full record (seed, SHA, nproc, sample counts, set-up times,
checks), which is also appended to ``.perfbench_work/results.jsonl``;
traced runs write their spans next to it.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench_work")

#: end-to-end metric whose traced/untraced ratio is reported as the
#: tracing overhead of each workload
HEADLINE = {
    "ingest-reddit": "bucket_p50_ms",
    "query-aminer": "mtts_p50_ms",
    "live-twitter": "mtts_p50_ms",
    "stream-spark": "bucket_p50_ms",
}


def _source_id() -> dict:
    """Git SHA when the checkout is a repository, and a digest of src/."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        dirs.sort()
        for f in sorted(files):
            if f.endswith(".py"):
                path = os.path.join(base, f)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return {"git_sha": sha, "src_sha256": h.hexdigest()}


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    # live-twitter and stream-spark are run by hand only: see README.md
    names = [w["name"] for w in spec["workloads"]] + ["live-twitter", "stream-spark"]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "core", "__init__.py")):
        print(f"perfbench: no program under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    os.makedirs(WORK, exist_ok=True)

    from common import peak_rss_mb, pct
    from tracer import Tracer
    from workloads import LIVE_UNITS, WORKLOADS

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(LIVE_UNITS)
    run_id = f"{args.workload}-s{args.seed}-{os.getpid()}-{int(time.time())}"
    tracer = Tracer(run_id) if args.trace else None
    start = time.perf_counter()
    if args.workload == "stream-spark":
        from spark_stream import UNITS, stream_spark

        units.update(UNITS)
        out = stream_spark(args.seed, args.seconds, tracer, WORK)
    else:
        out = WORKLOADS[args.workload](args.seed, args.seconds, tracer)
    wall_s = time.perf_counter() - start

    e2e = dict(out.metrics)
    e2e["setup_s"] = pct(out.setup_reps, 50)
    e2e["peak_rss_mb"] = peak_rss_mb()
    if tracer is not None:
        spans = out.spans or tracer.spans
        out.layers["trace.overhead_pct"] = 100.0 * (
            out.traced[HEADLINE[args.workload]] / e2e[HEADLINE[args.workload]] - 1.0)
        with open(os.path.join(WORK, f"spans-{run_id}.jsonl"), "w", encoding="utf-8") as f:
            for s in spans:
                f.write(json.dumps(s, default=str) + "\n")
        shown = out.layers
    else:
        shown = e2e
    unknown = sorted(set(shown) - set(units))
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
    if args.workload in [w["name"] for w in spec["workloads"]]:
        wanted = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
        missing = sorted(wanted - set(shown))
        if missing:
            raise KeyError(f"{args.workload} did not measure {missing}")

    correct = out.failed == 0 and out.attempted > 0
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, **_source_id(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "wall_s": wall_s,
        "setup_s_reps": out.setup_reps, "warmup_s": out.warmup_s,
        "samples": out.samples, "attempted": out.attempted, "failed": out.failed,
        "error_rate": out.failed / max(1, out.attempted), "problems": out.problems,
        "metrics": e2e, "layers": out.layers,
        "trace_overhead": {k: v - e2e[k] for k, v in out.traced.items() if k in e2e},
        "info": out.info,
    }
    line = json.dumps(record, default=str)
    with open(os.path.join(WORK, "results.jsonl"), "a", encoding="utf-8") as f:
        f.write(line + "\n")
    for problem in out.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(line)
    print(json.dumps({
        "correct": correct, "attempted": out.attempted, "failed": out.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in shown.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
