"""Benchmark of the superselect CLI, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload planted-sweep --seed 1 --seconds 30 --trace 0

Each run starts fresh worker processes (``worker.py``) with one BLAS
thread: one worker that runs the workload as a closed loop with a single
caller for about ``--seconds``, and, before and after it, set-up samples
that stop after set-up.  With ``--trace 0`` the run reports the end-to-end
metrics; with ``--trace 1`` the same worker alternates untraced and traced
passes and reports per-layer metrics (see ``layers.json``).  The package
is imported from ``src/`` of the checkout; nothing is installed.

The shared host's speed swings by up to 2.4x within seconds, so times
are reported at a fixed machine speed: the worker times a fixed numpy and
Python kernel right after set-up and between items, and scales set-up and
item times to a machine on which that kernel takes 5 ms
(``worker.SpeedProbe``).  Each item's time is the median over the passes
of the loop; ``items_per_s`` is one pass's items over the sum of those
times and ``item_p50_ms`` is their median.  The unscaled figures and the
probe's median time are in the details line.

Output: a line with the environment, counts and failure reasons, then, as
the last line, ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
# set-up is timed this many times before the loop and as many after it (plus
# the loop's own set-up); the median is reported
SETUP_SAMPLES_EACH_SIDE = 2
DEADLINE_S = 170.0


def spawn(args, mode: str, timeout: float) -> dict:
    """Run one worker to completion and return its JSON result."""
    # One BLAS thread: a single caller on a shared machine.  A fixed glibc
    # mmap threshold (its default starting value) returns freed large arrays
    # to the system, so peak RSS measures live memory, not heap fragmentation.
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", MALLOC_MMAP_THRESHOLD_="131072")
    cmd = [sys.executable, WORKER, "--root", ROOT, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    if args.tiny:
        cmd.append("--tiny")
    if args.inject_malformed:
        cmd.append("--inject-malformed")
    cmd += ["--spawned", repr(time.monotonic())]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"worker ({mode}) exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description="superselect CLI benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="reduced inputs (harness self-check)")
    ap.add_argument("--inject-malformed", action="store_true",
                    help="add one malformed operator file to every pass (harness self-check)")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "superselect", "cli.py")):
        print(f"error: no package source at {os.path.join(ROOT, 'src', 'superselect')}",
              file=sys.stderr)
        return 2

    t_start = time.monotonic()
    left = lambda: max(1.0, DEADLINE_S - (time.monotonic() - t_start))
    try:
        samples = [spawn(args, "setup", left()) for _ in range(SETUP_SAMPLES_EACH_SIDE)]
        main_run = spawn(args, "trace" if args.trace else "measure", left())
        samples.append(main_run)
        samples += [spawn(args, "setup", left()) for _ in range(SETUP_SAMPLES_EACH_SIDE)]
    finally:
        try:
            os.rmdir(os.path.join(ROOT, ".bench_work"))
        except OSError:
            pass

    attempted, failed = main_run["attempted"], main_run["failed"]
    if args.trace:
        metrics = {name: {"value": value, "unit": _layer_unit(name)}
                   for name, value in main_run["per_layer"].items()}
        metrics["cli.import_s"] = {
            "value": statistics.median(s["import_s"] for s in samples), "unit": "s"}
        metrics["trace.items_per_s_ratio"] = {"value": main_run["trace_ratio"],
                                              "unit": "ratio"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(s["setup_scaled_s"] for s in samples),
                        "unit": "s"},
            "items_per_s": {"value": len(main_run["item_s"]) / sum(main_run["item_s"]),
                            "unit": "1/s"},
            "item_p50_ms": {"value": 1000.0 * statistics.median(main_run["item_s"]),
                            "unit": "ms"},
            "ok_frac": {"value": 1.0 - failed / attempted, "unit": "frac"},
            "peak_rss_mb": {"value": main_run["peak_rss_mb"], "unit": "MB"},
        }
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": main_run["environment"],
        "counts": {k: main_run[k] for k in ("attempted", "completed", "failed",
                                            "passes", "items_per_pass", "samples")},
        "failed_frac": failed / attempted,
        "wall_items_per_s": main_run["completed"] / main_run["wall_s"],
        "item_p90_ms": (1000.0 * main_run["item_p90_s"]
                        if main_run["item_p90_s"] is not None else None),
        "item_p50_ms_by_label": {label: 1000.0 * t
                                 for label, t in main_run["item_p50_s_by_label"].items()},
        **({} if args.trace else {
            "unscaled_items_per_s": len(main_run["item_raw_s"]) / sum(main_run["item_raw_s"]),
            "unscaled_item_p50_ms": 1000.0 * statistics.median(main_run["item_raw_s"]),
            "probe_ms": 1000.0 * main_run["probe_s"]}),
        "setup_samples_s": [s["setup_s"] for s in samples],
        "setup_scaled_samples_s": [s["setup_scaled_s"] for s in samples],
        "warmup_errors": [s["warmup_error"] for s in samples if s["warmup_error"]],
        "failures": main_run["failures"],
    }
    print(json.dumps({"details": details}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _layer_unit(name: str) -> str:
    return {"calls": "calls/item", "self_s": "s/item", "errors": "count"}[name.rsplit(".", 1)[1]]


if __name__ == "__main__":
    sys.exit(main())
