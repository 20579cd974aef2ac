"""One benchmark worker process: set-up, then a closed loop with one caller.

Set-up is everything from process start to the first timed item: the
interpreter, ``import superselect.cli``, writing the workload's input files
and one warm-up item.  Every item then goes through the package's real
entry point, ``superselect.cli.run_command``, exactly as ``main`` drives it:
parse the argv, run the command, render the report bytes.

Modes: ``setup`` stops after set-up; ``measure`` runs whole passes over the
workload's items until the loop is within half a pass of ``--seconds``;
``trace`` alternates untraced and traced passes the same way.  The result
is one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import bisect
import collections
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import tracing


class Tally:
    """Outcomes of the timed items; a failure is counted, never dropped."""

    def __init__(self, check):
        self.check = check
        self.attempted = self.completed = self.failed = 0
        self.times: list[float] = []
        self.indices: list[int] = []  # position in the pass of each timed item
        self.by_label: dict[str, list[float]] = collections.defaultdict(list)
        self.first_digest: dict[int, str] = {}
        self.reasons: collections.Counter = collections.Counter()

    def record(self, index: int, item, seconds: float, payload, error) -> None:
        self.attempted += 1
        self.times.append(seconds)
        self.indices.append(index)
        self.by_label[item.label].append(seconds)
        reason = error
        if error is None:
            self.completed += 1
            digest = hashlib.sha256(payload).hexdigest()
            if self.first_digest.setdefault(index, digest) != digest:
                reason = "report bytes differ from the item's first run"
            else:
                try:
                    reason = self.check(item, json.loads(payload))
                except (KeyError, TypeError, ValueError) as exc:
                    reason = f"unreadable report: {exc!r}"
        if reason is not None:
            self.failed += 1
            self.reasons[f"{item.label}: {reason}"] += 1


def run_item(cli, item):
    """(seconds, report bytes or None, error or None) of one CLI invocation."""
    t0 = time.perf_counter()
    try:
        args = cli.build_parser().parse_args(list(item.argv))
        payload = cli.run_command(args).to_json_bytes()
    except (Exception, SystemExit) as exc:
        return time.perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, payload, None


class SpeedProbe:
    """A fixed numpy and Python kernel, timed between items.

    The shared host's speed swings by up to 2.4x within seconds, and every
    item slows down with it.  The probe runs right after set-up, before an
    item whenever ``GAP_S`` has passed since it last ran, and once after the
    last item.  ``scaled`` multiplies each item's time by ``REFERENCE_S``
    over the median of the two probe times before the item and the two
    after it: what the item would take on a machine where the probe takes
    ``REFERENCE_S``.
    """

    REFERENCE_S = 0.005
    GAP_S = 0.2

    def __init__(self):
        import numpy as np  # here, so that cli.import_s includes numpy's import

        self.np = np
        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((48, 48)) + 1j * rng.standard_normal((48, 48))
        self.samples: list[tuple[int, float]] = []  # (items timed before it, seconds)
        self.last_end = -float("inf")

    def run(self, items_timed: int) -> None:
        t0 = time.perf_counter()
        for _ in range(4):
            self.np.linalg.svd(self.a)
            self.np.einsum("ij,jk->ik", self.a, self.a)
        x = 0.0
        for k in range(20000):
            x += k * 0.5
        self.last_end = time.perf_counter()
        self.samples.append((items_timed, self.last_end - t0))

    def tick(self, items_timed: int) -> None:
        if time.perf_counter() - self.last_end >= self.GAP_S:
            self.run(items_timed)

    def scaled(self, times: list[float]) -> list[float]:
        counts = [n for n, _ in self.samples]
        out = []
        for k, t in enumerate(times):
            after = bisect.bisect_right(counts, k)  # first probe after item k
            local = statistics.median(p for _, p in self.samples[max(0, after - 2):after + 2])
            out.append(t * self.REFERENCE_S / local)
        return out


def run_pass(cli, items, tally, tracer=None, first_id=0, probe=None) -> float:
    """Run every item once; returns the pass's wall time."""
    t0 = time.perf_counter()
    for index, item in enumerate(items):
        if tracer is not None:
            tracer.item = first_id + index
        if probe is not None:
            probe.tick(len(tally.times))
        tally.record(index, item, *run_item(cli, item))
    return time.perf_counter() - t0


def per_item_medians(tally, times: list[float], n_items: int) -> list[float]:
    """Median over the passes of each item's time, in pass order."""
    by_index: list[list[float]] = [[] for _ in range(n_items)]
    for index, t in zip(tally.indices, times):
        by_index[index].append(t)
    return [statistics.median(ts) for ts in by_index]


def measure(cli, items, tally, seconds: float, probe: SpeedProbe) -> dict:
    t0 = time.perf_counter()
    passes = 0
    while True:
        last = run_pass(cli, items, tally, probe=probe)
        passes += 1
        wall = time.perf_counter() - t0
        if wall + last / 2 > seconds:
            break
    probe.run(len(tally.times))
    return {"wall_s": wall, "passes": passes,
            "item_s": per_item_medians(tally, probe.scaled(tally.times), len(items)),
            "item_raw_s": per_item_medians(tally, tally.times, len(items)),
            "probe_s": statistics.median(t for _, t in probe.samples)}


def measure_traced(cli, items, tally, seconds: float) -> dict:
    tracer = tracing.Tracer(tracing.traced_functions())
    plain_s = traced_s = 0.0
    passes = 0
    t0 = time.perf_counter()
    while True:
        last = run_pass(cli, items, tally)
        plain_s += last
        tracer.install()
        try:
            dt = run_pass(cli, items, tally, tracer, first_id=passes * len(items))
        finally:
            tracer.uninstall()
        traced_s += dt
        last += dt
        passes += 1
        if time.perf_counter() - t0 + last / 2 > seconds:
            break
    traced_items = passes * len(items)
    per_layer = {}
    for name, row in tracer.totals().items():
        per_layer[f"{name}.calls"] = row["calls"] / traced_items
        per_layer[f"{name}.self_s"] = row["self_s"] / traced_items
        per_layer[f"{name}.errors"] = row["errors"]
    return {"wall_s": time.perf_counter() - t0, "passes": passes,
            "per_layer": per_layer, "trace_ratio": plain_s / traced_s}


# ---------------------------------------------------------------------------
# environment record

def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, when one can be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
        for path in paths:
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                if hasattr(lib, sym):
                    fn = getattr(lib, sym)
                    fn.argtypes, fn.restype = [], ctypes.c_int
                    return int(fn())
    except OSError:
        pass
    return None


def _src_digest(src: str) -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def environment(root: str) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    try:
        # the ceiling keeps git from reporting an enclosing repository's commit
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                text=True, timeout=10,
                                env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
                                ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads(),
                 "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")},
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "git_commit": commit,
        "src_sha256": _src_digest(os.path.join(root, "src")),
    }


# ---------------------------------------------------------------------------

def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--spawned", type=float, required=True,
                    help="time.monotonic() in the parent just before this process started")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--inject-malformed", action="store_true")
    args = ap.parse_args()

    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import superselect.cli as cli
    import_s = time.perf_counter() - t0
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"superselect was imported from {cli.__file__}, not from {src}")
    import workloads  # after the timed import, so numpy's import counts there

    workdir = os.path.join(args.root, ".bench_work", str(os.getpid()))
    os.makedirs(workdir)
    try:
        items, warmup = workloads.build(args.workload, args.seed, workdir, tiny=args.tiny)
        if args.inject_malformed:
            items.append(workloads.malformed_item(workdir))
        warmup_error = run_item(cli, warmup)[2]
        setup_s = time.monotonic() - args.spawned
        probe = SpeedProbe()
        for _ in range(3):
            probe.run(0)
        setup_probe_s = statistics.median(t for _, t in probe.samples)
        out = {"setup_s": setup_s, "import_s": import_s, "warmup_error": warmup_error,
               # set-up time at the probe's reference speed, as for the items
               "setup_scaled_s": setup_s * SpeedProbe.REFERENCE_S / setup_probe_s}
        if args.mode != "setup":
            tally = Tally(workloads.check)
            if args.mode == "measure":
                out.update(measure(cli, items, tally, args.seconds, probe))
            else:
                out.update(measure_traced(cli, items, tally, args.seconds))
            times = tally.times
            out.update({
                "items_per_pass": len(items),
                "attempted": tally.attempted, "completed": tally.completed,
                "failed": tally.failed, "failures": dict(tally.reasons),
                "samples": len(times),
                "item_p90_s": statistics.quantiles(times, n=10)[-1] if len(times) >= 100 else None,
                "item_p50_s_by_label": {label: statistics.median(ts)
                                        for label, ts in sorted(tally.by_label.items())},
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "environment": environment(args.root),
            })
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
