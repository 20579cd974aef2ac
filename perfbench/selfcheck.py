"""Quick self-check of the benchmark harness at tiny sizes (about a minute).

    python3 perfbench/selfcheck.py

Checks that every metric named in BENCHMARK.json is printed with its unit
on every workload, that each traced function is called on some workload
and the case-study layers are never called by the planted workloads, that
a malformed operator file is counted as a failure rather than skipped, and
that the benchmark refuses to run without the package source.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CASE_STUDY_LAYERS = ("parastat.", "fluxsectors.", "bargmann.", "cocycles.", "sectors.truncate.")


def require(ok: bool, detail) -> None:
    if not ok:
        raise SystemExit(f"selfcheck failed: {detail}")


def run(workload: str, trace: int, *extra: str, root: str = ROOT):
    cmd = [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


def result(proc) -> tuple[dict, dict]:
    require(proc.returncode == 0, proc.stderr[-2000:])
    lines = proc.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    require(set(res) == {"correct", "attempted", "failed", "metrics"}, sorted(res))
    require(isinstance(res["attempted"], int) and res["attempted"] >= 1
            and isinstance(res["failed"], int), res)
    return res, json.loads(lines[-2])["details"]


def check_metrics(res: dict, spec: list[dict]) -> None:
    expected = {m["name"]: m["unit"] for m in spec}
    got = res["metrics"]
    require(set(got) == set(expected), sorted(set(got) ^ set(expected)))
    for name, unit in expected.items():
        require(got[name]["unit"] == unit, (name, got[name]["unit"], unit))
        value = got[name]["value"]
        require(isinstance(value, (int, float)) and math.isfinite(value), (name, value))


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    called: set[str] = set()
    for workload in (w["name"] for w in bench["workloads"]):
        res, _ = result(run(workload, 0, "--tiny"))
        require(res["correct"] and res["failed"] == 0, res)
        check_metrics(res, bench["end_to_end"])
        res, _ = result(run(workload, 1, "--tiny"))
        require(res["correct"] and res["failed"] == 0, res)
        check_metrics(res, bench["per_layer"])
        hit = {name[: -len(".calls")] for name, m in res["metrics"].items()
               if name.endswith(".calls") and m["value"] > 0}
        if workload.startswith("planted"):
            require(not [f for f in hit if f.startswith(CASE_STUDY_LAYERS)], sorted(hit))
        called |= hit
        print(f"ok  {workload}: end-to-end and per-layer metrics printed with units")
    traced = {m["name"][: -len(".calls")] for m in bench["per_layer"]
              if m["name"].endswith(".calls")}
    require(called == traced, f"never called: {sorted(traced - called)}")
    print(f"ok  all {len(traced)} traced functions called on some workload")

    res, details = result(run("planted-sweep", 0, "--tiny", "--inject-malformed"))
    require(not res["correct"] and res["failed"] >= 1, res)
    require(res["metrics"]["ok_frac"]["value"] < 1.0 and details["failed_frac"] > 0.0, details)
    require(any(k.startswith("malformed operator file: ParseError")
                for k in details["failures"]), details["failures"])
    print(f"ok  malformed operator file counted: failed {res['failed']} of {res['attempted']}")

    bare = os.path.join(ROOT, ".bench_work", "selfcheck-bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        proc = run("planted-sweep", 0, root=bare)
        require(proc.returncode != 0 and '"metrics"' not in proc.stdout, proc.stdout)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            os.rmdir(os.path.join(ROOT, ".bench_work"))
        except OSError:
            pass
    print("ok  refuses to run without the package source")
    return 0


if __name__ == "__main__":
    sys.exit(main())
