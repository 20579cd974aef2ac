"""The large-pattern recipe: the six extreme planted patterns at n = 56-64.

Each pattern ``((d, ntilde), ...)`` is planted as ``planted_block_algebra(
default_rng(5), pattern)`` builds it, the input of the CLI tests, and
``algebra`` runs on it through ``main`` in a fresh interpreter of its own,
with one BLAS thread and ``MALLOC_MMAP_THRESHOLD_=131072``, so that each
row's wall time (inside ``main``) and peak RSS are that pattern's alone.
A row passes when the command exits 0, every report check passes, and the
sectors and the dimensions of O and S'' are the planted ones.

Run as a script from the repository root to print the table, with an
optional number of runs per pattern:

    PYTHONPATH=src python tests/large_patterns.py [RUNS]
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

import numpy as np

import superselect
from conftest import planted_block_algebra

PATTERNS = (
    ((1, 64),),
    ((8, 8),),
    ((4, 4), (2, 12), (1, 24)),
    ((20, 1), (36, 1)),
    ((32, 1), (32, 1)),
    ((64, 1),),
)
SMALLEST = ((4, 4), (2, 12), (1, 24))
RECIPE_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "MALLOC_MMAP_THRESHOLD_": "131072"}

# main in a fresh interpreter, which reports its own time in main and its own
# peak RSS, so that the figures are this item's alone.  The peak is Linux's
# VmHWM: ru_maxrss survives execve, so a child started from a larger process
# (a test run) would report that process's peak instead of its own.
MEASURED_MAIN = """
import json, resource, sys, time
from superselect.cli import main
t0 = time.perf_counter()
code = main(sys.argv[1:])
elapsed = time.perf_counter() - t0
try:
    with open("/proc/self/status") as fh:
        peak_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
except OSError:
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"code": code, "seconds": elapsed, "peak_rss_mb": peak_kb / 1024.0}),
      file=sys.stderr)
"""


def measured_main(argv, env=None):
    """``(exit code, stdout, stderr, seconds in main, peak RSS in MB)`` of ``main(argv)``.

    The child runs the imported ``superselect`` package, with the current
    environment updated by ``env``.
    """
    src = os.path.dirname(os.path.dirname(superselect.__file__))
    env = dict(os.environ, **(env or {}),
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", MEASURED_MAIN, *argv], capture_output=True,
                         text=True, env=env, check=False, timeout=120)
    assert out.returncode == 0, out.stderr
    *err, last = out.stderr.splitlines()
    stats = json.loads(last)
    return stats["code"], out.stdout, "\n".join(err), stats["seconds"], stats["peak_rss_mb"]


def write_planted(path: str, pattern, scales=None) -> str:
    """Write the planted generators of ``pattern`` (``default_rng(5)``) as an operator file."""
    gens, _ = planted_block_algebra(np.random.default_rng(5), pattern)
    if scales is not None:
        gens = [c * g for c, g in zip(scales, gens)]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"dim": gens[0].shape[0],
                   "operators": [{"name": f"G{i}", "re": g.real.tolist(), "im": g.imag.tolist()}
                                 for i, g in enumerate(gens)]}, fh)
    return path


def run_pattern(pattern, workdir: str) -> dict:
    """One recipe row: ``algebra`` on the planted pattern in its own process."""
    path = write_planted(os.path.join(workdir, "planted.json"), pattern)
    code, out, err, seconds, rss_mb = measured_main(["algebra", path], RECIPE_ENV)
    doc = json.loads(out) if code == 0 else None
    ok = doc is not None and all(c["passed"] for c in doc["sections"]["checks"])
    if ok:
        st = doc["sections"]["structure"]
        ok = (sorted((s["ntilde"], s["d"]) for s in doc["sections"]["sectors"])
              == sorted(pattern)
              and st["observable_dim"] == sum(d * d for d, _ in pattern)
              and st["generated_dim"] == sum(t * t for _, t in pattern))
    return {"pattern": pattern, "n": sum(d * t for d, t in pattern), "code": code, "ok": ok,
            "seconds": seconds, "peak_rss_mb": rss_mb, "error": err}


def table(rows) -> str:
    """The rows as a markdown table, one line per run."""
    lines = ["| pattern (d, ntilde) | n | ok | wall s | peak RSS MB |",
             "| --- | --- | --- | --- | --- |"]
    lines += [f"| `{r['pattern']}` | {r['n']} | {r['ok']} | {r['seconds']:.2f} | "
              f"{r['peak_rss_mb']:.0f} |" for r in rows]
    return "\n".join(lines)


if __name__ == "__main__":
    runs = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    with tempfile.TemporaryDirectory() as workdir:
        print(table([run_pattern(p, workdir) for _ in range(runs) for p in PATTERNS]))
