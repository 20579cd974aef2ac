"""The twilight recipe: planted inputs pushed off their algebra by a small eps.

For each eps in ``EPSILONS``, take ``rng = default_rng(round(-log10 eps))``.
Then, for each of 25 trials, draw a planted-sweep quota pattern and its
``planted_generators``, add ``eps * ||G0|| * h / ||h||`` (h a random
Hermitian) to the first generator, and run ``--seed trial algebra`` on it.
Near the tolerances the structure is ambiguous, so an input may fail; the
outcome is ``pass``, ``fail`` (a report whose checks fail) or the name of the
``SuperselectError`` it raised.  Any other exception propagates.

The inputs come from ``perfbench/workloads.py``.  Run as a script from the
repository root to print the outcome table:

    PYTHONPATH=src python tests/twilight.py
"""

from __future__ import annotations

import collections
import math
import os
import tempfile

import numpy as np

from superselect import cli
from superselect.errors import SuperselectError

EPSILONS = (1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-9, 1e-10, 1e-11)
TRIALS = 25


def recipe_inputs(workloads):
    """Yield ``(eps, trial, generators)`` for every input of the recipe, in order."""
    quota = workloads.sweep_pattern_quota(workloads.SWEEP_POOL)
    for eps in EPSILONS:
        rng = np.random.default_rng(round(-math.log10(eps)))
        for trial in range(TRIALS):
            pattern = quota[rng.integers(len(quota))]
            gens = workloads.planted_generators(rng, pattern)
            h = workloads._random_hermitian(rng, gens[0].shape[0])
            gens[0] = gens[0] + eps * np.linalg.norm(gens[0]) * h / np.linalg.norm(h)
            yield eps, trial, gens


def run_recipe(workloads, workdir: str) -> list[tuple[float, int, str]]:
    """Run every recipe input through the ``algebra`` command; ``(eps, trial, outcome)``."""
    path = os.path.join(workdir, "twilight.json")
    outcomes = []
    for eps, trial, gens in recipe_inputs(workloads):
        workloads.write_operator_file(path, gens)
        args = cli.build_parser().parse_args(["--seed", str(trial), "algebra", path])
        try:
            outcome = "pass" if cli.run_command(args).all_passed else "fail"
        except SuperselectError as exc:
            outcome = type(exc).__name__
        outcomes.append((eps, trial, outcome))
    return outcomes


def outcome_table(outcomes) -> str:
    """Counts per eps and in total, one row each, as a markdown table."""
    names = sorted({o for _, _, o in outcomes}, key=lambda o: (o != "pass", o))
    rows = [("eps", *names), ("---",) * (len(names) + 1)]
    for eps in EPSILONS:
        counts = collections.Counter(o for e, _, o in outcomes if e == eps)
        rows.append((f"{eps:g}", *(str(counts[n]) for n in names)))
    total = collections.Counter(o for _, _, o in outcomes)
    rows.append(("all", *(str(total[n]) for n in names)))
    return "\n".join("| " + " | ".join(row) + " |" for row in rows)


if __name__ == "__main__":
    from conftest import load_workloads

    with tempfile.TemporaryDirectory() as workdir:
        print(outcome_table(run_recipe(load_workloads(), workdir)))
