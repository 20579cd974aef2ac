"""The benchmark's items pass its own oracle when run through the CLI.

``perfbench/workloads.py`` builds every benchmark input from a seed and
checks each report against the planted structure or the case study's
oracle.  A change that makes one of those checks fail shows up here, in the
test suite, and not only in a benchmark run.  One full-size input that
broke the word closure is kept as a regression case.
"""

import importlib
import importlib.util
import json
import os
import sys
import time

import numpy as np
import pytest

from superselect import cli, opalgebra
from superselect.fileformat import load_operator_file
from superselect.numkernel import ToleranceConfig

WORKLOADS_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                              "workloads.py")


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    # the dataclass decorator looks its module up in sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def run_twice(workloads, item):
    runs = [cli.run_command(cli.build_parser().parse_args(list(item.argv))).to_json_bytes()
            for _ in range(2)]
    assert runs[0] == runs[1], item.label
    assert workloads.check(item, json.loads(runs[0])) is None, item.label


def test_benchmark_items_pass_their_oracle(workloads, tmp_path):
    start = time.perf_counter()
    builds = [(name, seed, True) for name in workloads.WORKLOADS for seed in (3, 1135628272)]
    builds.append(("case-studies", 1135628272, False))
    for name, seed, tiny in builds:
        workdir = tmp_path / f"{name}-{seed}-{tiny}"
        workdir.mkdir()
        items, warmup = workloads.build(name, seed, str(workdir), tiny=tiny)
        for item in [warmup, *items]:
            run_twice(workloads, item)
    assert time.perf_counter() - start <= 10.0


def test_closure_seed_skips_a_poorly_separated_draw(workloads, tmp_path):
    # planted-wide seed 3: the first generic element of this item has two
    # clusters 1.1e-5 apart, and a closure seeded from its projectors filled
    # the 400-dimensional matrix space
    items, _ = workloads.build("planted-wide", 3, str(tmp_path))
    item = next(it for it in items if it.pattern == ((1, 7), (1, 7), (3, 2)))
    tol = ToleranceConfig(seed=int(item.argv[1]))
    s, _ = load_operator_file(item.argv[-1])
    gens = opalgebra.star_completion(s).members
    gens = gens / np.linalg.norm(gens, ord=2, axis=(1, 2))[:, None, None]
    first = opalgebra._generic_split(gens, tol, [(104,)], lambda g: True)
    assert opalgebra._cluster_separation(first) < opalgebra.SEED_SEPARATION
    assert opalgebra._word_closure_dim(s, tol) == 102


def test_traced_functions_resolve():
    # the benchmark's --trace run wraps every function perfbench/layers.json
    # names; a rename that leaves it stale fails here instead of in that run
    with open(os.path.join(os.path.dirname(WORKLOADS_PATH), "layers.json"),
              encoding="utf-8") as fh:
        layers = json.load(fh)["layers"]
    names = [(module, fn) for module, layer in layers.items() for fn in layer["functions"]]
    missing = [f"{module}.{fn}" for module, fn in names
               if not callable(getattr(importlib.import_module(f"superselect.{module}"),
                                       fn, None))]
    assert names and missing == []
