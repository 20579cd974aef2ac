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
import time

import numpy as np

import twilight
from conftest import WORKLOADS_PATH
from superselect import cli, errors, opalgebra
from superselect.fileformat import load_operator_file

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
    seed = int(item.argv[1])
    s, _ = load_operator_file(item.argv[-1])
    gens = opalgebra.star_completion(s).members
    gens = gens / np.linalg.norm(gens, ord=2, axis=(1, 2))[:, None, None]
    first = opalgebra._generic_split(gens, seed, [(104,)], lambda g: True)
    assert opalgebra._cluster_separation(first) < opalgebra.SEED_SEPARATION
    assert opalgebra._word_closure_dim(s, seed) == 102


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


def perfbench_module(name):
    """A module of the benchmark harness, loaded from its file."""
    path = os.path.join(os.path.dirname(WORKLOADS_PATH), f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_is_reached(workloads, tmp_path):
    # the harness self-check's reachability condition: the seed-3 tiny items
    # of the three workloads call every function layers.json traces, and the
    # planted items call no case-study layer
    tracing, selfcheck = perfbench_module("tracing"), perfbench_module("selfcheck")
    tracer = tracing.Tracer(tracing.traced_functions())
    called = set()
    tracer.install()
    try:
        for name in workloads.WORKLOADS:
            workdir = tmp_path / name
            workdir.mkdir()
            items, _ = workloads.build(name, 3, str(workdir), tiny=True)
            first = len(tracer.spans)
            for item in items:
                cli.run_command(cli.build_parser().parse_args(list(item.argv)))
            hit = {tracer.names[span[0]] for span in tracer.spans[first:]}
            if name.startswith("planted"):
                assert sorted(f for f in hit if f.startswith(selfcheck.CASE_STUDY_LAYERS)) == []
            called |= hit
    finally:
        tracer.uninstall()
    assert sorted(set(tracer.names) - called) == []


def test_perturbed_input_with_a_one_dimensional_center(workloads, tmp_path):
    # a planted sweep input whose first generator carries 1e-5 of its norm
    # along a random Hermitian: S'' = M_5, so the center is the scalars.  Its
    # one basis element has an eigenvalue spread of about 1e-11, above the
    # clustering's 1e-12 noise floor, so a generic central element can split
    # into spurious clusters; a one-dimensional center takes no draw
    rng = np.random.default_rng(5)
    quota = workloads.sweep_pattern_quota(200)
    for _ in range(7):
        pattern = quota[rng.integers(200)]
        gens = workloads.planted_generators(rng, pattern)
        h = workloads._random_hermitian(rng, gens[0].shape[0])
        gens[0] = gens[0] + 1e-5 * np.linalg.norm(gens[0]) * h / np.linalg.norm(h)
    assert pattern == ((1, 3), (2, 1))
    path = str(tmp_path / "perturbed.json")
    workloads.write_operator_file(path, gens)
    report = cli.run_command(cli.build_parser().parse_args(["--seed", "6", "algebra", path]))
    structure = report.sections["structure"]
    assert report.all_passed
    assert (structure["generated_dim"], structure["center_dim"]) == (25, 1)


def test_twilight_recipe_ends_in_a_pass_or_a_typed_error(workloads, tmp_path):
    # run_recipe lets any exception other than a SuperselectError through;
    # a report whose checks fail is not an accepted outcome either
    outcomes = twilight.run_recipe(workloads, str(tmp_path))
    assert len(outcomes) == len(twilight.EPSILONS) * twilight.TRIALS
    typed = {name for name, cls in vars(errors).items()
             if isinstance(cls, type) and issubclass(cls, errors.SuperselectError)}
    assert sorted({o for _, _, o in outcomes} - typed - {"pass"}) == []


def test_commutant_redraws_a_poorly_separated_pattern_element(workloads, tmp_path):
    # planted-sweep seed 1901, item 58: the observables' first pattern element
    # has two clusters from different sectors a relative 6.1e-7 apart, and the
    # commutant solved on its eigenbasis lost the identity
    items, _ = workloads.build("planted-sweep", 1901, str(tmp_path))
    item = items[58]
    assert item.label == "algebra 1x1+2x2+2x3"
    run_twice(workloads, item)

    # a different seed leaves the algebra, hence the report's structure, alone
    def structure(seed):
        argv = ["--seed", seed, *item.argv[2:]]
        doc = json.loads(cli.run_command(cli.build_parser().parse_args(argv)).to_json_bytes())
        assert workloads.check(item, doc) is None, seed
        st = doc["sections"]["structure"]
        return (sorted((s["d"], s["ntilde"]) for s in doc["sections"]["sectors"]),
                st["observable_dim"], st["generated_dim"])

    planted = ([(1, 1), (2, 2), (3, 2)], 9, 14)
    for seed in (item.argv[1], "0", "1", "2", "3"):
        assert structure(seed) == planted, seed


def test_near_equal_bargmann_masses_pass_their_oracle(workloads, tmp_path):
    # case-studies seed 322 draws m1 = 1.383646 and m2 = 1.383169: the
    # difference's obstruction is 0.0054, small only because |m1 - m2| is
    items, _ = workloads.build("case-studies", 322, str(tmp_path))
    item = next(it for it in items if it.label == "bargmann")
    assert item.argv[-4:] == ("--m1", "1.383646", "--m2", "1.383169")
    run_twice(workloads, item)
