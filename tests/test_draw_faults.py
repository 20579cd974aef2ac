"""The draw-fault matrix: a faulty generic draw can make a check fail, never pass wrongly.

Every structural decision that draws takes a seeded generic Hermitian
element, ``opalgebra._generic_hermitian_combo``, from the stream
``default_rng([seed, *salt])``, and each draw site argues that a draw which
generates less can only make a guard fail.  Here the draws of one structural
leading salt at a time are replaced by a fault, on planted-sweep items and
two parastat sizes of the benchmark at seed 7.  Every run must end in a
report whose checks pass with the planted structure (or the character
oracle's), a report whose checks fail, or a ``SuperselectError``; a report
that passes with any other structure fails the test.

A run is faulted only at the salts its unfaulted run draws from: elsewhere
the fault changes nothing.  Run as a script from the repository root to
print the outcomes per fault and leading salt, then the census of what
caught each fault: the names of the failed checks, or the error and the
function of ``superselect`` that raised it:

    PYTHONPATH=src python tests/test_draw_faults.py
"""

import collections
import json
import os
import tempfile
import traceback
from functools import partial

import numpy as np
import pytest

import test_numkernel
from superselect import cli, opalgebra
from superselect.errors import SuperselectError
from superselect.fileformat import load_operator_file
from superselect.numkernel import cluster_eigenvalues
from superselect.opalgebra import commutant
from superselect.sectors import central_decomposition

# the leading salts of the generic Hermitian draws; 203 and 401-404 draw no
# such element and decide no structure
STRUCTURAL_SALTS = (101, 102, 104, 105, 106, 107, 201, 202, 204, 205, 206)
SWEEP_ITEMS = 20
PARASTAT_ITEMS = ("parastat n=2 d=2", "parastat n=3 d=2")


def near_degenerate(members, h):
    """``h`` with its lowest eigenvalue cluster moved a relative 1e-7 below the next one.

    The element stays a function of ``h``, so it lies in the same algebra;
    its two closest eigenvalues are ``1e-7`` of the spectral radius apart,
    the regime in which eigenvectors carry roundoff of about ``eps / 1e-7``
    across the gap (Davis-Kahan).
    """
    w, v = np.linalg.eigh(h)
    groups = cluster_eigenvalues(w)
    if len(groups) < 2:
        return h
    w[groups[0]] = w[groups[1]].mean() - 1e-7 * np.max(np.abs(w))
    x = (v * w) @ v.conj().T
    return 0.5 * (x + x.conj().T)


DRAW_FAULTS = {
    "scalar": lambda members, h: np.eye(h.shape[0], dtype=complex),
    "first member": lambda members, h: 0.5 * (members[0] + members[0].conj().T),
    "near-degenerate": near_degenerate,
}


def patch_draws(monkeypatch, salt=None, fault=None, reached=None):
    """Replace the draws at leading salt ``salt`` by ``DRAW_FAULTS[fault]``.

    Every draw is still made, so the stream advances as it would.  The
    leading salt of each draw is added to ``reached`` when given.
    """
    real = opalgebra._generic_hermitian_combo

    def combo(members, rng):
        h = real(members, rng)
        lead = rng.bit_generator.seed_seq.entropy[1]
        if reached is not None:
            reached.add(lead)
        return DRAW_FAULTS[fault](members, h) if lead == salt else h

    monkeypatch.setattr(opalgebra, "_generic_hermitian_combo", combo)


def raise_site(exc) -> str:
    """The error's name and the module and function that raised it."""
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    module = os.path.splitext(os.path.basename(frame.filename))[0]
    return f"{type(exc).__name__} in {module}.{frame.name}"


def command_outcome(workloads, item):
    """``(outcome, caught by)``; a wrong pass asserts.

    The outcome is ``"pass"``, ``"fail"`` or the ``SuperselectError`` raised.
    What caught a run that did not pass is the names of the failed checks,
    or the error's :func:`raise_site`.
    """
    try:
        report = cli.run_command(cli.build_parser().parse_args(list(item.argv)))
    except SuperselectError as exc:
        return type(exc).__name__, raise_site(exc)
    if not report.all_passed:
        return "fail", "; ".join(c["name"] for c in report.checks if not c["passed"])
    assert workloads.check(item, json.loads(report.to_json_bytes())) is None, item.label
    return "pass", None


def decomposition_outcome(item):
    """The decomposition of a planted item's observables with no commutant passed in.

    No command takes this path, the one that draws at salt 206.  The result
    is as in :func:`command_outcome`.
    """
    seed = int(item.argv[1])
    s, _ = load_operator_file(item.argv[-1])
    try:
        dec = central_decomposition(commutant(s, seed), seed)
    except SuperselectError as exc:
        return type(exc).__name__, raise_site(exc)
    # the observables' sector factors are the planted ones swapped
    assert sorted((nt, d) for d, nt in dec.multiset()) == sorted(item.pattern), item.label
    return "pass", None


def build_runs(workloads, workdir: str):
    """``(label, run, reached salts)`` of every unfaulted run, each a correct pass.

    The runs are the first ``SWEEP_ITEMS`` planted-sweep patterns at seed 7,
    through the command and through the decomposition alone, and the
    parastat items.  Their input files are written under ``workdir``.
    """
    dirs = {name: os.path.join(workdir, name) for name in ("planted-sweep", "case-studies")}
    for path in dirs.values():
        os.makedirs(path, exist_ok=True)
    sweep, _ = workloads.build("planted-sweep", 7, dirs["planted-sweep"])
    by_pattern = {}
    for item in sweep:
        by_pattern.setdefault(item.pattern, item)
    planted = list(by_pattern.values())[:SWEEP_ITEMS]
    cases, _ = workloads.build("case-studies", 7, dirs["case-studies"])
    commands = planted + [item for item in cases if item.label in PARASTAT_ITEMS]
    out = []
    for label, run in ([(it.label, partial(command_outcome, workloads, it)) for it in commands]
                       + [(f"decompose {it.label}", partial(decomposition_outcome, it))
                          for it in planted]):
        reached = set()
        with pytest.MonkeyPatch.context() as m:
            patch_draws(m, reached=reached)
            assert run()[0] == "pass", label
        out.append((label, run, reached))
    return out


def run_matrix(runs, fault, census=None):
    """``(label, salt, outcome)`` of every run faulted at each salt it reaches, in turn.

    When ``census`` is given, a counter, it counts ``(salt, what caught the
    fault)`` over the runs that did not pass.
    """
    outcomes = []
    for label, run, reached in runs:
        for salt in sorted(reached):
            with pytest.MonkeyPatch.context() as m:
                patch_draws(m, salt, fault)
                outcome, caught = run()
            outcomes.append((label, salt, outcome))
            if census is not None and caught is not None:
                census[salt, caught] += 1
    return outcomes


def outcome_table(matrix) -> str:
    """Outcome counts per fault and leading salt, and per fault in all, as a markdown table."""
    names = sorted({o for outcomes in matrix.values() for _, _, o in outcomes},
                   key=lambda o: (o != "pass", o != "fail", o))
    rows = [("fault", "salt", *names), ("---",) * (len(names) + 2)]
    for fault, outcomes in matrix.items():
        for salt in sorted({s for _, s, _ in outcomes}):
            counts = collections.Counter(o for _, s, o in outcomes if s == salt)
            rows.append((fault, str(salt), *(str(counts[n]) for n in names)))
        total = collections.Counter(o for _, _, o in outcomes)
        rows.append((fault, "all", *(str(total[n]) for n in names)))
    return "\n".join("| " + " | ".join(row) + " |" for row in rows)


def census_table(censuses) -> str:
    """What caught each fault, per fault and leading salt, with its count, as a markdown table."""
    rows = [("fault", "salt", "caught by", "runs"), ("---",) * 4]
    for fault, census in censuses.items():
        rows += [(fault, str(salt), why, str(count))
                 for (salt, why), count in sorted(census.items())]
    return "\n".join("| " + " | ".join(row) + " |" for row in rows)


@pytest.fixture(scope="module")
def runs(workloads, tmp_path_factory):
    return build_runs(workloads, str(tmp_path_factory.mktemp("draws")))


def test_every_structural_salt_is_reached(runs):
    assert len(runs) == 2 * SWEEP_ITEMS + len(PARASTAT_ITEMS)
    assert set(STRUCTURAL_SALTS) <= set(test_numkernel.TestSeededStreams.CENSUS)
    # and no other leading salt draws a generic element
    assert sorted(set().union(*(reached for _, _, reached in runs))) == sorted(STRUCTURAL_SALTS)


@pytest.mark.parametrize("fault", DRAW_FAULTS)
def test_a_faulty_draw_never_passes_wrongly(runs, fault):
    outcomes = collections.Counter(o for _, _, o in run_matrix(runs, fault))
    # the fault bites: some runs end in a failed check or a typed error
    assert outcomes["pass"] < sum(outcomes.values())


if __name__ == "__main__":
    from conftest import load_workloads

    with tempfile.TemporaryDirectory() as workdir:
        runs = build_runs(load_workloads(), workdir)
        censuses = {fault: collections.Counter() for fault in DRAW_FAULTS}
        print(outcome_table({fault: run_matrix(runs, fault, censuses[fault])
                             for fault in DRAW_FAULTS}))
        print()
        print(census_table(censuses))
