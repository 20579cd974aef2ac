import argparse
import importlib
import json
import os
import re
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from conftest import pairwise_max_commutator, planted_block_algebra
from large_patterns import SMALLEST, measured_main, run_pattern, write_planted
import superselect
from superselect import bargmann, cli, cocycles, parastat
from superselect import opalgebra, sectors
from superselect.cli import build_parser, main, run_command
from superselect.errors import PostconditionFailure
from superselect.numkernel import RANK_TOL, random_hermitian, random_unitary
from superselect.opalgebra import check_dirac, commutant
from superselect.sectors import central_decomposition


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def opset_path(tmp_path):
    return write(tmp_path, "ops.json", {
        "dim": 3,
        "operators": [{"name": "A",
                       "re": np.diag([1.0, 1.0, 2.0]).tolist(),
                       "im": np.zeros((3, 3)).tolist()}],
    })


@pytest.fixture
def pauli_group_path(tmp_path):
    idx = range(4)
    table = [[2 * (((i // 2) + (j // 2)) % 2) + ((i % 2) + (j % 2)) % 2
              for j in idx] for i in idx]
    xi = [[np.pi * (i % 2) * (j // 2) for j in idx] for i in idx]
    return write(tmp_path, "pauli.json", {"order": 4, "table": table, "xi": xi})


@pytest.fixture
def dynamics_path(tmp_path):
    return write(tmp_path, "dyn.json", {
        "masses": [1.0, 2.0], "x": [[0, 0, 0], [1.5, 0, 0]],
        "p": [[0, 0.3, 0], [0, -0.2, 0.1]], "lambda": [0.0, 0.0],
        "dt": 1e-3, "steps": 1000,
        "potential": {"kind": "harmonic", "k": 1.0, "L": 1.0},
        "element": {"theta": 0.3, "axis": [0, 0, 1], "angle": 0.8,
                    "v": [0.2, -0.1, 0.3], "a": [1.0, 0.5, -0.2], "b": 0.4},
    })


def run(args):
    return run_command(build_parser().parse_args(args))


def planted_file(tmp_path, pattern, scales=None):
    return write_planted(str(tmp_path / "planted.json"), pattern, scales)


def operator_file(tmp_path, name, gens):
    return write(tmp_path, name, {
        "dim": gens[0].shape[0],
        "operators": [{"name": f"G{i}", "re": g.real.tolist(), "im": g.imag.tolist()}
                      for i, g in enumerate(gens)]})


class TestAlgebraCommand:
    def test_block_diagonal_input(self, opset_path):
        # observables = everything commuting with diag(1,1,2): M2 (+) M1
        report = run(["algebra", opset_path])
        assert report.all_passed
        st = report.sections["structure"]
        assert st["observable_dim"] == 5 and st["generated_dim"] == 2
        assert st["center_dim"] == 2 and st["dirac_v2_holds"]
        assert st["witness_dim"] == 3
        assert sorted(s["block_dim"] for s in report.sections["sectors"]) == [1, 2]
        assert all(s["d"] == 1 for s in report.sections["sectors"])

    def test_tensor_factor_input(self, tmp_path):
        # observables commuting with M2 (x) 1 are 1 (x) M2: non-abelian partner
        path = write(tmp_path, "m2x1.json", {
            "dim": 4,
            "operators": [
                {"name": "X1", "re": np.kron([[0, 1], [1, 0]], np.eye(2)).tolist(),
                 "im": np.zeros((4, 4)).tolist()},
                {"name": "Z1", "re": np.kron([[1, 0], [0, -1]], np.eye(2)).tolist(),
                 "im": np.zeros((4, 4)).tolist()},
            ]})
        report = run(["algebra", path])
        assert not report.sections["structure"]["dirac_v2_holds"]
        assert report.sections["structure"]["witness_dim"] is None
        assert report.all_passed  # a false verdict is a result, not a failure

    def test_empty_operator_list_is_an_input_error(self, tmp_path, capsys):
        path = write(tmp_path, "empty.json", {"dim": 2, "operators": []})
        assert main(["algebra", path]) == 1
        assert "error" in capsys.readouterr().err

    def test_mixed_scale_input_is_star_completed(self, tmp_path):
        ops = [1e6 * np.eye(2), 1e-6 * np.array([[0.0, 1.0], [0.0, 0.0]])]
        path = write(tmp_path, "mixed.json", {
            "dim": 2,
            "operators": [{"name": f"G{i}", "re": g.tolist(), "im": np.zeros((2, 2)).tolist()}
                          for i, g in enumerate(ops)]})
        report = run(["algebra", path])
        assert report.sections["input"]["star_completed"] is True
        assert report.sections["input"]["generators_after_completion"] == 4
        assert report.sections["structure"]["generated_dim"] == 4
        assert report.all_passed

    @pytest.mark.parametrize("scale", [1e8, 1e-8])
    def test_generator_residual_is_relative(self, tmp_path, scale, capsys):
        # one generator rescaled leaves the algebra unchanged; the residual of
        # a large member must not be read as distance from the algebra
        path = planted_file(tmp_path, [(1, 2), (2, 3)], scales=(1.0, scale))
        assert main(["algebra", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        check = next(c for c in doc["sections"]["checks"]
                     if c["name"] == "generators lie in generated algebra (residual)")
        assert check["passed"] and check["value"] <= 1e-12

    def test_zero_member_is_skipped_by_the_residual(self, tmp_path):
        path = write(tmp_path, "zero.json", {
            "dim": 3,
            "operators": [{"name": name, "re": m.tolist(), "im": np.zeros((3, 3)).tolist()}
                          for name, m in (("A", np.diag([1.0, 1.0, 2.0])),
                                          ("Z", np.zeros((3, 3))))]})
        report = run(["algebra", path])
        check = next(c for c in report.checks
                     if c["name"] == "generators lie in generated algebra (residual)")
        assert np.isfinite(check["value"]) and report.all_passed


class TestAlgebraAtDimension32:
    """Planted items at n = 32 through the CLI: S'' and the word closure agree.

    Budget: at most 10 s per item, 30 s for the three (about 0.3-1.7 s each
    on one core).
    """

    ITEM_BUDGET_SECONDS = 10.0

    @pytest.mark.parametrize("pattern", [[(1, 8), (3, 8)], [(1, 12), (2, 10)],
                                         [(2, 6), (4, 5)]])
    def test_generated_dim_matches_planted(self, tmp_path, pattern, capsys):
        path = planted_file(tmp_path, pattern)
        t0 = time.perf_counter()
        code = main(["algebra", path])  # a ClosureMismatch would exit 1
        elapsed = time.perf_counter() - t0
        out = capsys.readouterr()
        assert code == 0, out.err
        doc = json.loads(out.out)
        assert doc["sections"]["input"]["dim"] == 32
        assert doc["sections"]["structure"]["generated_dim"] == sum(t * t for _, t in pattern)
        assert elapsed <= self.ITEM_BUDGET_SECONDS


class TestAlgebraAtDimension48:
    """A planted n = 48 item through the CLI, with dim S'' = 720.

    Budget: 30 s (about 0.7-0.8 s on one core, peak RSS about 200 MB; about
    4 s while the word closure ran in the n^2-dimensional matrix space, and
    about 8 s before the commutant was split into coupled components).
    """

    BUDGET_SECONDS = 30.0

    def test_generated_dim_matches_planted(self, tmp_path, capsys):
        pattern = [(1, 24), (2, 12)]
        path = planted_file(tmp_path, pattern)
        t0 = time.perf_counter()
        code = main(["algebra", path])
        elapsed = time.perf_counter() - t0
        out = capsys.readouterr()
        assert code == 0, out.err
        doc = json.loads(out.out)
        assert sorted((s["ntilde"], s["d"]) for s in doc["sections"]["sectors"]) == pattern
        assert doc["sections"]["structure"]["generated_dim"] == 720
        assert elapsed <= self.BUDGET_SECONDS


class TestAlgebraAtDimension64:
    """A planted n = 64 item through the CLI, with dim S'' = 1280.

    The README calls the defaults safe up to ambient dimension 64; this is
    the largest planted item that claim covers.  Budget: 90 s (about 1.5 s
    on one core, peak RSS about 280 MB; 2.3 s and 500 MB while the triple
    commutant took the commutant of all 1280 basis elements of S'', and
    about 21 s and 640 MB while the word closure ran in the n^2-dimensional
    matrix space).
    """

    BUDGET_SECONDS = 90.0

    def test_generated_dim_matches_planted(self, tmp_path, capsys):
        pattern = [(1, 32), (2, 16)]
        path = planted_file(tmp_path, pattern)
        t0 = time.perf_counter()
        code = main(["algebra", path])
        elapsed = time.perf_counter() - t0
        out = capsys.readouterr()
        assert code == 0, out.err
        doc = json.loads(out.out)
        assert doc["sections"]["input"]["dim"] == 64
        assert sorted((s["ntilde"], s["d"]) for s in doc["sections"]["sectors"]) == pattern
        assert doc["sections"]["structure"]["generated_dim"] == 1280
        assert elapsed <= self.BUDGET_SECONDS


class TestPlantedSweepAt40And56:
    """Planted items at n = 40 and 56 through the CLI, abelian and not.

    Budget: 10 s per item.  Measured on one core with one BLAS thread:
    0.16, 0.06 and 0.13 s at n = 40; 0.6, 0.17, 0.37 and 0.6-0.8 s at
    n = 56; about 2.3 s for the seven.  The abelian item took 1.3-1.4 s
    while the triple commutant compared the spans of two 808-member bases;
    it now tests that O's basis commutes with the pair.
    """

    ITEM_BUDGET_SECONDS = 10.0

    @pytest.mark.parametrize("pattern", [
        [(1, 20), (2, 10)], [(1, 8), (2, 8), (4, 4)], [(3, 6), (2, 11)],
        [(1, 28), (2, 14)], [(1, 10), (2, 9), (3, 6), (1, 10)], [(4, 7), (2, 14)],
        [(10, 1), (14, 1), (16, 1), (16, 1)],
    ])
    def test_matches_planted(self, tmp_path, pattern, capsys):
        path = planted_file(tmp_path, pattern)
        t0 = time.perf_counter()
        code = main(["algebra", path])
        elapsed = time.perf_counter() - t0
        out = capsys.readouterr()
        assert code == 0, out.err
        doc = json.loads(out.out)
        assert doc["sections"]["input"]["dim"] == sum(d * t for d, t in pattern)
        got = sorted((s["ntilde"], s["d"]) for s in doc["sections"]["sectors"])
        assert got == sorted(pattern)
        st = doc["sections"]["structure"]
        assert st["generated_dim"] == sum(t * t for _, t in pattern)
        assert st["dirac_v2_holds"] == all(t == 1 for _, t in pattern)
        assert elapsed <= self.ITEM_BUDGET_SECONDS


class TestAbelianAt56:
    """The abelian planted item ((20, 1), (36, 1)) at n = 56 through the CLI.

    O = M_20 + M_36 has dimension 1696, and both of its sectors have d = 1.
    Budget: 5 s and 260 MB of peak RSS, both of the process that runs the
    item.  Measured on one core with one BLAS thread and
    ``MALLOC_MMAP_THRESHOLD_=131072`` (``tests/large_patterns.py``):
    0.7-1.0 s and 208 MB (0.6-1.3 s and 219 MB with two BLAS threads and
    glibc's default mmap threshold); 1.5-2.1 s and 344 MB while null
    commutant components were solved as dense constraint matrices, 4.6-5.8 s
    and 362 MB while the triple commutant compared spans, and 11.4-12.4 s
    while each d = 1 check orthonormalised its restricted span.
    """

    BUDGET_SECONDS = 5.0
    BUDGET_RSS_MB = 260.0

    def test_matches_planted(self, tmp_path):
        pattern = [(20, 1), (36, 1)]
        path = planted_file(tmp_path, pattern)
        code, out, err, elapsed, rss_mb = measured_main(["algebra", path])
        assert code == 0, err
        doc = json.loads(out)
        assert doc["sections"]["input"]["dim"] == 56
        assert sorted((s["ntilde"], s["d"]) for s in doc["sections"]["sectors"]) == pattern
        st = doc["sections"]["structure"]
        assert st["generated_dim"] == 2
        assert st["dirac_v2_holds"]
        assert elapsed <= self.BUDGET_SECONDS
        assert rss_mb <= self.BUDGET_RSS_MB


class TestLargeObservablesAt64:
    """The abelian planted item ((32, 1), (32, 1)) at n = 64 through the CLI.

    O = M_32 + M_32 has dimension 2048, the large-O side of the README's
    "safe up to dimension 64" claim.  Budget: 5 s and 380 MB of peak RSS,
    both of the process that runs the item.  Measured on one core with one
    BLAS thread and ``MALLOC_MMAP_THRESHOLD_=131072``: 1.1-1.5 s and 303 MB
    (1.0-1.2 s and 320 MB with two BLAS threads and glibc's default mmap
    threshold); 2.5-3.3 s and 490 MB while null commutant components were
    solved as dense constraint matrices, and 9.3-10.5 s and 525 MB while
    the triple commutant compared the spans of two 2048-member bases.
    """

    BUDGET_SECONDS = 5.0
    BUDGET_RSS_MB = 380.0

    def test_matches_planted(self, tmp_path):
        pattern = [(32, 1), (32, 1)]
        path = planted_file(tmp_path, pattern)
        code, out, err, elapsed, rss_mb = measured_main(["algebra", path])
        assert code == 0, err
        doc = json.loads(out)
        assert doc["sections"]["input"]["dim"] == 64
        assert sorted((s["ntilde"], s["d"]) for s in doc["sections"]["sectors"]) == pattern
        st = doc["sections"]["structure"]
        assert (st["observable_dim"], st["generated_dim"]) == (2048, 2)
        assert st["dirac_v2_holds"]
        assert elapsed <= self.BUDGET_SECONDS
        assert rss_mb <= self.BUDGET_RSS_MB


class TestScalarInputAt64:
    """The scalar planted item ((64, 1)) at n = 64 through the CLI.

    S is scalar, so O = S' is all of M_64 and S'' the scalars: the triple
    commutant needs only the dimensions, since 4096 orthonormal members fill
    M_64.  The commutants of S and of the triple commutant's scalar pair are
    each one null component of 4096 matrix units, taken in closed form; the
    peak is those two 256-MB bases, O and the pair's.  Budget: 8 s and
    680 MB of peak RSS, both of the process that runs the item.  Measured on
    one core with one BLAS thread and ``MALLOC_MMAP_THRESHOLD_=131072``:
    1.6-1.9 s and 566 MB (1.2-1.7 s and 578 MB with two BLAS threads and
    glibc's default mmap threshold); 6.4-8.6 s and 1069-1098 MB while null
    components were solved as dense constraint matrices with an identity,
    9.6-10.7 s and 1354 MB while the commutant's verification held all 4096
    candidates in one temporary, and 46.3 s while the two bases were
    compared residual by residual.
    """

    BUDGET_SECONDS = 8.0
    BUDGET_RSS_MB = 680.0

    def test_matches_planted(self, tmp_path):
        path = planted_file(tmp_path, [(64, 1)])
        code, out, err, elapsed, rss_mb = measured_main(["algebra", path])
        assert code == 0, err
        doc = json.loads(out)
        assert doc["sections"]["input"]["dim"] == 64
        st = doc["sections"]["structure"]
        assert (st["observable_dim"], st["generated_dim"]) == (4096, 1)
        assert all(c["passed"] for c in doc["sections"]["checks"])
        assert elapsed <= self.BUDGET_SECONDS
        assert rss_mb <= self.BUDGET_RSS_MB


def test_large_pattern_recipe_runs_its_smallest_pattern(tmp_path):
    # tests/large_patterns.py runs each extreme pattern in its own process;
    # the smallest, at n = 64, runs here through the same function
    row = run_pattern(SMALLEST, str(tmp_path))
    assert row["code"] == 0, row["error"]
    assert row["ok"] and row["n"] == 64


def test_untested_lines_recipe_traces_one_test_module():
    # tests/untested_lines.py runs pytest under a line tracer; here on the
    # cocycle tests alone, in a process of its own
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.dirname(os.path.dirname(superselect.__file__))
    out = subprocess.run(
        [sys.executable, os.path.join(here, "untested_lines.py"), "-q", "-p", "no:cacheprovider",
         os.path.join(here, "test_cocycles.py")],
        capture_output=True, text=True, check=False, timeout=120,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
            src, os.environ.get("PYTHONPATH")]))))
    assert out.returncode == 0, out.stdout + out.stderr
    rows = {}
    for line in out.stdout.splitlines():
        m = re.fullmatch(r"(\w+\.py): (\d+) of (\d+) lines untested(?:: (.*))?", line)
        if m:
            left = set()
            for part in filter(None, (m[4] or "").split(", ")):
                lo, _, hi = part.partition("-")
                left.update(range(int(lo), int(hi or lo) + 1))
            rows[m[1]] = (int(m[2]), int(m[3]), left)
    package = os.path.dirname(superselect.__file__)
    assert set(rows) == {f for f in os.listdir(package) if f.endswith(".py")}
    # a module the cocycle tests never import: every line untested
    missed, total, _ = rows["fluxsectors.py"]
    assert missed == total > 0
    # in cocycles.py, the equivalent branch of coboundary_solve runs and the
    # associativity refusal of finite_group does not
    with open(cocycles.__file__, encoding="utf-8") as fh:
        source = fh.read().splitlines()
    run_line = source.index("    if resid <= bound:") + 1
    refused = source.index('        raise ValueError("multiplication table is not associative")') + 1
    missed, total, left = rows["cocycles.py"]
    assert 0 < missed < total and len(left) == missed
    assert run_line not in left and refused in left


class TestAlgebraReportInvariance:
    """Inputs that generate the same algebra give the same ``algebra`` verdict.

    Transforms: one generator scaled by 1e3, the generators reversed, one
    generator duplicated, a unitary change of basis, and CLI seeds 1-3.
    Each must leave ``all_passed``, the (d, ntilde) multiset and the
    observable and generated dimensions as they are.  Inputs: every 7th
    planted sweep pattern and two wide patterns, as the benchmark draws them.
    """

    @staticmethod
    def summary(path, seed):
        report = run(["--seed", str(seed), "algebra", path])
        st = report.sections["structure"]
        return (report.all_passed,
                sorted((s["d"], s["ntilde"]) for s in report.sections["sectors"]),
                st["observable_dim"], st["generated_dim"])

    def test_transforms_keep_the_verdict(self, workloads, tmp_path):
        rng = np.random.default_rng(4)
        patterns = workloads.sweep_pattern_quota(200)[::7] + list(workloads.WIDE_PATTERNS[:2])
        for k, pattern in enumerate(patterns):
            gens = workloads.planted_generators(rng, pattern)
            u = random_unitary(rng, gens[0].shape[0])
            variants = {"scaled": [1e3 * gens[0], *gens[1:]], "reversed": gens[::-1],
                        "duplicated": [*gens, gens[0]],
                        "rotated": [u @ g @ u.conj().T for g in gens]}
            base = str(tmp_path / f"p{k}.json")
            workloads.write_operator_file(base, gens)
            want = self.summary(base, 1)
            assert want[0], pattern
            for seed in (2, 3):
                assert self.summary(base, seed) == want, (pattern, seed)
            for name, mats in variants.items():
                path = str(tmp_path / f"p{k}_{name}.json")
                workloads.write_operator_file(path, mats)
                assert self.summary(path, 1) == want, (pattern, name)


class TestComponentSizes:
    def test_nullspace_widths_on_a_four_sector_input(self, tmp_path, monkeypatch, capsys):
        # O = S' is a scalar on each of the four blocks, so O' splits into four
        # components (6 x 6, 6 x 6, 6 x 6 and 2 x 2 blocks, 112 pattern
        # columns in all) that are null in full: their constraint norm is
        # read in closed form, so they reach neither _pattern_constraints nor
        # the SVD.  One solve over the whole block pattern passed a 400 x 112
        # matrix.  S' and the triple commutant's pair pass 6 columns per
        # sector, the center 4.
        widths, built, null_units = [], [], []
        real_nullspace = opalgebra.orthonormal_nullspace
        real_constraints = opalgebra._pattern_constraints
        real_solve = opalgebra._solve_components

        def record(m, *args, **kwargs):
            widths.append(m.shape[1])
            return real_nullspace(m, *args, **kwargs)

        def constraints(a, rows, cols):
            out = real_constraints(a, rows, cols)
            built.append((rows.size, float(np.linalg.norm(out))))
            return out

        def solve(active, groups, scale):
            perm, blocks = real_solve(active, groups, scale)
            null_units.append(sorted(len(c) for _, _, c in blocks if c.ndim == 2))
            return perm, blocks

        monkeypatch.setattr(opalgebra, "orthonormal_nullspace", record)
        monkeypatch.setattr(opalgebra, "_pattern_constraints", constraints)
        monkeypatch.setattr(opalgebra, "_solve_components", solve)
        path = planted_file(tmp_path, [(1, 6), (1, 6), (1, 6), (1, 2)])
        assert main(["algebra", path]) == 0, capsys.readouterr().err
        assert widths and max(widths) <= 6
        assert null_units == [[], [4, 36, 36, 36], []]
        # the unit members give a cutoff of 2 RANK_TOL; every matrix built is far above it
        assert [w for w, _ in built] == [6, 6, 6, 2] * 2
        assert min(norm for _, norm in built) > 1e6 * RANK_TOL


class TestSingleGeneratorUpTo64:
    """One generic Hermitian generates its own n-dimensional algebra, up to n = 64.

    A spectrum drawn uniformly has close eigenvalue pairs.  A closure that
    builds powers of the generator one at a time amplified roundoff along
    that chain and filled the whole matrix space (ClosureMismatch from
    n = 24 on).  Budget: 10 s for the three (about 3.5 s on one core).
    """

    BUDGET_SECONDS = 10.0

    def test_generated_dim_is_n(self, tmp_path, capsys):
        t0 = time.perf_counter()
        for n in (24, 48, 64):
            rng = np.random.default_rng(n)
            u = random_unitary(rng, n)
            g = u @ np.diag(rng.uniform(-1.0, 1.0, n)) @ u.conj().T
            path = write(tmp_path, f"single{n}.json", {
                "dim": n, "operators": [{"name": "H", "re": g.real.tolist(),
                                         "im": g.imag.tolist()}]})
            code = main(["algebra", path])
            out = capsys.readouterr()
            assert code == 0, out.err
            st = json.loads(out.out)["sections"]["structure"]
            assert st["generated_dim"] == st["observable_dim"] == n
        assert time.perf_counter() - t0 <= self.BUDGET_SECONDS


class TestParastatCommand:
    def test_three_qubits(self):
        report = run(["parastat", "--n", "3", "--d", "2"])
        assert report.all_passed
        sect = report.sections["parastatistics"]
        assert sect["sector_table"] == [[1, 4], [2, 2]] or \
            sect["sector_table"] == [(1, 4), (2, 2)]
        assert sect["dim_truncated"] == 6

    @staticmethod
    def failed_checks(capsys, argv):
        assert main(argv) == 2
        doc = json.loads(capsys.readouterr().out)
        return doc, [c["name"] for c in doc["sections"]["checks"] if not c["passed"]]

    def test_failed_truncation_verdict_is_reported(self, capsys, monkeypatch):
        # the salt-205 pair drawn from one basis member generates less than the
        # truncated algebra: its commutant is too large, and the verdict fails
        # in the report instead of raising
        real = opalgebra._pair_commutant
        monkeypatch.setattr(opalgebra, "_pair_commutant",
                            lambda members, seed, salt, isometry=None:
                            real(members[:1] if salt == (205,) else members, seed, salt,
                                 isometry))
        doc, failed = self.failed_checks(capsys, ["parastat", "--n", "3", "--d", "2"])
        assert failed == ["post-truncation commutant abelian (Dirac v2)"]
        sect = doc["sections"]["parastatistics"]
        assert sect["post_truncation_v2"] is False
        assert sect["post_truncation_commutant_dim"] > len(sect["sector_table"])

    def test_oracle_disagreement_is_reported(self, capsys, monkeypatch):
        # a wrong table whose multiplicities no longer sum to the truncated
        # dimension fails the oracle check; nothing raises
        real = parastat.character_oracle
        monkeypatch.setattr(parastat, "character_oracle",
                            lambda rep: [(p, d, nt + 1) for p, d, nt in real(rep)])
        _, failed = self.failed_checks(capsys, ["parastat", "--n", "3", "--d", "2"])
        assert failed == ["spectral sectors match character oracle"]

    def test_size_limit_is_an_input_error(self, capsys):
        assert main(["parastat", "--n", "5", "--d", "2"]) == 1
        assert "error" in capsys.readouterr().err


class TestBargmannCommand:
    def test_default_masses(self):
        report = run(["bargmann", "--samples", "100"])
        assert report.all_passed
        triple = report.sections["mass_superselection"]["canonical_pair_obstructions"]
        assert list(triple) == [2.0, 1.0, 1.0]

    def test_equal_masses_rejected(self, capsys):
        assert main(["bargmann", "--m1", "1.0", "--m2", "1.0"]) == 1
        assert main(["bargmann", "--m1", "1.0", "--m2", "1.0000000000001"]) == 1
        capsys.readouterr()

    def test_near_equal_masses_pass(self):
        report = run(["bargmann", "--m1", "1.383646", "--m2", "1.383169",
                      "--samples", "100"])
        assert report.all_passed
        assert report.sections["mass_superselection"]["inequivalent"]

    def test_vanishing_difference_exponent_fails(self, monkeypatch):
        # a planted fault: both masses get the mass-2 exponent, so the
        # difference's exponent, and with it its obstruction, is zero
        real = bargmann.bargmann_exponent
        monkeypatch.setattr(bargmann, "bargmann_exponent",
                            lambda mass, g1, g2: real(2.0, g1, g2))
        report = run(["bargmann", "--m1", "2", "--m2", "1", "--samples", "100"])
        failed = {c["name"] for c in report.checks if not c["passed"]}
        assert "obstruction of difference > 0.1 |m1 - m2|" in failed
        assert not failed & {"obstruction m1 > 0.1 m1", "obstruction m2 > 0.1 m2"}
        assert not report.sections["mass_superselection"]["inequivalent"]

    def test_ray_check_prints_the_library_bound(self):
        check = next(c for c in run(["bargmann", "--samples", "100"]).checks
                     if c["name"] == "ray composition deviation")
        assert check["threshold"] == bargmann.RAY_COMPOSE_TOL
        assert check["passed"] and check["value"] <= check["threshold"]

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_sample_count_below_one_is_an_input_error(self, samples, capsys):
        assert main(["bargmann", "--samples", samples]) == 1
        assert "samples must be >= 1" in capsys.readouterr().err


def cyclic_group_path(tmp_path, order, bump):
    """Z_order with a coboundary exponent plus ``bump`` at entry (3, 5)."""
    idx = np.arange(order)
    table = (idx[:, None] + idx[None, :]) % order
    gamma = np.random.default_rng(50).uniform(-1.0, 1.0, order)
    gamma[0] = 0.0
    xi = gamma[:, None] - gamma[table] + gamma[None, :]
    if order > 5:
        xi[3, 5] += bump
    return write(tmp_path, f"z{order}.json",
                 {"order": order, "table": table.tolist(), "xi": xi.tolist()})


class TestExtensionCommand:
    @pytest.mark.parametrize("bump, mode", [(2 * np.pi, "mod2pi"), (0.25, "strict")])
    def test_associativity_verdict_does_not_depend_on_the_seed(self, tmp_path, bump, mode):
        # one violated entry of 2500 breaks the cocycle identity on a few
        # hundred of the 125000 triples; sampling 1000 of them missed all on
        # 6 of these 20 seeds
        path = cyclic_group_path(tmp_path, 50, bump)
        for seed in range(20):
            report = run(["--seed", str(seed), "extension", path, "--mode", mode])
            iff = next(c for c in report.checks
                       if c["name"] == "extension associativity iff strict cocycle")
            assert iff["passed"], seed
            assert abs(report.sections["extension_associativity_residual"] - bump) <= 1e-12
            assert report.all_passed == (mode == "mod2pi")

    def test_pauli_mod2pi_passes(self, pauli_group_path):
        report = run(["extension", pauli_group_path, "--mode", "mod2pi"])
        assert report.all_passed
        assert not report.sections["cocycle"]["strict_holds"]
        assert report.sections["cocycle"]["mod2pi_holds"]

    def test_pauli_strict_fails_with_exit_2(self, pauli_group_path, capsys):
        assert main(["extension", pauli_group_path]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("table, code, message", [
        ([[0, 1.9], [1.2, 0]], 1, "'table' entries must be integers, got 1.9"),
        ([[False, True], [True, False]], 1, "'table' entries must be integers, got False"),
        ([[0, "1"], ["1", 0]], 1, "'table' entries must be integers, got '1'"),
        ([[0.0, 1.0], [1.0, 0.0]], 0, ""),
    ], ids=["fraction", "boolean", "string", "integral-float"])
    def test_table_entries_must_be_integers(self, tmp_path, capsys, table, code, message):
        # the first three were read as the Z2 table and ran to exit 0
        path = write(tmp_path, "g.json", {"order": 2, "table": table, "xi": [[0, 0], [0, 0]]})
        assert main(["extension", path]) == code
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["strict", "mod2pi"])
    def test_cocycle_check_prints_the_library_bound(self, pauli_group_path, mode):
        check = run(["extension", pauli_group_path, "--mode", mode]).checks[0]
        assert check["threshold"] == cocycles.COCYCLE_TOL
        assert check["passed"] == (check["value"] <= check["threshold"]) == (mode == "mod2pi")


class TestFluxCommand:
    def test_moving_charge(self):
        report = run(["flux", "--e", "1", "--m", "1", "--p", "0", "0", "2",
                      "--lmax", "8"])
        assert report.all_passed
        assert abs(report.sections["charge"]["recovered"] - 1.0) <= 1e-8
        f20 = next(row["f"] for row in report.sections["multipoles"]
                   if row["l"] == 2 and row["m"] == 0)
        assert abs(f20) > 1e-3

    def test_charge_at_rest(self):
        report = run(["flux", "--e", "1", "--m", "1", "--p", "0", "0", "0"])
        assert report.all_passed
        assert abs(report.sections["charge"]["recovered"] - 1.0) <= 1e-10
        higher = [row["f"] for row in report.sections["multipoles"] if row["l"] > 0]
        assert max(map(abs, higher)) <= 1e-10

    def test_coarse_quadrature_is_an_input_error(self, capsys):
        assert main(["flux", "--lmax", "8", "--ntheta", "8"]) == 1
        assert "error" in capsys.readouterr().err

    def test_nonpositive_node_count_is_one_error_line(self, capsys):
        assert main(["flux", "--ntheta", "0"]) == 1
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", "error: node counts must be positive\n")


class TestNonFiniteInput:
    """Physics input that is not finite, or that overflows a computation, exits 1.

    JSON has no NaN or infinity: each of these argvs once printed a report
    with ``NaN`` tokens and exited 2, or died with an ``OverflowError``.  An
    overflow inside numpy stops the command with one ``error:`` line that
    names it, and no ``RuntimeWarning`` reaches stderr before that line.
    """

    @pytest.mark.parametrize("argv, message", [
        (["bargmann", "--m1", "nan"], "mass must be positive and finite, got nan"),
        (["bargmann", "--m1", "1e308", "--m2", "1"], "bargmann: floating-point overflow"),
        (["flux", "--m", "inf"], "kinematics must be finite"),
        (["flux", "--m", "1e300", "--p", "0", "0", "1"], "kinematics must be finite"),
        (["flux", "--m", "1e150"], "flux: floating-point overflow"),
    ], ids=["bargmann-nan-mass", "bargmann-overflow", "flux-inf-mass", "flux-energy-overflow",
            "flux-multipole-overflow"])
    def test_exits_1_with_one_error_line(self, capsys, argv, message):
        # pytest would swallow a warning before it reached stderr, so record it
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 1
        assert [str(w.message) for w in caught] == []
        out = capsys.readouterr()
        assert out.out == ""
        lines = out.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and message in lines[0]


class TestDynamicsCommand:
    def test_harmonic_with_symmetry_element(self, dynamics_path):
        report = run(["dynamics", dynamics_path])
        assert report.all_passed
        res = report.sections["results"]
        assert res["energy_drift_relative"] <= 1e-6
        assert res["symmetry_deviation"] <= 1e-5

    def test_free_particle(self, tmp_path, capsys):
        path = write(tmp_path, "free.json", {
            "masses": [1.0, 2.0], "x": [[0, 0, 0], [1.5, 0, 0]],
            "p": [[1.0, 0, 0], [0, -0.2, 0.1]], "lambda": [0.0, 0.5],
            "dt": 1e-3, "steps": 200, "potential": {"kind": "none"}})
        assert main(["dynamics", path]) == 0
        doc = json.loads(capsys.readouterr().out)
        checks = {c["name"]: c for c in doc["sections"]["checks"]}
        assert checks["free-particle lambda matches closed form"]["passed"]

    def test_coarse_step_exits_2(self, tmp_path, capsys):
        path = write(tmp_path, "coarse.json", {
            "masses": [1.0, 2.0], "x": [[0, 0, 0], [1.5, 0, 0]],
            "p": [[0, 0.3, 0], [0, -0.2, 0.1]], "lambda": [0.0, 0.0],
            "dt": 0.05, "steps": 400,
            "potential": {"kind": "harmonic", "k": 1.0, "L": 1.0}})
        assert main(["dynamics", path]) == 2  # drift check fails, run completes
        capsys.readouterr()


    @pytest.mark.parametrize("steps", [-1, -5])
    def test_negative_steps_is_an_input_error(self, tmp_path, steps, capsys):
        path = write(tmp_path, "negative.json", {
            "masses": [1.0], "x": [[0, 0, 0]], "p": [[1.0, 0, 0]], "lambda": [0.0],
            "dt": 1e-3, "steps": steps})
        assert main(["dynamics", path]) == 1
        assert "steps" in capsys.readouterr().err

    @pytest.mark.parametrize("key, extra", [
        ("potential", {"potential": "harmonic"}),
        ("element", {"element": [1, 2, 3]}),
        ("potential", {"potential": {"kind": "harmonic", "k": "x"}}),
    ])
    def test_malformed_section_is_an_input_error(self, tmp_path, key, extra, capsys):
        path = write(tmp_path, "malformed.json", {
            "masses": [1.0], "x": [[0, 0, 0]], "p": [[1.0, 0, 0]], "lambda": [0.0],
            "dt": 1e-3, "steps": 5, **extra})
        assert main(["dynamics", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err and path in err

    @pytest.mark.parametrize("name, extra", [
        ("particles 0 and 1", {"x": [[0, 0, 0], [0, 0, 0]],
                               "potential": {"kind": "harmonic"}}),
        ("dt", {"dt": float("nan")}),
        ("'k'", {"potential": {"kind": "harmonic", "k": float("inf")}}),
        ("'L'", {"potential": {"kind": "harmonic", "L": float("-inf")}}),
    ])
    def test_non_finite_or_coincident_input_is_named(self, tmp_path, name, extra, capsys):
        # these used to run to a NaN energy drift and report it as an unstable step
        path = write(tmp_path, "bad.json", {
            "masses": [1.0, 2.0], "x": [[0, 0, 0], [1.5, 0, 0]],
            "p": [[0, 0.3, 0], [0, -0.2, 0.1]], "lambda": [0.0, 0.0],
            "dt": 1e-3, "steps": 5, **extra})
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["dynamics", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and name in err and "drift" not in err

    def test_zero_steps_runs(self, tmp_path, capsys):
        path = write(tmp_path, "zero.json", {
            "masses": [1.0], "x": [[0, 0, 0]], "p": [[1.0, 0, 0]], "lambda": [0.0],
            "dt": 1e-3, "steps": 0, "element": {"v": [0.1, 0.0, 0.0]}})
        assert main(["dynamics", path]) == 0
        capsys.readouterr()

    def test_integrates_each_initial_point_once(self, dynamics_path, monkeypatch):
        # the point and its transform go through one integration call, whose
        # trajectories serve the report and the symmetry check
        calls = []
        original = bargmann.extended_dynamics

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(bargmann, "extended_dynamics", counted)
        monkeypatch.setattr(cli, "extended_dynamics", counted)
        assert run(["dynamics", dynamics_path]).all_passed
        assert len(calls) == 1
        assert len(calls[0][0]) == 2

    def test_one_step_loop_call_counts(self, dynamics_path, monkeypatch):
        # one force evaluation per step for the whole batch, one energy pass
        # after the loop, one call of each dynamics layer
        events = []

        def counting(owner, name):
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                events.append(name)
                return original(*args, **kwargs)
            return counted

        pot = bargmann.HarmonicPairPotential
        for name in ("forces", "energy"):
            monkeypatch.setattr(pot, name, counting(pot, name))
        for name in ("extended_dynamics", "dynamics_symmetry_check"):
            wrapped = counting(bargmann, name)
            monkeypatch.setattr(bargmann, name, wrapped)
            monkeypatch.setattr(cli, name, wrapped)
        with open(dynamics_path, encoding="utf-8") as fh:
            steps = json.load(fh)["steps"]
        assert run(["dynamics", dynamics_path]).all_passed
        assert events == (["dynamics_symmetry_check", "extended_dynamics"]
                          + ["forces"] * (steps + 1) + ["energy"])


class TestRuntimeDependencies:
    def test_cli_import_leaves_scipy_out(self):
        # numpy is the only runtime dependency; scipy serves the tests alone
        src = os.path.dirname(os.path.dirname(superselect.__file__))
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = "import sys, superselect.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, check=False, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]"


class TestDeterminism:
    def test_byte_identical_reports(self, opset_path):
        a = run(["--seed", "7", "algebra", opset_path])
        b = run(["--seed", "7", "algebra", opset_path])
        assert a.to_json_bytes() == b.to_json_bytes()
        c = run(["--seed", "8", "algebra", opset_path])
        assert a.to_json_bytes() != c.to_json_bytes()  # the seed is embedded
        # verdicts are seed independent even though sampled values move
        assert a.sections["structure"]["dirac_v2_holds"] \
            == c.sections["structure"]["dirac_v2_holds"]
        assert a.all_passed and c.all_passed

    def test_blas_thread_count_keeps_structure(self, tmp_path):
        # A BLAS build may sum in another order with more threads, which moves
        # the nullspace gauge (with OpenBLAS 0.3.31 this input's report bytes
        # differ between 1 and 2 threads); the structure must not move.
        path = planted_file(tmp_path, [(2, 5), (1, 6)])
        src = os.path.dirname(os.path.dirname(superselect.__file__))
        docs = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       MKL_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            out = subprocess.run([sys.executable, "-m", "superselect.cli", "algebra", path],
                                 capture_output=True, env=env, check=False, timeout=120)
            assert out.returncode == 0, out.stderr
            docs.append(json.loads(out.stdout))

        def invariants(doc):
            st = doc["sections"]["structure"]
            return (sorted((sec["d"], sec["ntilde"]) for sec in doc["sections"]["sectors"]),
                    st["observable_dim"], st["generated_dim"], st["center_dim"],
                    st["dirac_v2_holds"],
                    [(c["name"], c["passed"]) for c in doc["sections"]["checks"]])

        assert invariants(docs[0]) == invariants(docs[1])
        assert docs[0]["sections"]["structure"]["dirac_max_commutator"] == pytest.approx(
            docs[1]["sections"]["structure"]["dirac_max_commutator"], rel=1e-12)
        # the sectors' order and central values come from the projectors alone
        secs = [doc["sections"]["sectors"] for doc in docs]
        assert [(sec["block_dim"], sec["d"], sec["ntilde"]) for sec in secs[0]] \
            == [(sec["block_dim"], sec["d"], sec["ntilde"]) for sec in secs[1]]
        h = random_hermitian(np.random.default_rng([0, sectors.CENTRAL_VALUE_SALT]), 16)
        for a, b in zip(*secs):
            assert abs(a["central_value"] - b["central_value"]) <= 1e-12 * np.linalg.norm(h)

    def test_usage_errors_exit_1(self, capsys):
        assert main(["algebra"]) == 1  # missing file argument
        assert main(["no-such-command"]) == 1
        assert main(["--help"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("flag", ["--tol-rank", "--tol-cluster"])
    def test_tolerance_flags_are_usage_errors(self, flag, capsys):
        # the cutoffs are constants: a setting would change verdicts that
        # the report, which records only the seed, could not show
        assert main([flag, "1e-9", "parastat", "--n", "2", "--d", "2"]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "error:" in err

    def test_report_embeds_seed_and_digest(self, opset_path):
        from superselect.fileformat import sha256_hex
        report = run(["--seed", "3", "algebra", opset_path])
        assert report.seed == 3
        assert report.input_digest == sha256_hex(open(opset_path, "rb").read())

    def test_outdir_writes_json_and_text(self, tmp_path, opset_path, capsys):
        out = tmp_path / "reports"
        assert main(["--outdir", str(out), "algebra", opset_path]) == 0
        capsys.readouterr()
        data = json.loads((out / "algebra_report.json").read_text())
        assert data["tool_version"]
        text = (out / "algebra_report.txt").read_text()
        assert "overall: PASS" in text

    def test_outdir_environment_override(self, tmp_path, opset_path, capsys,
                                         monkeypatch):
        build_parser()  # the variable is read when main runs, not when the parser is built
        out = tmp_path / "envreports"
        monkeypatch.setenv("SUPERSELECT_OUTDIR", str(out))
        assert main(["algebra", opset_path]) == 0
        assert (out / "algebra_report.json").exists()
        # --outdir takes precedence over the environment
        monkeypatch.setenv("SUPERSELECT_OUTDIR", str(tmp_path / "unused"))
        assert main(["--outdir", str(tmp_path / "flag"), "algebra", opset_path]) == 0
        capsys.readouterr()
        assert (tmp_path / "flag" / "algebra_report.json").exists()
        assert not (tmp_path / "unused").exists()


class TestSeedCheck:
    """``--seed`` must be non-negative for every command, the ones that never draw too.

    argparse refuses a seed that is not an int; ``run_command`` refuses a
    negative one before any command runs.
    """

    @pytest.mark.parametrize("seed", ["-1", str(-(1 << 40))])
    @pytest.mark.parametrize("command", ["algebra", "parastat", "bargmann", "extension",
                                         "flux", "dynamics"])
    def test_negative_seed_is_an_input_error(self, command, seed, opset_path,
                                             pauli_group_path, dynamics_path, capsys):
        argv = {"algebra": ["algebra", opset_path],
                "parastat": ["parastat", "--n", "2", "--d", "2"],
                "bargmann": ["bargmann"],
                "extension": ["extension", pauli_group_path],
                "flux": ["flux"],
                "dynamics": ["dynamics", dynamics_path]}[command]
        assert main(["--seed", seed, *argv]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: seed must be a non-negative integer\n"


class TestSharedParser:
    """``build_parser`` returns one parser per process, holding no per-call state."""

    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()
        assert build_parser().parse_args(["flux"]).p == (0.0, 0.0, 0.0)

    def test_reports_match_a_freshly_built_parser(self, opset_path):
        commands = [["algebra", opset_path],
                    ["flux", "--lmax", "4"],  # --p from its default
                    ["parastat", "--n", "2", "--d", "2"],
                    ["algebra", opset_path]]
        for argv in commands:
            shared = run_command(build_parser().parse_args(argv)).to_json_bytes()
            fresh = run_command(build_parser.__wrapped__().parse_args(argv)).to_json_bytes()
            assert shared == fresh, argv[0]

    def test_parser_constructed_once(self, opset_path, capsys, monkeypatch):
        # main builds the top-level parser and its six sub-parsers on its
        # first call only, whatever the commands that follow
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        build_parser.cache_clear()
        for argv in (["algebra", opset_path], ["parastat", "--n", "2", "--d", "2"],
                     ["bargmann", "--samples", "10"]):
            assert main(argv) == 0
        capsys.readouterr()
        commands = ["algebra", "parastat", "bargmann", "extension", "flux", "dynamics"]
        assert built == ["superselect", *(f"superselect {c}" for c in commands)]


class TestStructureCallCounts:
    """One structure pass per input: O', the center and the sectors are computed once.

    Each ``commutant`` call's member count after star completion is pinned
    too.  Only S' = commutant(S) takes the commutant of a whole input set;
    parastat writes its observables down as orbit sums and solves none.
    Every commutant of an
    algebra -- S'' = O', the triple commutant, the one irreducibility check
    of all d = 1 blocks, the witness's A = A', the truncated algebra's
    verdict -- is taken of a seeded generic pair, 2 members, so a full-basis
    commutant cannot creep back unseen.  The triple commutant, the d = 1
    check and the truncation verdict prove their pair's commutant to be a
    known span through ``_pair_commutant_equals``, which reads membership
    from the pair, so the only span comparison left is the witness's A = A'.
    """

    COUNTED = {"commutant": "opalgebra", "central_decomposition": "sectors",
               "check_dirac": "opalgebra", "generated_algebra": "opalgebra",
               "_word_closure_dim": "opalgebra", "is_abelian": "opalgebra",
               "span_equal": "opalgebra",
               "_pair_commutant_equals": "opalgebra"}  # function -> defining module

    def count_calls(self, monkeypatch, args):
        """Run a command with the counted functions wrapped wherever a module binds them.

        Returns the call counts and, per ``commutant`` call in order, the
        number of members it received after star completion.
        """
        counts, members = dict.fromkeys(self.COUNTED, 0), []
        for name, home in self.COUNTED.items():
            original = getattr(importlib.import_module(f"superselect.{home}"), name)

            def wrapper(*a, _name=name, _fn=original, **kw):
                counts[_name] += 1
                if _name == "commutant":
                    members.append(len(opalgebra.star_completion(a[0])))
                return _fn(*a, **kw)

            for modname, mod in list(sys.modules.items()):
                if mod is None or modname.split(".")[0] != "superselect":
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, attr, wrapper)
        assert run(args).all_passed
        return counts, members

    def test_algebra_non_abelian(self, tmp_path, monkeypatch):
        # S' -> S'' (generated_algebra, with the word closure) -> one
        # decomposition that is handed both -> triple commutant
        path = planted_file(tmp_path, [(1, 2), (3, 3)])
        counts, members = self.count_calls(monkeypatch, ["algebra", path])
        assert counts == {"commutant": 3, "central_decomposition": 1, "check_dirac": 1,
                          "generated_algebra": 1, "_word_closure_dim": 1, "is_abelian": 0,
                          "span_equal": 0, "_pair_commutant_equals": 1}
        # two Hermitian generators; the pairs of O (for S'') and of S'' (triple)
        assert members == [2, 2, 2]

    def test_algebra_abelian_two_sectors(self, tmp_path, monkeypatch):
        # adds one irreducibility commutant for both d = 1 blocks and one for A = A'
        path = planted_file(tmp_path, [(1, 1), (3, 1)])
        counts, members = self.count_calls(monkeypatch, ["algebra", path])
        assert counts == {"commutant": 5, "central_decomposition": 1, "check_dirac": 1,
                          "generated_algebra": 1, "_word_closure_dim": 1, "is_abelian": 1,
                          "span_equal": 1, "_pair_commutant_equals": 2}
        # S, the pair of O = M_1 + M_3, the irreducibility pair, the witness
        # pair, the triple pair
        assert members == [2, 2, 2, 2, 2]

    def test_parastat(self, monkeypatch):
        # the invariant algebra is written down from orbit sums and decomposed
        # once, its commutant being the span of the permutation unitaries; the
        # truncation is checked by the commutant of a generic pair of the
        # truncated algebra
        counts, members = self.count_calls(monkeypatch, ["parastat", "--n", "3", "--d", "2"])
        assert counts == {"commutant": 2, "central_decomposition": 1, "check_dirac": 0,
                          "generated_algebra": 0, "_word_closure_dim": 0, "is_abelian": 1,
                          "span_equal": 0, "_pair_commutant_equals": 2}
        # the pair of O's d = 1 blocks, the truncated algebra's pair
        assert members == [2, 2]

    # No decomposition orthonormalises a restricted span: the d = 1 check
    # draws its pair from the restricted stack as it is, and every block
    # reads (d, ntilde) from traces.

    def orthonormalisations(self, monkeypatch, args):
        """Per decomposition: its sectors' d and the orthonormalisations run inside it."""
        calls, inside, seen = [0], [False], []
        real_stack, real_dec = opalgebra._orthonormalize_stack, sectors.central_decomposition

        def stack(*a, **kw):
            calls[0] += inside[0]
            return real_stack(*a, **kw)

        def decompose(*a, **kw):
            calls[0], inside[0] = 0, True
            try:
                dec = real_dec(*a, **kw)
            finally:
                inside[0] = False
            seen.append((sorted(sec.d for sec in dec.sectors), calls[0]))
            return dec

        monkeypatch.setattr(opalgebra, "_orthonormalize_stack", stack)
        for mod in (sectors, cli, parastat):
            monkeypatch.setattr(mod, "central_decomposition", decompose)
        assert run(args).all_passed
        return seen

    def test_d_above_one_blocks_orthonormalise_nothing(self, tmp_path, monkeypatch):
        # O = S' has sectors (d, ntilde) = (2, 1) and (3, 3)
        path = planted_file(tmp_path, [(1, 2), (3, 3)])
        assert self.orthonormalisations(monkeypatch, ["algebra", path]) == [([2, 3], 0)]

    def test_d_one_blocks_orthonormalise_nothing(self, tmp_path, monkeypatch):
        path = planted_file(tmp_path, [(1, 1), (3, 1)])
        assert self.orthonormalisations(monkeypatch, ["algebra", path]) == [([1, 1], 0)]

    def test_parastat_orthonormalisations(self, monkeypatch):
        # the invariant algebra of S_3 on (C^2)^3 has sectors with d = 1 and
        # d = 2; its truncation is not decomposed again
        seen = self.orthonormalisations(monkeypatch, ["parastat", "--n", "3", "--d", "2"])
        assert seen == [([1, 2], 0)]


class TestExtensionProductCalls:
    """The extension command checks associativity on every triple with 4 array products."""

    @pytest.mark.parametrize("order", [2, 8, 50])
    def test_four_products_per_report(self, tmp_path, monkeypatch, order):
        calls = []

        def counting(*a, **kw):
            calls.append(1)
            return cocycles.extension_product(*a, **kw)

        monkeypatch.setattr(cli, "extension_product", counting)
        report = run(["extension", cyclic_group_path(tmp_path, order, 0.0)])
        assert report.all_passed
        assert report.sections["extension_associativity_residual"] <= 1e-12
        assert len(calls) == 4


class TestGaugeFreeCommutators:
    """The reported commutators are computed from the inputs, not from a nullspace basis."""

    PATTERN = [(2, 5), (1, 6)]  # non-abelian O'

    @staticmethod
    def commutator(args, capsys):
        assert main(args) == 0
        return json.loads(capsys.readouterr().out)["sections"]["structure"][
            "dirac_max_commutator"]

    def test_seed_does_not_move_it(self, tmp_path, capsys):
        path = planted_file(tmp_path, self.PATTERN)
        values = [self.commutator(["--seed", seed, "algebra", path], capsys)
                  for seed in ("0", "5")]
        assert values[0] == values[1] > 0.01

    def test_change_of_basis_does_not_move_it(self, tmp_path, capsys):
        gens, _ = planted_block_algebra(np.random.default_rng(5), self.PATTERN)
        u = random_unitary(np.random.default_rng(9), gens[0].shape[0])
        plain = self.commutator(["algebra", operator_file(tmp_path, "a.json", gens)], capsys)
        rotated = self.commutator(
            ["algebra", operator_file(tmp_path, "b.json", [u @ g @ u.conj().T for g in gens])],
            capsys)
        assert rotated == pytest.approx(plain, rel=1e-12)

    def test_zero_operator_leaves_it_unchanged(self, tmp_path, capsys):
        gens, _ = planted_block_algebra(np.random.default_rng(5), self.PATTERN)
        plain = self.commutator(["algebra", operator_file(tmp_path, "a.json", gens)], capsys)
        padded = self.commutator(
            ["algebra", operator_file(tmp_path, "b.json", [*gens, np.zeros_like(gens[0])])],
            capsys)
        assert np.isfinite(padded) and padded == plain

    @pytest.mark.parametrize("pattern", [[(1, 1), (2, 1), (3, 1)], PATTERN])
    def test_algebra_maximum_matches_the_pairwise_reference(self, tmp_path, pattern):
        # commuting generators (every ntilde = 1) give roundoff, compared on
        # the ratio's own scale (it is at most 2), as in TestIsAbelian
        gens, _ = planted_block_algebra(np.random.default_rng(5), pattern)
        got = run(["algebra", planted_file(tmp_path, pattern)]).sections["structure"][
            "dirac_max_commutator"]
        ref = pairwise_max_commutator(np.stack(gens))
        assert (ref > 0.01) == any(nt > 1 for _, nt in pattern)
        assert got == pytest.approx(ref, rel=1e-12, abs=1e-14)

    @pytest.mark.parametrize("n", [3, 4])
    def test_parastat_maximum_matches_the_pairwise_reference(self, n):
        rep = parastat.TensorRep(n, 2)
        got = run(["parastat", "--n", str(n), "--d", "2"]).sections["parastatistics"][
            "pre_truncation_max_commutator"]
        ref = pairwise_max_commutator(rep.unitaries)
        assert got == pytest.approx(ref, rel=1e-12, abs=1e-14)

    def test_parastat_commutator_is_seed_free(self):
        values = [run(["--seed", seed, "parastat", "--n", "3", "--d", "2"])
                  .sections["parastatistics"]["pre_truncation_max_commutator"]
                  for seed in ("0", "5")]
        assert values[0] == values[1] > 0.01


class TestVerdictDisagreement:
    def test_pairwise_scan_contradicting_the_sectors_is_typed(self, tmp_path, monkeypatch,
                                                              capsys):
        # every d is 1 here, so a scan that finds non-commuting pairs is a fault
        path = planted_file(tmp_path, [(1, 1), (3, 1)])
        monkeypatch.setattr(opalgebra, "is_abelian", lambda a: (False, 1.0))
        s, _ = cli.load_operator_file(path)
        dec = central_decomposition(commutant(s))
        with pytest.raises(PostconditionFailure, match="d = 1") as exc:
            check_dirac(dec)
        assert main(["algebra", path]) == 1
        assert capsys.readouterr().err == f"error: {exc.value}\n"
