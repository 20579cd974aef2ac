import importlib
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import planted_block_algebra
import superselect
from superselect.cli import build_parser, main, run_command


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
    gens, _ = planted_block_algebra(np.random.default_rng(5), pattern)
    if scales is not None:
        gens = [c * g for c, g in zip(scales, gens)]
    return write(tmp_path, "planted.json", {
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


class TestParastatCommand:
    def test_three_qubits(self):
        report = run(["parastat", "--n", "3", "--d", "2"])
        assert report.all_passed
        sect = report.sections["parastatistics"]
        assert sect["sector_table"] == [[1, 4], [2, 2]] or \
            sect["sector_table"] == [(1, 4), (2, 2)]
        assert sect["dim_truncated"] == 6

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
        capsys.readouterr()

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_sample_count_below_one_is_an_input_error(self, samples, capsys):
        assert main(["bargmann", "--samples", samples]) == 1
        assert "samples must be >= 1" in capsys.readouterr().err


class TestExtensionCommand:
    def test_pauli_mod2pi_passes(self, pauli_group_path):
        report = run(["extension", pauli_group_path, "--mode", "mod2pi"])
        assert report.all_passed
        assert not report.sections["cocycle"]["strict_holds"]
        assert report.sections["cocycle"]["mod2pi_holds"]

    def test_pauli_strict_fails_with_exit_2(self, pauli_group_path, capsys):
        assert main(["extension", pauli_group_path]) == 2
        capsys.readouterr()


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

    def test_usage_errors_exit_1(self, capsys):
        assert main(["algebra"]) == 1  # missing file argument
        assert main(["no-such-command"]) == 1
        assert main(["--help"]) == 0
        capsys.readouterr()

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
        out = tmp_path / "envreports"
        monkeypatch.setenv("SUPERSELECT_OUTDIR", str(out))
        assert main(["algebra", opset_path]) == 0
        capsys.readouterr()
        assert (out / "algebra_report.json").exists()


class TestStructureCallCounts:
    """One structure pass per input: O', the center and the sectors are computed once."""

    COUNTED = {"commutant": "opalgebra", "central_decomposition": "sectors",
               "check_dirac": "opalgebra", "generated_algebra": "opalgebra",
               "_word_closure_dim": "opalgebra"}  # function -> defining module

    def count_calls(self, monkeypatch, args):
        """Run a command with the counted functions wrapped wherever a module binds them."""
        counts = dict.fromkeys(self.COUNTED, 0)
        for name, home in self.COUNTED.items():
            original = getattr(importlib.import_module(f"superselect.{home}"), name)

            def wrapper(*a, _name=name, _fn=original, **kw):
                counts[_name] += 1
                return _fn(*a, **kw)

            for modname, mod in list(sys.modules.items()):
                if mod is None or modname.split(".")[0] != "superselect":
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, attr, wrapper)
        assert run(args).all_passed
        return counts

    def test_algebra_non_abelian(self, tmp_path, monkeypatch):
        # S' -> one decomposition (holds S'') -> triple commutant
        path = planted_file(tmp_path, [(1, 2), (3, 3)])
        counts = self.count_calls(monkeypatch, ["algebra", path])
        assert counts == {"commutant": 3, "central_decomposition": 1, "check_dirac": 1,
                          "generated_algebra": 0, "_word_closure_dim": 1}

    def test_algebra_abelian_two_sectors(self, tmp_path, monkeypatch):
        # adds one irreducibility commutant per d = 1 block and one for A = A'
        path = planted_file(tmp_path, [(1, 1), (3, 1)])
        counts = self.count_calls(monkeypatch, ["algebra", path])
        assert counts == {"commutant": 6, "central_decomposition": 1, "check_dirac": 1,
                          "generated_algebra": 0, "_word_closure_dim": 1}

    def test_parastat(self, monkeypatch):
        # the invariant algebra and the truncated one are each decomposed once
        counts = self.count_calls(monkeypatch, ["parastat", "--n", "3", "--d", "2"])
        assert counts == {"commutant": 7, "central_decomposition": 2, "check_dirac": 1,
                          "generated_algebra": 0, "_word_closure_dim": 0}
