import ast
import importlib
import pathlib

import numpy as np
import pytest

import superselect
from superselect.errors import DimensionMismatch, NotHermitian
from superselect.numkernel import (
    CLUSTER_TOL,
    RANK_TOL,
    as_complex_matrix,
    cluster_eigenvalues,
    hermitian_eig,
    orthonormal_columns_extend,
    orthonormal_nullspace,
    random_hermitian,
)
from superselect.opalgebra import algebra_from_span, span_residual


class TestToleranceConfig:
    def test_defaults(self):
        assert RANK_TOL == 1e-10 and CLUSTER_TOL == 1e-8


class TestComplexMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            as_complex_matrix(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            as_complex_matrix(np.array([[np.nan, 0], [0, 1]]))


class TestHermitianEig:
    def test_identity(self):
        w, _ = hermitian_eig(np.eye(3))
        assert np.allclose(w, [1, 1, 1])

    def test_already_diagonal(self):
        w, v = hermitian_eig(np.diag([2.0, -1.0]))
        assert np.allclose(w, [-1.0, 2.0])
        assert np.allclose(np.abs(v), [[0, 1], [1, 0]])

    def test_pauli_x(self):
        # characteristic polynomial x^2 - 1 by hand
        w, _ = hermitian_eig(np.array([[0, 1], [1, 0]], dtype=complex))
        assert np.allclose(w, [-1.0, 1.0], atol=1e-14)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_reconstruction_property(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n = int(rng.integers(2, 13))
            a = random_hermitian(rng, n)
            w, v = hermitian_eig(a)
            err = np.linalg.norm(a - (v * w) @ v.conj().T)
            assert err <= 1e-10 * np.linalg.norm(a)
            assert np.max(np.abs(v.conj().T @ v - np.eye(n))) <= 1e-10


class TestNullspace:
    def test_zero_matrix_full_space(self):
        ns = orthonormal_nullspace(np.zeros((2, 2)))
        assert ns.shape == (2, 2)

    def test_identity_empty(self):
        assert orthonormal_nullspace(np.eye(3)).shape == (3, 0)

    def test_rank_one(self):
        # hand row reduction: kernel of [[1,1],[1,1]] is span (1,-1)/sqrt(2)
        ns = orthonormal_nullspace(np.ones((2, 2)))
        assert ns.shape == (2, 1)
        target = np.array([1.0, -1.0]) / np.sqrt(2)
        assert np.allclose(np.abs(ns[:, 0] @ target), 1.0)

    def test_rank_nullity(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            rows = int(rng.integers(1, 9))
            cols = int(rng.integers(1, 9))
            m = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
            s = np.linalg.svd(m, compute_uv=False)
            rank = int(np.sum(s > RANK_TOL * s[0]))
            assert orthonormal_nullspace(m).shape[1] + rank == cols

    @pytest.mark.parametrize("rows, cols, rank", [(12, 5, 3), (6, 6, 4), (3, 7, 2)])
    def test_known_rank_tall_square_wide(self, rows, cols, rank):
        rng = np.random.default_rng(rows * cols)
        left = rng.standard_normal((rows, rank)) + 1j * rng.standard_normal((rows, rank))
        right = rng.standard_normal((rank, cols)) + 1j * rng.standard_normal((rank, cols))
        m = left @ right
        ns = orthonormal_nullspace(m)
        assert ns.shape == (cols, cols - rank)
        assert np.max(np.abs(ns.conj().T @ ns - np.eye(cols - rank))) <= 1e-12
        smax = np.linalg.norm(m, 2)
        assert np.max(np.linalg.norm(m @ ns, axis=0)) <= RANK_TOL * smax

    @pytest.mark.parametrize("rows, cols, rank", [(12, 5, 3), (6, 6, 4), (3, 7, 2)])
    def test_svd_failure_falls_back_to_the_adjoint(self, monkeypatch, rows, cols, rank):
        # LAPACK's divide-and-conquer SVD can fail to converge; the first call
        # raises.  A tall matrix reaches the SVD as its square triangular factor
        rng = np.random.default_rng(rows + cols)
        left = rng.standard_normal((rows, rank)) + 1j * rng.standard_normal((rows, rank))
        right = rng.standard_normal((rank, cols)) + 1j * rng.standard_normal((rank, cols))
        m = left @ right
        expected = orthonormal_nullspace(m)
        svd, failed = np.linalg.svd, []

        def fails_once(a, *args, **kwargs):
            if not failed:
                failed.append(a.shape)
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", fails_once)
        ns = orthonormal_nullspace(m)
        assert failed == [(min(rows, cols), cols)]
        assert ns.shape == expected.shape == (cols, cols - rank)
        assert np.max(np.abs(ns.conj().T @ ns - np.eye(cols - rank))) <= 1e-12
        assert np.linalg.norm(ns - expected @ (expected.conj().T @ ns)) <= 1e-12


class TestGramSchmidtHS:
    """Hilbert-Schmidt orthonormalization of a spanning set, by ``algebra_from_span``."""

    def test_dependent_pair_collapses(self):
        out = algebra_from_span([np.eye(3), 2.0 * np.eye(3)]).basis
        assert len(out) == 1
        assert abs(abs(np.vdot(out[0], np.eye(3) / np.sqrt(3))) - 1.0) <= 1e-10

    def test_orthogonal_pair_kept(self):
        out = algebra_from_span([np.eye(2), np.diag([1.0, -1.0])]).basis
        assert len(out) == 2
        assert abs(np.vdot(out[0], out[1])) <= 1e-10

    def test_generic_four_matrices_span_everything(self):
        rng = np.random.default_rng(3)
        mats = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
                for _ in range(4)]
        out = algebra_from_span(mats).basis
        # independent rank oracle on the stacked vectorizations
        rank = np.linalg.matrix_rank(np.stack([m.ravel() for m in mats]), tol=1e-10)
        assert len(out) == rank == 4
        gram = np.array([[np.vdot(a, b) for b in out] for a in out])
        assert np.max(np.abs(gram - np.eye(4))) <= 1e-10

    def test_output_dim_matches_numerical_rank(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            n = int(rng.integers(2, 5))
            k = int(rng.integers(1, 7))
            mats = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                    for _ in range(k)]
            if k > 2 and rng.random() < 0.5:
                mats[-1] = mats[0] + mats[1]  # plant a dependency
            out = algebra_from_span(mats).basis
            rank = np.linalg.matrix_rank(np.stack([m.ravel() for m in mats]), tol=1e-8)
            assert len(out) == rank
            assert max(span_residual(out, m) / np.linalg.norm(m) for m in mats) <= 1e-10

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DimensionMismatch):
            algebra_from_span([np.eye(2), np.eye(3)])



def extension_case(rng, m, w, k, c):
    """Orthonormal ``q`` (m x w) and ``c`` candidates adding ``k`` O(1) directions to it."""
    basis, _ = np.linalg.qr(rng.standard_normal((m, w + k)) + 1j * rng.standard_normal((m, w + k)))
    coeffs = rng.standard_normal((w + k, c)) + 1j * rng.standard_normal((w + k, c))
    return basis[:, :w], basis @ coeffs


def nonzero_columns(block):
    return block[:, np.any(block != 0, axis=0)]


def assert_same_span(cols, ref):
    assert cols.shape == ref.shape
    assert np.max(np.abs(cols.conj().T @ cols - np.eye(cols.shape[1]))) <= 1e-12
    assert np.linalg.norm(cols - ref @ (ref.conj().T @ cols)) <= 1e-12


class TestColumnsExtend:
    def test_near_cutoff_directions_stay_orthogonal(self):
        # new directions at O(1) and at 1e-9 beside components along q: the
        # small one's left singular vector carries roundoff ~1e-16 / 1e-9
        # along q, which the kept block must not pass on
        rng = np.random.default_rng(11)
        basis, _ = np.linalg.qr(rng.standard_normal((40, 16)) + 1j * rng.standard_normal((40, 16)))
        q, big, small = basis[:, :12], basis[:, 12:14], basis[:, 14:]
        coeffs = rng.standard_normal((16, 30))
        cand = q @ coeffs[:12] + big @ coeffs[12:14] + 1e-9 * small @ coeffs[14:]
        out = orthonormal_columns_extend(q, cand)
        assert out.shape == (40, 16)
        assert np.max(np.abs(out.conj().T @ out - np.eye(16))) <= 1e-12
        assert np.array_equal(out[:, :12], q)

    def test_svd_failure_falls_back_to_the_adjoint(self, monkeypatch):
        # LAPACK's divide-and-conquer SVD can fail to converge on a tall block
        rng = np.random.default_rng(12)
        q, _ = np.linalg.qr(rng.standard_normal((30, 5)) + 1j * rng.standard_normal((30, 5)))
        cand = rng.standard_normal((30, 8)) + 1j * rng.standard_normal((30, 8))
        expected = orthonormal_columns_extend(q, cand)
        svd = np.linalg.svd

        def tall_fails(a, *args, **kwargs):
            if a.shape[0] > a.shape[1]:
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", tall_fails)
        out = orthonormal_columns_extend(q, cand)
        assert out.shape == expected.shape == (30, 13)
        assert np.max(np.abs(out.conj().T @ out - np.eye(13))) <= 1e-12
        new = out[:, 5:]
        assert np.linalg.norm(new - expected[:, 5:] @ (expected[:, 5:].conj().T @ new)) <= 1e-12

    def test_stack_matches_one_call_per_block(self):
        # three blocks of different widths, zero-padded to a common one; each
        # keeps its own number of new directions (2, 0 and 4) and the others'
        # surplus columns stay exactly zero
        rng = np.random.default_rng(21)
        cases = [extension_case(rng, 30, w, k, c) for w, k, c in ((6, 2, 5), (4, 0, 3), (2, 4, 6))]
        q = np.zeros((3, 30, 6), dtype=complex)
        cand = np.zeros((3, 30, 6), dtype=complex)
        for b, (qb, cb) in enumerate(cases):
            q[b, :, :qb.shape[1]] = qb
            cand[b, :, :cb.shape[1]] = cb
        out = orthonormal_columns_extend(q, cand)
        assert out.shape == (3, 30, 10)
        assert np.array_equal(out[..., :6], q)
        for b, (qb, cb) in enumerate(cases):
            assert_same_span(nonzero_columns(out[b]), orthonormal_columns_extend(qb, cb))

    def test_explicit_scale_moves_only_the_cutoff(self):
        # two new directions at O(1) and one at 1e-7: the default cutoff
        # (1e-10 times the largest candidate norm) keeps all three, a scale
        # 1e4 times larger keeps the O(1) pair, and both agree on those
        rng = np.random.default_rng(22)
        basis, _ = np.linalg.qr(rng.standard_normal((40, 8)) + 1j * rng.standard_normal((40, 8)))
        coeffs = rng.standard_normal((8, 12)) + 1j * rng.standard_normal((8, 12))
        coeffs[7:] *= 1e-7
        q, cand = basis[:, :5], basis @ coeffs
        default = orthonormal_columns_extend(q, cand)
        top = float(np.max(np.linalg.norm(cand, axis=0)))
        assert np.array_equal(orthonormal_columns_extend(q, cand, scale=top), default)
        coarse = orthonormal_columns_extend(q, cand, scale=1e4 * top)
        assert default.shape == (40, 8) and coarse.shape == (40, 7)
        assert np.max(np.abs(coarse - default[:, :7])) <= 1e-12
        # on a stack the one scale applies to every block
        stacked = orthonormal_columns_extend(np.stack([q, q]), np.stack([cand, 1e3 * cand]),
                                             scale=1e4 * top)
        assert stacked.shape == (2, 40, 8)
        assert np.max(np.abs(stacked[0] - np.hstack([coarse, np.zeros((40, 1))]))) <= 1e-12
        # the second block keeps its third direction too (1e-4 times its largest
        # candidate, above the shared 1e-6); the O(1) pair agrees
        assert np.count_nonzero(np.any(stacked[1] != 0, axis=0)) == 8
        assert np.max(np.abs(stacked[1][:, :7] - default[:, :7])) <= 1e-12

    def test_svd_failure_on_a_stack_falls_back_to_the_adjoint(self, monkeypatch):
        rng = np.random.default_rng(23)
        cases = [extension_case(rng, 30, 5, k, 8) for k in (3, 1)]
        q = np.stack([qb for qb, _ in cases])
        cand = np.stack([cb for _, cb in cases])
        expected = orthonormal_columns_extend(q, cand)
        svd = np.linalg.svd

        def tall_fails(a, *args, **kwargs):
            if a.shape[-2] > a.shape[-1]:
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", tall_fails)
        out = orthonormal_columns_extend(q, cand)
        assert out.shape == expected.shape == (2, 30, 8)
        for b in range(2):
            assert_same_span(nonzero_columns(out[b]), nonzero_columns(expected[b]))
        assert [nonzero_columns(b).shape[1] for b in out] == [8, 6]


class TestClustering:
    def test_distinct_values_separate(self):
        groups = cluster_eigenvalues(np.array([0.0, 1.0, 2.0]))
        assert [list(g) for g in groups] == [[0], [1], [2]]

    def test_roundoff_diameter_is_one_cluster(self):
        w = 1.0 + np.array([0.0, 1e-16, 3e-16])
        assert len(cluster_eigenvalues(w)) == 1

    def test_near_scalar_spectrum_is_one_cluster_at_every_scale(self):
        # the floor is relative to the spectrum's own magnitude: a relative
        # spread of 1e-10 is one cluster at scale 1 as at any other
        spread = np.array([0.0, 3e-11, 1e-10])
        for scale in (1e-3, 1.0, 1e3):
            assert len(cluster_eigenvalues(scale * (1.0 + spread))) == 1
            assert len(cluster_eigenvalues(-scale * (1.0 + spread)[::-1])) == 1

    def test_clusters_a_relative_1e_minus_6_apart_split_at_every_scale(self):
        w = np.array([1.0, 1.0, 1.0 + 1e-6, 1.0 + 1e-6])
        for scale in (1e-3, 1e-1, 1.0, 1e1, 1e3):
            groups = cluster_eigenvalues(scale * w)
            assert [list(g) for g in groups] == [[0, 1], [2, 3]], scale

    def test_near_degenerate_pair_merges(self):
        w = np.array([0.0, 1e-12, 1.0])
        groups = cluster_eigenvalues(w)
        assert [list(g) for g in groups] == [[0, 1], [2]]


class TestOneSvdPath:
    """Every rank decision goes through numkernel's one SVD helper.

    A second ``svd`` call would bring its own cutoff and its own failure
    handling, so ``numkernel._svd`` is the only caller of ``svd`` in the
    package.
    """

    ALLOWED = {("numkernel", "_svd")}

    def test_svd_is_called_only_where_allowed(self):
        found = set()
        for path in pathlib.Path(superselect.__file__).parent.glob("*.py"):
            tree = ast.parse(path.read_text())
            for func in ast.walk(tree):
                if not isinstance(func, ast.FunctionDef):
                    continue
                for node in ast.walk(func):
                    if isinstance(node, ast.Attribute) and node.attr == "svd":
                        found.add((path.stem, func.name))
            # an import of svd by name would escape the attribute scan
            assert not any(isinstance(node, ast.ImportFrom)
                           and any(alias.name == "svd" for alias in node.names)
                           for node in ast.walk(tree)), path.name
        assert found == self.ALLOWED


class TestPublicSurface:
    """Every exported name resolves, so a deletion cannot leave a stale export behind."""

    def test_every_name_in_all_resolves(self):
        modules = [superselect] + [
            importlib.import_module(f"superselect.{path.stem}")
            for path in sorted(pathlib.Path(superselect.__file__).parent.glob("*.py"))
            if path.stem != "__init__"]
        stale = [f"{mod.__name__}.{name}" for mod in modules
                 for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
        assert stale == []


class TestSeededStreams:
    """Every seeded stream in the package starts from a leading salt of its own.

    A cross-check that draws a generic pair can only fail, never pass, when
    its draw is independent of the draws it checks, so no two call sites may
    share a leading salt.  Streams come from ``np.random.default_rng([seed,
    salt, ...])`` and from the salts handed to ``opalgebra._generic_split``
    and ``_pair_commutant`` or ``_pair_commutant_equals``.  A helper passing
    its caller's salt on (``*salt``, or its parameter ``salt`` as it is) is
    not a call site.
    """

    # leading salt -> module; a new stream is added here with a salt of its own
    CENSUS = {101: "opalgebra", 102: "opalgebra", 104: "opalgebra", 105: "cli",
              106: "opalgebra", 107: "opalgebra", 201: "sectors", 202: "sectors",
              203: "sectors", 204: "sectors", 205: "sectors", 206: "sectors",
              401: "bargmann", 402: "bargmann", 403: "bargmann", 404: "cli"}
    SALT_ARG = {"default_rng": 0, "_generic_split": 2, "_pair_commutant": 2,
                "_pair_commutant_equals": 2}

    @classmethod
    def leading(cls, node, consts):
        """The leading salt of a salt expression; None for a forwarded salt."""
        if isinstance(node, ast.Starred) or (isinstance(node, ast.Name) and node.id == "salt"):
            return None
        if isinstance(node, (ast.ListComp, ast.GeneratorExp)):  # one salt per draw
            return cls.leading(node.elt, consts)
        if isinstance(node, ast.List):
            leads = {cls.leading(elt, consts) for elt in node.elts}
            assert len(leads) == 1, ast.unparse(node)
            return leads.pop()
        if isinstance(node, ast.Tuple):
            return cls.leading(node.elts[0], consts)
        if isinstance(node, ast.Name):
            return consts[node.id]
        return ast.literal_eval(node)

    def call_sites(self):
        """``(leading salt, "module:line")`` of every seeded stream in the package."""
        for path in sorted(pathlib.Path(superselect.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text())
            consts = {t.id: node.value.value for node in tree.body
                      if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
                      for t in node.targets if isinstance(t, ast.Name)}
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                if name not in self.SALT_ARG:
                    continue
                salt = node.args[self.SALT_ARG[name]]
                if name == "default_rng":  # [seed, salt, ...]
                    assert isinstance(salt, ast.List), f"{path.stem}:{node.lineno}"
                    salt = ast.Tuple(elts=salt.elts[1:])
                lead = self.leading(salt, consts)
                if lead is not None:
                    yield lead, f"{path.stem}:{node.lineno}"

    def test_no_two_call_sites_share_a_leading_salt(self):
        sites = {}
        for lead, site in self.call_sites():
            sites.setdefault(lead, []).append(site)
        assert {lead: s for lead, s in sites.items() if len(s) > 1} == {}
        assert {lead: s[0].split(":")[0] for lead, s in sites.items()} == self.CENSUS


class TestSeedMeansASeededDraw:
    """Every ``seed`` parameter in the package reaches a draw or a report.

    A function with a ``seed`` parameter must pass it into
    ``np.random.default_rng([seed, ...])``, pass it on to a package function
    that meets the same rule, or record it as ``AnalysisReport(seed=...)``.
    Functions are matched by name; the rule is closed over the package as a
    fixpoint.
    """

    @staticmethod
    def functions():
        """``{name: (draws, callees)}`` of every package function with a ``seed`` parameter."""
        def is_seed(node):
            return isinstance(node, ast.Name) and node.id == "seed"

        found = {}
        for path in sorted(pathlib.Path(superselect.__file__).parent.glob("*.py")):
            for fn in ast.walk(ast.parse(path.read_text())):
                if not isinstance(fn, ast.FunctionDef):
                    continue
                params = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
                if "seed" not in {a.arg for a in params}:
                    continue
                draws, callees = False, set()
                for node in ast.walk(fn):
                    if not isinstance(node, ast.Call):
                        continue
                    name = getattr(node.func, "attr", getattr(node.func, "id", None))
                    if name == "default_rng":
                        first = node.args[0]
                        draws |= isinstance(first, ast.List) and is_seed(first.elts[0])
                    elif name == "AnalysisReport":
                        draws |= any(kw.arg == "seed" and is_seed(kw.value)
                                     for kw in node.keywords)
                    elif any(is_seed(arg)
                             for arg in [*node.args, *(kw.value for kw in node.keywords)]):
                        callees.add(name)
                found[f"{path.stem}.{fn.name}"] = (draws, callees)
        return found

    def test_every_seed_parameter_reaches_a_draw(self):
        found = self.functions()
        drawing = {name for name, (draws, _) in found.items() if draws}
        while True:
            short = {name.split(".")[1] for name in drawing}
            more = {name for name, (_, callees) in found.items() if callees & short}
            if more <= drawing:
                break
            drawing |= more
        assert sorted(set(found) - drawing) == []


class TestCommutantCallSites:
    """``commutant`` is solved only on input sets; every algebra's commutant is a pair's.

    The input sets are S* in ``cli.cmd_algebra``, the set handed to
    ``opalgebra.generated_algebra`` without a precomputed ``S'`` and the
    generic pair inside ``opalgebra._pair_commutant``; the permutation
    unitaries' commutant is written down as orbit sums.  An algebra has no
    method that turns its basis into a generator set.
    """

    SITES = {("cli", "cmd_algebra"), ("opalgebra", "generated_algebra"),
             ("opalgebra", "_pair_commutant")}

    @staticmethod
    def trees():
        for path in sorted(pathlib.Path(superselect.__file__).parent.glob("*.py")):
            yield path.stem, ast.parse(path.read_text())

    def test_only_input_sets_are_solved(self):
        sites = []
        for module, tree in self.trees():
            for fn in ast.walk(tree):
                if not isinstance(fn, ast.FunctionDef):
                    continue
                sites.extend((module, fn.name) for node in ast.walk(fn)
                             if isinstance(node, ast.Call)
                             and getattr(node.func, "id", None) == "commutant")
        assert sorted(sites) == sorted(self.SITES)

    def test_no_as_set(self):
        found = [f"{module}:{node.lineno}" for module, tree in self.trees()
                 for node in ast.walk(tree)
                 if (isinstance(node, ast.FunctionDef) and node.name == "as_set")
                 or (isinstance(node, ast.Attribute) and node.attr == "as_set")]
        assert found == []
