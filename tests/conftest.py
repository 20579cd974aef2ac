"""Shared test helpers: independent oracles and planted-structure generators.

The brute-force commutant below is the reference stacked-kron nullspace with
a full SVD, kept free of the library's pattern reduction so it can serve as
an independent oracle; ``sector_oracle_multiset`` reads the parastat sector
table off the character oracle, and ``vector_functional`` gives the values
of a vector state on an algebra's basis.  The ``workloads`` fixture loads the
benchmark's input generators and report oracle from
``perfbench/workloads.py``.
"""

from __future__ import annotations

import importlib.util
import os
import sys

import numpy as np
import pytest
from scipy.linalg import block_diag

from superselect import opalgebra
from superselect.numkernel import SPAN_TOL, random_hermitian, random_unitary
from superselect.opalgebra import (
    OperatorSet,
    _generic_hermitian_combo,
    _max_span_residual,
    commutant,
    span_residual,
)
from superselect.parastat import character_oracle


WORKLOADS_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                              "workloads.py")


@pytest.fixture
def seed():
    return 0


def load_workloads():
    """Import ``perfbench/workloads.py`` by path as ``perfbench_workloads``."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    # the dataclass decorator looks its module up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    try:
        yield load_workloads()
    finally:
        del sys.modules["perfbench_workloads"]


def brute_force_commutant(mats, rank_tol=1e-10):
    """Orthonormal commutant basis from the raw stacked commutator nullspace."""
    mats = [np.asarray(m, dtype=complex) for m in mats]
    n = mats[0].shape[0]
    eye = np.eye(n)
    blocks = []
    for a in mats:
        for op in (a, a.conj().T):  # star-completion
            blocks.append(np.kron(op, eye) - np.kron(eye, op.T))
    stacked = np.vstack(blocks)
    _, s, vh = np.linalg.svd(stacked, full_matrices=True)
    scale = 2.0 * max(np.linalg.norm(a) for a in mats)
    null_mask = np.ones(n * n, dtype=bool)
    null_mask[: s.size] = s <= rank_tol * scale
    return vh.conj().T[:, null_mask].T.reshape(-1, n, n)


def basis_set(alg):
    """An algebra's whole basis as a *-closed generator set."""
    return OperatorSet(dim=alg.dim, members=alg.basis,
                       names=tuple(f"g{i}" for i in range(alg.algebra_dim)),
                       self_adjoint_closed=True)


def full_basis_commutant(alg, seed):
    """Reference commutant of an algebra: the solve over its whole basis, no generic pair."""
    return commutant(basis_set(alg), seed)


def validate_algebra(alg):
    """Assert the invariants of an ``OperatorAlgebra``, forming every product directly.

    The basis is HS-orthonormal to 1e-10, closed under adjoints to
    ``SPAN_TOL`` and under products to 1e-8 (``B_i B_j`` for every ordered
    pair), and its span holds the identity to ``SPAN_TOL``.
    """
    q, n = alg.algebra_dim, alg.dim
    vecs = alg.basis.reshape(q, n * n)
    assert np.max(np.abs(vecs.conj() @ vecs.T - np.eye(q))) <= 1e-10, "not HS-orthonormal"
    adjoints = alg.basis.conj().transpose(0, 2, 1)
    assert _max_span_residual(alg.basis, adjoints) <= SPAN_TOL, "not closed under adjoints"
    for i, b in enumerate(alg.basis):
        assert _max_span_residual(alg.basis, b @ alg.basis) <= 1e-8, \
            f"products B_{i} B_j not in the span"
    assert span_residual(alg.basis, np.eye(n, dtype=complex)) <= SPAN_TOL, "identity missing"


def pairwise_max_commutator(stack):
    """Reference: worst relative commutator over every ordered pair, one pair at a time.

    Zero members commute with everything and are skipped.
    """
    mats = [m for m in stack if np.linalg.norm(m) > 0]
    norms = [np.linalg.norm(m) for m in mats]
    return max((np.linalg.norm(mats[i] @ mats[j] - mats[j] @ mats[i]) / (norms[i] * norms[j])
                for i in range(len(mats)) for j in range(len(mats))), default=0.0)


def sector_oracle_multiset(rep):
    """Present-block (d, ntilde) multiset from the character oracle, as ``multiset()`` sorts it."""
    return tuple(sorted((d, nt) for _, d, nt in character_oracle(rep) if nt > 0))


def vector_functional(alg, phi):
    """tr(rho B) over an algebra's basis for the vector state rho = |phi><phi| / ||phi||^2."""
    v = np.asarray(phi, dtype=complex)
    rho = np.outer(v, v.conj()) / np.vdot(v, v).real
    return np.einsum("kij,ji->k", alg.basis, rho)


def generic_eigenvalues(members, seed, salt):
    """Eigenvalues of the seeded generic element ``_generic_split`` draws at one salt.

    They are the ``w`` it returns when it keeps that draw, bit for bit.
    """
    rng = np.random.default_rng([seed, *salt])
    return np.linalg.eigh(_generic_hermitian_combo(members, rng))[0]


def fake_separations(monkeypatch, members, seed, fakes):
    """Make ``_cluster_separation`` read ``fakes[salt]`` for the draw at each given salt.

    A draw is recognised by its eigenvalues; every other split keeps its
    real separation.
    """
    real = opalgebra._cluster_separation
    by_draw = {generic_eigenvalues(members, seed, salt).tobytes(): sep
               for salt, sep in fakes.items()}
    monkeypatch.setattr(opalgebra, "_cluster_separation",
                        lambda split: by_draw.get(split[0].tobytes(), real(split)))


def sample_pattern(rng):
    """Random planted block pattern [(d_i, ntilde_i)] with total dim <= 16."""
    while True:
        n_sectors = rng.choice([1, 2, 3], p=[0.3, 0.45, 0.25])
        pattern = [(int(rng.choice([1, 1, 1, 2, 2, 3])), int(rng.choice([1, 2, 3])))
                   for _ in range(n_sectors)]
        if sum(d * t for d, t in pattern) <= 16:
            return pattern


def planted_block_algebra(rng, pattern, n_generators=2):
    """Hermitian generators of a hidden block algebra  (+) 1_d x M_ntilde.

    The pattern is conjugated by a random unitary; with two generic
    Hermitian elements per block the generated algebra is the full planted
    one (equal-size blocks are kept spectrally separated so no accidental
    intertwiner can merge them).
    """
    n = sum(d * t for d, t in pattern)
    u = random_unitary(rng, n)
    while True:
        block_draws = [[random_hermitian(rng, t) for t in (t,) * n_generators]
                       for _, t in pattern]
        # keep same-size blocks spectrally apart (first generator decides)
        ok = True
        for i in range(len(pattern)):
            for j in range(i + 1, len(pattern)):
                if pattern[i][1] != pattern[j][1]:
                    continue
                wi = np.linalg.eigvalsh(block_draws[i][0])
                wj = np.linalg.eigvalsh(block_draws[j][0])
                if np.max(np.abs(wi - wj)) < 1e-3:
                    ok = False
        if ok:
            break
    gens = []
    for k in range(n_generators):
        g = block_diag(*[np.kron(np.eye(d), block_draws[i][k])
                         for i, (d, _) in enumerate(pattern)])
        gens.append(u @ g @ u.conj().T)
    return gens, u
