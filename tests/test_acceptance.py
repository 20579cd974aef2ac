"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS line with the measured figures (run pytest with
``-s`` or check the captured output).  Criteria 1 and 2 share one sweep of
1000 planted block algebras; the timing budget applies to the structural
recovery work of criterion 1.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import planted_block_algebra, sample_pattern, sector_oracle_multiset
from superselect import bargmann as bg
from superselect.cocycles import (
    BUILTIN_GROUPS,
    MultiplierTable,
    check_cocycle,
    coboundary,
    coboundary_solve,
    cyclic_group,
    extension_product,
    pauli_multiplier,
    zero_multiplier,
)
from superselect.diracsets import (
    cyclic_vector_for,
    has_simple_spectrum,
    interpolate_commuting,
    is_cyclic,
)
from superselect.errors import DegenerateSpectrum
from superselect.fluxsectors import (
    ChargeKinematics,
    flux_instantaneous,
    flux_retarded,
    multipole_moments,
    sector_signature,
    sphere_quadrature,
    total_charge,
)
from superselect.numkernel import random_unitary
from superselect.opalgebra import (
    check_dirac,
    commutant,
    generated_algebra,
    operator_set,
    span_equal,
    span_residual,
)
from superselect.parastat import TensorRep, parastat_truncation
from superselect.sectors import central_decomposition

N_PLANTED = 1000
PLANTED_BUDGET_SECONDS = 30.0


@pytest.fixture(scope="module")
def planted_sweep():
    """Shared sweep over seeded planted block algebras (criteria 1 and 2)."""
    rng = np.random.default_rng(2024)
    records = []
    t_structure = 0.0
    for trial in range(N_PLANTED):
        pattern = sorted(sample_pattern(rng))
        gens, _ = planted_block_algebra(rng, pattern)
        t0 = time.perf_counter()
        s = operator_set(gens)
        cp = commutant(s, trial)
        o = generated_algebra(s, trial)
        dec = central_decomposition(o, trial)  # dec.commutant is the triple commutant
        member_resid = max(span_residual(o.basis, m) / float(np.linalg.norm(m))
                           for m in s.members)
        t_structure += time.perf_counter() - t0
        records.append({
            "trial": trial,
            "pattern": pattern,
            "n": gens[0].shape[0],
            "seed": trial,
            "algebra": o,
            "commutant": cp,
            "decomposition": dec,
            "member_residual": member_resid,
            "triple_commutant_ok": span_equal(cp, dec.commutant),
        })
    return records, t_structure


def test_criterion_1_commutant_calculus(planted_sweep):
    records, elapsed = planted_sweep
    failures = []
    for rec in records:
        dec, pattern, n = rec["decomposition"], rec["pattern"], rec["n"]
        got = sorted((s.d, s.ntilde) for s in dec.sectors)
        blocks = sorted(s.block_dim for s in dec.sectors)
        ok = (
            got == pattern
            and blocks == sorted(d * t for d, t in pattern)
            and len(dec.sectors) == len(pattern)
            and sum(s.d * s.ntilde for s in dec.sectors) == n
            and rec["algebra"].algebra_dim == sum(t * t for _, t in pattern)
            and rec["commutant"].algebra_dim == sum(d * d for d, _ in pattern)
            and rec["member_residual"] <= 1e-10 * 100
            and rec["triple_commutant_ok"]
        )
        if not ok:
            failures.append(rec["trial"])
    assert not failures, f"trials with structural mismatch: {failures[:10]}"
    assert elapsed <= PLANTED_BUDGET_SECONDS, f"structure sweep took {elapsed:.1f}s"
    print(f"\n[PASS] criterion 1: {len(records)} planted algebras recovered exactly "
          f"in {elapsed:.1f}s (budget {PLANTED_BUDGET_SECONDS:.0f}s)")


def test_criterion_2_dirac_equivalence(planted_sweep):
    records, _ = planted_sweep
    disagreements = []
    for rec in records:
        rep = check_dirac(rec["decomposition"], rec["seed"])
        expect = all(d == 1 for d, _ in rec["pattern"])
        if rep.v2_holds != expect:
            disagreements.append((rec["trial"], "verdict"))
        if rep.v2_holds and not (rep.witness_is_maximal_abelian
                                 and rep.witness_in_observables):
            disagreements.append((rec["trial"], "witness"))
    assert not disagreements, f"disagreements: {disagreements[:10]}"
    n_holds = sum(1 for r in records if all(d == 1 for d, _ in r["pattern"]))
    print(f"\n[PASS] criterion 2: verdict == 'all planted d_i = 1' on "
          f"{len(records)} algebras ({n_holds} with abelian commutant), "
          f"witness A = A' verified, zero disagreements")


def test_criterion_3_vandermonde_cyclic_suite():
    rng = np.random.default_rng(33)
    interp_failures = 0
    count = 0
    while count < 100:
        n = int(rng.integers(2, 11))
        alpha = np.sort(rng.uniform(-3, 3, n))
        if n > 1 and np.min(np.diff(alpha)) < 1e-3:
            continue
        u = random_unitary(rng, n)
        a = (u * alpha) @ u.conj().T
        a = 0.5 * (a + a.conj().T)
        beta = rng.uniform(-5, 5, n)
        b = (u * beta) @ u.conj().T
        b = 0.5 * (b + b.conj().T)
        p = interpolate_commuting(a, b)
        if np.linalg.norm(p.of_matrix(a) - b) > 1e-8 * np.linalg.norm(b):
            interp_failures += 1
        count += 1
    assert interp_failures == 0

    cyclic_failures = 0
    for trial in range(100):
        n = int(rng.integers(2, 11))
        vals = np.sort(rng.uniform(-2, 2, n))
        while np.min(np.diff(vals)) < 1e-3:
            vals = np.sort(rng.uniform(-2, 2, n))
        planted_degenerate = trial % 3 == 0
        if planted_degenerate:
            vals[1] = vals[0]
        u = random_unitary(rng, n)
        a = (u * vals) @ u.conj().T
        a = 0.5 * (a + a.conj().T)
        simple, _ = has_simple_spectrum(a)
        if simple != (not planted_degenerate):
            cyclic_failures += 1
            continue
        if planted_degenerate:
            try:
                cyclic_vector_for(a)
                cyclic_failures += 1
            except DegenerateSpectrum:
                pass
        else:
            g = cyclic_vector_for(a)
            alg = generated_algebra(operator_set([a]))
            if not is_cyclic(g, alg):
                cyclic_failures += 1
    assert cyclic_failures == 0
    print("\n[PASS] criterion 3: 100 interpolations at 1e-8, cyclic vector exists "
          "iff spectrum simple on 100 draws with planted degeneracies, zero failures")


@pytest.mark.parametrize("n,d,expected_truncated", [
    (2, 2, 4), (3, 2, 6), (3, 3, None), (4, 2, 9),
])
def test_criterion_4_parastatistics(n, d, expected_truncated):
    rep = TensorRep(n, d)
    result = parastat_truncation(rep)
    assert result["oracle_agrees"]
    assert tuple(sorted(map(tuple, result["sector_table"]))) == sector_oracle_multiset(rep)
    if n >= 3:
        assert not result["pre_truncation_abelian"]
    assert result["post_truncation_v2"]
    assert result["post_truncation_commutant_dim"] == len(result["sector_table"])
    if expected_truncated is not None:
        assert result["dim_truncated"] == expected_truncated
    print(f"\n[PASS] criterion 4 ({n},{d}): sectors {result['sector_table']} match "
          f"the character oracle, truncated dim {result['dim_truncated']}, "
          f"compatibility restored")


def test_criterion_5_cocycle_suite():
    rng = np.random.default_rng(55)
    # coboundaries are cocycles, on every built-in group
    for name, mk in BUILTIN_GROUPS.items():
        g = mk()
        for _ in range(100):
            gamma = rng.standard_normal(g.order)
            gamma[g.identity] = 0.0
            xi = MultiplierTable(group=g, xi=coboundary(g, gamma))
            assert check_cocycle(xi, "strict").max_residual <= 1e-12, name

    # planted gamma recovered within 1e-10
    for mk in BUILTIN_GROUPS.values():
        g = mk()
        gamma0 = rng.standard_normal(g.order)
        gamma0[g.identity] = 0.0
        xi_prime = MultiplierTable(group=g, xi=coboundary(g, gamma0))
        res = coboundary_solve(zero_multiplier(g), xi_prime)
        assert res.equivalent and res.max_residual <= 1e-10

    # extension associativity holds iff the cocycle identity does
    g = cyclic_group(4)
    misclassified = 0
    for trial in range(40):
        gamma = rng.standard_normal(4)
        gamma[0] = 0.0
        xi_arr = coboundary(g, gamma)
        planted_violation = trial % 2 == 1
        if planted_violation:
            i, j = rng.integers(1, 4, size=2)
            xi_arr = xi_arr.copy()
            xi_arr[i, j] += 0.25
        mult = MultiplierTable(group=g, xi=xi_arr)
        is_cocycle = check_cocycle(mult, "strict").holds
        worst = 0.0
        for _ in range(200):
            th = rng.uniform(-2, 2, 3)
            ks = rng.integers(0, 4, 3)
            e1, e2, e3 = zip(th, ks)
            lhs = extension_product(extension_product(e1, e2, mult), e3, mult)
            rhs = extension_product(e1, extension_product(e2, e3, mult), mult)
            worst = max(worst, abs(lhs[0] - rhs[0]))
        if (worst <= 1e-10) != is_cocycle or is_cocycle == planted_violation:
            misclassified += 1
    assert misclassified == 0

    pm = pauli_multiplier()
    assert not check_cocycle(pm, "strict").holds
    assert check_cocycle(pm, "mod2pi").holds
    print("\n[PASS] criterion 5: coboundary identities on 5 groups, planted-gamma "
          "recovery at 1e-10, associativity iff cocycle (0 misclassified), "
          "obstructed multiplier passes mod-2pi and fails strict")


def test_criterion_6_bargmann_suite():
    # multiplier cocycle identity over seeded triples
    resid = bg.bargmann_cocycle_check(1.0, samples=1000, seed=0)
    assert resid <= 1e-9

    # canonical obstruction triple, exact
    rep = bg.mass_superselection_report(2.0, 1.0, samples=100, seed=0)
    triple = rep["canonical_pair_obstructions"]
    assert np.max(np.abs(np.array(triple) - [2.0, 1.0, 1.0])) <= 1e-12

    # ray composition on the sampled line
    grid = np.linspace(-16.0, 16.0, 641)
    psi = np.exp(-grid ** 2)
    ray = bg.ray_compose_check(
        1.0, grid, bg.GalileiElement(v=[1.0, 0, 0], a=[0.5, 0, 0]),
        bg.GalileiElement(v=[0.5, 0, 0], a=[1.0, 0, 0]), psi)
    assert ray["max_deviation"] <= 1e-12

    # extended action composition over 1000 seeded triples
    rng = np.random.default_rng(66)
    masses = np.array([1.0, 2.0])
    worst = 0.0
    for _ in range(1000):
        e1 = bg.ExtendedElement(theta=float(rng.uniform(-2, 2)),
                                g=bg.random_galilei_element(rng))
        e2 = bg.ExtendedElement(theta=float(rng.uniform(-2, 2)),
                                g=bg.random_galilei_element(rng))
        xs, lams, t = rng.uniform(-2, 2, (2, 3)), rng.uniform(-2, 2, 2), 0.7
        x2, l2, t2 = bg.extended_action(e2, xs, lams, t, masses)
        x12, l12, t12 = bg.extended_action(e1, x2, l2, t2, masses)
        xa, la, ta = bg.extended_action(bg.extended_multiply(e1, e2, 3.0),
                                        xs, lams, t, masses)
        worst = max(worst, float(np.max(np.abs(x12 - xa))),
                    float(np.max(np.abs(l12 - la))), abs(t12 - ta))
    assert worst <= 1e-12

    # free-particle mass-conjugate coordinate follows the closed form
    pt = bg.ExtendedPhasePoint(x=[[0, 0, 0]], p=[[2.0, 0, 0]], m=[1.5], lam=[0.25])
    traj = bg.extended_dynamics(pt, None, 1e-3, 1000)
    lam_err = abs(traj.lam[-1, 0] - (0.25 - (4.0 / 4.5) * (traj.times[-1])))
    assert lam_err <= 1e-10

    # symmetry of the harmonic flow under a generic extension element,
    # with second-order convergence under step halving
    pt2 = bg.ExtendedPhasePoint(x=[[0, 0, 0], [1.5, 0, 0]],
                                p=[[0, 0.3, 0], [0, -0.2, 0.1]],
                                m=[1.0, 2.0], lam=[0.0, 0.0])
    e = bg.ExtendedElement(theta=0.3,
                           g=bg.random_galilei_element(np.random.default_rng(42)))
    pot = bg.HarmonicPairPotential()
    d1 = bg.dynamics_symmetry_check(pt2, e, pot, 1e-3, 1000)[1]
    d2 = bg.dynamics_symmetry_check(pt2, e, pot, 5e-4, 2000)[1]
    assert d1 <= 1e-5
    assert d1 / d2 == pytest.approx(4.0, rel=0.5)
    print(f"\n[PASS] criterion 6: cocycle residual {resid:.2e}, obstructions "
          f"{tuple(triple)}, ray deviation {ray['max_deviation']:.2e}, action "
          f"composition {worst:.2e}, free lambda error {lam_err:.2e}, symmetry "
          f"deviation {d1:.2e} with dt-halving ratio {d1 / d2:.2f}")


def test_criterion_7_flux_suite():
    q = sphere_quadrature(64, 128)
    for ratio in (0.0, 0.5, 1.0, 2.0, 3.0):
        k = ChargeKinematics(e=1.0, m=1.0, p=[0, 0, ratio])
        for fn in (flux_instantaneous, flux_retarded):
            fm = multipole_moments(lambda n: fn(k, n), q, 8)
            assert abs(total_charge(fm) - 1.0) <= 1e-8, (ratio, fn.__name__)

    k = ChargeKinematics(e=1.0, m=1.0, p=[0, 0, 1.0])
    fm = multipole_moments(lambda n: flux_instantaneous(k, n), q, 8)
    for l in range(9):
        for m in range(-l, l + 1):
            if m != 0 or l % 2 == 1:
                assert abs(fm.coeff(l, m)) <= 1e-10

    sig = sector_signature(ChargeKinematics(e=1.0, m=1.0, p=[0, 0, 0]), k, 8, q)
    assert sig["l_ge1_norm"] > 0.01

    uniform = multipole_moments(lambda n: np.full(len(n), 1 / (4 * np.pi)), q, 8)
    nonzero = np.sum(np.abs(uniform.coefficients) > 1e-10)
    assert nonzero == 1
    print(f"\n[PASS] criterion 7: charge recovered at 1e-8 for both formulas over "
          f"5 momenta, selection-rule residuals below 1e-10, sector signature "
          f"{sig['l_ge1_norm']:.3f} > 0.01, uniform flux has exactly one moment")


def test_criterion_8_cli_determinism(tmp_path):
    opset = tmp_path / "ops.json"
    opset.write_text(json.dumps({
        "dim": 3,
        "operators": [{"name": "A", "re": [[1, 0, 0], [0, 1, 0], [0, 0, 2]],
                       "im": [[0, 0, 0], [0, 0, 0], [0, 0, 0]]}]}))
    idx = range(4)
    group = tmp_path / "group.json"
    group.write_text(json.dumps({
        "order": 4,
        "table": [[2 * (((i // 2) + (j // 2)) % 2) + ((i % 2) + (j % 2)) % 2
                   for j in idx] for i in idx],
        "xi": [[float(np.pi) * (i % 2) * (j // 2) for j in idx] for i in idx]}))
    dyn = tmp_path / "dyn.json"
    dyn.write_text(json.dumps({
        "masses": [1.0], "x": [[0, 0, 0]], "p": [[1.0, 0, 0]], "lambda": [0.0],
        "dt": 1e-3, "steps": 200, "potential": {"kind": "none"}}))

    commands = [
        ["--seed", "5", "algebra", str(opset)],
        ["--seed", "5", "parastat", "--n", "3", "--d", "2"],
        ["--seed", "5", "bargmann", "--samples", "100"],
        ["--seed", "5", "extension", str(group), "--mode", "mod2pi"],
        ["--seed", "5", "flux", "--p", "0", "0", "1", "--lmax", "4",
         "--ntheta", "32", "--nphi", "32"],
        ["--seed", "5", "dynamics", str(dyn)],
    ]
    for argv in commands:
        runs = [subprocess.run([sys.executable, "-m", "superselect.cli", *argv],
                               capture_output=True, check=False) for _ in range(2)]
        assert runs[0].returncode in (0, 2), (argv, runs[0].stderr)
        assert runs[0].returncode == runs[1].returncode
        assert runs[0].stdout == runs[1].stdout, f"non-deterministic: {argv}"
        assert runs[0].stdout  # a report was emitted
    print("\n[PASS] criterion 8: all six subcommands reproduce byte-identical "
          "reports under re-runs with fixed inputs and seed")
