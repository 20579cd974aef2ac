"""Command-line front end: runs the analyses and emits deterministic reports.

Subcommands: algebra | parastat | bargmann | extension | flux | dynamics.
Every report embeds the tool version, the seed and a digest of the exact
input (file bytes, or the canonical parameter encoding), and re-running
with identical inputs reproduces the report byte for byte.

Exit codes: 0 when every check passed, 2 when checks ran but some failed,
1 on input errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .bargmann import (
    GalileiElement,
    bargmann_cocycle_check,
    dynamics_symmetry_check,
    extended_action_composition_check,
    extended_dynamics,
    mass_superselection_report,
    ray_compose_check,
)
from .cocycles import (
    CocycleReport,
    check_cocycle,
    coboundary_solve,
    extension_product,
    zero_multiplier,
)
from .errors import SuperselectError
from .fileformat import (
    canonical_json_bytes,
    jsonable,
    load_dynamics_file,
    load_group_file,
    load_operator_file,
    sha256_hex,
)
from .fluxsectors import (
    ChargeKinematics,
    flux_instantaneous,
    flux_retarded,
    multipole_moments,
    sphere_quadrature,
    total_charge,
)
from .numkernel import ToleranceConfig
from .opalgebra import (
    _verify_word_closure,
    check_dirac,
    commutant,
    span_equal,
    span_residual,
    star_completion,
)
from .parastat import parastat_truncation, permutation_unitaries
from .sectors import central_decomposition

__all__ = ["main", "AnalysisReport", "run_command"]


@dataclass
class AnalysisReport:
    """Structured, byte-deterministic analysis output."""

    tool_version: str
    seed: int
    input_digest: str
    sections: dict = field(default_factory=dict)

    @property
    def checks(self) -> list[dict]:
        return self.sections.get("checks", [])

    @property
    def all_passed(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def to_document(self) -> dict:
        return {
            "tool_version": self.tool_version,
            "seed": self.seed,
            "input_digest": self.input_digest,
            "sections": jsonable(self.sections),
        }

    def to_json_bytes(self) -> bytes:
        return canonical_json_bytes(self.to_document())

    def render_text(self) -> str:
        lines = [f"superselect {self.tool_version}  seed={self.seed}",
                 f"input sha256 {self.input_digest}"]

        def walk(prefix, node):
            if isinstance(node, dict):
                for k in sorted(node):
                    walk(f"{prefix}{k}.", node[k])
            elif isinstance(node, list) and node and isinstance(node[0], dict):
                for i, item in enumerate(node):
                    walk(f"{prefix}{i}.", item)
            else:
                lines.append(f"{prefix[:-1]} = {node}")

        for key in sorted(self.sections):
            if key == "checks":
                continue
            walk(f"{key}.", self.sections[key])
        for c in self.checks:
            mark = "PASS" if c["passed"] else "FAIL"
            lines.append(f"[{mark}] {c['name']}: value={c['value']} "
                         f"threshold={c['threshold']}")
        lines.append("overall: " + ("PASS" if self.all_passed else "FAIL"))
        return "\n".join(lines) + "\n"


def _check(name: str, value, threshold, passed) -> dict:
    return {"name": name, "value": jsonable(value),
            "threshold": jsonable(threshold), "passed": bool(passed)}


def _args_digest(**params) -> str:
    return sha256_hex(canonical_json_bytes(params))


def _tol_from_args(args) -> ToleranceConfig:
    return ToleranceConfig(rank_tol=args.tol_rank, cluster_tol=args.tol_cluster,
                           seed=args.seed)


# ---------------------------------------------------------------------------
# subcommands

def cmd_algebra(path: str, tol: ToleranceConfig) -> AnalysisReport:
    """The input operators are the distinguished set (charges, symmetry
    generators); the observables analyzed are everything commuting with
    them, mirroring the identical-particle construction."""
    s, raw = load_operator_file(path)
    completed = star_completion(s)
    obs = commutant(s, tol)               # the observable algebra O = S'
    dec = central_decomposition(obs, tol)
    gen = dec.commutant                   # algebra generated by the inputs, S'' = O'
    _verify_word_closure(s, gen, tol)
    dirac = check_dirac(dec, tol)
    n = s.dim
    sum_dn = sum(sec.d * sec.ntilde for sec in dec.sectors)
    sum_n2 = sum(sec.ntilde ** 2 for sec in dec.sectors)
    sum_d2 = sum(sec.d ** 2 for sec in dec.sectors)
    # triple-commutant identity: commutant of S'' must equal S'
    triple_ok = span_equal(obs, commutant(gen.as_set(), tol), tol)
    # relative to each member's HS norm, so a large generator's roundoff is
    # not read as distance from the algebra; zero members lie in any span
    norms = np.linalg.norm(s.members, axis=(1, 2))
    member_resid = max((span_residual(gen.basis, m) / nm
                        for m, nm in zip(s.members, norms) if nm > 0), default=0.0)

    checks = [
        _check("sum d_i * ntilde_i == dim", sum_dn, n, sum_dn == n),
        _check("dim(observables) == sum ntilde_i^2", obs.algebra_dim, sum_n2,
               obs.algebra_dim == sum_n2),
        _check("dim(generated) == sum d_i^2", gen.algebra_dim, sum_d2,
               gen.algebra_dim == sum_d2),
        _check("generators lie in generated algebra (residual)", member_resid,
               100 * tol.rank_tol, member_resid <= 100 * tol.rank_tol),
        _check("triple commutant equals commutant", triple_ok, True, triple_ok),
    ]
    if dirac.v2_holds:
        checks.append(_check("witness is maximal abelian (A = A')",
                             dirac.witness_is_maximal_abelian, True,
                             bool(dirac.witness_is_maximal_abelian)))
        checks.append(_check("witness contained in observables",
                             dirac.witness_in_observables, True,
                             bool(dirac.witness_in_observables)))
    sections = {
        "input": {
            "path": os.path.basename(str(path)),
            "dim": s.dim,
            "operators": list(s.names),
            "star_completed": not s.self_adjoint_closed,
            "generators_after_completion": len(completed),
        },
        "structure": {
            "observable_dim": obs.algebra_dim,
            "generated_dim": gen.algebra_dim,
            "center_dim": len(dec.sectors),
            "dirac_v2_holds": dirac.v2_holds,
            "dirac_max_commutator": dirac.max_commutator,
            "witness_dim": dirac.witness.algebra_dim if dirac.witness is not None else None,
        },
        "sectors": [
            {"block_dim": sec.block_dim, "d": sec.d, "ntilde": sec.ntilde,
             "central_value": sec.central_value}
            for sec in dec.sectors
        ],
        "checks": checks,
    }
    return AnalysisReport(tool_version=__version__, seed=tol.seed,
                          input_digest=sha256_hex(raw), sections=sections)


def cmd_parastat(n: int, d: int, tol: ToleranceConfig) -> AnalysisReport:
    rep = permutation_unitaries(n, d)
    result = parastat_truncation(rep, tol)
    checks = [
        _check("spectral sectors match character oracle", result["sector_table"],
               "oracle multiset", result["oracle_agrees"]),
        _check("post-truncation commutant abelian (Dirac v2)",
               result["post_truncation_v2"], True, result["post_truncation_v2"]),
        _check("post-truncation commutant dim == number of sectors",
               result["post_truncation_commutant_dim"], len(result["sector_table"]),
               result["post_truncation_commutant_dim"] == len(result["sector_table"])),
        _check("sum d_i * ntilde_i == d^n",
               sum(a * b for a, b in result["sector_table"]), rep.dim,
               sum(a * b for a, b in result["sector_table"]) == rep.dim),
    ]
    sections = {"parastatistics": result, "checks": checks}
    return AnalysisReport(tool_version=__version__, seed=tol.seed,
                          input_digest=_args_digest(command="parastat", n=n, d=d),
                          sections=sections)


def cmd_bargmann(m1: float, m2: float, samples: int, tol: ToleranceConfig) -> AnalysisReport:
    cocycle_resid = bargmann_cocycle_check((m1, m2), samples, tol.seed)
    mass_rep = mass_superselection_report(m1, m2, samples, tol.seed)

    grid = np.linspace(-16.0, 16.0, 641)
    psi = np.exp(-(grid ** 2))
    ray = ray_compose_check(
        m1, grid,
        GalileiElement(v=[1.0, 0.0, 0.0], a=[0.5, 0.0, 0.0]),
        GalileiElement(v=[0.5, 0.0, 0.0], a=[1.0, 0.0, 0.0]),
        psi)

    action_resid = extended_action_composition_check(
        np.array([m1 / 2.0, m1 / 2.0]), samples, tol.seed)

    checks = [
        _check("multiplier cocycle residual", cocycle_resid, 1e-9, cocycle_resid <= 1e-9),
        _check("obstruction m1 > 0.1", mass_rep["obstruction_m1"], 0.1,
               mass_rep["obstruction_m1"] > 0.1),
        _check("obstruction m2 > 0.1", mass_rep["obstruction_m2"], 0.1,
               mass_rep["obstruction_m2"] > 0.1),
        _check("obstruction of difference > 0.1", mass_rep["obstruction_difference"],
               0.1, mass_rep["obstruction_difference"] > 0.1),
        _check("ray composition deviation", ray["max_deviation"], 1e-12, ray["ok"]),
        _check("extended action composition residual", action_resid, 1e-12,
               action_resid <= 1e-12),
    ]
    sections = {
        "mass_superselection": mass_rep,
        "ray_composition": ray,
        "extended_action_residual": action_resid,
        "cocycle_residual": cocycle_resid,
        "checks": checks,
    }
    return AnalysisReport(tool_version=__version__, seed=tol.seed,
                          input_digest=_args_digest(command="bargmann", m1=m1, m2=m2,
                                                    samples=samples),
                          sections=sections)


def cmd_extension(path: str, mode: str, tol: ToleranceConfig) -> AnalysisReport:
    group, mult, raw = load_group_file(path)
    strict = check_cocycle(mult, "strict")
    mod2pi = check_cocycle(mult, "mod2pi")
    requested: CocycleReport = strict if mode == "strict" else mod2pi

    triviality = None
    if strict.holds:
        res = coboundary_solve(zero_multiplier(group), mult, tol)
        triviality = {
            "is_coboundary": res.equivalent,
            "residual": res.max_residual,
            "gamma": res.gamma.tolist() if res.gamma is not None else None,
        }

    # extension associativity over sampled triples mirrors the cocycle identity
    rng = np.random.default_rng([tol.seed, 404])
    assoc_resid = 0.0
    for _ in range(min(1000, group.order ** 3)):
        th = rng.uniform(-np.pi, np.pi, size=3)
        gs = rng.integers(0, group.order, size=3)
        e1, e2, e3 = ((float(a), int(b)) for a, b in zip(th, gs))
        lhs = extension_product(extension_product(e1, e2, mult), e3, mult)
        rhs = extension_product(e1, extension_product(e2, e3, mult), mult)
        assoc_resid = max(assoc_resid, abs(lhs[0] - rhs[0]))
        if lhs[1] != rhs[1]:
            assoc_resid = float("inf")

    checks = [
        _check(f"cocycle identity ({mode})", requested.max_residual, 1e-10,
               requested.holds),
        _check("extension associativity iff strict cocycle",
               assoc_resid, 1e-10, (assoc_resid <= 1e-10) == strict.holds),
    ]
    sections = {
        "input": {"path": os.path.basename(str(path)), "order": group.order},
        "cocycle": {
            "strict_holds": strict.holds,
            "strict_residual": strict.max_residual,
            "mod2pi_holds": mod2pi.holds,
            "mod2pi_residual": mod2pi.max_residual,
        },
        "triviality": triviality,
        "extension_associativity_residual": assoc_resid,
        "checks": checks,
    }
    return AnalysisReport(tool_version=__version__, seed=tol.seed,
                          input_digest=sha256_hex(raw), sections=sections)


def cmd_flux(e: float, m: float, p, lmax: int, ntheta: int, nphi: int,
             formula: str, tol: ToleranceConfig) -> AnalysisReport:
    formula = {"inst": "instantaneous", "ret": "retarded"}.get(formula, formula)
    kin = ChargeKinematics(e=e, m=m, p=p)
    q = sphere_quadrature(ntheta, nphi)
    fn = flux_instantaneous if formula == "instantaneous" else flux_retarded
    fm = multipole_moments(lambda nodes: fn(kin, nodes), q, lmax)
    charge = total_charge(fm)

    axial = bool(np.linalg.norm(kin.p[:2]) <= 1e-12 * max(1.0, float(np.linalg.norm(kin.p))))
    max_m_nonzero = 0.0
    max_odd_l = 0.0
    for l in range(lmax + 1):
        for mm in range(-l, l + 1):
            v = abs(fm.coeff(l, mm))
            if mm != 0:
                max_m_nonzero = max(max_m_nonzero, v)
            if l % 2 == 1:
                max_odd_l = max(max_odd_l, v)

    checks = [_check("recovered charge matches e", abs(charge - e), 1e-8,
                     abs(charge - e) <= 1e-8)]
    if axial:
        checks.append(_check("m != 0 moments vanish (p along z)", max_m_nonzero,
                             1e-10, max_m_nonzero <= 1e-10))
    if formula == "instantaneous":
        checks.append(_check("odd-l moments vanish (flux even in n)", max_odd_l,
                             1e-10, max_odd_l <= 1e-10))

    table = [{"l": l, "m": mm, "f": fm.coeff(l, mm)}
             for l in range(lmax + 1) for mm in range(-l, l + 1)]
    sections = {
        "kinematics": {"e": e, "m": m, "p": list(map(float, kin.p)),
                       "formula": formula},
        "quadrature": {"n_theta": ntheta, "n_phi": nphi, "lmax": lmax},
        "charge": {"recovered": charge, "expected": e},
        "residuals": {"max_m_nonzero": max_m_nonzero, "max_odd_l": max_odd_l,
                      "axial_symmetry_applicable": axial},
        "multipoles": table,
        "checks": checks,
    }
    return AnalysisReport(tool_version=__version__, seed=tol.seed,
                          input_digest=_args_digest(command="flux", e=e, m=m,
                                                    p=list(map(float, kin.p)),
                                                    lmax=lmax, ntheta=ntheta,
                                                    nphi=nphi, formula=formula),
                          sections=sections)


def cmd_dynamics(path: str, tol: ToleranceConfig) -> AnalysisReport:
    cfg, raw = load_dynamics_file(path)
    point, potential = cfg["point"], cfg["potential"]
    traj = extended_dynamics(point, potential, cfg["dt"], cfg["steps"])
    scale = abs(traj.energy[0]) if abs(traj.energy[0]) > 1e-12 else 1.0
    drift = float(np.max(np.abs(traj.energy - traj.energy[0]))) / scale

    checks = [
        _check("relative energy drift", drift, 1e-6, drift <= 1e-6),
        _check("masses constant", float(np.max(np.abs(traj.m - point.m))), 0.0,
               bool(np.all(traj.m == point.m))),
    ]
    free_lambda_err = None
    if potential is None:
        rate = -np.sum(point.p * point.p, axis=1) / (2.0 * point.m ** 2)
        expect = point.lam + rate * (traj.times[-1] - traj.times[0])
        free_lambda_err = float(np.max(np.abs(traj.lam[-1] - expect)))
        checks.append(_check("free-particle lambda matches closed form",
                             free_lambda_err, 1e-10, free_lambda_err <= 1e-10))
    symmetry_dev = None
    if cfg["element"] is not None:
        symmetry_dev = dynamics_symmetry_check(point, cfg["element"], potential,
                                               cfg["dt"], cfg["steps"])
        checks.append(_check("extension element maps solutions to solutions",
                             symmetry_dev, 1e-5, symmetry_dev <= 1e-5))

    sections = {
        "input": {"path": os.path.basename(str(path)),
                  "particles": int(point.m.size),
                  "dt": cfg["dt"], "steps": cfg["steps"],
                  "potential": "none" if potential is None else "harmonic"},
        "results": {
            "energy_initial": float(traj.energy[0]),
            "energy_final": float(traj.energy[-1]),
            "energy_drift_relative": drift,
            "lambda_final": traj.lam[-1].tolist(),
            "free_lambda_error": free_lambda_err,
            "symmetry_deviation": symmetry_dev,
        },
        "checks": checks,
    }
    return AnalysisReport(tool_version=__version__, seed=tol.seed,
                          input_digest=sha256_hex(raw), sections=sections)


# ---------------------------------------------------------------------------
# argument parsing and dispatch

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superselect",
        description="Superselection-structure analyses on finite-dimensional models")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for every generic-element draw (default 0)")
    parser.add_argument("--tol-rank", type=float, default=1e-10,
                        help="relative singular-value cutoff (default 1e-10)")
    parser.add_argument("--tol-cluster", type=float, default=1e-8,
                        help="relative eigenvalue clustering width (default 1e-8)")
    parser.add_argument("--outdir", default=os.environ.get("SUPERSELECT_OUTDIR"),
                        help="write <command>_report.json/.txt here instead of stdout "
                             "(env: SUPERSELECT_OUTDIR)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("algebra", help="commutant/center/sector analysis of an operator set")
    p.add_argument("file", help="operator-set document")

    p = sub.add_parser("parastat", help="permutation-invariant observables on (C^d)^n")
    p.add_argument("--n", type=int, required=True, help="number of particles (2..4)")
    p.add_argument("--d", type=int, required=True, help="single-particle dimension (2..3)")

    p = sub.add_parser("bargmann", help="mass multiplier obstructions and extension checks")
    p.add_argument("--m1", type=float, default=2.0)
    p.add_argument("--m2", type=float, default=1.0)
    p.add_argument("--samples", type=int, default=1000)

    p = sub.add_parser("extension", help="cocycle/coboundary analysis of a multiplier table")
    p.add_argument("file", help="group/multiplier document")
    p.add_argument("--mode", choices=["strict", "mod2pi"], default="strict")

    p = sub.add_parser("flux", help="flux multipoles of a moving charge")
    p.add_argument("--e", type=float, default=1.0, help="charge")
    p.add_argument("--m", type=float, default=1.0, help="mass")
    p.add_argument("--p", type=float, nargs=3, default=[0.0, 0.0, 0.0],
                   metavar=("PX", "PY", "PZ"))
    p.add_argument("--lmax", type=int, default=8)
    p.add_argument("--ntheta", type=int, default=64)
    p.add_argument("--nphi", type=int, default=128)
    p.add_argument("--formula", choices=["inst", "ret", "instantaneous", "retarded"],
                   default="inst")

    p = sub.add_parser("dynamics", help="extended dynamics with mass-conjugate positions")
    p.add_argument("file", help="dynamics configuration document")
    return parser


def run_command(args) -> AnalysisReport:
    tol = _tol_from_args(args)
    if args.command == "algebra":
        return cmd_algebra(args.file, tol)
    if args.command == "parastat":
        return cmd_parastat(args.n, args.d, tol)
    if args.command == "bargmann":
        return cmd_bargmann(args.m1, args.m2, args.samples, tol)
    if args.command == "extension":
        return cmd_extension(args.file, args.mode, tol)
    if args.command == "flux":
        return cmd_flux(args.e, args.m, args.p, args.lmax, args.ntheta,
                        args.nphi, args.formula, tol)
    if args.command == "dynamics":
        return cmd_dynamics(args.file, tol)
    raise ValueError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors; that code
        return 0 if exc.code in (0, None) else 1  # means "checks failed" here
    try:
        report = run_command(args)
    except (SuperselectError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    payload = report.to_json_bytes()
    if args.outdir:
        os.makedirs(args.outdir, exist_ok=True)
        base = os.path.join(args.outdir, f"{args.command}_report")
        with open(base + ".json", "wb") as fh:
            fh.write(payload)
        with open(base + ".txt", "w", encoding="utf-8") as fh:
            fh.write(report.render_text())
        print(base + ".json")
    else:
        sys.stdout.write(payload.decode("utf-8"))
    return 0 if report.all_passed else 2


if __name__ == "__main__":
    sys.exit(main())
