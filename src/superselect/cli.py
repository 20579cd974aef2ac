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
import functools
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .bargmann import (
    RAY_COMPOSE_TOL,
    GalileiElement,
    bargmann_cocycle_check,
    dynamics_symmetry_check,
    extended_action_composition_check,
    extended_dynamics,
    mass_superselection_report,
    ray_compose_check,
    transform_phase_point,
)
from .cocycles import (
    COCYCLE_TOL,
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
    lm_arrays,
    multipole_moments,
    sphere_quadrature,
    total_charge,
)
from .numkernel import MEMBER_TOL, SPAN_TOL
from .opalgebra import (
    OperatorAlgebra,
    _max_commutator,
    _pair_commutant,
    _verify_commutes,
    check_dirac,
    commutant,
    generated_algebra,
    span_residual,
    star_completion,
)
from .parastat import TensorRep, parastat_truncation
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
        """The report as a dict; :func:`canonical_json_bytes` converts its numpy values."""
        return {
            "tool_version": self.tool_version,
            "seed": self.seed,
            "input_digest": self.input_digest,
            "sections": self.sections,
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


def _at_most(name: str, value, threshold) -> dict:
    return _check(name, value, threshold, value <= threshold)


def _above(name: str, value, threshold) -> dict:
    return _check(name, value, threshold, value > threshold)


def _equal(name: str, value, threshold) -> dict:
    return _check(name, value, threshold, value == threshold)


def _args_digest(**params) -> str:
    return sha256_hex(canonical_json_bytes(params))


# ---------------------------------------------------------------------------
# subcommands

def _triple_commutant_holds(obs: OperatorAlgebra, gen_basis: np.ndarray, seed: int) -> bool:
    """The triple-commutant identity S''' = S', given O = S' and a basis of S''.

    It is taken as the commutant T' of a seeded generic pair T of S''.
    ``generated_algebra`` took S'' as the commutant P' of a generic pair P
    of O: P lies in O, so P' contains O', and P' has the word closure's
    dimension, dim O', so P' = O'.  Then S''' = O'' = O = S', and T'
    contains it: T' = S' proves the identity.  T' is by definition what
    commutes with both members of T, so O lies in it when every member of
    O's orthonormal basis commutes with T to ``SPAN_TOL``
    (:func:`_verify_commutes`); equal dimensions then make the two equal,
    and n^2 orthonormal members fill M_n with no test.  A pair generating
    less than S'' can only make T' larger and the check fail.
    """
    pair, tcp = _pair_commutant(gen_basis, seed, (105,))
    n = obs.dim
    return tcp.algebra_dim == obs.algebra_dim and (
        obs.algebra_dim == n * n or _verify_commutes(pair, [(0, n, obs.basis)])[1] <= SPAN_TOL)


def cmd_algebra(path: str, seed: int) -> AnalysisReport:
    """The input operators are the distinguished set (charges, symmetry
    generators); the observables analyzed are everything commuting with
    them, mirroring the identical-particle construction."""
    s, raw = load_operator_file(path)
    completed = star_completion(s)        # S*, the one star completion of the input
    obs = commutant(completed, seed)      # the observable algebra O = S'
    # the algebra generated by the inputs, S'' = O', checked against word closure
    gen = generated_algebra(completed, seed, commutant_algebra=obs)
    dec = central_decomposition(obs, seed, commutant_algebra=gen)
    dirac = check_dirac(dec, seed)
    n = s.dim
    sum_dn = sum(sec.d * sec.ntilde for sec in dec.sectors)
    sum_n2 = sum(sec.ntilde ** 2 for sec in dec.sectors)
    sum_d2 = sum(sec.d ** 2 for sec in dec.sectors)
    triple_ok = _triple_commutant_holds(obs, gen.basis, seed)
    # relative to each member's HS norm, so a large generator's roundoff is
    # not read as distance from the algebra; zero members lie in any span
    norms = np.linalg.norm(s.members, axis=(1, 2))
    member_resid = max((span_residual(gen.basis, m) / nm
                        for m, nm in zip(s.members, norms) if nm > 0), default=0.0)

    checks = [
        _equal("sum d_i * ntilde_i == dim", sum_dn, n),
        _equal("dim(observables) == sum ntilde_i^2", obs.algebra_dim, sum_n2),
        _equal("dim(generated) == sum d_i^2", gen.algebra_dim, sum_d2),
        _at_most("generators lie in generated algebra (residual)", member_resid,
                 MEMBER_TOL),
        _equal("triple commutant equals commutant", triple_ok, True),
    ]
    if dirac.v2_holds:
        checks.append(_equal("witness is maximal abelian (A = A')",
                             dirac.witness_is_maximal_abelian, True))
        checks.append(_equal("witness contained in observables",
                             dirac.witness_in_observables, True))
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
            # gauge-free: S generates O', so its pairs commute iff O' is abelian
            "dirac_max_commutator": _max_commutator(completed.members),
            "witness_dim": dirac.witness.algebra_dim if dirac.witness is not None else None,
        },
        "sectors": [
            {"block_dim": sec.block_dim, "d": sec.d, "ntilde": sec.ntilde,
             "central_value": sec.central_value}
            for sec in dec.sectors
        ],
        "checks": checks,
    }
    return AnalysisReport(tool_version=__version__, seed=seed,
                          input_digest=sha256_hex(raw), sections=sections)


def cmd_parastat(n: int, d: int, seed: int) -> AnalysisReport:
    rep = TensorRep(n, d)
    result = parastat_truncation(rep, seed)
    checks = [
        _check("spectral sectors match character oracle", result["sector_table"],
               "oracle multiset", result["oracle_agrees"]),
        _equal("post-truncation commutant abelian (Dirac v2)",
               result["post_truncation_v2"], True),
        _equal("post-truncation commutant dim == number of sectors",
               result["post_truncation_commutant_dim"], len(result["sector_table"])),
        _equal("sum d_i * ntilde_i == d^n",
               sum(a * b for a, b in result["sector_table"]), rep.dim),
    ]
    sections = {"parastatistics": result, "checks": checks}
    return AnalysisReport(tool_version=__version__, seed=seed,
                          input_digest=_args_digest(command="parastat", n=n, d=d),
                          sections=sections)


def cmd_bargmann(m1: float, m2: float, samples: int, seed: int) -> AnalysisReport:
    cocycle_resid = bargmann_cocycle_check((m1, m2), samples, seed)
    mass_rep = mass_superselection_report(m1, m2, samples, seed)

    grid = np.linspace(-16.0, 16.0, 641)
    psi = np.exp(-(grid ** 2))
    ray = ray_compose_check(
        m1, grid,
        GalileiElement(v=[1.0, 0.0, 0.0], a=[0.5, 0.0, 0.0]),
        GalileiElement(v=[0.5, 0.0, 0.0], a=[1.0, 0.0, 0.0]),
        psi)

    action_resid = extended_action_composition_check(
        np.array([m1 / 2.0, m1 / 2.0]), samples, seed)

    checks = [
        _at_most("multiplier cocycle residual", cocycle_resid, 1e-9),
        # each obstruction is linear in its mass, so each is held to its own mass
        _above("obstruction m1 > 0.1 m1", mass_rep["obstruction_m1"], 0.1 * m1),
        _above("obstruction m2 > 0.1 m2", mass_rep["obstruction_m2"], 0.1 * m2),
        _above("obstruction of difference > 0.1 |m1 - m2|",
               mass_rep["obstruction_difference"], 0.1 * abs(m1 - m2)),
        _at_most("ray composition deviation", ray["max_deviation"], RAY_COMPOSE_TOL),
        _at_most("extended action composition residual", action_resid, 1e-12),
    ]
    sections = {
        "mass_superselection": mass_rep,
        "ray_composition": ray,
        "extended_action_residual": action_resid,
        "cocycle_residual": cocycle_resid,
        "checks": checks,
    }
    return AnalysisReport(tool_version=__version__, seed=seed,
                          input_digest=_args_digest(command="bargmann", m1=m1, m2=m2,
                                                    samples=samples),
                          sections=sections)


def cmd_extension(path: str, mode: str, seed: int) -> AnalysisReport:
    group, mult, raw = load_group_file(path)
    strict = check_cocycle(mult, "strict")
    mod2pi = check_cocycle(mult, "mod2pi")
    requested: CocycleReport = strict if mode == "strict" else mod2pi

    triviality = None
    if strict.holds:
        res = coboundary_solve(zero_multiplier(group), mult)
        triviality = {
            "is_coboundary": res.equivalent,
            "residual": res.max_residual,
            "gamma": res.gamma.tolist() if res.gamma is not None else None,
        }

    # extension associativity on every triple, one broadcast pass, with a
    # seeded theta per slot and element; it mirrors the cocycle identity.
    # finite_group proved the index parts agree, so only thetas are compared
    th = np.random.default_rng([seed, 404]).uniform(-np.pi, np.pi, (3, group.order))
    i1, i2, i3 = np.ix_(*(np.arange(group.order),) * 3)
    e1, e2, e3 = (th[0][i1], i1), (th[1][i2], i2), (th[2][i3], i3)
    lhs = extension_product(extension_product(e1, e2, mult), e3, mult)[0]
    rhs = extension_product(e1, extension_product(e2, e3, mult), mult)[0]
    assoc_resid = float(np.max(np.abs(lhs - rhs)))

    checks = [
        _at_most(f"cocycle identity ({mode})", requested.max_residual, COCYCLE_TOL),
        _check("extension associativity iff strict cocycle",
               assoc_resid, COCYCLE_TOL, (assoc_resid <= COCYCLE_TOL) == strict.holds),
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
    return AnalysisReport(tool_version=__version__, seed=seed,
                          input_digest=sha256_hex(raw), sections=sections)


def cmd_flux(e: float, m: float, p, lmax: int, ntheta: int, nphi: int,
             formula: str, seed: int) -> AnalysisReport:
    formula = {"inst": "instantaneous", "ret": "retarded"}.get(formula, formula)
    kin = ChargeKinematics(e=e, m=m, p=p)
    q = sphere_quadrature(ntheta, nphi)
    fn = flux_instantaneous if formula == "instantaneous" else flux_retarded
    fm = multipole_moments(lambda nodes: fn(kin, nodes), q, lmax)
    charge = total_charge(fm)

    axial = bool(np.linalg.norm(kin.p[:2]) <= 1e-12 * max(1.0, float(np.linalg.norm(kin.p))))
    degree, order = lm_arrays(lmax)
    magnitude = np.abs(fm.coefficients)
    max_m_nonzero = float(np.max(magnitude[order != 0], initial=0.0))
    max_odd_l = float(np.max(magnitude[degree % 2 == 1], initial=0.0))

    checks = [_at_most("recovered charge matches e", abs(charge - e), 1e-8)]
    if axial:
        checks.append(_at_most("m != 0 moments vanish (p along z)", max_m_nonzero, 1e-10))
    if formula == "instantaneous":
        checks.append(_at_most("odd-l moments vanish (flux even in n)", max_odd_l, 1e-10))

    table = [{"l": l, "m": mm, "f": f} for l, mm, f in
             zip(degree.tolist(), order.tolist(), fm.coefficients.tolist())]
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
    return AnalysisReport(tool_version=__version__, seed=seed,
                          input_digest=_args_digest(command="flux", e=e, m=m,
                                                    p=list(map(float, kin.p)),
                                                    lmax=lmax, ntheta=ntheta,
                                                    nphi=nphi, formula=formula),
                          sections=sections)


def cmd_dynamics(path: str, seed: int) -> AnalysisReport:
    cfg, raw = load_dynamics_file(path)
    point, potential, element = cfg["point"], cfg["potential"], cfg["element"]
    # one batch: the point and, for the symmetry check, its transform
    starts = [point] if element is None else [point, transform_phase_point(element, point)]
    traj, *moved = extended_dynamics(starts, potential, cfg["dt"], cfg["steps"])
    drift = traj.drift  # of the centre-of-mass-frame energy, so a boost leaves it alone

    checks = [
        _at_most("relative energy drift", drift, 1e-6),
        _at_most("masses constant", float(np.max(np.abs(traj.m - point.m))), 0.0),
    ]
    free_lambda_err = None
    if potential is None:
        rate = -np.sum(point.p * point.p, axis=1) / (2.0 * point.m ** 2)
        expect = point.lam + rate * (traj.times[-1] - traj.times[0])
        free_lambda_err = float(np.max(np.abs(traj.lam[-1] - expect)))
        checks.append(_at_most("free-particle lambda matches closed form",
                               free_lambda_err, 1e-10))
    symmetry_dev = None
    if element is not None:
        symmetry_dev = dynamics_symmetry_check(traj, element, potential, cfg["dt"],
                                               moved=moved[0])
        checks.append(_at_most("extension element maps solutions to solutions",
                               symmetry_dev, 1e-5))

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
    return AnalysisReport(tool_version=__version__, seed=seed,
                          input_digest=sha256_hex(raw), sections=sections)


# ---------------------------------------------------------------------------
# argument parsing and dispatch

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one argument parser, built on the first call.

    It holds no per-call state: ``SUPERSELECT_OUTDIR`` is read by
    :func:`main` when it runs, and every default is immutable.  Every caller
    shares it, so callers parse with it and never add to it.
    """
    parser = argparse.ArgumentParser(
        prog="superselect",
        description="Superselection-structure analyses on finite-dimensional models")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for every generic-element draw (default 0)")
    parser.add_argument("--outdir",
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
    p.add_argument("--p", type=float, nargs=3, default=(0.0, 0.0, 0.0),
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
    if args.seed < 0:
        raise ValueError("seed must be a non-negative integer")
    if args.command == "algebra":
        return cmd_algebra(args.file, args.seed)
    if args.command == "parastat":
        return cmd_parastat(args.n, args.d, args.seed)
    if args.command == "bargmann":
        return cmd_bargmann(args.m1, args.m2, args.samples, args.seed)
    if args.command == "extension":
        return cmd_extension(args.file, args.mode, args.seed)
    if args.command == "flux":
        return cmd_flux(args.e, args.m, args.p, args.lmax, args.ntheta,
                        args.nphi, args.formula, args.seed)
    if args.command == "dynamics":
        return cmd_dynamics(args.file, args.seed)
    raise ValueError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors; that code
        return 0 if exc.code in (0, None) else 1  # means "checks failed" here
    try:
        # an overflow or invalid operation is an input error, not a warning
        # on stderr followed by a NaN in the report
        with np.errstate(over="raise", invalid="raise"):
            report = run_command(args)
            payload = report.to_json_bytes()
    except FloatingPointError as exc:
        print(f"error: {args.command}: floating-point {exc}", file=sys.stderr)
        return 1
    except (SuperselectError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    outdir = args.outdir if args.outdir is not None else os.environ.get("SUPERSELECT_OUTDIR")
    if outdir:
        os.makedirs(outdir, exist_ok=True)
        base = os.path.join(outdir, f"{args.command}_report")
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
