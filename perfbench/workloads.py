"""Seeded inputs and per-item oracles for the benchmark workloads.

Every input is made here from the workload seed with numpy alone; the
package under test only ever sees the files written below and an argv.

Workloads:

* ``planted-sweep`` -- planted block algebras from the distribution of the
  acceptance suite's planted sweep (1-3 sectors, d and ntilde in {1,2,3},
  ambient n <= 16, two Hermitian generators conjugated by a random unitary).
  The pool holds a fixed number of items whose pattern counts follow that
  distribution exactly (largest-remainder quotas), so runs with different
  seeds do the same mix of work; the seed draws the unitaries, the
  generator spectra, the per-item ``--seed`` and the order.
* ``planted-wide`` -- the same generator at n = 20-24 with ntilde up to 10,
  one item per fixed pattern.
* ``case-studies`` -- one fixed cycle of the parastat, flux, bargmann,
  extension and dynamics commands; the seed draws their parameters.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

WORKLOADS = ("planted-sweep", "planted-wide", "case-studies")

SWEEP_POOL = 200
# (d, ntilde) per sector: n = 20 or 24, dim S'' = sum ntilde^2 from 72 to 125,
# chosen so that every item costs about the same (1.4-2 s on one core)
WIDE_PATTERNS = (
    ((1, 10), (2, 5)),
    ((1, 8), (2, 6)),
    ((1, 7), (1, 7), (3, 2)),
    ((1, 6), (1, 6), (1, 6), (1, 2)),
    ((1, 6), (3, 6)),
    ((2, 5), (2, 7)),
)
PARASTAT_CASES = ((2, 2), (3, 2), (4, 2), (2, 3), (3, 3))
GROUP_ORDER = 8
WARMUP_PATTERN = ((1, 3), (2, 2))

# reduced sizes for the harness self-check
TINY_SWEEP_POOL = 12
TINY_WIDE_PATTERNS = (((1, 3), (2, 2)),)
TINY_PARASTAT_CASES = ((2, 2),)


@dataclass(frozen=True)
class Item:
    """One CLI invocation and what its report must show."""

    label: str
    argv: tuple[str, ...]
    pattern: tuple[tuple[int, int], ...] | None = None  # planted (d, ntilde) per sector
    oracle: bool = False  # parastat: sector table must match the character oracle


# ---------------------------------------------------------------------------
# planted block algebras

def sweep_pattern_quota(total: int) -> list[tuple[tuple[int, int], ...]]:
    """Sorted planted patterns, repeated in proportion to their probability.

    The distribution is the acceptance suite's: 1, 2 or 3 sectors with
    probability 0.3, 0.45, 0.25; per sector d from {1,1,1,2,2,3} and ntilde
    from {1,2,3}; patterns with sum d * ntilde > 16 are redrawn.  Counts are
    the largest-remainder rounding of ``total`` times each probability.
    """
    p_sectors = {1: Fraction(3, 10), 2: Fraction(9, 20), 3: Fraction(1, 4)}
    p_d = {1: Fraction(1, 2), 2: Fraction(1, 3), 3: Fraction(1, 6)}
    probs: dict[tuple, Fraction] = {}
    for k, pk in p_sectors.items():
        for secs in itertools.product(itertools.product(p_d, (1, 2, 3)), repeat=k):
            if sum(d * t for d, t in secs) > 16:
                continue
            p = pk
            for d, _ in secs:
                p *= p_d[d] / 3
            key = tuple(sorted(secs))
            probs[key] = probs.get(key, Fraction(0)) + p
    norm = sum(probs.values())
    share = {pat: p / norm * total for pat, p in probs.items()}
    counts = {pat: int(s) for pat, s in share.items()}
    by_remainder = sorted(share, key=lambda pat: (-(share[pat] - counts[pat]), pat))
    for pat in by_remainder[: total - sum(counts.values())]:
        counts[pat] += 1
    return [pat for pat in sorted(counts) for _ in range(counts[pat])]


def _random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (a + a.conj().T)


def planted_generators(rng: np.random.Generator, pattern, n_generators: int = 2):
    """Hermitian generators of  (+)_i 1_{d_i} (x) M_{ntilde_i}  in a random basis.

    Blocks with equal ntilde keep their first generators spectrally apart,
    so no accidental intertwiner merges them.
    """
    n = sum(d * t for d, t in pattern)
    u = _random_unitary(rng, n)
    while True:
        draws = [[_random_hermitian(rng, t) for _ in range(n_generators)]
                 for _, t in pattern]
        if all(np.max(np.abs(np.linalg.eigvalsh(draws[i][0])
                             - np.linalg.eigvalsh(draws[j][0]))) >= 1e-3
               for i, j in itertools.combinations(range(len(pattern)), 2)
               if pattern[i][1] == pattern[j][1]):
            break
    gens = []
    for k in range(n_generators):
        g = np.zeros((n, n), dtype=complex)
        off = 0
        for (d, t), blocks in zip(pattern, draws):
            g[off:off + d * t, off:off + d * t] = np.kron(np.eye(d), blocks[k])
            off += d * t
        gens.append(u @ g @ u.conj().T)
    return gens


def write_operator_file(path: str, gens) -> None:
    """Operator-set document; json writes floats in round-trip form."""
    doc = {"dim": int(gens[0].shape[0]),
           "operators": [{"name": f"h{i}", "re": g.real.tolist(), "im": g.imag.tolist()}
                         for i, g in enumerate(gens)]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _planted_item(rng, pattern, workdir: str, index: int) -> Item:
    path = os.path.join(workdir, f"planted_{index:04d}.json")
    write_operator_file(path, planted_generators(rng, pattern))
    cli_seed = int(rng.integers(0, 2 ** 31))
    label = "algebra " + "+".join(f"{d}x{t}" for d, t in pattern)
    return Item(label=label, argv=("--seed", str(cli_seed), "algebra", path),
                pattern=tuple(pattern))


# ---------------------------------------------------------------------------
# case studies

def _group_file(rng, path: str, order: int) -> None:
    """Cyclic group of the given order with a random coboundary multiplier."""
    gamma = rng.uniform(-np.pi, np.pi, order)
    gamma[0] = 0.0  # identity
    table = [[(a + b) % order for b in range(order)] for a in range(order)]
    xi = [[float(gamma[a] + gamma[b] - gamma[(a + b) % order]) for b in range(order)]
          for a in range(order)]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"order": order, "table": table, "xi": xi}, fh)


def _dynamics_file(rng, path: str, steps: int) -> None:
    """Two particles in a harmonic pair potential plus one extension element.

    The report requires a relative energy drift of at most 1e-6.  Velocity
    Verlet's drift grows as (omega dt)^2 with omega^2 = 2k / reduced mass:
    at dt = 1e-3 it reached 1.06e-6 for light pairs (masses near 0.5); at
    dt = 5e-4 the largest drift over 201 seeds was 3.0e-7.
    """
    u = lambda lo, hi, size=None: np.round(rng.uniform(lo, hi, size), 6).tolist()
    axis = rng.standard_normal(3)
    doc = {
        "masses": u(0.5, 2.0, 2),
        "x": [[0.0, 0.0, 0.0], [1.5, 0.0, 0.0]],
        "p": u(-0.3, 0.3, (2, 3)),
        "lambda": [0.0, 0.0], "dt": 5e-4, "steps": steps,
        "potential": {"kind": "harmonic", "k": 1.0, "L": 1.0},
        "element": {"theta": u(-1, 1), "axis": (axis / np.linalg.norm(axis)).tolist(),
                    "angle": u(-1, 1), "v": u(-0.3, 0.3, 3), "a": u(-1, 1, 3),
                    "b": u(-0.5, 0.5)},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _case_items(rng, workdir: str, tiny: bool) -> list[Item]:
    seed = lambda: ("--seed", str(int(rng.integers(0, 2 ** 31))))
    items = [Item(label=f"parastat n={n} d={d}",
                  argv=(*seed(), "parastat", "--n", str(n), "--d", str(d)),
                  oracle=True)
             for n, d in (TINY_PARASTAT_CASES if tiny else PARASTAT_CASES)]
    pz = f"{rng.uniform(0.2, 0.9):.6f}"
    p_off = [f"{v:.6f}" for v in rng.uniform(-0.5, 0.5, 3)]
    items.append(Item(label="flux inst on axis",
                      argv=(*seed(), "flux", "--p", "0", "0", pz,
                            "--lmax", "4" if tiny else "8")))
    items.append(Item(label="flux ret off axis",
                      argv=(*seed(), "flux", "--p", *p_off, "--formula", "ret",
                            "--lmax", "4" if tiny else "16")))
    m1, m2 = (f"{v:.6f}" for v in rng.uniform(0.5, 3.0, 2))
    items.append(Item(label="bargmann",
                      argv=(*seed(), "bargmann", "--m1", m1, "--m2", m2,
                            *(("--samples", "50") if tiny else ()))))
    group_path = os.path.join(workdir, "group.json")
    _group_file(rng, group_path, GROUP_ORDER)
    items.append(Item(label="extension", argv=(*seed(), "extension", group_path)))
    dyn_path = os.path.join(workdir, "dynamics.json")
    _dynamics_file(rng, dyn_path, 100 if tiny else 1000)
    items.append(Item(label="dynamics", argv=(*seed(), "dynamics", dyn_path)))
    return items


# ---------------------------------------------------------------------------

def build(workload: str, seed: int, workdir: str, tiny: bool = False):
    """Write the workload's input files; returns (cycle of items, warm-up item)."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "case-studies":
        items = _case_items(rng, workdir, tiny)
        warmup = Item(label="warm-up parastat", argv=("parastat", "--n", "2", "--d", "2"))
        return items, warmup
    if workload == "planted-sweep":
        patterns = sweep_pattern_quota(TINY_SWEEP_POOL if tiny else SWEEP_POOL)
    elif workload == "planted-wide":
        patterns = list(TINY_WIDE_PATTERNS if tiny else WIDE_PATTERNS)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    order = rng.permutation(len(patterns))
    items = [_planted_item(rng, patterns[k], workdir, i) for i, k in enumerate(order)]
    warmup = _planted_item(rng, WARMUP_PATTERN, workdir, len(items))
    return items, warmup


def malformed_item(workdir: str) -> Item:
    """An operator file whose second operator has the wrong shape."""
    path = os.path.join(workdir, "malformed.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"dim": 2, "operators": [
            {"name": "a", "re": [[1.0, 0.0], [0.0, -1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]},
            {"name": "b", "re": [1.0, 2.0, 3.0], "im": [0.0, 0.0, 0.0]}]}, fh)
    return Item(label="malformed operator file", argv=("algebra", path))


def check(item: Item, doc: dict) -> str | None:
    """Why a parsed report fails its item's checks, or None when it passes."""
    sections = doc["sections"]
    failed = [c["name"] for c in sections.get("checks", []) if not c["passed"]]
    if failed:
        return "report checks failed: " + "; ".join(failed)
    if item.pattern is not None:
        pattern = sorted(item.pattern)
        # the report decomposes the observables O = S', whose sector factors
        # are the planted ones swapped: (d, ntilde) of O = (ntilde, d) planted
        got = sorted((s["ntilde"], s["d"]) for s in sections["sectors"])
        if got != pattern:
            return f"sectors {got} != planted {pattern}"
        blocks = sorted(s["block_dim"] for s in sections["sectors"])
        if blocks != sorted(d * t for d, t in pattern):
            return f"block sizes {blocks} do not match the planted pattern"
        st = sections["structure"]
        if st["observable_dim"] != sum(d * d for d, _ in pattern) or \
                st["generated_dim"] != sum(t * t for _, t in pattern):
            return "algebra dimensions do not match the planted pattern"
        if st["dirac_v2_holds"] != all(t == 1 for _, t in pattern):
            return "abelian-commutant verdict disagrees with the planted pattern"
    if item.oracle and not sections["parastatistics"]["oracle_agrees"]:
        return "sector table disagrees with the character oracle"
    return None
