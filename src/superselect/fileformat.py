"""Text document formats: operator sets, group/multiplier tables, dynamics configs.

Everything is JSON with full round-trip float precision (the shortest
decimal that parses back to the same binary value), so files are
human-diffable and re-emitting a parsed document reproduces the matrices
bit for bit.  Reports are emitted through :func:`canonical_json_bytes`,
which is byte-deterministic for a fixed input, seed and tool version.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from .bargmann import (
    ExtendedElement,
    ExtendedPhasePoint,
    GalileiElement,
    HarmonicPairPotential,
    rotation_from_axis_angle,
)
from .cocycles import FiniteGroup, MultiplierTable, finite_group
from .errors import ParseError
from .opalgebra import OperatorSet, operator_set

__all__ = [
    "canonical_json_bytes",
    "sha256_hex",
    "jsonable",
    "load_operator_file",
    "load_group_file",
    "load_dynamics_file",
]


def jsonable(obj):
    """Recursively convert numpy scalars/arrays so json can serialize them."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return jsonable(obj.tolist())
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, complex):
        return {"re": float(obj.real), "im": float(obj.imag)}
    return obj


def canonical_json_bytes(obj) -> bytes:
    """Deterministic JSON rendering: sorted keys, two-space indent, newline-terminated.

    The bytes of ``json.dumps(jsonable(obj), indent=2, sort_keys=True,
    allow_nan=False)`` and a final newline, written in one recursive pass
    over ``obj`` with no converted copy (the standard library's indented
    encoder is a generator in pure Python).  Numpy values and complex
    numbers are converted as :func:`jsonable` converts them, keys are taken
    as strings (of colliding keys the last one wins) and sorted, strings are
    ASCII-escaped and floats written as their shortest round-trip ``repr``.
    JSON has no NaN or infinity, so a non-finite number raises
    ``ValueError``; an object of any other type raises ``TypeError``.
    """
    out: list[str] = []
    _write_json(obj, "\n", out)
    out.append("\n")
    return "".join(out).encode("ascii")


_escape = json.encoder.encode_basestring_ascii


def _write_json(obj, newline: str, out: list[str]) -> None:
    """Append the pieces of ``obj``'s rendering to ``out``; ``newline`` carries its indent."""
    if isinstance(obj, str):
        out.append(_escape(obj))
    elif obj is None:
        out.append("null")
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(int.__repr__(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not math.isfinite(x):
            raise ValueError(f"Out of range float values are not JSON compliant: {x!r}")
        out.append(float.__repr__(x))
    elif isinstance(obj, dict):
        # keys are unique once taken as strings, so the sort never compares values
        _write_object(sorted({str(k): v for k, v in obj.items()}.items()), newline, out)
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for value in obj:
            out.append(sep)
            _write_json(value, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif isinstance(obj, np.ndarray):
        _write_json(obj.tolist(), newline, out)
    elif isinstance(obj, complex):
        _write_object((("im", obj.imag), ("re", obj.real)), newline, out)
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _write_object(items, newline: str, out: list[str]) -> None:
    """Append a JSON object of sorted ``(key, value)`` pairs, one per indented line."""
    if not items:
        out.append("{}")
        return
    inner = newline + "  "
    sep = "{" + inner
    for key, value in items:
        out.append(sep + _escape(key) + ": ")
        _write_json(value, inner, out)
        sep = "," + inner
    out.append(newline + "}")


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _load_json(path) -> tuple[dict, bytes]:
    raw = Path(path).read_bytes()
    try:
        doc = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not valid UTF-8 ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be an object")
    return doc, raw


def _not_an_integer(value) -> bool:
    """Whether a parsed value is anything but an integer or an integral float.

    ``int()`` would truncate a fraction and read a boolean or a numeric
    string without complaint; an integral float such as ``3.0`` is accepted.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return True
    return isinstance(value, float) and not value.is_integer()


def _count(doc: dict, key: str, path) -> int:
    """``doc[key]`` as an int; any other value is a :class:`ParseError` naming the key."""
    value = doc[key]
    if _not_an_integer(value):
        raise ParseError(f"{path}: {key!r} must be an integer, got {value!r}")
    return int(value)


def _integers(doc: dict, key: str, path) -> np.ndarray:
    """``doc[key]`` as an int array; any other entry is a :class:`ParseError` naming the key."""
    entries = np.asarray(doc[key], dtype=object)
    bad = [v for v in entries.flat if _not_an_integer(v)]
    if bad:
        raise ParseError(f"{path}: {key!r} entries must be integers, got {bad[0]!r}")
    return entries.astype(int)


def _matrix_from_parts(re_part, im_part, n: int, name: str) -> np.ndarray:
    def shape(part, label):
        arr = np.asarray(part, dtype=float)
        if arr.shape == (n, n):
            return arr
        if arr.shape == (n * n,):
            return arr.reshape(n, n)
        raise ParseError(
            f"operator {name!r}: {label} part must be {n}x{n} (nested or flat "
            f"row-major), got shape {arr.shape}")
    return shape(re_part, "real") + 1j * shape(im_part, "imaginary")


def load_operator_file(path) -> tuple[OperatorSet, bytes]:
    """Parse an operator-set document; returns the set and the raw input bytes."""
    doc, raw = _load_json(path)
    try:
        n = _count(doc, "dim", path)
        ops = doc["operators"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: expected keys 'dim' (int) and 'operators' (list)") from exc
    if n <= 0:
        raise ParseError(f"{path}: dim must be positive, got {n}")
    if not isinstance(ops, list) or not ops:
        raise ParseError(f"{path}: 'operators' must be a non-empty list")
    mats, names = [], []
    for i, op in enumerate(ops):
        if not isinstance(op, dict) or not {"name", "re", "im"} <= set(op):
            raise ParseError(f"{path}: operator {i} needs keys 'name', 're', 'im'")
        names.append(str(op["name"]))
        mats.append(_matrix_from_parts(op["re"], op["im"], n, op["name"]))
    return operator_set(mats, names=names), raw


def load_group_file(path) -> tuple[FiniteGroup, MultiplierTable, bytes]:
    """Parse a group/multiplier document {"order", "table", "xi"}."""
    doc, raw = _load_json(path)
    try:
        order = _count(doc, "order", path)
        table = _integers(doc, "table", path)
        xi = np.asarray(doc["xi"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: expected keys 'order', 'table', 'xi'") from exc
    if table.shape != (order, order) or xi.shape != (order, order):
        raise ParseError(
            f"{path}: 'table' and 'xi' must both be {order}x{order} arrays")
    try:
        group = finite_group(table)
        mult = MultiplierTable(group=group, xi=xi)
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return group, mult, raw


def load_dynamics_file(path) -> tuple[dict, bytes]:
    """Parse a dynamics configuration into ready-to-run objects.

    Expected keys: masses, x, p, lambda (per particle), dt, steps, optional
    t, potential {"kind": "none"|"harmonic", "k", "L"} and element
    {"theta", "axis", "angle", "v", "a", "b"} for the symmetry check.
    """
    doc, raw = _load_json(path)
    try:
        masses = np.asarray(doc["masses"], dtype=float)
        npart = masses.size
        point = ExtendedPhasePoint(
            x=np.asarray(doc["x"], dtype=float).reshape(npart, 3),
            p=np.asarray(doc["p"], dtype=float).reshape(npart, 3),
            m=masses,
            lam=np.asarray(doc["lambda"], dtype=float).reshape(npart),
            t=float(doc.get("t", 0.0)),
        )
        dt = float(doc["dt"])
        steps = _count(doc, "steps", path)
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: bad dynamics configuration: {exc}") from exc
    if steps < 0:
        raise ParseError(f"{path}: steps must be non-negative, got {steps}")

    pot_doc = doc.get("potential", {"kind": "none"})
    if not isinstance(pot_doc, dict):
        raise ParseError(f"{path}: 'potential' must be an object, got {pot_doc!r}")
    kind = pot_doc.get("kind", "none")
    if kind == "none":
        potential = None
    elif kind == "harmonic":
        params = {}
        for key in ("k", "L"):
            try:
                params[key] = float(pot_doc.get(key, 1.0))
            except (TypeError, ValueError) as exc:
                raise ParseError(f"{path}: potential {key!r} must be a number: {exc}") from exc
        try:
            potential = HarmonicPairPotential(**params)
        except ValueError as exc:
            raise ParseError(f"{path}: {exc}") from exc
    else:
        raise ParseError(f"{path}: unknown potential kind {kind!r}")

    element = None
    if "element" in doc:
        el = doc["element"]
        if not isinstance(el, dict):
            raise ParseError(f"{path}: 'element' must be an object, got {el!r}")
        try:
            g = GalileiElement(
                R=rotation_from_axis_angle(el.get("axis", [0.0, 0.0, 1.0]),
                                           float(el.get("angle", 0.0))),
                v=np.asarray(el.get("v", [0.0, 0.0, 0.0]), dtype=float),
                a=np.asarray(el.get("a", [0.0, 0.0, 0.0]), dtype=float),
                b=float(el.get("b", 0.0)),
            )
            element = ExtendedElement(theta=float(el.get("theta", 0.0)), g=g)
        except (TypeError, ValueError) as exc:
            raise ParseError(f"{path}: bad element: {exc}") from exc

    return {"point": point, "potential": potential, "dt": dt, "steps": steps,
            "element": element}, raw
