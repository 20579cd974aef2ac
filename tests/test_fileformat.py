import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from superselect.errors import ParseError
from superselect.fileformat import (
    canonical_json_bytes,
    jsonable,
    load_dynamics_file,
    load_group_file,
    load_operator_file,
)


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc) if not isinstance(doc, str) else doc)
    return path


@pytest.fixture
def opset_doc():
    rng = np.random.default_rng(0)
    mats = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            for _ in range(2)]
    return {
        "dim": 3,
        "operators": [
            {"name": f"op{i}", "re": m.real.tolist(), "im": m.imag.tolist()}
            for i, m in enumerate(mats)
        ],
    }


class TestOperatorFiles:
    def test_round_trip_bit_for_bit(self, tmp_path, opset_doc):
        path = write(tmp_path, "ops.json", opset_doc)
        s1, _ = load_operator_file(path)
        redumped = write(tmp_path, "ops2.json", {"dim": s1.dim, "operators": [
            {"name": name, "re": m.real.tolist(), "im": m.imag.tolist()}
            for name, m in zip(s1.names, s1.members)]})
        s2, _ = load_operator_file(redumped)
        assert s1.names == s2.names
        assert np.array_equal(s1.members, s2.members)  # exact, not approximate

    def test_flat_and_nested_arrays_agree(self, tmp_path, opset_doc):
        flat = {"dim": 3, "operators": [
            {"name": op["name"],
             "re": list(np.asarray(op["re"]).ravel()),
             "im": list(np.asarray(op["im"]).ravel())}
            for op in opset_doc["operators"]]}
        s_nested, _ = load_operator_file(write(tmp_path, "a.json", opset_doc))
        s_flat, _ = load_operator_file(write(tmp_path, "b.json", flat))
        assert np.array_equal(s_nested.members, s_flat.members)

    def test_reports_line_and_column(self, tmp_path):
        path = write(tmp_path, "bad.json", '{"dim": 3,\n  "operators": [}')
        with pytest.raises(ParseError, match=r"line 2"):
            load_operator_file(path)

    def test_empty_operator_list_rejected(self, tmp_path):
        path = write(tmp_path, "empty.json", {"dim": 2, "operators": []})
        with pytest.raises(ParseError, match="non-empty"):
            load_operator_file(path)

    def test_wrong_shape_rejected(self, tmp_path):
        doc = {"dim": 2, "operators": [{"name": "x", "re": [[1.0]], "im": [[0.0]]}]}
        with pytest.raises(ParseError, match="2x2"):
            load_operator_file(write(tmp_path, "shape.json", doc))


class TestGroupFiles:
    def test_klein_four_with_multiplier(self, tmp_path):
        idx = range(4)
        table = [[2 * (((i // 2) + (j // 2)) % 2) + ((i % 2) + (j % 2)) % 2
                  for j in idx] for i in idx]
        xi = [[np.pi * (i % 2) * (j // 2) for j in idx] for i in idx]
        group, mult, _ = load_group_file(
            write(tmp_path, "g.json", {"order": 4, "table": table, "xi": xi}))
        assert group.order == 4 and group.identity == 0
        assert mult.xi[1, 2] == np.pi

    def test_non_associative_table_rejected(self, tmp_path):
        doc = {"order": 2, "table": [[0, 1], [1, 1]], "xi": [[0, 0], [0, 0]]}
        with pytest.raises(ParseError, match="associative"):
            load_group_file(write(tmp_path, "bad.json", doc))

    def test_unnormalized_multiplier_rejected(self, tmp_path):
        doc = {"order": 2, "table": [[0, 1], [1, 0]], "xi": [[0.1, 0], [0, 0]]}
        with pytest.raises(ParseError, match="xi"):
            load_group_file(write(tmp_path, "bad2.json", doc))


class TestDynamicsFiles:
    def test_full_configuration(self, tmp_path):
        doc = {"masses": [1.0, 2.0],
               "x": [[0, 0, 0], [1, 0, 0]],
               "p": [[0, 0.1, 0], [0, -0.1, 0]],
               "lambda": [0.0, 0.0],
               "dt": 1e-3, "steps": 10,
               "potential": {"kind": "harmonic", "k": 2.0, "L": 0.5},
               "element": {"theta": 0.1, "axis": [0, 0, 1], "angle": 0.5,
                           "v": [0.1, 0, 0], "a": [1, 0, 0], "b": 0.2}}
        cfg, _ = load_dynamics_file(write(tmp_path, "dyn.json", doc))
        assert cfg["point"].m.tolist() == [1.0, 2.0]
        assert cfg["potential"].k == 2.0
        assert cfg["element"].theta == 0.1
        assert abs(cfg["element"].g.b - 0.2) == 0.0

    def test_unknown_potential_rejected(self, tmp_path):
        doc = {"masses": [1.0], "x": [[0, 0, 0]], "p": [[0, 0, 0]],
               "lambda": [0.0], "dt": 1e-3, "steps": 5,
               "potential": {"kind": "quartic"}}
        with pytest.raises(ParseError, match="quartic"):
            load_dynamics_file(write(tmp_path, "dyn2.json", doc))

    def test_missing_keys_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            load_dynamics_file(write(tmp_path, "dyn3.json", {"masses": [1.0]}))


GROUP_DOC = {"order": 2, "table": [[0, 1], [1, 0]], "xi": [[0, 0], [0, 0]]}
DYNAMICS_DOC = {"masses": [1.0], "x": [[0, 0, 0]], "p": [[0, 0, 0]],
                "lambda": [0.0], "dt": 1e-3, "steps": 3}


@pytest.mark.parametrize("loader,doc,fault", [
    ("operator", b'{"dim": 1, "operators": "\xff"}', "not valid UTF-8"),
    ("operator", [1, 2], "top level must be an object"),
    ("operator", {"dim": 2}, "expected keys 'dim' .* and 'operators'"),
    ("operator", {"dim": 0, "operators": [{"name": "x", "re": [], "im": []}]},
     "dim must be positive, got 0"),
    ("operator", {"dim": 1, "operators": [{"name": "x", "re": [[1.0]]}]},
     "operator 0 needs keys 'name', 're', 'im'"),
    ("group", {"order": 2, "table": GROUP_DOC["table"]}, "expected keys 'order', 'table', 'xi'"),
    ("group", {**GROUP_DOC, "table": [[0, 1]]}, "'table' and 'xi' must both be 2x2"),
    ("dynamics", {**DYNAMICS_DOC, "element": {"angle": "half"}}, "bad element: .*'half'"),
])
def test_input_fault_is_named(tmp_path, loader, doc, fault):
    load = {"operator": load_operator_file, "group": load_group_file,
            "dynamics": load_dynamics_file}[loader]
    path = tmp_path / "doc.json"
    path.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
    with pytest.raises(ParseError, match=fault):
        load(path)


@pytest.mark.parametrize("loader,key,value,expected", [
    ("operator", "dim", 2.9, None),
    ("operator", "dim", True, None),
    ("operator", "dim", 3.0, 3),
    ("operator", "dim", "3", None),
    ("group", "order", 1.5, None),
    ("group", "order", True, None),
    ("group", "order", 2.0, 2),
    ("dynamics", "steps", 3.7, None),
    ("dynamics", "steps", False, None),
    ("dynamics", "steps", 3.0, 3),
])
def test_counts_must_be_integral(tmp_path, opset_doc, loader, key, value, expected):
    # a fraction, a boolean or a string is refused with the key named, never
    # read by int(); an integral float is read as its integer
    base, load, read = {
        "operator": (opset_doc, load_operator_file, lambda out: out[0].dim),
        "group": (GROUP_DOC, load_group_file, lambda out: out[0].order),
        "dynamics": (DYNAMICS_DOC, load_dynamics_file, lambda out: out[0]["steps"]),
    }[loader]
    path = write(tmp_path, "doc.json", {**base, key: value})
    if expected is None:
        with pytest.raises(ParseError, match=f"'{key}' must be an integer"):
            load(path)
    else:
        assert read(load(path)) == expected


class TestCanonicalJson:
    def test_float_round_trip(self):
        vals = [0.1, 1 / 3, np.pi, 1e-300, 123456.789e12]
        data = canonical_json_bytes({"v": vals})
        assert json.loads(data)["v"] == vals

    def test_numpy_types_coerced(self):
        data = canonical_json_bytes({"a": np.float64(0.5), "b": np.int64(3),
                                     "c": np.bool_(True), "d": np.arange(3)})
        assert json.loads(data) == {"a": 0.5, "b": 3, "c": True, "d": [0, 1, 2]}

    def test_deterministic_bytes(self):
        obj = {"z": 1, "a": [3, 2, {"y": 0.25, "x": False}]}
        assert canonical_json_bytes(obj) == canonical_json_bytes(
            json.loads(canonical_json_bytes(obj).decode()))


def reference_json_bytes(obj) -> bytes:
    """The standard library's rendering, which the one-pass writer reproduces."""
    return (json.dumps(jsonable(obj), indent=2, sort_keys=True, allow_nan=False)
            + "\n").encode("utf-8")


FINITE = st.floats(allow_nan=False, allow_infinity=False)
LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-2 ** 200, 2 ** 200), FINITE,
    st.sampled_from([-0.0, 5e-324, 1e308, -1e308]), st.text(),
    st.complex_numbers(allow_nan=False, allow_infinity=False),
    st.booleans().map(np.bool_), st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    FINITE.map(np.float64),
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(np.float32),
    st.lists(FINITE, max_size=4).map(np.array),
    st.lists(st.integers(-9, 9), max_size=6).map(lambda v: np.array(v).reshape(-1, 1)),
)
# small ints and their strings collide as keys, as do True and "True"
KEYS = st.one_of(st.text(max_size=3), st.integers(-3, 3), st.integers(-3, 3).map(str),
                 st.booleans(), st.sampled_from(["True", "1.5"]), st.just(1.5))
DOCUMENTS = st.recursive(
    LEAVES,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(KEYS, inner, max_size=4)),
    max_leaves=20)


class TestOnePassWriter:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(doc=DOCUMENTS)
    @example(doc={1: "a", "1": "b"})
    @example(doc={"1": "b", 1: "a"})
    @example(doc=[{}, [], (), np.zeros(0), np.array(2.5), {"é": "ü\u2603\n"}])
    @example(doc={"b": True, "i": 1, "nb": np.bool_(False), "ni": np.int8(0)})
    @example(doc=[-0.0, 5e-324, 1e308, 10 ** 400 - 1, complex(-0.0, 1e-300)])
    def test_bytes_match_the_standard_library(self, doc):
        assert canonical_json_bytes(doc) == reference_json_bytes(doc)

    @pytest.mark.parametrize("bad", [
        float("nan"), float("inf"), -float("inf"), np.float64("nan"), np.float32("inf"),
        complex(1.0, float("inf")), np.array([1.0, np.nan]),
    ])
    def test_non_finite_numbers_raise_value_error(self, bad):
        for doc in (bad, {"a": [1, bad]}):
            with pytest.raises(ValueError):
                reference_json_bytes(doc)
            with pytest.raises(ValueError):
                canonical_json_bytes(doc)

    @pytest.mark.parametrize("bad", [object(), b"bytes", {1, 2}, np.complex64(1.0),
                                     np.datetime64("2000-01-01")])
    def test_other_objects_raise_type_error(self, bad):
        for doc in (bad, {"a": [1, bad]}):
            with pytest.raises(TypeError):
                reference_json_bytes(doc)
            with pytest.raises(TypeError):
                canonical_json_bytes(doc)
