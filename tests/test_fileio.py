import copy
import dataclasses
import io
import json
import operator
import pickle
import re
import sys
import tempfile
from types import SimpleNamespace
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from statecompat import fileio
from statecompat.compat import full_report
from statecompat.density import validate_density
from statecompat.errors import InstanceFormatError
from statecompat.fileio import (
    MAX_INSTANCE_ENTRIES,
    MAX_INSTANCE_MATRICES,
    Instance,
    dump_payload,
    instance_payload,
    load_instance,
    parse_instance,
    report_payload,
)
from statecompat.generate import crandn, generate_instance
from statecompat.linalg import DEFAULT_TOL, Tolerances

from conftest import (
    as_lists,
    assert_spells_as_json_dumps,
    json_bits,
    json_load_instance,
    list_route_text,
    pairs_to_vector,
    write_to_text,
    written_json,
)


def sample_obj():
    return {
        "dim": 2,
        "matrices": [
            {"name": "a", "rows": [[[0.5, 0.0], [0.0, 0.25]], [[0.0, -0.25], [0.5, 0.0]]]},
        ],
        "tolerances": {"rank_rel": 1e-9},
    }


def test_parse_round_trips_values():
    inst = parse_instance(sample_obj())
    assert inst.dim == 2 and inst.names == ("a",)
    assert inst.matrices[0][0, 1] == 0.25j
    np.testing.assert_allclose(
        inst.matrices[0], np.array([[0.5, 0.25j], [-0.25j, 0.5]]), atol=0
    )
    assert inst.tol_overrides == {"rank_rel": 1e-9}


def test_parse_defaults_matrix_names():
    obj = sample_obj()
    del obj["matrices"][0]["name"]
    assert parse_instance(obj).names == ("rho_1",)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda o: o.pop("dim"),
        lambda o: o.update(dim=0),
        lambda o: o.update(matrices=[]),
        lambda o: o["matrices"][0]["rows"].pop(),
        lambda o: o["matrices"][0]["rows"][0].pop(),
        lambda o: o["matrices"][0]["rows"][0].__setitem__(0, [1.0]),
        lambda o: o["matrices"][0]["rows"][0].__setitem__(0, [1.0, "x"]),
        lambda o: o.update(tolerances={"bogus": 1.0}),
        lambda o: o.update(tolerances={"rank_rel": "tight"}),
        lambda o: o["matrices"][0]["rows"][0].__setitem__(0, [10**400, 0.0]),
        lambda o: o.update(tolerances={"rank_rel": 10**400}),
        lambda o: o["matrices"][0]["rows"][0].__setitem__(0, [True, 0.0]),
        lambda o: o["matrices"][0]["rows"][0].__setitem__(0, [0.0, None]),
        lambda o: o["matrices"][0]["rows"][0].__setitem__(0, [{}, 0.0]),
        lambda o: o["matrices"].__setitem__(0, [[[1.0, 0.0]]]),
        lambda o: o["matrices"][0].pop("rows"),
        lambda o: o["matrices"][0].update(name=""),
        lambda o: o["matrices"][0].update(name=7),
        lambda o: o.update(tolerances=[1e-9]),
    ],
)
def test_parse_rejects_malformed(mutate):
    obj = sample_obj()
    mutate(obj)
    with pytest.raises(InstanceFormatError):
        parse_instance(obj)


#: a file's one fault -> the reader's message, the same whether the reader or the
#: Instance constructor finds it
ONE_FAULT = {
    "matrices not a list": (lambda o: o.update(matrices={}), '"matrices" must be a nonempty list'),
    "no matrix": (lambda o: o.update(matrices=[]), '"matrices" must be a nonempty list'),
    "empty name": (lambda o: o["matrices"][0].update(name=""), "matrix 0: name must be a nonempty string"),
    "name not a string": (lambda o: o["matrices"][0].update(name=7), "matrix 0: name must be a nonempty string"),
    "tolerances not an object": (lambda o: o.update(tolerances=[1e-9]), '"tolerances" must be an object'),
    "string tolerance": (lambda o: o.update(tolerances={"rank_rel": "tight"}),
                         "tolerances.rank_rel: expected a number, got 'tight'"),
    "bool tolerance": (lambda o: o.update(tolerances={"match_abs": True}),
                       "tolerances.match_abs: expected a number, got True"),
    "huge tolerance": (lambda o: o.update(tolerances={"rank_rel": 10**400}),
                       "tolerances.rank_rel: an integer of 1329 bits is too large for a double"),
    "unknown tolerance": (lambda o: o.update(tolerances={"bogus": 1.0}), "unknown tolerance 'bogus'"),
}


@pytest.mark.parametrize("case", list(ONE_FAULT))
def test_a_file_with_one_fault_keeps_its_message(case):
    mutate, message = ONE_FAULT[case]
    obj = sample_obj()
    mutate(obj)
    with pytest.raises(InstanceFormatError, match=f"^{re.escape(message)}$"):
        parse_instance(obj)


def test_parse_rejects_a_top_level_value_that_is_not_an_object():
    for value in ([sample_obj()], "instance", 2, None):
        with pytest.raises(InstanceFormatError, match="must hold a JSON object"):
            parse_instance(value)


@pytest.mark.parametrize(
    "entry, message",
    [
        ([0.0, None], "matrix 'a' (1,0) im: expected a number, got None"),
        ([False, 0.0], "matrix 'a' (1,0) re: expected a number, got False"),
        ([0.0, -(10**400)], "matrix 'a' (1,0) im: an integer of 1329 bits"),
        ("xy", "matrix 'a': entry (1,0) must be a [re, im] pair"),
    ],
)
def test_parse_names_the_offending_entry(entry, message):
    obj = sample_obj()
    obj["matrices"][0]["rows"][1][0] = entry
    with pytest.raises(InstanceFormatError) as excinfo:
        parse_instance(obj)
    assert str(excinfo.value).startswith(message)


@pytest.mark.parametrize("count", [MAX_INSTANCE_MATRICES, MAX_INSTANCE_MATRICES + 1])
def test_the_matrix_cap_is_checked_before_any_matrix_is_read(monkeypatch, count):
    parsed = []
    original = fileio._parse_matrix

    def counting(*args):
        parsed.append(args[2])
        return original(*args)

    monkeypatch.setattr(fileio, "_parse_matrix", counting)
    obj = {"dim": 1, "matrices": [{"rows": [[[1.0, 0.0]]]}] * count}
    if count > MAX_INSTANCE_MATRICES:
        with pytest.raises(InstanceFormatError) as excinfo:
            parse_instance(obj)
        assert str(excinfo.value) == f"instance too large: {count} matrices, over the cap of 1024"
    else:
        parse_instance(obj)
    assert len(parsed) == (0 if count > MAX_INSTANCE_MATRICES else count)


@pytest.mark.parametrize("count", [2, 3])
def test_the_entry_cap_is_checked_before_any_matrix_is_read(monkeypatch, count):
    parsed = []
    original = fileio._parse_matrix

    def counting(*args):
        parsed.append(args[2])
        return original(*args)

    monkeypatch.setattr(fileio, "_parse_matrix", counting)
    monkeypatch.setattr(fileio, "MAX_INSTANCE_ENTRIES", 8)
    obj = {"dim": 2, "matrices": [{"rows": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]}] * count}
    if count * 2**2 > 8:
        with pytest.raises(InstanceFormatError) as excinfo:
            parse_instance(obj)
        assert str(excinfo.value) == ("instance too large: 3 matrices of 2 x 2 are 12 entries, "
                                      "over the cap of 8")
    else:
        parse_instance(obj)
    assert len(parsed) == (0 if count * 2**2 > 8 else count)


def test_one_matrix_over_the_entry_cap_is_refused(tmp_path):
    dim = 4097  # one 4097 x 4097 matrix is 16,785,409 entries, over 2**24
    assert dim**2 > MAX_INSTANCE_ENTRIES == 2**24
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"dim": dim, "matrices": [{"rows": []}]}))
    with pytest.raises(InstanceFormatError, match=f"are {dim**2} entries, over the cap of {2**24}$"):
        load_instance(path)


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(InstanceFormatError):
        load_instance(path)


@pytest.mark.parametrize(
    "content",
    [b'{"dim": 1, "name": "\xff"}', b'{"dim": ' + b"1" * 5000 + b"}"],
    ids=["bad-utf8", "5000-digit-integer"],
)
def test_load_rejects_json_python_cannot_read(tmp_path, content):
    path = tmp_path / "unreadable.json"
    path.write_bytes(content)
    with pytest.raises(InstanceFormatError):
        load_instance(path)


def test_parse_rejects_boolean_dim():
    obj = {"dim": True, "matrices": [{"rows": [[[1.0, 0.0]]]}]}
    with pytest.raises(InstanceFormatError, match='"dim"'):
        parse_instance(obj)
    obj["dim"] = 1
    assert parse_instance(obj).dim == 1


def test_serialize_parse_is_identity(tmp_path):
    rng = np.random.default_rng(0)
    matrices = [crandn(rng, 3, 3) for _ in range(2)]
    inst = Instance(dim=3, names=["x", "y"], matrices=matrices)
    path = tmp_path / "inst.json"
    with open(path, "w") as fh:
        dump_payload(instance_payload(inst), fh)
    again = load_instance(path)
    assert again.names == ("x", "y")
    for got, want in zip(again.matrices, matrices):
        assert np.array_equal(got, want)  # bit-exact double round trip


def test_serialize_parse_is_bit_exact(tmp_path):
    # np.array_equal cannot see the sign of zero; the raw bits can.
    m = np.array(
        [[complex(-0.0, 5e-324), complex(1e308, -1e308)],
         [complex(2**0.5, -0.0), complex(-5e-324, float("inf"))]]
    )
    payload = as_lists(instance_payload(Instance(dim=2, names=["m"], matrices=[m])))
    payload["matrices"][0]["rows"][1][1][0] = 1  # an integer written as `1`
    m[1, 1] = complex(1.0, float("inf"))
    path = tmp_path / "bits.json"
    with open(path, "w") as fh:
        dump_payload(payload, fh)
    assert '[1, Infinity]' in path.read_text()
    got = load_instance(path).matrices[0]
    assert got.dtype == np.complex128
    assert np.array_equal(got.view(np.uint64), m.view(np.uint64))


def test_vector_pairs_round_trip():
    rng = np.random.default_rng(1)
    v = crandn(rng, 5)
    again = pairs_to_vector(json.loads(json.dumps(fileio._pairs(v).tolist())))
    assert np.array_equal(again, v)


def test_matrix_to_pairs_shape():
    pairs = fileio._pairs(np.eye(2)).tolist()
    assert pairs == [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]


def test_tolerance_resolution_order():
    inst = parse_instance(sample_obj())
    assert inst.tolerances().rank_rel == 1e-9          # file override
    assert inst.tolerances().match_abs == 1e-8         # default
    assert inst.tolerances(rank_rel=1e-7).rank_rel == 1e-7  # flag beats file


def test_report_with_numpy_scalar_tolerances_is_written():
    tol = Tolerances(rank_rel=np.float32(1e-6), match_abs=np.float64(1e-8))
    assert type(tol.rank_rel) is float and type(tol.match_abs) is float
    inst = Instance(dim=2, names=["a"], matrices=[np.diag([1.0, 0.0]).astype(complex)])
    rhos = [validate_density(m, tol) for m in inst.matrices]
    buf = io.StringIO()
    dump_payload(report_payload(full_report(rhos, tol), inst.names, tol, inst), buf)
    written = json.loads(buf.getvalue())["tolerances"]
    assert written == {"match_abs": 1e-8, "rank_rel": float(np.float32(1e-6))}


@pytest.mark.parametrize(
    "payload",
    [{}, {"b": {"z": 1, "a": [1.5, None, -0.0, float("inf")]}, "a": "\u00e9", "\u00fc": True}],
)
def test_dump_payload_matches_json_dumps_without_encoded_values(payload):
    buf = io.StringIO()
    dump_payload(payload, buf)
    assert buf.getvalue() == json.dumps(payload, sort_keys=True) + "\n"


# ------------------------------------------------------------------ writer


def bit_patterns() -> np.ndarray:
    """100,000 random finite doubles, then -0.0, +-5e-324, +-max and the
    doubles around each power of two from 2**53 to 2**64."""
    bits = np.random.default_rng(22).integers(0, 2**64, size=100_000, dtype=np.uint64)
    doubles = bits.view(np.float64)
    powers = np.array([2.0**k for k in range(53, 65)])
    edges = np.concatenate([[-0.0, 5e-324, -5e-324, np.finfo(np.float64).max, np.finfo(np.float64).min],
                            powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
    return np.concatenate([doubles[np.isfinite(doubles)], edges])


@pytest.mark.parametrize("name, spelling", [("rho", '"rows":[[['), ("\u03c1", '"rows": [[[')],
                         ids=["orjson", "json-for-a-non-ascii-name"])
def test_written_doubles_read_back_bit_for_bit(tmp_path, name, spelling):
    doubles = bit_patterns()
    dim = int(np.ceil(np.sqrt(doubles.size / 2)))
    flat = np.zeros(2 * dim * dim)
    flat[:doubles.size] = doubles
    matrix = flat.view(np.complex128).reshape(dim, dim)
    path = tmp_path / "bits.json"
    with open(path, "w", encoding="utf-8") as fh:
        dump_payload(instance_payload(Instance(dim=dim, names=[name], matrices=[matrix])), fh)
    text = path.read_text()
    assert spelling in text and text.isascii()
    for inst in (load_instance(path), json_load_instance(path)):
        assert np.array_equal(inst.matrices[0].view(np.uint64), matrix.view(np.uint64))


#: Leaves the writer hands to ``json.dumps``, arrays as their lists: those
#: orjson would spell otherwise in more than their float digits, and arrays
#: of a dtype but bool and native float64; most also hold a float the two
#: spell differently.
JSON_LEAVES = {
    "nan": [1e-7, float("nan")],
    "infinity": float("inf"),
    "nested-infinity": [[0.5, -float("inf")], None],
    "non-finite-in-a-list-of-dicts": [{"x": float("nan"), "y": None}],
    "integer-of-64-bits": [2**64, 1e-7],
    "integer-beyond-64-bits": 10**30,
    "negative-integer-beyond-64-bits": -(2**63) - 1,
    "non-string-key": [{1: 1e-7}],
    "lone-surrogate": ["\ud800", 1e-7],
    "non-ascii": ["\u00e9", 1e-7],
    "del": ["rho\x7f1", 1e-7],
    "numpy-scalar": [np.float64(1e-7)],
    "numpy-scalar-beside-an-array": [np.ones(2), np.float64(1e-7)],
    "non-finite-array": np.nan * np.ones((2, 2)),
    "float32-array": np.array([0.1, 1e-7], dtype=np.float32),  # orjson spells its own digits
    "integer-array": np.arange(3),
    "big-endian-array": np.array([1.5, 2.0], ">f8"),
}

#: Leaves that orjson writes, with the line that orjson writes for them.
ORJSON_LEAVES = {
    "none": (None, "null"),
    "none-beside-floats": ([None, 1e-7, 1e16, 1e-5, -0.0], "[null,1e-7,1e16,0.00001,-0.0]"),
    "null-in-a-string": (["null", 1e-7], '["null",1e-7]'),
    "largest-64-bit-integers": ([2**64 - 1, -(2**63)], "[18446744073709551615,-9223372036854775808]"),
    "list-of-dicts": ([{"b": 1e-7, "a": True}], '[{"a":true,"b":1e-7}]'),
    "control-characters": ("\t\n\x00\x1f\"\\", '"\\t\\n\\u0000\\u001f\\"\\\\"'),
}


@pytest.mark.parametrize("leaf", list(JSON_LEAVES.values()), ids=list(JSON_LEAVES))
def test_leaves_orjson_would_spell_otherwise_are_written_by_json(leaf):
    text = write_to_text({"k": leaf, "z": {"y": leaf}})
    spelled = json.dumps(as_lists(leaf), sort_keys=True)
    assert text == f'{{"k": {spelled}, "z": {{"y": {spelled}}}}}\n'
    assert text.isascii()


def test_non_finite_floats_are_never_written_as_null():
    text = write_to_text({"a": [float("nan"), None], "b": -float("inf"), "c": None, "d": [None]})
    assert text == '{"a": [NaN, null], "b": -Infinity, "c": null, "d": [null]}\n'


@pytest.mark.parametrize("leaf, spelled", list(ORJSON_LEAVES.values()), ids=list(ORJSON_LEAVES))
def test_other_leaves_are_written_by_orjson(leaf, spelled):
    text = write_to_text({"k": leaf, "a": {"c": leaf, "b": 2**70}})
    assert text == f'{{"a": {{"b": {2**70}, "c": {spelled}}}, "k": {spelled}}}\n'
    assert_spells_as_json_dumps(text, {"k": leaf, "a": {"c": leaf, "b": 2**70}})


def test_non_ascii_names_and_keys_are_escaped(tmp_path):
    inst = Instance(dim=1, names=["\u03c1_A", "rho\x7f1"], matrices=[np.eye(1), np.eye(1)])
    path = tmp_path / "names.json"
    with open(path, "w", encoding="utf-8") as fh:
        dump_payload(instance_payload(inst), fh)
    text = path.read_text()
    assert '"\\u03c1_A"' in text and '"rho\\u007f1"' in text
    assert load_instance(path).names == inst.names
    assert write_to_text({"\u00fc": 1, "\ud800": 2}) == '{"\\u00fc": 1, "\\ud800": 2}\n'
    report = full_report([validate_density(m) for m in inst.matrices])
    assert_spells_as_json_dumps(instance_text(inst, report) + "\n", instance_payload(inst))


def test_no_pairwise_table_of_an_incompatible_report_goes_to_json(monkeypatch):
    count = 300
    matrices = generate_instance(2, count, 3, "incompatible")
    inst = Instance(dim=2, names=[f"rho_{i + 1}" for i in range(count)], matrices=matrices)
    report = full_report([validate_density(m) for m in matrices])
    assert not report.compatible and report.witness is None
    encoded, dumps = [], json.dumps

    def counting(value, **kwargs):
        encoded.append(value)
        return dumps(value, **kwargs)

    monkeypatch.setattr(json, "dumps", counting)
    text = write_to_text(report_payload(report, inst.names, DEFAULT_TOL, inst))
    monkeypatch.undo()
    assert encoded and all(isinstance(value, str) for value in encoded)  # the keys alone
    written = written_json(text)["report"]
    assert written["witness"] is None
    for table in ("pairwise_commute", "commute_residual", "pairwise_product_nonzero", "product_overlap"):
        assert len(written[table]) == count and f'"{table}": [[' in text


#: Doubles whose spelling the writer must keep: signed zeros, the smallest
#: subnormals, the largest doubles, where orjson and ``json`` switch to an
#: exponent, and the edges of the integers a double holds exactly.
SPECIAL_DOUBLES = [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
                   1e16, 1e-7, 1e-5, 0.0001, 1e15, 0.1, 2.0**53, 2.0**53 + 2, 2.0**64, 1.5]

finite_doubles = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(SPECIAL_DOUBLES),
    st.integers(0, 2**64 - 1).map(lambda bits: float(np.array(bits, np.uint64).view(np.float64)))
    .filter(np.isfinite),
)
any_doubles = st.one_of(finite_doubles, st.sampled_from([float("nan"), float("inf"), -float("inf")]))
shapes = hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4)


def non_contiguous(a: np.ndarray) -> np.ndarray:
    """A view of ``a``'s values that is not C-contiguous, when ``a`` has two entries along a dimension."""
    return a.T if a.ndim > 1 else np.repeat(a, 2)[::2]


array_leaves = st.one_of(
    hnp.arrays(np.float64, shapes, elements=finite_doubles),
    hnp.arrays(np.float64, shapes, elements=any_doubles),
    hnp.arrays(np.bool_, shapes),
    hnp.arrays(np.complex128, shapes, elements=st.complex_numbers(allow_nan=False, allow_infinity=False))
    .map(fileio._pairs),  # the [re, im] view the payloads hold
    hnp.arrays(np.float64, shapes, elements=finite_doubles).map(non_contiguous),
    finite_doubles.map(np.array),  # no dimension
)
plain_leaves = st.one_of(st.none(), st.booleans(), finite_doubles, st.integers(-(2**63), 2**64 - 1),
                         st.text(max_size=4), finite_doubles.map(np.float64))
leaves = st.recursive(
    st.one_of(array_leaves, plain_leaves),
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=2), inner, max_size=3)),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(payload=st.dictionaries(st.text(max_size=3), leaves, max_size=4))
def test_array_leaves_are_written_as_the_list_route_writes_them(payload):
    """Arrays at any depth, numpy scalars among them, give the bytes of their lists."""
    written = write_to_text(payload)
    assert written == list_route_text(payload)
    assert_spells_as_json_dumps(written, payload)
    with tempfile.TemporaryFile("w+", encoding="utf-8") as fh:
        dump_payload(payload, fh)
        fh.seek(0)
        assert fh.buffer.read() == written.encode("ascii")


def test_numpy_scalars_json_refuses_still_raise():
    for scalar in (np.float32(0.1), np.int64(3), np.bool_(True)):
        for payload in ({"k": [scalar]}, {"k": [np.ones(2), {"a": scalar}]}):
            for write in (write_to_text, list_route_text):
                with pytest.raises(TypeError):
                    write(payload)


def sinks_written(payload, tmp_path) -> dict:
    """The bytes ``payload`` is written as to each kind of stream, after some text of its own."""
    out = {}
    for name, opens in (("utf-8", dict(encoding="utf-8")), ("ascii", dict(encoding="ascii")),
                        ("crlf", dict(encoding="utf-8", newline="\r\n")), ("utf-16", dict(encoding="utf-16")),
                        ("line-buffered", dict(encoding="utf-8", buffering=1))):
        path = tmp_path / f"{name}.json"
        with open(path, "w", **opens) as fh:
            fh.write("before ")  # still in the text layer
            dump_payload(payload, fh)
            fh.write("after\n")
        with open(path, encoding=opens["encoding"], newline="") as fh:
            out[name] = fh.read()
    buf = io.StringIO()
    buf.write("before ")
    dump_payload(payload, buf)
    buf.write("after\n")
    out["string-io"] = buf.getvalue()
    return out


def test_every_stream_gets_the_same_text(tmp_path):
    count = 40
    matrices = generate_instance(2, count, 3, "incompatible")
    inst = Instance(dim=2, names=[f"rho_{i + 1}" for i in range(count)], matrices=matrices)
    payload = report_payload(full_report([validate_density(m) for m in matrices]), inst.names, DEFAULT_TOL, inst)
    line = list_route_text(payload).removesuffix("\n")
    for name, text in sinks_written(payload, tmp_path).items():
        newline = "\r\n" if name == "crlf" else "\n"
        assert text == f"before {line}{newline}after{newline}", name


# -------------------------------------------------------------------- echo


def canonical_obj() -> dict:
    matrices = generate_instance(3, 2, 5, "compatible")
    inst = Instance(dim=3, names=["rho_1", "rho_2"], matrices=matrices,
                    tol_overrides={"match_abs": 1e-8, "rank_rel": 1e-10})
    return instance_payload(inst)


def reordered(obj: dict) -> dict:
    return {key: obj[key] for key in reversed(list(obj))}


def echoed_instance(path) -> str:
    """The ``"instance"`` text of the report written for the instance file at ``path``."""
    inst = load_instance(path)
    report = full_report([validate_density(m) for m in inst.matrices])
    buf = io.StringIO()
    dump_payload(report_payload(report, inst.names, DEFAULT_TOL, inst), buf)
    text, head, tail = buf.getvalue(), '{"instance": ', ', "report": '
    assert text.startswith(head)
    return text[len(head):text.index(tail)]


def variant(obj: dict, how: str) -> str:
    """The instance ``obj`` written out in one of the layouts the writer does not use."""
    obj = json.loads(json.dumps(as_lists(obj)))
    line = json.dumps(obj, sort_keys=True)
    if how == "pretty":
        return json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if how == "pretty-crlf":
        return json.dumps(obj, indent=2, sort_keys=True).replace("\n", "\r\n") + "\r\n"
    if how == "crlf":
        return line + "\r\n"
    if how == "no-trailing-newline":
        return line
    if how == "unsorted-top-level":
        return json.dumps(reordered(obj)) + "\n"
    if how == "unsorted-entry":
        obj["matrices"] = [reordered(entry) for entry in obj["matrices"]]
        return json.dumps(obj) + "\n"
    if how == "unsorted-tolerances":
        obj["tolerances"] = reordered(obj["tolerances"])
        return json.dumps(obj) + "\n"
    if how == "empty-tolerances":
        obj["tolerances"] = {}
        return json.dumps(obj, sort_keys=True) + "\n"
    if how == "names-left-out":
        for entry in obj["matrices"]:
            del entry["name"]
        return json.dumps(obj, sort_keys=True) + "\n"
    if how == "extra-top-level-key":
        obj["comment"] = "by hand"
        return json.dumps(obj, sort_keys=True) + "\n"
    if how == "extra-entry-key":
        obj["matrices"][0]["note"] = 1
        return json.dumps(obj, sort_keys=True) + "\n"
    if how == "non-ascii-name":
        obj["matrices"][0]["name"] = "\u03c1_A"
        return json.dumps(obj, sort_keys=True, ensure_ascii=False) + "\n"
    if how == "escaped-name":
        return line.replace('"rho_1"', '"rho\\u005f1"') + "\n"
    if how == "del-in-name":
        return line.replace('"rho_1"', '"rho\x7f1"') + "\n"
    raise AssertionError(how)


@pytest.mark.parametrize("how", [
    "pretty", "pretty-crlf", "crlf", "no-trailing-newline", "unsorted-top-level",
    "unsorted-entry", "unsorted-tolerances", "empty-tolerances", "names-left-out",
    "extra-top-level-key", "extra-entry-key", "non-ascii-name", "escaped-name", "del-in-name",
])
def test_other_layouts_are_echoed_as_the_canonical_encoding(tmp_path, how):
    text = variant(canonical_obj(), how)
    path = tmp_path / "variant.json"
    path.write_bytes(text.encode("utf-8"))
    payload = instance_payload(parse_instance(json.loads(text)))
    echoed = echoed_instance(path)
    assert_spells_as_json_dumps(echoed + "\n", payload)
    # only a line the writer could have written is kept as read; any other is re-encoded
    kept = how in ("crlf", "no-trailing-newline")
    assert (load_instance(path).echo is not None) == kept
    assert echoed == (text.removesuffix("\r\n") if kept else write_to_text(payload).removesuffix("\n"))


def test_writer_line_is_echoed_as_read(tmp_path):
    path = tmp_path / "inst.json"
    with open(path, "w", encoding="utf-8") as fh:
        dump_payload(canonical_obj(), fh)
    line = path.read_text().removesuffix("\n")
    assert load_instance(path).echo == line
    assert echoed_instance(path) == line


def test_one_line_input_with_integers_is_echoed_as_read(tmp_path):
    line = ('{"dim": 2, "matrices": [{"name": "a", "rows": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]}, '
            '{"name": "b", "rows": [[[1,0],[0,0]],[[0,0],[0,-0]]]}], "tolerances": {"rank_rel": 1e-5}}')
    path = tmp_path / "ints.json"
    path.write_text(line + "\n")
    echo = echoed_instance(path)
    assert echo == line
    again = parse_instance(json.loads(echo))
    for got, want in zip(again.matrices, load_instance(path).matrices):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert again.tol_overrides == {"rank_rel": 1e-5}


def instance_text(inst: Instance, report) -> str:
    """The ``"instance"`` text of ``report`` written beside ``inst``."""
    buf = io.StringIO()
    dump_payload(report_payload(report, inst.names, DEFAULT_TOL, inst), buf)
    text, head, tail = buf.getvalue(), '{"instance": ', ', "report": '
    return text[len(head):text.index(tail)]


FLIPPED = np.diag([0.0, 1.0, 0.0]).astype(complex)

FROZEN = dataclasses.FrozenInstanceError

#: change -> (the change made in place, the error that refuses it, the same
#: change as the fields of a new instance)
CHANGES = {
    "dim": (lambda inst: setattr(inst, "dim", 4), FROZEN,
            lambda inst: {"dim": 4, "matrices": [np.pad(m, (0, 1)) for m in inst.matrices]}),
    "name": (lambda inst: operator.setitem(inst.names, 0, "renamed"), TypeError,
             lambda inst: {"names": ("renamed", *inst.names[1:])}),
    "names-replaced": (lambda inst: setattr(inst, "names", ("x", "y")), FROZEN,
                       lambda inst: {"names": ("x", "y")}),
    "tolerance-changed": (lambda inst: operator.setitem(inst.tol_overrides, "rank_rel", 1e-9),
                          TypeError, lambda inst: {"tol_overrides": {"rank_rel": 1e-9}}),
    "tolerance-added": (lambda inst: operator.setitem(inst.tol_overrides, "match_abs", 1e-9),
                        TypeError, lambda inst: {"tol_overrides": {**inst.tol_overrides,
                                                                   "match_abs": 1e-9}}),
    "tolerance-removed": (lambda inst: operator.delitem(inst.tol_overrides, "rank_rel"),
                          TypeError, lambda inst: {"tol_overrides": {}}),
    "matrix-replaced": (lambda inst: operator.setitem(inst.matrices, 0, FLIPPED), TypeError,
                        lambda inst: {"matrices": (FLIPPED, *inst.matrices[1:])}),
    "matrix-copied": (lambda inst: operator.setitem(inst.matrices[0], (0, 0), 0.0), ValueError,
                      lambda inst: {"matrices": (inst.matrices[0].copy(), *inst.matrices[1:])}),
    "matrices-swapped": (lambda inst: inst.matrices.reverse(), AttributeError,
                         lambda inst: {"matrices": inst.matrices[::-1]}),
    "matrix-appended": (lambda inst: inst.matrices.append(FLIPPED), AttributeError,
                        lambda inst: {"names": (*inst.names, "flipped"),
                                      "matrices": (*inst.matrices, FLIPPED)}),
    "matrix-removed": (lambda inst: inst.matrices.pop(), AttributeError,
                       lambda inst: {"names": inst.names[:-1], "matrices": inst.matrices[:-1]}),
    "matrices-replaced": (lambda inst: setattr(inst, "matrices", (FLIPPED, FLIPPED)), FROZEN,
                          lambda inst: {"matrices": (FLIPPED, FLIPPED)}),
}


@pytest.mark.parametrize("change", list(CHANGES))
def test_changed_instance_is_re_encoded(tmp_path, change):
    """A loaded instance refuses each change where it is made and keeps its
    echo; the same change, made as a new instance, has none and is re-encoded."""
    obj = canonical_obj()
    obj["tolerances"] = {"rank_rel": 1e-10}
    path = tmp_path / "inst.json"
    with open(path, "w", encoding="utf-8") as fh:
        dump_payload(obj, fh)
    line = path.read_text().removesuffix("\n")
    inst = load_instance(path)
    report = full_report([validate_density(m) for m in inst.matrices])
    assert instance_text(inst, report) == line
    edit, refusal, fields = CHANGES[change]
    with pytest.raises(refusal):
        edit(inst)
    assert inst.echo == line and instance_text(inst, report) == line
    changed = dataclasses.replace(inst, **fields(inst))
    assert changed.echo is None
    canonical = write_to_text(instance_payload(changed))
    assert_spells_as_json_dumps(canonical, instance_payload(changed))
    assert instance_text(changed, report) == canonical.removesuffix("\n")


#: fields an instance may not hold -> the refusal's message
INCONSISTENT = {
    "two names for three matrices": ({"names": ["a", "b"], "matrices": [np.eye(4) / 4] * 3},
                                     "2 names for 3 matrices"),
    "three names for two matrices": ({"names": ["a", "b", "c"], "matrices": [np.eye(4) / 4] * 2},
                                     "3 names for 2 matrices"),
    "empty name": ({"names": ["a", ""], "matrices": [np.eye(4) / 4] * 2},
                   "matrix 1: name must be a nonempty string"),
    "name not a string": ({"names": ["a", 2], "matrices": [np.eye(4) / 4] * 2},
                          "matrix 1: name must be a nonempty string"),
    "3 x 3 matrix": ({"names": ["a", "b"], "matrices": [np.eye(4) / 4, np.eye(3) / 3]},
                     "matrix 'b' is (3, 3), not 4 x 4"),
    "unknown tolerance": ({"names": ["a"], "matrices": [np.eye(4) / 4], "tol_overrides": {"x": 1e-9}},
                          "unknown tolerance 'x'"),
    "no matrix": ({"names": [], "matrices": []}, '"matrices" must be a nonempty list'),
    "string tolerance": ({"names": ["a"], "matrices": [np.eye(4) / 4], "tol_overrides": {"rank_rel": "1e-9"}},
                         "tolerances.rank_rel: expected a number, got '1e-9'"),
    "bool tolerance": ({"names": ["a"], "matrices": [np.eye(4) / 4], "tol_overrides": {"rank_rel": True}},
                       "tolerances.rank_rel: expected a number, got True"),
    "numpy tolerance": ({"names": ["a"], "matrices": [np.eye(4) / 4],
                         "tol_overrides": {"match_abs": np.float32(1e-8)}},
                        f"tolerances.match_abs: expected a number, got {np.float32(1e-8)!r}"),
}


@pytest.mark.parametrize("case", list(INCONSISTENT))
def test_an_instance_refuses_what_no_file_can_hold(case):
    """The constructor, also by dataclasses.replace, refuses fields that would
    write a file its reader refuses, or one holding less than the instance."""
    changes, message = INCONSISTENT[case]
    with pytest.raises(InstanceFormatError, match=f"^{re.escape(message)}$"):
        Instance(dim=4, **changes)
    valid = Instance(dim=4, names=["a"], matrices=[np.eye(4) / 4], tol_overrides={"rank_rel": 1e-9})
    with pytest.raises(InstanceFormatError, match=f"^{re.escape(message)}$"):
        dataclasses.replace(valid, **changes)


def test_an_instance_keeps_its_tolerance_overrides_as_doubles():
    """An integer override is stored as the double its file would read back."""
    inst = Instance(dim=1, names=["a"], matrices=[np.eye(1)], tol_overrides={"rank_rel": 1, "match_abs": 1e-9})
    assert dict(inst.tol_overrides) == {"rank_rel": 1.0, "match_abs": 1e-9}
    assert all(type(v) is float for v in inst.tol_overrides.values())
    assert parse_instance(json.loads(write_to_text(instance_payload(inst)))).tol_overrides == inst.tol_overrides


def test_report_shows_a_replaced_matrix_beside_its_verdict(tmp_path):
    path = tmp_path / "inst.json"
    with open(path, "w", encoding="utf-8") as fh:
        dump_payload(instance_payload(Instance(dim=2, names=["a"], matrices=[np.diag([1.0, 0.0])])),
                     fh)
    inst = dataclasses.replace(load_instance(path), matrices=[np.diag([0.0, 1.0]).astype(complex)])
    report = full_report([validate_density(m) for m in inst.matrices])
    shown = parse_instance(json.loads(instance_text(inst, report))).matrices[0]
    assert shown[0, 0] == 0.0 and shown[1, 1] == 1.0
    assert abs(report.witness[1]) == 1.0


def test_loaded_matrices_are_read_only(tmp_path):
    path = tmp_path / "inst.json"
    with open(path, "w", encoding="utf-8") as fh:
        dump_payload(canonical_obj(), fh)
    inst = load_instance(path)
    with pytest.raises(ValueError, match="read-only"):
        inst.matrices[0][0, 0] = 0.0
    assert inst.echo == path.read_text().removesuffix("\n")


def test_copied_and_unpickled_instances_keep_their_echo_and_cannot_change(tmp_path):
    path = tmp_path / "inst.json"
    with open(path, "w", encoding="utf-8") as fh:
        dump_payload(canonical_obj(), fh)
    inst = load_instance(path)
    for again in (copy.copy(inst), copy.deepcopy(inst), pickle.loads(pickle.dumps(inst))):
        assert_same_instance(again, inst)
        assert again.echo == path.read_text().removesuffix("\n")
        assert not any(m.flags.writeable for m in again.matrices)
        with pytest.raises(TypeError):
            again.tol_overrides["rank_rel"] = 1e-9


def test_replaced_instance_keeps_no_echo(tmp_path):
    path = tmp_path / "inst.json"
    with open(path, "w", encoding="utf-8") as fh:
        dump_payload(canonical_obj(), fh)
    inst = load_instance(path)
    assert inst.echo is not None
    assert dataclasses.replace(inst).echo is None


# ---------------------------------------------------------------- decoders


@pytest.fixture
def orjson_calls(monkeypatch) -> list:
    """The texts that :func:`statecompat.fileio._decode` hands to orjson in the test."""
    calls = []

    def loads(raw):
        calls.append(raw)
        return orjson.loads(raw)

    monkeypatch.setitem(sys.modules, "orjson", SimpleNamespace(
        loads=loads, JSONDecodeError=orjson.JSONDecodeError, dumps=orjson.dumps, OPT_SORT_KEYS=orjson.OPT_SORT_KEYS,
        OPT_SERIALIZE_NUMPY=orjson.OPT_SERIALIZE_NUMPY))
    return calls


@pytest.fixture
def scans(monkeypatch) -> list:
    """The ``entries`` flag of every :func:`statecompat.fileio._scan` call in the test."""
    calls, scan = [], fileio._scan

    def recorded(raw, entries):
        calls.append(entries)
        return scan(raw, entries)

    monkeypatch.setattr(fileio, "_scan", recorded)
    return calls


def assert_same_instance(got: Instance, want: Instance) -> None:
    assert (got.dim, got.names, got.echo) == (want.dim, want.names, want.echo)
    assert list(got.tol_overrides) == list(want.tol_overrides)
    tols = [np.array(list(inst.tol_overrides.values()), dtype=np.float64) for inst in (got, want)]
    assert np.array_equal(tols[0].view(np.uint64), tols[1].view(np.uint64))
    assert len(got.matrices) == len(want.matrices)
    for a, b in zip(got.matrices, want.matrices):
        assert a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def write_generated(path, dim: int, count: int, seed: int, mode: str) -> None:
    names = [f"rho_{i + 1}" for i in range(count)]
    inst = Instance(dim=dim, names=names, matrices=generate_instance(dim, count, seed, mode))
    with open(path, "w", encoding="utf-8") as fh:
        dump_payload(instance_payload(inst), fh)


#: The (dim, count, mode) shapes of the cli-roundtrip benchmark's files, then
#: every generate mode at dim 3.
GENERATED = ([(d, c, mode) for d in (8, 16, 24, 32) for c in (2, 3)
              for mode in ("compatible", "incompatible")]
             + [(3, 3, mode) for mode in ("compatible", "incompatible", "pairwise-only")])


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_generated_files_decode_as_json_decodes_them(tmp_path, orjson_calls, seed):
    for dim, count, mode in GENERATED:
        path = tmp_path / f"d{dim}c{count}-{mode}.json"
        write_generated(path, dim, count, seed, mode)
        written_json(path.read_text())
        assert_same_instance(load_instance(path), json_load_instance(path))
    assert len(orjson_calls) == len(GENERATED)


def one_matrix_line(number: str = "0.5", name: str = '"a"') -> str:
    """A one-matrix instance line with ``number`` spelled as an entry and as a tolerance."""
    return ('{"dim": 2, "matrices": [{"name": %s, "rows": [[[%s, 0.0], [0.0, 0.25]], '
            '[[0.0, -0.25], [0.5, -0.0]]]}], "tolerances": {"rank_rel": %s}}' % (name, number, number))


@pytest.mark.parametrize("text", [
    *(one_matrix_line(number) for number in (
        "-0.0", "5e-324", "2.2250738585072011e-308", "1.7976931348623157e308",
        str(2**53 + 1), str(2**64 - 1), str(2**64), str(10**30), "Infinity", "NaN",
    )),
    one_matrix_line(name='"\\ud800"'),
    one_matrix_line(name='"\\ud83d\\ude00"'),
    one_matrix_line().replace('"dim": 2,', '"dim": 3, "dim": 2,').replace(
        '"name": "a",', '"name": "b", "name": "a",').replace('"rank_rel":', '"rank_rel": 1, "rank_rel":'),
], ids=["-0.0", "5e-324", "2.2250738585072011e-308", "max-double", "2**53+1", "2**64-1", "2**64",
        "10**30", "Infinity", "NaN", "lone-surrogate-name", "surrogate-pair-name", "duplicate-keys"])
def test_special_inputs_decode_as_json_decodes_them(tmp_path, text):
    path = tmp_path / "inst.json"
    path.write_text(text + "\n")
    assert_same_instance(load_instance(path), json_load_instance(path))


@pytest.mark.parametrize("content", [
    b"{not json", b'{"dim": 1,}', b"", b"[1 2]", b'{"dim": 1} x', b"01", b'{"name": "\t"}',
    b"\xef\xbb\xbf{}", b'{"dim": 1, "name": "\xff"}', b'{"dim": ' + b"1" * 5000 + b"}",
], ids=["bare-word", "trailing-comma", "empty", "missing-comma", "extra-data", "leading-zero",
        "raw-tab", "bom", "bad-utf8", "5000-digit-integer"])
def test_invalid_json_gives_the_json_message(tmp_path, content):
    path = tmp_path / "broken.json"
    path.write_bytes(content)
    with pytest.raises(InstanceFormatError) as got:
        load_instance(path)
    with pytest.raises(InstanceFormatError) as want:
        json_load_instance(path)
    assert str(got.value) == str(want.value)


def test_a_dim_beyond_64_bits_is_no_positive_integer(tmp_path):
    # orjson reads an integer beyond 64 bits as a double; json's int was
    # refused by the row count instead
    path = tmp_path / "inst.json"
    path.write_text(one_matrix_line().replace('"dim": 2', f'"dim": {2**64}'))
    with pytest.raises(InstanceFormatError, match='"dim" must be a positive integer'):
        load_instance(path)
    with pytest.raises(InstanceFormatError, match="over the cap of 16777216"):
        json_load_instance(path)  # refused before any row is read


def test_the_opening_count_picks_the_decoder(orjson_calls, scans):
    """Within the opening bound orjson gets the text as it is; beyond it the scan
    runs first, which refuses one level too many before any decoder runs and
    hands a text it passes to orjson too."""
    bound = fileio.ORJSON_MAX_OPENINGS
    deepest = fileio._decode("[" * bound + "]" * bound)  # at the bound: orjson, unscanned
    for _ in range(bound - 1):
        (deepest,) = deepest
    assert deepest == [] and (len(orjson_calls), scans) == (1, [])
    with pytest.raises(RecursionError):  # one more: scanned, and refused for its depth
        fileio._decode("[" * (bound + 1) + "]" * (bound + 1))
    assert (len(orjson_calls), scans) == (1, [False])
    # a bracket in a string counts too, as the count only bounds the depth; the scan skips it
    assert fileio._decode(json.dumps(["[" * bound])) == ["[" * bound]
    assert (len(orjson_calls), scans) == (2, [False, False])


def test_the_object_count_picks_the_decoder(orjson_calls, scans):
    # a flat list: the object count decides whether the scan runs and counts matrices, whatever the depth
    bound = fileio.ORJSON_MAX_OBJECTS
    assert bound == 2 + MAX_INSTANCE_MATRICES  # the top level, tolerances, one per matrix
    assert fileio._decode(json.dumps([{}] * bound)) == [{}] * bound
    assert (len(orjson_calls), scans) == (1, [])
    assert fileio._decode(json.dumps([{}] * (bound + 1))) == [{}] * (bound + 1)  # scanned, then orjson
    assert (len(orjson_calls), scans) == (2, [True])


def braced_name_line(braces: int, brackets: int) -> str:
    """A one-matrix instance line whose name holds ``braces`` ``{`` and
    ``brackets`` ``[``, among non-ASCII letters."""
    name = "\u03c1{" * braces + "\u00e9[" * brackets
    return '{"dim": 1, "matrices": [{"name": %s, "rows": [[[1.0, 0.0]]]}]}' % json.dumps(name, ensure_ascii=False)


def test_the_counts_are_those_of_the_utf8_bytes(orjson_calls, scans):
    """Whether the scan runs before orjson is picked by the counts of ``{`` and
    ``[`` in the UTF-8 bytes, braces inside strings included, right at both
    bounds; the scan passes each of these texts to orjson."""
    objects, openings = fileio.ORJSON_MAX_OBJECTS, fileio.ORJSON_MAX_OPENINGS
    base = braced_name_line(0, 0).encode()
    at_objects = objects - base.count(b"{")
    at_openings = openings - objects - base.count(b"[")
    cases = [(0, 0), (at_objects, 0), (at_objects + 1, 0), (at_objects, at_openings),
             (at_objects, at_openings + 1), (0, openings - base.count(b"{") - base.count(b"[") + 1)]
    picked = []
    for braces, brackets in cases:
        text = braced_name_line(braces, brackets)
        raw = text.encode()
        unscanned = raw.count(b"{") <= objects and raw.count(b"{") + raw.count(b"[") <= openings
        calls, scanned = len(orjson_calls), len(scans)
        assert fileio._decode(text)["matrices"][0]["name"] == json.loads(text)["matrices"][0]["name"]
        assert (len(orjson_calls) - calls, len(scans) - scanned) == (1, not unscanned), (braces, brackets)
        picked.append(unscanned)
    assert picked == [True, True, False, True, False, False]  # the cases straddle both bounds
    with pytest.raises(json.JSONDecodeError):
        fileio._decode("")
    assert orjson_calls[-1] == b""  # no opening at all: orjson, whose refusal goes to json


@pytest.mark.parametrize("text", [
    '{"a": ' * 16384 + "1" + "}" * 16384,
    '{"dim": 1, "matrices": [{"rows": [[[' + "[" * 5000 + "]" * 5000 + ", 0.0]]]}]}",
], ids=["16384-objects", "deep-entry"])
def test_deep_nesting_is_an_instance_format_error(tmp_path, text):
    # Deeper input, which orjson could not survive, is tried only in a
    # separate process (test_cli.py), so that a crash fails one test.
    path = tmp_path / "deep.json"
    path.write_text(text)
    with pytest.raises(InstanceFormatError):
        load_instance(path)


@pytest.fixture
def json_calls(monkeypatch) -> list:
    """The texts that :func:`statecompat.fileio._decode` hands to ``json``, which
    only records them: at the depths tried here, ``json`` itself would raise
    ``RecursionError`` under the test runner's stack on Python 3.11 and earlier."""
    calls = []
    monkeypatch.setattr(fileio.json, "loads", lambda text: calls.append(text) or "decoded")
    return calls


def depth_by_hand(text: str) -> int:
    """The deepest nesting of ``[`` and ``{`` outside strings, one character at a time."""
    depth = deepest = 0
    in_string = escaped = False
    for c in text:
        if escaped:
            escaped = False
        elif in_string:
            in_string, escaped = c != '"', c == "\\"
        elif c == '"':
            in_string = True
        elif c in "[{":
            depth += 1
            deepest = max(deepest, depth)
        elif c in "]}":
            depth -= 1
    return deepest


def decoded_by_json(json_calls, text: str) -> bool:
    """Whether ``_decode`` hands ``text`` to ``json``; if not, it must raise the
    depth bound's ``RecursionError`` without calling ``json``."""
    calls = len(json_calls)
    try:
        assert fileio._decode(text) == "decoded" and json_calls[calls:] == [text]
        return True
    except RecursionError as exc:
        assert str(exc) == f"more than {fileio.JSON_MAX_DEPTH} levels"
        assert len(json_calls) == calls
        return False


#: one level of nesting: its opening and its closing, some with brackets,
#: braces and an escaped quote inside a string
LEVELS = {"arrays": ("[", "]"), "objects": ('{"a": ', "}"), "array-strings": ('["]\\"}[", ', "]"),
          "object-keys": ('{"}{\\\\": 1, "[": ', "}")}


@pytest.mark.parametrize("kind", LEVELS)
@pytest.mark.parametrize("by", ["orjson-refusal", "opening-count"])
def test_json_gets_no_text_nested_deeper_than_its_bound(json_calls, kind, by):
    """``json`` gets texts up to :data:`JSON_MAX_DEPTH` levels deep that orjson
    refused (a NaN), whether orjson got them as they were or after the scan
    (more openings than its bound, all inside a string); one level more
    raises ``RecursionError`` before ``json`` is called."""
    bound = fileio.JSON_MAX_DEPTH
    assert bound == 1000
    opening, closing = LEVELS[kind]
    pad = "NaN" if by == "orjson-refusal" else json.dumps("[{" * fileio.ORJSON_MAX_OPENINGS) + ", NaN"
    for depth in (bound, bound + 1):
        # the outer array holding the padding is one level
        text = "[" + pad + ", " + opening * (depth - 1) + "0" + closing * (depth - 1) + "]"
        assert depth_by_hand(text) == depth
        assert decoded_by_json(json_calls, text) == (depth == bound)


JSON_TEXT_CHARS = st.text(alphabet='[]{}"\\ a\u00e9\n', max_size=6)
JSON_VALUES = st.recursive(
    st.none() | st.integers(-5, 5) | JSON_TEXT_CHARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(JSON_TEXT_CHARS, inner, max_size=3),
    max_leaves=12)


@given(value=JSON_VALUES, ascii_only=st.booleans())
@settings(max_examples=300, deadline=None)
def test_the_depth_bound_counts_brackets_outside_strings(value, ascii_only):
    """Strings full of brackets, braces, quotes and backslashes add no depth:
    a text is refused exactly when its nesting outside strings passes the bound."""
    text = json.dumps(value, ensure_ascii=ascii_only)
    depth = depth_by_hand(text)
    calls = []
    with mock.patch.object(fileio.json, "loads", lambda text: calls.append(text) or "decoded"):
        for levels, decoded in ((fileio.JSON_MAX_DEPTH - depth, True), (fileio.JSON_MAX_DEPTH - depth + 1, False)):
            assert decoded_by_json(calls, nested_for_json(text, levels)) == decoded, (text, levels)


def nested_for_json(text: str, levels: int) -> str:
    """``text`` inside ``levels`` more arrays, the innermost with a NaN beside it,
    which orjson refuses, so the whole text goes to ``json``."""
    return "[" * (levels - 1) + "[NaN, " + text + "]" * levels


def test_names_full_of_brackets_are_read_by_orjson(tmp_path, orjson_calls, scans):
    """A valid instance whose names hold more ``{`` and ``[`` than the cheap
    bounds, beside escaped quotes and backslashes, is scanned, which finds it
    neither too deep nor over the matrix cap, as those brackets are inside
    strings; then orjson reads it as ``json`` reads it."""
    names = ["{" * fileio.ORJSON_MAX_OBJECTS + "[" * fileio.ORJSON_MAX_OPENINGS, "\\", '\\"[', '"{', "\\\\"]
    line = json.dumps({"dim": 1, "matrices": [{"name": name, "rows": [[[1.0, 0.0]]]} for name in names]})
    assert depth_by_hand(line) == 6 and line.count("{") > fileio.ORJSON_MAX_OBJECTS
    path = tmp_path / "inst.json"
    path.write_text(line)
    assert list(load_instance(path).names) == names
    assert (len(orjson_calls), scans) == (1, [True])
    assert_same_instance(load_instance(path), json_load_instance(path))


def one_by_one_line(count: int, name: str = "rho", extra: str = "") -> str:
    """An instance line of ``count`` 1 x 1 matrices named ``name``, then ``extra`` at the top level."""
    entry = json.dumps({"name": name, "rows": [[[1.0, 0.0]]]})
    return '{"dim": 1, "matrices": [' + ", ".join([entry] * count) + "]" + extra + "}"


@pytest.mark.parametrize("count", [MAX_INSTANCE_MATRICES + 2, 200_000])
def test_a_text_over_the_matrix_cap_is_refused_before_decoding(tmp_path, orjson_calls, json_calls, count):
    """A text with more objects than orjson gets unscanned, whose ``"matrices"``
    list holds more than the cap, is refused by the scan in the cap's words:
    neither decoder runs, and the refusal is not called invalid JSON. (With one
    matrix fewer the text is within the object bound, and ``parse_instance``
    refuses it after orjson, as ``test_the_matrix_cap_is_checked_before_any_matrix_is_read``
    checks for the decoded object.)"""
    path = tmp_path / "many.json"
    path.write_text(one_by_one_line(count))
    with pytest.raises(InstanceFormatError) as info:
        load_instance(path)
    assert str(info.value) == f"instance too large: {count} matrices, over the cap of {MAX_INSTANCE_MATRICES}"
    assert orjson_calls == json_calls == []


@pytest.mark.parametrize("text", [
    one_by_one_line(3, name="{" * 2000),
    one_by_one_line(MAX_INSTANCE_MATRICES, name="{", extra=', "tolerances": {"rank_rel": 1e-9}'),
    one_by_one_line(1, extra=', "other": [' + ", ".join(["{}"] * 2000) + "]"),
    one_by_one_line(1, extra=', "other": {"matrices": [' + ", ".join(["{}"] * 2000) + "]}"),
    one_by_one_line(1, extra=', "other": [{"matrices": []}, ' + ", ".join(["{}"] * 2000) + "]"),
    '{"dim": 1, "matrices": [{"rows": [[[1.0, 0.0]]], "matrices": [' + ", ".join(["{}"] * 2000) + "]}]}",
    '{"matrices": [' + ", ".join(["{}"] * 2000) + '], "dim": 1, "matrices": [{"rows": [[[1.0, 0.0]]]}]}',
], ids=["braces-in-names", "at-the-cap", "other-list", "nested-key", "nested-key-then-objects",
        "key-in-an-entry", "repeated-key"])
def test_objects_outside_the_matrix_list_are_no_matrices(tmp_path, orjson_calls, scans, text):
    """The scan counts only the objects that open in the list of the last
    top-level ``"matrices"`` key, so each of these texts, over the cheap object
    bound, reads as ``json`` reads it, by orjson."""
    path = tmp_path / "inst.json"
    path.write_text(text)
    assert text.count("{") > fileio.ORJSON_MAX_OBJECTS
    assert_same_instance(load_instance(path), json_load_instance(path))
    assert (len(orjson_calls), scans) == (1, [True])


def test_a_text_over_the_opening_bound_is_read_by_orjson(tmp_path, monkeypatch):
    """One 64 x 64 matrix opens more arrays than the cheap bound; the scan passes
    it, orjson reads it without ``json``, and the instance has ``json``'s bits."""
    path = tmp_path / "d64.json"
    write_generated(path, 64, 2, 7, "incompatible")
    assert path.read_text().count("[") > fileio.ORJSON_MAX_OPENINGS
    want = json_load_instance(path)
    with monkeypatch.context() as patched:
        patched.setattr(fileio.json, "loads", mock.Mock(side_effect=AssertionError("json.loads called")))
        got = load_instance(path)
    assert_same_instance(got, want)


def test_too_deep_for_json_is_an_instance_format_error(tmp_path, json_calls):
    path = tmp_path / "deep.json"
    path.write_text(nested_for_json("0", fileio.JSON_MAX_DEPTH + 1))
    with pytest.raises(InstanceFormatError, match="instance nested too deeply: more than 1000 levels"):
        load_instance(path)
    assert json_calls == []
