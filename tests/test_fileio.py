import dataclasses
import io
import json

import numpy as np
import pytest

from statecompat.compat import full_report
from statecompat.density import validate_density
from statecompat.errors import InstanceFormatError
from statecompat.fileio import (
    Instance,
    dump_payload,
    instance_payload,
    load_instance,
    matrix_to_pairs,
    parse_instance,
    report_payload,
)
from statecompat.generate import crandn, generate_instance
from statecompat.linalg import DEFAULT_TOL, Tolerances

from conftest import pairs_to_vector


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
    assert inst.dim == 2 and inst.names == ["a"]
    assert inst.matrices[0][0, 1] == 0.25j
    np.testing.assert_allclose(
        inst.matrices[0], np.array([[0.5, 0.25j], [-0.25j, 0.5]]), atol=0
    )
    assert inst.tol_overrides == {"rank_rel": 1e-9}


def test_parse_defaults_matrix_names():
    obj = sample_obj()
    del obj["matrices"][0]["name"]
    assert parse_instance(obj).names == ["rho_1"]


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
    ],
)
def test_parse_rejects_malformed(mutate):
    obj = sample_obj()
    mutate(obj)
    with pytest.raises(InstanceFormatError):
        parse_instance(obj)


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
    assert again.names == ["x", "y"]
    for got, want in zip(again.matrices, matrices):
        assert np.array_equal(got, want)  # bit-exact double round trip


def test_serialize_parse_is_bit_exact(tmp_path):
    # np.array_equal cannot see the sign of zero; the raw bits can.
    m = np.array(
        [[complex(-0.0, 5e-324), complex(1e308, -1e308)],
         [complex(2**0.5, -0.0), complex(-5e-324, float("inf"))]]
    )
    payload = instance_payload(Instance(dim=2, names=["m"], matrices=[m]))
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
    again = pairs_to_vector(json.loads(json.dumps(matrix_to_pairs(v))))
    assert np.array_equal(again, v)


def test_matrix_to_pairs_shape():
    pairs = matrix_to_pairs(np.eye(2))
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
    obj = json.loads(json.dumps(obj))
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
    canonical = json.dumps(instance_payload(parse_instance(json.loads(text))), sort_keys=True)
    assert echoed_instance(path) == canonical
    # only a line the writer could have written is kept as read
    assert (load_instance(path).echo is not None) == (how in ("crlf", "no-trailing-newline"))


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

CHANGES = {
    "dim": lambda inst: setattr(inst, "dim", 4),
    "name": lambda inst: inst.names.__setitem__(0, "renamed"),
    "names-replaced": lambda inst: setattr(inst, "names", ["x", "y"]),
    "tolerance-changed": lambda inst: inst.tol_overrides.__setitem__("rank_rel", 1e-9),
    "tolerance-added": lambda inst: inst.tol_overrides.__setitem__("match_abs", 1e-9),
    "tolerance-removed": lambda inst: inst.tol_overrides.clear(),
    "matrix-replaced": lambda inst: inst.matrices.__setitem__(0, FLIPPED),
    "matrix-copied": lambda inst: inst.matrices.__setitem__(0, inst.matrices[0].copy()),
    "matrices-swapped": lambda inst: inst.matrices.reverse(),
    "matrix-appended": lambda inst: inst.matrices.append(FLIPPED),
    "matrix-removed": lambda inst: inst.matrices.pop(),
    "matrices-replaced": lambda inst: setattr(inst, "matrices", [FLIPPED, FLIPPED]),
}


@pytest.mark.parametrize("change", list(CHANGES))
def test_changed_instance_is_re_encoded(tmp_path, change):
    obj = canonical_obj()
    obj["tolerances"] = {"rank_rel": 1e-10}
    path = tmp_path / "inst.json"
    with open(path, "w", encoding="utf-8") as fh:
        dump_payload(obj, fh)
    inst = load_instance(path)
    report = full_report([validate_density(m) for m in inst.matrices])
    assert instance_text(inst, report) == path.read_text().removesuffix("\n")
    CHANGES[change](inst)
    assert inst.echo is None
    assert instance_text(inst, report) == json.dumps(instance_payload(inst), sort_keys=True)


def test_report_shows_a_replaced_matrix_beside_its_verdict(tmp_path):
    path = tmp_path / "inst.json"
    with open(path, "w", encoding="utf-8") as fh:
        dump_payload(instance_payload(Instance(dim=2, names=["a"], matrices=[np.diag([1.0, 0.0])])),
                     fh)
    inst = load_instance(path)
    inst.matrices[0] = np.diag([0.0, 1.0]).astype(complex)
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


def test_replaced_instance_keeps_no_echo(tmp_path):
    path = tmp_path / "inst.json"
    with open(path, "w", encoding="utf-8") as fh:
        dump_payload(canonical_obj(), fh)
    inst = load_instance(path)
    assert inst.echo is not None
    assert dataclasses.replace(inst).echo is None
