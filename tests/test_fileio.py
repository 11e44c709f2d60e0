import json

import numpy as np
import pytest

from statecompat.errors import InstanceFormatError
from statecompat.fileio import (
    Instance,
    dump_payload,
    instance_payload,
    load_instance,
    matrix_to_pairs,
    parse_instance,
)
from statecompat.generate import crandn

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
