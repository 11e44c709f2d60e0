"""Instance and report files.

Both formats are JSON with complex numbers spelled as ``[re, im]`` pairs, so
they parse trivially in any language and round-trip bit-exactly at double
precision. An instance file looks like::

    {
      "dim": 2,
      "matrices": [
        {"name": "rho_1", "rows": [[[1.0, 0.0], [0.0, 0.0]],
                                   [[0.0, 0.0], [0.0, 0.0]]]}
      ],
      "tolerances": {"rank_rel": 1e-10, "match_abs": 1e-8}
    }

``tolerances`` is optional, as are the per-matrix names. A report file echoes
the instance it was computed from under ``"instance"``, so every verdict can
be re-derived from the report alone.

Files are written as one line of JSON with sorted keys (``python -m json.tool
FILE`` pretty-prints one); reading accepts any layout. Numbers move between
JSON and numpy in bulk: a matrix's ``[re, im]`` pairs are checked for shape,
a matrix holding anything but floats has its values checked one by one,
and then all are converted in one ``np.array`` call and reinterpreted as
complex128, so every double round-trips bit for bit.

An input laid out as the writer lays it out is echoed as read, without
re-encoding a number: one line of ASCII (less one trailing newline) with no
backslash or DEL, the top-level keys a sorted subset of ``dim``, ``matrices``
and ``tolerances``, each matrix entry exactly ``name`` then ``rows``, and the
``tolerances`` nonempty with sorted keys. Every file that ``generate`` writes
is such a line, and so is a report's ``"instance"`` when no name needs an
escape. The echo parses to the same matrices bit for bit; it can differ from
the re-encoding only in how numbers are spelled (``1`` against ``1.0``,
``1e-5`` against ``1e-05``), in whitespace between tokens, and in a key that
the line repeats. Any other input is re-encoded. An :class:`Instance` cannot
change after it is made, so :func:`load_instance` sets its echo once, and
the echo always spells what the instance holds.

Two decoders read a file (:func:`_decode`); both give the same instance bit
for bit wherever both accept the text. orjson reads almost every file,
about four times faster than the standard ``json``. It refuses some inputs
that ``json`` reads, and those go to ``json``, so they decode or fail as
they always have: ``NaN`` and ``Infinity`` (which :func:`dump_payload`
writes for a non-finite entry), numbers beyond a double, lone surrogates,
and invalid JSON, whose error is ``json``'s. orjson has no nesting limit and
overflows the C stack on deep enough input, and a thread's stack can be
small: 512 KiB is the default for threads on macOS. Measured with orjson
3.8.3 on Linux, a thread with a 512 KiB stack is killed by 4,096 nested
objects or 12,000 nested arrays, one with 1 MiB by 8,000 objects, and one
with 2 MiB by 16,384 objects, while 512 KiB survives 1,026 objects nested
inside or around 4,974 arrays and crashes at 6,974 openings. So orjson
gets only texts with at most :data:`ORJSON_MAX_OBJECTS` ``{`` and at most
:data:`ORJSON_MAX_OPENINGS` ``[`` plus ``{``, bounds on their depth; a
valid instance nests six levels deep and opens one object per matrix plus
two, so no valid instance of at most
:data:`statecompat.generate.MAX_INSTANCE_MATRICES` matrices exceeds the
object bound. ``json`` reads the rest and refuses deep nesting with a
``RecursionError`` (on a 512 KiB thread too), which becomes an
:class:`InstanceFormatError`. orjson reads an integer beyond 64 bits
as the nearest double, which is the double ``json``'s integer converts to;
only a ``dim`` of 2**64 or more reads differently, and it is refused either
way. The writer stays on ``json.dumps``, which spells every float as
``float.__repr__`` does, so reports stay byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from itertools import chain
from types import MappingProxyType

import numpy as np

from .compat import CompatReport
from .errors import InstanceFormatError
from .generate import MAX_INSTANCE_ENTRIES, MAX_INSTANCE_MATRICES
from .linalg import Tolerances, read_only
from .scenario import ScenarioResult

#: The most ``[`` plus ``{`` a text may hold for orjson to decode it: their
#: count bounds the nesting depth, which orjson does not limit itself.
ORJSON_MAX_OPENINGS = 4096

#: The most ``{`` a text may hold for orjson to decode it, which costs more
#: stack per level than ``[``: the top-level object, ``tolerances`` and one
#: object per matrix of an instance under the matrix cap.
ORJSON_MAX_OBJECTS = 2 + MAX_INSTANCE_MATRICES


@dataclass(frozen=True, eq=False)
class Instance:
    """Parsed instance file: raw matrices plus optional tolerance overrides.

    An instance cannot change after it is made: it is frozen, ``names`` and
    ``matrices`` are tuples, each matrix is a read-only copy that no caller
    holds, and ``tol_overrides`` is a read-only mapping. ``echo`` is the
    file's line, which a report echoes instead of re-encoding the instance;
    only :func:`load_instance` sets it, and an instance made any other way,
    by :func:`dataclasses.replace` too, has None; a copy or an unpickled
    instance keeps it.
    """

    dim: int
    names: tuple[str, ...]
    matrices: tuple[np.ndarray, ...]
    tol_overrides: MappingProxyType[str, float] = field(default_factory=dict)
    echo: str | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "matrices", tuple(map(read_only, self.matrices)))
        object.__setattr__(self, "tol_overrides", MappingProxyType(dict(self.tol_overrides)))

    def __reduce__(self):
        """Copies and unpickled instances are made by the constructor, and keep the echo."""
        return (Instance, (self.dim, self.names, self.matrices, dict(self.tol_overrides)),
                {"echo": self.echo})

    def tolerances(self, rank_rel: float | None = None, match_abs: float | None = None) -> Tolerances:
        """Resolve tolerances: explicit arguments beat file overrides beat defaults."""
        merged = dict(self.tol_overrides)
        if rank_rel is not None:
            merged["rank_rel"] = rank_rel
        if match_abs is not None:
            merged["match_abs"] = match_abs
        return Tolerances(**merged)


def _as_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InstanceFormatError(f"{where}: expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise InstanceFormatError(
            f"{where}: an integer of {value.bit_length()} bits is too large for a double"
        ) from None


def _reject_first_bad_number(flat: list, dim: int, where: str) -> None:
    """Raise for the first of a matrix's flattened [re, im] values that is no double."""
    for k, value in enumerate(flat):
        i, j = divmod(k // 2, dim)
        _as_number(value, f"{where} ({i},{j}) {('re', 'im')[k % 2]}")


def _parse_matrix(rows, dim: int, where: str) -> np.ndarray:
    if not isinstance(rows, list) or len(rows) != dim:
        raise InstanceFormatError(f"{where}: expected {dim} rows")
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise InstanceFormatError(f"{where}: row {i} must hold {dim} entries")
    pairs = list(chain.from_iterable(rows))
    if not all(issubclass(t, list) for t in set(map(type, pairs))) or set(map(len, pairs)) != {2}:
        for k, pair in enumerate(pairs):
            if not isinstance(pair, list) or len(pair) != 2:
                i, j = divmod(k, dim)
                raise InstanceFormatError(f"{where}: entry ({i},{j}) must be a [re, im] pair")
    flat = list(chain.from_iterable(pairs))
    if set(map(type, flat)) != {float}:  # an int may overflow a double: each value is checked
        _reject_first_bad_number(flat, dim, where)
    values = np.array(flat, dtype=np.float64)
    # Reinterpret the [re, im] doubles in place: bit-exact, unlike re + 1j*im,
    # which turns -0.0 into 0.0 and an infinite imaginary part into a NaN real.
    return values.view(np.complex128).reshape(dim, dim)


def parse_instance(obj) -> Instance:
    """Parse a decoded JSON object into an :class:`Instance`."""
    if not isinstance(obj, dict):
        raise InstanceFormatError("instance file must hold a JSON object")
    dim = obj.get("dim")
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise InstanceFormatError('"dim" must be a positive integer')
    raw_matrices = obj.get("matrices")
    if not isinstance(raw_matrices, list) or not raw_matrices:
        raise InstanceFormatError('"matrices" must be a nonempty list')
    if len(raw_matrices) > MAX_INSTANCE_MATRICES:  # before any matrix is converted
        raise InstanceFormatError(f"instance too large: {len(raw_matrices)} matrices, "
                                  f"over the cap of {MAX_INSTANCE_MATRICES}")
    entries = len(raw_matrices) * dim**2
    if entries > MAX_INSTANCE_ENTRIES:  # the cap of generate, also before any conversion
        raise InstanceFormatError(f"instance too large: {len(raw_matrices)} matrices of {dim} x {dim} "
                                  f"are {entries} entries, over the cap of {MAX_INSTANCE_ENTRIES}")
    names, matrices = [], []
    for idx, entry in enumerate(raw_matrices):
        if not isinstance(entry, dict) or "rows" not in entry:
            raise InstanceFormatError(f'matrix {idx}: expected an object with "rows"')
        name = entry.get("name", f"rho_{idx + 1}")
        if not isinstance(name, str) or not name:
            raise InstanceFormatError(f"matrix {idx}: name must be a nonempty string")
        names.append(name)
        matrices.append(_parse_matrix(entry["rows"], dim, f"matrix {name!r}"))
    overrides = {}
    if "tolerances" in obj:
        tols = obj["tolerances"]
        if not isinstance(tols, dict):
            raise InstanceFormatError('"tolerances" must be an object')
        known = [f.name for f in fields(Tolerances)]
        for key, value in tols.items():
            if key not in known:
                raise InstanceFormatError(f"unknown tolerance {key!r}")
            overrides[key] = _as_number(value, f"tolerances.{key}")
    return Instance(dim=dim, names=names, matrices=matrices, tol_overrides=overrides)


def _echo(text: str, obj: dict) -> str | None:
    """``text`` less one trailing newline, if it spells ``obj`` as the writer
    would up to numbers and whitespace (see the module docstring); else None."""
    line, tols = text.removesuffix("\n"), obj.get("tolerances")
    # a line break ends the line; a backslash or DEL in a string may be spelled otherwise
    as_written = (line.isascii() and not any(c in line for c in "\n\r\\\x7f")
                  and list(obj) == [key for key in ("dim", "matrices", "tolerances") if key in obj]
                  and all(list(entry) == ["name", "rows"] for entry in obj["matrices"])
                  and (tols is None or (bool(tols) and list(tols) == sorted(tols))))
    return line if as_written else None


def _decode(text: str):
    """The JSON value of ``text``, by orjson when it takes the text, else by ``json``.

    orjson gets the text when it opens at most :data:`ORJSON_MAX_OBJECTS`
    objects and :data:`ORJSON_MAX_OPENINGS` arrays and objects together,
    counted on the UTF-8 bytes, and gives way to ``json`` whenever it
    refuses the text (see the module docstring).
    """
    raw = text.encode()
    octets = np.frombuffer(raw, np.uint8)
    objects = np.count_nonzero(octets == ord("{"))
    openings = objects + np.count_nonzero(octets == ord("["))
    if objects <= ORJSON_MAX_OBJECTS and openings <= ORJSON_MAX_OPENINGS:
        import orjson  # here, so that a process that decodes nothing (generate) never loads it
        try:
            return orjson.loads(raw)
        except orjson.JSONDecodeError:
            pass
    return json.loads(text)


def load_instance(path) -> Instance:
    """Read and parse an instance file, keeping its line as the echo when it may be.

    The instance cannot change, so the echo set here spells it as long as it lives.
    Input nested too deeply to decode, or to quote in a diagnostic, raises
    :class:`InstanceFormatError` like any other unreadable input.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                text = fh.read()
                obj = _decode(text)
            except ValueError as exc:  # also bad UTF-8 and integers over the digit limit
                raise InstanceFormatError(f"not valid JSON: {exc}") from exc
        instance = parse_instance(obj)
    except RecursionError as exc:
        raise InstanceFormatError(f"instance nested too deeply: {exc}") from exc
    object.__setattr__(instance, "echo", _echo(text, obj))
    return instance


def matrix_to_pairs(m: np.ndarray) -> list:
    """Nested lists of the array's shape, each complex entry an ``[re, im]`` pair."""
    a = np.ascontiguousarray(m, dtype=np.complex128)
    return a.view(np.float64).reshape(a.shape + (2,)).tolist()


def _to_json(value):
    """A report field as JSON: a complex array as ``[re, im]`` pairs, any other array as lists."""
    if isinstance(value, np.ndarray):
        return matrix_to_pairs(value) if value.dtype.kind == "c" else value.tolist()
    return value


@dataclass(frozen=True)
class _Encoded:
    """A value already spelled as JSON, which :func:`dump_payload` writes as is."""

    text: str


def instance_payload(instance: Instance) -> dict:
    payload = {
        "dim": instance.dim,
        "matrices": [
            {"name": name, "rows": matrix_to_pairs(matrix)}
            for name, matrix in zip(instance.names, instance.matrices)
        ],
    }
    if instance.tol_overrides:
        payload["tolerances"] = dict(instance.tol_overrides)
    return payload


def report_payload(
    report: CompatReport,
    names: list[str],
    tol: Tolerances,
    instance: Instance,
    scenario: ScenarioResult | None = None,
) -> dict:
    """Assemble the JSON object written by the check and scenario commands.

    ``"report"`` holds every :class:`CompatReport` field, through
    :func:`_to_json`, and the matrix names. ``"instance"`` is the instance's
    echo when it has one, else its re-encoding.
    """
    payload = {
        "tolerances": {f.name: getattr(tol, f.name) for f in fields(tol)},
        "instance": instance_payload(instance) if instance.echo is None else _Encoded(instance.echo),
        "report": {
            "names": list(names),
            **{f.name: _to_json(getattr(report, f.name)) for f in fields(report)},
        },
    }
    if scenario is not None:
        payload["scenario"] = {
            "joint_zero_outcome_probability": scenario.joint_zero_probability,
            "observers": [
                {"name": name, "recovery_distance": distance}
                for name, distance in zip(names, scenario.distances)
            ],
            "success": scenario.success,
        }
    return payload


def dump_payload(payload: dict, fh) -> None:
    """Write ``payload`` as one line of JSON with sorted keys.

    The top-level values are written one by one, in key order: a value
    already encoded goes in as is, and any other goes through ``json.dumps``
    with sorted keys. So without an encoded value the line is byte-identical
    to ``json.dumps(payload, sort_keys=True)``. ``json.dumps`` without
    ``indent`` runs in the C encoder (with ``indent`` CPython falls back to
    the pure-Python one), and it prints floats with ``float.__repr__``, so
    every value reads back bit-exactly.
    """
    fh.write("{")
    for i, (key, value) in enumerate(sorted(payload.items())):
        text = value.text if isinstance(value, _Encoded) else json.dumps(value, sort_keys=True)
        fh.write(f"{', ' if i else ''}{json.dumps(key)}: {text}")
    fh.write("}\n")
