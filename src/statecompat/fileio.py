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
JSON and numpy in bulk: a matrix's ``[re, im]`` pairs are checked for shape
and type, then converted in one ``np.array`` call and reinterpreted as
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
the line repeats. Any other input is re-encoded. :func:`load_instance`
returns read-only matrices, and the line is echoed only while the instance
still holds what was read from it (see :attr:`Instance.echo`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from itertools import chain

import numpy as np

from .compat import CompatReport
from .errors import InstanceFormatError
from .linalg import Tolerances
from .scenario import ScenarioResult

_TOL_KEYS = ("rank_rel", "match_abs")


@dataclass(eq=False)
class Instance:
    """Parsed instance file: raw matrices plus optional tolerance overrides."""

    dim: int
    names: list[str]
    matrices: list[np.ndarray]
    tol_overrides: dict[str, float] = field(default_factory=dict)
    #: the file's line, what it was read into (see :meth:`_holds`) and the matrices read,
    #: set by :func:`load_instance`
    _read: tuple | None = field(default=None, init=False, repr=False)

    def _holds(self) -> tuple:
        return self.dim, list(self.names), dict(self.tol_overrides), list(map(id, self.matrices))

    @property
    def echo(self) -> str | None:
        """The file's line, for a report to echo, while the instance holds what was read from it.

        That is the same dim, names and tolerance overrides, and the same
        matrix objects (read-only) in the same order; the read matrices are
        kept, so no other array can take their identities. After any change,
        this is None and a report re-encodes the instance.
        """
        return self._read[0] if self._read and self._read[1] == self._holds() else None

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
    if not all(t is not bool and issubclass(t, (int, float)) for t in set(map(type, flat))):
        _reject_first_bad_number(flat, dim, where)
    try:
        values = np.array(flat, dtype=np.float64)
    except OverflowError:
        _reject_first_bad_number(flat, dim, where)
        raise
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
        for key, value in tols.items():
            if key not in _TOL_KEYS:
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


def load_instance(path) -> Instance:
    """Read and parse an instance file, keeping its line as the echo when it may be.

    The matrices are read-only, so the echo cannot go stale by a write into one.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
            obj = json.loads(text)
        except ValueError as exc:  # also bad UTF-8 and integers over the digit limit
            raise InstanceFormatError(f"not valid JSON: {exc}") from exc
    instance = parse_instance(obj)
    for matrix in instance.matrices:
        matrix.flags.writeable = False
    instance._read = (_echo(text, obj), instance._holds(), list(instance.matrices))
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
        "tolerances": {"rank_rel": tol.rank_rel, "match_abs": tol.match_abs},
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
                {"name": name, "recovery_distance": rec.distance}
                for name, rec in zip(names, scenario.recoveries)
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
