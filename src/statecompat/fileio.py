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

This module alone decides what an instance may hold. Its size caps,
:data:`MAX_INSTANCE_MATRICES` and :data:`MAX_INSTANCE_ENTRIES`, are checked
by one function, which the reader calls before it converts a matrix and the
``generate`` verb before it draws one, so both refuse a size in the same
words. The :class:`Instance` constructor checks the rest: at least one
matrix, one nonempty name per ``dim`` x ``dim`` matrix, and tolerances that
are known names with numbers for values, so an instance writes no file that
its reader refuses for them; the reader leaves those checks to it.

Files are written as one line of ASCII JSON with sorted keys (``python -m
json.tool FILE`` pretty-prints one); reading accepts any layout. Numbers move
between JSON and numpy in bulk: a matrix's ``[re, im]`` pairs are checked for
shape, a matrix holding anything but floats has its values checked one by
one, and then all are converted in one ``np.array`` call and reinterpreted
as complex128, so every double round-trips bit for bit.

An input laid out as the writer lays it out is echoed as read, without
re-encoding a number: one line of ASCII (less one trailing newline) with no
backslash or DEL, the top-level keys a sorted subset of ``dim``, ``matrices``
and ``tolerances``, each matrix entry exactly ``name`` then ``rows``, and the
``tolerances`` nonempty with sorted keys. Every file that ``generate`` writes
is such a line, and so is a report's ``"instance"`` when no name needs an
escape. The echo parses to the same matrices bit for bit; it can differ from
the re-encoding only in how numbers are spelled (``1`` against ``1.0``,
``1e-05`` against ``1e-5``), in whitespace between tokens, and in a key that
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
gets a text as it is only when it holds at most :data:`ORJSON_MAX_OBJECTS`
``{`` and at most :data:`ORJSON_MAX_OPENINGS` ``[`` plus ``{``, bounds on
its depth; a valid instance nests six levels deep and opens one object per
matrix plus two, so no valid instance of at most
:data:`MAX_INSTANCE_MATRICES` matrices exceeds the object bound. Any other
text is scanned first, for its brackets outside strings (:func:`_scan`).
A text nested more than :data:`JSON_MAX_DEPTH` levels deep raises the
``RecursionError`` that ``json`` raises up to Python 3.12, and one whose
``"matrices"`` list opens more objects than the matrix cap is refused in
the cap's words, before either decoder runs. The rest nests at most 1,000
levels, under the 1,026 objects that a 512 KiB thread survived, and goes
to orjson too. ``json`` reads only what orjson refuses, after the same
scan: up to Python 3.12 it refuses deep nesting with a ``RecursionError``
(on a 512 KiB thread too), but 3.13's recurses up to 10,000 levels and
overflows such a thread first, which the depth bound keeps it from. A
``RecursionError`` becomes an :class:`InstanceFormatError`. orjson reads an
integer beyond 64 bits as the nearest double, which is the double
``json``'s integer converts to; only a ``dim`` of 2**64 or more reads
differently, and it is refused either way.

The writer spells each double as orjson does, where ``json.dumps`` spells it
as ``float.__repr__`` does. Both write the shortest digits that read back to
the same double; they differ only in the exponent (``1e-7`` against
``1e-07``, ``1e16`` against ``1e+16``) and in where they switch to one
(``0.00001`` against ``1e-05``). So every number reads back bit for bit under
either decoder, and identical inputs give identical bytes. A value that
orjson would write otherwise (a ``null`` for a NaN, raw UTF-8, an integer it
refuses, a numpy scalar) is written by ``json.dumps``.

Payloads hold arrays, and no list of their numbers is made: a complex matrix
or vector is its C-contiguous ``(..., 2)`` float64 view of ``[re, im]``
pairs, a real or bool table the array itself. orjson writes them with
``OPT_SERIALIZE_NUMPY``, which for a finite float64 or a bool array gives
the bytes of its ``tolist()``; a leaf that holds a NaN, an infinity,
a numpy scalar or an array of another dtype is written by ``json.dumps``
with its arrays as lists. So a payload is no longer ``json.dumps``-able as
it is. The writer makes bytes, and :func:`dump_payload` hands them to a text
file's binary buffer, flushed first, with no decode and no copy of the whole
line.
"""

from __future__ import annotations

import codecs
import json
import math
import re
from dataclasses import dataclass, field, fields
from itertools import chain
from types import MappingProxyType

import numpy as np

from .compat import CompatReport
from .errors import InstanceFormatError
from .linalg import Tolerances, as_dim, read_only
from .scenario import ScenarioResult

#: Largest instance, in matrix entries (count * dim^2), the command line
#: generates, reads or realizes: 2**24 complex128 entries are 256 MiB.
#: :func:`_over_a_cap` is its one check.
MAX_INSTANCE_ENTRIES = 1 << 24

#: Most matrices in an instance the command line generates, reads or
#: realizes: a report holds count x count pairwise tables, so 1024 matrices
#: of 2 x 2 already give a 52 MB report (51.7 MB compatible, 52.6 MB
#: incompatible, at seed 1). :func:`_over_a_cap` is its one check.
MAX_INSTANCE_MATRICES = 1024

#: The most ``[`` plus ``{`` a text may hold for orjson to decode it without a
#: scan: their count bounds the nesting depth, which orjson does not limit itself.
ORJSON_MAX_OPENINGS = 4096

#: The most ``{`` a text may hold for orjson to decode it without a scan,
#: which costs more stack per level than ``[``: the top-level object,
#: ``tolerances`` and one object per matrix of an instance under the matrix
#: cap. A text with more is scanned, and its matrices are counted.
ORJSON_MAX_OBJECTS = 2 + MAX_INSTANCE_MATRICES

#: The deepest nesting :func:`_decode` hands to a decoder once it has scanned
#: the text, under the 1,026 nested objects that orjson survived on a 512 KiB
#: thread. ``json`` nests by C recursion: Pythons 3.10 and 3.11 refuse deeper
#: input at the default recursion limit, and 3.12 beyond about 1,500 levels;
#: 3.13 counts C recursion to 10,000 levels, and its ``json`` parsed 3,000
#: nested objects in a 512 KiB thread but was killed by 4,096. A valid
#: instance nests six levels deep, so the bound refuses no instance that any
#: Python reads.
JSON_MAX_DEPTH = 1000


def _over_a_cap(count: int, dim: int) -> str | None:
    """Why an instance of ``count`` matrices of ``dim`` x ``dim`` is too large,
    naming the matrix cap first, or None when it is within both caps.

    The reader and the ``generate`` verb refuse with this text, before they
    convert or generate any matrix. The caps are read when it is called.
    """
    if count > MAX_INSTANCE_MATRICES:
        return f"{count} matrices, over the cap of {MAX_INSTANCE_MATRICES}"
    entries = count * dim**2
    return (f"{count} matrices of {dim} x {dim} are {entries} entries, over the cap of {MAX_INSTANCE_ENTRIES}"
            if entries > MAX_INSTANCE_ENTRIES else None)


@dataclass(frozen=True, eq=False)
class Instance:
    """Parsed instance file: raw matrices plus optional tolerance overrides.

    ``dim`` is a positive integer, stored as an ``int``. The constructor
    checks the rest of what a file must hold, in the reader's words: it
    raises :class:`InstanceFormatError` unless there is at least one
    matrix, one name per matrix, each a nonempty string, every matrix is
    ``dim`` x ``dim``, every tolerance override is a number that a double
    holds (an ``int`` or a ``float``, not a ``bool``), stored as a
    ``float``, and each is named after a
    :class:`~statecompat.linalg.Tolerances` field. It checks neither the
    size caps nor the matrices' numbers. An instance
    cannot change after it is made: it is frozen, ``names`` and
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
        object.__setattr__(self, "dim", as_dim(self.dim, "instance dimension"))
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "matrices", tuple(map(read_only, self.matrices)))
        if not self.matrices:
            raise InstanceFormatError('"matrices" must be a nonempty list')
        if len(self.names) != len(self.matrices):
            raise InstanceFormatError(f"{len(self.names)} names for {len(self.matrices)} matrices")
        for idx, (name, matrix) in enumerate(zip(self.names, self.matrices)):
            if not isinstance(name, str) or not name:
                raise InstanceFormatError(f"matrix {idx}: name must be a nonempty string")
            if matrix.shape != (self.dim, self.dim):
                raise InstanceFormatError(f"matrix {name!r} is {matrix.shape}, not {self.dim} x {self.dim}")
        overrides = {key: _as_number(value, f"tolerances.{key}")
                     for key, value in dict(self.tol_overrides).items()}
        object.__setattr__(self, "tol_overrides", MappingProxyType(overrides))
        for key in overrides:
            if key not in {f.name for f in fields(Tolerances)}:
                raise InstanceFormatError(f"unknown tolerance {key!r}")

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
    if set(map(type, flat)) != {float}:  # an int may overflow a double: the first bad value raises
        for k, value in enumerate(flat):
            _as_number(value, f"{where} ({k // 2 // dim},{k // 2 % dim}) {('re', 'im')[k % 2]}")
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
    if not isinstance(raw_matrices, list):
        raise InstanceFormatError('"matrices" must be a nonempty list')
    if too_large := _over_a_cap(len(raw_matrices), dim):  # before any matrix is converted
        raise InstanceFormatError(f"instance too large: {too_large}")
    names, matrices = [], []
    for idx, entry in enumerate(raw_matrices):
        if not isinstance(entry, dict) or "rows" not in entry:
            raise InstanceFormatError(f'matrix {idx}: expected an object with "rows"')
        name = entry.get("name", f"rho_{idx + 1}")
        names.append(name)
        matrices.append(_parse_matrix(entry["rows"], dim, f"matrix {name!r}"))
    tols = obj.get("tolerances", {})
    if not isinstance(tols, dict):
        raise InstanceFormatError('"tolerances" must be an object')
    return Instance(dim=dim, names=names, matrices=matrices, tol_overrides=tols)


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


#: A top-level ``"matrices"`` key and the ``[`` that opens its list, where no
#: escaped quote or backslash is left (see :func:`_scan`).
_MATRICES_KEY = re.compile(rb'"matrices"\s*:\s*\[')


def _scan(raw: bytes, entries: bool) -> None:
    """Refuse ``raw`` before any decoder runs: too deep, or (when ``entries``) too many matrices.

    One scan of the quotes and brackets, once each escaped backslash and
    quote is dropped (no copy when the text holds no backslash), gives the
    depth after each bracket outside strings. A text nested deeper than
    :data:`JSON_MAX_DEPTH` raises the ``RecursionError`` that ``json``
    raises up to Python 3.12. With ``entries``, the objects that open one
    level inside the list of the last top-level ``"matrices"`` key are
    counted; more than :data:`MAX_INSTANCE_MATRICES` raise
    :class:`InstanceFormatError` in :func:`_over_a_cap`'s words, which
    :func:`parse_instance` would raise once the text was decoded. Any other
    text passes, for the decoders to judge.
    """
    if b"\\" in raw:
        raw = raw.replace(b"\\\\", b"").replace(b'\\"', b"")
    codes = np.frombuffer(raw, np.uint8)
    marks, low = codes == 0x22, codes | 0x20  # [ and { read as {, ] and } as }
    marks |= low == 0x7B
    marks |= low == 0x7D
    del low  # the text-sized arrays go as soon as they are read
    chars = codes[marks]
    opens = [match.end() - 1 for match in _MATRICES_KEY.finditer(raw)] if entries else []
    starts = np.cumsum([np.count_nonzero(marks[a:b]) for a, b in zip([0, *opens], opens)], dtype=np.intp)
    del marks  # ``starts`` holds the index of each such ``[`` in ``chars``
    quotes = chars == 0x22
    inside = np.logical_xor.accumulate(quotes) | quotes  # a string, from its opening quote to its closing one
    low = chars | 0x20
    steps = (low == 0x7B).view(np.int8) - (low == 0x7D).view(np.int8)
    steps[inside] = 0
    levels = np.cumsum(steps, dtype=np.int32)  # it passes any bound on the way to an overflow
    if levels.max(initial=0) > JSON_MAX_DEPTH:
        raise RecursionError(f"more than {JSON_MAX_DEPTH} levels")
    starts = starts[levels[starts] == 2]  # the lists that the top-level object holds
    if starts.size:
        first = starts[-1] + 1  # the last, as a repeated key's last value is read
        last = first + np.argmax(levels[first:] < 2)  # unclosed, it counts nothing: invalid JSON
        count = np.count_nonzero((levels[first:last] == 3) & (chars[first:last] == 0x7B) & ~inside[first:last])
        if count > MAX_INSTANCE_MATRICES:
            raise InstanceFormatError(f"instance too large: {_over_a_cap(count, 1)}")


def _decode(text: str):
    """The JSON value of ``text``, by orjson unless it refuses the text, then by ``json``.

    A text within the cheap bounds, at most :data:`ORJSON_MAX_OBJECTS`
    objects and :data:`ORJSON_MAX_OPENINGS` arrays and objects together,
    counted on the UTF-8 bytes, goes to orjson as it is. Any other text is
    first scanned (:func:`_scan`): one nested deeper than
    :data:`JSON_MAX_DEPTH` raises ``RecursionError``, and one with more
    objects than :data:`ORJSON_MAX_OBJECTS` whose ``"matrices"`` list holds
    more than :data:`MAX_INSTANCE_MATRICES` raises :class:`InstanceFormatError`;
    the rest, no deeper than orjson survives on a small stack, goes to
    orjson too. ``json`` reads only what orjson refuses (see the module
    docstring), after the same scan.
    """
    raw = text.encode()
    codes = np.frombuffer(raw, np.uint8)
    objects = np.count_nonzero(codes == 0x7B)  # b"{"
    scanned = objects > ORJSON_MAX_OBJECTS or objects + np.count_nonzero(codes == 0x5B) > ORJSON_MAX_OPENINGS
    if scanned:
        _scan(raw, objects > ORJSON_MAX_OBJECTS)
    import orjson  # here, so that importing the package or the CLI does not load it
    try:
        return orjson.loads(raw)
    except orjson.JSONDecodeError:
        pass
    if not scanned:
        _scan(raw, False)
    return json.loads(text)


def load_instance(path) -> Instance:
    """Read and parse an instance file, keeping its line as the echo when it may be.

    The instance cannot change, so the echo set here spells it as long as it lives.
    Input nested too deeply to decode, or to quote in a diagnostic, raises
    :class:`InstanceFormatError` like any other unreadable input; a text
    that :func:`_scan` finds over the matrix cap is refused in the cap's
    words, not as invalid JSON.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                text = fh.read()
                obj = _decode(text)
            except InstanceFormatError:  # over the matrix cap, refused before decoding
                raise
            except ValueError as exc:  # also bad UTF-8 and integers over the digit limit
                raise InstanceFormatError(f"not valid JSON: {exc}") from exc
        instance = parse_instance(obj)
    except RecursionError as exc:
        raise InstanceFormatError(f"instance nested too deeply: {exc}") from exc
    object.__setattr__(instance, "echo", _echo(text, obj))
    return instance


def _pairs(m) -> np.ndarray:
    """The C-contiguous ``(..., 2)`` float64 view of ``m`` as complex128: its ``[re, im]`` pairs."""
    a = np.ascontiguousarray(m, dtype=np.complex128)
    return a.view(np.float64).reshape(a.shape + (2,))


def _to_json(value):
    """A report field as a leaf: a complex array as its ``[re, im]`` view, any other value as is."""
    return _pairs(value) if isinstance(value, np.ndarray) and value.dtype.kind == "c" else value


def instance_payload(instance: Instance) -> dict:
    payload = {
        "dim": instance.dim,
        "matrices": [
            {"name": name, "rows": _pairs(matrix)}
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
    :func:`_to_json` (a complex array as its ``[re, im]`` view, the tables as
    their arrays), and the matrix names. ``"instance"`` is the instance's
    echo, as bytes, when it has one, else its re-encoding.
    """
    payload = {
        "tolerances": {f.name: getattr(tol, f.name) for f in fields(tol)},
        "instance": instance_payload(instance) if instance.echo is None else instance.echo.encode(),
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


def _orjson_spells(value) -> bool:
    """Whether orjson, writing arrays itself, spells ``value`` as ``json.dumps``
    spells it with its arrays as lists, but for float digits and separators.

    That is so unless ``value`` holds, at any depth of lists and dicts, a NaN or
    an infinity (orjson writes ``null``), a numpy scalar or another float
    subclass, or an array of another dtype than bool or native float64
    (orjson spells a float32 by its own digits, and misreads the other byte
    order).
    """
    if isinstance(value, float):
        return type(value) is float and math.isfinite(value)
    if isinstance(value, np.ndarray):
        return value.dtype == np.bool_ or value.dtype == np.float64 and bool(np.isfinite(value).all())
    if isinstance(value, (list, tuple, dict)):
        return all(map(_orjson_spells, value.values() if isinstance(value, dict) else value))
    return not isinstance(value, np.generic)


def _leaf(value, orjson) -> bytes:
    """``value`` as JSON bytes: orjson's, unless orjson would spell it otherwise
    than ``json.dumps`` spells it with its arrays as lists, in more than its
    float digits and separators.

    orjson writes an array with ``OPT_SERIALIZE_NUMPY``, which for bool and
    finite float64 arrays gives the bytes of their lists, and
    hands any array it does not write itself (one that is not C-contiguous,
    or of no dimension) to ``tolist``. Where it would spell ``value``
    otherwise (see :func:`_orjson_spells`), or refuses it (an integer beyond
    64 bits, a non-string key, a lone surrogate), or writes a byte that
    ``json.dumps`` escapes (non-ASCII, DEL), ``value`` is written by
    ``json.dumps`` with sorted keys and its arrays as lists.
    """
    if _orjson_spells(value):
        try:
            text = orjson.dumps(value, default=np.ndarray.tolist,
                                option=orjson.OPT_SORT_KEYS | orjson.OPT_SERIALIZE_NUMPY)
            if text.isascii() and b"\x7f" not in text:
                return text
        except TypeError:  # orjson.JSONEncodeError is one
            pass
    return json.dumps(value, default=np.ndarray.tolist, sort_keys=True).encode()


def _pieces(value, orjson):
    """The JSON bytes of ``value`` in pieces: a dict with string keys key by key,
    in sorted order, bytes as they are, and any other value as a leaf."""
    if isinstance(value, bytes):
        yield value
    elif isinstance(value, dict) and all(isinstance(key, str) for key in value):
        yield b"{"
        for i, (key, item) in enumerate(sorted(value.items())):
            yield f"{', ' if i else ''}{json.dumps(key)}: ".encode()
            yield from _pieces(item, orjson)
        yield b"}"
    else:
        yield _leaf(value, orjson)


def dump_payload(payload: dict, fh) -> None:
    """Write ``payload`` as one line of ASCII JSON with sorted keys.

    A dict with string keys is written key by key, in sorted order, laid out
    as ``json.dumps`` lays it out (``", "`` between items, ``": "`` after a
    key), and bytes, JSON already encoded, go in as they are. Every other
    value is a leaf, written by :func:`_leaf`: by orjson, compact, arrays
    included, or by ``json.dumps`` where orjson would spell it otherwise in
    more than its float digits. The test is made per leaf, so a report's
    ``"witness": null`` leaves its pairwise tables to orjson. The line parses
    to what ``json.dumps(payload, sort_keys=True)`` would parse to with every
    array as its lists, every float bit for bit.

    The pieces are bytes. A text file in UTF-8 or ASCII is flushed, so
    anything written to it before goes first, and the pieces go straight to
    its binary ``buffer``, with no decode and no copy of the whole line; any
    other stream, such as an ``io.StringIO``, gets them as text. The bytes
    are ASCII, so both give what the text layer would write. The trailing
    newline goes through the text layer, which translates it as the stream
    asks. orjson is imported here, on the first write, so importing the
    package does not load it.
    """
    import orjson

    if hasattr(fh, "buffer") and codecs.lookup(fh.encoding).name in ("utf-8", "ascii"):
        fh.flush()  # what the stream holds goes first
        fh.buffer.writelines(_pieces(payload, orjson))
    else:
        fh.writelines(piece.decode("ascii") for piece in _pieces(payload, orjson))
    fh.write("\n")
